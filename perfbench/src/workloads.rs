//! The four workloads: inputs, setup, clients, crash-recovery service
//! and output checks.

use std::collections::VecDeque;
use std::sync::Arc;

use cxl0_model::MachineId;
use cxl0_runtime::api::{Cluster, Session};
use cxl0_runtime::ds::{DurableList, DurableMap, DurableQueue};
use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

use crate::checks::{
    expect, queue_conserved, queue_value, same_set, Faults, MapValues, QueueConsumer,
};
use crate::harness::{build_cluster, Client, Op, Spans, NODE0, NODE1};

const MAP: &str = "bench/map";
const QUEUE: &str = "bench/queue";
const LIST: &str = "bench/list";

/// Producers of the queue-backlog workload: the prefill, the two client
/// sessions and the crash-recovery phase.
const QUEUE_PRODUCERS: usize = 4;
const PREFILL_PRODUCER: usize = 0;
const RESTART_PRODUCER: usize = 3;
/// Consumers: the two client sessions, the crash-recovery phase and the
/// final drain.
const RESTART_CONSUMER: usize = 2;
const DRAIN_CONSUMER: usize = 3;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-mostly zipfian map shared by two nodes.
    MapZipf,
    /// Producer/consumer queue with a standing backlog.
    QueueBacklog,
    /// List churn by one node while another reads.
    ListChurn,
    /// Bursts over a mixed heap, each followed by a partial crash.
    CrashRecover,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::MapZipf,
        Kind::QueueBacklog,
        Kind::ListChurn,
        Kind::CrashRecover,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::MapZipf => "map-zipf",
            Kind::QueueBacklog => "queue-backlog",
            Kind::ListChurn => "list-churn",
            Kind::CrashRecover => "crash-recover",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::tiny`] only
/// exercises the code paths (smoke tests).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `map-zipf`: prefilled keys (the table has twice as many slots).
    pub map_keys: u64,
    /// `queue-backlog`: standing backlog.
    pub queue_backlog: u64,
    /// `list-churn`: key universe (about half present).
    pub list_keys: u64,
    /// `crash-recover`: map keys.
    pub mixed_map_keys: u64,
    /// `crash-recover`: queue backlog.
    pub mixed_queue_backlog: u64,
    /// `crash-recover`: list key universe (about half present).
    pub mixed_list_keys: u64,
    /// Length of each generated op stream (clients cycle through it).
    pub stream_len: usize,
    /// `crash-recover`: ops per burst between crashes.
    pub burst: usize,
    /// `crash-recover`: bursts run before timing.
    pub warm_bursts: usize,
    /// Crash cycles: `crash-recover` runs at least this many (and its
    /// simulated-time figures cover exactly these); the other workloads
    /// run exactly this many after their window.
    pub cycles: usize,
    /// `crash-recover`: a full-state check every this many cycles.
    pub full_check_every: usize,
    /// Rounds the window is cut into, each on a fresh deployment.
    pub rounds: usize,
    /// Setups per round (`setup_s` is their median; the last is kept).
    pub setups: usize,
    /// Traced pass: calls per client.
    pub traced_ops: u64,
    /// Traced pass: warm-up calls per client.
    pub traced_warmup: u64,
    /// Traced pass of `crash-recover`: cycles.
    pub traced_cycles: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            map_keys: 1 << 16,
            queue_backlog: 4096,
            list_keys: 512,
            mixed_map_keys: 1 << 15,
            mixed_queue_backlog: 8192,
            mixed_list_keys: 512,
            stream_len: 1 << 18,
            burst: 1000,
            warm_bursts: 20,
            cycles: 1000,
            full_check_every: 50,
            rounds: 5,
            setups: 3,
            traced_ops: 20_000,
            traced_warmup: 2_000,
            // Every event is sealed into the tracer's 65536-event
            // crash buffer: the prefill takes ~41k, a cycle ~1.3k.
            traced_cycles: 12,
        }
    }

    /// Smoke-test sizes.
    pub fn tiny() -> Self {
        Sizes {
            map_keys: 1 << 10,
            queue_backlog: 64,
            list_keys: 64,
            mixed_map_keys: 1 << 9,
            mixed_queue_backlog: 64,
            mixed_list_keys: 64,
            stream_len: 1 << 12,
            burst: 100,
            warm_bursts: 2,
            cycles: 20,
            full_check_every: 5,
            rounds: 2,
            setups: 2,
            traced_ops: 500,
            traced_warmup: 50,
            traced_cycles: 4,
        }
    }
}

type Stream = Arc<Vec<WorkloadOp>>;

fn stream(dist: KeyDist, mix: OpMix, seed: u64, len: usize) -> Stream {
    Arc::new(Workload::new(dist, mix, seed).take_ops(len))
}

/// The generated inputs of one run: every op stream and prefill, made
/// from the seed before anything is timed.
pub struct Inputs {
    kind: Kind,
    sizes: Sizes,
    streams: Vec<Stream>,
    map_values: Arc<MapValues>,
}

impl Inputs {
    /// Generates `kind`'s inputs from `seed`.
    pub fn generate(kind: Kind, sizes: Sizes, seed: u64) -> Self {
        let n = sizes.stream_len;
        // Independent sub-seeds per stream.
        let sub = |i: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        let streams = match kind {
            Kind::MapZipf => {
                let zipf = KeyDist::zipfian(sizes.map_keys, 0.99);
                vec![
                    stream(zipf.clone(), OpMix::new(80, 15, 5), sub(1), n),
                    stream(zipf.clone(), OpMix::new(80, 15, 5), sub(2), n),
                    stream(zipf, OpMix::new(100, 0, 0), sub(3), n),
                ]
            }
            Kind::QueueBacklog => {
                // Only the crash-recovery phase draws: enqueue or dequeue.
                vec![stream(
                    KeyDist::uniform(1),
                    OpMix::new(0, 50, 50),
                    sub(1),
                    n,
                )]
            }
            Kind::ListChurn => {
                let keys = KeyDist::uniform(sizes.list_keys);
                vec![
                    stream(keys.clone(), OpMix::new(0, 50, 50), sub(1), n),
                    stream(keys.clone(), OpMix::new(100, 0, 0), sub(2), n),
                    // Prefill: key k is present iff op k is an insert.
                    stream(
                        KeyDist::uniform(1),
                        OpMix::new(0, 50, 50),
                        sub(3),
                        sizes.list_keys as usize + 1,
                    ),
                    stream(keys, OpMix::new(100, 0, 0), sub(4), n),
                ]
            }
            Kind::CrashRecover => {
                let lk = KeyDist::uniform(sizes.mixed_list_keys);
                vec![
                    // Which root each op goes to: keys 1-2 map, 3 queue, 4 list.
                    stream(KeyDist::uniform(4), OpMix::new(100, 0, 0), sub(1), n),
                    stream(
                        KeyDist::zipfian(sizes.mixed_map_keys, 0.99),
                        OpMix::new(80, 15, 5),
                        sub(2),
                        n,
                    ),
                    stream(lk.clone(), OpMix::churn(), sub(3), n),
                    stream(
                        KeyDist::uniform(1),
                        OpMix::new(0, 50, 50),
                        sub(4),
                        sizes.mixed_list_keys as usize + 1,
                    ),
                    stream(lk, OpMix::new(100, 0, 0), sub(5), n),
                ]
            }
        };
        let map_values = Arc::new(MapValues::new(match kind {
            Kind::MapZipf => streams[..2].iter().map(|s| s.to_vec()).collect(),
            Kind::CrashRecover => vec![streams[1].to_vec()],
            _ => Vec::new(),
        }));
        Inputs {
            kind,
            sizes,
            streams,
            map_values,
        }
    }
}

/// Answers the per-layer `ds` metrics need, beyond latency: those of
/// client and served calls, not of the checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    /// `map.get` calls, and those that found a value.
    pub map_gets: (u64, u64),
    /// `list.contains` calls, and those that found the key.
    pub list_contains: (u64, u64),
    /// `list.insert`/`list.remove` calls, and those that changed the set.
    pub list_updates: (u64, u64),
    /// `queue.dequeue` calls that found the queue empty.
    pub empty_dequeues: u64,
}

impl Outcomes {
    /// Adds `o`'s counts.
    pub fn add(&mut self, o: &Outcomes) {
        let sum = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
        self.map_gets = sum(self.map_gets, o.map_gets);
        self.list_contains = sum(self.list_contains, o.list_contains);
        self.list_updates = sum(self.list_updates, o.list_updates);
        self.empty_dequeues += o.empty_dequeues;
    }
}

/// Calls issued, their failures and their outcomes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Session calls issued (checks included).
    pub attempted: u64,
    /// Failed calls and failed checks.
    pub faults: Faults,
    /// Outcome counts.
    pub outcomes: Outcomes,
}

impl Tally {
    /// Adds `t`.
    pub fn absorb(&mut self, t: Tally) {
        self.attempted += t.attempted;
        self.faults.absorb(t.faults);
        self.outcomes.add(&t.outcomes);
    }

    fn call<T>(&mut self, what: &str, r: cxl0_runtime::OpResult<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.faults.fail(|| format!("{what}: {e:?}"));
                None
            }
        }
    }

    fn map_get(&mut self, map: &DurableMap<u64, u64>, s: &Session, k: u64) -> Option<Option<u64>> {
        let r = self.call("map.get", map.get(s, k))?;
        self.outcomes.map_gets.0 += 1;
        self.outcomes.map_gets.1 += u64::from(r.is_some());
        Some(r)
    }

    fn list_contains(&mut self, list: &DurableList<u64>, s: &Session, k: u64) -> Option<bool> {
        let r = self.call("list.contains", list.contains(s, k))?;
        self.outcomes.list_contains.0 += 1;
        self.outcomes.list_contains.1 += u64::from(r);
        Some(r)
    }

    fn list_update(
        &mut self,
        list: &DurableList<u64>,
        s: &Session,
        op: WorkloadOp,
    ) -> Option<bool> {
        let r = match op {
            WorkloadOp::Insert(k, _) => self.call("list.insert", list.insert(s, k)),
            _ => self.call("list.remove", list.remove(s, op.key())),
        }?;
        self.outcomes.list_updates.0 += 1;
        self.outcomes.list_updates.1 += u64::from(r);
        Some(r)
    }

    fn dequeue(&mut self, queue: &DurableQueue<u64>, s: &Session) -> Option<u64> {
        let r = self.call("queue.dequeue", queue.dequeue(s))?;
        if r.is_none() {
            self.outcomes.empty_dequeues += 1;
            self.faults
                .fail(|| "dequeue found the backlogged queue empty".into());
        }
        r
    }

    fn enqueue(&mut self, queue: &DurableQueue<u64>, s: &Session, v: u64) -> bool {
        match self.call("queue.enqueue", queue.enqueue(s, v)) {
            Some(true) => true,
            Some(false) => {
                self.faults
                    .fail(|| "enqueue refused: heap exhausted".into());
                false
            }
            None => false,
        }
    }
}

fn list_update_op(op: WorkloadOp) -> Op {
    match op {
        WorkloadOp::Insert(..) => Op::ListInsert,
        _ => Op::ListRemove,
    }
}

struct MapState {
    /// Next position in each client's stream.
    pos: [usize; 2],
    restart_pos: usize,
}

struct QueueState {
    produced: [u64; QUEUE_PRODUCERS],
    consumers: Vec<QueueConsumer>,
    /// Whether each client's next call is an enqueue.
    enq_next: [bool; 2],
    restart_pos: usize,
}

struct ListState {
    model: Vec<bool>,
    pos: [usize; 2],
    restart_pos: usize,
}

struct MixedState {
    map: Vec<u64>,
    queue: VecDeque<u64>,
    queue_seq: u64,
    enq_next: bool,
    list: Vec<bool>,
    /// Positions in the chooser, map and list streams.
    pos: [usize; 3],
    restart_pos: usize,
    touched_map: Vec<u64>,
    touched_list: Vec<u64>,
}

enum State {
    Map(MapState),
    Queue(QueueState),
    List(ListState),
    Mixed(MixedState),
}

/// A built deployment: the cluster, its roots and the models that check
/// every answer.
pub struct Env {
    /// The cluster.
    pub cluster: Arc<Cluster>,
    /// Session on node 0 for single-session phases.
    pub session: Session,
    map: Option<DurableMap<u64, u64>>,
    queue: Option<DurableQueue<u64>>,
    list: Option<DurableList<u64>>,
    /// Calls and failures outside the client loops.
    pub tally: Tally,
    inputs: Arc<Inputs>,
    st: State,
}

fn cells(kind: Kind, z: &Sizes) -> u32 {
    // Node blocks are 3 cells (2 payload + header); the map's table is
    // one exact-fit block of 2 cells per slot. The rest is slack for the
    // registry, allocator metadata and SMR limbo.
    let cells = match kind {
        Kind::MapZipf => 4 * z.map_keys,
        Kind::QueueBacklog => 8 * z.queue_backlog,
        Kind::ListChurn => 32 * z.list_keys,
        Kind::CrashRecover => {
            4 * z.mixed_map_keys + 8 * z.mixed_queue_backlog + 32 * z.mixed_list_keys
        }
    };
    u32::try_from(cells + (1 << 14)).expect("sizes fit a memory node")
}

/// Builds the cluster, creates the workload's roots and prefills them,
/// recording `api.*` spans. With `traced`, the runtime tracer is armed.
pub fn setup(inputs: &Arc<Inputs>, traced: bool, spans: &mut Spans) -> Env {
    let (kind, z) = (inputs.kind, inputs.sizes);
    let cluster = spans.time("api.build", NODE0, || {
        build_cluster(cells(kind, &z), traced)
    });
    let s = cluster.session(NODE0);
    let mut env = Env {
        session: s.clone(),
        map: None,
        queue: None,
        list: None,
        tally: Tally::default(),
        inputs: Arc::clone(inputs),
        st: State::Map(MapState {
            pos: [0; 2],
            restart_pos: 0,
        }),
        cluster,
    };
    let root = "api.create_root";
    let created = "the memory node fits the roots";
    match kind {
        Kind::MapZipf => {
            let map = spans
                .time(root, NODE0, || {
                    s.create_map::<u64, u64>(MAP, 2 * z.map_keys as u32)
                })
                .expect(created);
            spans.time("api.prefill", NODE0, || {
                for k in 1..=z.map_keys {
                    let v = MapValues::encode(k, MapValues::PREFILL, 0);
                    if let Some(r) = env.tally.call("prefill", map.insert(&s, k, v)) {
                        env.tally
                            .faults
                            .check(expect("prefill map.insert", r, Some(None)));
                    }
                }
            });
            env.map = Some(map);
        }
        Kind::QueueBacklog => {
            let queue = spans
                .time(root, NODE0, || s.create_queue::<u64>(QUEUE))
                .expect(created);
            spans.time("api.prefill", NODE0, || {
                for seq in 0..z.queue_backlog {
                    env.tally
                        .enqueue(&queue, &s, queue_value(PREFILL_PRODUCER, seq));
                }
            });
            let mut produced = [0; QUEUE_PRODUCERS];
            produced[PREFILL_PRODUCER] = z.queue_backlog;
            env.st = State::Queue(QueueState {
                produced,
                consumers: vec![QueueConsumer::new(QUEUE_PRODUCERS); 4],
                enq_next: [true; 2],
                restart_pos: 0,
            });
            env.queue = Some(queue);
        }
        Kind::ListChurn => {
            let list = spans
                .time(root, NODE0, || s.create_list::<u64>(LIST))
                .expect(created);
            let model = spans.time("api.prefill", NODE0, || {
                prefill_list(&mut env.tally, &list, &s, &inputs.streams[2])
            });
            env.st = State::List(ListState {
                model,
                pos: [0; 2],
                restart_pos: 0,
            });
            env.list = Some(list);
        }
        Kind::CrashRecover => {
            let map = spans
                .time(root, NODE0, || {
                    s.create_map::<u64, u64>(MAP, 2 * z.mixed_map_keys as u32)
                })
                .expect(created);
            let queue = spans
                .time(root, NODE0, || s.create_queue::<u64>(QUEUE))
                .expect(created);
            let list = spans
                .time(root, NODE0, || s.create_list::<u64>(LIST))
                .expect(created);
            let (mut mmap, mut mqueue) = (vec![0; z.mixed_map_keys as usize + 1], VecDeque::new());
            let mlist = spans.time("api.prefill", NODE0, || {
                for k in 1..=z.mixed_map_keys {
                    let v = MapValues::encode(k, MapValues::PREFILL, 0);
                    if let Some(r) = env.tally.call("prefill", map.insert(&s, k, v)) {
                        env.tally
                            .faults
                            .check(expect("prefill map.insert", r, Some(None)));
                    }
                    mmap[k as usize] = v;
                }
                for seq in 0..z.mixed_queue_backlog {
                    let v = queue_value(0, seq);
                    env.tally.enqueue(&queue, &s, v);
                    mqueue.push_back(v);
                }
                prefill_list(&mut env.tally, &list, &s, &inputs.streams[3])
            });
            env.st = State::Mixed(MixedState {
                map: mmap,
                queue: mqueue,
                queue_seq: z.mixed_queue_backlog,
                enq_next: true,
                list: mlist,
                pos: [0; 3],
                restart_pos: 0,
                touched_map: Vec::new(),
                touched_list: Vec::new(),
            });
            env.map = Some(map);
            env.queue = Some(queue);
            env.list = Some(list);
        }
    }
    env
}

/// Inserts key `k` iff `coin[k]` is an insert; returns the model.
fn prefill_list(
    tally: &mut Tally,
    list: &DurableList<u64>,
    s: &Session,
    coin: &[WorkloadOp],
) -> Vec<bool> {
    let mut model = vec![false; coin.len()];
    for (k, op) in coin.iter().enumerate().skip(1) {
        if matches!(op, WorkloadOp::Insert(..)) {
            if let Some(r) = tally.call("prefill", list.insert(s, k as u64)) {
                tally.faults.check(expect("prefill list.insert", r, true));
            }
            model[k] = true;
        }
    }
    model
}

fn next(stream: &[WorkloadOp], pos: &mut usize) -> (WorkloadOp, usize) {
    let i = *pos % stream.len();
    *pos += 1;
    (stream[i], i)
}

// ---- clients ---------------------------------------------------------------

struct MapClient<'a> {
    s: Session,
    map: DurableMap<u64, u64>,
    values: &'a MapValues,
    stream: &'a [WorkloadOp],
    w: u64,
    pos: &'a mut usize,
    tally: Tally,
}

impl Client for MapClient<'_> {
    fn machine(&self) -> MachineId {
        self.s.machine()
    }

    fn step(&mut self) -> Op {
        let (op, seq) = next(self.stream, self.pos);
        let t = &mut self.tally;
        match op {
            WorkloadOp::Read(k) => {
                if let Some(Some(v)) = t.map_get(&self.map, &self.s, k) {
                    t.faults.check(self.values.check(k, v));
                }
                Op::MapGet
            }
            WorkloadOp::Insert(k, _) => {
                let v = MapValues::encode(k, self.w, seq as u64);
                match t.call("map.insert", self.map.insert(&self.s, k, v)) {
                    Some(Some(Some(prev))) => {
                        t.faults.check(self.values.check(k, prev));
                    }
                    Some(None) => t.faults.fail(|| "map.insert refused: table full".into()),
                    _ => {}
                }
                Op::MapInsert
            }
            WorkloadOp::Remove(k) => {
                if let Some(Some(prev)) = t.call("map.remove", self.map.remove(&self.s, k)) {
                    t.faults.check(self.values.check(k, prev));
                }
                Op::MapRemove
            }
        }
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

struct QueueClient<'a> {
    s: Session,
    queue: DurableQueue<u64>,
    producer: usize,
    produced: &'a mut u64,
    consumer: &'a mut QueueConsumer,
    enq_next: &'a mut bool,
    tally: Tally,
}

impl Client for QueueClient<'_> {
    fn machine(&self) -> MachineId {
        self.s.machine()
    }

    fn step(&mut self) -> Op {
        let enq = *self.enq_next;
        *self.enq_next = !enq;
        if enq {
            if self.tally.enqueue(
                &self.queue,
                &self.s,
                queue_value(self.producer, *self.produced),
            ) {
                *self.produced += 1;
            }
            Op::QueueEnqueue
        } else {
            if let Some(v) = self.tally.dequeue(&self.queue, &self.s) {
                self.tally.faults.check(self.consumer.observe(v));
            }
            Op::QueueDequeue
        }
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

struct ListMutator<'a> {
    s: Session,
    list: DurableList<u64>,
    stream: &'a [WorkloadOp],
    pos: &'a mut usize,
    model: &'a mut [bool],
    tally: Tally,
}

impl Client for ListMutator<'_> {
    fn machine(&self) -> MachineId {
        self.s.machine()
    }

    fn step(&mut self) -> Op {
        let (op, _) = next(self.stream, self.pos);
        let k = op.key() as usize;
        let insert = matches!(op, WorkloadOp::Insert(..));
        if let Some(changed) = self.tally.list_update(&self.list, &self.s, op) {
            // The mutator is the only writer, so its model is exact.
            let want = self.model[k] != insert;
            self.tally
                .faults
                .check(expect(list_update_op(op).name(), changed, want));
            self.model[k] = insert;
        }
        list_update_op(op)
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

struct ListReader<'a> {
    s: Session,
    list: DurableList<u64>,
    stream: &'a [WorkloadOp],
    pos: &'a mut usize,
    tally: Tally,
}

impl Client for ListReader<'_> {
    fn machine(&self) -> MachineId {
        self.s.machine()
    }

    fn step(&mut self) -> Op {
        let (op, _) = next(self.stream, self.pos);
        // Concurrent with the mutator, either answer is linearizable;
        // only an error fails the call.
        self.tally.list_contains(&self.list, &self.s, op.key());
        Op::ListContains
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// The single `crash-recover` session, over all three roots, checking
/// every answer exactly against the model.
pub struct MixedClient<'a> {
    s: Session,
    map: DurableMap<u64, u64>,
    queue: DurableQueue<u64>,
    list: DurableList<u64>,
    streams: &'a [Stream],
    st: &'a mut MixedState,
    tally: &'a mut Tally,
}

impl Client for MixedClient<'_> {
    fn machine(&self) -> MachineId {
        self.s.machine()
    }

    fn step(&mut self) -> Op {
        let st = &mut *self.st;
        let t = &mut *self.tally;
        let (pick, _) = next(&self.streams[0], &mut st.pos[0]);
        match pick.key() {
            1 | 2 => {
                let (op, seq) = next(&self.streams[1], &mut st.pos[1]);
                let k = op.key();
                let model = st.map[k as usize];
                let model = (model != 0).then_some(model);
                match op {
                    WorkloadOp::Read(_) => {
                        if let Some(r) = t.map_get(&self.map, &self.s, k) {
                            t.faults.check(expect("map.get", r, model));
                        }
                        Op::MapGet
                    }
                    WorkloadOp::Insert(..) => {
                        let v = MapValues::encode(k, 0, seq as u64);
                        if let Some(r) = t.call("map.insert", self.map.insert(&self.s, k, v)) {
                            t.faults.check(expect("map.insert", r, Some(model)));
                        }
                        st.map[k as usize] = v;
                        st.touched_map.push(k);
                        Op::MapInsert
                    }
                    WorkloadOp::Remove(_) => {
                        if let Some(r) = t.call("map.remove", self.map.remove(&self.s, k)) {
                            t.faults.check(expect("map.remove", r, model));
                        }
                        st.map[k as usize] = 0;
                        st.touched_map.push(k);
                        Op::MapRemove
                    }
                }
            }
            3 => mixed_queue_op(&self.queue, &self.s, st, t),
            _ => {
                let (op, _) = next(&self.streams[2], &mut st.pos[2]);
                let k = op.key() as usize;
                match op {
                    WorkloadOp::Read(_) => {
                        if let Some(r) = t.list_contains(&self.list, &self.s, k as u64) {
                            t.faults.check(expect("list.contains", r, st.list[k]));
                        }
                        Op::ListContains
                    }
                    _ => {
                        let insert = matches!(op, WorkloadOp::Insert(..));
                        if let Some(changed) = t.list_update(&self.list, &self.s, op) {
                            t.faults.check(expect(
                                list_update_op(op).name(),
                                changed,
                                st.list[k] != insert,
                            ));
                        }
                        st.list[k] = insert;
                        st.touched_list.push(k as u64);
                        list_update_op(op)
                    }
                }
            }
        }
    }

    fn tally(&mut self) -> &mut Tally {
        self.tally
    }
}

/// The next queue op of `crash-recover`: enqueues and dequeues
/// alternate, each checked against the FIFO model.
fn mixed_queue_op(
    queue: &DurableQueue<u64>,
    s: &Session,
    st: &mut MixedState,
    t: &mut Tally,
) -> Op {
    let enq = st.enq_next;
    st.enq_next = !enq;
    if enq {
        let v = queue_value(0, st.queue_seq);
        st.queue_seq += 1;
        if t.enqueue(queue, s, v) {
            st.queue.push_back(v);
        }
        Op::QueueEnqueue
    } else {
        if let Some(v) = t.dequeue(queue, s) {
            t.faults
                .check(expect("queue.dequeue", Some(v), st.queue.pop_front()));
        }
        Op::QueueDequeue
    }
}

impl Env {
    /// The run's input sizes.
    pub fn sizes(&self) -> Sizes {
        self.inputs.sizes
    }

    /// The two closed-loop clients of a two-session workload (node 0
    /// first). Panics for `crash-recover`, which has one session; see
    /// [`Env::mixed_client`].
    pub fn clients(&mut self) -> Vec<Box<dyn Client + '_>> {
        let s0 = self.cluster.session(NODE0);
        let s1 = self.cluster.session(NODE1);
        let inputs = &*self.inputs;
        match &mut self.st {
            State::Map(st) => {
                let map = self.map.as_ref().expect("map-zipf has a map");
                let [p0, p1] = &mut st.pos;
                vec![
                    Box::new(MapClient {
                        s: s0,
                        map: map.clone(),
                        values: &inputs.map_values,
                        stream: &inputs.streams[0],
                        w: 0,
                        pos: p0,
                        tally: Tally::default(),
                    }),
                    Box::new(MapClient {
                        s: s1,
                        map: map.clone(),
                        values: &inputs.map_values,
                        stream: &inputs.streams[1],
                        w: 1,
                        pos: p1,
                        tally: Tally::default(),
                    }),
                ]
            }
            State::Queue(st) => {
                let queue = self.queue.as_ref().expect("queue-backlog has a queue");
                let [_, pr0, pr1, _] = &mut st.produced;
                let [c0, c1, ..] = &mut st.consumers[..] else {
                    unreachable!("four consumers")
                };
                let [e0, e1] = &mut st.enq_next;
                vec![
                    Box::new(QueueClient {
                        s: s0,
                        queue: queue.clone(),
                        producer: 1,
                        produced: pr0,
                        consumer: c0,
                        enq_next: e0,
                        tally: Tally::default(),
                    }),
                    Box::new(QueueClient {
                        s: s1,
                        queue: queue.clone(),
                        producer: 2,
                        produced: pr1,
                        consumer: c1,
                        enq_next: e1,
                        tally: Tally::default(),
                    }),
                ]
            }
            State::List(st) => {
                let list = self.list.as_ref().expect("list-churn has a list");
                let [p0, p1] = &mut st.pos;
                vec![
                    Box::new(ListMutator {
                        s: s0,
                        list: list.clone(),
                        stream: &inputs.streams[0],
                        pos: p0,
                        model: &mut st.model,
                        tally: Tally::default(),
                    }),
                    Box::new(ListReader {
                        s: s1,
                        list: list.clone(),
                        stream: &inputs.streams[1],
                        pos: p1,
                        tally: Tally::default(),
                    }),
                ]
            }
            State::Mixed(_) => panic!("crash-recover runs one session; use mixed_client"),
        }
    }

    /// The `crash-recover` session's client.
    pub fn mixed_client(&mut self) -> MixedClient<'_> {
        let State::Mixed(st) = &mut self.st else {
            panic!("only crash-recover has a mixed client")
        };
        MixedClient {
            s: self.session.clone(),
            map: self.map.clone().expect("crash-recover has a map"),
            queue: self.queue.clone().expect("crash-recover has a queue"),
            list: self.list.clone().expect("crash-recover has a list"),
            streams: &self.inputs.streams,
            st,
            tally: &mut self.tally,
        }
    }

    /// After a crash: reopens every root by name (the queue also repairs
    /// its tail) and serves one op on each, checked. Records
    /// `api.open_root` and `api.first_op` spans.
    pub fn reopen_and_serve(&mut self, s: &Session, spans: &mut Spans) {
        let reopened = "a committed root reopens after recovery";
        self.session = s.clone();
        if self.map.is_some() {
            self.map = Some(
                spans
                    .time("api.open_root", NODE0, || s.open_map::<u64, u64>(MAP))
                    .expect(reopened),
            );
        }
        if self.queue.is_some() {
            let q = spans.time("api.open_root", NODE0, || {
                s.open_queue::<u64>(QUEUE)
                    .and_then(|q| Ok(q.recover(s).map(|()| q)?))
            });
            self.queue = Some(q.expect(reopened));
        }
        if self.list.is_some() {
            self.list = Some(
                spans
                    .time("api.open_root", NODE0, || s.open_list::<u64>(LIST))
                    .expect(reopened),
            );
        }
        spans.time("api.first_op", NODE0, || self.serve_first(s));
    }

    fn serve_first(&mut self, s: &Session) {
        let streams = &self.inputs.streams;
        let t = &mut self.tally;
        match &mut self.st {
            State::Map(st) => {
                let (op, _) = next(&streams[2], &mut st.restart_pos);
                let map = self.map.as_ref().expect("map");
                if let Some(Some(v)) = t.map_get(map, s, op.key()) {
                    t.faults.check(self.inputs.map_values.check(op.key(), v));
                }
            }
            State::Queue(st) => {
                let (op, _) = next(&streams[0], &mut st.restart_pos);
                let queue = self.queue.as_ref().expect("queue");
                if matches!(op, WorkloadOp::Insert(..)) {
                    let seq = &mut st.produced[RESTART_PRODUCER];
                    if t.enqueue(queue, s, queue_value(RESTART_PRODUCER, *seq)) {
                        *seq += 1;
                    }
                } else if let Some(v) = t.dequeue(queue, s) {
                    t.faults.check(st.consumers[RESTART_CONSUMER].observe(v));
                }
            }
            State::List(st) => {
                let (op, _) = next(&streams[3], &mut st.restart_pos);
                let list = self.list.as_ref().expect("list");
                if let Some(r) = t.list_contains(list, s, op.key()) {
                    t.faults
                        .check(expect("list.contains", r, st.model[op.key() as usize]));
                }
            }
            State::Mixed(st) => {
                let (op, _) = next(&streams[1], &mut st.restart_pos);
                let (k, map) = (op.key(), self.map.as_ref().expect("map"));
                if let Some(r) = t.map_get(map, s, k) {
                    let want = st.map[k as usize];
                    t.faults
                        .check(expect("map.get", r, (want != 0).then_some(want)));
                }
                mixed_queue_op(self.queue.as_ref().expect("queue"), s, st, t);
                let (op, _) = next(&streams[4], &mut st.restart_pos);
                let k = op.key();
                if let Some(r) = t.list_contains(self.list.as_ref().expect("list"), s, k) {
                    t.faults
                        .check(expect("list.contains", r, st.list[k as usize]));
                }
            }
        }
    }

    /// `crash-recover`, after a recovery: every key written since the
    /// last check reads back exactly as the model says; with `full`,
    /// every key of the map and the whole list do.
    pub fn verify_recovered(&mut self, full: bool) {
        let State::Mixed(st) = &mut self.st else {
            return;
        };
        let (s, t) = (&self.session, &mut self.tally);
        let (map, list) = (
            self.map.as_ref().expect("map"),
            self.list.as_ref().expect("list"),
        );
        let mut keys: Vec<u64> = if full {
            (1..st.map.len() as u64).collect()
        } else {
            std::mem::take(&mut st.touched_map)
        };
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            if let Some(r) = t.call("map.get", map.get(s, k)) {
                let want = st.map[k as usize];
                t.faults.check(expect(
                    "recovered map value",
                    r,
                    (want != 0).then_some(want),
                ));
            }
        }
        if full {
            if let Some(got) = t.call("list.keys", list.keys(s)) {
                let want = (1..st.list.len() as u64).filter(|&k| st.list[k as usize]);
                t.faults.check(same_set("recovered list", &got, want));
            }
        } else {
            let mut keys = std::mem::take(&mut st.touched_list);
            keys.sort_unstable();
            keys.dedup();
            for k in keys {
                if let Some(r) = t.call("list.contains", list.contains(s, k)) {
                    t.faults
                        .check(expect("recovered list membership", r, st.list[k as usize]));
                }
            }
        }
        st.touched_map.clear();
        st.touched_list.clear();
    }

    /// The end-of-run check of the whole structure against the model.
    /// Drains the queue. Returns the number of live elements found.
    pub fn final_check(&mut self) -> u64 {
        let s = self.session.clone();
        match &mut self.st {
            State::Map(_) => {
                let map = self.map.as_ref().expect("map");
                let mut live = 0;
                for k in 1..=self.inputs.sizes.map_keys {
                    if let Some(Some(v)) = self.tally.call("map.get", map.get(&s, k)) {
                        self.tally.faults.check(self.inputs.map_values.check(k, v));
                        live += 1;
                    }
                }
                live
            }
            State::Queue(st) => {
                let queue = self.queue.as_ref().expect("queue");
                let drained = self
                    .tally
                    .call("queue.drain", queue.drain(&s))
                    .unwrap_or_default();
                for &v in &drained {
                    self.tally
                        .faults
                        .check(st.consumers[DRAIN_CONSUMER].observe(v));
                }
                self.tally
                    .faults
                    .check(queue_conserved(&st.produced, &st.consumers));
                drained.len() as u64
            }
            State::List(st) => {
                let list = self.list.as_ref().expect("list");
                let got = self
                    .tally
                    .call("list.keys", list.keys(&s))
                    .unwrap_or_default();
                let want = (1..st.model.len() as u64).filter(|&k| st.model[k as usize]);
                self.tally.faults.check(same_set("final list", &got, want));
                got.len() as u64
            }
            State::Mixed(_) => {
                self.verify_recovered(true);
                let State::Mixed(st) = &mut self.st else {
                    unreachable!()
                };
                let live = st.map.iter().filter(|&&v| v != 0).count()
                    + st.list.iter().filter(|&&b| b).count();
                let queue = self.queue.as_ref().expect("queue");
                let drained = self
                    .tally
                    .call("queue.drain", queue.drain(&s))
                    .unwrap_or_default();
                let want: Vec<u64> = st.queue.iter().copied().collect();
                self.tally
                    .faults
                    .check(expect("final queue", &drained, &want));
                (live + drained.len()) as u64
            }
        }
    }

    /// Test hook: removes a key behind the model's back, as a recovery
    /// that dropped an acknowledged insert would.
    #[cfg(test)]
    pub fn drop_acknowledged_write(&mut self) {
        let State::Mixed(st) = &mut self.st else {
            panic!("crash-recover only")
        };
        let k = (1..st.map.len())
            .find(|&k| st.map[k] != 0)
            .expect("a live key") as u64;
        let map = self.map.as_ref().expect("map");
        map.remove(&self.session, k).expect("node 0 is up");
        st.touched_map.push(k);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::harness::{crash_cycle, victim};

    fn tiny(kind: Kind) -> (Env, Spans) {
        let inputs = Arc::new(Inputs::generate(kind, Sizes::tiny(), 7));
        let mut spans = Spans::new(Instant::now());
        (setup(&inputs, false, &mut spans), spans)
    }

    fn run_clients(env: &mut Env, calls: usize) {
        let mut clients = env.clients();
        for _ in 0..calls {
            for c in clients.iter_mut() {
                c.step();
            }
        }
        let mut tally = Tally::default();
        for c in clients.iter_mut() {
            tally.absorb(std::mem::take(c.tally()));
        }
        drop(clients);
        env.tally.absorb(tally);
    }

    /// Runs `cycles` crash-recover cycles; returns the failures so far.
    fn crash_recover(env: &mut Env, spans: &mut Spans, cycles: usize) -> u64 {
        let cluster = Arc::clone(&env.cluster);
        for c in 0..cycles {
            let mut client = env.mixed_client();
            for _ in 0..200 {
                client.step();
            }
            drop(client);
            crash_cycle(&cluster, victim(&cluster, c), spans, |s, sp| {
                env.reopen_and_serve(s, sp)
            });
            env.verify_recovered(false);
        }
        env.tally.faults.count
    }

    fn only_failure(env: &Env) -> String {
        assert_eq!(env.tally.faults.count, 1, "{:?}", env.tally.faults.first);
        env.tally.faults.first[0].clone()
    }

    #[test]
    fn every_workload_passes_its_own_checks() {
        for kind in [Kind::MapZipf, Kind::QueueBacklog, Kind::ListChurn] {
            let (mut env, mut spans) = tiny(kind);
            run_clients(&mut env, 2000);
            let cluster = Arc::clone(&env.cluster);
            for c in 0..4 {
                crash_cycle(&cluster, victim(&cluster, c), &mut spans, |s, sp| {
                    env.reopen_and_serve(s, sp)
                });
            }
            env.final_check();
            assert_eq!(
                env.tally.faults.count,
                0,
                "{}: {:?}",
                kind.name(),
                env.tally.faults.first
            );
        }
        let (mut env, mut spans) = tiny(Kind::CrashRecover);
        assert_eq!(
            crash_recover(&mut env, &mut spans, 6),
            0,
            "{:?}",
            env.tally.faults.first
        );
        env.final_check();
        assert_eq!(env.tally.faults.count, 0, "{:?}", env.tally.faults.first);
    }

    #[test]
    fn a_foreign_map_value_fails_the_run() {
        let (mut env, _) = tiny(Kind::MapZipf);
        let s = env.session.clone();
        let map = env.map.clone().expect("map");
        map.insert(&s, 3, MapValues::encode(4, MapValues::PREFILL, 0))
            .expect("up");
        env.final_check();
        assert!(only_failure(&env).contains("key 4's value"));
    }

    #[test]
    fn a_skipped_queue_value_fails_the_run() {
        let (mut env, _) = tiny(Kind::QueueBacklog);
        run_clients(&mut env, 100);
        let s = env.session.clone();
        // Lost behind every consumer's back.
        env.queue.clone().expect("queue").dequeue(&s).expect("up");
        env.final_check();
        assert!(only_failure(&env).contains("came back out"));
    }

    #[test]
    fn a_list_model_mismatch_fails_the_run() {
        let (mut env, _) = tiny(Kind::ListChurn);
        run_clients(&mut env, 100);
        let s = env.session.clone();
        let list = env.list.clone().expect("list");
        let stray = (1..=Sizes::tiny().list_keys).find(|&k| !list.contains(&s, k).expect("up"));
        list.insert(&s, stray.expect("an absent key")).expect("up");
        env.final_check();
        assert!(only_failure(&env).contains("final list"));
    }

    #[test]
    fn a_dropped_acknowledged_write_fails_recovery() {
        let (mut env, mut spans) = tiny(Kind::CrashRecover);
        assert_eq!(crash_recover(&mut env, &mut spans, 2), 0);
        env.drop_acknowledged_write();
        env.verify_recovered(false);
        assert!(only_failure(&env).contains("recovered map value"));
    }
}
