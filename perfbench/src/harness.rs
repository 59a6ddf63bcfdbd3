//! The measurement harness: cluster construction, the benchmark's own
//! spans, the closed-loop window runner and the crash/recover cycle.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cxl0_model::{MachineConfig, MachineId, SystemConfig};
use cxl0_runtime::api::{Cluster, PersistMode, Session};
use cxl0_runtime::trace::{EventKind, OpKind, TraceConfig, Tracer};
use cxl0_runtime::StatsSnapshot;

use crate::stats::Hist;
use crate::workloads::Tally;

/// Events a traced run keeps per thread slot before its ring would wrap.
/// Traced passes are sized to stay below it and below the tracer's
/// 65536-event cap on crash-sealed events, so nothing is dropped.
const TRACE_RING: usize = 1 << 18;

/// Compute node of the first client session (and of every single-session
/// phase).
pub const NODE0: MachineId = MachineId(0);
/// Compute node of the second client session.
pub const NODE1: MachineId = MachineId(1);

/// Builds the benchmark's deployment: compute nodes 0 and 1 and an NVM
/// memory node 2 holding `cells` locations, under FliT-CXL0. The compute
/// nodes own no memory (as in `Cluster::symmetric`), so a crash walks
/// only the memory node's cells. With `traced`, the runtime tracer is
/// armed.
pub fn build_cluster(cells: u32, traced: bool) -> Arc<Cluster> {
    let cfg = SystemConfig::new(vec![
        MachineConfig::compute_only(),
        MachineConfig::compute_only(),
        MachineConfig::non_volatile(cells),
    ]);
    let mut b = Cluster::builder(cfg).persist(PersistMode::FlitCxl0);
    if traced {
        b = b.with_tracing(TraceConfig {
            ring_capacity: TRACE_RING,
            export_path: None,
        });
    }
    b.build()
        .expect("the benchmark's cluster configuration is valid")
}

/// One span the benchmark records around a call into the runtime.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call, e.g. `api.build` or `ds.map.get`.
    pub name: &'static str,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Issuing compute node.
    pub machine: usize,
    /// The setup or crash cycle the span belongs to (`0` outside them).
    pub cycle: u32,
    /// Runtime tracer attribution, for op spans of a traced pass.
    pub attr: Option<Attribution>,
}

/// What the runtime tracer charged to one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Simulated nanoseconds charged to the issuing thread.
    pub sim_ns: u64,
    /// Synchronous flushes (`LFlush` + `RFlush`).
    pub flushes: u64,
    /// Asynchronous flush requests.
    pub aflushes: u64,
    /// Barriers.
    pub barriers: u64,
    /// Persistence acknowledgements.
    pub acks: u64,
}

/// The benchmark's own spans, kept in memory and written out at the end
/// of the run.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    /// Everything recorded so far.
    pub items: Vec<Span>,
    /// Cycle stamped on new spans.
    pub cycle: u32,
}

impl Spans {
    /// An empty recorder whose clock starts at `t0`.
    pub fn new(t0: Instant) -> Self {
        Spans {
            t0,
            items: Vec::new(),
            cycle: 0,
        }
    }

    /// The instant span times are measured from.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Runs `f` as span `name` issued from `machine`.
    pub fn time<T>(&mut self, name: &'static str, machine: MachineId, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, machine, start, start.elapsed());
        out
    }

    fn push(&mut self, name: &'static str, machine: MachineId, start: Instant, dur: Duration) {
        self.items.push(Span {
            name,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            machine: machine.index(),
            cycle: self.cycle,
            attr: None,
        });
    }

    /// Wall durations, in microseconds, of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.items
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.items.len() * 96);
        for s in &self.items {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"machine\":{},\"cycle\":{}",
                s.name, s.start_ns, s.dur_ns, s.machine, s.cycle
            );
            if let Some(a) = s.attr {
                let _ = write!(
                    out,
                    ",\"sim_ns\":{},\"flushes\":{},\"aflushes\":{},\"barriers\":{},\"persist_acks\":{}",
                    a.sim_ns, a.flushes, a.aflushes, a.barriers, a.acks
                );
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

/// The Session calls the workloads make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `DurableMap::get`.
    MapGet,
    /// `DurableMap::insert`.
    MapInsert,
    /// `DurableMap::remove`.
    MapRemove,
    /// `DurableQueue::enqueue`.
    QueueEnqueue,
    /// `DurableQueue::dequeue`.
    QueueDequeue,
    /// `DurableList::insert`.
    ListInsert,
    /// `DurableList::remove`.
    ListRemove,
    /// `DurableList::contains`.
    ListContains,
}

impl Op {
    /// Every op, in reporting order.
    pub const ALL: [Op; 8] = [
        Op::MapGet,
        Op::MapInsert,
        Op::MapRemove,
        Op::QueueEnqueue,
        Op::QueueDequeue,
        Op::ListInsert,
        Op::ListRemove,
        Op::ListContains,
    ];

    /// Metric and span name, e.g. `map.get`.
    pub fn name(self) -> &'static str {
        match self {
            Op::MapGet => "map.get",
            Op::MapInsert => "map.insert",
            Op::MapRemove => "map.remove",
            Op::QueueEnqueue => "queue.enqueue",
            Op::QueueDequeue => "queue.dequeue",
            Op::ListInsert => "list.insert",
            Op::ListRemove => "list.remove",
            Op::ListContains => "list.contains",
        }
    }

    /// The span name the benchmark records.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::MapGet => "ds.map.get",
            Op::MapInsert => "ds.map.insert",
            Op::MapRemove => "ds.map.remove",
            Op::QueueEnqueue => "ds.queue.enqueue",
            Op::QueueDequeue => "ds.queue.dequeue",
            Op::ListInsert => "ds.list.insert",
            Op::ListRemove => "ds.list.remove",
            Op::ListContains => "ds.list.contains",
        }
    }

    /// The kind the runtime tracer files this op under.
    pub fn trace_kind(self) -> OpKind {
        match self {
            Op::MapGet | Op::ListContains => OpKind::Get,
            Op::MapInsert | Op::ListInsert => OpKind::Insert,
            Op::MapRemove | Op::ListRemove => OpKind::Remove,
            Op::QueueEnqueue => OpKind::Enqueue,
            Op::QueueDequeue => OpKind::Dequeue,
        }
    }
}

/// One closed-loop client: a session that issues its next call when the
/// last returns, checking each answer.
pub trait Client: Send {
    /// The compute node the client's session runs on.
    fn machine(&self) -> MachineId;
    /// Issues and checks the next call (failures go to its tally);
    /// returns which op it was.
    fn step(&mut self) -> Op;
    /// Calls issued and failures seen so far.
    fn tally(&mut self) -> &mut Tally;
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    Time(Duration),
    /// After this many calls per client.
    Ops(u64),
}

/// The result of one timed window.
pub struct Window {
    /// Wall latency of every timed call.
    pub ops: Hist,
    /// Wall time of the window.
    pub wall: Duration,
    /// Calls completed in each of the window's equal time slices.
    pub slices: Vec<u64>,
    /// Length of one slice.
    pub slice: Duration,
    /// Fabric, allocator and SMR counter deltas over the window.
    pub delta: StatsSnapshot,
    /// Per-client call logs (traced passes only), in issue order.
    pub logs: Vec<(MachineId, Vec<(Op, Span)>)>,
}

/// Slices a time-bounded window is cut into for its throughput median.
pub const SLICES: usize = 10;

/// Runs `clients` on their own threads: a warm-up, then the timed window.
/// Counter deltas cover exactly the timed window; with `log`, every call
/// is kept as a span.
pub fn run_window(
    cluster: &Cluster,
    clients: &mut [Box<dyn Client + '_>],
    warmup: Stop,
    stop: Stop,
    log: Option<Instant>,
) -> Window {
    let barrier = Barrier::new(clients.len() + 1);
    let slice = match stop {
        Stop::Time(d) => d / SLICES as u32,
        Stop::Ops(_) => Duration::MAX,
    };
    let (snap0, t0, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(c.as_mut(), barrier, warmup, stop, slice, log))
            })
            .collect();
        barrier.wait();
        let snap0 = cluster.stats_snapshot();
        let t0 = Instant::now();
        barrier.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (snap0, t0, results)
    });
    let wall = t0.elapsed();
    let delta = cluster.stats_snapshot().since(&snap0);
    let mut ops = Hist::default();
    let mut slices = vec![0u64; SLICES];
    let mut logs = Vec::new();
    for (c, (stats, s, l)) in clients.iter().zip(results) {
        ops.merge(&stats);
        for (a, b) in slices.iter_mut().zip(s) {
            *a += b;
        }
        logs.push((c.machine(), l));
    }
    Window {
        ops,
        wall,
        slices,
        slice,
        delta,
        logs,
    }
}

type ClientResult = (Hist, Vec<u64>, Vec<(Op, Span)>);

fn client_loop(
    c: &mut dyn Client,
    barrier: &Barrier,
    warmup: Stop,
    stop: Stop,
    slice: Duration,
    log: Option<Instant>,
) -> ClientResult {
    let begin = Instant::now();
    let mut n = 0u64;
    while !done(warmup, begin, n) {
        c.step();
        n += 1;
    }
    barrier.wait();
    barrier.wait();
    let mut stats = Hist::default();
    let mut slices = vec![0u64; SLICES];
    let mut calls = Vec::new();
    let machine = c.machine();
    let begin = Instant::now();
    let mut n = 0u64;
    let mut now = begin;
    // One clock read per call: a call's latency runs from the previous
    // call's return to its own, which adds only this loop's few
    // nanoseconds of bookkeeping.
    let (mut k, mut slice_end) = (0, begin.checked_add(slice));
    while !done_at(stop, begin, now, n) {
        let op = c.step();
        let end = Instant::now();
        let ns = end.duration_since(now).as_nanos() as u64;
        stats.record(ns);
        while slice_end.is_some_and(|e| end >= e) {
            k += 1;
            slice_end = slice_end.and_then(|e| e.checked_add(slice));
        }
        if let Some(s) = slices.get_mut(k) {
            *s += 1;
        }
        if let Some(t0) = log {
            calls.push((
                op,
                Span {
                    name: op.span_name(),
                    start_ns: now.duration_since(t0).as_nanos() as u64,
                    dur_ns: ns,
                    machine: machine.index(),
                    cycle: 0,
                    attr: None,
                },
            ));
        }
        now = end;
        n += 1;
    }
    (stats, slices, calls)
}

fn done(stop: Stop, begin: Instant, n: u64) -> bool {
    done_at(stop, begin, Instant::now(), n)
}

fn done_at(stop: Stop, begin: Instant, now: Instant, n: u64) -> bool {
    match stop {
        Stop::Time(d) => now.duration_since(begin) >= d,
        Stop::Ops(k) => n >= k,
    }
}

/// Top-level op events the tracer holds for `machine`, in issue order.
fn op_events(tracer: &Tracer, machine: MachineId) -> Vec<cxl0_runtime::trace::TraceEvent> {
    tracer
        .events()
        .into_iter()
        .filter(|e| {
            e.machine == Some(machine)
                && matches!(
                    e.kind,
                    EventKind::Op(
                        OpKind::Get
                            | OpKind::Insert
                            | OpKind::Remove
                            | OpKind::Enqueue
                            | OpKind::Dequeue
                    )
                )
        })
        .collect()
}

/// Number of top-level op events the tracer holds for `machine`.
pub fn op_event_count(tracer: &Tracer, machine: MachineId) -> usize {
    op_events(tracer, machine).len()
}

/// Attaches the tracer's attribution to `calls`, the calls `machine`
/// issued after the first `skip` of its op events. Each call opened
/// exactly one top-level op span inside the runtime, so the two
/// sequences line up one to one; a kind mismatch is an error.
pub fn attribute(
    tracer: &Tracer,
    machine: MachineId,
    skip: usize,
    calls: &mut [(Op, Span)],
) -> Result<(), String> {
    let evs = op_events(tracer, machine);
    let evs = evs.get(skip..skip + calls.len()).ok_or_else(|| {
        format!(
            "tracer holds {} op events for {machine}, expected at least {}",
            evs.len(),
            skip + calls.len()
        )
    })?;
    for ((op, span), e) in calls.iter_mut().zip(evs) {
        if e.kind != EventKind::Op(op.trace_kind()) {
            return Err(format!(
                "{} lined up with a {} event",
                op.name(),
                e.kind.name()
            ));
        }
        span.attr = Some(Attribution {
            sim_ns: e.sim_dur_ns,
            flushes: e.flushes,
            aflushes: e.aflushes,
            barriers: e.barriers,
            acks: e.persist_acks,
        });
    }
    Ok(())
}

/// One crash/recover cycle's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Wall time from `Cluster::recover` through reopening every root to
    /// the first served op on each.
    pub wall_ns: u64,
    /// Simulated time of the same interval.
    pub sim_ns: u64,
}

/// Crashes `victim` at a quiescent point, then recovers and reopens:
/// `Cluster::recover`, a fresh session on node 0, `recover_roots`, then
/// `reopen_and_serve` (which reopens every root by name and serves one
/// op on each).
pub fn crash_cycle(
    cluster: &Arc<Cluster>,
    victim: MachineId,
    spans: &mut Spans,
    reopen_and_serve: impl FnOnce(&Session, &mut Spans),
) -> Recovery {
    spans.time("api.crash", victim, || cluster.crash(victim));
    let sim0 = cluster.stats().sim_nanos();
    let t0 = Instant::now();
    spans.time("api.recover", victim, || cluster.recover(victim));
    let session = cluster.session(NODE0);
    spans
        .time("api.recover_roots", NODE0, || session.recover_roots())
        .expect("node 0 is up after recovery");
    reopen_and_serve(&session, spans);
    Recovery {
        wall_ns: t0.elapsed().as_nanos() as u64,
        sim_ns: cluster.stats().sim_nanos() - sim0,
    }
}

/// The machine a crash cycle takes down: the memory node and compute
/// node 0 alternate (the paper's partial crash).
pub fn victim(cluster: &Cluster, cycle: usize) -> MachineId {
    if cycle.is_multiple_of(2) {
        cluster.memory_node()
    } else {
        NODE0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
