//! `perf_baseline` — the recorded multi-threaded performance baseline of
//! the executable backend (`BENCH_fabric.json`).
//!
//! ```text
//! perf_baseline [--quick] [--churn] [--combined] [--latency] [--out PATH] [--label NAME] [--baseline PATH]
//! ```
//!
//! Apart from the primitive sweep, every sweep is a list of rows in one
//! table, [`scenarios`]. A [`Scenario`] names its output section, the
//! [`Front`] it drives (queue, stack, list, combined queue or combined
//! stack, created through a [`Session`]), the op [`Mix`] every worker
//! issues (lock-step pairs, staggered pairs or alloc-churn), the
//! [`PersistMode`] and the thread count; one runner, [`run`], measures
//! any row. Threads are spread round-robin over the two compute nodes.
//! The sections, in output order:
//!
//! * `primitive_sweep` — raw [`SimFabric`] primitives (store / load /
//!   flush / RMW / async-flush mix) on per-thread disjoint location
//!   blocks at 1/2/4/8 threads: fabric overhead without data-structure
//!   contention;
//! * `queue_sweep` — lock-step enqueue/dequeue pairs on one shared queue
//!   per mode at 1/2/4/8 threads: the programming-model hot path under
//!   real contention;
//! * `combined_sweep` (`--combined`) — staggered pairs through plain and
//!   flat-combining fronts (`cxl0::ds::combine`) of one queue and one
//!   stack per mode, with the combiner's batch/elimination counters on
//!   each combined row, headed by the 8-thread queue sim-time speedup;
//! * `churn_sweep` (`--churn`) — the `cxl0-workloads` `alloc_churn` mix on
//!   a queue and a sorted list over a region small enough that only node
//!   reclamation sustains it, at 1/2/4 threads, with the allocator's
//!   free-list hit rate and high-water mark and the epoch-reclamation
//!   (`smr_*`) counters; heap exhaustion fails the run in-process;
//! * `latency_sweep` and `recovery_breakdown` (`--latency`) — the 8-thread
//!   queue pairs per mode once more on a **traced** cluster (`cxl0::trace`):
//!   per-op p50/p99/p999 in simulated nanoseconds from the tracer's log2
//!   histograms, then a memory-node crash and a timed `recover_roots`
//!   with its per-phase breakdown (buffered replay / allocator sweep /
//!   SMR drain / registry seal).
//!
//! Every throughput row reports wall-clock throughput (`mops_per_sec`,
//! the number a scalability change must move) and simulated cost
//! (`sim_ns`, `sim_ns_per_op`: the number that must **not** move — the
//! cost model is semantics).
//!
//! Repetitions: every rep of a row is an independent trial on a freshly
//! built cluster and structure, with fresh workers released together by
//! a start gate, so setup stays outside the timed window. A row reports
//! the fastest rep's wall clock and that rep's stats delta (`--quick`
//! runs one rep, a full run three). A 1-thread row's sim figures are
//! therefore the same whichever rep wins.
//!
//! Every output ends with a flat `trajectory` array: one headline line
//! per run label (8-thread primitive throughput, 1-thread flit-cxl0
//! queue `sim_ns_per_op`), oldest first, the current run last.
//! `--baseline` carries a previous run's trajectory forward and reports
//! the 8-thread primitive speedup against that run — this is how the
//! committed `BENCH_fabric.json` records before/after across a change.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cxl0_bench::{bench_cluster, bench_cluster_traced, MEM_NODE};
use cxl0_model::{Loc, MachineId, StoreKind, SystemConfig};
use cxl0_runtime::api::{Cluster, PersistMode, Session};
use cxl0_runtime::{
    CombinedQueue, CombinedStack, DurableList, DurableQueue, DurableStack, OpKind, SimFabric,
    StatsSnapshot,
};
use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

/// Thread counts of the primitive, queue and combined sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Disjoint memory-node locations given to each primitive-sweep thread.
const LOCS_PER_THREAD: u32 = 64;

// Output sections, in the order the table emits them.
const PRIMITIVE: &str = "primitive_sweep";
const QUEUE: &str = "queue_sweep";
const COMBINED: &str = "combined_sweep";
const CHURN: &str = "churn_sweep";
const LATENCY: &str = "latency_sweep";
const RECOVERY: &str = "recovery_breakdown";

struct Options {
    quick: bool,
    churn: bool,
    combined: bool,
    latency: bool,
    out: String,
    label: String,
    baseline: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        churn: false,
        combined: false,
        latency: false,
        out: "BENCH_fabric.json".to_string(),
        label: "run".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--churn" => opts.churn = true,
            "--combined" => opts.combined = true,
            "--latency" => opts.latency = true,
            "--out" => opts.out = args.next().expect("--out takes a path"),
            "--label" => {
                let label = args.next().expect("--label takes a name");
                // The label is interpolated into the JSON output verbatim.
                assert!(
                    !label.contains(['"', '\\']) && !label.chars().any(char::is_control),
                    "--label must not contain quotes, backslashes or control characters"
                );
                opts.label = label;
            }
            "--baseline" => opts.baseline = Some(args.next().expect("--baseline takes a path")),
            other => {
                panic!(
                    "unknown argument {other:?} (try --quick/--churn/--combined/--latency/--out/--label/--baseline)"
                )
            }
        }
    }
    opts
}

/// Per-thread op budgets and the rep count, fixed by `--quick`.
struct Sizes {
    prim_units: u64,
    pairs: u64,
    churn_ops: u64,
    reps: u64,
}

impl Sizes {
    fn of(quick: bool) -> Sizes {
        if quick {
            Sizes {
                prim_units: 20_000,
                pairs: 1_500,
                churn_ops: 4_000,
                reps: 1,
            }
        } else {
            Sizes {
                prim_units: 150_000,
                pairs: 8_000,
                churn_ops: 24_000,
                reps: 3,
            }
        }
    }
}

/// The structure a scenario drives, created through a [`Session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Front {
    Queue,
    Stack,
    List,
    CombinedQueue,
    CombinedStack,
}

impl Front {
    fn create(self, session: &Session) -> Arc<dyn PairFront> {
        let name = "perf/front";
        let fits = "heap fits the structure";
        match self {
            Front::Queue => Arc::new(session.create_queue::<u64>(name).expect(fits)),
            Front::Stack => Arc::new(session.create_stack::<u64>(name).expect(fits)),
            Front::List => Arc::new(session.create_list::<u64>(name).expect(fits)),
            Front::CombinedQueue => {
                let queue = session.create_queue::<u64>(name).expect(fits);
                Arc::new(session.combined(queue))
            }
            Front::CombinedStack => {
                let stack = session.create_stack::<u64>(name).expect(fits);
                Arc::new(session.combined(stack))
            }
        }
    }
}

/// The op stream every worker of a scenario issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// Insert/remove pairs, every thread in the same order.
    LockStep,
    /// Insert/remove pairs, odd threads leading with the remove. Threads
    /// released by one gate otherwise run the pairs in lock step, and an
    /// all-insert round followed by an all-remove round is traffic no
    /// real workload produces (and the one mix that can never
    /// eliminate). Plain and combined rows get the identical stagger.
    Staggered,
    /// The `alloc_churn` preset (balanced inserts and removes, uniform
    /// keys) over a small region: only node reclamation sustains it.
    AllocChurn,
}

impl Mix {
    /// Thread `t`'s op stream, built before the timed window.
    fn ops(self, t: usize, sizes: &Sizes) -> Vec<WorkloadOp> {
        let lead_remove = self == Mix::Staggered && t % 2 == 1;
        match self {
            Mix::LockStep | Mix::Staggered => (0..sizes.pairs)
                .flat_map(|i| {
                    let (ins, rem) = (WorkloadOp::Insert(i + 1, i + 1), WorkloadOp::Remove(0));
                    if lead_remove {
                        [rem, ins]
                    } else {
                        [ins, rem]
                    }
                })
                .collect(),
            Mix::AllocChurn => {
                Workload::new(KeyDist::uniform(1 << 20), OpMix::alloc_churn(), t as u64)
                    .take_ops(sizes.churn_ops as usize)
            }
        }
    }
}

/// One row of the table: which section it lands in and what it runs.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    section: &'static str,
    front: Front,
    mix: Mix,
    mode: PersistMode,
    threads: usize,
}

impl Scenario {
    /// The row's `mode` label. Queue-sweep and queue-churn rows carry the
    /// bare mode name, for continuity with earlier baselines.
    fn label(&self) -> String {
        let mode = self.mode.name();
        match (self.mix, self.front) {
            (Mix::Staggered, Front::Queue) => format!("queue/{mode}/plain"),
            (Mix::Staggered, Front::CombinedQueue) => format!("queue/{mode}/combined"),
            (Mix::Staggered, Front::Stack) => format!("stack/{mode}/plain"),
            (Mix::Staggered, Front::CombinedStack) => format!("stack/{mode}/combined"),
            (_, Front::List) => format!("list/{mode}"),
            _ => mode.to_string(),
        }
    }
}

/// Every scenario row the flags select, in output order.
fn scenarios(opts: &Options) -> Vec<Scenario> {
    use PersistMode::{FlitAsync, FlitCxl0};
    // The canonical strategy lineup. `Buffered` is excluded: it tracks
    // distinct cells and an M&S queue allocates fresh nodes forever, so
    // any fixed capacity is exhausted by a throughput sweep.
    let queue_modes = if opts.quick {
        vec![PersistMode::None, FlitCxl0, FlitAsync]
    } else {
        PersistMode::comparison_set()
    };
    let mut rows = Vec::new();
    let mut add = |section, front, mix, mode, threads| {
        rows.push(Scenario {
            section,
            front,
            mix,
            mode,
            threads,
        })
    };
    for &mode in &queue_modes {
        for t in THREADS {
            add(QUEUE, Front::Queue, Mix::LockStep, mode, t);
        }
    }
    if opts.combined {
        let modes = if opts.quick {
            vec![FlitCxl0, FlitAsync]
        } else {
            PersistMode::comparison_set()
        };
        for mode in modes {
            for fronts in [
                [Front::Queue, Front::CombinedQueue],
                [Front::Stack, Front::CombinedStack],
            ] {
                for t in THREADS {
                    for front in fronts {
                        add(COMBINED, front, Mix::Staggered, mode, t);
                    }
                }
            }
        }
    }
    if opts.churn {
        let modes = if opts.quick {
            vec![FlitCxl0]
        } else {
            vec![PersistMode::None, FlitCxl0, FlitAsync]
        };
        for mode in modes {
            for front in [Front::Queue, Front::List] {
                for t in [1, 2, 4] {
                    add(CHURN, front, Mix::AllocChurn, mode, t);
                }
            }
        }
    }
    if opts.latency {
        for &mode in &queue_modes {
            add(LATENCY, Front::Queue, Mix::LockStep, mode, 8);
        }
    }
    rows
}

/// A scenario's front seen as keyed insert / remove / read. The queue
/// and stack ignore keys and have no non-destructive read: their read
/// removes, as the churn mix has always counted it.
trait PairFront: Send + Sync {
    /// Inserts `k`; `false` only when the heap is exhausted.
    fn insert(&self, at: &Session, k: u64) -> bool;
    fn remove(&self, at: &Session, k: u64);
    fn read(&self, at: &Session, k: u64) {
        self.remove(at, k);
    }
}

macro_rules! pair_front {
    ($ty:ty, $insert:ident, $remove:ident) => {
        impl PairFront for $ty {
            fn insert(&self, at: &Session, k: u64) -> bool {
                self.$insert(at, k).unwrap()
            }
            fn remove(&self, at: &Session, _: u64) {
                self.$remove(at).unwrap();
            }
        }
    };
}

pair_front!(DurableQueue<u64>, enqueue, dequeue);
pair_front!(CombinedQueue<u64>, enqueue, dequeue);
pair_front!(DurableStack<u64>, push, pop);
pair_front!(CombinedStack<u64>, push, pop);

/// The list folds keys into 512 slots: removals actually hit, so the
/// list stays small and every op retires or chases retired nodes —
/// maximum reclamation pressure. It panics itself on heap exhaustion.
impl PairFront for DurableList<u64> {
    fn insert(&self, at: &Session, k: u64) -> bool {
        DurableList::insert(self, at, k % 512 + 1).unwrap();
        true
    }
    fn remove(&self, at: &Session, k: u64) {
        DurableList::remove(self, at, k % 512 + 1).unwrap();
    }
    fn read(&self, at: &Session, k: u64) {
        self.contains(at, k % 512 + 1).unwrap();
    }
}

/// One timed trial: the ops the workers issued, the wall clock from the
/// first worker's start to the last one's end (the main thread may be
/// descheduled around the gate, so it is not the timer), and the stats
/// delta over that window.
struct Trial {
    ops: u64,
    wall_ns: u64,
    delta: StatsSnapshot,
}

/// A worker's timed body; it returns the ops it issued.
type Worker = Box<dyn FnOnce() -> u64 + Send>;

/// Runs each worker on its own thread, releases them together through
/// a start gate, and brackets the run with `stats`.
fn run_trial(workers: Vec<Worker>, stats: impl Fn() -> StatsSnapshot) -> Trial {
    let gate = Arc::new(Barrier::new(workers.len() + 1));
    let handles: Vec<_> = workers
        .into_iter()
        .map(|work| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let start = Instant::now();
                let ops = work();
                (start, Instant::now(), ops)
            })
        })
        .collect();
    let before = stats();
    gate.wait();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let delta = stats().since(&before);
    let start = reports.iter().map(|r| r.0).min().expect("nonempty");
    let end = reports.iter().map(|r| r.1).max().expect("nonempty");
    Trial {
        ops: reports.iter().map(|r| r.2).sum(),
        wall_ns: end.duration_since(start).as_nanos() as u64,
        delta,
    }
}

/// The best of `reps` independent trials: the fastest wall clock, with
/// that trial's delta. Only the issued op count is asserted
/// rep-identical; multi-threaded sim figures vary with the interleaving
/// (failed-CAS retries, combining batches).
fn best_of(reps: u64, mut trial: impl FnMut() -> Trial) -> Trial {
    let mut best = trial();
    for _ in 1..reps {
        let next = trial();
        assert_eq!(next.ops, best.ops, "repetitions issue identical op counts");
        if next.wall_ns < best.wall_ns {
            best = next;
        }
    }
    best
}

/// The primitive mix one sweep unit issues: a representative blend of
/// store strengths, loads, flushes and an RMW, plus an async flush whose
/// barrier retires every 8 units. 8 primitives per unit + amortized
/// barriers.
const PRIMS_PER_UNIT: u64 = 8;
const BARRIER_EVERY: u64 = 8;

fn primitive_worker(fabric: Arc<SimFabric>, machine: MachineId, base: u32, units: u64) -> Worker {
    Box::new(move || {
        let node = fabric.node(machine);
        let span = LOCS_PER_THREAD;
        let mut issued = 0u64;
        for i in 0..units {
            let a = Loc::new(MEM_NODE, base + (i % u64::from(span)) as u32);
            let b = Loc::new(MEM_NODE, base + ((i + 7) % u64::from(span)) as u32);
            node.lstore(a, i).unwrap();
            node.load(a).unwrap();
            node.lflush(a).unwrap();
            node.rflush(a).unwrap();
            node.mstore(b, i).unwrap();
            node.load(b).unwrap();
            node.faa(StoreKind::Memory, b, 1).unwrap();
            node.aflush(a).unwrap();
            issued += PRIMS_PER_UNIT;
            if i % BARRIER_EVERY == BARRIER_EVERY - 1 {
                node.barrier().unwrap();
                issued += 1;
            }
        }
        issued
    })
}

/// One primitive-sweep trial: `threads` workers on a fresh raw fabric,
/// each over its own location block.
fn primitive_trial(threads: usize, units: u64) -> Trial {
    // 2 compute nodes + the memory node, as everywhere in cxl0-bench.
    let cells = 8 * LOCS_PER_THREAD; // enough disjoint blocks for 8 threads
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, cells));
    let workers = (0..threads)
        .map(|t| {
            let base = t as u32 * LOCS_PER_THREAD;
            primitive_worker(Arc::clone(&fabric), MachineId(t % 2), base, units)
        })
        .collect();
    let trial = run_trial(workers, || fabric.stats().snapshot());
    assert_eq!(
        trial.delta.total_ops(),
        trial.ops,
        "fabric counters must aggregate exactly to the issued op count"
    );
    trial
}

/// Runs one trial of `sc`: builds the cluster (traced for the latency
/// sweep; the small region for churn), creates the front through a
/// session, and times one worker per thread, each with its own session
/// and op stream. The cluster and front come back with the trial, so
/// the latency sweep can go on to crash and recover them.
fn run(sc: &Scenario, sizes: &Sizes) -> (Trial, Arc<Cluster>, Arc<dyn PairFront>) {
    let build = if sc.section == LATENCY {
        bench_cluster_traced
    } else {
        bench_cluster
    };
    let cells = if sc.mix == Mix::AllocChurn {
        1 << 14
    } else {
        1 << 18
    };
    let cluster = build(cells, sc.mode);
    let front = sc.front.create(&cluster.session(MachineId(0)));
    let workers = (0..sc.threads)
        .map(|t| {
            let session = cluster.session(MachineId(t % 2));
            let front = Arc::clone(&front);
            let ops = sc.mix.ops(t, sizes);
            Box::new(move || {
                for op in &ops {
                    match *op {
                        WorkloadOp::Insert(k, _) => assert!(
                            front.insert(&session, k),
                            "heap exhausted: node reclamation regressed"
                        ),
                        WorkloadOp::Remove(k) => front.remove(&session, k),
                        WorkloadOp::Read(k) => front.read(&session, k),
                    }
                }
                ops.len() as u64
            }) as Worker
        })
        .collect();
    let trial = run_trial(workers, || cluster.stats_snapshot());
    (trial, cluster, front)
}

/// One measured throughput row.
struct Row {
    mode: String,
    threads: usize,
    trial: Trial,
    /// Churn rows also carry the allocator and SMR counters.
    churn: bool,
}

impl Row {
    fn measure(sc: &Scenario, sizes: &Sizes) -> Row {
        Row {
            mode: sc.label(),
            threads: sc.threads,
            trial: best_of(sizes.reps, || run(sc, sizes).0),
            churn: sc.mix == Mix::AllocChurn,
        }
    }

    fn mops_per_sec(&self) -> f64 {
        self.trial.ops as f64 * 1e3 / self.trial.wall_ns as f64
    }

    fn sim_ns_per_op(&self) -> f64 {
        self.trial.delta.sim_ns as f64 / self.trial.ops as f64
    }

    fn to_json(&self) -> String {
        let d = &self.trial.delta;
        let mut json = format!(
            "{{\"mode\":\"{}\",\"threads\":{},\"ops\":{},\"wall_ns\":{},\"mops_per_sec\":{:.3},\"sim_ns\":{},\"sim_ns_per_op\":{:.3}",
            self.mode,
            self.threads,
            self.trial.ops,
            self.trial.wall_ns,
            self.mops_per_sec(),
            d.sim_ns,
            self.sim_ns_per_op()
        );
        if d.combine_ops > 0 {
            json += &format!(
                ",\"batches\":{},\"ops_per_batch\":{:.2},\"eliminations\":{},\"barriers_saved\":{}",
                d.combine_batches,
                d.combine_ops as f64 / d.combine_batches.max(1) as f64,
                d.combine_eliminations,
                d.combine_barriers_saved
            );
        }
        if self.churn {
            json += &format!(
                ",\"allocs\":{},\"frees\":{},\"freelist_hits\":{},\"freelist_hit_rate\":{:.3},\"hw_cells\":{},\"smr_pins\":{},\"smr_retires\":{},\"smr_reclaims\":{},\"smr_limbo\":{}",
                d.allocs,
                d.frees,
                d.freelist_hits,
                d.freelist_hits as f64 / d.allocs.max(1) as f64,
                d.hw_cells,
                d.smr_pins,
                d.smr_retires,
                d.smr_reclaims,
                d.smr_limbo
            );
        }
        json + "}"
    }
}

/// The `--latency` rows of `sc`: one traced trial (no best-of-reps:
/// percentiles are whole-distribution statistics), its per-op
/// percentile rows, then a memory-node crash under live durable state
/// and a timed `recover_roots`, as one recovery row. Percentiles are
/// the tracer's log2 bucket upper edges, so each is a ≤2× overestimate
/// — stable and comparable across runs.
fn latency_rows(sc: &Scenario, sizes: &Sizes) -> (Vec<String>, String) {
    let (_, cluster, front) = run(sc, sizes);
    let tracer = cluster.tracer().expect("latency cluster is traced");
    let mode = sc.mode.name();
    let percentiles = [OpKind::Enqueue, OpKind::Dequeue]
        .into_iter()
        .map(|kind| {
            let h = tracer.histogram(kind);
            format!(
                "{{\"mode\":\"{mode}\",\"op\":\"{}\",\"samples\":{},\"p50_sim_ns\":{},\"p99_sim_ns\":{},\"p999_sim_ns\":{}}}",
                kind.name(),
                h.count(),
                h.p50(),
                h.p99(),
                h.p999()
            )
        })
        .collect();

    // The pairs leave the queue empty: re-add some before the crash.
    let session = cluster.session(MachineId(0));
    for i in 0..64 {
        front.insert(&session, i + 1);
    }
    cluster.crash(MEM_NODE);
    cluster.recover(MEM_NODE);
    let session = cluster.session(MachineId(0));
    let start = Instant::now();
    session.recover_roots().expect("recovery succeeds");
    let recovery_ms = start.elapsed().as_nanos() as f64 / 1e6;
    let phases: Vec<String> = tracer
        .recovery_breakdown()
        .iter()
        .map(|t| {
            format!(
                "{{\"phase\":\"{}\",\"wall_ns\":{},\"sim_ns\":{}}}",
                t.phase.name(),
                t.wall_ns,
                t.sim_ns
            )
        })
        .collect();
    let recovery = format!(
        "{{\"mode\":\"{mode}\",\"recovery_ms\":{recovery_ms:.3},\"phases\":[{}]}}",
        phases.join(",")
    );
    (percentiles, recovery)
}

/// One top-level JSON array: `"name": [` and one row per line.
fn section(name: &str, rows: &[String]) -> String {
    format!("  \"{name}\": [\n    {}\n  ]", rows.join(",\n    "))
}

/// The number after the first `"key":` in `json` (no JSON parser: the
/// format is our own).
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    rest[..rest.find([',', '}', '\n'])?].trim().parse().ok()
}

/// One run's line in the flat trajectory.
fn headline(label: &str, quick: bool, prim_8t_mops: f64, queue_1t_sim_ns: Option<f64>) -> String {
    let queue = queue_1t_sim_ns.map_or("null".to_string(), |v| format!("{v:.3}"));
    format!(
        "{{\"label\":\"{label}\",\"quick\":{quick},\"primitive_8t_mops\":{prim_8t_mops:.3},\"queue_flit_cxl0_1t_sim_ns_per_op\":{queue}}}"
    )
}

/// The headline lines of a previous output's flat `trajectory` array,
/// oldest first.
fn prior_trajectory(prev: &str) -> Vec<String> {
    let Some(at) = prev.find("\"trajectory\": [") else {
        return Vec::new();
    };
    let body = &prev[at..];
    let body = &body[body.find('\n').unwrap_or(body.len())..];
    let body = &body[..body.find("\n  ]").unwrap_or(body.len())];
    body.lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

fn main() {
    let opts = parse_args();
    let sizes = Sizes::of(opts.quick);
    eprintln!(
        "perf_baseline: label={} quick={} churn={} combined={} latency={} (units={}, pairs={}, reps={})",
        opts.label,
        opts.quick,
        opts.churn,
        opts.combined,
        opts.latency,
        sizes.prim_units,
        sizes.pairs,
        sizes.reps
    );

    // Every throughput row (for the headline lookups) and every output
    // section's JSON rows, in order of first appearance.
    let mut rows: Vec<(&str, Row)> = Vec::new();
    let mut sections: Vec<(&str, Vec<String>)> = Vec::new();
    let mut emit = |name: &'static str, json: String| {
        eprintln!("  {name}: {json}");
        match sections.iter_mut().find(|(n, _)| *n == name) {
            Some((_, list)) => list.push(json),
            None => sections.push((name, vec![json])),
        }
    };
    for threads in THREADS {
        let row = Row {
            mode: "primitives".to_string(),
            threads,
            trial: best_of(sizes.reps, || primitive_trial(threads, sizes.prim_units)),
            churn: false,
        };
        emit(PRIMITIVE, row.to_json());
        rows.push((PRIMITIVE, row));
    }
    for sc in scenarios(&opts) {
        if sc.section == LATENCY {
            let (percentiles, recovery) = latency_rows(&sc, &sizes);
            for json in percentiles {
                emit(LATENCY, json);
            }
            emit(RECOVERY, recovery);
        } else {
            let row = Row::measure(&sc, &sizes);
            emit(sc.section, row.to_json());
            rows.push((sc.section, row));
        }
    }

    let find = |section: &str, threads: usize, mode: &str| {
        rows.iter()
            .find(|(s, r)| *s == section && r.threads == threads && r.mode == mode)
            .map(|(_, r)| r)
    };
    let prim_8t = find(PRIMITIVE, 8, "primitives").expect("8-thread row is part of the sweep");
    // The combined sweep's headline: the 8-thread queue speedup
    // (combined over plain) per mode, in simulated fabric time per op —
    // what the simulator exists to measure. (Wall throughput is in every
    // row too, but on a host with few cores it is dominated by the
    // scheduler round-trips announcement waiting costs, not by the
    // fabric traffic the combining front removes.)
    let speedups: Vec<String> = rows
        .iter()
        .filter(|(s, r)| *s == COMBINED && r.threads == 8)
        .filter_map(|(_, plain)| {
            let mode = plain.mode.strip_prefix("queue/")?.strip_suffix("/plain")?;
            let comb = find(COMBINED, 8, &format!("queue/{mode}/combined"))?;
            let s = plain.sim_ns_per_op() / comb.sim_ns_per_op().max(f64::EPSILON);
            eprintln!(
                "  combined 8t queue speedup / {mode}: {s:.2}x sim time ({:.0} -> {:.0} sim ns/op; wall {:.3} -> {:.3} Mops/s)",
                plain.sim_ns_per_op(),
                comb.sim_ns_per_op(),
                plain.mops_per_sec(),
                comb.mops_per_sec()
            );
            Some(format!("\"{mode}\":{s:.3}"))
        })
        .collect();

    let baseline_raw = opts.baseline.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}"))
    });
    let speedup = baseline_raw
        .as_deref()
        .and_then(|raw| extract_f64(raw, "primitive_8t_mops"))
        .map(|before| prim_8t.mops_per_sec() / before);
    let current = headline(
        &opts.label,
        opts.quick,
        prim_8t.mops_per_sec(),
        find(QUEUE, 1, PersistMode::FlitCxl0.name()).map(Row::sim_ns_per_op),
    );
    let label_tag = format!("{{\"label\":\"{}\",", opts.label);
    let mut trajectory: Vec<String> = baseline_raw
        .as_deref()
        .map(prior_trajectory)
        .unwrap_or_default()
        .into_iter()
        .filter(|line| !line.starts_with(&label_tag))
        .collect();
    trajectory.push(current);

    let mut fields = vec![
        "  \"schema\": \"cxl0-perf-baseline/v1\"".to_string(),
        format!("  \"label\": \"{}\"", opts.label),
        format!("  \"quick\": {}", opts.quick),
        format!("  \"prim_units_per_thread\": {}", sizes.prim_units),
        format!("  \"queue_pairs_per_thread\": {}", sizes.pairs),
        format!("  \"primitive_8t_mops\": {:.3}", prim_8t.mops_per_sec()),
    ];
    if let Some(s) = speedup {
        fields.push(format!("  \"primitive_8t_speedup_vs_baseline\": {s:.3}"));
    }
    for (name, json) in &sections {
        if *name == COMBINED {
            fields.push(format!(
                "  \"combined_8t_queue_speedup\": {{{}}}",
                speedups.join(",")
            ));
        }
        fields.push(section(name, json));
    }
    fields.push(section("trajectory", &trajectory));
    let json = format!("{{\n{}\n}}\n", fields.join(",\n"));

    std::fs::write(&opts.out, &json).expect("write output JSON");
    eprintln!("perf_baseline: wrote {}", opts.out);
    if let Some(s) = speedup {
        eprintln!("perf_baseline: 8-thread primitive speedup vs baseline = {s:.2}x");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flat_trajectory_carries_forward_verbatim() {
        let lines = vec![
            headline("a", true, 1.0, None),
            headline("b", false, 2.0, Some(5316.0)),
        ];
        let flat = format!(
            "{{\n  \"label\": \"b\",\n  \"trajectory\": [\n    {}\n  ]\n}}\n",
            lines.join(",\n    ")
        );
        assert_eq!(prior_trajectory(&flat), lines);
    }

    #[test]
    fn reps_never_change_a_one_thread_rows_sim_figures() {
        let sizes = |reps| Sizes {
            prim_units: 0,
            pairs: 200,
            churn_ops: 0,
            reps,
        };
        for (front, mix) in [
            (Front::Queue, Mix::LockStep),
            (Front::CombinedQueue, Mix::Staggered),
        ] {
            let sc = Scenario {
                section: QUEUE,
                front,
                mix,
                mode: PersistMode::FlitCxl0,
                threads: 1,
            };
            let once = Row::measure(&sc, &sizes(1)).trial;
            let thrice = Row::measure(&sc, &sizes(3)).trial;
            assert_eq!(once.ops, 400);
            assert_eq!(once.delta.sim_ns, thrice.delta.sim_ns, "{front:?}");
            let combine = |d: &StatsSnapshot| {
                (
                    d.combine_ops,
                    d.combine_batches,
                    d.combine_eliminations,
                    d.combine_barriers_saved,
                )
            };
            assert_eq!(combine(&once.delta), combine(&thrice.delta), "{front:?}");
            assert_eq!(once.delta.combine_ops > 0, front == Front::CombinedQueue);
        }
    }
}
