//! `perf_baseline` — the recorded multi-threaded performance baseline of
//! the executable backend (`BENCH_fabric.json`).
//!
//! Two sweeps, each at 1/2/4/8 threads spread round-robin over the
//! compute nodes:
//!
//! * **primitive sweep** — raw [`SimFabric`] primitives (store / load /
//!   flush / RMW / async-flush mix) on per-thread disjoint location
//!   blocks of the memory node, measuring fabric overhead rather than
//!   data-structure contention;
//! * **queue sweep** — enqueue/dequeue pairs on one shared
//!   `DurableQueue`, once per [`PersistMode`], measuring the end-to-end
//!   programming-model hot path under real contention.
//!
//! Every row reports wall-clock throughput (`mops_per_sec`, the number a
//! scalability change must move) and simulated cost (`sim_ns_per_op`,
//! the number that must **not** move — the cost model is semantics).
//!
//! With `--churn` a third sweep runs: an alloc/free-heavy
//! enqueue/dequeue mix (the `cxl0-workloads` `alloc_churn` preset) on a
//! deliberately small region, reporting allocator behavior (free-list
//! hit rate, high-water cells) alongside throughput — the row that
//! catches allocator regressions in the perf trajectory.
//!
//! With `--combined` a fourth sweep runs: plain vs flat-combining
//! fronts (`cxl0::ds::combine`) on one shared queue *and* one shared
//! stack per `PersistMode`, same thread counts — the rows that record
//! the batched-persistence win, with the combiner's batch/elimination
//! counters attached to each combined row.
//!
//! With `--latency` a fifth sweep runs: the 8-thread queue pair
//! workload per `PersistMode` on a **traced** cluster
//! (`cxl0::trace`), reporting per-op p50/p99/p999 in simulated
//! nanoseconds from the tracer's log2 histograms — distribution tails
//! where the throughput sweeps only see means — followed by a crash of
//! the memory node and a timed `recover_roots`, recording wall
//! recovery time and the per-phase breakdown (buffered replay /
//! allocator sweep / SMR drain / registry seal).
//!
//! ```text
//! perf_baseline [--quick] [--churn] [--combined] [--latency] [--out PATH] [--label NAME] [--baseline PATH]
//! ```
//!
//! Every output ends with a flat `trajectory` array: one headline line
//! per run label (8-thread primitive throughput, 1-thread flit-cxl0
//! queue `sim_ns_per_op`), oldest first, the current run last.
//! `--baseline` carries a previous run's trajectory forward (a file in
//! the older nested format, which embedded each previous run whole
//! under `"baseline"`, is read once, level by level, to seed it) and
//! reports the 8-thread primitive speedup against that run — this is
//! how the committed `BENCH_fabric.json` records before/after across a
//! change.
//!
//! Timing discipline: every row's cluster, structure and per-worker
//! sessions are built **once**, before any timed region; repetitions
//! reuse the same persistent workers behind a barrier pair, so
//! plain-vs-combined deltas measure the hot path, not setup cost.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cxl0_bench::{bench_cluster, bench_cluster_traced, MEM_NODE};
use cxl0_model::{Loc, MachineId, StoreKind, SystemConfig};
use cxl0_runtime::api::{Cluster, PersistMode, Session};
use cxl0_runtime::{
    AllocStats, CombinedQueue, CombinedStack, DurableQueue, DurableStack, OpKind, PhaseTiming,
    SimFabric, StatsSnapshot,
};
use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

/// Thread counts of the sweep, per the ISSUE: 1/2/4/8.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Disjoint memory-node locations given to each primitive-sweep thread.
const LOCS_PER_THREAD: u32 = 64;

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

/// One measured row of any sweep.
struct Row {
    mode: String,
    threads: usize,
    ops: u64,
    wall_ns: u64,
    /// Exact simulated-time total for the row — deterministic for
    /// single-threaded rows, so before/after files must agree bit-for-bit
    /// there (the cost model is semantics, not performance).
    sim_ns: u64,
    sim_ns_per_op: f64,
    /// Extra JSON fields (already `,`-prefixed), e.g. the combined
    /// sweep's batch counters. Empty for most rows.
    extra: String,
}

impl Row {
    fn mops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e3 / self.wall_ns as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"threads\":{},\"ops\":{},\"wall_ns\":{},\"mops_per_sec\":{:.3},\"sim_ns\":{},\"sim_ns_per_op\":{:.3}{}}}",
            self.mode,
            self.threads,
            self.ops,
            self.wall_ns,
            self.mops_per_sec(),
            self.sim_ns,
            self.sim_ns_per_op,
            self.extra
        )
    }
}

/// The primitive mix one sweep unit issues: a representative blend of
/// store strengths, loads, flushes and an RMW, plus an async flush whose
/// barrier retires every 8 units. 8 primitives per unit + amortized
/// barriers.
const PRIMS_PER_UNIT: u64 = 8;
const BARRIER_EVERY: u64 = 8;

/// What each worker reports: its own start/end instants (the driver may
/// be descheduled around the start barrier, so aggregate wall time is
/// `max(end) - min(start)` across workers) and the ops it issued.
#[derive(Clone, Copy)]
struct WorkerReport {
    start: Instant,
    end: Instant,
    ops: u64,
}

fn wall_and_ops(reports: Vec<WorkerReport>) -> (u64, u64) {
    let start = reports.iter().map(|r| r.start).min().expect("nonempty");
    let end = reports.iter().map(|r| r.end).max().expect("nonempty");
    let ops = reports.iter().map(|r| r.ops).sum();
    (end.duration_since(start).as_nanos() as u64, ops)
}

fn primitive_worker(
    fabric: Arc<SimFabric>,
    machine: MachineId,
    base: u32,
    units: u64,
) -> impl FnOnce() -> u64 {
    move || {
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
    }
}

/// Runs one primitive-sweep row: `threads` workers on round-robin
/// compute machines, each over a disjoint location block.
fn primitive_row(threads: usize, units: u64) -> Row {
    // 2 compute nodes + the memory node, as everywhere in cxl0-bench.
    let cells = 8 * LOCS_PER_THREAD; // enough disjoint blocks for 8 threads
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, cells));
    let start_gate = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let worker = primitive_worker(
            Arc::clone(&fabric),
            MachineId(t % 2),
            t as u32 * LOCS_PER_THREAD,
            units,
        );
        let gate = Arc::clone(&start_gate);
        handles.push(std::thread::spawn(move || {
            gate.wait();
            let start = Instant::now();
            let ops = worker();
            WorkerReport {
                start,
                end: Instant::now(),
                ops,
            }
        }));
    }
    let before = fabric.stats().snapshot();
    start_gate.wait();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let (wall_ns, ops) = wall_and_ops(reports);
    let delta = fabric.stats().snapshot().since(&before);
    assert_eq!(
        delta.total_ops(),
        ops,
        "fabric counters must aggregate exactly to the issued op count"
    );
    Row {
        mode: "primitives".to_string(),
        threads,
        ops,
        wall_ns,
        sim_ns: delta.sim_ns,
        sim_ns_per_op: delta.sim_ns as f64 / ops as f64,
        extra: String::new(),
    }
}

/// Drives one structure-sweep row with persistent workers: per-worker
/// state (session, structure handle) is built by `make_work` **once**,
/// before any timed region; each of the `reps` repetitions is gated by
/// a barrier pair and timed separately, and the fastest rep is
/// reported. This keeps session/cluster setup entirely out of the
/// numbers, so plain-vs-combined deltas compare hot paths only.
fn structure_row(
    mode: String,
    threads: usize,
    reps: u64,
    cluster: &Arc<Cluster>,
    make_work: &mut dyn FnMut(usize) -> Box<dyn FnMut() -> u64 + Send>,
) -> Row {
    let gate = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let mut work = make_work(t);
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            let mut reports = Vec::with_capacity(reps as usize);
            for _ in 0..reps {
                gate.wait();
                let start = Instant::now();
                let ops = work();
                reports.push(WorkerReport {
                    start,
                    end: Instant::now(),
                    ops,
                });
                gate.wait();
            }
            reports
        }));
    }
    let mut deltas: Vec<StatsSnapshot> = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let before = cluster.stats_snapshot();
        gate.wait(); // release the workers into the timed region
        gate.wait(); // wait for every worker to finish the rep
        deltas.push(cluster.stats_snapshot().since(&before));
    }
    let per_thread: Vec<Vec<WorkerReport>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut best: Option<(u64, u64, StatsSnapshot)> = None;
    for (rep, delta) in deltas.iter().enumerate() {
        let (wall_ns, ops) = wall_and_ops(per_thread.iter().map(|v| v[rep]).collect());
        match &best {
            Some((best_wall, best_ops, _)) => {
                assert_eq!(ops, *best_ops, "repetitions issue identical op counts");
                if wall_ns < *best_wall {
                    best = Some((wall_ns, ops, *delta));
                }
            }
            None => best = Some((wall_ns, ops, *delta)),
        }
    }
    let (wall_ns, ops, delta) = best.expect("at least one rep");
    let extra = if delta.combine_ops > 0 {
        format!(
            ",\"batches\":{},\"ops_per_batch\":{:.2},\"eliminations\":{},\"barriers_saved\":{}",
            delta.combine_batches,
            delta.combine_ops as f64 / delta.combine_batches.max(1) as f64,
            delta.combine_eliminations,
            delta.combine_barriers_saved
        )
    } else {
        String::new()
    };
    Row {
        mode,
        threads,
        ops,
        wall_ns,
        sim_ns: delta.sim_ns,
        sim_ns_per_op: delta.sim_ns as f64 / ops as f64,
        extra,
    }
}

/// Runs one queue-sweep row: `threads` sessions hammering one shared
/// `DurableQueue` with enqueue/dequeue pairs under `mode`.
fn queue_row(mode: PersistMode, threads: usize, pairs: u64, reps: u64) -> Row {
    let cluster = bench_cluster(1 << 18, mode);
    let queue = cluster
        .session(MachineId(0))
        .create_queue::<u64>("perf/queue")
        .expect("heap fits the queue");
    structure_row(
        mode.name().to_string(),
        threads,
        reps,
        &cluster.clone(),
        &mut |t| {
            let session = cluster.session(MachineId(t % 2));
            let queue = queue.clone();
            Box::new(move || {
                for i in 0..pairs {
                    queue.enqueue(&session, i + 1).unwrap();
                    queue.dequeue(&session).unwrap();
                }
                2 * pairs
            })
        },
    )
}

/// The four fronts the combined sweep drives — plain or combined, queue
/// or stack — seen as one insert/remove pair.
trait PairFront: Send + Sync {
    fn insert(&self, at: &Session, v: u64);
    fn remove(&self, at: &Session);
}

impl PairFront for DurableQueue<u64> {
    fn insert(&self, at: &Session, v: u64) {
        self.enqueue(at, v).unwrap();
    }
    fn remove(&self, at: &Session) {
        self.dequeue(at).unwrap();
    }
}

impl PairFront for CombinedQueue<u64> {
    fn insert(&self, at: &Session, v: u64) {
        self.enqueue(at, v).unwrap();
    }
    fn remove(&self, at: &Session) {
        self.dequeue(at).unwrap();
    }
}

impl PairFront for DurableStack<u64> {
    fn insert(&self, at: &Session, v: u64) {
        self.push(at, v).unwrap();
    }
    fn remove(&self, at: &Session) {
        self.pop(at).unwrap();
    }
}

impl PairFront for CombinedStack<u64> {
    fn insert(&self, at: &Session, v: u64) {
        self.push(at, v).unwrap();
    }
    fn remove(&self, at: &Session) {
        self.pop(at).unwrap();
    }
}

/// Runs one combined-sweep row: plain or combined fronts over one
/// shared queue or stack, same pair workload as the queue sweep.
fn combined_sweep_row(
    kind: &str,
    combined: bool,
    mode: PersistMode,
    threads: usize,
    pairs: u64,
    reps: u64,
) -> Row {
    let cluster = bench_cluster(1 << 18, mode);
    let session0 = cluster.session(MachineId(0));
    let label = format!(
        "{}/{}/{}",
        kind,
        mode.name(),
        if combined { "combined" } else { "plain" }
    );
    let name = "perf/cmb";
    let front: Arc<dyn PairFront> = match (kind, combined) {
        ("queue", false) => Arc::new(session0.create_queue::<u64>(name).expect("heap fits")),
        ("queue", true) => Arc::new(
            session0
                .create_queue_combined::<u64>(name)
                .expect("heap fits"),
        ),
        ("stack", false) => Arc::new(session0.create_stack::<u64>(name).expect("heap fits")),
        ("stack", true) => Arc::new(
            session0
                .create_stack_combined::<u64>(name)
                .expect("heap fits"),
        ),
        _ => unreachable!("kind is queue|stack"),
    };
    // Odd threads lead with the remove: threads released by one barrier
    // otherwise run the pair loop in lock step, and an all-insert round
    // followed by an all-remove round is traffic no real workload
    // produces (and the one mix that can never eliminate). Plain and
    // combined rows get the identical stagger.
    structure_row(label, threads, reps, &cluster, &mut |t| {
        let session = cluster.session(MachineId(t % 2));
        let front = Arc::clone(&front);
        Box::new(move || {
            for i in 0..pairs {
                if t % 2 == 0 {
                    front.insert(&session, i + 1);
                    front.remove(&session);
                } else {
                    front.remove(&session);
                    front.insert(&session, i + 1);
                }
            }
            2 * pairs
        })
    })
}

/// One measured churn-sweep row: structure throughput plus the
/// allocator counters that make memory behavior part of the perf
/// trajectory and, for traversal structures, the epoch-reclamation
/// (`smr_*`) counters that make grace-period behavior part of it too.
struct ChurnRow {
    row: Row,
    mem: AllocStats,
    smr_pins: u64,
    smr_retires: u64,
    smr_reclaims: u64,
    smr_limbo: u64,
}

impl ChurnRow {
    fn to_json(&self) -> String {
        let hit_rate = self.mem.freelist_hits as f64 / self.mem.allocs.max(1) as f64;
        format!(
            "{{\"mode\":\"{}\",\"threads\":{},\"ops\":{},\"mops_per_sec\":{:.3},\"sim_ns_per_op\":{:.3},\"allocs\":{},\"frees\":{},\"freelist_hits\":{},\"freelist_hit_rate\":{:.3},\"hw_cells\":{},\"smr_pins\":{},\"smr_retires\":{},\"smr_reclaims\":{},\"smr_limbo\":{}}}",
            self.row.mode,
            self.row.threads,
            self.row.ops,
            self.row.mops_per_sec(),
            self.row.sim_ns_per_op,
            self.mem.allocs,
            self.mem.frees,
            self.mem.freelist_hits,
            hit_rate,
            self.mem.hw_cells,
            self.smr_pins,
            self.smr_retires,
            self.smr_reclaims,
            self.smr_limbo,
        )
    }
}

/// Which structure a churn row hammers. The queue reclaims through
/// counted pointers (inline frees, `smr_*` all zero); the sorted list
/// retires through the epoch domain, so its rows are where the `smr_*`
/// counters carry signal (retires ≈ reclaims, bounded limbo).
#[derive(Clone, Copy)]
enum ChurnStructure {
    Queue,
    List,
}

impl ChurnStructure {
    fn label(self, mode: PersistMode) -> String {
        match self {
            // Bare mode name for continuity with earlier baselines.
            ChurnStructure::Queue => mode.name().to_string(),
            ChurnStructure::List => format!("list/{}", mode.name()),
        }
    }
}

/// Runs one churn-sweep row: `threads` sessions driving one shared
/// structure with the balanced alloc-churn mix over a region small
/// enough that only node reclamation sustains the traffic.
fn churn_row(
    structure: ChurnStructure,
    mode: PersistMode,
    threads: usize,
    ops_per_thread: u64,
) -> ChurnRow {
    // Small region: the bump tail alone could never absorb the sweep.
    let cluster = bench_cluster(1 << 14, mode);
    let setup = cluster.session(MachineId(0));
    let queue = setup
        .create_queue::<u64>("perf/churn")
        .expect("heap fits the queue");
    let list = setup
        .create_list::<u64>("perf/churn-list")
        .expect("heap fits the list");
    let start_gate = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let session = cluster.session(MachineId(t % 2));
        let queue = queue.clone();
        let list = list.clone();
        let gate = Arc::clone(&start_gate);
        handles.push(std::thread::spawn(move || {
            let mut w = Workload::new(KeyDist::uniform(1 << 20), OpMix::alloc_churn(), t as u64);
            gate.wait();
            let start = Instant::now();
            let mut ops = 0u64;
            for op in w.take_ops(ops_per_thread as usize) {
                match (structure, op) {
                    (ChurnStructure::Queue, WorkloadOp::Insert(k, _)) => {
                        assert!(
                            queue.enqueue(&session, k).unwrap(),
                            "heap exhausted: node reclamation regressed"
                        );
                    }
                    (ChurnStructure::Queue, WorkloadOp::Remove(_) | WorkloadOp::Read(_)) => {
                        queue.dequeue(&session).unwrap();
                    }
                    // Bounded key space: removals actually hit, so the
                    // list stays small and every op retires or chases
                    // retired nodes — maximum reclamation pressure.
                    (ChurnStructure::List, WorkloadOp::Insert(k, _)) => {
                        list.insert(&session, k % 512 + 1).unwrap();
                    }
                    (ChurnStructure::List, WorkloadOp::Remove(k)) => {
                        list.remove(&session, k % 512 + 1).unwrap();
                    }
                    (ChurnStructure::List, WorkloadOp::Read(k)) => {
                        list.contains(&session, k % 512 + 1).unwrap();
                    }
                }
                ops += 1;
            }
            WorkerReport {
                start,
                end: Instant::now(),
                ops,
            }
        }));
    }
    let before = cluster.stats_snapshot();
    start_gate.wait();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let (wall_ns, ops) = wall_and_ops(reports);
    let delta = cluster.stats_snapshot().since(&before);
    ChurnRow {
        row: Row {
            mode: structure.label(mode),
            threads,
            ops,
            wall_ns,
            sim_ns: delta.sim_ns,
            sim_ns_per_op: delta.sim_ns as f64 / ops as f64,
            extra: String::new(),
        },
        mem: AllocStats {
            allocs: delta.allocs,
            frees: delta.frees,
            freelist_hits: delta.freelist_hits,
            live_cells: delta.live_cells,
            hw_cells: delta.hw_cells,
        },
        smr_pins: delta.smr_pins,
        smr_retires: delta.smr_retires,
        smr_reclaims: delta.smr_reclaims,
        smr_limbo: delta.smr_limbo,
    }
}

/// One per-op latency-distribution row of the `--latency` sweep: tail
/// percentiles in simulated nanoseconds, read off the tracer's log2
/// histograms (bucket upper edges, so each value is a ≤2× bucket-width
/// overestimate — stable and comparable across runs).
struct LatencyRow {
    mode: &'static str,
    op: &'static str,
    samples: u64,
    p50_sim_ns: u64,
    p99_sim_ns: u64,
    p999_sim_ns: u64,
}

impl LatencyRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"op\":\"{}\",\"samples\":{},\"p50_sim_ns\":{},\"p99_sim_ns\":{},\"p999_sim_ns\":{}}}",
            self.mode, self.op, self.samples, self.p50_sim_ns, self.p99_sim_ns, self.p999_sim_ns
        )
    }
}

/// One recovery-telemetry row: wall milliseconds for a full
/// `recover_roots` pass after a memory-node crash, with the tracer's
/// per-phase breakdown.
struct RecoveryRow {
    mode: &'static str,
    recovery_ms: f64,
    phases: Vec<PhaseTiming>,
}

impl RecoveryRow {
    fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
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
        format!(
            "{{\"mode\":\"{}\",\"recovery_ms\":{:.3},\"phases\":[{}]}}",
            self.mode,
            self.recovery_ms,
            phases.join(",")
        )
    }
}

/// Runs the `--latency` unit for one mode: the 8-thread queue pair
/// workload on a traced cluster (per-op percentile rows), then a
/// memory-node crash and a timed `recover_roots` (recovery row). One
/// run, no best-of-reps: percentiles are whole-distribution statistics
/// and the crash leaves the cluster unfit for another round.
fn latency_unit(mode: PersistMode, pairs: u64) -> (Vec<LatencyRow>, RecoveryRow) {
    const LAT_THREADS: usize = 8;
    let cluster = bench_cluster_traced(1 << 18, mode);
    let queue = cluster
        .session(MachineId(0))
        .create_queue::<u64>("perf/lat")
        .expect("heap fits the queue");
    let gate = Arc::new(Barrier::new(LAT_THREADS + 1));
    let mut handles = Vec::with_capacity(LAT_THREADS);
    for t in 0..LAT_THREADS {
        let session = cluster.session(MachineId(t % 2));
        let queue = queue.clone();
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            gate.wait();
            for i in 0..pairs {
                queue.enqueue(&session, i + 1).unwrap();
                queue.dequeue(&session).unwrap();
            }
        }));
    }
    gate.wait();
    for h in handles {
        h.join().unwrap();
    }
    let tracer = cluster.tracer().expect("latency cluster is traced");
    let rows = [OpKind::Enqueue, OpKind::Dequeue]
        .into_iter()
        .map(|kind| {
            let h = tracer.histogram(kind);
            LatencyRow {
                mode: mode.name(),
                op: kind.name(),
                samples: h.count(),
                p50_sim_ns: h.p50(),
                p99_sim_ns: h.p99(),
                p999_sim_ns: h.p999(),
            }
        })
        .collect();

    // Crash the memory node under live durable state (the queue keeps
    // residual elements: the workload leaves it empty, so re-add some)
    // and time the full recovery pass.
    let session = cluster.session(MachineId(0));
    for i in 0..64 {
        queue.enqueue(&session, i + 1).unwrap();
    }
    cluster.crash(MEM_NODE);
    cluster.recover(MEM_NODE);
    let session = cluster.session(MachineId(0));
    let start = Instant::now();
    session.recover_roots().expect("recovery succeeds");
    let recovery_ms = start.elapsed().as_nanos() as f64 / 1e6;
    let recovery = RecoveryRow {
        mode: mode.name(),
        recovery_ms,
        phases: tracer.recovery_breakdown(),
    };
    (rows, recovery)
}

/// The raw value token of the first `"key": <value>` in `json` (no
/// JSON parser: the format is our own). String values keep their quotes.
fn extract_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    let end = rest.find([',', '}', '\n'])?;
    Some(rest[..end].trim())
}

fn extract_f64(json: &str, key: &str) -> Option<f64> {
    extract_field(json, key)?.parse().ok()
}

/// One run's line in the flat trajectory.
fn headline(label: &str, quick: bool, prim_8t_mops: f64, queue_1t_sim_ns: Option<f64>) -> String {
    let queue = queue_1t_sim_ns.map_or("null".to_string(), |v| format!("{v:.3}"));
    format!(
        "{{\"label\":\"{label}\",\"quick\":{quick},\"primitive_8t_mops\":{prim_8t_mops:.3},\"queue_flit_cxl0_1t_sim_ns_per_op\":{queue}}}"
    )
}

/// The 1-thread flit-cxl0 queue-sweep row's `sim_ns_per_op` in one
/// run's JSON (the first such row: the queue sweep precedes the others;
/// whitespace is dropped, as the oldest runs pretty-printed their rows).
fn queue_1t_sim_ns(json: &str) -> Option<f64> {
    let json: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    let at = json.find("{\"mode\":\"flit-cxl0\",\"threads\":1,")?;
    extract_f64(&json[at..], "sim_ns_per_op")
}

/// The headline lines a previous output carries, oldest first: its flat
/// `trajectory` array, or, for the older nested format, one line per
/// level of its `"baseline"` chain (each level's own fields precede its
/// `"baseline"` key).
fn prior_trajectory(prev: &str) -> Vec<String> {
    if let Some(at) = prev.find("\"trajectory\": [") {
        let body = &prev[at..];
        let body = &body[body.find('\n').unwrap_or(body.len())..];
        let body = &body[..body.find("\n  ]").unwrap_or(body.len())];
        return body
            .lines()
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .filter(|l| !l.is_empty())
            .collect();
    }
    let mut levels: Vec<String> = prev
        .split("\"baseline\":")
        .filter_map(|level| {
            let label = extract_field(level, "label")?.trim_matches('"');
            let quick = extract_field(level, "quick") == Some("true");
            let mops = extract_f64(level, "primitive_8t_mops")?;
            Some(headline(label, quick, mops, queue_1t_sim_ns(level)))
        })
        .collect();
    levels.reverse();
    levels
}

fn main() {
    let opts = parse_args();
    let (prim_units, queue_pairs, reps) = if opts.quick {
        (20_000u64, 1_500u64, 1)
    } else {
        (150_000u64, 8_000u64, 3)
    };
    // The canonical strategy lineup. `Buffered` is excluded: it tracks
    // distinct cells and an M&S queue allocates fresh nodes forever, so
    // any fixed capacity is exhausted by a throughput sweep.
    let queue_modes: Vec<PersistMode> = if opts.quick {
        vec![
            PersistMode::None,
            PersistMode::FlitCxl0,
            PersistMode::FlitAsync,
        ]
    } else {
        PersistMode::comparison_set()
    };

    eprintln!(
        "perf_baseline: label={} quick={} churn={} combined={} latency={} (units={prim_units}, pairs={queue_pairs}, reps={reps})",
        opts.label, opts.quick, opts.churn, opts.combined, opts.latency
    );

    // Best-of-`reps` per row: on a busy machine the max is the honest
    // throughput estimate. Only the issued op count is asserted
    // rep-identical; sim_ns is deterministic for single-threaded rows
    // but may vary across reps under contention (failed-CAS retries and
    // concurrent-barrier interleavings charge interleaving-dependent
    // costs).
    let best = |mut run: Box<dyn FnMut() -> Row>| -> Row {
        let mut best = run();
        for _ in 1..reps {
            let next = run();
            assert_eq!(next.ops, best.ops, "repetitions issue identical op counts");
            if next.wall_ns < best.wall_ns {
                best = next;
            }
        }
        best
    };

    let mut primitive_rows = Vec::new();
    for &t in &THREADS {
        let row = best(Box::new(move || primitive_row(t, prim_units)));
        eprintln!(
            "  primitives {}t: {:.2} Mops/s ({} ops, sim {:.1} ns/op)",
            t,
            row.mops_per_sec(),
            row.ops,
            row.sim_ns_per_op
        );
        primitive_rows.push(row);
    }

    let mut queue_rows = Vec::new();
    for &mode in &queue_modes {
        for &t in &THREADS {
            let row = queue_row(mode, t, queue_pairs, reps);
            eprintln!(
                "  queue/{} {}t: {:.3} Mops/s (sim {:.0} ns/op)",
                row.mode,
                t,
                row.mops_per_sec(),
                row.sim_ns_per_op
            );
            queue_rows.push(row);
        }
    }

    // The combined sweep: plain vs flat-combining fronts, queue and
    // stack, per mode. Its headline summary is the 8-thread queue
    // speedup (combined over plain) per mode.
    let mut combined_rows = Vec::new();
    let mut combined_speedups: Vec<(String, f64)> = Vec::new();
    if opts.combined {
        let combined_modes: Vec<PersistMode> = if opts.quick {
            vec![PersistMode::FlitCxl0, PersistMode::FlitAsync]
        } else {
            PersistMode::comparison_set()
        };
        for &mode in &combined_modes {
            for kind in ["queue", "stack"] {
                for &t in &THREADS {
                    for combined in [false, true] {
                        let row = combined_sweep_row(kind, combined, mode, t, queue_pairs, reps);
                        eprintln!(
                            "  {} {}t: {:.3} Mops/s (sim {:.0} ns/op{})",
                            row.mode,
                            t,
                            row.mops_per_sec(),
                            row.sim_ns_per_op,
                            row.extra.replace(['"', ','], " ")
                        );
                        combined_rows.push(row);
                    }
                }
            }
        }
        // The headline metric is simulated fabric time per op — what
        // the simulator exists to measure. (Wall throughput is in every
        // row too, but on a host with few cores it is dominated by the
        // scheduler round-trips announcement waiting costs, not by the
        // fabric traffic the combining front removes.)
        for &mode in &combined_modes {
            let find = |variant: &str| {
                combined_rows
                    .iter()
                    .find(|r| {
                        r.threads == 8 && r.mode == format!("queue/{}/{variant}", mode.name())
                    })
                    .map(|r| (r.sim_ns_per_op, r.mops_per_sec()))
            };
            if let (Some((plain_sim, plain_wall)), Some((comb_sim, comb_wall))) =
                (find("plain"), find("combined"))
            {
                let s = plain_sim / comb_sim.max(f64::EPSILON);
                eprintln!(
                    "  combined 8t queue speedup / {}: {s:.2}x sim time ({plain_sim:.0} -> {comb_sim:.0} sim ns/op; wall {plain_wall:.3} -> {comb_wall:.3} Mops/s)",
                    mode.name()
                );
                combined_speedups.push((mode.name().to_string(), s));
            }
        }
    }

    // The churn sweep at 1/2/4 threads: best-of-reps on throughput is
    // meaningless here (allocator counters differ per rep), so one run
    // per row — the interesting numbers are hit rate and high-water.
    let mut churn_rows = Vec::new();
    if opts.churn {
        let churn_ops: u64 = if opts.quick { 4_000 } else { 24_000 };
        let churn_modes = if opts.quick {
            vec![PersistMode::FlitCxl0]
        } else {
            vec![
                PersistMode::None,
                PersistMode::FlitCxl0,
                PersistMode::FlitAsync,
            ]
        };
        for &mode in &churn_modes {
            for structure in [ChurnStructure::Queue, ChurnStructure::List] {
                for t in [1usize, 2, 4] {
                    let row = churn_row(structure, mode, t, churn_ops);
                    eprintln!(
                        "  churn/{} {}t: {:.3} Mops/s ({:.1}% free-list hits, hw {} cells, {} retires / {} reclaims, limbo {})",
                        row.row.mode,
                        t,
                        row.row.mops_per_sec(),
                        100.0 * row.mem.freelist_hits as f64 / row.mem.allocs.max(1) as f64,
                        row.mem.hw_cells,
                        row.smr_retires,
                        row.smr_reclaims,
                        row.smr_limbo
                    );
                    churn_rows.push(row);
                }
            }
        }
    }

    // The latency sweep: per-mode tail percentiles from the tracer,
    // then a crash + timed recovery pass per mode. Reuses the queue
    // lineup (Buffered is excluded there for the same capacity reason).
    let mut latency_rows = Vec::new();
    let mut recovery_rows = Vec::new();
    if opts.latency {
        for &mode in &queue_modes {
            let (rows, recovery) = latency_unit(mode, queue_pairs);
            for r in &rows {
                eprintln!(
                    "  latency/{}/{}: n={} p50={} p99={} p999={} sim ns",
                    r.mode, r.op, r.samples, r.p50_sim_ns, r.p99_sim_ns, r.p999_sim_ns
                );
            }
            eprintln!(
                "  recovery/{}: {:.3} ms ({})",
                recovery.mode,
                recovery.recovery_ms,
                recovery
                    .phases
                    .iter()
                    .map(|t| format!("{} {} sim ns", t.phase.name(), t.sim_ns))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            latency_rows.extend(rows);
            recovery_rows.push(recovery);
        }
    }

    let prim_8t = primitive_rows
        .iter()
        .find(|r| r.threads == 8)
        .expect("8-thread row is part of the sweep");
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
        queue_rows
            .iter()
            .find(|r| r.threads == 1 && r.mode == PersistMode::FlitCxl0.name())
            .map(|r| r.sim_ns_per_op),
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"cxl0-perf-baseline/v1\",\n");
    json.push_str(&format!("  \"label\": \"{}\",\n", opts.label));
    json.push_str(&format!("  \"quick\": {},\n", opts.quick));
    json.push_str(&format!(
        "  \"prim_units_per_thread\": {prim_units},\n  \"queue_pairs_per_thread\": {queue_pairs},\n"
    ));
    json.push_str(&format!(
        "  \"primitive_8t_mops\": {:.3},\n",
        prim_8t.mops_per_sec()
    ));
    if let Some(s) = speedup {
        json.push_str(&format!(
            "  \"primitive_8t_speedup_vs_baseline\": {s:.3},\n"
        ));
    }
    json.push_str("  \"primitive_sweep\": [\n");
    let rows: Vec<String> = primitive_rows
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n  \"queue_sweep\": [\n");
    let rows: Vec<String> = queue_rows
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]");
    if !combined_rows.is_empty() {
        json.push_str(",\n  \"combined_8t_queue_speedup\": {");
        let entries: Vec<String> = combined_speedups
            .iter()
            .map(|(mode, s)| format!("\"{mode}\":{s:.3}"))
            .collect();
        json.push_str(&entries.join(","));
        json.push_str("},\n  \"combined_sweep\": [\n");
        let rows: Vec<String> = combined_rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ]");
    }
    if !churn_rows.is_empty() {
        json.push_str(",\n  \"churn_sweep\": [\n");
        let rows: Vec<String> = churn_rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ]");
    }
    if !latency_rows.is_empty() {
        json.push_str(",\n  \"latency_sweep\": [\n");
        let rows: Vec<String> = latency_rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ],\n  \"recovery_breakdown\": [\n");
        let rows: Vec<String> = recovery_rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ]");
    }
    json.push_str(",\n  \"trajectory\": [\n    ");
    json.push_str(&trajectory.join(",\n    "));
    json.push_str("\n  ]\n}\n");

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
    fn a_nested_file_seeds_a_flat_trajectory_oldest_first() {
        let nested = r#"{
  "label": "b",
  "quick": false,
  "primitive_8t_mops": 2.000,
  "primitive_8t_speedup_vs_baseline": 2.000,
  "queue_sweep": [
    {"mode":"flit-cxl0","threads":1,"ops":8,"sim_ns_per_op":5316.000}
  ],
  "baseline": {
  "label": "a",
  "quick": true,
  "primitive_8t_mops": 1.000,
  "queue_sweep": [
   {
    "mode": "flit-cxl0",
    "threads": 1,
    "sim_ns_per_op": 849.0
   }
  ]
}
}"#;
        assert_eq!(
            prior_trajectory(nested),
            vec![
                headline("a", true, 1.0, Some(849.0)),
                headline("b", false, 2.0, Some(5316.0)),
            ]
        );
    }

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
}
