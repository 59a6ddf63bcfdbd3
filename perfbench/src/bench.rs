//! One benchmark run: set up, run the untraced pass that yields the
//! end-to-end metrics and, with tracing on, a traced pass that yields
//! the per-layer ones.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cxl0_runtime::trace::{PhaseTiming, RecoveryPhase};
use cxl0_runtime::StatsSnapshot;

use crate::harness::{
    attribute, crash_cycle, op_event_count, peak_rss_mb, run_window, victim, Client, Op, Recovery,
    Span, Spans, Stop, NODE0, NODE1,
};
use crate::stats::{mean, median, quantile, ratio, Hist};
use crate::workloads::{setup, Env, Inputs, Kind, Sizes, Tally};

/// What to run.
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where a traced run writes its spans.
    pub out_dir: Option<PathBuf>,
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The result of a run.
pub struct Outcome {
    /// Session calls the benchmark issued, prefills and checks included.
    pub attempted: u64,
    /// Calls that failed and checks that failed.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Timed-call sample counts, for the human-readable summary.
    pub samples: String,
}

/// Fabric, allocator and SMR counters over a set of calls.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    loads: u64,
    lstores: u64,
    rstores: u64,
    mstores: u64,
    rmws: u64,
    flushes: u64,
    aflushes: u64,
    barriers: u64,
    prims: u64,
    sim_ns: u64,
    allocs: u64,
    frees: u64,
    freelist_hits: u64,
    pins: u64,
    retires: u64,
    reclaims: u64,
    advances: u64,
}

impl Counters {
    fn add(&mut self, d: &StatsSnapshot) {
        self.loads += d.loads;
        self.lstores += d.lstores;
        self.rstores += d.rstores;
        self.mstores += d.mstores;
        self.rmws += d.rmws;
        self.flushes += d.flushes();
        self.aflushes += d.aflushes;
        self.barriers += d.barriers;
        self.prims += d.total_ops();
        self.sim_ns += d.sim_ns;
        self.allocs += d.allocs;
        self.frees += d.frees;
        self.freelist_hits += d.freelist_hits;
        self.pins += d.smr_pins;
        self.retires += d.smr_retires;
        self.reclaims += d.smr_reclaims;
        self.advances += d.smr_advances;
    }
}

/// The measurements of one pass, accumulated over its rounds.
#[derive(Default)]
struct Pass {
    /// Wall latency of every timed call.
    ops: Hist,
    /// Throughput samples, calls per second: one per time slice, or one
    /// per burst for `crash-recover`, or one per traced pass.
    rates: Vec<f64>,
    /// Counters over the calls simulated time is reported for.
    counters: Counters,
    /// Calls those counters cover.
    counted_ops: u64,
    /// Client-thread wall time spent on those calls.
    counted_busy_ns: f64,
    /// Allocator and SMR gauges when the counted calls ended.
    live_cells: u64,
    hw_cells: u64,
    limbo: u64,
    /// Wall time of every crash cycle's recovery, in microseconds.
    recovery_us: Vec<f64>,
    /// Simulated time of the cycles simulated time is reported for, in
    /// microseconds.
    recovery_sim_us: Vec<f64>,
    /// Tracer recovery breakdowns, one per cycle (traced passes).
    breakdowns: Vec<Vec<PhaseTiming>>,
    /// Timed calls with tracer attribution (traced passes).
    calls: Vec<(Op, Span)>,
    /// Live elements at the end.
    live_elems: u64,
}

impl Pass {
    fn gauges(&mut self, end: &StatsSnapshot) {
        self.live_cells = end.live_cells;
        self.hw_cells = end.hw_cells;
        self.limbo = end.smr_limbo;
    }

    fn throughput(&self) -> f64 {
        median(&self.rates)
    }

    fn recovered(&mut self, rec: Recovery, counted: bool) {
        self.recovery_us.push(rec.wall_ns as f64 / 1e3);
        if counted {
            self.recovery_sim_us.push(rec.sim_ns as f64 / 1e3);
        }
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// A traced pass whose tracer events do not line up with the calls the
/// benchmark issued.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let z = args.sizes;
    let t_run = Instant::now();
    let inputs = Arc::new(Inputs::generate(args.kind, z, args.seed));
    let mut spans = Spans::new(t_run);

    // The window is cut into rounds, each on a freshly built deployment,
    // so one unlucky memory placement or burst of host noise moves the
    // pooled figures less. Each round sets up several times; `setup_s`
    // is the median over all setups.
    let mut setup_s = Vec::new();
    let mut pass = Pass::default();
    let mut tally = Tally::default();
    let round = Duration::from_secs_f64(args.seconds) / z.rounds as u32;
    for r in 0..z.rounds {
        let mut env = None;
        for i in 0..z.setups {
            drop(env.take());
            spans.cycle = (r * z.setups + i) as u32;
            let t = Instant::now();
            env = Some(setup(&inputs, false, &mut spans));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut env = env.expect("at least one setup");
        let cycles = z.cycles / z.rounds;
        if args.kind == Kind::CrashRecover {
            mixed_pass(&mut pass, &mut env, cycles, Some(round), &mut spans, false)?;
        } else {
            let warmup = Stop::Time(round / 10);
            client_pass(&mut pass, &mut env, warmup, Stop::Time(round), None)?;
            recovery_cycles(&mut pass, &mut env, cycles, &mut spans);
        }
        pass.live_elems = env.final_check();
        tally.absorb(std::mem::take(&mut env.tally));
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let mut tspans = Spans::new(t_run);
        let mut tenv = setup(&inputs, true, &mut tspans);
        let mut traced = Pass::default();
        if args.kind == Kind::CrashRecover {
            mixed_pass(
                &mut traced,
                &mut tenv,
                z.traced_cycles,
                None,
                &mut tspans,
                true,
            )?;
        } else {
            let (warmup, stop) = (Stop::Ops(z.traced_warmup), Stop::Ops(z.traced_ops));
            client_pass(&mut traced, &mut tenv, warmup, stop, Some(t_run))?;
        }
        traced.live_elems = tenv.final_check();
        let tracer = tenv.cluster.tracer().expect("traced pass").clone();
        let outcomes = tenv.tally.outcomes;
        tally.absorb(std::mem::take(&mut tenv.tally));
        per_layer(
            &mut metrics,
            &pass,
            &traced,
            &spans,
            &outcomes,
            tracer.events_dropped(),
        );
        if let Some(dir) = &args.out_dir {
            tspans
                .items
                .extend(traced.calls.iter().map(|(_, s)| s.clone()));
            let mut all = spans;
            all.items.extend(tspans.items);
            all.items.sort_by_key(|s| s.start_ns);
            let path = dir.join(format!(
                "spans-{}-seed{}.jsonl",
                args.kind.name(),
                args.seed
            ));
            std::fs::create_dir_all(dir)
                .and_then(|()| all.write_jsonl(&path))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
        }
    } else {
        end_to_end(&mut metrics, &pass, &setup_s);
    }
    let samples = format!(
        "{} timed calls, {} crash cycles, {} setups",
        pass.ops.count(),
        pass.recovery_us.len(),
        setup_s.len()
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.faults.count,
        errors: tally.faults.first,
        metrics,
        samples,
    })
}

/// Runs the two-session closed loop of `map-zipf`, `queue-backlog` or
/// `list-churn`. With `log`, every call is kept with its tracer
/// attribution.
fn client_pass(
    pass: &mut Pass,
    env: &mut Env,
    warmup: Stop,
    stop: Stop,
    log: Option<Instant>,
) -> Result<(), String> {
    let cluster = Arc::clone(&env.cluster);
    let tracer = cluster.tracer().cloned();
    let before: Vec<usize> = match (&tracer, warmup) {
        (Some(tr), Stop::Ops(w)) => [NODE0, NODE1]
            .iter()
            .map(|&m| op_event_count(tr, m) + w as usize)
            .collect(),
        _ => vec![0; 2],
    };
    let mut clients = env.clients();
    let threads = clients.len() as f64;
    let w = run_window(&cluster, &mut clients, warmup, stop, log);
    let mut tally = Tally::default();
    for c in clients.iter_mut() {
        tally.absorb(std::mem::take(c.tally()));
    }
    drop(clients);
    env.tally.absorb(tally);

    if let Some(tr) = &tracer {
        for ((machine, mut calls), skip) in w.logs.into_iter().zip(before) {
            attribute(tr, machine, skip, &mut calls)?;
            pass.calls.extend(calls);
        }
    }
    match stop {
        Stop::Time(_) => pass
            .rates
            .extend(w.slices.iter().map(|&n| n as f64 / w.slice.as_secs_f64())),
        Stop::Ops(_) => pass.rates.push(w.ops.count() as f64 / w.wall.as_secs_f64()),
    }
    pass.counters.add(&w.delta);
    pass.counted_ops += w.ops.count();
    pass.counted_busy_ns += w.wall.as_nanos() as f64 * threads;
    pass.gauges(&w.delta);
    pass.ops.merge(&w.ops);
    Ok(())
}

/// Crash cycles after the window: crash, recover, reopen, serve one op.
fn recovery_cycles(pass: &mut Pass, env: &mut Env, cycles: usize, spans: &mut Spans) {
    let cluster = Arc::clone(&env.cluster);
    for c in 0..cycles {
        spans.cycle = c as u32 + 1;
        let rec = crash_cycle(&cluster, victim(&cluster, c), spans, |s, sp| {
            env.reopen_and_serve(s, sp)
        });
        pass.recovered(rec, true);
    }
}

/// The `crash-recover` loop: a burst over the three roots, a partial
/// crash, recovery, then a check of everything the burst wrote. Runs at
/// least `min_cycles` cycles and, with `time`, until that has passed.
/// Simulated time is reported over the first `min_cycles` cycles only,
/// so it repeats exactly for a seed.
fn mixed_pass(
    pass: &mut Pass,
    env: &mut Env,
    min_cycles: usize,
    time: Option<Duration>,
    spans: &mut Spans,
    traced: bool,
) -> Result<(), String> {
    let z = env.sizes();
    let cluster = Arc::clone(&env.cluster);
    let tracer = cluster.tracer().cloned().filter(|_| traced);
    // The traced pass skips the warm-up: its counts repeat exactly
    // anyway, and every traced event counts against the tracer's
    // crash-sealed buffer.
    let warm_bursts = if traced { 0 } else { z.warm_bursts };
    for _ in 0..warm_bursts {
        let mut client = env.mixed_client();
        for _ in 0..z.burst {
            client.step();
        }
    }
    let t_start = Instant::now();
    let mut cycle = 0;
    while cycle < min_cycles || time.is_some_and(|d| t_start.elapsed() < d) {
        let skip = tracer.as_ref().map(|tr| op_event_count(tr, NODE0));
        let snap0 = cluster.stats_snapshot();
        let mut calls = Vec::new();
        let mut client = env.mixed_client();
        let t0 = Instant::now();
        let mut now = t0;
        for _ in 0..z.burst {
            let op = client.step();
            let end = Instant::now();
            let ns = end.duration_since(now).as_nanos() as u64;
            pass.ops.record(ns);
            if traced {
                calls.push((
                    op,
                    Span {
                        name: op.span_name(),
                        start_ns: now.duration_since(spans.t0()).as_nanos() as u64,
                        dur_ns: ns,
                        machine: NODE0.index(),
                        cycle: cycle as u32 + 1,
                        attr: None,
                    },
                ));
            }
            now = end;
        }
        drop(client);
        let burst_ns = now.duration_since(t0).as_nanos() as f64;
        let end = cluster.stats_snapshot();
        if cycle < min_cycles {
            pass.counters.add(&end.since(&snap0));
            pass.counted_ops += z.burst as u64;
            pass.counted_busy_ns += burst_ns;
            pass.gauges(&end);
        }
        pass.rates.push(z.burst as f64 / (burst_ns / 1e9));
        if let (Some(tr), Some(skip)) = (&tracer, skip) {
            attribute(tr, NODE0, skip, &mut calls)?;
            pass.calls.extend(calls);
        }

        spans.cycle = cycle as u32 + 1;
        let rec = crash_cycle(&cluster, victim(&cluster, cycle), spans, |s, sp| {
            env.reopen_and_serve(s, sp)
        });
        pass.recovered(rec, cycle < min_cycles);
        if let Some(tr) = &tracer {
            pass.breakdowns.push(tr.recovery_breakdown());
        }
        cycle += 1;
        env.verify_recovered(cycle % z.full_check_every == 0);
    }
    Ok(())
}

fn end_to_end(m: &mut Metrics, p: &Pass, setup_s: &[f64]) {
    m.put("setup_s", median(setup_s), "s");
    m.put(
        "sim_ns_per_op",
        ratio(p.counters.sim_ns as f64, p.counted_ops as f64),
        "sim_ns/op",
    );
    m.put("recovery_sim_us", mean(&p.recovery_sim_us), "sim_us");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
}

fn per_layer(
    m: &mut Metrics,
    plain: &Pass,
    t: &Pass,
    spans: &Spans,
    outcomes: &crate::workloads::Outcomes,
    events_dropped: u64,
) {
    // Host time, from the untraced pass: context about this machine, too
    // noisy to gate on (see README.md, "Host time").
    m.put("host.throughput_ops_s", plain.throughput(), "ops/s");
    m.put("host.op_p50_us", plain.ops.quantile(0.50) / 1e3, "us");
    m.put("host.op_p99_us", plain.ops.quantile(0.99) / 1e3, "us");
    m.put(
        "host.recovery_p50_us",
        quantile(&plain.recovery_us, 0.50),
        "us",
    );
    m.put(
        "host.recovery_p99_us",
        quantile(&plain.recovery_us, 0.99),
        "us",
    );

    let c = &t.counters;
    let ops = t.counted_ops as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    m.put("backend.loads_per_op", per_op(c.loads), "count/op");
    m.put("backend.lstores_per_op", per_op(c.lstores), "count/op");
    m.put("backend.rstores_per_op", per_op(c.rstores), "count/op");
    m.put("backend.mstores_per_op", per_op(c.mstores), "count/op");
    m.put("backend.rmws_per_op", per_op(c.rmws), "count/op");
    m.put("backend.flushes_per_op", per_op(c.flushes), "count/op");
    m.put("backend.aflushes_per_op", per_op(c.aflushes), "count/op");
    m.put("backend.barriers_per_op", per_op(c.barriers), "count/op");
    m.put("backend.prims_per_op", per_op(c.prims), "count/op");
    m.put(
        "backend.sim_ns_per_prim",
        ratio(c.sim_ns as f64, c.prims as f64),
        "sim_ns/prim",
    );
    // Host time per primitive comes from the untraced pass: tracing
    // would inflate it.
    m.put(
        "backend.host_ns_per_prim",
        ratio(plain.counted_busy_ns, plain.counters.prims as f64),
        "ns/prim",
    );

    let calls_of = |op: Op| {
        t.calls
            .iter()
            .filter(move |(o, _)| *o == op)
            .map(|(_, s)| s)
    };
    let attr = |s: &Span| s.attr.unwrap_or_default();
    for op in Op::ALL {
        let n = calls_of(op).count() as f64;
        let flushes: u64 = calls_of(op).map(|s| attr(s).flushes).sum();
        let acks: u64 = calls_of(op).map(|s| attr(s).acks).sum();
        m.put(
            format!("flit.{}.flushes_per_op", op.name()),
            ratio(flushes as f64, n),
            "count/op",
        );
        m.put(
            format!("flit.{}.acks_per_op", op.name()),
            ratio(acks as f64, n),
            "count/op",
        );
    }
    let gets = || calls_of(Op::MapGet).chain(calls_of(Op::ListContains));
    let flushing = gets()
        .filter(|s| attr(s).flushes + attr(s).aflushes > 0)
        .count();
    m.put(
        "flit.get.flush_rate",
        ratio(flushing as f64, gets().count() as f64),
        "ratio",
    );
    let sync: u64 = t
        .calls
        .iter()
        .map(|(_, s)| attr(s).flushes + attr(s).aflushes + attr(s).barriers)
        .sum();
    m.put(
        "flit.sync_ops_per_op",
        ratio(sync as f64, t.calls.len() as f64),
        "count/op",
    );

    m.put("alloc.allocs_per_op", per_op(c.allocs), "count/op");
    m.put("alloc.frees_per_op", per_op(c.frees), "count/op");
    m.put(
        "alloc.freelist_hit_rate",
        ratio(c.freelist_hits as f64, c.allocs as f64),
        "ratio",
    );
    m.put("alloc.hw_cells", t.hw_cells as f64, "cells");
    m.put("alloc.live_cells", t.live_cells as f64, "cells");
    m.put(
        "alloc.cells_per_live_elem",
        ratio(t.live_cells as f64, t.live_elems as f64),
        "cells/elem",
    );

    m.put("smr.pins_per_op", per_op(c.pins), "count/op");
    m.put("smr.retires_per_op", per_op(c.retires), "count/op");
    m.put(
        "smr.reclaims_per_retire",
        ratio(c.reclaims as f64, c.retires as f64),
        "ratio",
    );
    m.put("smr.advances_per_op", per_op(c.advances), "count/op");
    m.put("smr.limbo_end", t.limbo as f64, "count");

    for op in Op::ALL {
        let walls: Vec<f64> = calls_of(op).map(|s| s.dur_ns as f64 / 1e3).collect();
        let sims: Vec<f64> = calls_of(op).map(|s| attr(s).sim_ns as f64).collect();
        let name = op.name();
        m.put(format!("ds.{name}.count"), walls.len() as f64, "count");
        m.put(
            format!("ds.{name}.wall_p50_us"),
            quantile(&walls, 0.50),
            "us",
        );
        m.put(
            format!("ds.{name}.wall_p99_us"),
            quantile(&walls, 0.99),
            "us",
        );
        m.put(format!("ds.{name}.sim_mean_ns"), mean(&sims), "sim_ns");
        m.put(
            format!("ds.{name}.sim_p99_ns"),
            quantile(&sims, 0.99),
            "sim_ns",
        );
    }
    let rate = |(n, hit): (u64, u64)| ratio(hit as f64, n as f64);
    m.put("ds.map.get_hit_rate", rate(outcomes.map_gets), "ratio");
    m.put(
        "ds.list.contains_hit_rate",
        rate(outcomes.list_contains),
        "ratio",
    );
    m.put(
        "ds.list.update_success_rate",
        rate(outcomes.list_updates),
        "ratio",
    );
    m.put(
        "ds.queue.empty_dequeues",
        outcomes.empty_dequeues as f64,
        "count",
    );

    let med = |name: &str| median(&spans.durations_us(name));
    m.put("api.cluster_build_ms", med("api.build") / 1e3, "ms");
    m.put("api.create_root_us", med("api.create_root"), "us");
    m.put("api.prefill_s", med("api.prefill") / 1e6, "s");
    m.put("api.open_root_us", med("api.open_root"), "us");
    m.put("api.recover_roots_us", med("api.recover_roots"), "us");
    m.put("api.first_op_us", med("api.first_op"), "us");

    // Only crash-recover's traced pass crashes: on the other workloads
    // the prefill alone would overflow the tracer's crash-sealed buffer.
    for phase in RecoveryPhase::ALL {
        let of = |b: &Vec<PhaseTiming>| b.iter().find(|p| p.phase == phase).copied();
        let timings: Vec<PhaseTiming> = t.breakdowns.iter().filter_map(of).collect();
        let walls: Vec<f64> = timings.iter().map(|p| p.wall_ns as f64 / 1e3).collect();
        let sims: Vec<f64> = timings.iter().map(|p| p.sim_ns as f64).collect();
        m.put(
            format!("recovery.{}.wall_us", phase.name()),
            median(&walls),
            "us",
        );
        m.put(
            format!("recovery.{}.sim_ns", phase.name()),
            mean(&sims),
            "sim_ns",
        );
    }

    m.put(
        "trace.overhead_ratio",
        ratio(plain.throughput(), t.throughput()),
        "ratio",
    );
    m.put("trace.events_dropped", events_dropped as f64, "count");
}
