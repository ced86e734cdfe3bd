//! Experiment E7 (long-version extension) **plus** the engine throughput
//! harness.
//!
//! Two jobs in one binary:
//!
//! 1. Network-performance metrics versus load — average packet delay,
//!    aggregate throughput and successful delivery rate for the three
//!    protocols (the Section IV-A metrics whose plots the short paper defers
//!    to its long version).
//! 2. A wall-clock throughput benchmark of the simulator itself: every
//!    scenario is run serially under a timer and reported as *events/sec*,
//!    giving the repository a perf trajectory across PRs.  A node-count
//!    scaling sweep (1k → 1M nodes at constant deployment density) rides
//!    along to track how throughput and resident memory scale with network
//!    size.  Results are written to `BENCH_netperf.json` at the repository
//!    root.
//!
//! A third job rides along behind `--saturate`: the **record-sink
//! saturation benchmark**, which hammers the experiment store's append path
//! from N threads and records the throughput ceiling of the old
//! mutex-serialized sink next to the lock-free collector that replaced it
//! (plus the collector's worker-buffered variant).  The run fails loudly if
//! the lock-free path falls below the mutex baseline it superseded.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin netperf
//! cargo run -p caem-bench --release --bin netperf -- --quick   # smoke variant
//! cargo run -p caem-bench --release --bin netperf -- --saturate
//! cargo run -p caem-bench --release --bin netperf -- --saturate --quick
//! ```

use std::time::Instant;

use caem::policy::PolicyKind;
use caem_bench::profrpt::{self, repeat_stats, time_breakdown_json, ProfBudget, RepeatStats};
use caem_bench::{apply_quick, emit, policy_label, rss, NetperfArgs};
use caem_metrics::prof::{self, Breakdown};
use caem_metrics::report::{Column, Table};
use caem_metrics::Commute;
use caem_simcore::stats::RunningStats;
use caem_simcore::time::{Duration, SimTime};
use caem_wsnsim::experiment::{ExperimentSpec, ScenarioSpec, METRIC_NAMES};
use caem_wsnsim::sweep::{LoadSweepPoint, PolicyComparison, PAPER_POLICIES};
use caem_wsnsim::{ExperimentStore, JobRecord, ScenarioConfig, SimulationRun};

/// Timing record for one point of the node-count scaling sweep.
struct ScalePoint {
    nodes: usize,
    sim_seconds: f64,
    wall_clock_s: f64,
    events: u64,
    events_per_sec: f64,
    rss_mb: Option<f64>,
    peak_rss_mb: Option<f64>,
    /// Peak simultaneously pending events (`queue_high_watermark`).
    pending_peak: usize,
    /// Node-table bytes per node by column, taken at the horizon (so the
    /// packet buffers' heap is what the run grew them to).
    columns: Vec<(&'static str, f64)>,
}

/// Run the node-count scaling sweep: the same paper-density deployment
/// (0.01 nodes/m², see [`ScenarioConfig::scaled`]) grown from 1k toward a
/// million nodes, each point timed over a shrinking sim horizon so the
/// sweep stays affordable.  `peak_rss_mb` is the process high-water mark,
/// which only grows — running the points in ascending node order keeps the
/// figure attributable to the point that recorded it.
fn node_scaling_sweep(seed: u64, quick: bool) -> Vec<ScalePoint> {
    let grid: &[(usize, u64)] = if quick {
        &[(1_000, 10), (10_000, 5)]
    } else {
        &[(1_000, 60), (10_000, 30), (100_000, 10), (1_000_000, 3)]
    };
    let mut points = Vec::with_capacity(grid.len());
    for &(nodes, horizon_s) in grid {
        let cfg = ScenarioConfig::scaled(nodes, PolicyKind::Scheme1Adaptive, 1.0, seed)
            .with_duration(Duration::from_secs(horizon_s));
        let started = Instant::now();
        let mut run = SimulationRun::new(cfg);
        run.run_until(SimTime::MAX);
        let columns = run.table().column_bytes_per_node();
        let result = run.finish();
        let wall_clock_s = started.elapsed().as_secs_f64();
        points.push(ScalePoint {
            nodes,
            sim_seconds: horizon_s as f64,
            wall_clock_s,
            events: result.events_processed,
            events_per_sec: result.events_processed as f64 / wall_clock_s.max(1e-9),
            rss_mb: rss::current_rss_mb(),
            peak_rss_mb: rss::peak_rss_mb(),
            pending_peak: result.queue_high_watermark,
            columns,
        });
    }
    points
}

/// Timing record for one simulated scenario, summarized over `repeats`
/// timed runs (the simulation output is deterministic across repeats —
/// only the wall clocks differ).
struct ScenarioTiming {
    policy: &'static str,
    load_pps: f64,
    /// Mean wall time over the repeats.
    wall_clock_s: f64,
    events: u64,
    /// rten-bench-shape statistics of events/sec over the repeats.
    eps: RepeatStats,
    sim_seconds: f64,
}

fn main() {
    let args = NetperfArgs::from_env_or_exit("netperf");
    if args.saturate {
        run_saturation(&args);
        return;
    }
    let NetperfArgs { seed, quick, .. } = args;
    let repeats = args.repeats.unwrap_or(1);
    // Quick smoke runs measure a reduced scenario; route them to a separate
    // (gitignored) file so they can never clobber the committed perf
    // trajectory recorded from full runs.
    let out_path = bench_json_path(quick);
    let previous = load_json(out_path);
    if args.profile {
        // Profiling roughly halves throughput, so a profiled sweep must not
        // replace a clean committed headline.  The quick file is a scratch
        // artifact that profiled smoke runs rewrite freely.
        let clean_headline = previous.as_ref().and_then(|v| v.get("profiled"))
            == Some(&serde_json::Value::Bool(false));
        if !quick && clean_headline {
            eprintln!(
                "error: {out_path} holds a clean (unprofiled) headline; \
                 a --profile run will not overwrite it"
            );
            std::process::exit(2);
        }
        prof::set_enabled(true);
    }
    if args.trace_out.is_some() {
        // Trace only the first repeat of the first scenario: one run's
        // span structure is the story; six scenarios x repeats would be
        // an unreadable wall of slices.
        prof::start_trace(2_000_000);
    }
    let loads: Vec<f64> = if quick {
        vec![5.0, 15.0]
    } else {
        vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    };
    let horizon_s: u64 = if quick { 200 } else { 600 };

    // The experiment engine enumerates the (load × policy) grid into its
    // flat job list (loads as scenarios, one seed); the jobs are then run
    // *serially* under individual timers — serial execution keeps the
    // wall-clock attribution per scenario clean even on many-core hosts (a
    // parallel fan-out would overlap the intervals).
    let spec = ExperimentSpec::paper_policies(
        loads
            .iter()
            .map(|&load| {
                ScenarioSpec::new(
                    format!("load_{load}pps"),
                    apply_quick(
                        ScenarioConfig::paper_default(PAPER_POLICIES[0], load, seed),
                        quick,
                    )
                    .with_duration(Duration::from_secs(horizon_s)),
                )
            })
            .collect(),
        seed,
        1,
    );
    let mut timings: Vec<ScenarioTiming> = Vec::new();
    let mut points: Vec<LoadSweepPoint> = Vec::new();
    let mut breakdown = Breakdown::new();
    let mut trace_pending = args.trace_out.is_some();
    let bench_started = Instant::now();
    for job in spec.enumerate_jobs() {
        let load = loads[job.scenario];
        let sim_seconds = job.config.duration.as_secs_f64();
        let scenario = format!("{}@{load}pps", policy_label(job.policy));
        let mut walls: Vec<f64> = Vec::with_capacity(repeats);
        let mut eps_samples: Vec<f64> = Vec::with_capacity(repeats);
        let mut result = None;
        for _ in 0..repeats {
            let started = Instant::now();
            let run_result = SimulationRun::new(job.config.clone()).run();
            let wall_clock_s = started.elapsed().as_secs_f64();
            if trace_pending {
                trace_pending = false;
                write_trace(args.trace_out.as_deref().expect("trace path"), &scenario);
            }
            walls.push(wall_clock_s);
            eps_samples.push(run_result.events_processed as f64 / wall_clock_s.max(1e-9));
            if args.profile {
                breakdown.observe(&scenario, &run_result.profile);
            }
            result = Some(run_result);
        }
        let result = result.expect("at least one repeat");
        timings.push(ScenarioTiming {
            policy: policy_label(job.policy),
            load_pps: load,
            wall_clock_s: repeat_stats(&walls).expect("repeats >= 1").mean,
            events: result.events_processed,
            eps: repeat_stats(&eps_samples).expect("repeats >= 1"),
            sim_seconds,
        });
        match points.last_mut() {
            Some(point) if point.load_pps == load => point.comparison.results.push(result),
            _ => points.push(LoadSweepPoint {
                load_pps: load,
                comparison: PolicyComparison {
                    results: vec![result],
                },
            }),
        }
    }
    let total_wall_s = bench_started.elapsed().as_secs_f64();

    // One table per metric, matching how the long version would plot them.
    for (metric, extractor) in [
        (
            "average packet delay (ms)",
            Box::new(|r: &caem_wsnsim::SimulationResult| r.perf.average_delay_ms())
                as Box<dyn Fn(&caem_wsnsim::SimulationResult) -> f64>,
        ),
        (
            "aggregate throughput (kbps)",
            Box::new(|r: &caem_wsnsim::SimulationResult| r.perf.throughput_kbps()),
        ),
        (
            "successful delivery rate",
            Box::new(|r: &caem_wsnsim::SimulationResult| r.delivery_rate()),
        ),
    ] {
        let mut columns = vec![Column::new("added_traffic_load_pps", loads.clone())];
        for &policy in &PAPER_POLICIES {
            let values: Vec<f64> = points
                .iter()
                .map(|p| extractor(p.comparison.get(policy)))
                .collect();
            columns.push(Column::new(policy_label(policy), values));
        }
        let table = Table::new(format!("E7 — {metric} versus traffic load"), columns);
        emit(&table);
    }

    // Engine throughput report.
    let total_events: u64 = timings.iter().map(|t| t.events).sum();
    let sum_scenario_wall: f64 = timings.iter().map(|t| t.wall_clock_s).sum();
    let aggregate_eps = total_events as f64 / sum_scenario_wall.max(1e-9);
    if repeats > 1 {
        println!("== engine throughput (events/sec over {repeats} repeats per scenario) ==");
        println!(
            "{:<24} {:>10} {:>12} {:>14} {:>12} {:>12} {:>12} {:>12}",
            "scenario",
            "load_pps",
            "wall_s",
            "events",
            "eps_min",
            "eps_mean",
            "eps_median",
            "eps_max"
        );
        for t in &timings {
            println!(
                "{:<24} {:>10.1} {:>12.4} {:>14} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
                t.policy,
                t.load_pps,
                t.wall_clock_s,
                t.events,
                t.eps.min,
                t.eps.mean,
                t.eps.median,
                t.eps.max
            );
        }
    } else {
        println!("== engine throughput (events/sec, wall-clock per scenario) ==");
        println!(
            "{:<24} {:>10} {:>12} {:>14} {:>12}",
            "scenario", "load_pps", "wall_s", "events", "events/sec"
        );
        for t in &timings {
            println!(
                "{:<24} {:>10.1} {:>12.4} {:>14} {:>12.0}",
                t.policy, t.load_pps, t.wall_clock_s, t.events, t.eps.mean
            );
        }
    }
    println!(
        "aggregate: {total_events} events in {sum_scenario_wall:.3} s = {aggregate_eps:.0} events/sec"
    );

    // Node-count scaling: how far the structure-of-arrays engine stretches.
    let scaling = node_scaling_sweep(seed, quick);
    println!("== node-count scaling (constant density, scheme 1, 1 pkt/s/node) ==");
    println!(
        "{:>10} {:>8} {:>10} {:>14} {:>12} {:>10} {:>12} {:>8}",
        "nodes", "sim_s", "wall_s", "events", "events/sec", "rss_mb", "pending_peak", "B/node"
    );
    for p in &scaling {
        println!(
            "{:>10} {:>8.0} {:>10.3} {:>14} {:>12.0} {:>10.0} {:>12} {:>8.0}",
            p.nodes,
            p.sim_seconds,
            p.wall_clock_s,
            p.events,
            p.events_per_sec,
            p.rss_mb.unwrap_or(f64::NAN),
            p.pending_peak,
            p.columns.iter().map(|&(_, bytes)| bytes).sum::<f64>()
        );
    }

    let scenarios: Vec<serde_json::Value> = timings
        .iter()
        .map(|t| {
            serde_json::json!({
                "policy": t.policy,
                "load_pps": t.load_pps,
                "wall_clock_s": t.wall_clock_s,
                "events": t.events,
                "events_per_sec": t.eps.mean,
                "repeats": repeats,
                "events_per_sec_stats": t.eps.to_json(),
                "sim_seconds": t.sim_seconds,
                "profiled": args.profile,
            })
        })
        .collect();
    let mut report = serde_json::json!({
        "benchmark": "netperf",
        "seed": seed,
        "quick": quick,
        "profiled": args.profile,
        "repeats": repeats,
        "scenario_count": timings.len(),
        "wall_clock_s": sum_scenario_wall,
        "harness_wall_clock_s": total_wall_s,
        "total_events": total_events,
        "events_per_sec": aggregate_eps,
        "scenarios": scenarios,
        "node_scaling": scaling
            .iter()
            .map(|p| {
                serde_json::json!({
                    "nodes": p.nodes,
                    "sim_seconds": p.sim_seconds,
                    "wall_clock_s": p.wall_clock_s,
                    "events": p.events,
                    "events_per_sec": p.events_per_sec,
                    "rss_mb": p.rss_mb,
                    "peak_rss_mb": p.peak_rss_mb,
                    "pending_peak": p.pending_peak,
                    "bytes_per_node": p.columns.iter().map(|&(_, bytes)| bytes).sum::<f64>(),
                    "columns": serde_json::Value::Map(
                        p.columns
                            .iter()
                            .map(|&(name, bytes)| (name.to_string(), serde_json::json!(bytes)))
                            .collect()
                    ),
                    "profiled": args.profile,
                })
            })
            .collect::<Vec<serde_json::Value>>(),
    });
    // The scenario sweep and the `--saturate` mode share the report file;
    // each rewrite carries the other mode's section forward.  The profile
    // breakdown is carried the same way when this run did not profile.
    if let Some(saturation) = previous
        .as_ref()
        .and_then(|v| v.get("sink_saturation").cloned())
    {
        set_key(&mut report, "sink_saturation", saturation);
    }
    if args.profile {
        print!("{}", breakdown.render("netperf scenario sweep"));
        profrpt::print_run_event_counters();
        set_key(
            &mut report,
            "time_breakdown",
            time_breakdown_json(&breakdown),
        );
    } else if let Some(previous_breakdown) = previous
        .as_ref()
        .and_then(|v| v.get("time_breakdown").cloned())
    {
        set_key(&mut report, "time_breakdown", previous_breakdown);
    }
    write_json(out_path, &report);

    // The CI regression gate: fail loudly when any subsystem's mean share
    // regressed past its committed budget plus noise band.
    if let Some(budget_path) = args.check_budget.as_deref() {
        let budget = ProfBudget::load(budget_path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let violations = budget.check(&breakdown);
        if violations.is_empty() {
            println!(
                "budget gate: all {} subsystems within budget",
                budget.entries.len()
            );
        } else {
            for v in &violations {
                eprintln!("FAIL: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Stop the Chrome trace started in `main` and write it to `path`.
fn write_trace(path: &str, scenario: &str) {
    let Some((json, events, dropped)) = prof::stop_trace_json() else {
        eprintln!("trace capture produced no events");
        return;
    };
    match std::fs::write(path, json) {
        Ok(()) => {
            println!("wrote {path} ({events} trace events, first run of {scenario})");
            if dropped > 0 {
                println!("note: {dropped} trace events dropped at the capacity bound");
            }
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The committed perf-trajectory file (full runs) or its gitignored quick
/// sibling, at the repository root.
fn bench_json_path(quick: bool) -> &'static str {
    if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_netperf_quick.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netperf.json")
    }
}

fn load_json(path: &str) -> Option<serde_json::Value> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::parse(&text).ok()
}

/// Set `key` in a JSON object value, replacing an existing entry in place.
fn set_key(report: &mut serde_json::Value, key: &str, value: serde_json::Value) {
    if let serde_json::Value::Map(entries) = report {
        if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
    }
}

fn write_json(path: &str, report: &serde_json::Value) {
    let text = serde_json::to_string_pretty(report).expect("report serializes");
    match std::fs::write(path, text) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

// ---------------------------------------------------------------------------
// --saturate: the record-sink saturation benchmark.
// ---------------------------------------------------------------------------

/// One thread count's worth of sink measurements.
struct SaturationPoint {
    threads: usize,
    records: usize,
    mutex_rps: f64,
    lockfree_rps: f64,
    buffered_rps: f64,
    /// Per-append latency of the mutex path (µs), merged across threads
    /// with the [`Commute`] law.
    mutex_append_us: RunningStats,
    /// Per-append latency of the lock-free path (µs), merged across threads
    /// the same way.
    lockfree_append_us: RunningStats,
}

/// A synthetic record shaped like a real job result (same field count and
/// rough line length), so the benchmark stresses the serialization and IO
/// path the grid actually uses.
fn synth_record(seed: u64) -> JobRecord {
    JobRecord {
        scenario_index: 0,
        scenario: "saturation".into(),
        policy_index: 1,
        policy: PolicyKind::Scheme1Adaptive,
        seed,
        config_hash: 0x5a7e_5a7e,
        metrics: vec![Some(0.123_456_789); METRIC_NAMES.len()],
        generated: 1_000,
        delivered: 900,
        events_processed: 123_456,
        end_time_nanos: 600_000_000_000,
        delay_p50_ms: Some(12.5),
        delay_p95_ms: Some(80.0),
        delay_p99_ms: None,
    }
}

fn saturation_store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "caem_netperf_saturate_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// Append `per_thread` synthetic records from each of `threads` threads
/// through `append`, returning each thread's per-append latency (µs).
fn hammer(
    threads: usize,
    per_thread: usize,
    append: impl Fn(&JobRecord) + Sync,
) -> Vec<RunningStats> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let append = &append;
                scope.spawn(move || {
                    let mut lat = RunningStats::new();
                    let mut record = synth_record(0);
                    for i in 0..per_thread {
                        record.seed = (t * per_thread + i) as u64;
                        let t0 = Instant::now();
                        append(&record);
                        lat.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Drive the mutex-serialized baseline sink from `threads` threads and
/// return (records/sec, merged per-append latency in µs).
fn time_mutex_sink(threads: usize, per_thread: usize) -> (f64, RunningStats) {
    let path = saturation_store_path("mutex");
    std::fs::remove_file(&path).ok();
    let total = threads * per_thread;
    let (wall, latencies) = {
        let mut store = ExperimentStore::open(&path).expect("open saturation store");
        let sink = store.mutex_sink();
        let started = Instant::now();
        let latencies = hammer(threads, per_thread, |record| {
            sink.append(record).expect("mutex sink append failed")
        });
        (started.elapsed().as_secs_f64(), latencies)
    };
    let written = ExperimentStore::load(&path).expect("reload saturation store");
    assert_eq!(written.len(), total, "mutex sink dropped records");
    std::fs::remove_file(&path).ok();
    let merged = Commute::merge_all(latencies).unwrap_or_default();
    (total as f64 / wall.max(1e-9), merged)
}

/// Drive the lock-free collector sink from `threads` threads (worker-side
/// buffering at `flush_bytes`; 0 = ship immediately, the engine default)
/// and return (records/sec, per-append latency in µs).  The wall clock
/// includes collector shutdown, i.e. every record fully written.
fn time_collector_sink(
    threads: usize,
    per_thread: usize,
    flush_bytes: usize,
) -> (f64, RunningStats) {
    let path = saturation_store_path("lockfree");
    std::fs::remove_file(&path).ok();
    let total = threads * per_thread;
    let (wall, latencies) = {
        let mut store = ExperimentStore::open(&path).expect("open saturation store");
        let started = Instant::now();
        let latencies = store
            .with_buffered_sink(flush_bytes, |sink| {
                hammer(threads, per_thread, |record| sink.append(record))
            })
            .expect("collector sink run failed");
        (started.elapsed().as_secs_f64(), latencies)
    };
    let written = ExperimentStore::load(&path).expect("reload saturation store");
    assert_eq!(written.len(), total, "collector sink dropped records");
    std::fs::remove_file(&path).ok();
    let merged = Commute::merge_all(latencies).unwrap_or_default();
    (total as f64 / wall.max(1e-9), merged)
}

/// The `--saturate` mode: sweep thread counts over the mutex baseline, the
/// lock-free collector and its buffered variant; print the ceilings; merge
/// a `sink_saturation` section into the netperf JSON; exit nonzero if the
/// lock-free path regresses below the mutex baseline at the top thread
/// count.
fn run_saturation(args: &NetperfArgs) {
    let quick = args.quick;
    let top = args.threads.unwrap_or(if quick { 8 } else { 32 });
    let mut thread_counts: Vec<usize> = Vec::new();
    let mut n = 1;
    while n < top {
        thread_counts.push(n);
        n *= 2;
    }
    thread_counts.push(top);
    let per_thread = if quick { 5_000 } else { 20_000 };

    println!("== record-sink saturation (mutex baseline vs lock-free collector) ==");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "threads",
        "records",
        "mutex_rec/s",
        "lockfree_rec/s",
        "buffered_rec/s",
        "speedup",
        "mutex_us",
        "lockfree_us"
    );
    let mut points: Vec<SaturationPoint> = Vec::new();
    for &threads in &thread_counts {
        let records = threads * per_thread;
        let (mutex_rps, mutex_append_us) = time_mutex_sink(threads, per_thread);
        let (lockfree_rps, lockfree_append_us) = time_collector_sink(threads, per_thread, 0);
        let (buffered_rps, _) = time_collector_sink(threads, per_thread, 8 * 1024);
        println!(
            "{:>8} {:>10} {:>14.0} {:>14.0} {:>14.0} {:>9.2}x {:>12.2} {:>12.2}",
            threads,
            records,
            mutex_rps,
            lockfree_rps,
            buffered_rps,
            lockfree_rps / mutex_rps.max(1e-9),
            mutex_append_us.mean(),
            lockfree_append_us.mean()
        );
        points.push(SaturationPoint {
            threads,
            records,
            mutex_rps,
            lockfree_rps,
            buffered_rps,
            mutex_append_us,
            lockfree_append_us,
        });
    }

    let top_point = points.last().expect("at least one thread count");
    let speedup_at_top = top_point.lockfree_rps / top_point.mutex_rps.max(1e-9);
    // Quick mode runs on noisy shared CI runners: allow 10 % of jitter.
    // Full runs hold the hard line — the lock-free path must win outright.
    let threshold = if quick { 0.9 } else { 1.0 };
    let passed = top_point.lockfree_rps >= threshold * top_point.mutex_rps;
    println!(
        "ceiling at {} threads: mutex {:.0} rec/s, lock-free {:.0} rec/s ({speedup_at_top:.2}x)",
        top_point.threads, top_point.mutex_rps, top_point.lockfree_rps
    );

    let section = serde_json::json!({
        "seed": args.seed,
        "quick": quick,
        "per_thread_records": per_thread,
        "points": points.iter().map(|p| serde_json::json!({
            "threads": p.threads,
            "records": p.records,
            "mutex_recs_per_sec": p.mutex_rps,
            "lockfree_recs_per_sec": p.lockfree_rps,
            "buffered_recs_per_sec": p.buffered_rps,
            "speedup": p.lockfree_rps / p.mutex_rps.max(1e-9),
            "mutex_append_mean_us": p.mutex_append_us.mean(),
            "mutex_append_max_us": p.mutex_append_us.max(),
            "lockfree_append_mean_us": p.lockfree_append_us.mean(),
            "lockfree_append_max_us": p.lockfree_append_us.max(),
        })).collect::<Vec<serde_json::Value>>(),
        "gate": serde_json::json!({
            "threads": top_point.threads,
            "mutex_recs_per_sec": top_point.mutex_rps,
            "lockfree_recs_per_sec": top_point.lockfree_rps,
            "speedup": speedup_at_top,
            "threshold": threshold,
            "passed": passed,
        }),
    });
    let out_path = bench_json_path(quick);
    let mut report = load_json(out_path)
        .unwrap_or_else(|| serde_json::json!({ "benchmark": "netperf", "quick": quick }));
    set_key(&mut report, "sink_saturation", section);
    write_json(out_path, &report);

    if !passed {
        eprintln!(
            "FAIL: lock-free sink ({:.0} rec/s) fell below {threshold:.0e}x the mutex baseline \
             ({:.0} rec/s) at {} threads",
            top_point.lockfree_rps, top_point.mutex_rps, top_point.threads
        );
        std::process::exit(1);
    }
}
