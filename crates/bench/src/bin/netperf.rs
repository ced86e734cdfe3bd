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
//!    size.  Results are written to `BENCH_netperf.json` (with `--quick`,
//!    `BENCH_netperf_quick.json`) in the working directory.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin netperf
//! cargo run -p caem-bench --release --bin netperf -- --quick   # smoke variant
//! ```

use std::time::Instant;

use caem::policy::PolicyKind;
use caem_bench::profrpt::{self, repeat_stats, time_breakdown_json, RepeatStats};
use caem_bench::{emit, load_grid, policy_label, rss, NetperfArgs};
use caem_metrics::prof::{self, Breakdown};
use caem_metrics::report::{Column, Table};
use caem_simcore::time::{Duration, SimTime};
use caem_wsnsim::experiment::PAPER_POLICIES;
use caem_wsnsim::{ScenarioConfig, SimulationResult, SimulationRun};

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
    let NetperfArgs { seed, quick, .. } = args;
    let repeats = args.repeats.unwrap_or(1);
    // Quick smoke runs measure a reduced scenario; route them to a separate
    // (gitignored) file so they can never clobber the committed perf
    // trajectory recorded from full runs.
    let out_path = if quick {
        "BENCH_netperf_quick.json"
    } else {
        "BENCH_netperf.json"
    };
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
    let spec = load_grid(&loads, seed, quick, |c| {
        c.with_duration(Duration::from_secs(horizon_s))
    });
    let mut timings: Vec<ScenarioTiming> = Vec::new();
    let mut results: Vec<SimulationResult> = Vec::new();
    let mut breakdown = Breakdown::new();
    let mut trace_pending = args.trace_out.is_some();
    let bench_started = Instant::now();
    for job in spec.enumerate_jobs() {
        let load = loads[job.scenario];
        let sim_seconds = job.config.duration.as_secs_f64();
        let scenario = format!("{}@{load}pps", policy_label(job.policy));
        let mut walls: Vec<f64> = Vec::new();
        let mut eps_samples: Vec<f64> = Vec::new();
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
        results.push(result);
    }
    let total_wall_s = bench_started.elapsed().as_secs_f64();

    // One table per metric, matching how the long version would plot them.
    for (metric, extractor) in [
        (
            "average packet delay (ms)",
            Box::new(|r: &SimulationResult| r.perf.average_delay_ms())
                as Box<dyn Fn(&SimulationResult) -> f64>,
        ),
        (
            "aggregate throughput (kbps)",
            Box::new(|r: &SimulationResult| r.perf.throughput_kbps()),
        ),
        (
            "successful delivery rate",
            Box::new(|r: &SimulationResult| r.delivery_rate()),
        ),
    ] {
        let mut columns = vec![Column::new("added_traffic_load_pps", loads.clone())];
        for (p, &policy) in PAPER_POLICIES.iter().enumerate() {
            let values: Vec<f64> = results
                .chunks(PAPER_POLICIES.len())
                .map(|at_load| extractor(&at_load[p]))
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
    // A run that did not profile carries the previous profile breakdown
    // forward.
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
}

/// Stop the Chrome trace started in `main` and write it to `path`.
fn write_trace(path: &str, scenario: &str) {
    let Some((json, events, dropped)) = prof::stop_trace_json() else {
        eprintln!("trace capture produced no events");
        return;
    };
    write_or_exit(path, &json);
    println!("wrote {path} ({events} trace events, first run of {scenario})");
    if dropped > 0 {
        println!("note: {dropped} trace events dropped at the capacity bound");
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
    write_or_exit(path, &text);
    println!("wrote {path}");
}

/// Write an artifact, exiting 2 when it cannot be written: a zero exit
/// would leave a stale file for the next comparison to read.
fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(2);
    }
}
