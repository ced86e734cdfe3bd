//! The replicated experiment grid: every scenario of the diversity zoo ×
//! every protocol × many seed replicates, run through the sharded experiment
//! engine's single parallel layer and reported as mean ± 95 % CI per metric.
//!
//! This is the evaluation the paper could not afford: instead of one
//! single-seed point estimate on one uniform deployment, each (scenario,
//! policy) cell aggregates independent replicates over diverse deployments
//! (uniform / grid / Gaussian hotspots / corridor), heterogeneous initial
//! batteries, random node churn and diurnal traffic cycles.
//!
//! The grid definition is a declarative spec file: a
//! `caem_wsnsim::spec::GridSpec` document that fully describes scenarios,
//! policies, seeds and sequential-stopping settings and resolves
//! deterministically into fully resolved configs.  `--spec <file>` names
//! one; without it the binary runs the committed `specs/zoo.json`, compiled
//! in as `caem_bench::ZOO_SPEC`, so a bare run and `--spec specs/zoo.json`
//! write byte-identical artifacts.  A positional seed, when given, replaces
//! the document's `base_seed`.
//!
//! A grid runs in this process, on every core rayon's budget allows.  To
//! spread grids over several processes or hosts, submit them to a
//! `caem-serve` daemon and attach `experiment --connect ADDR` socket
//! workers: the daemon journals every record to a per-grid store in the
//! same JSONL format, so `--reaggregate --store` reads it unchanged.
//!
//! The command line is parsed into one structured
//! [`caem_bench::ExperimentMode`] value — unknown or misspelled flags exit 2
//! with the usage text, `--flag=value` and `--flag value` are equivalent,
//! and contradictory combinations (e.g. `--reaggregate --resume`) are
//! unrepresentable by construction.  Modes:
//!
//! ```bash
//! cargo run -p caem-bench --release --bin experiment                        # run
//! cargo run -p caem-bench --release --bin experiment -- --quick --resume    # resume
//! cargo run -p caem-bench --release --bin experiment -- --quick --reaggregate
//! cargo run -p caem-bench --release --bin experiment -- --target-ci 0.01    # sequential
//! cargo run -p caem-bench --release --bin experiment -- --connect 127.0.0.1:7171 # worker
//! cargo run -p caem-bench --release --bin experiment -- --spec specs/zoo.json --quick
//! cargo run -p caem-bench --release --bin experiment -- --quick --print-spec
//! ```
//!
//! The full grid is written as JSON to `BENCH_experiment.json` in the
//! working directory and its JSONL store to `BENCH_experiment_store.jsonl`
//! (`_quick` variants, gitignored, for `--quick` runs).

use caem_bench::cli::{RunArgs, SequentialArgs};
use caem_bench::{policy_label, profrpt, ExperimentCli, ExperimentMode, DEFAULT_SEED, ZOO_SPEC};
use caem_metrics::prof;
use caem_wsnsim::experiment::{
    ExperimentReport, ExperimentSpec, SequentialOutcome, SequentialStopping, METRIC_NAMES,
};
use caem_wsnsim::faults;
use caem_wsnsim::persist::{ExperimentStore, StoreOptions};
use caem_wsnsim::serve::{run_socket_worker, SocketWorkerOptions, TcpLink, WorkerExit};
use caem_wsnsim::spec::GridSpec;

const USAGE: &str = "\
usage: experiment [seed] [--quick] [--spec <file>] [mode flags]

grid definition:
  [seed]                 positional base seed (default: the spec's
                         base_seed, else the harness seed)
  --quick                reduced smoke grid (fewer nodes, shorter horizon)
  --spec <file>          load the grid from a declarative GridSpec document
                         instead of the built-in specs/zoo.json

modes (at most one selector; `run` is the default):
  run                    simulate the grid and write the report
    --resume             reuse records already in the store; only missing jobs run
    --store <file>       custom JSONL store (default BENCH_experiment_store*.jsonl)
    --target-ci <hw>     sequential stopping: append replicate batches until the
                         worst-cell 95% CI half-width of --ci-metric meets <hw>
      --ci-metric <m>      driving metric (default delivery_rate)
      --max-replicates <n> replicate cap (default 12 quick / 30 full)
    --fsync              fsync every store append (durability over speed)
    --profile            per-subsystem time-breakdown report after the run
                         (the report artifact stays byte-identical)
  --reaggregate          rebuild the report offline from the JSONL store alone
  --connect <addr>       attach to a caem-serve daemon as a socket worker
                         (no shared filesystem; jobs and records travel over
                         length-prefixed JSON frames)
    --expect-hash <h>    refuse to serve a grid whose grid hash differs
    --profile            print the worker's time breakdown when it exits
  --print-spec           dump the canonical resolved spec as JSON; no simulation

Both `--flag value` and `--flag=value` work; unknown flags exit 2.";

fn die(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn die_usage(message: String) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Everything the grid-driven modes share: the runnable spec, the fully
/// resolved sequential-stopping rule the definition (spec file) carried —
/// honoured even without `--target-ci`, so a committed `sequential` block
/// is never silently dropped — and the initial replicate count.
struct Grid {
    spec: ExperimentSpec,
    sequential: Option<SequentialStopping>,
    replicates: usize,
}

/// Resolve the grid definition: the `--spec` document when given, the
/// built-in zoo otherwise.  A positional seed replaces the document's
/// `base_seed`.  Deterministic in (definition, seed, quick).
fn load_grid(cli: &ExperimentCli) -> Grid {
    let (name, text) = match &cli.spec {
        Some(path) => (
            path.as_str(),
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read spec file {path}: {e}"))),
        ),
        None => ("specs/zoo.json", ZOO_SPEC.to_string()),
    };
    let mut doc = GridSpec::parse(&text).unwrap_or_else(|e| die(format!("{name}: {e}")));
    doc.base_seed = cli.seed.or(doc.base_seed);
    let resolved = doc
        .resolve(DEFAULT_SEED, cli.quick)
        .unwrap_or_else(|e| die(format!("{name}: {e}")));
    let replicates = resolved.spec.seeds.len();
    Grid {
        spec: resolved.spec,
        // Already batch-defaulted and validated by resolve().
        sequential: resolved.sequential,
        replicates,
    }
}

/// The sequential-stopping rule of a run: the spec file's resolved rule,
/// with `--target-ci`/`--ci-metric`/`--max-replicates` layered on top when
/// given, or `None` when neither source declares one.
fn resolve_stopping(
    grid: &Grid,
    args: Option<&SequentialArgs>,
    quick: bool,
) -> Option<SequentialStopping> {
    let stop = match (args, &grid.sequential) {
        (None, None) => return None,
        // Spec-declared sequential run, no CLI overrides: use it verbatim.
        (None, Some(stop)) => stop.clone(),
        // CLI overrides layered over the spec rule (or binary defaults).
        (Some(args), base) => {
            let stop = SequentialStopping {
                metric: args
                    .metric
                    .clone()
                    .or_else(|| base.as_ref().map(|s| s.metric.clone()))
                    .unwrap_or_else(|| "delivery_rate".to_string()),
                target_half_width: args.target_half_width,
                batch: base.as_ref().map(|s| s.batch).unwrap_or(grid.replicates),
                max_replicates: args
                    .max_replicates
                    .or_else(|| base.as_ref().map(|s| s.max_replicates))
                    .unwrap_or(if quick { 12 } else { 30 }),
            };
            stop.validate().unwrap_or_else(|e| die(e.to_string()));
            if stop.max_replicates < grid.replicates {
                die(format!(
                    "--max-replicates {} is below the initial batch of {} replicates",
                    stop.max_replicates, grid.replicates
                ));
            }
            stop.check_seeds(&grid.spec.seeds)
                .unwrap_or_else(|e| die(e.to_string()));
            stop
        }
    };
    println!(
        "sequential stopping on `{}`: target 95% CI half-width {}, batches of {}, cap {} replicates",
        stop.metric, stop.target_half_width, stop.batch, stop.max_replicates
    );
    Some(stop)
}

fn print_summary(spec: &ExperimentSpec, report: &ExperimentReport) {
    // Human-readable summary: one block per metric, mean +/- CI per cell.
    for (mi, metric) in METRIC_NAMES.iter().enumerate() {
        println!(
            "\n== {metric} (mean +/- 95% CI over {} seeds) ==",
            report.seeds.len()
        );
        let mut header = format!("{:<28}", "scenario");
        for &policy in &spec.policies {
            header.push_str(&format!(" {:>26}", policy_label(policy)));
        }
        println!("{header}");
        for spec_scenario in &spec.scenarios {
            let mut row = format!("{:<28}", spec_scenario.label);
            for &policy in &spec.policies {
                // A partial store (crashed grid inspected via --reaggregate)
                // legitimately misses whole cells; print a gap, don't panic.
                match report.cell(&spec_scenario.label, policy) {
                    Some(cell) => {
                        let s = &cell.metrics[mi];
                        row.push_str(&format!(
                            " {:>14.4} +/- {:>7.4}",
                            s.mean(),
                            s.ci95_half_width()
                        ));
                    }
                    None => row.push_str(&format!(" {:>26}", "(no records)")),
                }
            }
            println!("{row}");
        }
    }
}

fn write_report(report: &ExperimentReport, out_path: &str) {
    let text = serde_json::to_string_pretty(&report.to_json()).expect("report serializes");
    if let Err(e) = std::fs::write(out_path, text) {
        die(format!("could not write {out_path}: {e}"));
    }
    println!("\nwrote {out_path}");
}

/// Per-round trace and convergence verdict of a sequential-stopping run.
fn print_sequential_outcome(outcome: &SequentialOutcome, metric: &str) {
    for (i, round) in outcome.rounds.iter().enumerate() {
        println!(
            "  round {}: {} replicates/cell, worst half-width {:.6}",
            i + 1,
            round.replicates,
            round.worst_half_width
        );
    }
    // The scale-free readout next to the absolute target: how tight the
    // worst cell is relative to its mean.  `None` (a cell with too few
    // usable replicates or a zero mean) must surface as "n/a", not as a
    // fold identity masquerading as perfect precision.
    let worst_relative = outcome
        .report
        .cells
        .iter()
        .map(|cell| {
            cell.metric(metric)
                .and_then(|s| s.ci95_relative_half_width())
        })
        .try_fold(0.0f64, |acc, rel| rel.map(|r| acc.max(r)));
    println!(
        "{} after {} replicates/cell (worst relative precision {})",
        if outcome.converged {
            "converged"
        } else {
            "replicate cap reached"
        },
        outcome
            .rounds
            .last()
            .expect("at least one round")
            .replicates,
        match worst_relative {
            Some(rel) => format!("+/- {:.2}%", rel * 100.0),
            None => "undefined for at least one cell".to_string(),
        }
    );
}

/// `--connect <addr>`: attach to a daemon as a socket worker.
/// No shared filesystem: jobs arrive inline with the shard grant, record
/// lines stream back in coalesced frames.  A handshake rejection (wrong
/// protocol version, grid-hash mismatch) is a usage-class error and
/// exits 2; a transport failure mid-run exits 1.
fn socket_worker_mode(addr: &str, expect_hash: Option<u64>, profile: bool) -> ! {
    if profile {
        prof::set_enabled(true);
    }
    let stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to daemon at {addr}: {e}");
        std::process::exit(1);
    });
    let mut link = TcpLink::new(stream);
    let mut opts = SocketWorkerOptions::new(format!("pid_{}", std::process::id()));
    opts.expect_hash = expect_hash;
    match run_socket_worker(&mut link, &opts) {
        Ok(WorkerExit::Finished(outcome)) => {
            println!(
                "worker {}: {} shards completed, {} jobs simulated, {} quarantined via {addr}",
                std::process::id(),
                outcome.shards_completed,
                outcome.jobs_run,
                outcome.jobs_quarantined,
            );
            if let Some(summary) = faults::event_summary() {
                println!("worker {}: {summary}", std::process::id());
            }
            if prof::enabled() {
                profrpt::print_profile_totals(
                    &format!("worker {} time breakdown", std::process::id()),
                    &prof::global().snapshot(),
                );
            }
            std::process::exit(0);
        }
        Ok(WorkerExit::Rejected(reason)) => {
            die(format!("daemon at {addr} rejected this worker: {reason}"))
        }
        Err(e) => {
            eprintln!("error: worker transport to {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_mode(cli: &ExperimentCli, args: &RunArgs, grid: Grid, default_store: &str, out: &str) {
    let spec = &grid.spec;
    let sequential = resolve_stopping(&grid, args.sequential.as_ref(), cli.quick);
    if args.profile {
        prof::set_enabled(true);
    }
    let store_path = args
        .store
        .clone()
        .unwrap_or_else(|| default_store.to_string());
    if !args.resume && sequential.is_none() && args.store.is_none() {
        // A plain fixed-replicate run starts a fresh copy of the binary's
        // *default* store (still streaming every record).  Never deleted:
        // an explicitly passed `--store` file (reused instead — wiping a
        // store the user pointed at would destroy their accumulated grid),
        // and sequential-stopping stores (`--target-ci` exists to grow the
        // persisted replicate pool).
        std::fs::remove_file(&store_path).ok();
    }
    let options = StoreOptions {
        fsync: args.fsync,
        ..StoreOptions::default()
    };
    let mut store = ExperimentStore::open_with(&store_path, options)
        .unwrap_or_else(|e| die(format!("{store_path}: {e}")));
    println!(
        "experiment grid: {} scenarios x {} policies x {} seeds = {} jobs ({} on disk)",
        spec.scenarios.len(),
        spec.policies.len(),
        spec.seeds.len(),
        spec.job_count(),
        store.len(),
    );
    let report = match &sequential {
        Some(stop) => {
            let outcome = spec.run_sequential(&mut store, stop);
            print_sequential_outcome(&outcome, &stop.metric);
            outcome.report
        }
        None => spec.run_with_store(&mut store),
    };
    println!(
        "store {store_path}: {} jobs persisted ({} simulated this run, including stale re-runs)",
        store.len(),
        store.appended(),
    );

    print_summary(spec, &report);
    if let Some(summary) = faults::event_summary() {
        println!("{summary}");
    }
    if args.profile {
        // The process-wide accumulator: every job folded its profile in at
        // finish(); deploy and collector spans land here directly.
        println!();
        profrpt::print_profile_totals(
            "time breakdown (this process, all jobs)",
            &prof::global().snapshot(),
        );
        profrpt::print_run_event_counters();
    }
    write_report(&report, out);
}

fn main() {
    let cli = ExperimentCli::from_env().unwrap_or_else(|e| die_usage(e.to_string()));
    if let ExperimentMode::SocketWorker {
        addr,
        expect_hash,
        profile,
    } = &cli.mode
    {
        // Socket workers receive their jobs from the daemon; no grid
        // resolution (and no filesystem) on this side either.
        socket_worker_mode(addr, *expect_hash, *profile);
    }
    // Artifacts land in the working directory.
    let (default_store, out) = if cli.quick {
        (
            "BENCH_experiment_store_quick.jsonl",
            "BENCH_experiment_quick.json",
        )
    } else {
        ("BENCH_experiment_store.jsonl", "BENCH_experiment.json")
    };
    let grid = load_grid(&cli);

    match &cli.mode {
        ExperimentMode::SocketWorker { .. } => unreachable!("handled above"),
        ExperimentMode::PrintSpec => {
            // The canonical resolved spec: what a daemon's grant ships,
            // and what CI diffs between built-in and spec-file runs.
            println!(
                "{}",
                serde_json::to_string_pretty(&grid.spec.to_json())
                    .expect("resolved spec serializes")
            );
        }
        ExperimentMode::Reaggregate { store } => {
            // Offline path: rebuild the report purely from the JSONL store.
            let store_path = store.clone().unwrap_or_else(|| default_store.to_string());
            let store = ExperimentStore::load(&store_path)
                .unwrap_or_else(|e| die(format!("{store_path}: {e}")));
            let report = store.rebuild_report();
            println!(
                "re-aggregated {} persisted jobs from {store_path} into {} cells (no simulation)",
                store.len(),
                report.cells.len()
            );
            print_summary(&grid.spec, &report);
            write_report(&report, out);
        }
        ExperimentMode::Run(args) => run_mode(&cli, args, grid, default_store, out),
    }
}
