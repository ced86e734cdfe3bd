//! The two grid workloads: `zoo_grid` through the experiment store and
//! `tiny_jobs_served` through the daemon, plus the traced serial replay
//! both share.

use std::path::Path;
use std::time::Instant;

use caem_metrics::prof;
use caem_wsnsim::faults::{self, RunEvent};
use caem_wsnsim::serve::FrameLink;
use caem_wsnsim::spec::GridSpec;
use caem_wsnsim::{ExperimentReport, ExperimentStore, JobRecord, ResolvedGrid};

use crate::link::{serve_grid, CountingLink, LinkStats};
use crate::trace::Tracer;
use crate::{
    derive_seed, fnv1a, put_end_to_end, put_profile, repeat_for, run_job, Args, Iteration,
    Measured, RunnerTotals, Scratch,
};

/// The committed zoo spec the `zoo_grid` workload starts from.
const ZOO_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../specs/zoo.json");

/// Loopback workers attached to the daemon (one per compute thread on the
/// reference 2-core machine).
pub const SERVED_WORKERS: usize = 2;

/// Seeds per (topology, policy) cell of the served grid: 2 × 3 × 1333 ≈ 8k
/// jobs.
const SERVED_REPLICATES: usize = 1333;

/// Nodes the traced run deploys to measure resident bytes per node.
const FOOTPRINT_NODES: usize = 50_000;

/// A generated grid: the spec text a user would hand in, and how it
/// resolves.
pub struct GridInput {
    /// The spec document.
    pub text: String,
    /// Resolve in quick mode.
    pub quick: bool,
    /// The default seed passed to resolve (and to the daemon).
    pub seed: u64,
    /// The resolved grid.
    pub resolved: ResolvedGrid,
    /// Σ node count × simulated seconds over every job.
    pub node_seconds: f64,
}

impl GridInput {
    fn new(text: String, quick: bool, seed: u64) -> Result<Self, String> {
        let resolved = resolve(&text, seed, quick)?;
        let node_seconds = resolved
            .spec
            .enumerate_jobs()
            .iter()
            .map(|j| j.config.node_count as f64 * j.config.duration.as_secs_f64())
            .sum();
        Ok(GridInput {
            text,
            quick,
            seed,
            resolved,
            node_seconds,
        })
    }

    /// Jobs the grid enumerates to.
    pub fn jobs(&self) -> u64 {
        self.resolved.spec.job_count() as u64
    }

    /// The reference report: a single-process `ExperimentSpec::run`.
    pub fn reference(&self) -> String {
        render(&self.resolved.spec.run())
    }
}

fn resolve(text: &str, seed: u64, quick: bool) -> Result<ResolvedGrid, String> {
    GridSpec::parse(text)
        .and_then(|spec| spec.resolve(seed, quick))
        .map_err(|e| format!("spec rejected: {e}"))
}

/// Render a report exactly as the `experiment` CLI and the daemon do.
pub fn render(report: &ExperimentReport) -> String {
    serde_json::to_string_pretty(&report.to_json()).expect("report JSON always renders")
}

/// `specs/zoo.json` with its base seed drawn from `seed`; `reduced` keeps
/// one replicate per cell.
pub fn zoo_input(seed: u64, reduced: bool) -> Result<GridInput, String> {
    let text = std::fs::read_to_string(ZOO_SPEC).map_err(|e| format!("reading {ZOO_SPEC}: {e}"))?;
    let mut spec = GridSpec::parse(&text).map_err(|e| format!("{ZOO_SPEC}: {e}"))?;
    spec.base_seed = Some(derive_seed(seed));
    if reduced {
        spec.quick.replicates = Some(1);
    }
    let text = serde_json::to_string_pretty(&spec.to_json()).expect("spec JSON always renders");
    GridInput::new(text, true, seed)
}

/// The benchmark-owned served grid: 12 nodes, 5 s, two topologies × the
/// paper's three policies × 1333 seeds (8 with `reduced`).
pub fn served_input(seed: u64, reduced: bool) -> Result<GridInput, String> {
    let replicates = if reduced { 8 } else { SERVED_REPLICATES };
    let text = format!(
        r#"{{
  "caem_grid_spec": 1,
  "name": "tiny_jobs",
  "base_seed": {},
  "replicates": {replicates},
  "duration_s": 5.0,
  "node_count": 12,
  "scenarios": [
    {{ "label": "uniform_5pps", "rate_pps": 5.0 }},
    {{ "label": "grid_5pps", "rate_pps": 5.0, "topology": {{ "grid": {{ "jitter_m": 3.0 }} }} }}
  ]
}}"#,
        derive_seed(seed)
    );
    GridInput::new(text, false, seed)
}

/// One zoo grid the way the `experiment` CLI runs it: parse and resolve
/// the text, open a fresh store, `run_with_store`, render, compare with the
/// reference.  Afterwards (untimed) a second `run_with_store` over the
/// reopened store must simulate nothing and return the same bytes.
fn zoo_once(
    input: &GridInput,
    reference: &str,
    store_path: &Path,
    tracer: &mut Tracer,
) -> Result<(Iteration, Option<String>, u64), String> {
    let _ = std::fs::remove_file(store_path);
    let started = Instant::now();
    tracer.enter("zoo.grid", None);
    tracer.enter("spec.resolve", None);
    let resolved = resolve(&input.text, input.seed, input.quick)?;
    tracer.exit();
    tracer.enter("persist.open", None);
    let mut store = ExperimentStore::open(store_path).map_err(|e| format!("opening store: {e}"))?;
    tracer.exit();
    let setup_s = started.elapsed().as_secs_f64();
    tracer.enter("experiment.run_with_store", None);
    let report = resolved.spec.run_with_store(&mut store);
    tracer.exit();
    tracer.enter("experiment.render", None);
    let bytes = render(&report);
    tracer.exit();
    let matches = bytes == reference;
    let wall_s = started.elapsed().as_secs_f64();
    tracer.exit();
    drop(store);

    tracer.enter("persist.resume", None);
    let mut reopened =
        ExperimentStore::open(store_path).map_err(|e| format!("reopening store: {e}"))?;
    let resumed = render(&resolved.spec.run_with_store(&mut reopened));
    tracer.exit();
    let simulated_again = reopened.appended();
    drop(reopened);
    let store_bytes = std::fs::metadata(store_path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(store_path);

    let problem = if !matches {
        Some("zoo report differs from the ExperimentSpec::run reference".to_string())
    } else if resumed != bytes {
        Some("resumed zoo report differs from the fresh one".to_string())
    } else if simulated_again > 0 {
        Some(format!(
            "resume over a finished store simulated {simulated_again} jobs"
        ))
    } else {
        None
    };
    Ok((Iteration { wall_s, setup_s }, problem, store_bytes))
}

/// The `zoo_grid` workload.
pub fn run_zoo(args: &Args) -> Result<Measured, String> {
    let input = zoo_input(args.seed, args.reduced)?;
    let scratch = Scratch::new()?;
    let mut out = Measured::new(fnv1a(input.text.as_bytes()), Tracer::new(args.trace));
    let first = input.resolved.spec.enumerate_jobs()[0].config.clone();
    let footprint = if args.trace {
        Some(crate::bytes_per_node(&first, FOOTPRINT_NODES)?)
    } else {
        None
    };
    let reference = input.reference();
    let store = scratch.path("zoo.jsonl");
    let jobs = input.jobs();
    let mut quiet = Tracer::new(false);
    let timed = if args.trace {
        vec![zoo_once(&input, &reference, &store, &mut quiet)?]
    } else {
        repeat_for(args.seconds, || {
            zoo_once(&input, &reference, &store, &mut quiet)
        })?
    };
    for (_, problem, _) in &timed {
        let failed = if problem.is_some() { jobs } else { 0 };
        out.count(jobs, failed, problem.clone());
    }
    let walls: Vec<Iteration> = timed.iter().map(|t| t.0).collect();
    out.walls = walls.iter().map(|i| i.wall_s).collect();
    if !args.trace {
        put_end_to_end(&mut out.metrics, &walls, input.node_seconds);
        return Ok(out);
    }

    prof::set_enabled(true);
    let (traced, problem, store_bytes) = zoo_once(&input, &reference, &store, &mut out.tracer)?;
    out.count(jobs, if problem.is_some() { jobs } else { 0 }, problem);
    let m = &mut out.metrics;
    m.put("trace.overhead_ratio", traced.wall_s / walls[0].wall_s);
    m.put("persist.store_bytes", store_bytes as f64);
    m.put("persist.resume_s", out.tracer.total("persist.resume"));
    m.put("spec.resolve_s", out.tracer.total("spec.resolve"));
    let records = replay(&input, &reference, traced.wall_s, &mut out)?;

    out.tracer.enter("persist.append", None);
    let started = Instant::now();
    let path = scratch.path("append.jsonl");
    let mut fresh = ExperimentStore::open(&path).map_err(|e| format!("opening store: {e}"))?;
    for record in records {
        fresh
            .append(record)
            .map_err(|e| format!("appending a record: {e}"))?;
    }
    drop(fresh);
    out.metrics
        .put("persist.append_s", started.elapsed().as_secs_f64());
    out.tracer.exit();
    prof::set_enabled(false);
    finish_trace(&mut out, footprint);
    Ok(out)
}

/// The `tiny_jobs_served` workload.
pub fn run_served(args: &Args) -> Result<Measured, String> {
    let input = served_input(args.seed, args.reduced)?;
    let mut out = Measured::new(fnv1a(input.text.as_bytes()), Tracer::new(args.trace));
    let first = input.resolved.spec.enumerate_jobs()[0].config.clone();
    let footprint = if args.trace {
        Some(crate::bytes_per_node(&first, FOOTPRINT_NODES)?)
    } else {
        None
    };
    let reference = input.reference();
    let jobs = input.jobs();
    let mut quiet = Tracer::new(false);
    let timed = if args.trace {
        vec![served_once(
            &input,
            &reference,
            LinkStats::new(false),
            &mut quiet,
        )?]
    } else {
        repeat_for(args.seconds, || {
            served_once(&input, &reference, LinkStats::new(false), &mut quiet)
        })?
    };
    for (_, failed, problem) in &timed {
        out.count(jobs, *failed, problem.clone());
    }
    let walls: Vec<Iteration> = timed.iter().map(|t| t.0).collect();
    out.walls = walls.iter().map(|i| i.wall_s).collect();
    if !args.trace {
        put_end_to_end(&mut out.metrics, &walls, input.node_seconds);
        return Ok(out);
    }

    prof::set_enabled(true);
    faults::reset_events();
    // The daemon resolves the spec inside `submit`; resolving it here too
    // times the spec layer on its own.
    out.tracer.enter("spec.resolve", None);
    resolve(&input.text, input.seed, input.quick)?;
    out.tracer.exit();
    let stats = LinkStats::new(true);
    out.tracer.enter("serve.grid", None);
    let started = Instant::now();
    let grid = serve_grid(
        &input.text,
        input.quick,
        input.seed,
        SERVED_WORKERS,
        &wrapper(stats.clone()),
        &|report| report == reference,
        &mut out.tracer,
    )?;
    let traced_wall = started.elapsed().as_secs_f64();
    out.tracer.exit();
    let (failed, problem) = served_verdict(&grid, jobs);
    out.count(jobs, failed, problem);
    let retries: u64 = faults::event_counters()
        .into_iter()
        .filter(|(e, _)| {
            matches!(
                e,
                RunEvent::FrameRetried | RunEvent::JobRetried | RunEvent::TransientRetry
            )
        })
        .map(|(_, n)| n)
        .sum();
    let records = stats.records.load(std::sync::atomic::Ordering::Relaxed);
    let m = &mut out.metrics;
    m.put("trace.overhead_ratio", traced_wall / walls[0].wall_s);
    m.put("spec.resolve_s", out.tracer.total("spec.resolve"));
    m.put("serve.submit_s", out.tracer.total("serve.submit"));
    m.put(
        "serve.finalize_s",
        stats
            .last_shard_done()
            .map_or(f64::NAN, |t| grid.fetched.duration_since(t).as_secs_f64()),
    );
    let load =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
    m.put("serve.frames", load(&stats.frames));
    m.put("serve.frame_bytes", load(&stats.bytes));
    m.put("serve.records", records as f64);
    m.put("serve.dup_ratio", records as f64 / jobs as f64);
    m.put("serve.worker_wait_s", stats.wait_s());
    m.put("serve.no_work", load(&stats.no_work));
    m.put("serve.retries", retries as f64);
    replay(&input, &reference, traced_wall, &mut out)?;
    prof::set_enabled(false);
    finish_trace(&mut out, footprint);
    Ok(out)
}

/// Wrap each worker link in a [`CountingLink`] feeding `stats`.
pub fn wrapper(
    stats: std::sync::Arc<LinkStats>,
) -> impl Fn(caem_wsnsim::serve::LoopbackLink) -> Box<dyn FrameLink> {
    move |link| Box::new(CountingLink::new(link, stats.clone()))
}

/// Failed jobs and the gate problem of one served grid.
fn served_verdict(grid: &crate::link::ServedGrid, jobs: u64) -> (u64, Option<String>) {
    if !grid.worker_errors.is_empty() {
        (
            jobs,
            Some(format!("worker errors: {}", grid.worker_errors.join("; "))),
        )
    } else if !grid.report_ok {
        (
            jobs,
            Some("served report differs from the single-process report".to_string()),
        )
    } else if grid.quarantined > 0 {
        (
            grid.quarantined,
            Some(format!("{} jobs quarantined", grid.quarantined)),
        )
    } else {
        (0, None)
    }
}

/// One served grid, timed from spec text in to verified report out; set-up
/// ends when the first worker receives its first grant.
fn served_once(
    input: &GridInput,
    reference: &str,
    stats: std::sync::Arc<LinkStats>,
    tracer: &mut Tracer,
) -> Result<(Iteration, u64, Option<String>), String> {
    let grid = serve_grid(
        &input.text,
        input.quick,
        input.seed,
        SERVED_WORKERS,
        &wrapper(stats.clone()),
        &|report| report == reference,
        tracer,
    )?;
    let first_grant = stats.first_grant().ok_or("no worker was granted a shard")?;
    let iteration = Iteration {
        wall_s: grid.verified.duration_since(grid.started).as_secs_f64(),
        setup_s: first_grant.duration_since(grid.started).as_secs_f64(),
    };
    let (failed, problem) = served_verdict(&grid, input.jobs());
    Ok((iteration, failed, problem))
}

/// Replay every job of the grid serially through `SimulationRun` with the
/// profiler on, attributing each job's time; aggregate and render the
/// records the way every run mode does and check the bytes against the
/// reference.  Returns the records.
fn replay(
    input: &GridInput,
    reference: &str,
    traced_wall: f64,
    out: &mut Measured,
) -> Result<Vec<JobRecord>, String> {
    let spec = &input.resolved.spec;
    prof::global().reset();
    let mut totals = RunnerTotals::default();
    let mut records = Vec::with_capacity(spec.job_count());
    out.tracer.enter("experiment.replay", None);
    for job in spec.enumerate_jobs() {
        let policy = spec
            .policies
            .iter()
            .position(|&p| p == job.policy)
            .expect("every job's policy is on the grid");
        let key = (job.scenario, policy, job.seed);
        out.tracer.enter("experiment.job", Some(key));
        let run = run_job(job.config.clone(), Some(key), &mut out.tracer)?;
        out.tracer.exit();
        totals.add(&run);
        records.push(JobRecord::from_result(
            &spec.scenarios[job.scenario].label,
            policy,
            &job,
            &run.result,
        ));
    }
    out.tracer.exit();
    let profile = prof::global().snapshot();

    out.tracer.enter("experiment.aggregate", None);
    let mut report = ExperimentReport::from_records(records.clone());
    report.seeds = spec.seeds.clone();
    let aggregate_s = out.tracer.exit();
    out.tracer.enter("experiment.render", None);
    let bytes = render(&report);
    let render_s = out.tracer.exit();

    let jobs = input.jobs();
    let problem =
        (bytes != reference).then(|| "replayed report differs from the reference".to_string());
    out.count(jobs, if problem.is_some() { jobs } else { 0 }, problem);
    let m = &mut out.metrics;
    m.put("spec.jobs", jobs as f64);
    m.put("experiment.aggregate_s", aggregate_s);
    m.put("experiment.render_s", render_s);
    m.put("experiment.report_bytes", bytes.len() as f64);
    totals.put(m, traced_wall);
    put_profile(m, &profile, totals.run_s());
    Ok(records)
}

/// The metrics every traced run ends with.
fn finish_trace(out: &mut Measured, footprint: Option<f64>) {
    if let Some(bytes) = footprint {
        out.metrics.put("table.bytes_per_node", bytes);
    }
    out.metrics.put("trace.coverage", out.tracer.coverage());
}
