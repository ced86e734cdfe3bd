//! # perfbench
//!
//! The repository benchmark: one grid the way users run it, the same kind
//! of grid served by the experiment daemon, and one 100k-node run.  Every
//! run makes its inputs from `--seed`, calls the suite's public API
//! in-process, checks the outputs and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo_grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! **Workloads** (each a closed loop: one client, `nproc` compute threads):
//!
//! * `zoo_grid` — `specs/zoo.json` resolved quick (90 jobs, 30 nodes,
//!   120 s) through [`ExperimentSpec::run_with_store`] on a fresh store, the
//!   `experiment` CLI's default path.  The simulator's inner loop does
//!   nearly all the work.
//! * `tiny_jobs_served` — ~8k short jobs (12 nodes, 5 s) submitted to an
//!   in-process daemon with two loopback workers.  Per-job coordination
//!   (claim/grant, record frames, leases, merge, render) is a large share
//!   of wall time here and no work at all in the other two workloads.
//! * `scale_100k` — one 100 000-node run over 10 simulated seconds, stepped
//!   once per simulated second: ~10⁵ pending events and ~130 MB of node
//!   state, so the event queue, per-node memory and round-boundary work
//!   dominate and no grid machinery runs.
//!
//! **End-to-end metrics** (`--trace 0`, profiler off, medians over the
//! iterations of one run): `wall_s` (spec text in → verified report bytes
//! out; `try_new` → `finish` on scale_100k), `setup_s` (everything before
//! the first simulated event), `node_sim_s_per_s` and `peak_rss_mb`.  The
//! failed/attempted job counts of the result line are the error rate.
//!
//! **Per-layer metrics** (`--trace 1`) come from a separate traced run:
//! one untraced iteration for reference, then one with the profiler and
//! the benchmark's spans on, then (grids) a serial replay of every job
//! through [`SimulationRun`] so each job's time can be attributed.  They
//! are instrumented numbers, never headlines.  A layer a workload does not
//! exercise reads 0 (`serve.*` outside the daemon, `persist.*` off the
//! store path, `spec.resolve_s` on scale_100k).
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! | layer metrics | moves | on |
//! |---|---|---|
//! | `spec.*` | `setup_s` | all |
//! | `experiment.*` | `wall_s` | zoo_grid (efficiency, stragglers), tiny_jobs_served (aggregation) |
//! | `persist.*` | `wall_s` (expected < 1 %) | zoo_grid |
//! | `runner.*`, `table.bytes_per_node` | `wall_s`, `node_sim_s_per_s`; `setup_s`, `peak_rss_mb` | zoo_grid, scale_100k; scale_100k |
//! | `sim.*` | nothing: exact counts a speed-only change leaves identical | all |
//! | `prof.*` (instrumented) | `wall_s` | mac/channel/phy/sense_channel: zoo_grid; cluster_formation/round_start/deploy/stats_snapshot: scale_100k |
//! | `serve.*` | `wall_s` | tiny_jobs_served |
//! | `trace.*` | nothing: the traced run's overhead and span coverage | all |
//!
//! [`ExperimentSpec::run_with_store`]: caem_wsnsim::ExperimentSpec::run_with_store
//! [`SimulationRun`]: caem_wsnsim::SimulationRun

pub mod grid;
pub mod link;
pub mod scale;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use caem_metrics::prof::{Profile, PROF_KEYS};
use caem_simcore::time::SimTime;
use caem_wsnsim::{ScenarioConfig, SimulationResult, SimulationRun};

use trace::{JobKey, Tracer};

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick zoo grid through a fresh experiment store.
    ZooGrid,
    /// ~8k short jobs through the in-process daemon.
    TinyJobsServed,
    /// One 100 000-node run, stepped per simulated second.
    Scale100k,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::ZooGrid,
    Workload::TinyJobsServed,
    Workload::Scale100k,
];

impl Workload {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooGrid => "zoo_grid",
            Workload::TinyJobsServed => "tiny_jobs_served",
            Workload::Scale100k => "scale_100k",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_sim_s_per_s", "node_s/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics other than the per-key profiler ones.
const LAYER: [(&str, &str); 38] = [
    ("spec.resolve_s", "s"),
    ("spec.jobs", "count"),
    ("experiment.sim_sum_s", "s"),
    ("experiment.efficiency", "ratio"),
    ("experiment.idle_s", "s"),
    ("experiment.job_s_p50", "s"),
    ("experiment.job_s_max", "s"),
    ("experiment.aggregate_s", "s"),
    ("experiment.render_s", "s"),
    ("experiment.report_bytes", "bytes"),
    ("persist.append_s", "s"),
    ("persist.store_bytes", "bytes"),
    ("persist.resume_s", "s"),
    ("runner.setup_s", "s"),
    ("runner.run_s", "s"),
    ("runner.finish_s", "s"),
    ("runner.events", "count"),
    ("runner.events_per_s", "1/s"),
    ("runner.pending_start", "count"),
    ("runner.pending_peak", "count"),
    ("runner.step_s_p50", "s"),
    ("runner.step_s_max", "s"),
    ("table.bytes_per_node", "bytes"),
    ("sim.generated", "count"),
    ("sim.delivered", "count"),
    ("sim.bursts", "count"),
    ("sim.collisions", "count"),
    ("serve.submit_s", "s"),
    ("serve.finalize_s", "s"),
    ("serve.frames", "count"),
    ("serve.frame_bytes", "bytes"),
    ("serve.records", "count"),
    ("serve.dup_ratio", "ratio"),
    ("serve.worker_wait_s", "s"),
    ("serve.no_work", "count"),
    ("serve.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Every per-layer metric and its unit: [`LAYER`] plus `prof.<key>_s`,
/// `prof.<key>_n` for each profiler key and `prof.unattributed_s`.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for key in PROF_KEYS {
        all.push((format!("prof.{}_s", key.label()), "s"));
        all.push((format!("prof.{}_n", key.label()), "count"));
    }
    all.push(("prof.unattributed_s".to_string(), "s"));
    all
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window (untraced runs).
    pub seconds: f64,
    /// Run the traced, per-layer variant.
    pub trace: bool,
    /// Shrink every input (self-test).
    pub reduced: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`
    /// (plus `--reduced`).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut reduced) =
            (None, None, None, false, false);
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            if flag == "--reduced" {
                reduced = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("bad seconds `{value}`"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            reduced,
        })
    }
}

/// Named values measured by one run, before units are attached.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record `value` under `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Jobs attempted in the measured iterations.
    pub attempted: u64,
    /// Jobs that failed (quarantined, transport error, or wrong output).
    pub failed: u64,
    /// Wall time of each measured iteration, in seconds.
    pub walls: Vec<f64>,
    /// Digest of the generated inputs (differs between seeds).
    pub input_digest: u64,
    /// The metrics, with units, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Where the spans were written (traced runs).
    pub trace_file: Option<PathBuf>,
    /// Why a gate failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A line of context printed before the result line.
    pub fn summary_line(&self) -> String {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"profiled\": {}, \"threads\": {}, \"wall_s_samples\": {:?}, \"input_digest\": \"{:016x}\", \"error_rate\": {{\"value\": {error_rate}, \"unit\": \"ratio\"}}, \"trace_file\": {}}}",
            self.workload.name(),
            self.seed,
            self.traced,
            threads(),
            self.walls,
            self.input_digest,
            self.trace_file
                .as_ref()
                .map_or("null".to_string(), |p| format!("\"{}\"", p.display())),
        )
    }
}

/// Compute threads available to a grid.
pub fn threads() -> usize {
    rayon::process_thread_cap()
}

/// Run one workload as `args` asks.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        // Headline numbers are never taken with the profiler on.
        assert!(
            !caem_metrics::prof::enabled(),
            "untraced runs need the profiler off"
        );
    }
    let measured = match args.workload {
        Workload::ZooGrid => grid::run_zoo(args),
        Workload::TinyJobsServed => grid::run_served(args),
        Workload::Scale100k => scale::run(args),
    };
    let profiled = caem_metrics::prof::enabled();
    caem_metrics::prof::set_enabled(false);
    let mut measured = measured?;
    if profiled && !args.trace {
        return Err("the profiler was on during an untraced run".to_string());
    }
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        per_layer_catalogue()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, value) in &measured.metrics.0 {
        if !catalogue.iter().any(|(n, _)| n == name) {
            return Err(format!("metric `{name}` is not in the catalogue"));
        }
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
    }
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = match measured.metrics.get(&name) {
            Some(v) => v,
            // A layer the workload never enters did no work.
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        metrics.push(Metric { name, value, unit });
    }
    let trace_file = if args.trace {
        let path = PathBuf::from(format!(
            "{}/trace-{}-seed{}.json",
            OUT_DIR,
            args.workload.name(),
            args.seed
        ));
        measured
            .tracer
            .write_json(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    if measured.failed > 0 && measured.problems.is_empty() {
        measured
            .problems
            .push(format!("{} jobs failed", measured.failed));
    }
    Ok(Outcome {
        workload: args.workload,
        seed: args.seed,
        traced: args.trace,
        correct: measured.problems.is_empty(),
        attempted: measured.attempted,
        failed: measured.failed,
        walls: measured.walls,
        input_digest: measured.input_digest,
        metrics,
        trace_file,
        problems: measured.problems,
    })
}

/// Where the benchmark writes traces and temporary stores, relative to the
/// directory it runs from (the checkout root).
pub const OUT_DIR: &str = ".bench_build/perfbench";

/// A per-process temporary directory under [`OUT_DIR`], removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create the directory.
    pub fn new() -> Result<Self, String> {
        let dir = PathBuf::from(format!("{OUT_DIR}/tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a workload measured, before the catalogue is applied.
pub struct Measured {
    /// The metric values.
    pub metrics: Metrics,
    /// Jobs attempted in the measured iterations.
    pub attempted: u64,
    /// Jobs failed in the measured iterations.
    pub failed: u64,
    /// Wall time of each measured iteration, in seconds.
    pub walls: Vec<f64>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Gate failures.
    pub problems: Vec<String>,
    /// The spans (empty when untraced).
    pub tracer: Tracer,
}

impl Measured {
    fn new(input_digest: u64, tracer: Tracer) -> Self {
        Measured {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            walls: Vec::new(),
            input_digest,
            problems: Vec::new(),
            tracer,
        }
    }

    /// Fold one end-to-end iteration's job counts and gate verdict in.
    fn count(&mut self, jobs: u64, failed: u64, problem: Option<String>) {
        self.attempted += jobs;
        self.failed += failed;
        self.problems.extend(problem);
    }
}

/// One timed end-to-end iteration.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    /// Wall time of the iteration.
    pub wall_s: f64,
    /// Its set-up part.
    pub setup_s: f64,
}

/// Repeat `once` until `seconds` have passed (at least once).
pub fn repeat_for<T>(
    seconds: f64,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(once()?);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// The end-to-end metrics over a run's iterations.
pub fn put_end_to_end(m: &mut Metrics, iterations: &[Iteration], node_seconds: f64) {
    let walls: Vec<f64> = iterations.iter().map(|i| i.wall_s).collect();
    let setups: Vec<f64> = iterations.iter().map(|i| i.setup_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| node_seconds / w).collect();
    m.put("wall_s", trace::median(&walls));
    m.put("setup_s", trace::median(&setups));
    m.put("node_sim_s_per_s", trace::median(&rates));
    m.put(
        "peak_rss_mb",
        caem_bench::rss::peak_rss_mb().unwrap_or(f64::NAN),
    );
}

/// 64-bit FNV-1a, the digest of generated inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Spread a benchmark seed into a simulator base seed (kept well below
/// `u64::MAX` so consecutive replicate seeds cannot wrap).
pub fn derive_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 16
}

/// One simulation run, timed by phase and stepped once per simulated
/// second.
pub struct JobRun {
    /// The run's output.
    pub result: SimulationResult,
    /// `SimulationRun::try_new` (deploy).
    pub setup_s: f64,
    /// All `run_until` steps.
    pub run_s: f64,
    /// `finish`.
    pub finish_s: f64,
    /// Each step's time.
    pub steps: Vec<f64>,
    /// Pending events right after deploy.
    pub pending_start: usize,
}

impl JobRun {
    /// Set-up, run and finish together.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.run_s + self.finish_s
    }

    /// The exact simulated statistics: generated, delivered, bursts,
    /// collisions, events.
    pub fn counts(&self) -> [u64; 5] {
        let r = &self.result;
        [
            r.perf.generated(),
            r.perf.delivered(),
            r.bursts,
            r.collisions,
            r.events_processed,
        ]
    }
}

/// Run `cfg` to its horizon through `SimulationRun`, one `run_until` per
/// simulated second, with spans around each phase.
pub fn run_job(
    cfg: ScenarioConfig,
    job: Option<JobKey>,
    tracer: &mut Tracer,
) -> Result<JobRun, String> {
    let seconds = cfg.duration.as_secs_f64().ceil().max(1.0) as u64;
    tracer.enter("runner.setup", job);
    let t = Instant::now();
    let built = SimulationRun::try_new(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    tracer.exit();
    let mut run = built.map_err(|e| format!("invalid scenario: {e}"))?;
    let pending_start = run.pending_events();
    tracer.enter("runner.run", job);
    let mut steps = Vec::with_capacity(seconds as usize);
    for s in 1..=seconds {
        tracer.enter("runner.step", job);
        let t = Instant::now();
        run.run_until(SimTime::from_secs(s));
        steps.push(t.elapsed().as_secs_f64());
        tracer.exit();
    }
    tracer.exit();
    tracer.enter("runner.finish", job);
    let t = Instant::now();
    let result = run.finish();
    let finish_s = t.elapsed().as_secs_f64();
    tracer.exit();
    Ok(JobRun {
        result,
        setup_s,
        run_s: steps.iter().sum(),
        finish_s,
        steps,
        pending_start,
    })
}

/// Sums and extremes over the runs of a traced replay.
#[derive(Debug, Default)]
pub struct RunnerTotals {
    setup_s: f64,
    run_s: f64,
    finish_s: f64,
    pending_start: usize,
    pending_peak: usize,
    steps: Vec<f64>,
    job_s: Vec<f64>,
    counts: [u64; 5],
}

impl RunnerTotals {
    /// Fold one run in.
    pub fn add(&mut self, run: &JobRun) {
        self.setup_s += run.setup_s;
        self.run_s += run.run_s;
        self.finish_s += run.finish_s;
        self.pending_start = self.pending_start.max(run.pending_start);
        self.pending_peak = self.pending_peak.max(run.result.queue_high_watermark);
        self.steps.extend_from_slice(&run.steps);
        self.job_s.push(run.total_s());
        for (sum, c) in self.counts.iter_mut().zip(run.counts()) {
            *sum += c;
        }
    }

    /// Summed `run_until` time.
    pub fn run_s(&self) -> f64 {
        self.run_s
    }

    /// Record the `runner.*`, `sim.*` and `experiment.*` job metrics;
    /// `wall_s` is the traced end-to-end wall the jobs ran in.
    pub fn put(&self, m: &mut Metrics, wall_s: f64) {
        let [generated, delivered, bursts, collisions, events] = self.counts;
        m.put("runner.setup_s", self.setup_s);
        m.put("runner.run_s", self.run_s);
        m.put("runner.finish_s", self.finish_s);
        m.put("runner.events", events as f64);
        m.put("runner.events_per_s", events as f64 / self.run_s);
        m.put("runner.pending_start", self.pending_start as f64);
        m.put("runner.pending_peak", self.pending_peak as f64);
        m.put("runner.step_s_p50", trace::median(&self.steps));
        m.put("runner.step_s_max", trace::max(&self.steps));
        m.put("sim.generated", generated as f64);
        m.put("sim.delivered", delivered as f64);
        m.put("sim.bursts", bursts as f64);
        m.put("sim.collisions", collisions as f64);
        let busy: f64 = self.job_s.iter().sum();
        let capacity = threads() as f64 * wall_s;
        m.put("experiment.sim_sum_s", busy);
        m.put("experiment.efficiency", busy / capacity);
        m.put("experiment.idle_s", capacity - busy);
        m.put("experiment.job_s_p50", trace::median(&self.job_s));
        m.put("experiment.job_s_max", trace::max(&self.job_s));
    }
}

/// Record `prof.<key>_s`/`_n` from `profile`, and `prof.unattributed_s`:
/// the timed `run_until` steps minus the time the event-kind keys claim.
pub fn put_profile(m: &mut Metrics, profile: &Profile, run_s: f64) {
    for key in PROF_KEYS {
        m.put(
            format!("prof.{}_s", key.label()),
            profile.nanos(key) as f64 / 1e9,
        );
        m.put(format!("prof.{}_n", key.label()), profile.count(key) as f64);
    }
    m.put(
        "prof.unattributed_s",
        run_s - profile.total_event_nanos() as f64 / 1e9,
    );
}

/// Resident bytes per node of deployed runs of `cfg`: the growth of the
/// resident set while enough copies are held to cover `min_nodes` nodes.
/// Taken first in a traced run, before freed memory can be reused.
pub fn bytes_per_node(cfg: &ScenarioConfig, min_nodes: usize) -> Result<f64, String> {
    let copies = min_nodes.div_ceil(cfg.node_count).max(1);
    let before = caem_bench::rss::current_rss_mb().ok_or("no resident-set probe")?;
    let runs = (0..copies)
        .map(|_| SimulationRun::try_new(cfg.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("invalid scenario: {e}"))?;
    let after = caem_bench::rss::current_rss_mb().ok_or("no resident-set probe")?;
    drop(runs);
    Ok((after - before) * 1024.0 * 1024.0 / (copies * cfg.node_count) as f64)
}
