//! The sharded experiment engine: flat (scenario × policy × seed) job grids
//! fanned out in a **single** parallel layer.
//!
//! Every experiment — however many axes it has — is first enumerated into
//! one flat [`ExperimentJob`] work list and then run through exactly one
//! parallel fan-out, whose workers come out of rayon's process-wide thread
//! budget, so nested fan-outs cannot oversubscribe the machine.
//! [`ExperimentSpec::simulate`] returns each job's whole
//! [`SimulationResult`] (what the `paper` binary plots: loads as scenarios,
//! [`PAPER_POLICIES`] as policies, one seed); [`ExperimentSpec::run`]
//! folds the replicates into a report instead.
//!
//! [`ExperimentSpec`] and [`ExperimentJob`] are the one grid type and the
//! one job type of every run mode.  A job carries its (scenario, policy,
//! seed) key ([`ExperimentJob::key`]); [`ExperimentSpec::run_job`] is the
//! one place a job becomes a [`crate::persist::JobRecord`], whether the
//! grid runs here, resumes from a store or is served to socket workers —
//! which rebuild granted jobs from their keys with
//! [`ExperimentSpec::jobs_at`].  The grid's canonical JSON and identity
//! hash live with the spec documents ([`ExperimentSpec::to_json`],
//! [`ExperimentSpec::hash`]).
//!
//! On top of the flat grid the engine adds what a single-seed point estimate
//! cannot give: **replication**.  Each (scenario, policy) cell is simulated
//! once per seed, per-replicate metrics are folded into Welford
//! [`RunningStats`] accumulators (one fold per cell, never merged), and the
//! report carries mean ± 95 % CI per metric instead of one unqualified
//! number.
//!
//! Aggregation runs through exactly one path: every run — fresh, resumed
//! from a [`crate::persist::ExperimentStore`], served by the daemon, or
//! re-aggregated offline from JSONL alone — indexes its settled lines (one
//! per job key, the last one winning) and folds the records in the
//! canonical (scenario, policy, seed) order, listing any quarantines by key
//! (`ExperimentReport::from_settled`, behind
//! [`ExperimentReport::from_records`]).  Bit-identical reports across those
//! paths are therefore a property of the construction, not of careful
//! bookkeeping at each call site.
//!
//! [`ExperimentSpec::run_sequential`] adds CI-driven **sequential stopping**
//! on top of the store: replicate batches are appended per cell until the
//! 95 % CI half-width of a chosen metric drops under a target (or a
//! replicate cap is hit), and because every replicate is persisted, later
//! invocations reuse the store instead of re-simulating.  Sequential
//! stopping is a single-process mode: the experiment service
//! ([`crate::serve`]) refuses sequential specs.

use caem::policy::PolicyKind;
use caem_simcore::stats::RunningStats;
use std::collections::HashMap;
use std::sync::Mutex;

use rayon::prelude::*;
use serde_json::{json, Value};

use crate::config::{ConfigError, ScenarioConfig};
use crate::persist::{
    ExperimentStore, JobKey, JobRecord, SeedSplicedHash, SettledIndex, SettledLine,
};
use crate::result::SimulationResult;
use crate::runner::SimulationRun;

/// The three protocol variants the paper compares, in its plotting order.
pub const PAPER_POLICIES: [PolicyKind; 3] = [
    PolicyKind::PureLeach,
    PolicyKind::Scheme1Adaptive,
    PolicyKind::Scheme2Fixed,
];

/// A named scenario template.  Policy and seed are overridden per job, so
/// the template's own `policy`/`seed` fields are irrelevant.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Human/machine label carried into the report (e.g. "uniform_5pps").
    pub label: String,
    /// The configuration template.
    pub base: ScenarioConfig,
}

impl ScenarioSpec {
    /// Create a labelled scenario template.
    pub fn new(label: impl Into<String>, base: ScenarioConfig) -> Self {
        ScenarioSpec {
            label: label.into(),
            base,
        }
    }
}

/// One cell coordinate plus the fully resolved configuration to run.
#[derive(Debug, Clone)]
pub struct ExperimentJob {
    /// Index into [`ExperimentSpec::scenarios`].
    pub scenario: usize,
    /// Index into [`ExperimentSpec::policies`].
    pub policy_index: usize,
    /// Protocol variant of this job.
    pub policy: PolicyKind,
    /// Master seed of this replicate.
    pub seed: u64,
    /// The resolved scenario configuration.
    pub config: ScenarioConfig,
    /// [`config_hash`](crate::persist::config_hash) of `config`.
    pub config_hash: u64,
}

impl ExperimentJob {
    /// The job's deterministic coordinates: the (scenario index, policy
    /// index, seed) key its record or quarantine carries.
    pub fn key(&self) -> JobKey {
        (self.scenario, self.policy_index, self.seed)
    }
}

/// One (scenario, policy) cell of a grid: the configuration each of its
/// seeds specializes, with that configuration's seed-spliced hash.
///
/// This is the one constructor of jobs.  Grid enumeration and a socket
/// worker rebuilding a grant's jobs from their keys
/// ([`ExperimentSpec::jobs_at`]) both call [`GridCell::job`], so a job and
/// its hash are the same either way.
pub(crate) struct GridCell {
    scenario: usize,
    policy_index: usize,
    policy: PolicyKind,
    config: ScenarioConfig,
    hash: SeedSplicedHash,
}

impl GridCell {
    /// The cell's job at `seed`.
    pub(crate) fn job(&self, seed: u64) -> ExperimentJob {
        ExperimentJob {
            scenario: self.scenario,
            policy_index: self.policy_index,
            policy: self.policy,
            seed,
            config: self.config.clone().with_seed(seed),
            config_hash: self.hash.at(seed),
        }
    }
}

/// A replicated experiment grid: scenarios × policies × seeds.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Scenario templates (outermost axis).
    pub scenarios: Vec<ScenarioSpec>,
    /// Protocol variants to run on every scenario.
    pub policies: Vec<PolicyKind>,
    /// Seed replicates; every (scenario, policy) cell runs once per seed,
    /// and a seed is shared across policies (common random numbers).
    pub seeds: Vec<u64>,
}

impl ExperimentSpec {
    /// A grid over the given scenarios with the paper's three protocols and
    /// `replicates` consecutive seeds starting at `base_seed`.
    pub fn paper_policies(scenarios: Vec<ScenarioSpec>, base_seed: u64, replicates: usize) -> Self {
        ExperimentSpec {
            scenarios,
            policies: PAPER_POLICIES.to_vec(),
            seeds: (0..replicates as u64).map(|i| base_seed + i).collect(),
        }
    }

    /// Total number of jobs the grid enumerates to.
    pub fn job_count(&self) -> usize {
        self.scenarios.len() * self.policies.len() * self.seeds.len()
    }

    /// Flatten the grid into its complete work list: every
    /// (scenario, policy, seed) combination exactly once, in deterministic
    /// row-major order (scenario outermost, seed innermost).
    pub fn enumerate_jobs(&self) -> Vec<ExperimentJob> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for scenario in 0..self.scenarios.len() {
            for policy_index in 0..self.policies.len() {
                let cell = self.cell(scenario, policy_index);
                jobs.extend(self.seeds.iter().map(|&seed| cell.job(seed)));
            }
        }
        jobs
    }

    /// Rebuild the jobs at `keys` through the constructor
    /// [`ExperimentSpec::enumerate_jobs`] uses, preparing each
    /// (scenario, policy) cell once — how a socket worker turns a grant's
    /// keys back into runnable jobs.  `None` when a key's scenario or
    /// policy index is off the grid.
    pub fn jobs_at(&self, keys: &[JobKey]) -> Option<Vec<ExperimentJob>> {
        let mut cells: HashMap<(usize, usize), GridCell> = HashMap::new();
        keys.iter()
            .map(|&(scenario, policy_index, seed)| {
                if scenario >= self.scenarios.len() || policy_index >= self.policies.len() {
                    return None;
                }
                let cell = cells
                    .entry((scenario, policy_index))
                    .or_insert_with(|| self.cell(scenario, policy_index));
                Some(cell.job(seed))
            })
            .collect()
    }

    /// The (scenario, policy) cell every seed of that pair specializes.
    fn cell(&self, scenario: usize, policy_index: usize) -> GridCell {
        let policy = self.policies[policy_index];
        let config = self.scenarios[scenario].base.clone().with_policy(policy);
        GridCell {
            scenario,
            policy_index,
            policy,
            hash: SeedSplicedHash::new(&config),
            config,
        }
    }

    /// Simulate every job in one flat parallel fan-out and return the whole
    /// results in [`ExperimentSpec::enumerate_jobs`] order — scenario
    /// outermost, seed innermost — for callers that read more of a run than
    /// the report's metrics.  With one seed, the result of
    /// (scenario `s`, policy index `p`) sits at `s * policies.len() + p`.
    pub fn simulate(&self) -> Vec<SimulationResult> {
        self.enumerate_jobs()
            .par_iter()
            .map(|job| SimulationRun::new(job.config.clone()).run())
            .collect()
    }

    /// Simulate one of this grid's jobs and encode the result as its
    /// [`JobRecord`] — the one place every run mode turns a job into a
    /// record.
    pub fn run_job(&self, job: &ExperimentJob) -> JobRecord {
        let result = SimulationRun::new(job.config.clone()).run();
        JobRecord::from_result(
            &self.scenarios[job.scenario].label,
            job.policy_index,
            job,
            &result,
        )
    }

    /// Job identity (scenario, policy, seed) is only well defined when the
    /// axes hold no duplicates; the persisted-store paths key on it.
    pub(crate) fn assert_distinct_axes(&self) {
        for (i, &p) in self.policies.iter().enumerate() {
            assert!(
                !self.policies[..i].contains(&p),
                "duplicate policy {p:?} in experiment spec"
            );
        }
        for (i, &s) in self.seeds.iter().enumerate() {
            assert!(
                !self.seeds[..i].contains(&s),
                "duplicate seed {s} in experiment spec"
            );
        }
    }

    /// Run the whole grid (one flat parallel layer) and aggregate every
    /// cell's replicates into mean ± 95 % CI summaries.
    pub fn run(&self) -> ExperimentReport {
        self.assert_distinct_axes();
        // The grid's single parallel layer: one flat fan-out over the job
        // list (the same shape as `simulate`).
        let records: Vec<JobRecord> = self
            .enumerate_jobs()
            .par_iter()
            .map(|job| self.run_job(job))
            .collect();
        ExperimentReport::from_records(records)
    }

    /// Run the grid **resumably**: jobs whose results are already in the
    /// store (same coordinates, same config hash) are skipped, only the
    /// remainder runs through the single parallel layer, and each fresh
    /// result is streamed to the store as one JSONL record the moment it
    /// completes — an interrupted grid loses at most the jobs in flight.
    ///
    /// The report is aggregated from the records in canonical order, so it
    /// is bit-identical to what an uninterrupted [`ExperimentSpec::run`]
    /// of the same grid produces, no matter how many resume cycles the
    /// store went through.
    pub fn run_with_store(&self, store: &mut ExperimentStore) -> ExperimentReport {
        self.assert_distinct_axes();
        let jobs = self.enumerate_jobs();
        let mut settled = SettledIndex::default();
        let mut pending = Vec::new();
        for job in &jobs {
            let label = &self.scenarios[job.scenario].label;
            match store.get(job.key(), job.config_hash, label) {
                Some(record) => settled.insert(SettledLine::Record(record.clone())),
                None => pending.push(job),
            }
        }
        // The single parallel layer over the *missing* jobs only: each
        // worker appends its record through the store the moment its job
        // completes.  Grids complete ~100 records/s, so jobs contend on
        // this one lock for a negligible share of their time.
        let store = Mutex::new(store);
        let fresh: Vec<JobRecord> = pending
            .par_iter()
            .map(|job| {
                let record = self.run_job(job);
                store
                    .lock()
                    .expect("experiment store lock poisoned")
                    .append(record.clone())
                    .expect("experiment store append failed");
                record
            })
            .collect();
        for record in fresh {
            settled.insert(SettledLine::Record(record));
        }
        ExperimentReport::from_settled(&settled)
    }

    /// Run the grid with CI-driven **sequential stopping**: starting from
    /// this spec's seed list, keep appending batches of `stop.batch` fresh
    /// replicates (consecutive seeds, shared across every cell to preserve
    /// the common-random-numbers pairing) until the worst-cell 95 % CI
    /// half-width of `stop.metric` drops to `stop.target_half_width` or the
    /// per-cell replicate count reaches `stop.max_replicates`.
    ///
    /// Every replicate is persisted through `store`, so an interrupted or
    /// re-invoked sequential run resumes from the replicates already on
    /// disk instead of re-simulating them.
    pub fn run_sequential(
        &self,
        store: &mut ExperimentStore,
        stop: &SequentialStopping,
    ) -> SequentialOutcome {
        stop.validate()
            .unwrap_or_else(|e| panic!("invalid sequential-stopping configuration: {e}"));
        assert!(
            !self.seeds.is_empty(),
            "sequential stopping needs a non-empty initial seed batch"
        );
        stop.check_seeds(&self.seeds)
            .unwrap_or_else(|e| panic!("sequential stopping cannot grow this grid: {e}"));
        let mut spec = self.clone();
        let mut rounds = Vec::new();
        loop {
            let report = spec.run_with_store(store);
            let worst_half_width = worst_ci_half_width(&report, &stop.metric);
            rounds.push(SequentialRound {
                replicates: spec.seeds.len(),
                worst_half_width,
            });
            let converged = worst_half_width <= stop.target_half_width;
            if converged || spec.seeds.len() >= stop.max_replicates {
                return SequentialOutcome {
                    report,
                    rounds,
                    converged,
                };
            }
            let next = spec.seeds.iter().copied().max().expect("non-empty seeds") + 1;
            let add = stop.batch.min(stop.max_replicates - spec.seeds.len()) as u64;
            spec.seeds.extend((0..add).map(|i| next + i));
        }
    }
}

/// The largest per-cell 95 % CI half-width of `metric` across a report —
/// the quantity sequential stopping drives to its target.  A cell with
/// fewer than two usable replicates carries no dispersion information and
/// reads as infinite, so convergence is never declared on it.
fn worst_ci_half_width(report: &ExperimentReport, metric: &str) -> f64 {
    report
        .cells
        .iter()
        .map(|cell| {
            let stats = cell.metric(metric).expect("validated metric name");
            if stats.count() < 2 {
                f64::INFINITY
            } else {
                stats.ci95_half_width()
            }
        })
        .fold(0.0, f64::max)
}

/// Configuration of a CI-driven sequential-stopping loop.
#[derive(Debug, Clone)]
pub struct SequentialStopping {
    /// The metric (a [`METRIC_NAMES`] entry) whose CI drives the loop.
    pub metric: String,
    /// Stop once every cell's 95 % CI half-width is at or below this.
    pub target_half_width: f64,
    /// Fresh replicates appended per round.
    pub batch: usize,
    /// Hard cap on replicates per cell (the loop always terminates).
    pub max_replicates: usize,
}

impl SequentialStopping {
    /// Check the stopping rule, returning a typed [`ConfigError`] (with
    /// `sequential.*` field paths) instead of panicking, so CLI- and
    /// spec-driven rules surface mistakes verbatim.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !METRIC_NAMES.contains(&self.metric.as_str()) {
            return Err(ConfigError::UnknownVariant {
                path: "sequential.metric".to_string(),
                value: self.metric.clone(),
                expected: &METRIC_NAMES,
            });
        }
        if self.batch < 1 {
            return Err(ConfigError::NonPositive {
                path: "sequential.batch".to_string(),
                value: 0.0,
            });
        }
        if self.target_half_width < 0.0 {
            return Err(ConfigError::Negative {
                path: "sequential.target_half_width".to_string(),
                value: self.target_half_width,
            });
        }
        if self.max_replicates < 1 {
            return Err(ConfigError::NonPositive {
                path: "sequential.max_replicates".to_string(),
                value: 0.0,
            });
        }
        Ok(())
    }

    /// Check the rule against a grid's initial seed list: the cap must
    /// hold the initial batch, and every seed the loop can append
    /// (consecutive after the largest, up to the cap) must fit in a `u64`.
    pub fn check_seeds(&self, seeds: &[u64]) -> Result<(), ConfigError> {
        let out_of_range = |expected| ConfigError::OutOfRange {
            path: "sequential.max_replicates".to_string(),
            value: self.max_replicates as f64,
            expected,
        };
        let Some(added) = self.max_replicates.checked_sub(seeds.len()) else {
            return Err(out_of_range("[initial replicate count, ∞)"));
        };
        let largest = seeds.iter().copied().max().unwrap_or(0);
        match largest.checked_add(added as u64) {
            Some(_) => Ok(()),
            None => Err(out_of_range(
                "[initial replicate count, initial count + 2^64 - 1 - largest seed]",
            )),
        }
    }
}

/// One round of a sequential-stopping loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialRound {
    /// Replicates per cell after this round.
    pub replicates: usize,
    /// The worst (largest) per-cell CI half-width of the chosen metric;
    /// infinite while any cell has fewer than two usable replicates.
    pub worst_half_width: f64,
}

/// What a sequential-stopping run produced.
#[derive(Debug, Clone)]
pub struct SequentialOutcome {
    /// The final aggregated report.
    pub report: ExperimentReport,
    /// Per-round trace of replicate counts and worst half-widths.
    pub rounds: Vec<SequentialRound>,
    /// True when the target was met; false when the replicate cap stopped
    /// the loop first.
    pub converged: bool,
}

/// The metrics summarised per cell, in report order.
pub const METRIC_NAMES: [&str; 8] = [
    "delivery_rate",
    "average_delay_ms",
    "throughput_kbps",
    "mj_per_delivered_packet",
    "total_remaining_energy_j",
    "nodes_alive",
    "collisions",
    "node_failures",
];

/// Extract one replicate's value per metric, in [`METRIC_NAMES`] order.
/// `mj_per_delivered_packet` is NaN when the replicate delivered nothing;
/// [`ExperimentCell::absorb`] drops non-finite values so one starved
/// replicate cannot poison a cell's mean/CI.
pub(crate) fn replicate_metrics(r: &SimulationResult) -> [f64; METRIC_NAMES.len()] {
    [
        r.delivery_rate(),
        r.perf.average_delay_ms(),
        r.perf.throughput_kbps(),
        r.per_packet_energy()
            .millijoules_per_packet()
            .unwrap_or(f64::NAN),
        r.total_remaining_energy(),
        r.nodes_alive() as f64,
        r.collisions as f64,
        r.node_failures as f64,
    ]
}

/// The aggregated replicates of one (scenario, policy) cell.
///
/// `PartialEq` compares the Welford accumulators field-exactly, so
/// `assert_eq!` on two cells (or whole reports) is the "bit-identical"
/// check the persistence layer's resume/replay guarantees are stated in.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCell {
    /// Index into the spec's scenario list.
    pub scenario_index: usize,
    /// The scenario's label.
    pub scenario: String,
    /// Protocol variant of the cell.
    pub policy: PolicyKind,
    /// One Welford accumulator per entry of [`METRIC_NAMES`]; each
    /// replicate's value is folded in as one observation, so a metric's
    /// `count()` is the number of replicates that produced a finite value.
    pub metrics: Vec<RunningStats>,
}

impl ExperimentCell {
    fn first(
        scenario_index: usize,
        scenario: &str,
        policy: PolicyKind,
        replicate: &[f64; METRIC_NAMES.len()],
    ) -> Self {
        let mut cell = ExperimentCell {
            scenario_index,
            scenario: scenario.to_string(),
            policy,
            metrics: vec![RunningStats::new(); METRIC_NAMES.len()],
        };
        cell.absorb(replicate);
        cell
    }

    /// Fold one replicate's metric vector into the accumulators.  Non-finite
    /// values (a ratio whose denominator was zero in that replicate) are
    /// skipped: Welford's recurrence has no recovery from a NaN push, and an
    /// undefined replicate should lower the metric's replicate count rather
    /// than erase the whole cell.
    fn absorb(&mut self, replicate: &[f64; METRIC_NAMES.len()]) {
        for (stats, &value) in self.metrics.iter_mut().zip(replicate) {
            if value.is_finite() {
                stats.push(value);
            }
        }
    }

    /// The accumulator for a named metric.
    pub fn metric(&self, name: &str) -> Option<&RunningStats> {
        METRIC_NAMES
            .iter()
            .position(|&m| m == name)
            .map(|i| &self.metrics[i])
    }
}

/// Everything an experiment grid run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// The seed replicates every cell was run with, in ascending order
    /// whatever order a spec lists them in.
    pub seeds: Vec<u64>,
    /// Number of simulations executed.
    pub job_count: usize,
    /// One aggregated cell per (scenario, policy) pair, in enumeration order.
    pub cells: Vec<ExperimentCell>,
    /// The degradation section: jobs quarantined after exhausting their
    /// retry budget (empty on a healthy run).  Cells containing quarantined
    /// jobs aggregate fewer replicates; the grid still completes.
    pub failures: Vec<crate::persist::JobFailure>,
}

impl ExperimentReport {
    /// Aggregate persisted job records into a report through the
    /// **single** aggregation path every run mode shares: one record per
    /// job key (the last one wins, as in a store), folded in the canonical
    /// (scenario index, policy index, seed) order, so the result depends
    /// neither on completion interleaving nor on how many resume cycles
    /// wrote the store.
    pub fn from_records<I: IntoIterator<Item = JobRecord>>(records: I) -> Self {
        Self::from_settled(&records.into_iter().map(SettledLine::Record).collect())
    }

    /// The report of one settled line per job key: the records folded in
    /// the canonical (scenario index, policy index, seed) order, and the
    /// quarantines as the degradation section, sorted by key.  `seeds` is
    /// the sorted set of distinct seeds the lines settled, quarantines
    /// included.  Every run mode's report — local, resumed, served, or
    /// rebuilt offline from a store — is built here.
    pub(crate) fn from_settled(settled: &SettledIndex) -> Self {
        // `ProfKey::Collector` times record aggregation; it runs outside any
        // simulation shard, so it lands in the global accumulator.
        let span = caem_metrics::prof::Span::start();
        let mut lines: Vec<&SettledLine> = settled.lines().iter().collect();
        lines.sort_by_key(|line| line.key());
        let mut cells: Vec<ExperimentCell> = Vec::new();
        let mut seeds = Vec::new();
        let mut failures = Vec::new();
        let mut job_count = 0;
        for line in lines {
            let record = match line {
                SettledLine::Record(record) => record,
                SettledLine::Failure(failure) => {
                    seeds.push(failure.seed);
                    failures.push(failure.clone());
                    continue;
                }
            };
            seeds.push(record.seed);
            job_count += 1;
            let replicate = record.metric_array();
            match cells
                .iter_mut()
                .find(|c| c.scenario_index == record.scenario_index && c.policy == record.policy)
            {
                Some(cell) => cell.absorb(&replicate),
                None => cells.push(ExperimentCell::first(
                    record.scenario_index,
                    &record.scenario,
                    record.policy,
                    &replicate,
                )),
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        let report = ExperimentReport {
            seeds,
            job_count,
            cells,
            failures,
        };
        span.stop_global(
            caem_metrics::prof::ProfKey::Collector,
            report.job_count as u64,
        );
        report
    }
    /// The cell for a given scenario label and policy.
    pub fn cell(&self, scenario: &str, policy: PolicyKind) -> Option<&ExperimentCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.policy == policy)
    }

    /// Serialize the full replicated grid — mean, 95 % CI half-width, min,
    /// max and replicate count per metric — as a JSON value.
    pub fn to_json(&self) -> Value {
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|cell| {
                let metrics: Vec<Value> = METRIC_NAMES
                    .iter()
                    .zip(&cell.metrics)
                    .map(|(name, s)| {
                        json!({
                            "name": name,
                            "mean": s.mean(),
                            "ci95_half_width": s.ci95_half_width(),
                            "min": s.min(),
                            "max": s.max(),
                            "replicates": s.count(),
                        })
                    })
                    .collect();
                json!({
                    "scenario": cell.scenario,
                    "policy": format!("{:?}", cell.policy),
                    "metrics": metrics,
                })
            })
            .collect();
        if self.failures.is_empty() {
            // No "quarantined" key at all on a healthy run: the artifact of
            // a fault-injected-but-recovered grid stays byte-identical to
            // the clean run's, which is what the chaos CI byte-diffs.
            json!({
                "seeds": self.seeds,
                "job_count": self.job_count,
                "cells": cells,
            })
        } else {
            let quarantined: Vec<Value> = self
                .failures
                .iter()
                .map(|f| {
                    json!({
                        "scenario": f.scenario,
                        "policy": format!("{:?}", f.policy),
                        "seed": f.seed,
                        "attempts": f.attempts,
                        "reason": f.reason,
                    })
                })
                .collect();
            json!({
                "seeds": self.seeds,
                "job_count": self.job_count,
                "cells": cells,
                "quarantined": quarantined,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use caem_simcore::time::Duration;

    fn tiny_spec(replicates: usize) -> ExperimentSpec {
        let base = ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0)
            .with_duration(Duration::from_secs(10));
        ExperimentSpec::paper_policies(
            vec![
                ScenarioSpec::new("uniform", base.clone()),
                ScenarioSpec::new(
                    "corridor",
                    base.clone().with_topology(Topology::Corridor {
                        width_fraction: 0.3,
                    }),
                ),
                ScenarioSpec::new(
                    "hotspots",
                    base.with_topology(Topology::GaussianClusters {
                        clusters: 3,
                        sigma_m: 10.0,
                    }),
                ),
            ],
            1_000,
            replicates,
        )
    }

    #[test]
    fn enumeration_covers_every_combination_exactly_once() {
        let spec = tiny_spec(5);
        let jobs = spec.enumerate_jobs();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 3 * 3 * 5);
        let mut triples: Vec<(usize, PolicyKind, u64)> = jobs
            .iter()
            .map(|j| (j.scenario, j.policy, j.seed))
            .collect();
        let before = triples.len();
        triples.sort_by_key(|&(s, p, seed)| (s, p as usize, seed));
        triples.dedup();
        assert_eq!(triples.len(), before, "duplicate (scenario, policy, seed)");
        // Jobs carry their coordinates into the resolved config.
        for j in &jobs {
            assert_eq!(j.config.policy, j.policy);
            assert_eq!(j.config.seed, j.seed);
            assert_eq!(j.config_hash, crate::persist::config_hash(&j.config));
        }
    }

    /// A paper-policies grid over `loads` (one scenario per load, shared seed).
    fn load_grid(loads: &[f64], seed: u64, secs: u64) -> ExperimentSpec {
        ExperimentSpec::paper_policies(
            loads
                .iter()
                .map(|&load| {
                    ScenarioSpec::new(
                        format!("load_{load}pps"),
                        ScenarioConfig::small(PolicyKind::PureLeach, load, seed)
                            .with_duration(Duration::from_secs(secs)),
                    )
                })
                .collect(),
            seed,
            1,
        )
    }

    #[test]
    fn simulate_covers_all_paper_policies_in_job_order() {
        let spec = load_grid(&[5.0], 42, 20);
        let jobs = spec.enumerate_jobs();
        let results = spec.simulate();
        assert_eq!(results.len(), PAPER_POLICIES.len());
        for ((job, result), &p) in jobs.iter().zip(&results).zip(&PAPER_POLICIES) {
            assert_eq!(job.policy, p);
            assert_eq!(result.policy, p);
            // Shared seed ⇒ identical offered load across protocols.
            assert!(result.perf.generated() > 0);
        }
    }

    #[test]
    fn simulate_load_grid_yields_one_policy_row_per_load() {
        let spec = load_grid(&[5.0, 10.0], 7, 15);
        let results = spec.simulate();
        assert_eq!(results.len(), 2 * PAPER_POLICIES.len());
        // Higher load generates more packets for every protocol.
        let (low, high) = results.split_at(PAPER_POLICIES.len());
        for ((l, h), &p) in low.iter().zip(high).zip(&PAPER_POLICIES) {
            assert_eq!((l.policy, h.policy), (p, p));
            assert!(h.perf.generated() > l.perf.generated(), "{p:?}");
        }
    }

    #[test]
    fn non_finite_replicates_do_not_poison_a_cell() {
        let mut cell = ExperimentCell::first(
            0,
            "starved",
            PolicyKind::PureLeach,
            &[1.0; METRIC_NAMES.len()],
        );
        let mut bad = [2.0; METRIC_NAMES.len()];
        bad[3] = f64::NAN; // mj_per_delivered_packet with zero deliveries
        cell.absorb(&bad);
        assert_eq!(cell.metrics[0].count(), 2);
        // The NaN was skipped: the metric keeps its finite replicate...
        assert_eq!(cell.metrics[3].count(), 1);
        assert_eq!(cell.metrics[3].mean(), 1.0);
        // ...instead of collapsing the whole accumulator to NaN.
        assert!(cell.metrics[3].ci95_half_width().is_finite());
    }

    #[test]
    fn grid_runs_and_aggregates_replicates() {
        let spec = tiny_spec(3);
        let report = spec.run();
        assert_eq!(report.job_count, 27);
        assert_eq!(report.cells.len(), 9);
        for cell in &report.cells {
            let delivery = cell.metric("delivery_rate").unwrap();
            assert_eq!(delivery.count(), 3);
            assert!(delivery.mean() > 0.0 && delivery.mean() <= 1.0);
        }
        let json = report.to_json();
        assert_eq!(json.get("job_count").and_then(|v| v.as_u64()), Some(27));
    }
}
