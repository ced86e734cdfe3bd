//! The shared vocabulary of distributed grid execution: the in-memory job
//! manifest a grid is split into, the guarded job runner, the canonical
//! record merge, and the worker spawners.
//!
//! Coordination itself lives in [`crate::serve`]: a daemon partitions a
//! [`GridManifest`] into shards, leases them to socket workers, absorbs
//! the record lines they stream back and finalizes the report through
//! [`merge_outcome`] and
//! [`ExperimentReport::from_records`](crate::experiment::ExperimentReport::from_records).
//! `experiment --workers N` is that daemon hosted in-process, with N worker
//! processes attached through a [`ProcessSpawner`].  Because records are
//! deterministic in (scenario, policy, seed) and the merge dedupes by job
//! key, a 1-worker run, an N-worker run, a run with worker kills and a
//! resumed coordinator all produce **bit-identical** reports.
//!
//! Thread discipline: the coordinator exports
//! `RAYON_TOTAL_THREADS = process_thread_cap() / workers` to every spawned
//! worker process ([`rayon::split_thread_budget`]), so the whole process
//! tree stays within the budget one process would use.
//!
//! A job that keeps panicking or blows its wall-clock budget is
//! quarantined as a [`JobFailure`] by `run_job_guarded` instead of
//! wedging its shard.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration as StdDuration;

use caem::policy::PolicyKind;

use crate::config::ScenarioConfig;
use crate::experiment::{ExperimentJob, ExperimentSpec, GridCell};
use crate::faults::{self, RunEvent};
use crate::persist::{JobFailure, JobKey, JobRecord};
use crate::runner::SimulationRun;
use crate::spec::ResolvedSpec;

/// Errors raised while coordinating a distributed grid.
#[derive(Debug)]
pub enum DistribError {
    /// Process failure (locating or spawning a worker binary).
    Io(std::io::Error),
    /// A worker could not be brought to the grid.
    Format(String),
    /// The grid finalized but its records and quarantines do not cover
    /// every job.
    Incomplete {
        /// Number of jobs with no valid record.
        missing: usize,
    },
}

impl std::fmt::Display for DistribError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistribError::Io(e) => write!(f, "distributed runner I/O error: {e}"),
            DistribError::Format(m) => write!(f, "distributed runner error: {m}"),
            DistribError::Incomplete { missing } => write!(
                f,
                "the grid finalized but {missing} jobs have no valid record"
            ),
        }
    }
}

impl std::error::Error for DistribError {}

impl From<std::io::Error> for DistribError {
    fn from(e: std::io::Error) -> Self {
        DistribError::Io(e)
    }
}

/// One fully resolved job of a grid: the deterministic coordinates plus
/// the exact [`ScenarioConfig`] to run.
#[derive(Debug, Clone)]
pub struct ManifestJob {
    /// Index of the scenario in the grid's scenario list.
    pub scenario_index: usize,
    /// The scenario's label.
    pub scenario: String,
    /// Index of the policy in the grid's policy list.
    pub policy_index: usize,
    /// The protocol variant to run.
    pub policy: PolicyKind,
    /// Master seed of the replicate.
    pub seed: u64,
    /// [`crate::persist::config_hash`] of `config` — the validity criterion
    /// absorbed records are checked against.
    pub config_hash: u64,
    /// The fully resolved configuration.
    pub config: ScenarioConfig,
}

impl ManifestJob {
    /// The job's deterministic coordinates.
    pub fn key(&self) -> JobKey {
        (self.scenario_index, self.policy_index, self.seed)
    }

    /// Whether a record or quarantine carrying `config_hash` and
    /// `scenario` belongs to this job (the caller matched the key).
    pub fn admits(&self, config_hash: u64, scenario: &str) -> bool {
        self.config_hash == config_hash && self.scenario == scenario
    }

    /// Simulate the job and encode the result as its [`JobRecord`] — the
    /// exact record a single-process [`ExperimentSpec::run`] would produce.
    pub fn run(&self) -> JobRecord {
        let job = ExperimentJob {
            scenario: self.scenario_index,
            policy: self.policy,
            seed: self.seed,
            config: self.config.clone(),
            config_hash: self.config_hash,
        };
        let result = SimulationRun::new(job.config.clone()).run();
        JobRecord::from_result(&self.scenario, self.policy_index, &job, &result)
    }

    /// The manifest form of one of `spec`'s jobs.
    fn new(spec: &ExperimentSpec, policy_index: usize, job: ExperimentJob) -> Self {
        ManifestJob {
            scenario_index: job.scenario,
            scenario: spec.scenarios[job.scenario].label.clone(),
            policy_index,
            policy: job.policy,
            seed: job.seed,
            config_hash: job.config_hash,
            config: job.config,
        }
    }

    /// Rebuild the jobs at `keys` of the grid `spec` describes, through the
    /// constructor [`ExperimentSpec::enumerate_jobs`] uses, preparing each
    /// (scenario, policy) cell once — how a socket worker turns a grant's
    /// keys back into runnable jobs.  `None` when a key's scenario or
    /// policy index is off the grid.
    pub fn at_keys(spec: &ExperimentSpec, keys: &[JobKey]) -> Option<Vec<ManifestJob>> {
        let mut cells: HashMap<(usize, usize), GridCell> = HashMap::new();
        keys.iter()
            .map(|&(scenario, policy_index, seed)| {
                let policy = *spec.policies.get(policy_index)?;
                if scenario >= spec.scenarios.len() {
                    return None;
                }
                let cell = cells
                    .entry((scenario, policy_index))
                    .or_insert_with(|| spec.cell(scenario, policy));
                Some(ManifestJob::new(spec, policy_index, cell.job(seed)))
            })
            .collect()
    }
}

/// One grid, fully resolved and partitioned into shards.  Shard `s` owns
/// the jobs whose enumeration index `j` satisfies `j % shard_count == s`
/// (round-robin, so every shard sees the same scenario mix and shard
/// runtimes stay even).
#[derive(Debug, Clone)]
pub struct GridManifest {
    /// [`ResolvedSpec::hash`] of the grid — its identity on the wire.
    /// Independent of the shard partition.
    pub grid_hash: u64,
    /// Number of claimable shards the job list is partitioned into.
    pub shard_count: usize,
    /// The seed replicates of the grid (in spec order).
    pub seeds: Vec<u64>,
    /// Every job of the grid, in canonical enumeration order.
    pub jobs: Vec<ManifestJob>,
}

impl GridManifest {
    /// Build the manifest a spec enumerates to, partitioned into
    /// `shard_count` shards.
    ///
    /// Jobs, config hashes and the grid identity are all derived from the
    /// **canonical resolved spec** — the same fully resolved
    /// [`ScenarioConfig`]s `--print-spec` dumps and the persistence layer
    /// hashes — so a grid defined by a committed spec file and the
    /// identical code-built grid produce interchangeable manifests.
    pub fn from_spec(spec: &ExperimentSpec, shard_count: usize) -> Self {
        assert!(shard_count >= 1, "need at least one shard");
        let jobs: Vec<ManifestJob> = spec
            .enumerate_jobs()
            .into_iter()
            .map(|job| {
                let policy_index = spec
                    .policies
                    .iter()
                    .position(|&p| p == job.policy)
                    .expect("enumerated jobs carry spec policies");
                ManifestJob::new(spec, policy_index, job)
            })
            .collect();
        GridManifest {
            grid_hash: ResolvedSpec::of(spec).hash(),
            shard_count,
            seeds: spec.seeds.clone(),
            jobs,
        }
    }

    /// The jobs belonging to one shard.
    pub fn shard_jobs(&self, shard: usize) -> Vec<&ManifestJob> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(j, _)| j % self.shard_count == shard)
            .map(|(_, job)| job)
            .collect()
    }
}

/// What one worker invocation accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Shards this worker completed.
    pub shards_completed: usize,
    /// Jobs simulated.
    pub jobs_run: usize,
    /// Jobs that exhausted their attempts and were recorded as failures.
    pub jobs_quarantined: usize,
}

/// Run one job under the quarantine guard: up to `attempts` tries, each
/// wrapped in `catch_unwind` (and, with a budget, raced against the clock);
/// a job that never settles cleanly becomes a [`JobFailure`] so the shard —
/// and the grid — still completes.
pub(crate) fn run_job_guarded(
    job: &ManifestJob,
    attempts: u32,
    wall_budget: Option<StdDuration>,
) -> Result<JobRecord, JobFailure> {
    let attempts = attempts.max(1);
    let mut last_reason = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            faults::note_event(RunEvent::JobRetried);
        }
        match run_job_once(job, wall_budget) {
            Ok(record) => return Ok(record),
            Err(reason) => last_reason = reason,
        }
    }
    faults::note_event(RunEvent::JobQuarantined);
    Err(JobFailure {
        scenario_index: job.scenario_index,
        scenario: job.scenario.clone(),
        policy_index: job.policy_index,
        policy: job.policy,
        seed: job.seed,
        config_hash: job.config_hash,
        attempts,
        reason: last_reason,
    })
}

/// One guarded attempt: the simulation inside `catch_unwind`, optionally on
/// a watchdog thread so a runaway job can be abandoned at its wall-clock
/// budget (the thread cannot be killed; it is detached and its eventual
/// result discarded — the quarantine record is what the grid keeps).
fn run_job_once(job: &ManifestJob, wall_budget: Option<StdDuration>) -> Result<JobRecord, String> {
    let key = job.key();
    let owned = job.clone();
    let attempt = move || -> JobRecord {
        faults::poison_check(key);
        owned.run()
    };
    match wall_budget {
        None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
            .map_err(|payload| format!("job panicked: {}", panic_text(payload.as_ref()))),
        Some(budget) => {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::Builder::new()
                .name(format!("caem-job-{}-{}-{}", key.0, key.1, key.2))
                .spawn(move || {
                    let settled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt));
                    let _ = tx.send(settled);
                })
                .map_err(|e| format!("could not spawn job thread: {e}"))?;
            match rx.recv_timeout(budget) {
                Ok(Ok(record)) => Ok(record),
                Ok(Err(payload)) => Err(format!("job panicked: {}", panic_text(payload.as_ref()))),
                Err(_) => Err(format!(
                    "job exceeded its wall-clock budget of {:.1} s",
                    budget.as_secs_f64()
                )),
            }
        }
    }
}

/// Best-effort text of a panic payload (panics carry `String` or `&str`).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A handle on one spawned worker (process or thread).
pub struct WorkerHandle(HandleInner);

enum HandleInner {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<Result<WorkerOutcome, DistribError>>),
}

impl WorkerHandle {
    /// Wrap an in-process worker thread.
    pub fn from_thread(
        handle: std::thread::JoinHandle<Result<WorkerOutcome, DistribError>>,
    ) -> Self {
        WorkerHandle(HandleInner::Thread(handle))
    }

    /// Wait for the worker to finish.  `Err` carries a description of an
    /// abnormal exit (non-zero status, kill signal, panic or worker error);
    /// the coordinator treats that as "its jobs will be re-granted", not as
    /// a fatal condition.
    pub fn join(self) -> Result<(), String> {
        match self.0 {
            HandleInner::Process(mut child) => match child.wait() {
                Ok(status) if status.success() => Ok(()),
                Ok(status) => Err(format!("worker process exited with {status}")),
                Err(e) => Err(format!("could not wait for worker process: {e}")),
            },
            HandleInner::Thread(handle) => match handle.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("worker thread failed: {e}")),
                Err(_) => Err("worker thread panicked".to_string()),
            },
        }
    }
}

/// The worker transport: how a coordinator brings workers to its daemon.
/// Implementations: [`ProcessSpawner`] (separate processes attached over
/// TCP) and [`crate::serve::LoopbackSpawner`] (in-process threads over
/// in-memory links, for deterministic tests).
pub trait WorkerSpawner {
    /// Launch worker `index` against the daemon at `endpoint`.
    /// `thread_budget` is the rayon thread share this worker should confine
    /// itself to (exported as `RAYON_TOTAL_THREADS` for process workers;
    /// in-process workers share the parent's budget, which already caps the
    /// total by construction).
    fn spawn(
        &self,
        endpoint: &str,
        index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError>;
}

/// Spawn real worker **processes**: re-invokes a binary (normally
/// `std::env::current_exe()`) as `--connect <endpoint>`, with
/// `RAYON_TOTAL_THREADS` set to the worker's thread share.
#[derive(Debug, Clone)]
pub struct ProcessSpawner {
    /// The worker binary to execute.
    pub program: PathBuf,
    /// Extra environment exported to every worker (how the `experiment`
    /// binary forwards the chaos plan and the profiler across `exec`).
    pub envs: Vec<(String, String)>,
}

impl ProcessSpawner {
    /// Spawn workers by re-invoking the current executable.
    pub fn current_exe() -> Result<Self, DistribError> {
        Ok(ProcessSpawner {
            program: std::env::current_exe()?,
            envs: Vec::new(),
        })
    }
}

impl WorkerSpawner for ProcessSpawner {
    fn spawn(
        &self,
        endpoint: &str,
        _index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        let child = std::process::Command::new(&self.program)
            .arg("--connect")
            .arg(endpoint)
            .env("RAYON_TOTAL_THREADS", thread_budget.to_string())
            .envs(self.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .spawn()?;
        Ok(WorkerHandle(HandleInner::Process(child)))
    }
}

/// Everything a grid settled: the valid success records plus the jobs that
/// ended in quarantine (no success record anywhere, a standing
/// [`JobFailure`]).  A success beats a failure — a job another worker
/// completed after one worker's quarantine is simply complete.
#[derive(Debug, Clone, Default)]
pub struct GridOutcome {
    /// Valid success records (pre-dedup; aggregation dedupes last-wins).
    pub records: Vec<JobRecord>,
    /// Standing quarantines, one per failed job key, in canonical key order.
    pub failures: Vec<JobFailure>,
}

/// Merge records and failures against `manifest` (matching key, config
/// hash and scenario label), drop quarantines that any success record
/// supersedes, and sort the survivors canonically.  Records from other
/// grids, stale configurations or renamed scenarios are counted and
/// skipped with a warning — they cannot silently contaminate a report.
///
/// The result is deliberately **order-insensitive** downstream: records are
/// deterministic per job, so however they arrive (and however many
/// duplicates worker kills and re-grants produced), the deduplicated
/// canonical aggregation is identical.
pub fn merge_outcome(
    manifest: &GridManifest,
    records: Vec<JobRecord>,
    failures: Vec<JobFailure>,
) -> GridOutcome {
    let filter: HashMap<JobKey, &ManifestJob> =
        manifest.jobs.iter().map(|j| (j.key(), j)).collect();
    let mut outcome = GridOutcome::default();
    let mut standing: HashMap<JobKey, JobFailure> = HashMap::new();
    let mut foreign = 0usize;
    for record in records {
        match filter.get(&record.key()) {
            Some(job) if job.admits(record.config_hash, &record.scenario) => {
                outcome.records.push(record);
            }
            _ => foreign += 1,
        }
    }
    for failure in failures {
        match filter.get(&failure.key()) {
            Some(job) if job.admits(failure.config_hash, &failure.scenario) => {
                standing.insert(failure.key(), failure);
            }
            _ => foreign += 1,
        }
    }
    // Success beats failure: a quarantine only stands while no worker ever
    // completed the job.
    let completed: std::collections::HashSet<JobKey> =
        outcome.records.iter().map(JobRecord::key).collect();
    outcome.failures = standing
        .into_values()
        .filter(|f| !completed.contains(&f.key()))
        .collect();
    outcome.failures.sort_by_key(JobFailure::key);
    if foreign > 0 {
        faults::note_events(RunEvent::ForeignRecordIgnored, foreign as u64);
        eprintln!("warning: ignored {foreign} records that do not belong to this grid");
    }
    outcome
}

#[cfg(test)]
mod tests {
    //! The shard-lease contract, pinned against the daemon that grants the
    //! shards a [`GridManifest`] partitions a grid into.

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::config::ScenarioConfig;
    use crate::experiment::ScenarioSpec;
    use crate::serve::{
        run_socket_worker, FrameLink, LoopbackLink, LoopbackSpawner, Message, ProtoError,
        ServiceConfig, ServiceState, SocketWorkerOptions, WorkerExit,
    };
    use caem_simcore::time::Duration;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::paper_policies(
            vec![ScenarioSpec::new(
                "uniform",
                ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0)
                    .with_duration(Duration::from_secs(5)),
            )],
            400,
            2,
        )
    }

    /// A daemon holding [`tiny_spec`] split into two shards.
    fn daemon(lease_ttl: StdDuration) -> LoopbackSpawner {
        let state = ServiceState::shared(ServiceConfig {
            shards_per_grid: 2,
            lease_ttl,
            ..ServiceConfig::default()
        });
        state.lock().unwrap().submit_grid("tiny", &tiny_spec());
        LoopbackSpawner::new(state)
    }

    fn rpc(link: &mut LoopbackLink, msg: &Message) -> Message {
        link.send(&msg.encode()).expect("send");
        loop {
            let frame = link
                .recv(Some(StdDuration::from_secs(10)))
                .expect("recv")
                .expect("response before timeout");
            let reply = Message::decode(&frame).expect("well-formed response");
            if reply.seq() == msg.seq() {
                return reply;
            }
        }
    }

    /// The granted (grid, shard, keys), or `None` on `no_work`.
    fn claim(link: &mut LoopbackLink, seq: u64) -> Option<(u64, u64, Vec<JobKey>)> {
        match rpc(link, &Message::Claim { seq }) {
            Message::Grant {
                grid, shard, jobs, ..
            } => Some((grid, shard, jobs)),
            Message::NoWork { .. } => None,
            other => panic!("expected a grant or no_work, got {other:?}"),
        }
    }

    fn release(link: &mut LoopbackLink, seq: u64, grid: u64, shard: u64) {
        let reply = rpc(link, &Message::Release { seq, grid, shard });
        assert!(matches!(reply, Message::ReleaseAck { .. }), "{reply:?}");
    }

    #[test]
    fn manifest_partitions_every_job_exactly_once() {
        let spec = tiny_spec();
        let manifest = GridManifest::from_spec(&spec, 4);
        assert_eq!(manifest.jobs.len(), spec.job_count());
        assert_eq!(manifest.seeds, spec.seeds);
        let mut seen = 0;
        for shard in 0..manifest.shard_count {
            seen += manifest.shard_jobs(shard).len();
        }
        assert_eq!(seen, manifest.jobs.len(), "shards cover the grid");
        // Identity follows the job list, not the partition...
        let other = GridManifest::from_spec(&spec, 3);
        assert_eq!(manifest.grid_hash, other.grid_hash);
        // ...but any change to the jobs themselves is a different grid.
        let mut edited = spec.clone();
        edited.seeds[0] += 1;
        assert_ne!(
            manifest.grid_hash,
            GridManifest::from_spec(&edited, 4).grid_hash
        );
    }

    #[test]
    fn claim_is_exclusive_and_done_wins() {
        let spawner = daemon(StdDuration::from_secs(3600));
        let (mut a, mut b, mut c) = (spawner.connect(), spawner.connect(), spawner.connect());
        let (grid, shard_a, keys) = claim(&mut a, 1).expect("first claim is granted");
        let (_, shard_b, _) = claim(&mut b, 1).expect("second shard is granted");
        assert_ne!(shard_a, shard_b, "a leased shard is exclusive");
        assert!(claim(&mut c, 1).is_none(), "both shards are leased");

        // A finishes its shard: the done shard is never granted again,
        // not even after A hangs up.
        let spec = tiny_spec();
        let lines: Vec<String> = ManifestJob::at_keys(&spec, &keys)
            .expect("granted keys lie on the grid")
            .iter()
            .map(|job| serde_json::to_string(&job.run()).expect("record serializes"))
            .collect();
        let sent = lines.len() as u64;
        a.send(
            &Message::Records {
                grid,
                shard: shard_a,
                lines,
            }
            .encode(),
        )
        .expect("records land");
        let done = Message::ShardDone {
            seq: 2,
            grid,
            shard: shard_a,
            sent,
        };
        assert!(matches!(rpc(&mut a, &done), Message::DoneAck { .. }));
        drop(a);
        assert!(claim(&mut c, 2).is_none(), "done wins over a free lease");
        release(&mut b, 2, grid, shard_b);
        let (_, regranted, _) = claim(&mut c, 3).expect("the released shard");
        assert_eq!(regranted, shard_b);
    }

    #[test]
    fn dead_owner_and_expired_leases_are_stolen() {
        let ttl = StdDuration::from_millis(500);
        let spawner = daemon(ttl);
        let (mut hung, mut doomed, mut stealer) =
            (spawner.connect(), spawner.connect(), spawner.connect());
        let (_, hung_shard, _) = claim(&mut hung, 1).expect("grant");
        let (_, dead_shard, _) = claim(&mut doomed, 1).expect("grant");
        // A dropped connection is a dead owner: its lease is stolen as soon
        // as the daemon sees the hang-up, well inside the TTL.
        drop(doomed);
        let mut seq = 1;
        let stolen = loop {
            seq += 1;
            if let Some((_, shard, _)) = claim(&mut stealer, seq) {
                break shard;
            }
        };
        assert_eq!(stolen, dead_shard);
        // A live but silent owner keeps its lease only until the TTL.
        std::thread::sleep(ttl + StdDuration::from_millis(100));
        let (_, expired, _) = claim(&mut stealer, seq + 1).expect("expired lease is stolen");
        assert_eq!(expired, hung_shard);
    }

    #[test]
    fn released_lease_is_reclaimed_instantly() {
        // A TTL no test could sit out: a re-claim that waited on expiry
        // would see no_work.
        let spawner = daemon(StdDuration::from_secs(3600));
        let (mut a, mut b) = (spawner.connect(), spawner.connect());
        let (grid, shard, _) = claim(&mut a, 1).expect("grant");
        release(&mut a, 2, grid, shard);
        let (_, again, _) = claim(&mut b, 1).expect("released shard is claimable");
        assert_eq!(again, shard);
        // Releasing a shard this connection does not hold is a no-op.
        release(&mut a, 3, grid, shard);
        let (_, other, _) = claim(&mut a, 4).expect("the second shard");
        assert_ne!(other, shard, "b still holds the re-claimed shard");
    }

    /// A link that raises the worker's stop flag the moment a grant
    /// arrives, so no granted job has started yet.
    struct StopOnGrant {
        inner: LoopbackLink,
        stop: Arc<AtomicBool>,
        granted: Arc<Mutex<Option<u64>>>,
    }

    impl FrameLink for StopOnGrant {
        fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
            self.inner.send(payload)
        }

        fn recv(&mut self, timeout: Option<StdDuration>) -> Result<Option<Vec<u8>>, ProtoError> {
            let frame = self.inner.recv(timeout)?;
            if let Some(Ok(Message::Grant { shard, .. })) = frame.as_deref().map(Message::decode) {
                *self.granted.lock().unwrap() = Some(shard);
                self.stop.store(true, Ordering::Relaxed);
            }
            Ok(frame)
        }
    }

    #[test]
    fn shutdown_skips_pending_jobs_and_releases_the_shard() {
        let spawner = daemon(StdDuration::from_secs(3600));
        let opts = SocketWorkerOptions::new("quitter");
        let granted = Arc::new(Mutex::new(None));
        let mut link = StopOnGrant {
            inner: spawner.connect(),
            stop: opts.stop.clone(),
            granted: granted.clone(),
        };
        match run_socket_worker(&mut link, &opts) {
            Ok(WorkerExit::Finished(outcome)) => {
                assert_eq!(outcome.jobs_run, 0, "no job started after the stop");
                assert_eq!(outcome.shards_completed, 0);
            }
            other => panic!("expected a clean exit, got {other:?}"),
        }
        let shard = granted
            .lock()
            .unwrap()
            .expect("the worker was granted a shard");
        // Two claims reach both shards at once: the released one did not
        // wait out the hour-long TTL.
        let mut successor = spawner.connect();
        let mut shards = vec![
            claim(&mut successor, 1).expect("grant").1,
            claim(&mut successor, 2).expect("grant").1,
        ];
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1]);
        assert!(shards.contains(&shard));
    }
}
