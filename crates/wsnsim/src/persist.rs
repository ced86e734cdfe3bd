//! Result persistence for experiment grids: a per-grid JSONL store that
//! turns the flat job list into a durable, resumable asset.
//!
//! Every completed (scenario × policy × seed) job is streamed to disk as one
//! [`JobRecord`] line, keyed by its deterministic coordinates — scenario
//! index/label, policy index, seed — plus an FNV-1a hash of the fully
//! resolved [`ScenarioConfig`].  The hash is the staleness guard: a record
//! only counts as "already computed" if the configuration that produced it is
//! byte-identical to the one the current grid would run, so editing a
//! scenario transparently invalidates exactly the affected cells.
//!
//! The format is append-only JSONL on purpose:
//!
//! * a crash can only tear the **trailing** line, which the loader skips with
//!   a warning (the job simply re-runs on resume);
//! * duplicate keys are resolved **last-record-wins**, so re-running a stale
//!   job just appends the fresh record without rewriting history;
//! * aggregation never depends on file order — reports are always built in
//!   the canonical (scenario, policy, seed) order, so a resumed grid whose
//!   jobs completed in a different interleaving still reproduces the
//!   uninterrupted report bit-for-bit.
//!
//! Metric values are persisted as `Option<f64>` (`None` for the non-finite
//! values an undefined ratio produces) and travel through the vendored
//! `serde_json`'s shortest-round-trip float formatting, so a decoded record
//! feeds the Welford accumulators the exact bits the in-memory run would.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use caem::policy::PolicyKind;
use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::experiment::{replicate_metrics, ExperimentJob, METRIC_NAMES};
use crate::faults::{self, retry_transient, FaultPlan, RunEvent};
use crate::result::SimulationResult;

/// Store format version written into the header line.
const STORE_VERSION: u64 = 1;

/// Deterministic job coordinates: (scenario index, policy index, seed).
pub type JobKey = (usize, usize, u64);

/// FNV-1a 64-bit hash of a byte string.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a state over more bytes.
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Deterministic hash of a fully resolved scenario configuration (the JSON
/// serialization hashed with FNV-1a).  Two configs hash equal iff every
/// field — node count, topology, churn, policy, seed, … — matches, which is
/// exactly the "this persisted result is still valid" criterion.
///
/// The hash is derived from the **canonical resolved spec**: the same
/// fully resolved configs a declarative [`crate::spec::GridSpec`] resolves
/// to and `experiment --print-spec` dumps.  A spec-file grid and the
/// identical code-built grid therefore share store records (and the
/// daemon's record-settling check) interchangeably.
pub fn config_hash(config: &ScenarioConfig) -> u64 {
    let text = serde_json::to_string(config).expect("scenario configs always serialize");
    fnv1a64(text.as_bytes())
}

/// [`config_hash`] of one configuration at any seed, without serializing it
/// per seed.
///
/// A config's JSON text depends on its seed only through the seed's decimal
/// digits.  The FNV-1a state over the text before the digits is computed
/// once; each seed continues it over its own digits and the fixed text after
/// them.  The split comes from diffing the text at seed 0 against seed 1.
#[derive(Debug, Clone)]
pub(crate) struct SeedSplicedHash {
    /// FNV-1a state after the text preceding the seed's digits.
    prefix: u64,
    /// The text following the seed's digits.
    suffix: Vec<u8>,
}

impl SeedSplicedHash {
    /// Prepare the hashes of `config` at every seed (its own seed is
    /// ignored).
    pub(crate) fn new(config: &ScenarioConfig) -> Self {
        let text_at = |seed| {
            serde_json::to_string(&config.clone().with_seed(seed))
                .expect("scenario configs always serialize")
        };
        let (zero, one) = (text_at(0), text_at(1));
        let (zero, one) = (zero.as_bytes(), one.as_bytes());
        let split = zero
            .iter()
            .zip(one)
            .position(|(a, b)| a != b)
            .expect("the seed is part of the serialized config");
        assert!(
            zero.len() == one.len()
                && (zero[split], one[split]) == (b'0', b'1')
                && zero[split + 1..] == one[split + 1..],
            "a config's JSON text must depend on its seed only through the seed's digits"
        );
        SeedSplicedHash {
            prefix: fnv1a64(&zero[..split]),
            suffix: zero[split + 1..].to_vec(),
        }
    }

    /// `config_hash(&config.with_seed(seed))`.
    pub(crate) fn at(&self, seed: u64) -> u64 {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = seed;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        fnv1a64_extend(fnv1a64_extend(self.prefix, &digits[start..]), &self.suffix)
    }
}

/// One persisted job result: the JSONL encoding of a [`SimulationResult`]
/// at its grid coordinates.
///
/// `metrics` holds one entry per [`METRIC_NAMES`] slot, `None` where the
/// replicate produced a non-finite value (e.g. energy-per-packet with zero
/// deliveries).  The delay quantiles are `None` when the distribution is
/// empty or the quantile falls in the delay histogram's overflow region —
/// persisting the `None` keeps "unknown, ≥ range" distinguishable from a
/// real value after a round-trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Index of the scenario in the grid's scenario list.
    pub scenario_index: usize,
    /// The scenario's label (carried so offline re-aggregation needs no spec).
    pub scenario: String,
    /// Index of the policy in the grid's policy list.
    pub policy_index: usize,
    /// The protocol variant that was run.
    pub policy: PolicyKind,
    /// Master seed of the replicate.
    pub seed: u64,
    /// [`config_hash`] of the resolved configuration that produced this
    /// record — the staleness guard consulted on resume.
    pub config_hash: u64,
    /// One value per [`METRIC_NAMES`] entry; `None` encodes a non-finite
    /// replicate value.
    pub metrics: Vec<Option<f64>>,
    /// Packets generated in this replicate.
    pub generated: u64,
    /// Packets delivered in this replicate.
    pub delivered: u64,
    /// Discrete events the run processed.
    pub events_processed: u64,
    /// Virtual end time of the run in nanoseconds.
    pub end_time_nanos: u64,
    /// Median end-to-end delay (ms), if defined and in the histogram range.
    pub delay_p50_ms: Option<f64>,
    /// 95th-percentile delay (ms), `None` when it falls in the overflow bin.
    pub delay_p95_ms: Option<f64>,
    /// 99th-percentile delay (ms), `None` when it falls in the overflow bin.
    pub delay_p99_ms: Option<f64>,
}

impl JobRecord {
    /// Encode one completed job's result at the given grid coordinates.
    pub fn from_result(
        scenario: &str,
        policy_index: usize,
        job: &ExperimentJob,
        result: &SimulationResult,
    ) -> Self {
        let metrics = replicate_metrics(result)
            .iter()
            .map(|&v| v.is_finite().then_some(v))
            .collect();
        JobRecord {
            scenario_index: job.scenario,
            scenario: scenario.to_string(),
            policy_index,
            policy: job.policy,
            seed: job.seed,
            config_hash: job.config_hash,
            metrics,
            generated: result.perf.generated(),
            delivered: result.perf.delivered(),
            events_processed: result.events_processed,
            end_time_nanos: result.end_time.as_nanos(),
            delay_p50_ms: result.perf.delay_quantile_ms(0.5),
            delay_p95_ms: result.perf.delay_quantile_ms(0.95),
            delay_p99_ms: result.perf.delay_quantile_ms(0.99),
        }
    }

    /// The record's deterministic coordinates.
    pub fn key(&self) -> JobKey {
        (self.scenario_index, self.policy_index, self.seed)
    }

    /// The replicate's metric vector in [`METRIC_NAMES`] order, with `None`
    /// (and any missing trailing slot) decoded back to NaN — the exact shape
    /// [`crate::experiment::ExperimentCell`] absorbs, which skips non-finite
    /// entries.
    pub fn metric_array(&self) -> [f64; METRIC_NAMES.len()] {
        let mut out = [f64::NAN; METRIC_NAMES.len()];
        for (slot, value) in out.iter_mut().zip(&self.metrics) {
            *slot = value.unwrap_or(f64::NAN);
        }
        out
    }
}

/// A quarantined job: one that kept panicking or blowing its wall-clock
/// budget until its retry budget ran out.  Failures persist to the store as
/// their own JSONL line type so a resumed grid neither re-runs a poison job
/// forever nor silently forgets that a cell is missing replicates — the
/// report carries them in its degradation section instead.
///
/// A failure never shadows a success: if any worker (or a later resume)
/// completes the job, the success record wins at aggregation time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Index of the scenario in the grid's scenario list.
    pub scenario_index: usize,
    /// The scenario's label.
    pub scenario: String,
    /// Index of the policy in the grid's policy list.
    pub policy_index: usize,
    /// The protocol variant that failed.
    pub policy: PolicyKind,
    /// Master seed of the failed replicate.
    pub seed: u64,
    /// [`config_hash`] of the configuration under which the job failed —
    /// the same staleness guard success records carry, so editing the
    /// scenario clears its quarantine.
    pub config_hash: u64,
    /// How many times the job was attempted before quarantine.
    pub attempts: u32,
    /// Why the final attempt failed (panic payload or budget overrun).
    pub reason: String,
}

impl JobFailure {
    /// The failure's deterministic coordinates.
    pub fn key(&self) -> JobKey {
        (self.scenario_index, self.policy_index, self.seed)
    }
}

/// The wire form of a [`JobFailure`]: the `caem_job_failure` marker field
/// lets the loader route the line before attempting a [`JobRecord`] decode
/// (the vendored derive has no `#[serde(tag)]`, so the marker is explicit).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FailureLine {
    caem_job_failure: u64,
    scenario_index: usize,
    scenario: String,
    policy_index: usize,
    policy: PolicyKind,
    seed: u64,
    config_hash: u64,
    attempts: u32,
    reason: String,
}

impl From<&JobFailure> for FailureLine {
    fn from(f: &JobFailure) -> Self {
        FailureLine {
            caem_job_failure: 1,
            scenario_index: f.scenario_index,
            scenario: f.scenario.clone(),
            policy_index: f.policy_index,
            policy: f.policy,
            seed: f.seed,
            config_hash: f.config_hash,
            attempts: f.attempts,
            reason: f.reason.clone(),
        }
    }
}

impl From<FailureLine> for JobFailure {
    fn from(l: FailureLine) -> Self {
        JobFailure {
            scenario_index: l.scenario_index,
            scenario: l.scenario,
            policy_index: l.policy_index,
            policy: l.policy,
            seed: l.seed,
            config_hash: l.config_hash,
            attempts: l.attempts,
            reason: l.reason,
        }
    }
}

/// Durability and fault-injection knobs for a writable store.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// fsync after every appended line (`--fsync`).  Off by default: the
    /// append-only format already confines an OS crash to a torn trailing
    /// line, so per-append fsync only buys protection against *power* loss
    /// at a large throughput cost.
    pub fsync: bool,
    /// The fault plan the store's appends run under; `None`, the default,
    /// never injects.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Header line identifying a store file: format version plus the metric
/// vocabulary the records were written under.  A store whose metric list no
/// longer matches [`METRIC_NAMES`] refuses to load instead of silently
/// mis-aggregating columns.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreHeader {
    caem_experiment_store: u64,
    metric_names: Vec<String>,
}

/// Errors raised while opening, reading or appending to a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a compatible experiment store.
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "experiment store I/O error: {e}"),
            StoreError::Format(m) => write!(f, "experiment store format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A per-grid JSONL result store: completed job records indexed by their
/// deterministic coordinates, plus (when opened writable) an append handle
/// that streams new records to disk as they finish.
///
/// [`ExperimentStore::append`] is the only record sink: a local grid's
/// parallel workers share the store behind one lock, and the service daemon
/// journals settled lines through the same call.
pub struct ExperimentStore {
    path: PathBuf,
    /// Deduplicated records, last-record-wins per key.
    records: Vec<JobRecord>,
    index: HashMap<JobKey, usize>,
    /// Quarantined jobs, last-failure-wins per key.
    failures: Vec<JobFailure>,
    failure_index: HashMap<JobKey, usize>,
    skipped_lines: usize,
    /// The file ends in a torn (newline-less) fragment; the first append
    /// must emit a newline first or it would fuse with the fragment and
    /// corrupt itself.
    torn_tail: bool,
    /// Records appended through this handle (loads don't count).
    appended: usize,
    writer: Option<File>,
    /// The plan appends run under, if any ([`StoreOptions::faults`]).
    faults: Option<Arc<FaultPlan>>,
    fsync: bool,
}

impl ExperimentStore {
    /// Open (or create) a writable store at `path`, loading every valid
    /// record already on disk.  Corrupt or torn lines — the signature of a
    /// crash mid-append — are skipped with a warning on stderr and counted
    /// in [`ExperimentStore::skipped_lines`]; the affected jobs simply
    /// re-run on resume.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, StoreOptions::default())
    }

    /// [`ExperimentStore::open`] with explicit durability options.
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> Result<Self, StoreError> {
        let mut store = Self::read(path.as_ref())?;
        store.fsync = options.fsync;
        store.faults = options.faults;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&store.path)?;
        if file.metadata()?.len() == 0 {
            let header = StoreHeader {
                caem_experiment_store: STORE_VERSION,
                metric_names: METRIC_NAMES.iter().map(|&m| m.to_string()).collect(),
            };
            let line = encode_line(&header)?;
            append_line_with_recovery(store.faults.as_deref(), &mut file, &line, store.fsync)?;
        } else if store.torn_tail {
            // A crash tore the final line; terminate it so the next record
            // starts on a line of its own instead of fusing with the
            // fragment (which would corrupt the *new* record too).
            file.write_all(b"\n")?;
            store.torn_tail = false;
        }
        store.writer = Some(file);
        Ok(store)
    }

    /// Load a store read-only (offline re-aggregation).  Errors if the file
    /// does not exist; appending to a store loaded this way panics.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if !path.exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no experiment store at {}", path.display()),
            )));
        }
        Self::read(path)
    }

    fn read(path: &Path) -> Result<Self, StoreError> {
        let mut store = ExperimentStore {
            path: path.to_path_buf(),
            records: Vec::new(),
            index: HashMap::new(),
            failures: Vec::new(),
            failure_index: HashMap::new(),
            skipped_lines: 0,
            torn_tail: false,
            appended: 0,
            writer: None,
            faults: None,
            fsync: false,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e.into()),
        };
        store.torn_tail = !text.is_empty() && !text.ends_with('\n');
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = match serde_json::parse(line) {
                Ok(value) => value,
                Err(e) => {
                    store.skip_line(lineno, &format!("unparseable line ({e})"));
                    continue;
                }
            };
            if value.get("caem_job_failure").is_some() {
                match serde_json::from_value::<FailureLine>(value) {
                    Ok(line) => store.insert_failure(line.into()),
                    Err(e) => store.skip_line(lineno, &format!("undecodable failure record ({e})")),
                }
                continue;
            }
            if value.get("caem_experiment_store").is_some() {
                let header: StoreHeader = serde_json::from_value(value)
                    .map_err(|e| StoreError::Format(format!("bad store header: {e}")))?;
                if header.caem_experiment_store != STORE_VERSION {
                    return Err(StoreError::Format(format!(
                        "store version {} (this build reads version {STORE_VERSION})",
                        header.caem_experiment_store
                    )));
                }
                if header.metric_names != METRIC_NAMES {
                    return Err(StoreError::Format(
                        "store was written under a different metric vocabulary".into(),
                    ));
                }
                continue;
            }
            match serde_json::from_value::<JobRecord>(value) {
                Ok(record) if record.metrics.len() == METRIC_NAMES.len() => {
                    store.insert(record);
                }
                Ok(record) => {
                    store.skip_line(
                        lineno,
                        &format!(
                            "record with {} metric slots (expected {})",
                            record.metrics.len(),
                            METRIC_NAMES.len()
                        ),
                    );
                }
                Err(e) => {
                    store.skip_line(lineno, &format!("undecodable record ({e})"));
                }
            }
        }
        Ok(store)
    }

    fn skip_line(&mut self, lineno: usize, why: &str) {
        self.skipped_lines += 1;
        faults::note_event(RunEvent::TornLineSkipped);
        eprintln!(
            "warning: {}:{}: skipping {} — the job will re-run",
            self.path.display(),
            lineno + 1,
            why
        );
    }

    /// Index a record in memory, last-record-wins per key (the incremental
    /// counterpart of [`dedupe_last_wins`], sharing its index shape).
    fn insert(&mut self, record: JobRecord) {
        insert_last_wins(&mut self.records, &mut self.index, record);
    }

    /// Index a failure in memory, last-failure-wins per key.
    fn insert_failure(&mut self, failure: JobFailure) {
        match self.failure_index.entry(failure.key()) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.failures[*slot.get()] = failure;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.failures.len());
                self.failures.push(failure);
            }
        }
    }

    /// The completed record at `key`, but only if it was produced by a
    /// configuration hashing to `expected_hash` **and** carries the
    /// scenario label the spec uses now — stale records (the spec changed
    /// under the store) are ignored so the job re-runs.  The label check
    /// matters because labels live in [`crate::experiment::ScenarioSpec`],
    /// outside the hashed [`ScenarioConfig`]: without it a renamed scenario
    /// would reuse records carrying the old name and produce a report whose
    /// cells contradict the spec.
    pub fn get(&self, key: JobKey, expected_hash: u64, expected_label: &str) -> Option<&JobRecord> {
        self.index
            .get(&key)
            .map(|&i| &self.records[i])
            .filter(|r| r.config_hash == expected_hash && r.scenario == expected_label)
    }

    /// Append one record: a single JSONL line written in one `write_all`
    /// call (a crash can tear the trailing line but never interleave two),
    /// then indexed in memory.  Transient IO failures are retried with
    /// backoff; a retry first newline-terminates whatever fragment the
    /// failed attempt may have torn into the file, so the rewrite can never
    /// fuse with it (the fragment loads back as one skipped line).
    pub fn append(&mut self, record: JobRecord) -> Result<(), StoreError> {
        let line = encode_line(&record)?;
        let file = self
            .writer
            .as_mut()
            .expect("append on a store opened read-only");
        append_line_with_recovery(self.faults.as_deref(), file, &line, self.fsync)?;
        self.appended += 1;
        self.insert(record);
        Ok(())
    }

    /// Append one quarantine record ([`JobFailure`]), with the same retry
    /// and torn-write recovery as [`ExperimentStore::append`].
    pub fn append_failure(&mut self, failure: JobFailure) -> Result<(), StoreError> {
        let line = encode_line(&FailureLine::from(&failure))?;
        let file = self
            .writer
            .as_mut()
            .expect("append on a store opened read-only");
        append_line_with_recovery(self.faults.as_deref(), file, &line, self.fsync)?;
        self.insert_failure(failure);
        Ok(())
    }

    /// Number of distinct completed jobs on record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Number of records appended since this handle was opened — the "jobs
    /// simulated this session" figure.  Unlike `len()` deltas, this counts
    /// stale jobs that re-ran and overwrote their key in place.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of corrupt/undecodable lines skipped while loading.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The deduplicated records (arbitrary order; aggregation sorts
    /// canonically).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// The deduplicated quarantine records (last failure per key).
    pub fn failures(&self) -> &[JobFailure] {
        &self.failures
    }

    /// The quarantine record at `key` under the current config hash and
    /// scenario label — the same staleness filter [`ExperimentStore::get`]
    /// applies, so an edited scenario clears its quarantine and the job
    /// re-runs.
    pub fn get_failure(
        &self,
        key: JobKey,
        expected_hash: u64,
        expected_label: &str,
    ) -> Option<&JobFailure> {
        self.failure_index
            .get(&key)
            .map(|&i| &self.failures[i])
            .filter(|f| f.config_hash == expected_hash && f.scenario == expected_label)
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rebuild an [`crate::experiment::ExperimentReport`] purely from the
    /// persisted records — no spec, no simulation.  Records are aggregated
    /// in the canonical (scenario, policy, seed) order, so the result is
    /// bit-identical to the report of the grid run that wrote the store.
    pub fn rebuild_report(&self) -> crate::experiment::ExperimentReport {
        let mut report =
            crate::experiment::ExperimentReport::from_records(self.records.iter().cloned());
        // Standing quarantines (no success record for the key) surface in
        // the rebuilt report's degradation section too.
        report.failures = self
            .failures
            .iter()
            .filter(|f| !self.index.contains_key(&f.key()))
            .cloned()
            .collect();
        report.failures.sort_by_key(JobFailure::key);
        report
    }
}

/// The single definition of the store's duplicate-key rule: keep one record
/// per [`JobKey`], the **last** one seen winning — matching append-order
/// semantics, where a re-run job's fresh record supersedes its stale one.
fn insert_last_wins(
    records: &mut Vec<JobRecord>,
    index: &mut HashMap<JobKey, usize>,
    record: JobRecord,
) {
    match index.entry(record.key()) {
        std::collections::hash_map::Entry::Occupied(slot) => {
            records[*slot.get()] = record;
        }
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(records.len());
            records.push(record);
        }
    }
}

/// Collapse an arbitrary record stream to one record per job key
/// (last-record-wins, first-seen order preserved) — the batch counterpart
/// of the store's incremental indexing, used by report aggregation.
pub(crate) fn dedupe_last_wins<I: IntoIterator<Item = JobRecord>>(records: I) -> Vec<JobRecord> {
    let mut deduped = Vec::new();
    let mut index = HashMap::new();
    for record in records {
        insert_last_wins(&mut deduped, &mut index, record);
    }
    deduped
}

/// One decoded store line: a success record or a quarantine.
pub(crate) enum DecodedLine {
    /// A completed job's [`JobRecord`].
    Record(JobRecord),
    /// A quarantined job's [`JobFailure`].
    Failure(JobFailure),
}

/// Decode one JSONL store line (the inverse of [`encode_line`] /
/// [`encode_failure_line`], routing on the `caem_job_failure` marker exactly
/// like [`ExperimentStore::load`]).  The service daemon uses this to decode
/// record batches that arrived over a socket instead of from a file.
pub(crate) fn decode_line(text: &str) -> Result<DecodedLine, StoreError> {
    let value = serde_json::parse(text)
        .map_err(|e| StoreError::Format(format!("unparseable record line ({e})")))?;
    if value.get("caem_job_failure").is_some() {
        let line: FailureLine = serde_json::from_value(value)
            .map_err(|e| StoreError::Format(format!("undecodable failure record ({e})")))?;
        return Ok(DecodedLine::Failure(line.into()));
    }
    let record: JobRecord = serde_json::from_value(value)
        .map_err(|e| StoreError::Format(format!("undecodable record ({e})")))?;
    if record.metrics.len() != METRIC_NAMES.len() {
        return Err(StoreError::Format(format!(
            "record with {} metric slots (expected {})",
            record.metrics.len(),
            METRIC_NAMES.len()
        )));
    }
    Ok(DecodedLine::Record(record))
}

/// Serialize `value` as one newline-terminated JSONL line.
pub(crate) fn encode_line<T: Serialize>(value: &T) -> Result<Vec<u8>, StoreError> {
    let mut line = Vec::with_capacity(256);
    serde_json::to_writer(&mut line, value)
        .map_err(|e| StoreError::Format(format!("record serialization failed: {e}")))?;
    line.push(b'\n');
    Ok(line)
}

/// Serialize a quarantine record in its tagged on-disk framing.
pub(crate) fn encode_failure_line(failure: &JobFailure) -> Result<Vec<u8>, StoreError> {
    encode_line(&FailureLine::from(failure))
}

/// Append one encoded line, under `faults` when given, retrying transient
/// failures on [`retry_transient`]'s fixed schedule.  Every retry attempt
/// first newline-terminates the file:
/// a failed attempt may have torn a partial line in (short write, `ENOSPC`
/// mid-buffer), and rewriting directly after it would fuse the two into one
/// corrupt record.  Terminated fragments (and the blank lines terminating
/// clean failures) load back as skipped/ignored lines — the record itself
/// is always rewritten whole.
fn append_line_with_recovery(
    faults: Option<&FaultPlan>,
    file: &mut File,
    line: &[u8],
    fsync: bool,
) -> Result<(), StoreError> {
    retry_transient(|attempt| {
        if attempt > 0 {
            file.write_all(b"\n")?;
        }
        if let Some(plan) = faults {
            plan.store_append_fault(file, line, attempt)?;
        }
        file.write_all(line)
    })?;
    if fsync {
        retry_transient(|_| file.sync_all())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use crate::experiment::{ExperimentSpec, ScenarioSpec};
    use caem_simcore::time::Duration;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("caem_persist_unit_{}_{name}", std::process::id()))
    }

    fn tiny_record(seed: u64) -> JobRecord {
        JobRecord {
            scenario_index: 0,
            scenario: "uniform".into(),
            policy_index: 1,
            policy: PolicyKind::Scheme1Adaptive,
            seed,
            config_hash: 0xfeed_beef,
            metrics: vec![Some(0.5); METRIC_NAMES.len()],
            generated: 10,
            delivered: 8,
            events_processed: 1_000,
            end_time_nanos: 5_000_000_000,
            delay_p50_ms: Some(12.5),
            delay_p95_ms: None,
            delay_p99_ms: None,
        }
    }

    #[test]
    fn config_hash_is_sensitive_to_every_resolved_field() {
        let base = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        let h = config_hash(&base);
        assert_eq!(h, config_hash(&base.clone()), "hash must be deterministic");
        assert_ne!(h, config_hash(&base.clone().with_seed(2)));
        assert_ne!(
            h,
            config_hash(&base.clone().with_policy(PolicyKind::Scheme2Fixed))
        );
        assert_ne!(
            h,
            config_hash(&base.clone().with_topology(Topology::Corridor {
                width_fraction: 0.5
            }))
        );
        assert_ne!(h, config_hash(&base.with_duration(Duration::from_secs(61))));
    }

    #[test]
    fn store_round_trips_records_and_dedups_last_wins() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            store.append(tiny_record(1)).unwrap();
            store.append(tiny_record(2)).unwrap();
            // Same key appended again with different payload: last wins.
            let mut dup = tiny_record(1);
            dup.delivered = 99;
            store.append(dup).unwrap();
            assert_eq!(store.len(), 2);
        }
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.skipped_lines(), 0);
        let rec = store.get((0, 1, 1), 0xfeed_beef, "uniform").unwrap();
        assert_eq!(rec.delivered, 99);
        // A stale hash — or a renamed scenario label — hides the record.
        assert!(store.get((0, 1, 1), 0xdead_beef, "uniform").is_none());
        assert!(store.get((0, 1, 1), 0xfeed_beef, "renamed").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_skipped_with_a_warning_count() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            store.append(tiny_record(1)).unwrap();
            store.append(tiny_record(2)).unwrap();
        }
        // Simulate a crash mid-append: a partial record with no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"scenario_index\":0,\"scenario\":\"uni");
        std::fs::write(&path, text).unwrap();
        let store = ExperimentStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "intact records survive");
        assert_eq!(store.skipped_lines(), 1, "the torn line is counted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn job_failures_round_trip_and_respect_the_staleness_filter() {
        let path = temp_path("failures");
        std::fs::remove_file(&path).ok();
        let failure = JobFailure {
            scenario_index: 0,
            scenario: "uniform".into(),
            policy_index: 1,
            policy: PolicyKind::Scheme1Adaptive,
            seed: 3,
            config_hash: 0xfeed_beef,
            attempts: 2,
            reason: "panicked: poison".into(),
        };
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            store.append_failure(failure.clone()).unwrap();
            let mut worse = failure.clone();
            worse.attempts = 3;
            store.append_failure(worse).unwrap();
            store.append(tiny_record(9)).unwrap();
        }
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), 1, "success records load independently");
        assert_eq!(store.failures().len(), 1, "last failure per key wins");
        let loaded = store
            .get_failure((0, 1, 3), 0xfeed_beef, "uniform")
            .unwrap();
        assert_eq!(loaded.attempts, 3);
        assert_eq!(loaded.reason, "panicked: poison");
        // A stale hash or relabeled scenario clears the quarantine.
        assert!(store
            .get_failure((0, 1, 3), 0xdead_beef, "uniform")
            .is_none());
        assert!(store
            .get_failure((0, 1, 3), 0xfeed_beef, "renamed")
            .is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incompatible_metric_vocabulary_refuses_to_load() {
        let path = temp_path("vocab");
        let header = "{\"caem_experiment_store\":1,\"metric_names\":[\"other_metric\"]}\n";
        std::fs::write(&path, header).unwrap();
        assert!(matches!(
            ExperimentStore::load(&path),
            Err(StoreError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_of_missing_store_errors_open_creates() {
        let path = temp_path("missing");
        std::fs::remove_file(&path).ok();
        assert!(ExperimentStore::load(&path).is_err());
        let store = ExperimentStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert!(path.exists(), "open creates the file (with its header)");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_from_result_encodes_metrics_and_quantiles() {
        let spec = ExperimentSpec::paper_policies(
            vec![ScenarioSpec::new(
                "uniform",
                ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0)
                    .with_duration(Duration::from_secs(10)),
            )],
            77,
            1,
        );
        let jobs = spec.enumerate_jobs();
        let job = &jobs[0];
        let result = crate::runner::SimulationRun::new(job.config.clone()).run();
        let record = JobRecord::from_result("uniform", 0, job, &result);
        assert_eq!(record.key(), (0, 0, 77));
        assert_eq!(record.config_hash, config_hash(&job.config));
        assert_eq!(record.metrics.len(), METRIC_NAMES.len());
        let array = record.metric_array();
        assert_eq!(array[0].to_bits(), result.delivery_rate().to_bits());
        assert_eq!(record.generated, result.perf.generated());
        assert_eq!(
            record.delay_p50_ms.map(f64::to_bits),
            result.perf.delay_quantile_ms(0.5).map(f64::to_bits)
        );
    }
}
