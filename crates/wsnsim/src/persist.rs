//! Result persistence for experiment grids: a per-grid JSONL store that
//! turns the flat job list into a durable, resumable asset.
//!
//! Every settled (scenario × policy × seed) job is streamed to disk as one
//! line, keyed by its deterministic coordinates — scenario index/label,
//! policy index, seed — plus an FNV-1a hash of the fully resolved
//! [`ScenarioConfig`].  A line is a completed job's [`JobRecord`] or a
//! quarantined job's [`JobFailure`].  The hash is the staleness guard: a
//! line only counts as "already settled" if the configuration that
//! produced it is byte-identical to the one the current grid would run, so
//! editing a scenario transparently invalidates exactly the affected cells.
//!
//! Each decision about a line has one definition here, shared by the local
//! engine ([`crate::experiment::ExperimentSpec::run_with_store`]), offline
//! re-aggregation ([`ExperimentStore::load`] and
//! [`ExperimentStore::rebuild_report`]) and the service daemon:
//!
//! * **decode and encode**: `SettledLine::decode` and `SettledLine::encode`;
//! * **which line wins**: `SettledIndex`, where the **last** line for a key
//!   wins, success or quarantine, so re-running a stale job just appends
//!   the fresh record without rewriting history;
//! * **append and torn tails**: `AppendLog`, the one writer of durable
//!   lines (a grid's store and the daemon's `grids.jsonl`).  A crash can
//!   only tear the **trailing** line, which the loader skips with a warning
//!   (the job simply re-runs on resume), and the next append terminates the
//!   fragment before writing;
//! * **the report**: `ExperimentReport::from_settled` (behind
//!   [`crate::experiment::ExperimentReport::from_records`]) folds the
//!   records in the canonical (scenario, policy, seed) order, so a resumed
//!   grid whose jobs completed in a different interleaving still
//!   reproduces the uninterrupted report bit-for-bit, and lists the
//!   quarantines by key.
//!
//! Metric values are persisted as `Option<f64>` (`None` for the non-finite
//! values an undefined ratio produces) and travel through the vendored
//! `serde_json`'s shortest-round-trip float formatting, so a decoded record
//! feeds the Welford accumulators the exact bits the in-memory run would.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use caem::policy::PolicyKind;
use serde::{Deserialize, Serialize};
use serde_json::Value;

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
/// Like a record, a failure is a settled line, and the last line for a key
/// wins: a success appended after it (a local resume re-runs a quarantined
/// job) replaces it.  On disk a failure leads with a `"caem_job_failure": 1`
/// marker field that routes the line on load (the vendored derive has no
/// `#[serde(tag)]`, so the marker is explicit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// One settled job as a store line: a completed job's [`JobRecord`] or a
/// quarantine's [`JobFailure`].  The store's loader and appends, the
/// socket worker and the service daemon all encode and decode store lines
/// through this type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SettledLine {
    /// A completed job.
    Record(JobRecord),
    /// A quarantined job.
    Failure(JobFailure),
}

impl SettledLine {
    /// The line's deterministic coordinates.
    pub(crate) fn key(&self) -> JobKey {
        match self {
            SettledLine::Record(record) => record.key(),
            SettledLine::Failure(failure) => failure.key(),
        }
    }

    /// True when the line was produced under `config_hash` for the
    /// scenario labelled `label` — the staleness filter.  The label check
    /// matters because labels live in [`crate::experiment::ScenarioSpec`],
    /// outside the hashed [`ScenarioConfig`]: without it a renamed scenario
    /// would reuse lines carrying the old name and produce a report whose
    /// cells contradict the spec.
    pub(crate) fn matches(&self, config_hash: u64, label: &str) -> bool {
        let (hash, scenario) = match self {
            SettledLine::Record(record) => (record.config_hash, &record.scenario),
            SettledLine::Failure(failure) => (failure.config_hash, &failure.scenario),
        };
        hash == config_hash && scenario == label
    }

    /// The line's JSONL text, without its newline.
    pub(crate) fn encode(&self) -> String {
        let value = match self {
            SettledLine::Record(record) => record.to_value(),
            SettledLine::Failure(failure) => {
                let Value::Map(mut fields) = failure.to_value() else {
                    unreachable!("a struct serializes to a map")
                };
                fields.insert(0, ("caem_job_failure".into(), Value::UInt(1)));
                Value::Map(fields)
            }
        };
        serde_json::to_string(&value).expect("store lines always serialize")
    }

    /// Decode one line of text, as read from a store or received from a
    /// socket worker.
    pub(crate) fn decode(text: &str) -> Result<Self, String> {
        serde_json::parse(text)
            .map_err(|e| format!("unparseable line ({e})"))
            .and_then(Self::from_value)
    }

    /// Decode a parsed line: the `caem_job_failure` marker routes it to a
    /// quarantine, and a record must carry one metric per [`METRIC_NAMES`]
    /// slot.
    fn from_value(value: Value) -> Result<Self, String> {
        if value.get("caem_job_failure").is_some() {
            return serde_json::from_value(value)
                .map(SettledLine::Failure)
                .map_err(|e| format!("undecodable failure record ({e})"));
        }
        let record: JobRecord =
            serde_json::from_value(value).map_err(|e| format!("undecodable record ({e})"))?;
        if record.metrics.len() != METRIC_NAMES.len() {
            return Err(format!(
                "record with {} metric slots (expected {})",
                record.metrics.len(),
                METRIC_NAMES.len()
            ));
        }
        Ok(SettledLine::Record(record))
    }
}

/// One settled line per [`JobKey`] under the one duplicate-key rule: the
/// **last** line inserted for a key wins, success or quarantine — append
/// order, where a re-run job's fresh line supersedes its stale one.
#[derive(Debug, Clone, Default)]
pub(crate) struct SettledIndex {
    /// First-seen order.
    lines: Vec<SettledLine>,
    index: HashMap<JobKey, usize>,
}

impl SettledIndex {
    /// Index `line`, replacing any earlier line for its key.
    pub(crate) fn insert(&mut self, line: SettledLine) {
        match self.index.entry(line.key()) {
            Entry::Occupied(slot) => self.lines[*slot.get()] = line,
            Entry::Vacant(slot) => {
                slot.insert(self.lines.len());
                self.lines.push(line);
            }
        }
    }

    /// The line that won `key`, if any.
    pub(crate) fn get(&self, key: JobKey) -> Option<&SettledLine> {
        self.index.get(&key).map(|&i| &self.lines[i])
    }

    /// Number of settled keys.
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    /// The winning lines, in the order their keys were first seen.
    pub(crate) fn lines(&self) -> &[SettledLine] {
        &self.lines
    }

    /// The winning success records.
    pub(crate) fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.lines.iter().filter_map(|line| match line {
            SettledLine::Record(record) => Some(record),
            SettledLine::Failure(_) => None,
        })
    }
}

impl FromIterator<SettledLine> for SettledIndex {
    fn from_iter<I: IntoIterator<Item = SettledLine>>(lines: I) -> Self {
        let mut settled = SettledIndex::default();
        for line in lines {
            settled.insert(line);
        }
        settled
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

/// An append-only JSONL file: the one writer of durable lines, behind
/// every experiment store and the service daemon's `grids.jsonl`.
///
/// A crash can tear only the file's last line, and an append never fuses
/// with such a fragment: a log whose file ends without a newline
/// terminates it before its next line.  The fragment loads back as one
/// skipped line.
pub(crate) struct AppendLog {
    path: PathBuf,
    file: File,
    /// The file may end in a fragment without a newline: a crash tore its
    /// last line, or an append attempt failed part-way.
    torn_tail: bool,
    options: StoreOptions,
}

impl AppendLog {
    /// Open (or create) the log at `path` for appending, returning it with
    /// the text already in the file.
    pub(crate) fn open(path: &Path, options: StoreOptions) -> Result<(Self, String), StoreError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let log = AppendLog {
            path: path.to_path_buf(),
            file,
            torn_tail: !text.is_empty() && !text.ends_with('\n'),
            options,
        };
        Ok((log, text))
    }

    /// Append `line` (without its newline) in one `write_all` call, so a
    /// crash can tear the line but never interleave two.  Transient IO
    /// failures are retried on [`retry_transient`]'s fixed schedule, under
    /// the log's fault plan.  Each attempt after a torn tail or a failed
    /// attempt first newline-terminates the file: rewriting directly after
    /// a fragment (a short write, `ENOSPC` mid-buffer) would fuse the two
    /// into one corrupt line.  Terminated fragments and the blank lines of
    /// clean failures load back as skipped or ignored lines.
    pub(crate) fn append(&mut self, line: &str) -> Result<(), StoreError> {
        let bytes = format!("{line}\n").into_bytes();
        let AppendLog {
            file,
            torn_tail,
            options,
            ..
        } = self;
        retry_transient(|attempt| {
            if *torn_tail {
                file.write_all(b"\n")?;
            }
            *torn_tail = true;
            if let Some(plan) = &options.faults {
                plan.store_append_fault(file, &bytes, attempt)?;
            }
            file.write_all(&bytes)?;
            *torn_tail = false;
            Ok(())
        })?;
        if self.options.fsync {
            retry_transient(|_| self.file.sync_all())?;
        }
        Ok(())
    }

    /// The log's file path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// Count and report one line a loader skips: `what` says which and why.
pub(crate) fn skip_line(path: &Path, lineno: usize, what: &str) {
    faults::note_event(RunEvent::TornLineSkipped);
    eprintln!(
        "warning: {}:{}: skipping {what}",
        path.display(),
        lineno + 1
    );
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

impl StoreHeader {
    /// The header this build writes.
    fn current() -> Self {
        StoreHeader {
            caem_experiment_store: STORE_VERSION,
            metric_names: METRIC_NAMES.iter().map(|&m| m.to_string()).collect(),
        }
    }

    /// Refuse a parsed header this build cannot read.
    fn check(value: Value) -> Result<(), StoreError> {
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
        Ok(())
    }
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

/// A per-grid JSONL result store: the settled lines on disk indexed by
/// their deterministic coordinates, last line per key winning, plus (when
/// opened writable) the append log new records stream to as they finish.
///
/// [`ExperimentStore::append`] is a local grid's one record sink: its
/// parallel workers share the store behind one lock.  The service daemon
/// opens each grid's store the same way and appends its settled lines
/// through the store's log.
pub struct ExperimentStore {
    settled: SettledIndex,
    skipped_lines: usize,
    /// Records appended through this handle (loads don't count).
    appended: usize,
    /// The append handle; `None` on a store loaded read-only.
    log: Option<AppendLog>,
}

impl ExperimentStore {
    /// Open (or create) a writable store at `path`, loading every valid
    /// line already on disk.  Corrupt or torn lines — the signature of a
    /// crash mid-append — are skipped with a warning on stderr and counted
    /// in [`ExperimentStore::skipped_lines`]; the affected jobs simply
    /// re-run on resume.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, StoreOptions::default())
    }

    /// [`ExperimentStore::open`] with explicit durability options.
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> Result<Self, StoreError> {
        let (mut log, text) = AppendLog::open(path.as_ref(), options)?;
        let (mut store, has_header) = Self::index(path.as_ref(), &text)?;
        if !has_header {
            // A new file, or one whose very first write a crash tore.
            let header = serde_json::to_string(&StoreHeader::current())
                .expect("the store header always serializes");
            log.append(&header)?;
        }
        store.log = Some(log);
        Ok(store)
    }

    /// Load a store read-only (offline re-aggregation).  Errors if the file
    /// does not exist; appending to a store loaded this way panics.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no experiment store at {}", path.display()),
            ),
            _ => e,
        })?;
        Ok(Self::index(path, &text)?.0)
    }

    /// Index the lines of a store file's `text`, and say whether it holds
    /// a header line.
    fn index(path: &Path, text: &str) -> Result<(Self, bool), StoreError> {
        let mut store = ExperimentStore {
            settled: SettledIndex::default(),
            skipped_lines: 0,
            appended: 0,
            log: None,
        };
        let mut has_header = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let decoded = match serde_json::parse(line) {
                Ok(value) if value.get("caem_experiment_store").is_some() => {
                    StoreHeader::check(value)?;
                    has_header = true;
                    continue;
                }
                Ok(value) => SettledLine::from_value(value),
                Err(e) => Err(format!("unparseable line ({e})")),
            };
            match decoded {
                Ok(settled) => store.settled.insert(settled),
                Err(why) => {
                    store.skipped_lines += 1;
                    skip_line(path, lineno, &format!("{why} — the job will re-run"));
                }
            }
        }
        Ok((store, has_header))
    }

    /// The settled line at `key`, but only if it was produced by a
    /// configuration hashing to `expected_hash` **and** carries the
    /// scenario label the spec uses now ([`SettledLine::matches`]); a stale
    /// line is ignored, so its job re-runs.
    pub(crate) fn settled(
        &self,
        key: JobKey,
        expected_hash: u64,
        expected_label: &str,
    ) -> Option<&SettledLine> {
        self.settled
            .get(key)
            .filter(|line| line.matches(expected_hash, expected_label))
    }

    /// The completed record at `key`, under the same staleness filter: a
    /// quarantined or stale job has none.
    pub fn get(&self, key: JobKey, expected_hash: u64, expected_label: &str) -> Option<&JobRecord> {
        match self.settled(key, expected_hash, expected_label)? {
            SettledLine::Record(record) => Some(record),
            SettledLine::Failure(_) => None,
        }
    }

    /// Append one record through the store's append log, then index it: a
    /// single line written in one `write_all` call, retried on transient
    /// failures and never fused with a torn fragment before it.
    pub fn append(&mut self, record: JobRecord) -> Result<(), StoreError> {
        let line = SettledLine::Record(record);
        self.log
            .as_mut()
            .expect("append on a store opened read-only")
            .append(&line.encode())?;
        self.appended += 1;
        self.settled.insert(line);
        Ok(())
    }

    /// Number of distinct completed jobs on record.
    pub fn len(&self) -> usize {
        self.settled.records().count()
    }

    /// Number of records appended since this handle was opened — the "jobs
    /// simulated this session" figure.  Unlike `len()` deltas, this counts
    /// stale jobs that re-ran and overwrote their key in place.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of corrupt/undecodable lines skipped while loading.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The completed records (arbitrary order; aggregation sorts
    /// canonically).
    pub fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.settled.records()
    }

    /// The store's append handle, giving up its index (`None` on a store
    /// loaded read-only).
    pub(crate) fn into_log(self) -> Option<AppendLog> {
        self.log
    }

    /// Rebuild an [`crate::experiment::ExperimentReport`] purely from the
    /// persisted lines — no spec, no simulation — through the one
    /// aggregation path every run mode shares: the records in canonical (scenario, policy, seed) order, so the result is
    /// bit-identical to the report of the grid run that wrote the store,
    /// and every standing quarantine in its degradation section.
    pub fn rebuild_report(&self) -> crate::experiment::ExperimentReport {
        crate::experiment::ExperimentReport::from_settled(&self.settled)
    }
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
        // A crash tore the store's very first write, its header: the next
        // open writes the header again.
        let path = temp_path("torn");
        let header = serde_json::to_string(&StoreHeader::current()).unwrap();
        std::fs::write(&path, &header[..header.len() / 2]).unwrap();
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            store.append(tiny_record(1)).unwrap();
            store.append(tiny_record(2)).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|line| line == header), "no header: {text}");
        // Simulate a crash mid-append: a partial record with no newline.
        text.push_str("{\"scenario_index\":0,\"scenario\":\"uni");
        std::fs::write(&path, text).unwrap();
        let store = ExperimentStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "intact records survive");
        assert_eq!(store.skipped_lines(), 2, "both torn lines are counted");
        std::fs::remove_file(&path).ok();
    }

    fn tiny_failure(seed: u64) -> SettledLine {
        SettledLine::Failure(JobFailure {
            scenario_index: 0,
            scenario: "uniform".into(),
            policy_index: 1,
            policy: PolicyKind::Scheme1Adaptive,
            seed,
            config_hash: 0xfeed_beef,
            attempts: 2,
            reason: "panicked: poison".into(),
        })
    }

    #[test]
    fn job_failures_round_trip_and_respect_the_staleness_filter() {
        let path = temp_path("failures");
        std::fs::remove_file(&path).ok();
        // A quarantine keeps its committed layout, marker first.
        assert_eq!(
            tiny_failure(3).encode(),
            r#"{"caem_job_failure":1,"scenario_index":0,"scenario":"uniform","policy_index":1,"policy":"Scheme1Adaptive","seed":3,"config_hash":4276993775,"attempts":2,"reason":"panicked: poison"}"#
        );
        {
            // The daemon's path: quarantines go through the store's log.
            let mut store = ExperimentStore::open(&path).unwrap();
            let log = |store: &mut ExperimentStore, line: SettledLine| {
                let log = store.log.as_mut().unwrap();
                log.append(&line.encode()).unwrap();
            };
            store.append(tiny_record(3)).unwrap();
            log(&mut store, tiny_failure(3));
            log(&mut store, tiny_failure(9));
            store.append(tiny_record(9)).unwrap();
        }
        // The last line for a key wins, success or quarantine.
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.settled((0, 1, 3), 0xfeed_beef, "uniform"),
            Some(&tiny_failure(3))
        );
        assert!(store.get((0, 1, 3), 0xfeed_beef, "uniform").is_none());
        assert!(store.get((0, 1, 9), 0xfeed_beef, "uniform").is_some());
        let failures = store.rebuild_report().failures;
        assert_eq!(
            failures.iter().map(JobFailure::key).collect::<Vec<_>>(),
            [(0, 1, 3)]
        );
        // A stale hash or relabeled scenario clears the quarantine.
        assert!(store.settled((0, 1, 3), 0xdead_beef, "uniform").is_none());
        assert!(store.settled((0, 1, 3), 0xfeed_beef, "renamed").is_none());
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
