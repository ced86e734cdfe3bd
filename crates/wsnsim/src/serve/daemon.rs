//! The experiment-service daemon: grid queueing, shard leasing over the
//! wire, record absorption and canonical report finalization.
//!
//! The daemon is transport-agnostic — one [`serve_connection`] loop per
//! connected peer (worker or client), all sharing a [`ServiceState`]
//! behind a mutex; [`serve_listener`] feeds it TCP connections.  A granted
//! shard is leased to one connection, heartbeats refresh the lease, a
//! lease whose heartbeat is older than the TTL is evicted at the next
//! claim (noting [`RunEvent::WorkerEvicted`] and [`RunEvent::LeaseStolen`]),
//! and a connection that drops — or sends a frame that does not decode,
//! which closes it — releases its leases immediately (noting
//! [`RunEvent::WorkerAbnormalExit`]).  A line settles its job only if it
//! matches the job's key, config hash and scenario label; any other line
//! is counted as [`RunEvent::ForeignRecordIgnored`] and the job stays open.
//! Every record and quarantine a grid holds has therefore passed that
//! check exactly once, so a completed grid finalizes straight through
//! [`ExperimentReport::from_records`] (quarantines sorted by key), and the
//! report is rendered to text once, daemon-side, so every client fetches
//! byte-identical output.
//!
//! A grid is its resolved [`ExperimentSpec`]: the daemon ships it with
//! every grant, and its [`ExperimentSpec::hash`] is the grid's identity on
//! the wire.  Per job the daemon keeps only its key and config hash, in
//! enumeration order; shard `s` of `n` owns the jobs at indices `j` with
//! `j % n == s` (round-robin, so every shard sees the same scenario mix).
//!
//! A daemon opened on a store directory ([`ServiceState::open`], what
//! `caem-serve --listen` runs) survives a `kill -9`.  Every accepted
//! submission is appended to `DIR/grids.jsonl` before it is acknowledged,
//! and each grid's settled lines go to its own experiment store,
//! `DIR/<grid hash, 16 hex digits>.jsonl`.  A restarted daemon replays the
//! submissions in order: the jobs a grid's store already holds settle at
//! once, a grid the store completes finalizes on the spot, and only the
//! rest is granted again.  A failed append never stops the grid; it is
//! reported on stderr and counted as [`RunEvent::JournalWriteFailed`].
//! [`ServiceState::shared`] keeps everything in memory.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::experiment::{ExperimentReport, ExperimentSpec};
use crate::faults::{self, RunEvent};
use crate::persist::{
    decode_line, DecodedLine, ExperimentStore, JobFailure, JobKey, JobRecord, StoreError,
};
use crate::spec::GridSpec;

use super::proto::{GridProgress, Message, PROTOCOL_VERSION};
use super::transport::{FrameLink, TcpLink};

/// Suggested claim-retry delay when the daemon has nothing to grant.
const NO_WORK_RETRY_MS: u64 = 100;

/// The submission journal's file name inside a store directory.
const GRIDS_JOURNAL: &str = "grids.jsonl";

/// Daemon-wide tuning: the one place lease timing is set.  Every grid the
/// daemon serves runs under it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Shards a submitted grid is split into (clamped to its job count).
    pub shards_per_grid: usize,
    /// How long a leased shard may go without a heartbeat or record frame
    /// before the next claim evicts its worker and re-grants it.
    pub lease_ttl: Duration,
    /// Heartbeat interval announced to every worker in the handshake.
    pub heartbeat: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards_per_grid: 8,
            lease_ttl: Duration::from_secs(60),
            heartbeat: Duration::from_secs(5),
        }
    }
}

/// A lease on one shard of the active grid.
struct Lease {
    conn: u64,
    last_beat: Instant,
}

/// A completed grid retained for `fetch`.
struct CompletedGrid {
    grid_hash: u64,
    report: ExperimentReport,
    /// `report` rendered once, the bytes every fetch returns.
    text: String,
}

/// A submitted grid: its spec, jobs, absorbed results and lease table.
/// The queue's front entry is the one being worked.
struct ActiveGrid {
    name: String,
    /// [`ExperimentSpec::hash`] of `spec`.
    grid_hash: u64,
    /// The grid's resolved spec, shipped with every grant.
    spec: ExperimentSpec,
    /// Number of claimable shards the job list is partitioned into.
    shard_count: usize,
    /// Every job's key and config hash, in enumeration order.
    jobs: Vec<(JobKey, u64)>,
    /// Job key → index into `jobs` (the filter absorbed lines must pass).
    job_index: HashMap<JobKey, usize>,
    records: Vec<JobRecord>,
    failures: Vec<JobFailure>,
    /// Keys with a decoded success or quarantine line.
    settled: HashSet<JobKey>,
    shard_done: Vec<bool>,
    leases: HashMap<usize, Lease>,
    /// Where every settled line is appended, on a durable daemon.
    store: Option<ExperimentStore>,
}

impl ActiveGrid {
    /// Settle `key` unless it is off the grid, already settled, or the
    /// line's config hash or scenario label says it belongs to another
    /// grid; true when this call settled it.
    fn settle(&mut self, key: JobKey, config_hash: u64, scenario: &str) -> bool {
        let admitted = self.job_index.get(&key).is_some_and(|&index| {
            self.jobs[index].1 == config_hash && self.spec.scenarios[key.0].label == scenario
        });
        if !admitted {
            faults::note_event(RunEvent::ForeignRecordIgnored);
            return false;
        }
        self.settled.insert(key)
    }

    /// The keys of the jobs shard `shard` owns.
    fn shard_keys(&self, shard: usize) -> impl Iterator<Item = JobKey> + '_ {
        self.jobs
            .iter()
            .skip(shard)
            .step_by(self.shard_count)
            .map(|&(key, _)| key)
    }

    fn progress(&self) -> GridProgress {
        GridProgress {
            name: self.name.clone(),
            jobs: self.jobs.len() as u64,
            settled: self.settled.len() as u64,
            quarantined: self.failures.len() as u64,
            shards_done: self.shard_done.iter().filter(|d| **d).count() as u64,
            shard_count: self.shard_count as u64,
        }
    }
}

/// The append handle on a durable daemon's `grids.jsonl`.
struct Journal {
    path: PathBuf,
    file: File,
    /// The file may end in a fragment without a newline (a crash tore the
    /// last append, or an append failed); the next append terminates it
    /// first, so the fragment cannot fuse with the new line.
    torn_tail: bool,
}

/// Shared state of one daemon process.
pub struct ServiceState {
    cfg: ServiceConfig,
    queue: VecDeque<ActiveGrid>,
    completed: Vec<CompletedGrid>,
    next_conn: u64,
    workers: HashMap<u64, String>,
    /// The store directory of a durable daemon.
    store_dir: Option<PathBuf>,
    /// The submission journal of a durable daemon.
    journal: Option<Journal>,
}

/// What a handled message asks the connection loop to do.
enum Reply {
    /// Fire-and-forget message: nothing to send.
    None,
    /// Send the response and keep serving.
    Send(Message),
    /// Send the response, then hang up (handshake rejections).
    Close(Message),
}

impl ServiceState {
    /// Fresh state under the given tuning.
    pub fn new(cfg: ServiceConfig) -> Self {
        ServiceState {
            cfg,
            queue: VecDeque::new(),
            completed: Vec::new(),
            next_conn: 0,
            workers: HashMap::new(),
            store_dir: None,
            journal: None,
        }
    }

    /// Fresh in-memory state wrapped for sharing across connection threads.
    pub fn shared(cfg: ServiceConfig) -> Arc<Mutex<ServiceState>> {
        Arc::new(Mutex::new(ServiceState::new(cfg)))
    }

    /// Durable shared state on the store directory `dir` (created if
    /// missing): every grid the directory's `grids.jsonl` journals is
    /// queued again in order through [`ServiceState::submit_grid`], and
    /// later grids are journaled there.  An undecodable journal line (a
    /// torn last line, whose submit was never acknowledged) is skipped
    /// with a warning.
    pub fn open(
        cfg: ServiceConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Arc<Mutex<ServiceState>>, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(GRIDS_JOURNAL);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };
        let mut state = ServiceState::new(cfg);
        state.store_dir = Some(dir.to_path_buf());
        // The journal is attached after the replay, so no replayed grid is
        // journaled twice.
        for (lineno, line) in text.lines().enumerate() {
            match decode_submission(line) {
                Ok((name, spec)) => {
                    state.submit_grid(&name, &spec);
                }
                Err(why) => {
                    faults::note_event(RunEvent::TornLineSkipped);
                    eprintln!(
                        "warning: {}:{}: skipping a submission that does not decode ({why})",
                        path.display(),
                        lineno + 1
                    );
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        state.journal = Some(Journal {
            path,
            file,
            torn_tail: !text.is_empty() && !text.ends_with('\n'),
        });
        Ok(Arc::new(Mutex::new(state)))
    }

    /// The report of the newest finished grid hashing to `grid_hash`, if
    /// one has finished.
    pub fn report(&self, grid_hash: u64) -> Option<&ExperimentReport> {
        self.completed
            .iter()
            .rev()
            .find(|c| c.grid_hash == grid_hash)
            .map(|c| &c.report)
    }

    fn allocate_conn(&mut self) -> u64 {
        self.next_conn += 1;
        self.next_conn
    }

    fn handle(&mut self, conn: u64, msg: Message) -> Reply {
        match msg {
            Message::Hello {
                seq,
                protocol,
                worker,
                threads: _,
                expect_hash,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Reply::Close(Message::Reject {
                        seq,
                        reason: format!(
                            "protocol version {protocol} not supported (daemon speaks {PROTOCOL_VERSION})"
                        ),
                    });
                }
                if let Some(hash) = expect_hash {
                    let active = self.queue.front().map(|g| g.grid_hash);
                    match active {
                        Some(actual) if actual == hash => {}
                        Some(actual) => {
                            return Reply::Close(Message::Reject {
                                seq,
                                reason: format!(
                                    "grid hash mismatch: active grid is {actual:016x}, worker pinned {hash:016x}"
                                ),
                            });
                        }
                        None => {
                            return Reply::Close(Message::Reject {
                                seq,
                                reason: "no active grid to pin a grid hash against".to_string(),
                            });
                        }
                    }
                }
                self.workers.insert(conn, worker);
                Reply::Send(Message::HelloAck {
                    seq,
                    heartbeat_ms: self.cfg.heartbeat.as_millis() as u64,
                    lease_ttl_ms: self.cfg.lease_ttl.as_millis() as u64,
                })
            }
            Message::Claim { seq } => Reply::Send(self.claim(conn, seq)),
            Message::Records { grid, shard, lines } => {
                self.absorb(conn, grid, shard as usize, lines);
                Reply::None
            }
            Message::Heartbeat { grid, shard } => {
                if let Some(active) = self.queue.front_mut() {
                    if active.grid_hash == grid {
                        if let Some(lease) = active.leases.get_mut(&(shard as usize)) {
                            if lease.conn == conn {
                                lease.last_beat = Instant::now();
                            }
                        }
                    }
                }
                Reply::None
            }
            Message::ShardDone {
                seq, grid, shard, ..
            } => Reply::Send(self.shard_done(seq, grid, shard as usize)),
            Message::Release { seq, grid, shard } => {
                if let Some(active) = self.queue.front_mut() {
                    if active.grid_hash == grid {
                        let shard = shard as usize;
                        if active.leases.get(&shard).is_some_and(|l| l.conn == conn) {
                            active.leases.remove(&shard);
                        }
                    }
                }
                Reply::Send(Message::ReleaseAck { seq })
            }
            Message::Submit {
                seq,
                spec,
                quick,
                seed,
            } => Reply::Send(self.submit(seq, &spec, quick, seed)),
            Message::Status { seq } => Reply::Send(Message::StatusReply {
                seq,
                queued: (self.queue.len() as u64).saturating_sub(1),
                active: self.queue.front().map(ActiveGrid::progress),
                completed: self.completed.len() as u64,
                workers: self.workers.len() as u64,
                events: faults::event_summary(),
            }),
            Message::Fetch { seq } => {
                // Grids finalize in submission order, so the newest
                // submitted grid has finalized once none is queued.
                let report = self.completed.last().filter(|_| self.queue.is_empty());
                Reply::Send(Message::FetchReply {
                    seq,
                    ready: report.is_some(),
                    report: report.map(|c| c.text.clone()).unwrap_or_default(),
                })
            }
            // Responses have no business arriving at the daemon; a stray
            // one is ignored.
            _ => Reply::None,
        }
    }

    fn submit(&mut self, seq: u64, spec_text: &str, quick: bool, seed: u64) -> Message {
        let parsed = match GridSpec::parse(spec_text) {
            Ok(p) => p,
            Err(e) => {
                return Message::SubmitErr {
                    seq,
                    reason: e.to_string(),
                }
            }
        };
        let resolved = match parsed.resolve(seed, quick) {
            Ok(r) => r,
            Err(e) => {
                return Message::SubmitErr {
                    seq,
                    reason: e.to_string(),
                }
            }
        };
        if resolved.sequential.is_some() {
            return Message::SubmitErr {
                seq,
                reason: "sequential stopping is not supported by the service; run the spec locally"
                    .to_string(),
            };
        }
        let name = parsed.name.clone().unwrap_or_else(|| "grid".to_string());
        let grid = self.submit_grid(&name, &resolved.spec);
        Message::SubmitAck {
            seq,
            grid,
            name,
            jobs: resolved.spec.job_count() as u64,
        }
    }

    /// Append an accepted grid to the journal of a durable daemon.
    fn journal_submission(&mut self, name: &str, spec: &ExperimentSpec) {
        let Some(journal) = &mut self.journal else {
            return;
        };
        let entry = json!({ "name": name, "spec": spec.to_json() });
        let mut line = if journal.torn_tail { "\n" } else { "" }.to_string();
        line += &serde_json::to_string(&entry).expect("submission JSON always renders");
        line.push('\n');
        let written = journal.file.write_all(line.as_bytes());
        journal.torn_tail = written.is_err();
        if let Err(e) = written {
            write_failed(&journal.path, &e);
        }
    }

    /// Queue `spec` as the grid `name`, exactly as a submitted document
    /// resolving to it would be, and return its grid hash.  A durable
    /// daemon journals the grid first; then the jobs the grid's store
    /// already holds are settled at once, and a grid the store completes
    /// finalizes on the spot.
    pub fn submit_grid(&mut self, name: &str, spec: &ExperimentSpec) -> u64 {
        self.journal_submission(name, spec);
        let jobs: Vec<(JobKey, u64)> = spec
            .enumerate_jobs()
            .iter()
            .map(|job| (job.key(), job.config_hash))
            .collect();
        let job_index = jobs
            .iter()
            .enumerate()
            .map(|(index, &(key, _))| (key, index))
            .collect();
        let shard_count = self.cfg.shards_per_grid.clamp(1, jobs.len().max(1));
        let mut grid = ActiveGrid {
            name: name.to_string(),
            grid_hash: spec.hash(),
            spec: spec.clone(),
            shard_count,
            jobs,
            job_index,
            records: Vec::new(),
            failures: Vec::new(),
            settled: HashSet::new(),
            shard_done: vec![false; shard_count],
            leases: HashMap::new(),
            store: None,
        };
        if let Some(dir) = &self.store_dir {
            let path = dir.join(format!("{:016x}.jsonl", grid.grid_hash));
            match ExperimentStore::open(&path) {
                Ok(store) => {
                    for &(key, config_hash) in &grid.jobs {
                        let scenario = &grid.spec.scenarios[key.0].label;
                        if let Some(record) = store.get(key, config_hash, scenario) {
                            grid.settled.insert(key);
                            grid.records.push(record.clone());
                        } else if let Some(failure) = store.get_failure(key, config_hash, scenario)
                        {
                            grid.settled.insert(key);
                            grid.failures.push(failure.clone());
                        }
                    }
                    grid.store = Some(store);
                }
                Err(e) => write_failed(&path, &e),
            }
        }
        let grid_hash = grid.grid_hash;
        let complete = grid.settled.len() == grid.jobs.len();
        self.queue.push_back(grid);
        if complete && self.queue.len() == 1 {
            self.try_finish_active();
        }
        grid_hash
    }

    fn claim(&mut self, conn: u64, seq: u64) -> Message {
        let ttl = self.cfg.lease_ttl;
        loop {
            let Some(grid) = self.queue.front_mut() else {
                return Message::NoWork {
                    seq,
                    retry_ms: NO_WORK_RETRY_MS,
                };
            };
            // Evict leases whose worker has gone silent past the TTL so a
            // hung (but still connected) worker can't wedge the grid.
            let stale: Vec<usize> = grid
                .leases
                .iter()
                .filter(|(_, lease)| lease.last_beat.elapsed() > ttl)
                .map(|(shard, _)| *shard)
                .collect();
            for shard in stale {
                grid.leases.remove(&shard);
                faults::note_event(RunEvent::WorkerEvicted);
                faults::note_event(RunEvent::LeaseStolen);
            }
            for shard in 0..grid.shard_count {
                if grid.shard_done[shard] || grid.leases.contains_key(&shard) {
                    continue;
                }
                let pending: Vec<JobKey> = grid
                    .shard_keys(shard)
                    .filter(|key| !grid.settled.contains(key))
                    .collect();
                if pending.is_empty() {
                    // Every job already settled (a dead worker streamed its
                    // lines before dropping): nothing left to re-run.
                    grid.shard_done[shard] = true;
                    continue;
                }
                grid.leases.insert(
                    shard,
                    Lease {
                        conn,
                        last_beat: Instant::now(),
                    },
                );
                return Message::Grant {
                    seq,
                    grid: grid.grid_hash,
                    shard: shard as u64,
                    spec: grid.spec.clone(),
                    jobs: pending,
                };
            }
            if grid.shard_done.iter().all(|done| *done) {
                // The auto-marking above may have completed the grid; try
                // to finalize and claim from the next one.
                self.try_finish_active();
                continue;
            }
            return Message::NoWork {
                seq,
                retry_ms: NO_WORK_RETRY_MS,
            };
        }
    }

    fn absorb(&mut self, conn: u64, grid_hash: u64, shard: usize, lines: Vec<String>) {
        let Some(grid) = self.queue.front_mut() else {
            return;
        };
        if grid.grid_hash != grid_hash {
            faults::note_event(RunEvent::ForeignRecordIgnored);
            return;
        }
        // A streaming worker is alive by definition.
        if let Some(lease) = grid.leases.get_mut(&shard) {
            if lease.conn == conn {
                lease.last_beat = Instant::now();
            }
        }
        for line in lines {
            // Only a line that settles its job reaches the grid's store.
            let appended = match decode_line(&line) {
                Ok(DecodedLine::Record(record)) => {
                    if !grid.settle(record.key(), record.config_hash, &record.scenario) {
                        continue;
                    }
                    let appended = grid.store.as_mut().map(|s| s.append(record.clone()));
                    grid.records.push(record);
                    appended
                }
                Ok(DecodedLine::Failure(failure)) => {
                    if !grid.settle(failure.key(), failure.config_hash, &failure.scenario) {
                        continue;
                    }
                    let appended = grid
                        .store
                        .as_mut()
                        .map(|s| s.append_failure(failure.clone()));
                    grid.failures.push(failure);
                    appended
                }
                Err(_) => {
                    faults::note_event(RunEvent::TornLineSkipped);
                    continue;
                }
            };
            // The job stays settled in memory, so the grid still completes.
            if let (Some(Err(e)), Some(store)) = (appended, &grid.store) {
                write_failed(store.path(), &e);
            }
        }
    }

    /// Mark `shard` done.  The shard's lines arrived on this connection
    /// before this frame and are absorbed already; a job none of them
    /// settled reopens the shard in [`Self::try_finish_active`].
    fn shard_done(&mut self, seq: u64, grid_hash: u64, shard: usize) -> Message {
        let Some(grid) = self.queue.front_mut() else {
            // The grid already finalized: a shard re-run after its first
            // worker's lease was stolen finished too late to matter.
            return Message::DoneAck { seq };
        };
        if grid.grid_hash != grid_hash {
            return Message::DoneAck { seq };
        }
        if shard < grid.shard_done.len() {
            grid.shard_done[shard] = true;
        }
        grid.leases.remove(&shard);
        if grid.shard_done.iter().all(|done| *done) {
            self.try_finish_active();
        }
        Message::DoneAck { seq }
    }

    /// Finalize the front grid — and each grid behind it that its store
    /// already completed — while every job is settled; otherwise reopen
    /// the shards still holding unsettled jobs so they get re-granted.
    fn try_finish_active(&mut self) {
        while let Some(grid) = self.queue.front_mut() {
            let open_shards: HashSet<usize> = grid
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, (key, _))| !grid.settled.contains(key))
                .map(|(index, _)| index % grid.shard_count)
                .collect();
            if !open_shards.is_empty() {
                for shard in open_shards {
                    grid.shard_done[shard] = false;
                }
                return;
            }
            let mut grid = self.queue.pop_front().expect("front grid exists");
            // The canonical aggregation, so a fetched report is
            // byte-identical to a single-process run of the same spec.
            // Every record and quarantine was admitted once by `settle` (or
            // the store at submit): nothing here needs re-checking or
            // deduplicating.
            let mut report = grid.spec.report_from(grid.records);
            grid.failures.sort_by_key(JobFailure::key);
            report.failures = grid.failures;
            let text = serde_json::to_string_pretty(&report.to_json())
                .expect("report JSON always renders");
            self.completed.push(CompletedGrid {
                grid_hash: grid.grid_hash,
                report,
                text,
            });
        }
    }

    fn drop_connection(&mut self, conn: u64) {
        self.workers.remove(&conn);
        if let Some(grid) = self.queue.front_mut() {
            let held: Vec<usize> = grid
                .leases
                .iter()
                .filter(|(_, lease)| lease.conn == conn)
                .map(|(shard, _)| *shard)
                .collect();
            if !held.is_empty() {
                faults::note_event(RunEvent::WorkerAbnormalExit);
                for shard in held {
                    grid.leases.remove(&shard);
                    faults::note_event(RunEvent::LeaseStolen);
                }
            }
        }
    }
}

/// The `(name, spec)` of one `grids.jsonl` line.
fn decode_submission(line: &str) -> Result<(String, ExperimentSpec), String> {
    let value = serde_json::parse(line).map_err(|e| e.to_string())?;
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or("no `name`")?;
    let spec = ExperimentSpec::from_json(value.get("spec").ok_or("no `spec`")?)?;
    Ok((name.to_string(), spec))
}

/// Report a durable write that failed (opening a grid's store included):
/// on stderr, and as a counted event `--status` shows.  The grid carries on
/// in memory.
fn write_failed(path: &Path, e: &dyn std::fmt::Display) {
    faults::note_event(RunEvent::JournalWriteFailed);
    eprintln!("warning: could not journal to {}: {e}", path.display());
}

/// Serve one peer until it hangs up, answering each request once, in
/// order.  A frame that does not decode closes the connection: the link
/// never corrupts a frame, so the peer is broken, and its leases are freed
/// exactly as if it had hung up.
pub fn serve_connection(link: &mut dyn FrameLink, state: &Arc<Mutex<ServiceState>>) {
    let conn = state.lock().expect("service lock").allocate_conn();
    loop {
        let frame = match link.recv(None) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => break,
        };
        let Ok(msg) = Message::decode(&frame) else {
            break;
        };
        let reply = state.lock().expect("service lock").handle(conn, msg);
        match reply {
            Reply::None => {}
            Reply::Send(response) => {
                if link.send(&response.encode()).is_err() {
                    break;
                }
            }
            Reply::Close(response) => {
                let _ = link.send(&response.encode());
                break;
            }
        }
    }
    state.lock().expect("service lock").drop_connection(conn);
}

/// Accept TCP peers on `listener` for as long as it stays open, serving
/// each on its own thread through [`serve_connection`].
pub fn serve_listener(listener: &TcpListener, state: &Arc<Mutex<ServiceState>>) {
    for incoming in listener.incoming() {
        match incoming {
            Ok(stream) => {
                let state = state.clone();
                std::thread::spawn(move || serve_connection(&mut TcpLink::new(stream), &state));
            }
            Err(e) => eprintln!("warning: accept failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The shard-lease contract, pinned against the daemon's grants.

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration as StdDuration;

    use super::*;
    use crate::config::ScenarioConfig;
    use crate::experiment::ScenarioSpec;
    use crate::serve::{
        run_socket_worker, LoopbackLink, LoopbackSpawner, ProtoError, SocketWorkerOptions,
        WorkerExit,
    };
    use caem::policy::PolicyKind;
    use caem_simcore::time::Duration as SimDuration;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::paper_policies(
            vec![ScenarioSpec::new(
                "uniform",
                ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0)
                    .with_duration(SimDuration::from_secs(5)),
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
        let frame = link
            .recv(Some(StdDuration::from_secs(10)))
            .expect("recv")
            .expect("response before timeout");
        let reply = Message::decode(&frame).expect("well-formed response");
        assert_eq!(reply.seq(), msg.seq(), "the next frame is the response");
        reply
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

    /// The grid hash `spec` is queued under by a daemon cutting grids into
    /// `shards` shards.
    fn submitted_hash(spec: &ExperimentSpec, shards: usize) -> u64 {
        ServiceState::new(ServiceConfig {
            shards_per_grid: shards,
            ..ServiceConfig::default()
        })
        .submit_grid("tiny", spec)
    }

    #[test]
    fn shards_partition_every_job_exactly_once() {
        let spec = tiny_spec();
        let state = ServiceState::shared(ServiceConfig {
            shards_per_grid: 4,
            ..ServiceConfig::default()
        });
        let grid = state.lock().unwrap().submit_grid("tiny", &spec);
        let mut link = LoopbackSpawner::new(state).connect();
        let mut granted: Vec<JobKey> = Vec::new();
        let mut shards = Vec::new();
        for seq in 1..=4 {
            let (hash, shard, keys) = claim(&mut link, seq).expect("a free shard");
            assert_eq!(hash, grid);
            shards.push(shard);
            granted.extend(keys);
        }
        assert!(claim(&mut link, 5).is_none(), "four shards, all leased");
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2, 3]);
        granted.sort_unstable();
        let mut every: Vec<JobKey> = spec.enumerate_jobs().iter().map(|j| j.key()).collect();
        every.sort_unstable();
        assert_eq!(granted, every, "shards cover the grid, each job once");
        // Identity is the spec's hash, not the partition's...
        assert_eq!(grid, spec.hash());
        assert_eq!(submitted_hash(&spec, 3), grid);
        // ...and any change to the jobs themselves is a different grid.
        let mut edited = spec.clone();
        edited.seeds[0] += 1;
        assert_ne!(submitted_hash(&edited, 4), grid);
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
        let lines: Vec<String> = spec
            .jobs_at(&keys)
            .expect("granted keys lie on the grid")
            .iter()
            .map(|job| serde_json::to_string(&spec.run_job(job)).expect("record serializes"))
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
