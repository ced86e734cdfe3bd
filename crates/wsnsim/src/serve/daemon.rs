//! The experiment-service daemon: grid queueing, shard leasing over the
//! wire, record absorption and canonical report finalization.
//!
//! The daemon is transport-agnostic — one [`serve_connection`] loop per
//! connected peer (worker or client), all sharing a [`ServiceState`]
//! behind a mutex; [`serve_listener`] feeds it TCP connections.  A granted
//! shard is leased to one connection, heartbeats refresh the lease, a
//! lease whose heartbeat is older than the TTL is evicted at the next
//! claim (noting [`RunEvent::WorkerEvicted`] and [`RunEvent::LeaseStolen`]),
//! and a connection that drops releases its leases immediately (noting
//! [`RunEvent::WorkerAbnormalExit`]).  A line settles its job only if it
//! matches the job's key, config hash and scenario label; any other line
//! is counted as [`RunEvent::ForeignRecordIgnored`] and the job stays open.
//! Completed grids are finalized through [`merge_outcome`] then
//! [`ExperimentReport::from_records`], and the report is rendered to text
//! once, daemon-side, so every client fetches byte-identical output.
//!
//! A daemon may carry an attached [`ExperimentStore`] (how `experiment
//! --workers N` hosts one): every line it settles is appended to the store,
//! and jobs the store already holds are settled the moment their grid is
//! submitted, so a resumed coordinator only re-runs what it never
//! recorded.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::distrib::{merge_outcome, GridManifest, ManifestJob};
use crate::experiment::{ExperimentReport, ExperimentSpec};
use crate::faults::{self, RunEvent};
use crate::persist::{
    decode_line, DecodedLine, ExperimentStore, JobFailure, JobKey, JobRecord, StoreError,
};
use crate::spec::{GridSpec, ResolvedSpec};

use super::proto::{GridProgress, Message, PROTOCOL_VERSION};
use super::transport::{FrameLink, TcpLink};

/// How long a connection loop waits for a frame before re-checking state.
const RECV_TICK: Duration = Duration::from_millis(200);

/// Suggested claim-retry delay when the daemon has nothing to grant.
const NO_WORK_RETRY_MS: u64 = 100;

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

/// A submitted grid: its manifest, absorbed results and lease table.
/// The queue's front entry is the one being worked.
struct ActiveGrid {
    name: String,
    /// The grid's resolved spec, shipped with every grant.
    spec: ResolvedSpec,
    manifest: GridManifest,
    /// Job key → index into `manifest.jobs` (the filter absorbed lines
    /// must pass).
    job_index: HashMap<JobKey, usize>,
    records: Vec<JobRecord>,
    failures: Vec<JobFailure>,
    /// Keys with a decoded success or quarantine line.
    settled: HashSet<JobKey>,
    shard_done: Vec<bool>,
    leases: HashMap<usize, Lease>,
    /// Decoded-line count per (connection, shard) — the receiver side of
    /// the [`Message::ShardDone`] reconciliation.
    received: HashMap<(u64, usize), u64>,
}

impl ActiveGrid {
    /// Settle `key` unless it is off the grid, already settled, or the
    /// line's config hash or scenario label says it belongs to another
    /// grid; true when this call settled it.
    fn settle(&mut self, key: JobKey, config_hash: u64, scenario: &str) -> bool {
        let Some(&index) = self.job_index.get(&key) else {
            faults::note_event(RunEvent::ForeignRecordIgnored);
            return false;
        };
        if !self.manifest.jobs[index].admits(config_hash, scenario) {
            faults::note_event(RunEvent::ForeignRecordIgnored);
            return false;
        }
        self.settled.insert(key)
    }

    fn progress(&self) -> GridProgress {
        GridProgress {
            name: self.name.clone(),
            jobs: self.manifest.jobs.len() as u64,
            settled: self.settled.len() as u64,
            quarantined: self.failures.len() as u64,
            shards_done: self.shard_done.iter().filter(|d| **d).count() as u64,
            shard_count: self.manifest.shard_count as u64,
        }
    }
}

/// Shared state of one daemon process.
pub struct ServiceState {
    cfg: ServiceConfig,
    queue: VecDeque<ActiveGrid>,
    completed: Vec<CompletedGrid>,
    next_conn: u64,
    workers: HashMap<u64, String>,
    /// The store every settled line is appended to, if one is attached.
    journal: Option<ExperimentStore>,
    /// The first journal append that failed.
    journal_error: Option<StoreError>,
    /// Set by [`ServiceState::shutdown`]: every connection hangs up.
    closed: bool,
}

/// What a handled message asks the connection loop to do.
enum Reply {
    /// Fire-and-forget message: nothing to send.
    None,
    /// Send the response and keep serving.
    Send(Message),
    /// Send the response, then hang up (handshake rejections).
    Close(Message),
    /// Hang up without a response (the daemon is shutting down).
    Hangup,
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
            journal: None,
            journal_error: None,
            closed: false,
        }
    }

    /// Fresh state wrapped for sharing across connection threads.
    pub fn shared(cfg: ServiceConfig) -> Arc<Mutex<ServiceState>> {
        Arc::new(Mutex::new(ServiceState::new(cfg)))
    }

    /// Append every line this daemon settles to `store`, and settle jobs
    /// the store already holds as their grids are submitted.
    pub fn attach_store(&mut self, store: ExperimentStore) {
        self.journal = Some(store);
    }

    /// Take the attached store back.  `Err` carries the first append that
    /// failed, if any did.
    pub fn detach_store(&mut self) -> Option<Result<ExperimentStore, StoreError>> {
        let store = self.journal.take()?;
        Some(match self.journal_error.take() {
            Some(e) => Err(e),
            None => Ok(store),
        })
    }

    /// Remove and return the report of the finished grid `grid_hash`, if it
    /// has finished — so a later submission of the same grid is waited
    /// for afresh.
    pub fn take_report(&mut self, grid_hash: u64) -> Option<ExperimentReport> {
        let index = self
            .completed
            .iter()
            .position(|c| c.grid_hash == grid_hash)?;
        Some(self.completed.remove(index).report)
    }

    /// Stop serving: every connection hangs up at its next frame or tick,
    /// so attached workers see the daemon close and exit cleanly.
    pub fn shutdown(&mut self) {
        self.closed = true;
    }

    fn allocate_conn(&mut self) -> u64 {
        self.next_conn += 1;
        self.next_conn
    }

    fn handle(&mut self, conn: u64, msg: Message) -> Reply {
        if self.closed {
            return Reply::Hangup;
        }
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
                    let active = self.queue.front().map(|g| g.manifest.grid_hash);
                    match active {
                        Some(actual) if actual == hash => {}
                        Some(actual) => {
                            return Reply::Close(Message::Reject {
                                seq,
                                reason: format!(
                                    "manifest hash mismatch: active grid is {actual:016x}, worker pinned {hash:016x}"
                                ),
                            });
                        }
                        None => {
                            return Reply::Close(Message::Reject {
                                seq,
                                reason: "no active grid to pin a manifest hash against".to_string(),
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
                    if active.manifest.grid_hash == grid {
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
                seq,
                grid,
                shard,
                sent,
            } => Reply::Send(self.shard_done(conn, seq, grid, shard as usize, sent)),
            Message::Release { seq, grid, shard } => {
                if let Some(active) = self.queue.front_mut() {
                    if active.manifest.grid_hash == grid {
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
                let report = self.completed.last();
                Reply::Send(Message::FetchReply {
                    seq,
                    ready: report.is_some(),
                    report: report.map(|c| c.text.clone()).unwrap_or_default(),
                })
            }
            // Responses have no business arriving at the daemon; a stray
            // one (reordered loopback frame) is dropped.
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

    /// Queue `spec` as the grid `name`, exactly as a submitted document
    /// resolving to it would be, and return its grid hash.  Jobs the
    /// attached store already holds are settled at once; a grid the store
    /// completes finalizes on the spot.
    pub fn submit_grid(&mut self, name: &str, spec: &ExperimentSpec) -> u64 {
        let shards = self.cfg.shards_per_grid.clamp(1, spec.job_count().max(1));
        let manifest = GridManifest::from_spec(spec, shards);
        let job_index = manifest
            .jobs
            .iter()
            .enumerate()
            .map(|(index, job)| (job.key(), index))
            .collect();
        let mut grid = ActiveGrid {
            name: name.to_string(),
            spec: ResolvedSpec::of(spec),
            shard_done: vec![false; manifest.shard_count],
            manifest,
            job_index,
            records: Vec::new(),
            failures: Vec::new(),
            settled: HashSet::new(),
            leases: HashMap::new(),
            received: HashMap::new(),
        };
        if let Some(store) = &self.journal {
            for job in &grid.manifest.jobs {
                if let Some(record) = store.get(job.key(), job.config_hash, &job.scenario) {
                    grid.settled.insert(job.key());
                    grid.records.push(record.clone());
                } else if let Some(failure) =
                    store.get_failure(job.key(), job.config_hash, &job.scenario)
                {
                    grid.settled.insert(job.key());
                    grid.failures.push(failure.clone());
                }
            }
        }
        let grid_hash = grid.manifest.grid_hash;
        let complete = grid.settled.len() == grid.manifest.jobs.len();
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
            for shard in 0..grid.manifest.shard_count {
                if grid.shard_done[shard] || grid.leases.contains_key(&shard) {
                    continue;
                }
                let pending: Vec<JobKey> = grid
                    .manifest
                    .shard_jobs(shard)
                    .into_iter()
                    .map(ManifestJob::key)
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
                    grid: grid.manifest.grid_hash,
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
        if grid.manifest.grid_hash != grid_hash {
            faults::note_event(RunEvent::ForeignRecordIgnored);
            return;
        }
        // A streaming worker is alive by definition.
        if let Some(lease) = grid.leases.get_mut(&shard) {
            if lease.conn == conn {
                lease.last_beat = Instant::now();
            }
        }
        let mut decoded = 0u64;
        for line in lines {
            // Only a line that settles its job reaches the journal.
            let appended = match decode_line(&line) {
                Ok(DecodedLine::Record(record)) => {
                    decoded += 1;
                    if !grid.settle(record.key(), record.config_hash, &record.scenario) {
                        continue;
                    }
                    let appended = self.journal.as_mut().map(|s| s.append(record.clone()));
                    grid.records.push(record);
                    appended
                }
                Ok(DecodedLine::Failure(failure)) => {
                    decoded += 1;
                    if !grid.settle(failure.key(), failure.config_hash, &failure.scenario) {
                        continue;
                    }
                    let appended = self
                        .journal
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
            // The grid still completes; the owner learns of the first
            // failed append from `detach_store`.
            if let Some(Err(e)) = appended {
                self.journal_error.get_or_insert(e);
            }
        }
        *grid.received.entry((conn, shard)).or_insert(0) += decoded;
    }

    fn shard_done(
        &mut self,
        conn: u64,
        seq: u64,
        grid_hash: u64,
        shard: usize,
        sent: u64,
    ) -> Message {
        let Some(grid) = self.queue.front_mut() else {
            // The grid already finalized (a duplicated late frame).
            return Message::DoneAck { seq };
        };
        if grid.manifest.grid_hash != grid_hash {
            return Message::DoneAck { seq };
        }
        let received = grid.received.get(&(conn, shard)).copied().unwrap_or(0);
        if received < sent {
            // Records frames were lost in flight: ask the worker to resend
            // its retained lines before the shard can complete.
            faults::note_event(RunEvent::FrameRetried);
            return Message::DoneNack { seq, received };
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

    /// Finalize the front grid if every job is settled; otherwise reopen
    /// the shards still holding unsettled jobs so they get re-granted.
    fn try_finish_active(&mut self) {
        let Some(grid) = self.queue.front_mut() else {
            return;
        };
        let open_shards: HashSet<usize> = grid
            .manifest
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| !grid.settled.contains(&job.key()))
            .map(|(index, _)| index % grid.manifest.shard_count)
            .collect();
        if !open_shards.is_empty() {
            for shard in open_shards {
                grid.shard_done[shard] = false;
            }
            return;
        }
        let grid = self.queue.pop_front().expect("front grid exists");
        // The canonical aggregation, so a fetched report is byte-identical
        // to a single-process run of the same spec.
        let outcome = merge_outcome(&grid.manifest, grid.records, grid.failures);
        let mut report = ExperimentReport::from_records(outcome.records);
        report.seeds = grid.manifest.seeds.clone();
        report.failures = outcome.failures;
        let text =
            serde_json::to_string_pretty(&report.to_json()).expect("report JSON always renders");
        self.completed.push(CompletedGrid {
            grid_hash: grid.manifest.grid_hash,
            report,
            text,
        });
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

/// Serve one peer until it hangs up.  Runs the request/response loop with
/// at-most-once semantics: a retransmitted request (same non-zero `seq`)
/// gets the cached response bytes instead of being re-executed, and a
/// malformed frame is skipped (the sender retransmits on timeout) — both
/// noted as [`RunEvent::FrameRetried`].
pub fn serve_connection(link: &mut dyn FrameLink, state: &Arc<Mutex<ServiceState>>) {
    let conn = state.lock().expect("service lock").allocate_conn();
    let mut cache: Option<(u64, Vec<u8>)> = None;
    loop {
        let frame = match link.recv(Some(RECV_TICK)) {
            Ok(Some(frame)) => frame,
            Ok(None) if state.lock().expect("service lock").closed => break,
            Ok(None) => continue,
            Err(_) => break,
        };
        let msg = match Message::decode(&frame) {
            Ok(msg) => msg,
            Err(_) => {
                faults::note_event(RunEvent::FrameRetried);
                continue;
            }
        };
        let seq = msg.seq();
        if seq != 0 {
            if let Some((cached_seq, bytes)) = &cache {
                if *cached_seq == seq {
                    faults::note_event(RunEvent::FrameRetried);
                    if link.send(bytes).is_err() {
                        break;
                    }
                    continue;
                }
            }
        }
        let reply = state.lock().expect("service lock").handle(conn, msg);
        match reply {
            Reply::None => {}
            Reply::Send(response) => {
                let bytes = response.encode();
                if seq != 0 {
                    cache = Some((seq, bytes.clone()));
                }
                if link.send(&bytes).is_err() {
                    break;
                }
            }
            Reply::Close(response) => {
                let _ = link.send(&response.encode());
                break;
            }
            Reply::Hangup => break,
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
