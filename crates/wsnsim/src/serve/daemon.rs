//! The experiment-service daemon: grid queueing, shard leasing over the
//! wire, record absorption and canonical report finalization.
//!
//! The daemon is transport-agnostic — one [`serve_connection`] loop per
//! connected peer (worker or client), all sharing a [`ServiceState`]
//! behind a mutex.  Shard leasing mirrors the lock-file protocol of
//! [`crate::distrib`]: a granted shard is leased to one connection,
//! heartbeats refresh the lease, a lease whose heartbeat is older than the
//! TTL is evicted at the next claim (noting
//! [`RunEvent::WorkerEvicted`] and [`RunEvent::LeaseStolen`]), and a
//! connection that drops releases its leases immediately (noting
//! [`RunEvent::WorkerAbnormalExit`]).  Completed grids are finalized
//! through the exact pipeline of
//! [`crate::distrib` `run_distributed`](crate::experiment::ExperimentSpec::run_distributed)
//! — [`merge_outcome`] then [`ExperimentReport::from_records`] — and the
//! report is rendered to text once, daemon-side, so every client fetches
//! byte-identical output.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::distrib::{
    merge_outcome, GridManifest, ManifestJob, DEFAULT_HEARTBEAT, DEFAULT_LEASE_TTL,
};
use crate::experiment::ExperimentReport;
use crate::faults::{self, RunEvent};
use crate::persist::{decode_line, DecodedLine, JobFailure, JobKey, JobRecord};
use crate::spec::{GridSpec, ResolvedSpec};

use super::proto::{GridProgress, Message, PROTOCOL_VERSION};
use super::transport::FrameLink;

/// How long a connection loop waits for a frame before re-checking state.
const RECV_TICK: Duration = Duration::from_millis(200);

/// Suggested claim-retry delay when the daemon has nothing to grant.
const NO_WORK_RETRY_MS: u64 = 100;

/// Daemon-wide tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shards a submitted grid is split into (clamped to its job count).
    pub shards_per_grid: usize,
    /// Operator override for the shard-lease TTL.  `None` defers to each
    /// spec's `distrib` block (and then to
    /// [`DEFAULT_LEASE_TTL`]).
    pub lease_ttl: Option<Duration>,
    /// Operator override for the worker heartbeat interval, with the same
    /// precedence as `lease_ttl`.
    pub heartbeat: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards_per_grid: 8,
            lease_ttl: None,
            heartbeat: None,
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
    report: String,
}

/// A submitted grid: its manifest, absorbed results and lease table.
/// The queue's front entry is the one being worked.
struct ActiveGrid {
    name: String,
    /// The grid's resolved spec, shipped with every grant.
    spec: ResolvedSpec,
    manifest: GridManifest,
    /// Every job key of the manifest (membership filter for absorbed lines).
    job_keys: HashSet<JobKey>,
    records: Vec<JobRecord>,
    failures: Vec<JobFailure>,
    /// Keys with a decoded success or quarantine line.
    settled: HashSet<JobKey>,
    quarantined: u64,
    shard_done: Vec<bool>,
    leases: HashMap<usize, Lease>,
    /// Decoded-line count per (connection, shard) — the receiver side of
    /// the [`Message::ShardDone`] reconciliation.
    received: HashMap<(u64, usize), u64>,
    lease_ttl: Duration,
    heartbeat: Duration,
}

impl ActiveGrid {
    fn progress(&self) -> GridProgress {
        GridProgress {
            name: self.name.clone(),
            jobs: self.manifest.jobs.len() as u64,
            settled: self.settled.len() as u64,
            quarantined: self.quarantined,
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
        }
    }

    /// Fresh state wrapped for sharing across connection threads.
    pub fn shared(cfg: ServiceConfig) -> Arc<Mutex<ServiceState>> {
        Arc::new(Mutex::new(ServiceState::new(cfg)))
    }

    /// Grids finished so far (tests and the daemon's idle logging).
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Grids submitted and not yet finished.
    pub fn pending_count(&self) -> usize {
        self.queue.len()
    }

    fn allocate_conn(&mut self) -> u64 {
        self.next_conn += 1;
        self.next_conn
    }

    /// The lease tuning a fresh worker should run with: the active grid's
    /// if one exists, otherwise the daemon defaults.
    fn tuning(&self) -> (Duration, Duration) {
        match self.queue.front() {
            Some(grid) => (grid.heartbeat, grid.lease_ttl),
            None => (
                self.cfg.heartbeat.unwrap_or(DEFAULT_HEARTBEAT),
                self.cfg.lease_ttl.unwrap_or(DEFAULT_LEASE_TTL),
            ),
        }
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
                let (heartbeat, lease_ttl) = self.tuning();
                Reply::Send(Message::HelloAck {
                    seq,
                    heartbeat_ms: heartbeat.as_millis() as u64,
                    lease_ttl_ms: lease_ttl.as_millis() as u64,
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
                    report: report.map(|c| c.report.clone()).unwrap_or_default(),
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
        let job_count = resolved.spec.job_count();
        let shards = self.cfg.shards_per_grid.clamp(1, job_count.max(1));
        let manifest = GridManifest::from_spec(&resolved.spec, shards);
        let name = parsed.name.clone().unwrap_or_else(|| "grid".to_string());
        let grid_hash = manifest.grid_hash;
        let job_keys = manifest.jobs.iter().map(ManifestJob::key).collect();
        let shard_count = manifest.shard_count;
        self.queue.push_back(ActiveGrid {
            name: name.clone(),
            spec: ResolvedSpec::of(&resolved.spec),
            manifest,
            job_keys,
            records: Vec::new(),
            failures: Vec::new(),
            settled: HashSet::new(),
            quarantined: 0,
            shard_done: vec![false; shard_count],
            leases: HashMap::new(),
            received: HashMap::new(),
            lease_ttl: self.cfg.lease_ttl.unwrap_or(resolved.distrib.lease_ttl),
            heartbeat: self.cfg.heartbeat.unwrap_or(resolved.distrib.heartbeat),
        });
        Message::SubmitAck {
            seq,
            grid: grid_hash,
            name,
            jobs: job_count as u64,
        }
    }

    fn claim(&mut self, conn: u64, seq: u64) -> Message {
        loop {
            let Some(grid) = self.queue.front_mut() else {
                return Message::NoWork {
                    seq,
                    retry_ms: NO_WORK_RETRY_MS,
                };
            };
            // Evict leases whose worker has gone silent past the TTL so a
            // hung (but still connected) worker can't wedge the grid.
            let ttl = grid.lease_ttl;
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
        let count = grid.received.entry((conn, shard)).or_insert(0);
        for line in lines {
            match decode_line(&line) {
                Ok(DecodedLine::Record(record)) => {
                    *count += 1;
                    let key = record.key();
                    if grid.job_keys.contains(&key) {
                        if grid.settled.insert(key) {
                            grid.records.push(record);
                        }
                    } else {
                        faults::note_event(RunEvent::ForeignRecordIgnored);
                    }
                }
                Ok(DecodedLine::Failure(failure)) => {
                    *count += 1;
                    let key = failure.key();
                    if grid.job_keys.contains(&key) {
                        if grid.settled.insert(key) {
                            grid.quarantined += 1;
                            grid.failures.push(failure);
                        }
                    } else {
                        faults::note_event(RunEvent::ForeignRecordIgnored);
                    }
                }
                Err(_) => faults::note_event(RunEvent::TornLineSkipped),
            }
        }
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
        // The exact finalization of `run_distributed`, so a fetched report
        // is byte-identical to a single-process run of the same spec.
        let outcome = merge_outcome(&grid.manifest, grid.records, grid.failures);
        let mut report = ExperimentReport::from_records(outcome.records);
        report.seeds = grid.manifest.seeds.clone();
        report.failures = outcome.failures;
        let text =
            serde_json::to_string_pretty(&report.to_json()).expect("report JSON always renders");
        self.completed.push(CompletedGrid { report: text });
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
        }
    }
    state.lock().expect("service lock").drop_connection(conn);
}
