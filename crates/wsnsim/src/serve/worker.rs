//! The socket-transport worker loop: handshake, claim, run, stream,
//! reconcile — the service counterpart of [`crate::distrib::run_worker`].
//!
//! A socket worker needs no shared filesystem: each grant carries the
//! grid's resolved spec and the keys of the shard's pending jobs.  The
//! worker refuses a grant whose spec does not hash to the grid it names,
//! rebuilds the jobs from their keys, runs them through the same
//! [`run_job_guarded`] retry/quarantine path as a file worker, and streams
//! each job's store line back as the job settles, in [`Message::Records`]
//! batches that wait at most one heartbeat interval (and never past the
//! collector's gather threshold).  When no line is due, the connection
//! thread keeps the lease alive with [`Message::Heartbeat`] frames.  Shard
//! completion is reconciled by count: if the daemon decoded fewer lines
//! than the worker sent (frames lost to faults), the worker resends every
//! retained line and asks again.
//!
//! **Graceful shutdown** mirrors the file worker: once the worker's stop
//! flag (or the process-wide [`shutdown_requested`]) is raised, unstarted
//! jobs are skipped, buffered lines are flushed, the unfinished shard is
//! released back to the daemon — instantly re-claimable, no TTL wait — and
//! the loop returns cleanly.  The daemon closing the connection is also a
//! clean exit, so draining a fleet is as simple as stopping the daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::distrib::{run_job_guarded, shutdown_requested, ManifestJob, WorkerOutcome};
use crate::persist::{encode_failure_line, encode_line, JobKey};
use crate::spec::ResolvedSpec;

use super::proto::{Message, ProtoError, PROTOCOL_VERSION};
use super::transport::{request, FrameLink};

/// Batch threshold for streamed record lines — the collector's gather
/// threshold, applied to wire frames instead of file writes.
const GATHER_BYTES: usize = crate::collect::GATHER_BYTES;

/// Cap on ShardDone→DoneNack resend rounds before giving up on a link.
const MAX_DONE_ROUNDS: usize = 10;

/// Longest a settled job's line waits in the worker before it is shipped
/// (shorter when the heartbeat interval is): what a killed worker can lose.
const LINGER: Duration = Duration::from_millis(50);

/// Tuning and identity of one socket worker.
#[derive(Debug, Clone)]
pub struct SocketWorkerOptions {
    /// Display label reported in the handshake.
    pub label: String,
    /// Protocol version to claim (overridable so version-skew rejection is
    /// testable; defaults to [`PROTOCOL_VERSION`]).
    pub protocol: u64,
    /// Refuse to work unless the daemon's active grid has this manifest
    /// hash.
    pub expect_hash: Option<u64>,
    /// Attempts per job before quarantine (the file worker's default is 2).
    pub job_attempts: u32,
    /// Wall-clock budget per job attempt.
    pub job_wall_budget: Option<Duration>,
    /// Worker-local graceful-stop flag: raised by the embedding test or
    /// signal handler; checked between jobs alongside the process-wide
    /// [`shutdown_requested`].
    pub stop: Arc<AtomicBool>,
}

impl SocketWorkerOptions {
    /// Defaults for a worker labelled `label`.
    pub fn new(label: impl Into<String>) -> Self {
        SocketWorkerOptions {
            label: label.into(),
            protocol: PROTOCOL_VERSION,
            expect_hash: None,
            job_attempts: 2,
            job_wall_budget: None,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// How a socket worker's run ended.
#[derive(Debug)]
pub enum WorkerExit {
    /// Clean exit (work drained, stop requested, or daemon hung up).
    Finished(WorkerOutcome),
    /// The daemon refused the handshake; the reason should reach stderr
    /// and the process should exit 2.
    Rejected(String),
}

/// What one granted shard's execution produced.
struct ShardRun {
    /// Every encoded line, retained for DoneNack resends.
    lines: Vec<String>,
    records: usize,
    quarantined: usize,
    /// All granted jobs settled (false when a stop skipped some).
    complete: bool,
}

/// Run the worker loop over `link` until the work (or the daemon) goes
/// away.  Transport failures surface as [`ProtoError`]; a peer hang-up is
/// **not** an error — it resolves to [`WorkerExit::Finished`].
pub fn run_socket_worker(
    link: &mut dyn FrameLink,
    opts: &SocketWorkerOptions,
) -> Result<WorkerExit, ProtoError> {
    let mut seq: u64 = 1;
    let hello = Message::Hello {
        seq,
        protocol: opts.protocol,
        worker: opts.label.clone(),
        threads: rayon::process_thread_cap() as u64,
        expect_hash: opts.expect_hash,
    };
    let heartbeat = match request(link, &hello, "hello") {
        Ok(Message::HelloAck { heartbeat_ms, .. }) => Duration::from_millis(heartbeat_ms.max(1)),
        Ok(Message::Reject { reason, .. }) => return Ok(WorkerExit::Rejected(reason)),
        Ok(other) => {
            return Err(ProtoError::Malformed(format!(
                "unexpected {} in response to hello",
                other.kind()
            )))
        }
        Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(WorkerOutcome::default())),
        Err(e) => return Err(e),
    };
    let stopping = || opts.stop.load(Ordering::Relaxed) || shutdown_requested();
    let mut outcome = WorkerOutcome::default();
    loop {
        if stopping() {
            return Ok(WorkerExit::Finished(outcome));
        }
        seq += 1;
        let grant = match request(link, &Message::Claim { seq }, "claim") {
            Ok(msg) => msg,
            Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
            Err(e) => return Err(e),
        };
        let (grid, shard, jobs) = match grant {
            Message::Grant {
                grid,
                shard,
                spec,
                jobs,
                ..
            } => (grid, shard, granted_jobs(grid, &spec, &jobs)?),
            Message::NoWork { retry_ms, .. } => {
                // Sleep in short slices so a stop request is honoured
                // promptly even under a long retry hint.
                let mut left = retry_ms.clamp(10, 1_000);
                while left > 0 && !stopping() {
                    let slice = left.min(20);
                    std::thread::sleep(Duration::from_millis(slice));
                    left -= slice;
                }
                continue;
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected {} in response to claim",
                    other.kind()
                )))
            }
        };
        let run = match run_shard(link, opts, grid, shard, &jobs, heartbeat) {
            Ok(run) => run,
            Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
            Err(e) => return Err(e),
        };
        outcome.jobs_run += run.records;
        outcome.jobs_quarantined += run.quarantined;
        if run.complete {
            match settle_shard(link, &mut seq, grid, shard, &run) {
                Ok(()) => outcome.shards_completed += 1,
                Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
                Err(e) => return Err(e),
            }
        } else {
            // Stop requested mid-shard: hand the lease back so another
            // worker re-claims it without waiting out the TTL.
            seq += 1;
            match request(link, &Message::Release { seq, grid, shard }, "release") {
                Ok(_) | Err(ProtoError::Closed) => {}
                Err(e) => return Err(e),
            }
            return Ok(WorkerExit::Finished(outcome));
        }
    }
}

/// Turn a grant back into runnable jobs, refusing it — before anything
/// runs — unless its spec hashes to the grid it names.
fn granted_jobs(
    grid: u64,
    spec: &ResolvedSpec,
    keys: &[JobKey],
) -> Result<Vec<ManifestJob>, ProtoError> {
    let found = spec.hash();
    if found != grid {
        return Err(ProtoError::GridMismatch { grid, spec: found });
    }
    ManifestJob::at_keys(&spec.experiment_spec(), keys)
        .ok_or_else(|| ProtoError::Malformed("grant names a job off its grid".into()))
}

/// Run one granted shard: rayon fan-out in a scoped thread sending each
/// job's line as it settles, with this thread shipping the lines in
/// batches and keeping the lease alive over the link.
fn run_shard(
    link: &mut dyn FrameLink,
    opts: &SocketWorkerOptions,
    grid: u64,
    shard: u64,
    jobs: &[ManifestJob],
    heartbeat: Duration,
) -> Result<ShardRun, ProtoError> {
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let stop = opts.stop.clone();
    let attempts = opts.job_attempts;
    let budget = opts.job_wall_budget;
    let linger = LINGER.min(heartbeat);
    let mut lines: Vec<String> = Vec::new();
    let mut link_error: Option<ProtoError> = None;
    let settled = std::thread::scope(|scope| {
        let runner = scope.spawn(move || {
            // Per job: None = skipped by a stop, Some(true) = record,
            // Some(false) = quarantined.
            jobs.par_iter()
                .map(|job| {
                    if stop.load(Ordering::Relaxed) || shutdown_requested() {
                        return None;
                    }
                    let settled = run_job_guarded(job, attempts, budget);
                    let encoded = match &settled {
                        Ok(record) => encode_line(record),
                        Err(failure) => encode_failure_line(failure),
                    };
                    if let Ok(bytes) = encoded {
                        let mut text = String::from_utf8(bytes).expect("store lines are UTF-8");
                        if text.ends_with('\n') {
                            text.pop();
                        }
                        // A send failure means the streamer bailed on a
                        // dead link; the outcome still counts.
                        let _ = line_tx.send(text);
                    }
                    Some(settled.is_ok())
                })
                .collect::<Vec<Option<bool>>>()
        });
        // This thread owns the link: ship each batch once its oldest line
        // has waited `linger` (or it reaches the gather threshold), and
        // heartbeat when nothing was sent for a heartbeat interval.
        let mut batch: Vec<String> = Vec::new();
        let mut batch_bytes = 0usize;
        let mut oldest = Instant::now();
        let mut last_frame = Instant::now();
        loop {
            let due = if batch.is_empty() {
                last_frame + heartbeat
            } else {
                oldest + linger
            };
            let frame = match line_rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                Ok(line) => {
                    if batch.is_empty() {
                        oldest = Instant::now();
                    }
                    batch_bytes += line.len();
                    lines.push(line.clone());
                    batch.push(line);
                    if batch_bytes < GATHER_BYTES && oldest.elapsed() < linger {
                        continue;
                    }
                    records(grid, shard, &mut batch)
                }
                Err(RecvTimeoutError::Timeout) if batch.is_empty() => {
                    Message::Heartbeat { grid, shard }
                }
                Err(RecvTimeoutError::Timeout) => records(grid, shard, &mut batch),
                Err(RecvTimeoutError::Disconnected) => {
                    if let Err(e) = flush_batch(link, grid, shard, &mut batch) {
                        link_error = Some(e);
                    }
                    break;
                }
            };
            batch_bytes = 0;
            if let Err(e) = link.send(&frame.encode()) {
                link_error = Some(e);
                opts.stop.store(true, Ordering::Relaxed);
                break;
            }
            last_frame = Instant::now();
        }
        runner.join().expect("shard runner thread never panics")
    });
    if let Some(e) = link_error {
        return Err(e);
    }
    Ok(ShardRun {
        lines,
        records: settled.iter().filter(|s| **s == Some(true)).count(),
        quarantined: settled.iter().filter(|s| **s == Some(false)).count(),
        complete: settled.iter().all(Option::is_some),
    })
}

/// A Records frame carrying (and emptying) `batch`.
fn records(grid: u64, shard: u64, batch: &mut Vec<String>) -> Message {
    Message::Records {
        grid,
        shard,
        lines: std::mem::take(batch),
    }
}

/// Send one coalesced Records frame (no-op on an empty batch).
fn flush_batch(
    link: &mut dyn FrameLink,
    grid: u64,
    shard: u64,
    batch: &mut Vec<String>,
) -> Result<(), ProtoError> {
    if batch.is_empty() {
        return Ok(());
    }
    link.send(&records(grid, shard, batch).encode())
}

/// Reconcile shard completion: declare the sent-line count, and on a
/// [`Message::DoneNack`] resend every retained line before asking again.
fn settle_shard(
    link: &mut dyn FrameLink,
    seq: &mut u64,
    grid: u64,
    shard: u64,
    run: &ShardRun,
) -> Result<(), ProtoError> {
    for _ in 0..MAX_DONE_ROUNDS {
        *seq += 1;
        let done = Message::ShardDone {
            seq: *seq,
            grid,
            shard,
            sent: run.lines.len() as u64,
        };
        match request(link, &done, "shard_done")? {
            Message::DoneAck { .. } => return Ok(()),
            Message::DoneNack { .. } => {
                let mut batch: Vec<String> = Vec::new();
                let mut batch_bytes = 0usize;
                for line in &run.lines {
                    batch_bytes += line.len();
                    batch.push(line.clone());
                    if batch_bytes >= GATHER_BYTES {
                        flush_batch(link, grid, shard, &mut batch)?;
                        batch_bytes = 0;
                    }
                }
                flush_batch(link, grid, shard, &mut batch)?;
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected {} in response to shard_done",
                    other.kind()
                )))
            }
        }
    }
    Err(ProtoError::NoResponse("shard_done"))
}
