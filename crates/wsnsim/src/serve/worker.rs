//! The socket-transport worker loop: handshake, claim, run, stream,
//! settle.
//!
//! A socket worker needs no shared filesystem: each grant carries the
//! grid's resolved spec and the keys of the shard's pending jobs.  The
//! worker refuses a grant whose spec does not hash to the grid it names,
//! rebuilds the jobs from their keys, runs each under the quarantine guard
//! (two attempts; a job that panics on both settles as a
//! [`JobFailure`]), and streams
//! each job's store line back as the job settles, in [`Message::Records`]
//! batches that wait at most one heartbeat interval (and never grow past
//! 64 KiB).  The daemon's lease on the shard lasts as long as this
//! connection, which it closes after a lease TTL of silence, so while a
//! long job runs and no line is due the connection thread sends a
//! [`Message::Heartbeat`] every heartbeat interval (the handshake's, a
//! twelfth of the TTL).  The link delivers every frame in order, so once
//! the lines are shipped a [`Message::ShardDone`] settles the shard and the
//! worker keeps no copy of them; a job whose line never settles it is
//! re-granted by the daemon.
//!
//! **Graceful shutdown**: once the worker's stop flag is raised, unstarted
//! jobs are skipped, buffered lines are flushed and the loop returns
//! cleanly.  The caller then drops the link, and the daemon frees an
//! unfinished shard's lease as soon as it reads the hang-up.  The daemon
//! closing the connection is also a clean exit, so draining a fleet is as
//! simple as stopping the daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::experiment::{ExperimentJob, ExperimentSpec};
use crate::faults::{self, FaultPlan, RunEvent};
use crate::persist::{JobFailure, JobKey, SettledLine};

use super::proto::{Message, ProtoError, PROTOCOL_VERSION};
use super::transport::{request, FrameLink};

/// Ship a [`Message::Records`] frame once its batched lines reach this many
/// bytes: large enough to amortize framing under a burst of short jobs,
/// small enough to keep frames far below the frame cap.
const GATHER_BYTES: usize = 64 * 1024;

/// Longest a settled job's line waits in the worker before it is shipped
/// (shorter when the heartbeat interval is): what a killed worker can lose.
const LINGER: Duration = Duration::from_millis(50);

/// Attempts per job before it is quarantined.
const JOB_ATTEMPTS: u32 = 2;

/// Tuning and identity of one socket worker.
#[derive(Debug, Clone)]
pub struct SocketWorkerOptions {
    /// Display label reported in the handshake.
    pub label: String,
    /// Refuse to work unless the daemon's active grid has this grid hash.
    pub expect_hash: Option<u64>,
    /// Graceful-stop flag: raised by the embedding program or test, never
    /// by the worker itself (it may be shared by several workers); checked
    /// between jobs.
    pub stop: Arc<AtomicBool>,
    /// The fault plan the worker's jobs run under: it poisons a subset of
    /// jobs and, in a worker process, exits at the plan's K-th settled job.
    /// `None`, the default, never injects.
    pub faults: Option<Arc<FaultPlan>>,
}

impl SocketWorkerOptions {
    /// Defaults for a worker labelled `label`.
    pub fn new(label: impl Into<String>) -> Self {
        SocketWorkerOptions {
            label: label.into(),
            expect_hash: None,
            stop: Arc::new(AtomicBool::new(false)),
            faults: None,
        }
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
    /// Lines shipped to the daemon.
    sent: u64,
    records: usize,
    quarantined: usize,
    /// All granted jobs settled (false when a stop skipped some).
    complete: bool,
    /// The send that ended the shard early, if one failed.  The counts
    /// above still hold: those jobs ran whether or not their lines arrived.
    link_error: Option<ProtoError>,
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
        protocol: PROTOCOL_VERSION,
        worker: opts.label.clone(),
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
    let stopping = || opts.stop.load(Ordering::Relaxed);
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
        let (grid, shard, spec, jobs) = match grant {
            Message::Grant {
                grid,
                shard,
                spec,
                jobs,
                ..
            } => {
                let jobs = granted_jobs(grid, &spec, &jobs)?;
                (grid, shard, spec, jobs)
            }
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
        let run = run_shard(link, opts, grid, shard, &spec, &jobs, heartbeat);
        outcome.jobs_run += run.records;
        outcome.jobs_quarantined += run.quarantined;
        match run.link_error {
            None => {}
            Some(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
            Some(e) => return Err(e),
        }
        if !run.complete {
            // Stop requested mid-shard: the lease ends with the link the
            // caller drops.
            return Ok(WorkerExit::Finished(outcome));
        }
        seq += 1;
        let done = Message::ShardDone {
            seq,
            grid,
            shard,
            sent: run.sent,
        };
        match request(link, &done, "shard_done") {
            Ok(Message::DoneAck { .. }) => outcome.shards_completed += 1,
            Ok(other) => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected {} in response to shard_done",
                    other.kind()
                )))
            }
            Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
            Err(e) => return Err(e),
        }
    }
}

/// Turn a grant back into runnable jobs, refusing it — before anything
/// runs — unless its spec hashes to the grid it names.
fn granted_jobs(
    grid: u64,
    spec: &ExperimentSpec,
    keys: &[JobKey],
) -> Result<Vec<ExperimentJob>, ProtoError> {
    let found = spec.hash();
    if found != grid {
        return Err(ProtoError::GridMismatch { grid, spec: found });
    }
    spec.jobs_at(keys)
        .ok_or_else(|| ProtoError::Malformed("grant names a job off its grid".into()))
}

/// Run one job under the quarantine guard: up to [`JOB_ATTEMPTS`] tries,
/// each wrapped in `catch_unwind`; a job that never settles cleanly
/// becomes a [`JobFailure`] so the shard — and the grid — still completes.
/// A job `faults` poisons panics on every attempt.
fn run_job_guarded(
    spec: &ExperimentSpec,
    job: &ExperimentJob,
    faults: Option<&FaultPlan>,
) -> SettledLine {
    let mut reason = String::new();
    for attempt in 0..JOB_ATTEMPTS {
        if attempt > 0 {
            faults::note_event(RunEvent::JobRetried);
        }
        let settled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = faults {
                plan.poison_check(job.key());
            }
            spec.run_job(job)
        }));
        match settled {
            Ok(record) => return SettledLine::Record(record),
            Err(payload) => reason = format!("job panicked: {}", panic_text(payload.as_ref())),
        }
    }
    faults::note_event(RunEvent::JobQuarantined);
    SettledLine::Failure(JobFailure {
        scenario_index: job.scenario,
        scenario: spec.scenarios[job.scenario].label.clone(),
        policy_index: job.policy_index,
        policy: job.policy,
        seed: job.seed,
        config_hash: job.config_hash,
        attempts: JOB_ATTEMPTS,
        reason,
    })
}

/// Best-effort text of a panic payload (panics carry `String` or `&str`).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one granted shard: rayon fan-out in a scoped thread sending each
/// job's line as it settles, with this thread shipping the lines in
/// batches and keeping the lease alive over the link.  A send that fails
/// aborts the shard's unstarted jobs through a flag of the shard's own
/// (the worker's stop flag may be shared with sibling workers and belongs
/// to the embedding program) and is returned with the counts of the jobs
/// that did run.
fn run_shard(
    link: &mut dyn FrameLink,
    opts: &SocketWorkerOptions,
    grid: u64,
    shard: u64,
    spec: &ExperimentSpec,
    jobs: &[ExperimentJob],
    heartbeat: Duration,
) -> ShardRun {
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let stop = &opts.stop;
    let abort = &AtomicBool::new(false);
    let faults = opts.faults.as_deref();
    let linger = LINGER.min(heartbeat);
    let mut sent = 0u64;
    let mut link_error: Option<ProtoError> = None;
    let settled = std::thread::scope(|scope| {
        let runner = scope.spawn(move || {
            // Per job: None = skipped by a stop, Some(true) = record,
            // Some(false) = quarantined.
            jobs.par_iter()
                .map(|job| {
                    if stop.load(Ordering::Relaxed) || abort.load(Ordering::Relaxed) {
                        return None;
                    }
                    let settled = run_job_guarded(spec, job, faults);
                    // A send failure means the streamer bailed on a dead
                    // link; the outcome still counts.
                    let _ = line_tx.send(settled.encode());
                    if let Some(plan) = faults {
                        plan.kill_check();
                    }
                    Some(matches!(settled, SettledLine::Record(_)))
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
                    sent += 1;
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
                Err(RecvTimeoutError::Disconnected) if batch.is_empty() => break,
                Err(RecvTimeoutError::Disconnected) => {
                    if let Err(e) = link.send(&records(grid, shard, &mut batch).encode()) {
                        link_error = Some(e);
                    }
                    break;
                }
            };
            batch_bytes = 0;
            if let Err(e) = link.send(&frame.encode()) {
                link_error = Some(e);
                abort.store(true, Ordering::Relaxed);
                break;
            }
            last_frame = Instant::now();
        }
        runner.join().expect("shard runner thread never panics")
    });
    ShardRun {
        sent,
        records: settled.iter().filter(|s| **s == Some(true)).count(),
        quarantined: settled.iter().filter(|s| **s == Some(false)).count(),
        complete: settled.iter().all(Option::is_some),
        link_error,
    }
}

/// A Records frame carrying (and emptying) `batch`.
fn records(grid: u64, shard: u64, batch: &mut Vec<String>) -> Message {
    Message::Records {
        grid,
        shard,
        lines: std::mem::take(batch),
    }
}
