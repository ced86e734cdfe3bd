//! Deterministic fault injection, retry/backoff and recovery accounting for
//! the persistence and distribution layers.
//!
//! This module turns the failure model into a first-class, injectable
//! surface:
//!
//! 1. **Seams** — a seeded [`FaultPlan`] value, handed to each seam that
//!    consults it: the store's appends (through
//!    [`crate::persist::StoreOptions`]) tear and fail with
//!    `EINTR`/`ENOSPC`-class transient errors; loopback links (through
//!    [`crate::serve::LoopbackSpawner`]) delay frames, widening race
//!    windows without ever losing, repeating or cutting one (the service's
//!    links are reliable, so no fault models a lossy network); socket
//!    workers (through [`crate::serve::SocketWorkerOptions`]) panic on a
//!    deterministic subset of jobs (poison) — all deterministically per
//!    seed.
//! 2. **Typed error classification + bounded backoff** — [`classify_io_error`]
//!    splits IO failures into [`ErrorClass::Transient`] (worth retrying) and
//!    [`ErrorClass::Fatal`] (abort exactly once).  [`retry_transient`] retries
//!    transient failures on one fixed schedule ([`backoff_delay`]): at most
//!    [`RETRY_ATTEMPTS`] attempts, the delay doubling from 2 ms up to
//!    [`RETRY_MAX_DELAY`].
//! 3. **A counted event log** — recovery actions that used to be
//!    unconditional `eprintln!`s (torn lines skipped, leases stolen,
//!    transient retries, quarantined jobs) are now counted process-wide
//!    ([`note_event`] / [`event_count`] / [`event_summary`]) so tests and the
//!    CLI can assert on them.  The counters are observability only: they are
//!    deliberately **not** part of the canonical report artifact, which must
//!    stay byte-identical between clean and fault-injected runs.
//!
//! A plan is a value only in-process tests build: no binary reads one, and
//! no fault simulates a process crash.  A run has one plan, created once
//! and shared as an `Arc<FaultPlan>`.  A seam given no plan never
//! injects, and nothing is global: plans used side by side in one process
//! never see each other's faults, and [`FaultPlan::injected`] counts only
//! the plan's own.
//!
//! Injection is **recoverable by construction**: every fault that a bounded
//! retry is expected to absorb is injected only on a call's first attempt
//! (`attempt == 0`), so a retry loop of two attempts already guarantees
//! forward progress and a chaos grid always completes.  Poison, which
//! retries cannot absorb, is absorbed one level up by job quarantine.

use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration as StdDuration;

use crate::persist::JobKey;

// ---------------------------------------------------------------------------
// Error classification.
// ---------------------------------------------------------------------------

/// Whether an IO failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Interrupted-system-call / out-of-space-class failures that routinely
    /// clear on their own; bounded retry with backoff is the right response.
    Transient,
    /// Everything else (permissions, missing directories, corrupt handles):
    /// retrying cannot help, so the operation aborts exactly once.
    Fatal,
}

/// Classify an IO error as transient (retry with backoff) or fatal (abort).
///
/// Transient classes: `Interrupted` (`EINTR`), `WouldBlock` (`EAGAIN`),
/// `TimedOut`, `WriteZero` (a short write, the torn-append signature) and
/// the raw `ENOSPC` errno — space exhaustion is routinely cleared by a log
/// rotation or another process finishing, and the append path recovers from
/// the partial write it may have left behind.
pub fn classify_io_error(error: &io::Error) -> ErrorClass {
    use io::ErrorKind as K;
    if matches!(
        error.kind(),
        K::Interrupted | K::WouldBlock | K::TimedOut | K::WriteZero
    ) {
        return ErrorClass::Transient;
    }
    // Errno-level transients the portable ErrorKind mapping misses:
    // EINTR(4), EAGAIN(11), ENOSPC(28).
    matches!(error.raw_os_error(), Some(4 | 11 | 28))
        .then_some(ErrorClass::Transient)
        .unwrap_or(ErrorClass::Fatal)
}

// ---------------------------------------------------------------------------
// Bounded exponential backoff.
// ---------------------------------------------------------------------------

/// Stateless 64-bit finalizer (SplitMix64's mixer): the deterministic
/// randomness source for fault-plan decisions.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Total attempts [`retry_transient`] makes, the first included.
pub const RETRY_ATTEMPTS: u32 = 5;

/// The cap on any one backoff delay.
pub const RETRY_MAX_DELAY: StdDuration = StdDuration::from_millis(200);

/// The delay slept after failed attempt number `attempt` (0-based): 2 ms,
/// doubling per attempt, capped at [`RETRY_MAX_DELAY`].  The four sleeps
/// of a full [`RETRY_ATTEMPTS`] budget add up to 30 ms.
pub fn backoff_delay(attempt: u32) -> StdDuration {
    StdDuration::from_millis(2)
        .saturating_mul(1 << attempt.min(20))
        .min(RETRY_MAX_DELAY)
}

/// Run `op`, retrying transient failures (per [`classify_io_error`]) after
/// each [`backoff_delay`] up to [`RETRY_ATTEMPTS`] total attempts; fatal
/// failures — and transient failures that exhaust the budget — return the
/// error immediately.  `op` receives the 0-based attempt number (the
/// store's fault plan injects only on attempt 0, guaranteeing bounded
/// retries always recover injected faults).
pub fn retry_transient<T>(mut op: impl FnMut(u32) -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(value) => return Ok(value),
            Err(error) => {
                if classify_io_error(&error) == ErrorClass::Fatal || attempt + 1 >= RETRY_ATTEMPTS {
                    return Err(error);
                }
                note_event(RunEvent::TransientRetry);
                std::thread::sleep(backoff_delay(attempt));
                attempt += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The counted recovery-event log.
// ---------------------------------------------------------------------------

/// A counted recovery or degradation event.  Counters are process-wide and
/// observability-only: they never enter the canonical report artifact, so a
/// fault-injected run's report stays byte-identical to the clean run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEvent {
    /// A corrupt or torn JSONL line was skipped while loading a store.
    TornLineSkipped,
    /// A persisted record not belonging to the current grid was ignored.
    ForeignRecordIgnored,
    /// A shard lease was taken from a worker that hung up or went silent.
    LeaseStolen,
    /// A transient IO failure was retried with backoff.
    TransientRetry,
    /// A failed job was re-attempted before quarantine.
    JobRetried,
    /// A job exhausted its attempts and was quarantined as a
    /// [`crate::persist::JobFailure`].
    JobQuarantined,
    /// A worker connection dropped while holding a shard lease (the
    /// worker was killed, panicked, errored, or stopped mid-shard).
    WorkerAbnormalExit,
    /// The active [`FaultPlan`] injected a fault.
    FaultInjected,
    /// The service daemon closed the connection of a lease holder that
    /// stayed silent for the lease TTL.
    WorkerEvicted,
    /// A protocol frame was re-sent.  Nothing raises it any more: TCP and
    /// loopback links deliver every frame exactly once and in order, so
    /// requests are sent once.  It stays in the counter set because
    /// existing readers of the retry counters (perfbench's retry sum)
    /// name it; it always reads 0.
    FrameRetried,
    /// A durable daemon could not write its submission journal or a grid's
    /// store; the grid carried on in memory.
    JournalWriteFailed,
}

/// Every [`RunEvent`] variant, in counter order.
const RUN_EVENTS: [RunEvent; 11] = [
    RunEvent::TornLineSkipped,
    RunEvent::ForeignRecordIgnored,
    RunEvent::LeaseStolen,
    RunEvent::TransientRetry,
    RunEvent::JobRetried,
    RunEvent::JobQuarantined,
    RunEvent::WorkerAbnormalExit,
    RunEvent::FaultInjected,
    RunEvent::WorkerEvicted,
    RunEvent::FrameRetried,
    RunEvent::JournalWriteFailed,
];

impl RunEvent {
    fn index(self) -> usize {
        RUN_EVENTS
            .iter()
            .position(|&e| e == self)
            .expect("RUN_EVENTS covers every variant")
    }

    /// Human-readable counter label.
    pub fn label(self) -> &'static str {
        match self {
            RunEvent::TornLineSkipped => "torn lines skipped",
            RunEvent::ForeignRecordIgnored => "foreign records ignored",
            RunEvent::LeaseStolen => "leases stolen",
            RunEvent::TransientRetry => "transient IO retries",
            RunEvent::JobRetried => "job retries",
            RunEvent::JobQuarantined => "jobs quarantined",
            RunEvent::WorkerAbnormalExit => "abnormal worker exits",
            RunEvent::FaultInjected => "faults injected",
            RunEvent::WorkerEvicted => "stale workers evicted",
            RunEvent::FrameRetried => "frames retried",
            RunEvent::JournalWriteFailed => "journal writes failed",
        }
    }
}

static EVENT_COUNTS: [AtomicU64; RUN_EVENTS.len()] =
    [const { AtomicU64::new(0) }; RUN_EVENTS.len()];

/// Count one occurrence of `event`.
pub fn note_event(event: RunEvent) {
    note_events(event, 1);
}

/// Count `n` occurrences of `event`.
pub fn note_events(event: RunEvent, n: u64) {
    EVENT_COUNTS[event.index()].fetch_add(n, Ordering::Relaxed);
}

/// This process's running count of `event`.
pub fn event_count(event: RunEvent) -> u64 {
    EVENT_COUNTS[event.index()].load(Ordering::Relaxed)
}

/// Snapshot of every event counter, in `RUN_EVENTS` order.
pub fn event_counters() -> Vec<(RunEvent, u64)> {
    RUN_EVENTS.iter().map(|&e| (e, event_count(e))).collect()
}

/// Zero every event counter (test isolation).
pub fn reset_events() {
    for counter in &EVENT_COUNTS {
        counter.store(0, Ordering::Relaxed);
    }
}

/// One-line summary of the non-zero event counters, or `None` when this
/// process recorded no recovery events at all (the common clean-run case).
pub fn event_summary() -> Option<String> {
    let parts: Vec<String> = event_counters()
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(e, n)| format!("{n} {}", e.label()))
        .collect();
    if parts.is_empty() {
        None
    } else {
        Some(format!("recovery events: {}", parts.join(", ")))
    }
}

// ---------------------------------------------------------------------------
// Fault plans.
// ---------------------------------------------------------------------------

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Store appends occasionally write half the line, then fail transient.
    Torn,
    /// Store appends occasionally fail with `EINTR`/`ENOSPC`-class transient
    /// errors without writing anything.
    Transient,
    /// Loopback frame delivery is occasionally stalled by a few
    /// milliseconds, widening race windows.
    Delay,
    /// A deterministic subset of jobs panics inside the runner, exercising
    /// retry + quarantine.
    Poison,
}

/// Every [`FaultKind`].
pub const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::Torn,
    FaultKind::Transient,
    FaultKind::Delay,
    FaultKind::Poison,
];

/// The declarative description of a fault schedule: a seed plus the enabled
/// fault classes.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// The enabled fault classes.
    pub kinds: Vec<FaultKind>,
}

/// Marker carried in injected poison panics, so the quarantine path can be
/// asserted on and the panic hook can keep injected panics off stderr.
pub const POISON_MARKER: &str = "caem-injected-poison";

static POISON_HOOK: Once = Once::new();

/// A live, seeded fault schedule (the runtime form of [`FaultPlanConfig`]).
///
/// Decisions draw from a deterministic counter-based stream: the N-th
/// injectable operation under one plan makes the same decision in every
/// run with the same seed.  Faults a retry is expected to absorb are
/// injected only on `attempt == 0`, so bounded retries always recover.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    draws: AtomicU64,
    injected: AtomicU64,
}

impl FaultPlan {
    /// The live plan for `cfg`.  A plan with `poison` also keeps injected
    /// poison panics off stderr: they are expected and quarantined, and
    /// would otherwise drown real panic reports.
    pub fn new(cfg: FaultPlanConfig) -> Arc<Self> {
        if cfg.kinds.contains(&FaultKind::Poison) {
            POISON_HOOK.call_once(|| {
                let default_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let payload = info
                        .payload()
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| info.payload().downcast_ref::<&str>().copied())
                        .unwrap_or("");
                    if !payload.contains(POISON_MARKER) {
                        default_hook(info);
                    }
                }));
            });
        }
        Arc::new(FaultPlan {
            cfg,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        })
    }

    /// Faults this plan has injected so far (store appends and loopback
    /// frame delays).  Unlike the process-wide [`RunEvent::FaultInjected`]
    /// counter, no other plan in the process can move it.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn note_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        note_event(RunEvent::FaultInjected);
    }

    fn has(&self, kind: FaultKind) -> bool {
        self.cfg.kinds.contains(&kind)
    }

    fn draw(&self) -> u64 {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        mix64(self.cfg.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// An injected transient error, rotating through the transient classes
    /// so every class is exercised.
    fn injected_error(&self, what: &str) -> io::Error {
        let kinds = [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WriteZero,
        ];
        let kind = kinds[(self.draw() % kinds.len() as u64) as usize];
        io::Error::new(kind, format!("injected transient fault: {what}"))
    }

    /// The store-append seam, called before `line` is written on attempt
    /// number `attempt`: occasionally tear the append (half the bytes land,
    /// then the "syscall" fails) or fail it outright, always with a
    /// transient error.  The recovery path must newline-terminate a torn
    /// fragment before rewriting, or the retry would fuse with it.
    pub(crate) fn store_append_fault(
        &self,
        file: &mut File,
        line: &[u8],
        attempt: u32,
    ) -> io::Result<()> {
        if attempt != 0 {
            return Ok(());
        }
        if self.has(FaultKind::Torn) && self.draw().is_multiple_of(5) {
            self.note_injected();
            let _ = file.write_all(&line[..line.len() / 2]);
            return Err(self.injected_error("torn store append"));
        }
        if self.has(FaultKind::Transient) && self.draw().is_multiple_of(6) {
            self.note_injected();
            return Err(self.injected_error("store append"));
        }
        Ok(())
    }

    /// The loopback-link seam, called as a frame is sent: under a `delay`
    /// plan, the N-th frame is occasionally stalled by 1–5 ms,
    /// deterministically per seed.  That is the only frame fault: the
    /// service's links never lose, repeat or cut a frame, so neither does
    /// a faulted loopback link.  The TCP transport never consults it.
    pub(crate) fn frame_delay(&self) -> Option<StdDuration> {
        if !(self.has(FaultKind::Delay) && self.draw().is_multiple_of(5)) {
            return None;
        }
        self.note_injected();
        Some(StdDuration::from_millis(1 + self.draw() % 5))
    }

    /// Whether the plan poisons the job at `key`: a deterministic ~1/16
    /// subset of the grid, stable across processes and runs of the same
    /// seed (so a retried poison job fails again and is quarantined).
    pub fn is_poisoned(&self, key: JobKey) -> bool {
        if !self.has(FaultKind::Poison) {
            return false;
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ self.cfg.seed;
        for word in [key.0 as u64, key.1 as u64, key.2] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash.is_multiple_of(16)
    }

    /// Panic iff the plan poisons the job at `key` — called inside the
    /// guarded runner's `catch_unwind`, so an injected poison exercises
    /// exactly the retry/quarantine path a genuinely panicking job would.
    pub(crate) fn poison_check(&self, key: JobKey) {
        if self.is_poisoned(key) {
            panic!(
                "{POISON_MARKER}: injected poison in job (scenario {}, policy {}, seed {})",
                key.0, key.1, key.2
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        for attempt in 0..40 {
            let d = backoff_delay(attempt);
            assert_eq!(d, backoff_delay(attempt), "deterministic");
            assert!(d <= RETRY_MAX_DELAY, "bounded at attempt {attempt}");
            assert!(d > StdDuration::ZERO);
        }
        let budget: StdDuration = (0..RETRY_ATTEMPTS - 1).map(backoff_delay).sum();
        assert_eq!(budget, StdDuration::from_millis(30));
    }

    #[test]
    fn transient_errors_retry_and_fatal_errors_abort_once() {
        let mut calls = 0;
        let out: io::Result<u32> = retry_transient(|_| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3, "two transient failures were retried");

        let mut calls = 0;
        let out: io::Result<u32> = retry_transient(|_| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "EACCES"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "fatal errors abort exactly once");
    }

    #[test]
    fn enospc_errno_classifies_transient() {
        assert_eq!(
            classify_io_error(&io::Error::from_raw_os_error(28)),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_io_error(&io::Error::new(io::ErrorKind::NotFound, "gone")),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn poison_selection_is_deterministic_and_partial() {
        let cfg = FaultPlanConfig {
            seed: 16,
            kinds: vec![FaultKind::Poison],
        };
        let plan = FaultPlan::new(cfg.clone());
        let again = FaultPlan::new(cfg);
        let keys: Vec<JobKey> = (0..6)
            .flat_map(|s| (0..3).flat_map(move |p| (0..8).map(move |seed| (s, p, seed))))
            .collect();
        let poisoned: Vec<bool> = keys.iter().map(|&k| plan.is_poisoned(k)).collect();
        assert_eq!(
            poisoned,
            keys.iter()
                .map(|&k| again.is_poisoned(k))
                .collect::<Vec<_>>(),
            "same seed, same poison set"
        );
        let count = poisoned.iter().filter(|&&p| p).count();
        assert!(count > 0, "some jobs are poisoned");
        assert!(count < keys.len(), "most jobs are not");
    }
}
