//! Properties of the fault-injection harness: the backoff schedule is
//! deterministic and bounded, every transient IO error class is retried,
//! and fatal errors abort exactly once.

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use caem_suite::wsnsim::faults::{
    backoff_delay, classify_io_error, retry_transient, ErrorClass, RETRY_ATTEMPTS, RETRY_MAX_DELAY,
};

/// Every io::Error the harness classifies as transient, by construction.
fn transient_errors() -> Vec<io::Error> {
    vec![
        io::Error::new(io::ErrorKind::Interrupted, "eintr"),
        io::Error::new(io::ErrorKind::WouldBlock, "eagain"),
        io::Error::new(io::ErrorKind::TimedOut, "timeout"),
        io::Error::new(io::ErrorKind::WriteZero, "short write"),
        io::Error::from_raw_os_error(4),  // EINTR
        io::Error::from_raw_os_error(11), // EAGAIN
        io::Error::from_raw_os_error(28), // ENOSPC
    ]
}

/// A representative sample of fatal (non-retryable) errors.
fn fatal_errors() -> Vec<io::Error> {
    vec![
        io::Error::new(io::ErrorKind::PermissionDenied, "eacces"),
        io::Error::new(io::ErrorKind::NotFound, "enoent"),
        io::Error::new(io::ErrorKind::InvalidData, "corrupt"),
        io::Error::from_raw_os_error(13), // EACCES
    ]
}

/// Clone an io::Error closely enough for the classifier (kind + raw errno).
fn reissue(error: &io::Error) -> io::Error {
    match error.raw_os_error() {
        Some(code) => io::Error::from_raw_os_error(code),
        None => io::Error::new(error.kind(), error.to_string()),
    }
}

/// The schedule doubles from 2 ms, never exceeds its cap however deep the
/// retry goes, and replays identically.
#[test]
fn backoff_is_deterministic_per_seed_and_bounded() {
    assert_eq!(backoff_delay(0), Duration::from_millis(2));
    for attempt in 0..64 {
        let delay = backoff_delay(attempt);
        assert_eq!(delay, backoff_delay(attempt));
        assert!(delay <= RETRY_MAX_DELAY);
        assert!(delay > Duration::ZERO);
        let next = backoff_delay(attempt + 1);
        assert!(
            next == delay * 2 || next == RETRY_MAX_DELAY,
            "attempt {attempt}"
        );
    }
}

#[test]
fn every_transient_error_class_is_retried_to_success() {
    for template in transient_errors() {
        let calls = AtomicU32::new(0);
        let result = retry_transient(|_attempt| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(reissue(&template))
            } else {
                Ok(())
            }
        });
        assert!(result.is_ok(), "{template}: should recover on retry");
        assert_eq!(calls.load(Ordering::SeqCst), 3, "{template}: two retries");
        assert_eq!(classify_io_error(&template), ErrorClass::Transient);
    }
}

#[test]
fn transient_errors_exhaust_the_attempt_budget_then_surface() {
    for template in transient_errors() {
        let calls = AtomicU32::new(0);
        let result: io::Result<()> = retry_transient(|_attempt| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(reissue(&template))
        });
        assert!(result.is_err(), "{template}: persistent failure surfaces");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            RETRY_ATTEMPTS,
            "{template}: every budgeted attempt was used"
        );
    }
}

#[test]
fn fatal_errors_abort_exactly_once() {
    for template in fatal_errors() {
        let calls = AtomicU32::new(0);
        let result: io::Result<()> = retry_transient(|_attempt| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(reissue(&template))
        });
        assert!(result.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1, "{template}: no retry");
        assert_eq!(classify_io_error(&template), ErrorClass::Fatal);
    }
}
