//! Random backoff before accessing the data channel.
//!
//! Section III-B: when a sensor finds the channel idle and the quality above
//! its threshold, it "backs off for a random period of time, which equals
//! `rand[0,1) × 2^r × 20 × CW`", where `r` is the number of times the packet
//! has been retransmitted (capped at 6) and `CW` is the contention window
//! size (Table II: 10).  The base slot of 20 µs corresponds to the RFM-class
//! radio's turnaround granularity; with `CW = 10` the first-attempt backoff
//! is uniform in `[0, 200 µs)` and the cap (r = 6) stretches it to
//! `[0, 12.8 ms)`.

use caem_simcore::rng::StreamRng;
use caem_simcore::time::Duration;
use serde::{Deserialize, Serialize};

/// Maximum number of retransmissions of a single packet (paper: 6).
const MAX_RETRANSMISSIONS: u32 = 6;

/// Backoff parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackoffConfig {
    /// Base slot time multiplied into every backoff (paper: "20", read as
    /// 20 µs).
    pub slot: Duration,
    /// Contention window size (Table II: 10).
    pub contention_window: u32,
    /// Retransmission cap for the exponent (paper: 6).
    pub max_retransmissions: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig::paper_default()
    }
}

impl BackoffConfig {
    /// The paper's parameters: 20 µs slot, CW = 10, r ≤ 6.
    pub fn paper_default() -> Self {
        BackoffConfig {
            slot: Duration::from_micros(20),
            contention_window: 10,
            max_retransmissions: MAX_RETRANSMISSIONS,
        }
    }

    /// Largest possible backoff for a given retry count.
    pub fn max_backoff(&self, retries: u32) -> Duration {
        let r = retries.min(self.max_retransmissions);
        self.slot * (1u64 << r) * self.contention_window as u64
    }
}

/// Stateful backoff scheduler for one sensor node.
///
/// Holds the node's random stream and retry count only; the scenario-wide
/// [`BackoffConfig`] is passed to every call that needs it.
#[derive(Debug, Clone)]
pub struct BackoffScheduler {
    rng: StreamRng,
    retries: u32,
}

impl BackoffScheduler {
    /// Create a scheduler with its own random stream.
    pub fn new(rng: StreamRng) -> Self {
        BackoffScheduler { rng, retries: 0 }
    }

    /// Current retransmission count for the head-of-line packet.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Draw the backoff interval for the next access attempt:
    /// `rand[0,1) × 2^r × slot × CW`.
    pub fn next_backoff(&mut self, config: &BackoffConfig) -> Duration {
        let r = self.retries.min(config.max_retransmissions);
        let window = config.max_backoff(r);
        window.mul_f64(self.rng.next_f64())
    }

    /// Record that the current attempt failed (collision or lost channel):
    /// the retry counter grows, widening subsequent backoffs, and the method
    /// reports whether the packet may still be retried.
    pub fn record_failure(&mut self, config: &BackoffConfig) -> bool {
        self.retries += 1;
        self.retries <= config.max_retransmissions
    }

    /// Record a successful transmission: the retry counter resets for the
    /// next head-of-line packet.
    pub fn record_success(&mut self) {
        self.retries = 0;
    }

    /// Has the head-of-line packet exhausted its retransmission budget?
    pub fn exhausted(&self, config: &BackoffConfig) -> bool {
        self.retries > config.max_retransmissions
    }

    /// Give up on the head-of-line packet (after exhaustion): reset retries.
    pub fn reset(&mut self) {
        self.retries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: &BackoffConfig = &BackoffConfig {
        slot: Duration::from_micros(20),
        contention_window: 10,
        max_retransmissions: MAX_RETRANSMISSIONS,
    };

    fn scheduler(seed: u64) -> BackoffScheduler {
        BackoffScheduler::new(StreamRng::from_seed_u64(seed))
    }

    #[test]
    fn paper_defaults() {
        let c = BackoffConfig::paper_default();
        assert_eq!(c.slot, Duration::from_micros(20));
        assert_eq!(c.contention_window, 10);
        assert_eq!(c.max_retransmissions, 6);
        assert_eq!(c.max_backoff(0), Duration::from_micros(200));
        assert_eq!(c.max_backoff(6), Duration::from_micros(200 * 64));
        // Retries beyond the cap do not widen the window further.
        assert_eq!(c.max_backoff(20), c.max_backoff(6));
    }

    #[test]
    fn backoff_is_within_window() {
        let mut s = scheduler(1);
        for _ in 0..1000 {
            let b = s.next_backoff(PAPER);
            assert!(b <= PAPER.max_backoff(0));
        }
    }

    #[test]
    fn backoff_window_doubles_with_failures() {
        let mut s = scheduler(2);
        let samples = |s: &mut BackoffScheduler, n: usize| -> f64 {
            (0..n)
                .map(|_| s.next_backoff(PAPER).as_secs_f64())
                .sum::<f64>()
                / n as f64
        };
        let mean0 = samples(&mut s, 2000);
        s.record_failure(PAPER);
        let mean1 = samples(&mut s, 2000);
        s.record_failure(PAPER);
        let mean2 = samples(&mut s, 2000);
        // Mean of U[0, W) is W/2; each failure doubles W.
        assert!((mean1 / mean0 - 2.0).abs() < 0.3, "{mean1}/{mean0}");
        assert!((mean2 / mean1 - 2.0).abs() < 0.3, "{mean2}/{mean1}");
    }

    #[test]
    fn success_resets_retries() {
        let mut s = scheduler(3);
        s.record_failure(PAPER);
        s.record_failure(PAPER);
        assert_eq!(s.retries(), 2);
        s.record_success();
        assert_eq!(s.retries(), 0);
        assert!(!s.exhausted(PAPER));
    }

    #[test]
    fn exhaustion_after_max_retransmissions() {
        let mut s = scheduler(4);
        for i in 1..=6 {
            let may_retry = s.record_failure(PAPER);
            assert!(may_retry, "retry {i} should still be allowed");
        }
        let may_retry = s.record_failure(PAPER);
        assert!(!may_retry, "7th failure exceeds the cap");
        assert!(s.exhausted(PAPER));
        s.reset();
        assert!(!s.exhausted(PAPER));
        assert_eq!(s.retries(), 0);
    }

    #[test]
    fn backoff_distribution_is_roughly_uniform() {
        let mut s = scheduler(5);
        let window = PAPER.max_backoff(0).as_secs_f64();
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| s.next_backoff(PAPER).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - window / 2.0).abs() < window * 0.03, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = scheduler(9);
        let mut b = scheduler(9);
        for _ in 0..100 {
            assert_eq!(a.next_backoff(PAPER), b.next_backoff(PAPER));
        }
    }
}
