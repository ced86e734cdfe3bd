//! The ΔV queue-variation traffic predictor (Section III-C).
//!
//! Monitoring the queue on every packet would cost computation, so the paper
//! samples the queue length only every `K` packet arrivals (`K = 5`), giving
//! a sequence `V(t_1), V(t_2), …`.  The variation
//!
//! ```text
//! ΔV_i = V(t_i) − V(t_{i−1})
//! ```
//!
//! is used as the traffic-load predictor: ΔV ≥ 0 means the queue is growing
//! (offered load exceeds service), ΔV < 0 means it is draining.

use serde::{Deserialize, Serialize};

/// The direction the queue is trending, as seen by the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trend {
    /// ΔV ≥ 0: queue growing (or static) — offered load at least matches the
    /// service rate.
    Growing,
    /// ΔV < 0: queue draining.
    Draining,
}

/// Samples the queue length every `K` packet arrivals and reports ΔV.
///
/// `K` is scenario-wide and passed to every arrival, so only the sampling
/// history lives here.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueuePredictor {
    arrivals_since_sample: u32,
    last_sample: Option<usize>,
    last_delta: Option<i64>,
}

impl QueuePredictor {
    /// A predictor with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent queue-length sample V(t_i), if any.
    pub fn last_sample(&self) -> Option<usize> {
        self.last_sample
    }

    /// The current trend, if a ΔV is available.
    pub fn trend(&self) -> Option<Trend> {
        self.last_delta.map(|d| {
            if d >= 0 {
                Trend::Growing
            } else {
                Trend::Draining
            }
        })
    }

    /// Record one packet arrival with the queue length *after* the enqueue,
    /// sampling every `sampling_interval` (K) arrivals.
    ///
    /// Returns `Some(ΔV)` when this arrival completes a sampling interval and
    /// a previous sample exists to difference against; `None` otherwise.
    pub fn on_arrival(&mut self, sampling_interval: u32, queue_len: usize) -> Option<i64> {
        self.arrivals_since_sample += 1;
        if self.arrivals_since_sample < sampling_interval {
            return None;
        }
        self.arrivals_since_sample = 0;
        let delta = self.last_sample.map(|prev| queue_len as i64 - prev as i64);
        self.last_sample = Some(queue_len);
        if delta.is_some() {
            self.last_delta = delta;
        }
        delta
    }

    /// Forget all history (e.g. after a LEACH round change re-homes the node
    /// to a different cluster head).
    pub fn reset(&mut self) {
        self.arrivals_since_sample = 0;
        self.last_sample = None;
        self.last_delta = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_every_k_arrivals() {
        let k = 5;
        let mut p = QueuePredictor::new();
        // First 4 arrivals: no sample.
        for q in 1..=4 {
            assert_eq!(p.on_arrival(k, q), None);
        }
        // 5th arrival takes the first sample; no delta yet.
        assert_eq!(p.on_arrival(k, 5), None);
        assert_eq!(p.last_sample(), Some(5));
        // Next 5 arrivals, queue grew to 9: ΔV = +4.
        for q in [6, 7, 8, 9] {
            assert_eq!(p.on_arrival(k, q), None);
        }
        assert_eq!(p.on_arrival(k, 9), Some(4));
        assert_eq!(p.trend(), Some(Trend::Growing));
    }

    #[test]
    fn draining_queue_gives_negative_delta() {
        let k = 2;
        let mut p = QueuePredictor::new();
        p.on_arrival(k, 10);
        assert_eq!(p.on_arrival(k, 10), None); // first sample V=10
        p.on_arrival(k, 6);
        assert_eq!(p.on_arrival(k, 4), Some(-6));
        assert_eq!(p.trend(), Some(Trend::Draining));
    }

    #[test]
    fn zero_delta_counts_as_growing() {
        // The paper's rule is "if ΔV >= 0 … lower the threshold", so a flat
        // queue is treated as growth (load matches service, stay cautious).
        let k = 1;
        let mut p = QueuePredictor::new();
        p.on_arrival(k, 7);
        assert_eq!(p.on_arrival(k, 7), Some(0));
        assert_eq!(p.trend(), Some(Trend::Growing));
    }

    #[test]
    fn k_equals_one_samples_every_arrival() {
        let k = 1;
        let mut p = QueuePredictor::new();
        assert_eq!(p.on_arrival(k, 1), None);
        assert_eq!(p.on_arrival(k, 2), Some(1));
        assert_eq!(p.on_arrival(k, 2), Some(0));
        assert_eq!(p.on_arrival(k, 1), Some(-1));
    }

    #[test]
    fn reset_clears_history() {
        let k = 2;
        let mut p = QueuePredictor::new();
        p.on_arrival(k, 3);
        p.on_arrival(k, 3);
        p.on_arrival(k, 5);
        p.on_arrival(k, 5);
        assert!(p.trend().is_some());
        p.reset();
        assert_eq!(p.last_sample(), None);
        assert_eq!(p.trend(), None);
        // After a reset the first completed interval again yields no delta.
        p.on_arrival(k, 4);
        assert_eq!(p.on_arrival(k, 4), None);
    }

    #[test]
    fn no_trend_before_two_samples() {
        let k = 3;
        let mut p = QueuePredictor::new();
        assert_eq!(p.trend(), None);
        p.on_arrival(k, 1);
        p.on_arrival(k, 2);
        p.on_arrival(k, 3);
        assert_eq!(p.trend(), None, "one sample is not enough for a delta");
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        crate::policy::AdaptiveThreshold::new(&crate::config::CaemConfig {
            sampling_interval_packets: 0,
            ..crate::config::CaemConfig::paper_default()
        });
    }
}
