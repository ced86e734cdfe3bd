//! Burst sizing: how many buffered packets one channel access may carry.
//!
//! Section IV: frequent data-radio start-ups waste considerable energy and
//! time (the RFM radio needs ~20 ms to wake), so the paper amortises each
//! start-up over a *burst* of packets: "the minimum number of packets sent
//! for one transmission is 3.  And to ensure fairness among sensor nodes,
//! the maximal number of packets sent per transmission is fixed at 8."

use serde::{Deserialize, Serialize};

/// Paper minimum burst size (packets per channel access).
const MIN_PACKETS_PER_BURST: usize = 3;
/// Paper maximum burst size (packets per channel access).
const MAX_PACKETS_PER_BURST: usize = 8;

/// Burst sizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstPolicy {
    /// Minimum packets that must be queued before a transmission is worth a
    /// radio start-up.
    pub min_packets: usize,
    /// Maximum packets one access may drain (fairness cap).
    pub max_packets: usize,
}

impl Default for BurstPolicy {
    fn default() -> Self {
        BurstPolicy::paper_default()
    }
}

impl BurstPolicy {
    /// The paper's burst bounds: 3..=8 packets.
    pub fn paper_default() -> Self {
        BurstPolicy {
            min_packets: MIN_PACKETS_PER_BURST,
            max_packets: MAX_PACKETS_PER_BURST,
        }
    }

    /// Create a custom policy (used by the ablation bench).
    pub fn new(min_packets: usize, max_packets: usize) -> Self {
        assert!(min_packets >= 1, "burst minimum must be at least 1");
        assert!(
            max_packets >= min_packets,
            "burst maximum must be >= minimum"
        );
        BurstPolicy {
            min_packets,
            max_packets,
        }
    }

    /// Is a transmission worth starting with `queued` packets buffered?
    ///
    /// The minimum is waived when the node's buffer is under overflow
    /// pressure (`urgent`), e.g. the queue has reached the CAEM queue
    /// threshold — waiting for a third packet while dropping others would be
    /// self-defeating.
    pub fn should_transmit(&self, queued: usize, urgent: bool) -> bool {
        if queued == 0 {
            return false;
        }
        urgent || queued >= self.min_packets
    }

    /// How many packets the next burst should carry given `queued` waiting.
    pub fn burst_size(&self, queued: usize) -> usize {
        queued.min(self.max_packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = BurstPolicy::paper_default();
        assert_eq!(p.min_packets, 3);
        assert_eq!(p.max_packets, 8);
    }

    #[test]
    fn transmit_gate_respects_minimum() {
        let p = BurstPolicy::paper_default();
        assert!(!p.should_transmit(0, false));
        assert!(!p.should_transmit(1, false));
        assert!(!p.should_transmit(2, false));
        assert!(p.should_transmit(3, false));
        assert!(p.should_transmit(50, false));
    }

    #[test]
    fn urgent_waives_minimum_but_not_empty_queue() {
        let p = BurstPolicy::paper_default();
        assert!(p.should_transmit(1, true));
        assert!(p.should_transmit(2, true));
        assert!(!p.should_transmit(0, true));
    }

    #[test]
    fn burst_size_is_capped_at_maximum() {
        let p = BurstPolicy::paper_default();
        assert_eq!(p.burst_size(1), 1);
        assert_eq!(p.burst_size(5), 5);
        assert_eq!(p.burst_size(8), 8);
        assert_eq!(p.burst_size(9), 8);
        assert_eq!(p.burst_size(100), 8);
    }

    #[test]
    fn custom_policy_for_ablation() {
        let p = BurstPolicy::new(1, 16);
        assert!(p.should_transmit(1, false));
        assert_eq!(p.burst_size(20), 16);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_rejected() {
        BurstPolicy::new(5, 3);
    }

    #[test]
    #[should_panic]
    fn zero_minimum_rejected() {
        BurstPolicy::new(0, 3);
    }
}
