//! Short-term fairness: the standard deviation of per-node queue lengths
//! (Fig. 12).
//!
//! "As all sensors are homogeneous Poisson sources bearing the same packet
//! arrival rate, we can define fairness here as the standard deviation of
//! queue length … we have taken several snapshots of the value during the
//! observed time \[and\] average them."  A smaller value means bandwidth is
//! being shared more evenly (nobody's queue is ballooning while others drain).

use caem_simcore::stats::RunningStats;
use serde::{Deserialize, Serialize};

/// Accumulates queue-length snapshots and reports the averaged standard
/// deviation (the Fig. 12 metric).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueueFairness {
    /// Running statistics over the per-snapshot standard deviations.
    snapshot_stddevs: RunningStats,
    /// Running statistics over the per-snapshot mean queue lengths (context
    /// for interpreting the deviation).
    snapshot_means: RunningStats,
}

impl QueueFairness {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one snapshot of every live node's queue length.
    ///
    /// Snapshots of an empty slice (no live nodes) are ignored.
    pub fn snapshot(&mut self, queue_lengths: &[usize]) {
        if queue_lengths.is_empty() {
            return;
        }
        let mut stats = RunningStats::new();
        stats.extend(queue_lengths.iter().map(|&q| q as f64));
        self.snapshot_stddevs.push(stats.std_dev());
        self.snapshot_means.push(stats.mean());
    }

    /// Record one snapshot straight from structure-of-arrays hot columns:
    /// `queue_lengths[i]` counts only when `alive[i] && !is_head[i]` (heads
    /// are sinks — their aggregation queue is not contended bandwidth).
    ///
    /// Numerically identical to filtering the columns into a slice and
    /// calling [`QueueFairness::snapshot`]: the same values are pushed into
    /// the same running accumulators in the same (node) order, without the
    /// intermediate copy.  A snapshot with no eligible node is ignored.
    pub fn snapshot_masked(&mut self, queue_lengths: &[u32], alive: &[bool], is_head: &[bool]) {
        assert_eq!(queue_lengths.len(), alive.len());
        assert_eq!(queue_lengths.len(), is_head.len());
        let mut stats = RunningStats::new();
        for i in 0..queue_lengths.len() {
            if alive[i] && !is_head[i] {
                stats.push(queue_lengths[i] as f64);
            }
        }
        if stats.count() == 0 {
            return;
        }
        self.snapshot_stddevs.push(stats.std_dev());
        self.snapshot_means.push(stats.mean());
    }

    /// Number of snapshots recorded.
    pub fn snapshots(&self) -> u64 {
        self.snapshot_stddevs.count()
    }

    /// The Fig. 12 metric: snapshot standard deviations averaged over the run.
    pub fn mean_std_dev(&self) -> f64 {
        self.snapshot_stddevs.mean()
    }

    /// Average queue length across snapshots (context metric).
    pub fn mean_queue_length(&self) -> f64 {
        self.snapshot_means.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_fair_network_has_zero_deviation() {
        let mut f = QueueFairness::new();
        f.snapshot(&[3, 3, 3, 3]);
        f.snapshot(&[7, 7, 7, 7]);
        assert_eq!(f.snapshots(), 2);
        assert_eq!(f.mean_std_dev(), 0.0);
        assert_eq!(f.mean_queue_length(), 5.0);
    }

    #[test]
    fn unfair_network_has_positive_deviation() {
        let mut fair = QueueFairness::new();
        let mut unfair = QueueFairness::new();
        // Same total backlog, different spread.
        fair.snapshot(&[5, 5, 5, 5]);
        unfair.snapshot(&[0, 0, 0, 20]);
        assert!(unfair.mean_std_dev() > fair.mean_std_dev());
        assert!((unfair.mean_std_dev() - 8.66).abs() < 0.01);
    }

    #[test]
    fn snapshots_are_averaged() {
        let mut f = QueueFairness::new();
        f.snapshot(&[0, 10]); // std dev = 5
        f.snapshot(&[5, 5]); // std dev = 0
        assert_eq!(f.snapshots(), 2);
        assert!((f.mean_std_dev() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn masked_snapshot_matches_filtered_copy() {
        let queues: [u32; 6] = [4, 9, 0, 7, 2, 30];
        let alive = [true, true, false, true, true, true];
        let is_head = [false, true, false, false, false, false];
        // Reference: filter into a slice, snapshot that.
        let filtered: Vec<usize> = (0..6)
            .filter(|&i| alive[i] && !is_head[i])
            .map(|i| queues[i] as usize)
            .collect();
        let mut reference = QueueFairness::new();
        reference.snapshot(&filtered);
        let mut masked = QueueFairness::new();
        masked.snapshot_masked(&queues, &alive, &is_head);
        assert_eq!(masked.snapshots(), 1);
        assert_eq!(
            masked.mean_std_dev().to_bits(),
            reference.mean_std_dev().to_bits()
        );
        assert_eq!(
            masked.mean_queue_length().to_bits(),
            reference.mean_queue_length().to_bits()
        );
        // All nodes masked out ⇒ ignored, like an empty slice.
        let mut empty = QueueFairness::new();
        empty.snapshot_masked(&queues, &[false; 6], &is_head);
        assert_eq!(empty.snapshots(), 0);
    }

    #[test]
    fn empty_snapshot_is_ignored() {
        let mut f = QueueFairness::new();
        f.snapshot(&[]);
        assert_eq!(f.snapshots(), 0);
        assert_eq!(f.mean_std_dev(), 0.0);
    }
}
