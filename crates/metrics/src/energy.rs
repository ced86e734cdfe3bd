//! Energy metrics: the Fig. 8 remaining-energy curve and the Fig. 11
//! per-packet energy efficiency measure.

use caem_simcore::stats::TimeSeries;
use caem_simcore::time::SimTime;

/// Tracks the network-wide average remaining energy over time (Fig. 8).
#[derive(Debug, Clone)]
pub struct EnergyTracker {
    series: TimeSeries,
    node_count: usize,
}

impl EnergyTracker {
    /// Create a tracker for `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "need at least one node");
        EnergyTracker {
            series: TimeSeries::new(),
            node_count,
        }
    }

    /// Record a snapshot: `remaining` holds each node's remaining energy (J).
    pub fn snapshot(&mut self, now: SimTime, remaining: &[f64]) {
        debug_assert_eq!(remaining.len(), self.node_count);
        let avg = remaining.iter().sum::<f64>() / self.node_count as f64;
        self.series.push_at(now, avg);
    }

    /// The recorded time series (seconds, joules).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Average remaining energy at an arbitrary time (interpolated).
    pub fn average_at(&self, time_secs: f64) -> Option<f64> {
        self.series.value_at(time_secs)
    }

    /// Total energy consumed by the whole network at the last snapshot,
    /// given the per-node initial energy.
    pub fn total_consumed(&self, initial_per_node_j: f64) -> f64 {
        match self.series.last() {
            Some((_, avg_remaining)) => {
                (initial_per_node_j - avg_remaining) * self.node_count as f64
            }
            None => 0.0,
        }
    }
}

/// Average energy consumed per successfully delivered packet (Fig. 11).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerPacketEnergy {
    /// Total network energy consumed (J).
    pub total_energy_j: f64,
    /// Packets successfully delivered to a sink.
    pub delivered_packets: u64,
}

impl PerPacketEnergy {
    /// Create from totals.
    pub fn new(total_energy_j: f64, delivered_packets: u64) -> Self {
        PerPacketEnergy {
            total_energy_j,
            delivered_packets,
        }
    }

    /// Average energy per delivered packet in joules (`None` if nothing was
    /// delivered).
    pub fn joules_per_packet(&self) -> Option<f64> {
        (self.delivered_packets > 0).then(|| self.total_energy_j / self.delivered_packets as f64)
    }

    /// Same, in millijoules.
    pub fn millijoules_per_packet(&self) -> Option<f64> {
        self.joules_per_packet().map(|j| j * 1e3)
    }

    /// Relative saving of `self` versus a `baseline` (e.g. Scheme 1 vs pure
    /// LEACH): positive means `self` is cheaper per packet.
    pub fn saving_vs(&self, baseline: &PerPacketEnergy) -> Option<f64> {
        match (self.joules_per_packet(), baseline.joules_per_packet()) {
            (Some(a), Some(b)) if b > 0.0 => Some(1.0 - a / b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_averages_across_nodes() {
        let mut t = EnergyTracker::new(4);
        t.snapshot(SimTime::ZERO, &[10.0, 10.0, 10.0, 10.0]);
        t.snapshot(SimTime::from_secs(100), &[8.0, 6.0, 9.0, 5.0]);
        assert_eq!(t.average_at(0.0), Some(10.0));
        assert_eq!(t.average_at(100.0), Some(7.0));
        // Interpolation halfway.
        assert_eq!(t.average_at(50.0), Some(8.5));
        assert_eq!(t.series().len(), 2);
    }

    #[test]
    fn total_consumed_from_last_snapshot() {
        let mut t = EnergyTracker::new(10);
        t.snapshot(SimTime::ZERO, &[10.0; 10]);
        t.snapshot(SimTime::from_secs(60), &[4.0; 10]);
        assert!((t.total_consumed(10.0) - 60.0).abs() < 1e-9);
        let empty = EnergyTracker::new(3);
        assert_eq!(empty.total_consumed(10.0), 0.0);
    }

    #[test]
    fn per_packet_energy_division() {
        let p = PerPacketEnergy::new(2.0, 400);
        assert_eq!(p.joules_per_packet(), Some(0.005));
        assert_eq!(p.millijoules_per_packet(), Some(5.0));
        let none = PerPacketEnergy::new(2.0, 0);
        assert_eq!(none.joules_per_packet(), None);
    }

    #[test]
    fn saving_vs_baseline() {
        // The paper's headline: CAEM saves 30–40 % per packet over pure LEACH.
        let caem = PerPacketEnergy::new(6.0, 1000);
        let leach = PerPacketEnergy::new(10.0, 1000);
        let saving = caem.saving_vs(&leach).unwrap();
        assert!((saving - 0.4).abs() < 1e-9);
        // Saving against an empty baseline is undefined.
        assert_eq!(caem.saving_vs(&PerPacketEnergy::new(1.0, 0)), None);
    }

    #[test]
    #[should_panic]
    fn zero_nodes_rejected() {
        EnergyTracker::new(0);
    }
}
