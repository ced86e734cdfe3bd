//! Simulation output: the metric trackers the figure binaries consume.

use caem::policy::PolicyKind;
use caem_energy::battery::EnergyLedger;
use caem_metrics::energy::{EnergyTracker, PerPacketEnergy};
use caem_metrics::fairness::QueueFairness;
use caem_metrics::lifetime::LifetimeTracker;
use caem_metrics::perf::NetworkPerformance;
use caem_metrics::prof::Profile;
use caem_simcore::time::SimTime;

/// A compact per-node summary included in the result.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// Node index.
    pub id: usize,
    /// Remaining energy at the end of the run (J).
    pub remaining_energy_j: f64,
    /// Time of death, if the node depleted its battery.
    pub death_time: Option<SimTime>,
    /// Packets this node generated.
    pub generated: u64,
    /// Packets of this node delivered to a sink (including self-delivery
    /// while serving as head).
    pub delivered: u64,
    /// Packets dropped at this node's buffer.
    pub dropped: u64,
    /// Times this node served as cluster head.
    pub head_terms: u64,
}

/// Everything a single simulation run produces.
pub struct SimulationResult {
    /// The protocol variant that was run.
    pub policy: PolicyKind,
    /// Per-node mean traffic rate (packets/second) of the scenario.
    pub traffic_rate_pps: f64,
    /// Master seed of the run.
    pub seed: u64,
    /// Virtual time at which the run stopped.
    pub end_time: SimTime,
    /// Fig. 8: average remaining energy over time.
    pub energy: EnergyTracker,
    /// Fig. 9 / Fig. 10: node deaths and network lifetime.
    pub lifetime: LifetimeTracker,
    /// Delay / throughput / delivery-rate metrics (long-version extension).
    pub perf: NetworkPerformance,
    /// Fig. 12: queue-length fairness.
    pub fairness: QueueFairness,
    /// Network-wide energy ledger (sum of every node's ledger).
    pub ledger: EnergyLedger,
    /// Per-node summaries.
    pub nodes: Vec<NodeSummary>,
    /// Total number of MAC-level collisions observed.
    pub collisions: u64,
    /// Total number of completed bursts.
    pub bursts: u64,
    /// Nodes that left the network through churn injection (non-energy
    /// failures), as opposed to battery depletion.
    pub node_failures: u64,
    /// Number of discrete events the run's event loop processed — the
    /// denominator-free basis for the `netperf` events/sec throughput metric.
    pub events_processed: u64,
    /// Peak number of simultaneously pending events; at most
    /// [`ScenarioConfig::initial_queue_capacity`](crate::ScenarioConfig::initial_queue_capacity).
    pub queue_high_watermark: usize,
    /// Per-subsystem / per-event-kind profiling shard of the run.  Empty
    /// unless `caem_metrics::prof` was enabled; observability-only — it is
    /// never serialized into experiment records or report artifacts, which
    /// is what keeps profiled runs byte-identical to clean runs.
    pub profile: Profile,
}

impl SimulationResult {
    /// Fig. 11's metric: average energy per successfully delivered packet.
    pub fn per_packet_energy(&self) -> PerPacketEnergy {
        PerPacketEnergy::new(self.ledger.total(), self.perf.delivered())
    }

    /// Network lifetime (seconds) under the given dead-fraction rule, if the
    /// network died within the simulated horizon.
    pub fn network_lifetime_secs(&self, death_fraction: f64) -> Option<f64> {
        self.lifetime
            .network_lifetime(death_fraction)
            .map(|t| t.as_secs_f64())
    }

    /// Fraction of generated packets that were delivered.
    pub fn delivery_rate(&self) -> f64 {
        self.perf.delivery_rate()
    }

    /// Sum of remaining energy across all nodes at the end of the run (J).
    pub fn total_remaining_energy(&self) -> f64 {
        self.nodes.iter().map(|n| n.remaining_energy_j).sum()
    }

    /// Number of nodes still alive at the end of the run.
    pub fn nodes_alive(&self) -> usize {
        self.nodes.iter().filter(|n| n.death_time.is_none()).count()
    }
}

impl std::fmt::Debug for SimulationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationResult")
            .field("policy", &self.policy)
            .field("traffic_rate_pps", &self.traffic_rate_pps)
            .field("end_time", &self.end_time)
            .field("delivered", &self.perf.delivered())
            .field("generated", &self.perf.generated())
            .field("nodes_alive", &self.nodes_alive())
            .field("collisions", &self.collisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::time::Duration;

    fn dummy_result() -> SimulationResult {
        let mut perf = NetworkPerformance::new();
        perf.record_generated_n(100);
        for _ in 0..80 {
            perf.record_delivered(Duration::from_millis(25), 2_000);
        }
        perf.set_horizon(SimTime::from_secs(100));
        let mut ledger = EnergyLedger::new();
        ledger.record(caem_energy::battery::EnergyCategory::DataTransmit, 4.0);
        SimulationResult {
            policy: PolicyKind::Scheme1Adaptive,
            traffic_rate_pps: 5.0,
            seed: 1,
            end_time: SimTime::from_secs(100),
            energy: EnergyTracker::new(4),
            lifetime: LifetimeTracker::new(4),
            perf,
            fairness: QueueFairness::new(),
            ledger,
            nodes: vec![
                NodeSummary {
                    id: 0,
                    remaining_energy_j: 5.0,
                    death_time: None,
                    generated: 25,
                    delivered: 20,
                    dropped: 0,
                    head_terms: 1,
                },
                NodeSummary {
                    id: 1,
                    remaining_energy_j: 0.0,
                    death_time: Some(SimTime::from_secs(80)),
                    generated: 25,
                    delivered: 20,
                    dropped: 2,
                    head_terms: 2,
                },
            ],
            collisions: 3,
            bursts: 40,
            node_failures: 0,
            events_processed: 500,
            queue_high_watermark: 20,
            profile: Profile::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = dummy_result();
        let ppe = r.per_packet_energy();
        assert_eq!(ppe.delivered_packets, 80);
        assert!((ppe.joules_per_packet().unwrap() - 0.05).abs() < 1e-12);
        assert!((r.delivery_rate() - 0.8).abs() < 1e-12);
        assert_eq!(r.nodes_alive(), 1);
        assert!((r.total_remaining_energy() - 5.0).abs() < 1e-12);
        assert_eq!(r.network_lifetime_secs(0.8), None);
    }
}
