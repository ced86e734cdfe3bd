//! Per-node protocol components: traffic sources and threshold policies.
//!
//! The per-node *state* itself lives in [`crate::table::NodeTable`] as
//! structure-of-arrays columns; this module keeps the closed enums the
//! table's cold columns are made of, plus their factories.  Every
//! scenario-wide parameter (rates, the CAEM configuration) is held once, in
//! the table's [`crate::table::NodeParams`], and passed by reference.

use caem::config::CaemConfig;
use caem::policy::{AdaptiveThreshold, FixedThreshold, NoAdaptation, PolicyKind, ThresholdPolicy};
use caem_simcore::rng::StreamRng;
use caem_simcore::time::SimTime;
use caem_traffic::profile::{DiurnalCycle, ModulatedSource};
use caem_traffic::source::{BurstySource, BurstyState, CbrSource, PoissonSource, TrafficSource};

use crate::config::{TrafficModel, TrafficProfile};

/// The traffic source a scenario runs: its parameters, shared by every
/// node.  A closed enum so arrivals dispatch without a vtable; the diurnal
/// wrapper boxes its base source once per scenario.
#[derive(Debug, Clone)]
pub enum NodeTrafficSource {
    /// Poisson arrivals.
    Poisson(PoissonSource),
    /// Constant-bit-rate arrivals.
    Cbr(CbrSource),
    /// Two-state bursty arrivals.
    Bursty(BurstySource),
    /// Any of the above warped through a diurnal cycle.
    Modulated(Box<ModulatedSource<NodeTrafficSource>>),
}

/// One node's traffic state, shaped by its scenario's [`NodeTrafficSource`]
/// (a diurnal warp keeps its base source's state).
#[derive(Debug, Clone)]
pub enum NodeTrafficState {
    /// A Poisson source's random stream.
    Poisson(StreamRng),
    /// CBR arrivals carry no state.
    Cbr,
    /// A bursty source's regime and random stream.
    Bursty(BurstyState),
}

impl TrafficSource for NodeTrafficSource {
    type State = NodeTrafficState;

    fn new_state(&self, rng: StreamRng) -> NodeTrafficState {
        match self {
            NodeTrafficSource::Poisson(s) => NodeTrafficState::Poisson(s.new_state(rng)),
            NodeTrafficSource::Cbr(_) => NodeTrafficState::Cbr,
            NodeTrafficSource::Bursty(s) => NodeTrafficState::Bursty(s.new_state(rng)),
            NodeTrafficSource::Modulated(s) => s.new_state(rng),
        }
    }

    fn next_arrival(&self, state: &mut NodeTrafficState, now: SimTime) -> SimTime {
        match (self, state) {
            (NodeTrafficSource::Poisson(s), NodeTrafficState::Poisson(rng)) => {
                s.next_arrival(rng, now)
            }
            (NodeTrafficSource::Cbr(s), _) => s.next_arrival(&mut (), now),
            (NodeTrafficSource::Bursty(s), NodeTrafficState::Bursty(b)) => s.next_arrival(b, now),
            (NodeTrafficSource::Modulated(s), state) => s.next_arrival(state, now),
            _ => unreachable!("node traffic state built for a different source"),
        }
    }

    fn mean_rate(&self) -> f64 {
        match self {
            NodeTrafficSource::Poisson(s) => s.mean_rate(),
            NodeTrafficSource::Cbr(s) => s.mean_rate(),
            NodeTrafficSource::Bursty(s) => s.mean_rate(),
            NodeTrafficSource::Modulated(s) => s.mean_rate(),
        }
    }
}

/// One node's threshold policy, as a closed enum.
///
/// The enum keeps nodes allocation-free, lets the per-event policy queries
/// (`required_snr_db`, `is_urgent`, arrival notifications) inline into the
/// event loop, and removes a pointer chase per query.  Only Scheme 1 has
/// per-node state; the [`CaemConfig`] every variant reads is passed in.
#[derive(Debug, Clone)]
pub enum NodePolicy {
    /// Pure LEACH: no channel adaptation.
    PureLeach(NoAdaptation),
    /// CAEM Scheme 1: adaptive threshold.
    Adaptive(AdaptiveThreshold),
    /// CAEM Scheme 2: fixed highest threshold.
    Fixed(FixedThreshold),
}

impl ThresholdPolicy for NodePolicy {
    fn kind(&self) -> PolicyKind {
        match self {
            NodePolicy::PureLeach(p) => p.kind(),
            NodePolicy::Adaptive(p) => p.kind(),
            NodePolicy::Fixed(p) => p.kind(),
        }
    }

    fn on_packet_arrival(&mut self, config: &CaemConfig, queue_len: usize) {
        match self {
            NodePolicy::PureLeach(p) => p.on_packet_arrival(config, queue_len),
            NodePolicy::Adaptive(p) => p.on_packet_arrival(config, queue_len),
            NodePolicy::Fixed(p) => p.on_packet_arrival(config, queue_len),
        }
    }

    fn on_packets_sent(&mut self, config: &CaemConfig, queue_len: usize) {
        match self {
            NodePolicy::PureLeach(p) => p.on_packets_sent(config, queue_len),
            NodePolicy::Adaptive(p) => p.on_packets_sent(config, queue_len),
            NodePolicy::Fixed(p) => p.on_packets_sent(config, queue_len),
        }
    }

    fn on_round_change(&mut self, config: &CaemConfig) {
        match self {
            NodePolicy::PureLeach(p) => p.on_round_change(config),
            NodePolicy::Adaptive(p) => p.on_round_change(config),
            NodePolicy::Fixed(p) => p.on_round_change(config),
        }
    }

    fn current_threshold(&self, config: &CaemConfig) -> Option<caem_phy::TransmissionMode> {
        match self {
            NodePolicy::PureLeach(p) => p.current_threshold(config),
            NodePolicy::Adaptive(p) => p.current_threshold(config),
            NodePolicy::Fixed(p) => p.current_threshold(config),
        }
    }
}

/// Build one node's policy for a protocol variant.
pub fn build_policy(kind: PolicyKind, config: &CaemConfig) -> NodePolicy {
    match kind {
        PolicyKind::PureLeach => NodePolicy::PureLeach(NoAdaptation),
        PolicyKind::Scheme1Adaptive => NodePolicy::Adaptive(AdaptiveThreshold::new(config)),
        PolicyKind::Scheme2Fixed => NodePolicy::Fixed(FixedThreshold),
    }
}

/// Build a scenario's traffic source from its traffic model and time-of-day
/// profile.  A [`TrafficProfile::Diurnal`] profile wraps the base source in
/// a deterministic time warp; [`TrafficProfile::Constant`] returns the base
/// source untouched, so the paper's stationary scenarios build bit-identical
/// sources.
pub fn build_source(model: TrafficModel, profile: TrafficProfile) -> NodeTrafficSource {
    let base = match model {
        TrafficModel::Poisson { rate_pps } => {
            NodeTrafficSource::Poisson(PoissonSource::new(rate_pps))
        }
        TrafficModel::Cbr { rate_pps } => NodeTrafficSource::Cbr(CbrSource::new(rate_pps)),
        TrafficModel::Bursty {
            quiet_rate_pps,
            burst_rate_pps,
            mean_quiet_s,
            mean_burst_s,
        } => NodeTrafficSource::Bursty(BurstySource::new(
            quiet_rate_pps,
            burst_rate_pps,
            mean_quiet_s,
            mean_burst_s,
        )),
    };
    match profile {
        TrafficProfile::Constant => base,
        TrafficProfile::Diurnal {
            period_s,
            relative_amplitude,
        } => NodeTrafficSource::Modulated(Box::new(ModulatedSource::new(
            base,
            DiurnalCycle::trough_start(period_s, relative_amplitude),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::from_seed_u64(1)
    }

    #[test]
    fn policy_factory_builds_all_kinds() {
        let caem = CaemConfig::paper_default();
        for kind in [
            PolicyKind::PureLeach,
            PolicyKind::Scheme1Adaptive,
            PolicyKind::Scheme2Fixed,
        ] {
            assert_eq!(build_policy(kind, &caem).kind(), kind);
        }
    }

    #[test]
    fn source_factory_builds_all_models() {
        let constant = TrafficProfile::Constant;
        let p = build_source(TrafficModel::Poisson { rate_pps: 5.0 }, constant);
        let c = build_source(TrafficModel::Cbr { rate_pps: 5.0 }, constant);
        let b = build_source(
            TrafficModel::Bursty {
                quiet_rate_pps: 1.0,
                burst_rate_pps: 10.0,
                mean_quiet_s: 5.0,
                mean_burst_s: 1.0,
            },
            constant,
        );
        for s in [&p, &c, &b] {
            let t = s.next_arrival(&mut s.new_state(rng()), SimTime::ZERO);
            assert!(t > SimTime::ZERO);
            assert!(s.mean_rate() > 0.0);
        }
        assert_eq!(c.mean_rate(), 5.0);
        assert!(matches!(c.new_state(rng()), NodeTrafficState::Cbr));
    }

    #[test]
    fn diurnal_profile_wraps_the_base_source_and_keeps_its_mean_rate() {
        let diurnal = TrafficProfile::Diurnal {
            period_s: 300.0,
            relative_amplitude: 0.7,
        };
        let warped = build_source(TrafficModel::Poisson { rate_pps: 5.0 }, diurnal);
        assert!(matches!(warped, NodeTrafficSource::Modulated(_)));
        assert_eq!(warped.mean_rate(), 5.0);
        // The warp keeps the base source's per-node state.
        assert!(matches!(
            warped.new_state(rng()),
            NodeTrafficState::Poisson(_)
        ));
        // A constant profile builds the bare source — the paper's scenarios
        // take the exact pre-profile code path.
        let plain = build_source(
            TrafficModel::Poisson { rate_pps: 5.0 },
            TrafficProfile::Constant,
        );
        assert!(matches!(plain, NodeTrafficSource::Poisson(_)));
    }
}
