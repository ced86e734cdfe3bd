//! Traffic sources.
//!
//! The paper's workload: "Each sensor node is a Poisson source, the generated
//! packet follows a Poisson arrival", with the per-node rate ("added traffic
//! load") swept from 5 to 30 packets/second.  [`PoissonSource`] is that
//! model; [`CbrSource`] and [`BurstySource`] are extensions used by the extra
//! examples and the ablation bench to show CAEM's sensitivity to traffic
//! burstiness.  [`TrafficSource`] is the closed set of them, plus a diurnal
//! warp of any of them (see [`crate::profile`]).

use caem_simcore::rng::StreamRng;
use caem_simcore::time::{Duration, SimTime};

use crate::profile::DiurnalCycle;

/// A generator of packet arrival instants.
///
/// A source value holds the scenario-wide parameters (rates, sojourn times)
/// and is shared by every node; each node keeps only its [`TrafficState`]
/// and passes it to every draw.  A closed enum so arrivals dispatch without
/// a vtable; the diurnal warp boxes its base source once per scenario.
#[derive(Debug, Clone)]
pub enum TrafficSource {
    /// Poisson arrivals.
    Poisson(PoissonSource),
    /// Constant-bit-rate arrivals.
    Cbr(CbrSource),
    /// Two-state bursty arrivals.
    Bursty(BurstySource),
    /// A base source warped through a diurnal cycle.
    Diurnal(Box<TrafficSource>, DiurnalCycle),
}

/// One node's traffic state, shaped by its scenario's [`TrafficSource`]
/// (a diurnal warp keeps its base source's state).
#[derive(Debug, Clone)]
pub enum TrafficState {
    /// A Poisson source's random stream.
    Poisson(StreamRng),
    /// CBR arrivals carry no state.
    Cbr,
    /// A bursty source's regime and random stream.
    Bursty(BurstyState),
}

impl TrafficSource {
    /// A fresh node state drawing from `rng`.
    pub fn new_state(&self, rng: StreamRng) -> TrafficState {
        match self {
            TrafficSource::Poisson(_) => TrafficState::Poisson(rng),
            TrafficSource::Cbr(_) => TrafficState::Cbr,
            TrafficSource::Bursty(_) => TrafficState::Bursty(BurstyState {
                in_burst: false,
                state_expires: SimTime::ZERO,
                rng,
            }),
            TrafficSource::Diurnal(base, _) => base.new_state(rng),
        }
    }

    /// The time of the next packet arrival strictly after `now`.
    pub fn next_arrival(&self, state: &mut TrafficState, now: SimTime) -> SimTime {
        match (self, state) {
            (TrafficSource::Poisson(s), TrafficState::Poisson(rng)) => {
                let gap = rng.exponential_mean(s.mean_gap_s);
                now + Duration::from_secs_f64(gap)
            }
            (TrafficSource::Cbr(s), _) => now + s.period,
            (TrafficSource::Bursty(s), TrafficState::Bursty(b)) => s.next_arrival(b, now),
            (TrafficSource::Diurnal(base, cycle), state) => {
                cycle.warp(now, |v| base.next_arrival(state, v))
            }
            _ => unreachable!("node traffic state built for a different source"),
        }
    }

    /// Long-run average rate in packets per second.
    pub fn mean_rate(&self) -> f64 {
        match self {
            TrafficSource::Poisson(s) => s.rate_pps,
            TrafficSource::Cbr(s) => 1.0 / s.period.as_secs_f64(),
            TrafficSource::Bursty(s) => {
                // Long-run average weighted by state occupancy.
                let total = s.mean_quiet_s + s.mean_burst_s;
                (s.quiet_rate_pps * s.mean_quiet_s + s.burst_rate_pps * s.mean_burst_s) / total
            }
            TrafficSource::Diurnal(base, _) => base.mean_rate(),
        }
    }
}

/// Poisson arrivals: exponential inter-arrival times with the given rate.
/// A node's state is its random stream.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    rate_pps: f64,
    /// `1 / rate_pps`, precomputed so each arrival draw multiplies instead of
    /// divides (one draw per generated packet — a hot path).
    mean_gap_s: f64,
}

impl PoissonSource {
    /// Create a Poisson source with `rate_pps` packets per second.
    pub fn new(rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "Poisson rate must be positive");
        PoissonSource {
            rate_pps,
            mean_gap_s: 1.0 / rate_pps,
        }
    }
}

/// Constant-bit-rate arrivals: fixed inter-arrival period, no node state.
#[derive(Debug, Clone)]
pub struct CbrSource {
    period: Duration,
}

impl CbrSource {
    /// Create a CBR source with `rate_pps` packets per second.
    pub fn new(rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "CBR rate must be positive");
        CbrSource {
            period: Duration::from_secs_f64(1.0 / rate_pps),
        }
    }
}

/// Two-state bursty source (a simple Markov-modulated Poisson process).
///
/// The source alternates between a *quiet* state and a *burst* state, each
/// with its own Poisson rate; the state flips at exponentially distributed
/// epochs.  Models event-driven sensing (e.g. an intrusion triggers a flurry
/// of reports) better than a homogeneous Poisson stream.
#[derive(Debug, Clone)]
pub struct BurstySource {
    quiet_rate_pps: f64,
    burst_rate_pps: f64,
    mean_quiet_s: f64,
    mean_burst_s: f64,
}

/// One node's [`BurstySource`] state: which regime it is in, until when,
/// and its random stream.
#[derive(Debug, Clone)]
pub struct BurstyState {
    in_burst: bool,
    state_expires: SimTime,
    rng: StreamRng,
}

impl BurstySource {
    /// Create a bursty source.
    ///
    /// * `quiet_rate_pps` / `burst_rate_pps` — Poisson rates in each state.
    /// * `mean_quiet_s` / `mean_burst_s` — mean sojourn times in each state.
    pub fn new(
        quiet_rate_pps: f64,
        burst_rate_pps: f64,
        mean_quiet_s: f64,
        mean_burst_s: f64,
    ) -> Self {
        assert!(
            quiet_rate_pps > 0.0 && burst_rate_pps > 0.0,
            "rates must be positive"
        );
        assert!(
            mean_quiet_s > 0.0 && mean_burst_s > 0.0,
            "sojourn times must be positive"
        );
        BurstySource {
            quiet_rate_pps,
            burst_rate_pps,
            mean_quiet_s,
            mean_burst_s,
        }
    }

    fn maybe_switch_state(&self, state: &mut BurstyState, now: SimTime) {
        while now >= state.state_expires {
            state.in_burst = !state.in_burst;
            let mean = if state.in_burst {
                self.mean_burst_s
            } else {
                self.mean_quiet_s
            };
            let sojourn = state.rng.exponential(1.0 / mean);
            state.state_expires = state.state_expires.max(now) + Duration::from_secs_f64(sojourn);
        }
    }

    fn next_arrival(&self, state: &mut BurstyState, now: SimTime) -> SimTime {
        // Draw within the current state; if the candidate arrival falls past
        // the state boundary, move to the boundary and redraw in the new
        // state (valid because exponential gaps are memoryless).  Without the
        // redraw the long-run rate is biased low whenever a quiet-state gap
        // straddles a burst period.
        let mut t = now;
        loop {
            self.maybe_switch_state(state, t);
            let rate = if state.in_burst {
                self.burst_rate_pps
            } else {
                self.quiet_rate_pps
            };
            let gap = state.rng.exponential(rate);
            let candidate = t + Duration::from_secs_f64(gap);
            if candidate <= state.state_expires {
                return candidate;
            }
            t = state.state_expires;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StreamRng {
        StreamRng::from_seed_u64(seed)
    }

    fn measure_rate(source: &TrafficSource, state: &mut TrafficState, horizon_s: f64) -> f64 {
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs_f64(horizon_s);
        let mut count = 0u64;
        loop {
            now = source.next_arrival(state, now);
            if now > end {
                break;
            }
            count += 1;
        }
        count as f64 / horizon_s
    }

    #[test]
    fn poisson_rate_matches_nominal() {
        // 5 pkt/s is the Fig. 8/9 operating point.
        let s = TrafficSource::Poisson(PoissonSource::new(5.0));
        let rate = measure_rate(&s, &mut s.new_state(rng(1)), 2_000.0);
        assert!((rate - 5.0).abs() < 0.2, "measured {rate}");
        assert_eq!(s.mean_rate(), 5.0);
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        let s = TrafficSource::Poisson(PoissonSource::new(10.0));
        let mut state = s.new_state(rng(2));
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..20_000 {
            let next = s.next_arrival(&mut state, now);
            gaps.push((next - now).as_secs_f64());
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
    }

    #[test]
    fn poisson_arrivals_strictly_increase() {
        let s = TrafficSource::Poisson(PoissonSource::new(30.0));
        let mut state = s.new_state(rng(3));
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let next = s.next_arrival(&mut state, now);
            assert!(next > now);
            now = next;
        }
    }

    #[test]
    fn cbr_is_perfectly_regular() {
        let s = TrafficSource::Cbr(CbrSource::new(4.0));
        let mut now = SimTime::ZERO;
        for i in 1..=8 {
            now = s.next_arrival(&mut TrafficState::Cbr, now);
            assert_eq!(now, SimTime::from_millis(250 * i));
        }
        assert!((s.mean_rate() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_long_run_rate_matches_formula() {
        let s = TrafficSource::Bursty(BurstySource::new(2.0, 40.0, 9.0, 1.0));
        let nominal = s.mean_rate();
        // (2*9 + 40*1)/10 = 5.8 pkt/s
        assert!((nominal - 5.8).abs() < 1e-9);
        let measured = measure_rate(&s, &mut s.new_state(rng(4)), 5_000.0);
        assert!(
            (measured - nominal).abs() < 0.4,
            "measured {measured} vs nominal {nominal}"
        );
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Compare inter-arrival coefficient of variation: MMPP > 1.
        let s = TrafficSource::Bursty(BurstySource::new(1.0, 50.0, 5.0, 0.5));
        let mut state = s.new_state(rng(5));
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        let mut saw_burst = false;
        for _ in 0..20_000 {
            let next = s.next_arrival(&mut state, now);
            saw_burst |= matches!(&state, TrafficState::Bursty(b) if b.in_burst);
            gaps.push((next - now).as_secs_f64());
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.3, "cv = {cv} should exceed Poisson's 1.0");
        assert!(saw_burst);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = TrafficSource::Poisson(PoissonSource::new(5.0));
        let mut a = s.new_state(rng(9));
        let mut b = s.new_state(rng(9));
        let mut ta = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        for _ in 0..100 {
            ta = s.next_arrival(&mut a, ta);
            tb = s.next_arrival(&mut b, tb);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        PoissonSource::new(0.0);
    }
}
