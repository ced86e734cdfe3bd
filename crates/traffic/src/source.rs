//! Traffic sources.
//!
//! The paper's workload: "Each sensor node is a Poisson source, the generated
//! packet follows a Poisson arrival", with the per-node rate ("added traffic
//! load") swept from 5 to 30 packets/second.  [`PoissonSource`] is that
//! model; [`CbrSource`] and [`BurstySource`] are extensions used by the extra
//! examples and the ablation bench to show CAEM's sensitivity to traffic
//! burstiness.

use caem_simcore::rng::StreamRng;
use caem_simcore::time::{Duration, SimTime};

/// A generator of packet arrival instants.
///
/// A source value holds the scenario-wide parameters (rates, sojourn times)
/// and is shared by every node; each node keeps only its
/// [`TrafficSource::State`] (random stream, modulation state) and passes it
/// to every draw.
pub trait TrafficSource {
    /// One node's private state.
    type State;

    /// A fresh node state drawing from `rng`.
    fn new_state(&self, rng: StreamRng) -> Self::State;

    /// The time of the next packet arrival strictly after `now`.
    fn next_arrival(&self, state: &mut Self::State, now: SimTime) -> SimTime;

    /// Long-run average rate in packets per second.
    fn mean_rate(&self) -> f64;
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

impl TrafficSource for PoissonSource {
    type State = StreamRng;

    fn new_state(&self, rng: StreamRng) -> StreamRng {
        rng
    }

    fn next_arrival(&self, rng: &mut StreamRng, now: SimTime) -> SimTime {
        let gap = rng.exponential_mean(self.mean_gap_s);
        now + Duration::from_secs_f64(gap)
    }

    fn mean_rate(&self) -> f64 {
        self.rate_pps
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

impl TrafficSource for CbrSource {
    type State = ();

    fn new_state(&self, _rng: StreamRng) {}

    fn next_arrival(&self, _state: &mut (), now: SimTime) -> SimTime {
        now + self.period
    }

    fn mean_rate(&self) -> f64 {
        1.0 / self.period.as_secs_f64()
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

impl BurstyState {
    /// Is the source currently in its burst state?
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
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
}

impl TrafficSource for BurstySource {
    type State = BurstyState;

    fn new_state(&self, rng: StreamRng) -> BurstyState {
        BurstyState {
            in_burst: false,
            state_expires: SimTime::ZERO,
            rng,
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

    fn mean_rate(&self) -> f64 {
        // Long-run average weighted by state occupancy.
        let total = self.mean_quiet_s + self.mean_burst_s;
        (self.quiet_rate_pps * self.mean_quiet_s + self.burst_rate_pps * self.mean_burst_s) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StreamRng {
        StreamRng::from_seed_u64(seed)
    }

    fn measure_rate<S: TrafficSource>(source: &S, state: &mut S::State, horizon_s: f64) -> f64 {
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
        let s = PoissonSource::new(5.0);
        let rate = measure_rate(&s, &mut s.new_state(rng(1)), 2_000.0);
        assert!((rate - 5.0).abs() < 0.2, "measured {rate}");
        assert_eq!(s.mean_rate(), 5.0);
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        let s = PoissonSource::new(10.0);
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
        let s = PoissonSource::new(30.0);
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
        let s = CbrSource::new(4.0);
        let mut now = SimTime::ZERO;
        for i in 1..=8 {
            now = s.next_arrival(&mut (), now);
            assert_eq!(now, SimTime::from_millis(250 * i));
        }
        assert!((s.mean_rate() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_long_run_rate_matches_formula() {
        let s = BurstySource::new(2.0, 40.0, 9.0, 1.0);
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
        let s = BurstySource::new(1.0, 50.0, 5.0, 0.5);
        let mut state = s.new_state(rng(5));
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        let mut saw_burst = false;
        for _ in 0..20_000 {
            let next = s.next_arrival(&mut state, now);
            saw_burst |= state.in_burst();
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
        let s = PoissonSource::new(5.0);
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
