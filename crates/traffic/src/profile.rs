//! Time-varying traffic modulation (diurnal cycles).
//!
//! The paper's workload is stationary: every node generates at a constant
//! mean rate for the whole horizon.  Real sensor deployments see pronounced
//! time-of-day structure — wildlife is crepuscular, traffic counters follow
//! rush hours, agricultural telemetry follows the sun — so the scenario zoo
//! needs a deterministic way to make the *instantaneous* rate a function of
//! virtual time without touching a scenario's long-run load.
//!
//! [`DiurnalCycle`] is a sinusoidal intensity envelope `m(t)` with long-run
//! mean exactly 1; [`TrafficSource::Diurnal`] applies it to any base source
//! by **time warping**: the base process runs in its own "operational time"
//! `v` and every arrival is mapped through the inverse of the cumulative
//! intensity `Λ(t) = ∫₀ᵗ m(s) ds`.  For a Poisson base this is the classical
//! inversion construction of a non-homogeneous Poisson process with rate
//! `λ·m(t)`; for CBR it yields deterministic arrivals that bunch up at the
//! peak and spread out in the trough.  Crucially the warp
//! consumes **no randomness of its own** — the base source draws exactly the
//! same stream values it would unmodulated, so enabling a profile never
//! perturbs any other random stream of the scenario.
//!
//! [`TrafficSource::Diurnal`]: crate::source::TrafficSource::Diurnal

use caem_simcore::time::{Duration, SimTime};

/// A sinusoidal intensity envelope `m(t) = 1 + a·sin(2πt/T + φ)` with
/// relative amplitude `a ∈ [0, 1)` (so `m(t) > 0` everywhere) and period `T`
/// seconds.  Its long-run mean is exactly 1: modulation reshapes *when*
/// packets arrive, never how many arrive per period on average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCycle {
    period_s: f64,
    amplitude: f64,
    phase_rad: f64,
}

/// Why a [`DiurnalCycle`] could not be constructed: the offending parameter
/// plus its value, so config layers can map it onto their own typed errors
/// instead of parsing a panic message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileError {
    /// The cycle period was zero or negative.
    NonPositivePeriod(f64),
    /// The relative amplitude fell outside `[0, 1)` (the rate would touch
    /// or cross zero).
    AmplitudeOutOfRange(f64),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NonPositivePeriod(p) => {
                write!(f, "diurnal period must be positive (got {p})")
            }
            ProfileError::AmplitudeOutOfRange(a) => write!(
                f,
                "relative amplitude must be in [0, 1) so the rate stays positive (got {a})"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

impl DiurnalCycle {
    /// Create a cycle with the given period (seconds), relative amplitude in
    /// `[0, 1)` and phase offset (radians), returning a typed
    /// [`ProfileError`] on a bad parameter.  A phase of `-π/2` starts the
    /// cycle at its trough ("midnight") and peaks at `T/2` ("noon").
    pub fn try_new(period_s: f64, amplitude: f64, phase_rad: f64) -> Result<Self, ProfileError> {
        if period_s.is_nan() || period_s <= 0.0 {
            return Err(ProfileError::NonPositivePeriod(period_s));
        }
        if !(0.0..1.0).contains(&amplitude) {
            return Err(ProfileError::AmplitudeOutOfRange(amplitude));
        }
        Ok(DiurnalCycle {
            period_s,
            amplitude,
            phase_rad,
        })
    }

    /// [`DiurnalCycle::try_new`] for pre-validated parameters; panics with
    /// the [`ProfileError`] message on a bad one.
    fn new(period_s: f64, amplitude: f64, phase_rad: f64) -> Self {
        Self::try_new(period_s, amplitude, phase_rad)
            .unwrap_or_else(|e| panic!("invalid diurnal cycle: {e}"))
    }

    /// A cycle that starts at its trough and peaks half a period later —
    /// the "midnight start" convention scenario configs use.
    pub fn trough_start(period_s: f64, amplitude: f64) -> Self {
        Self::new(period_s, amplitude, -std::f64::consts::FRAC_PI_2)
    }

    /// The instantaneous intensity multiplier `m(t)` at `t` seconds.
    fn intensity(&self, t_s: f64) -> f64 {
        let omega = std::f64::consts::TAU / self.period_s;
        1.0 + self.amplitude * (omega * t_s + self.phase_rad).sin()
    }

    /// The cumulative intensity `Λ(t) = ∫₀ᵗ m(s) ds` — strictly increasing
    /// because `m ≥ 1 − a > 0`.
    fn cumulative(&self, t_s: f64) -> f64 {
        let omega = std::f64::consts::TAU / self.period_s;
        t_s - self.amplitude / omega * ((omega * t_s + self.phase_rad).cos() - self.phase_rad.cos())
    }

    /// Invert the cumulative intensity: the unique `t` with `Λ(t) = v`.
    ///
    /// Solved by damped Newton iteration (the derivative is `m(t) ≥ 1 − a`),
    /// clamped to the analytic bracket `|Λ(t) − t| ≤ 2a/ω`; purely
    /// deterministic f64 arithmetic, so warped arrival times are exactly
    /// reproducible per seed.
    fn inverse_cumulative(&self, v: f64) -> f64 {
        let omega = std::f64::consts::TAU / self.period_s;
        let slack = 2.0 * self.amplitude / omega;
        let (lo, hi) = (v - slack, v + slack);
        let mut t = v;
        for _ in 0..64 {
            let err = self.cumulative(t) - v;
            if err.abs() <= 1.0e-10 * v.abs().max(1.0) {
                break;
            }
            t = (t - err / self.intensity(t)).clamp(lo, hi);
        }
        t
    }

    /// The next arrival after `now` of a base process that runs in
    /// operational time: `base_next` draws the base source's next arrival
    /// after an operational instant, which maps back through `Λ⁻¹`.  The
    /// instantaneous rate becomes `base_rate · m(t)` while the long-run mean
    /// rate — and the base source's random stream consumption — are
    /// unchanged.
    pub(crate) fn warp(&self, now: SimTime, base_next: impl FnOnce(SimTime) -> SimTime) -> SimTime {
        let v_now = self.cumulative(now.as_secs_f64());
        let v_next = base_next(SimTime::from_secs_f64(v_now));
        let t_next = self.inverse_cumulative(v_next.as_secs_f64().max(v_now));
        let warped = SimTime::from_secs_f64(t_next.max(0.0));
        if warped > now {
            warped
        } else {
            // Float rounding collapsed a (mathematically positive) gap to
            // zero; keep arrivals strictly increasing at clock granularity.
            now + Duration::from_nanos(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CbrSource, PoissonSource, TrafficSource, TrafficState};
    use caem_simcore::rng::StreamRng;

    fn count_in(source: &TrafficSource, state: &mut TrafficState, from_s: f64, to_s: f64) -> u64 {
        let mut now = SimTime::from_secs_f64(from_s);
        let end = SimTime::from_secs_f64(to_s);
        let mut count = 0;
        loop {
            now = source.next_arrival(state, now);
            if now > end {
                return count;
            }
            count += 1;
        }
    }

    #[test]
    fn cumulative_and_inverse_round_trip() {
        let cycle = DiurnalCycle::trough_start(86_400.0, 0.8);
        for &t in &[0.0, 1.0, 1_234.5, 43_200.0, 99_999.9, 250_000.0] {
            let v = cycle.cumulative(t);
            let back = cycle.inverse_cumulative(v);
            assert!((back - t).abs() < 1e-6, "t {t} -> v {v} -> {back}");
        }
        // Λ is a bijection that advances one period per period.
        let one_period = cycle.cumulative(86_400.0);
        assert!((one_period - 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn intensity_mean_is_one_and_trough_start_is_low() {
        let cycle = DiurnalCycle::trough_start(600.0, 0.9);
        assert!((cycle.intensity(0.0) - 0.1).abs() < 1e-12, "trough at t=0");
        assert!((cycle.intensity(300.0) - 1.9).abs() < 1e-12, "peak at T/2");
        let steps = 10_000;
        let mean: f64 = (0..steps)
            .map(|i| cycle.intensity(600.0 * i as f64 / steps as f64))
            .sum::<f64>()
            / steps as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean intensity {mean}");
    }

    #[test]
    fn warped_poisson_keeps_long_run_rate_but_concentrates_at_the_peak() {
        let period = 200.0;
        let warped = TrafficSource::Diurnal(
            Box::new(TrafficSource::Poisson(PoissonSource::new(10.0))),
            DiurnalCycle::trough_start(period, 0.8),
        );
        // Whole periods: the long-run rate matches the base rate.
        let mut state = warped.new_state(StreamRng::from_seed_u64(42));
        let total = count_in(&warped, &mut state, 0.0, 20.0 * period);
        let rate = total as f64 / (20.0 * period);
        assert!((rate - 10.0).abs() < 0.5, "long-run rate {rate}");
        // Within one cycle the trough quarter is far quieter than the peak
        // quarter (expected ratio ≈ (1−0.97·a)/(1+0.97·a) with a = 0.8).
        let mut trough = 0u64;
        let mut peak = 0u64;
        let mut probe = warped.new_state(StreamRng::from_seed_u64(43));
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs_f64(50.0 * period);
        loop {
            now = warped.next_arrival(&mut probe, now);
            if now > end {
                break;
            }
            let phase = now.as_secs_f64() % period / period;
            if !(0.125..0.875).contains(&phase) {
                trough += 1;
            } else if (0.375..0.625).contains(&phase) {
                peak += 1;
            }
        }
        assert!(
            (peak as f64) > 3.0 * trough as f64,
            "peak quarter {peak} vs trough quarter {trough}"
        );
    }

    #[test]
    fn warped_cbr_bunches_deterministically() {
        let warped = TrafficSource::Diurnal(
            Box::new(TrafficSource::Cbr(CbrSource::new(1.0))),
            DiurnalCycle::trough_start(100.0, 0.5),
        );
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..100 {
            let next = warped.next_arrival(&mut TrafficState::Cbr, now);
            assert!(next > now, "arrivals strictly increase");
            assert_eq!(
                next,
                warped.next_arrival(&mut TrafficState::Cbr, now),
                "warp is deterministic"
            );
            gaps.push((next - now).as_secs_f64());
            now = next;
        }
        let (min, max) = gaps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &g| {
            (lo.min(g), hi.max(g))
        });
        // CBR at 1 pps under a ±0.5 envelope: gaps swing around 1 s.
        assert!(min < 0.75 && max > 1.3, "gaps {min}..{max}");
        assert!((warped.mean_rate() - 1.0).abs() < 1e-12);
    }
}
