//! Microscopic (multipath) fading.
//!
//! Microscopic fading is the fast component of channel variation caused by
//! multipath propagation.  For static or slowly moving sensors (< 1 m/s) the
//! paper states the channel coherence time is on the order of 100 ms, so the
//! CSI can be treated as constant over one frame (a few milliseconds) but
//! varies from burst to burst.
//!
//! Two models are provided:
//!
//! * [`RayleighFading`] — non-line-of-sight multipath.  The complex channel
//!   gain `h` evolves as a first-order Gauss–Markov process on its in-phase
//!   and quadrature components; `|h|^2` is then exponentially distributed in
//!   steady state (classic Rayleigh power fading) with unit mean.
//! * [`RicianFading`] — the same diffuse process plus a fixed line-of-sight
//!   component, parameterised by the Rician K-factor.
//!
//! Both expose the fading *power gain in dB* at a requested simulation time.

use caem_simcore::rng::StreamRng;
use caem_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

use crate::lin_to_db;

/// Configuration shared by the fading models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FadingConfig {
    /// Channel coherence time in seconds (~0.1 s for quasi-static sensors).
    pub coherence_time_s: f64,
    /// Rician K-factor (linear).  `0` degenerates to Rayleigh fading.
    pub k_factor: f64,
}

impl Default for FadingConfig {
    fn default() -> Self {
        FadingConfig::rayleigh(0.1)
    }
}

impl FadingConfig {
    /// Rayleigh fading (no line-of-sight component) with the given
    /// coherence time in seconds.
    pub fn rayleigh(coherence_time_s: f64) -> Self {
        Self::rician(coherence_time_s, 0.0)
    }

    /// Rician fading with the given coherence time (seconds) and linear
    /// K-factor.
    pub fn rician(coherence_time_s: f64, k_factor: f64) -> Self {
        assert!(coherence_time_s > 0.0, "coherence time must be positive");
        assert!(k_factor >= 0.0, "K-factor must be non-negative");
        FadingConfig {
            coherence_time_s,
            k_factor,
        }
    }
}

/// Interface implemented by every microscopic fading model.
///
/// A model value holds one link's process state only; the scenario-wide
/// [`FadingConfig`] is passed to every sample.
pub trait FadingModel {
    /// Fading power gain in dB (0 dB = average channel) at time `now`.
    fn gain_db(&mut self, config: &FadingConfig, now: SimTime) -> f64;
}

/// Correlated Rayleigh fading (Gauss–Markov evolution of the complex gain).
#[derive(Debug, Clone)]
pub struct RayleighFading {
    rng: StreamRng,
    // In-phase / quadrature diffuse components, each N(0, 1/2) in steady state
    // so that E[|h|^2] = 1.
    in_phase: f64,
    quadrature: f64,
    last_sample: SimTime,
    initialized: bool,
}

impl RayleighFading {
    /// Create a Rayleigh process drawing from its own random stream.
    pub fn new(rng: StreamRng) -> Self {
        RayleighFading {
            rng,
            in_phase: 0.0,
            quadrature: 0.0,
            last_sample: SimTime::ZERO,
            initialized: false,
        }
    }

    const COMPONENT_STD: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn advance(&mut self, coherence_time_s: f64, now: SimTime) {
        if !self.initialized {
            self.in_phase = self.rng.normal(0.0, Self::COMPONENT_STD);
            self.quadrature = self.rng.normal(0.0, Self::COMPONENT_STD);
            self.last_sample = now;
            self.initialized = true;
            return;
        }
        if now <= self.last_sample {
            return;
        }
        let dt = (now - self.last_sample).as_secs_f64();
        let rho = (-dt / coherence_time_s).exp();
        let innov_std = Self::COMPONENT_STD * (1.0 - rho * rho).sqrt();
        self.in_phase = rho * self.in_phase + self.rng.normal(0.0, innov_std);
        self.quadrature = rho * self.quadrature + self.rng.normal(0.0, innov_std);
        self.last_sample = now;
    }

    /// The linear power gain `|h|^2` at time `now` (unit mean in steady state).
    pub fn power_gain_linear(&mut self, config: &FadingConfig, now: SimTime) -> f64 {
        self.advance(config.coherence_time_s, now);
        self.in_phase * self.in_phase + self.quadrature * self.quadrature
    }
}

impl FadingModel for RayleighFading {
    fn gain_db(&mut self, config: &FadingConfig, now: SimTime) -> f64 {
        lin_to_db(self.power_gain_linear(config, now))
    }
}

/// Rician fading: Rayleigh diffuse component plus a line-of-sight component
/// whose strength is the configuration's K-factor.
#[derive(Debug, Clone)]
pub struct RicianFading {
    diffuse: RayleighFading,
}

impl RicianFading {
    /// Create a Rician process drawing from its own random stream.
    pub fn new(rng: StreamRng) -> Self {
        RicianFading {
            diffuse: RayleighFading::new(rng),
        }
    }

    /// Linear power gain with unit mean: the LOS and diffuse components are
    /// scaled so that `E[|h|^2] = 1` regardless of K.
    pub fn power_gain_linear(&mut self, config: &FadingConfig, now: SimTime) -> f64 {
        let k = config.k_factor;
        let diffuse_power = self.diffuse.power_gain_linear(config, now);
        // LOS amplitude a with a^2 = K/(K+1); diffuse scaled by 1/(K+1).
        let los_i = (k / (k + 1.0)).sqrt();
        let scale = 1.0 / (k + 1.0);
        // Recompose: the diffuse process already tracks I/Q; approximate the
        // composite power as LOS^2 + scaled diffuse power + cross term using
        // the current in-phase diffuse sample.
        let i = los_i + self.diffuse.in_phase * scale.sqrt();
        let q = self.diffuse.quadrature * scale.sqrt();
        // Guard: diffuse_power already advanced the process; use components.
        let _ = diffuse_power;
        i * i + q * q
    }
}

impl FadingModel for RicianFading {
    fn gain_db(&mut self, config: &FadingConfig, now: SimTime) -> f64 {
        lin_to_db(self.power_gain_linear(config, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::time::Duration;

    /// A Rayleigh process sampled under a fixed coherence time.
    fn rayleigh(coherence_time_s: f64, seed: u64) -> (FadingConfig, RayleighFading) {
        (
            FadingConfig::rayleigh(coherence_time_s),
            RayleighFading::new(StreamRng::from_seed_u64(seed)),
        )
    }

    #[test]
    fn rayleigh_mean_power_is_unity() {
        let (cfg, mut f) = rayleigh(0.1, 1);
        // Independent samples: step 10 coherence times apart.
        let n = 20_000;
        let mut sum = 0.0;
        for i in 0..n {
            sum += f.power_gain_linear(&cfg, SimTime::from_millis(i as u64 * 1000));
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean power = {mean}");
    }

    #[test]
    fn rayleigh_power_is_exponential_in_steady_state() {
        // For exponential(1): P(X < 0.693) = 0.5, P(X > 2.3) ≈ 0.1.
        let (cfg, mut f) = rayleigh(0.1, 2);
        let n = 20_000;
        let mut below_median = 0;
        let mut deep_fade = 0; // below -10 dB, P = 1 - exp(-0.1) ≈ 0.095
        for i in 0..n {
            let p = f.power_gain_linear(&cfg, SimTime::from_millis(i as u64 * 1000));
            if p < std::f64::consts::LN_2 {
                below_median += 1;
            }
            if p < 0.1 {
                deep_fade += 1;
            }
        }
        let frac_median = below_median as f64 / n as f64;
        let frac_deep = deep_fade as f64 / n as f64;
        assert!(
            (frac_median - 0.5).abs() < 0.03,
            "median frac {frac_median}"
        );
        assert!(
            (frac_deep - 0.095).abs() < 0.02,
            "deep fade frac {frac_deep}"
        );
    }

    #[test]
    fn samples_within_coherence_time_are_similar() {
        let (cfg, mut f) = rayleigh(0.1, 3);
        let mut close_deltas = Vec::new();
        let mut far_deltas = Vec::new();
        let mut t = SimTime::ZERO;
        let mut prev = f.gain_db(&cfg, t);
        for _ in 0..2000 {
            t += Duration::from_millis(2); // well within 100 ms coherence
            let g = f.gain_db(&cfg, t);
            close_deltas.push((g - prev).abs());
            prev = g;
        }
        let (cfg, mut f) = rayleigh(0.1, 3);
        let mut t = SimTime::ZERO;
        let mut prev = f.gain_db(&cfg, t);
        for _ in 0..2000 {
            t += Duration::from_secs(2); // 20 coherence times
            let g = f.gain_db(&cfg, t);
            far_deltas.push((g - prev).abs());
            prev = g;
        }
        let close: f64 = close_deltas.iter().sum::<f64>() / close_deltas.len() as f64;
        let far: f64 = far_deltas.iter().sum::<f64>() / far_deltas.len() as f64;
        assert!(close * 2.0 < far, "close {close} vs far {far}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, mut a) = rayleigh(0.1, 5);
        let (cfg, mut b) = rayleigh(0.1, 5);
        for i in 0..200 {
            let t = SimTime::from_millis(i * 37);
            assert_eq!(a.gain_db(&cfg, t), b.gain_db(&cfg, t));
        }
    }

    #[test]
    fn rician_high_k_concentrates_near_0db() {
        let (cfg, mut ray) = rayleigh(0.1, 6);
        let ric_cfg = FadingConfig::rician(0.1, 20.0);
        let mut ric = RicianFading::new(StreamRng::from_seed_u64(6));
        let n = 5000;
        let mut var_ray = 0.0;
        let mut var_ric = 0.0;
        for i in 0..n {
            let t = SimTime::from_millis(i as u64 * 1000);
            var_ray += ray.gain_db(&cfg, t).powi(2);
            var_ric += ric.gain_db(&ric_cfg, t).powi(2);
        }
        // Strong LOS should fluctuate far less (in dB^2) than Rayleigh.
        assert!(var_ric < var_ray * 0.5, "{var_ric} vs {var_ray}");
    }

    #[test]
    fn rician_k_zero_close_to_unit_mean() {
        let cfg = FadingConfig::rician(0.1, 0.0);
        let mut ric = RicianFading::new(StreamRng::from_seed_u64(8));
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| ric.power_gain_linear(&cfg, SimTime::from_millis(i as u64 * 1000)))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.06, "mean = {mean}");
    }

    #[test]
    #[should_panic]
    fn zero_coherence_time_rejected() {
        FadingConfig::rayleigh(0.0);
    }
}
