//! Correlated log-normal shadowing.
//!
//! Shadowing is the macroscopic component of channel variation: attenuation
//! caused by terrain structure and obstructions, fluctuating over 2–5 s
//! (Section II-B).  We model it as a zero-mean Gaussian process in dB with a
//! first-order autoregressive (Gauss–Markov / Gudmundson-style) temporal
//! correlation:
//!
//! ```text
//! S(t + dt) = rho(dt) * S(t) + sqrt(1 - rho^2) * sigma * w,   w ~ N(0,1)
//! rho(dt)   = exp(-dt / tau)
//! ```
//!
//! where `tau` is the decorrelation time constant (2–5 s per the paper) and
//! `sigma` the shadowing standard deviation in dB (4–8 dB is typical for
//! outdoor sensor fields).

use caem_simcore::rng::StreamRng;
use caem_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Configuration of a shadowing process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowingConfig {
    /// Standard deviation of the shadowing in dB.
    pub sigma_db: f64,
    /// Decorrelation time constant in seconds (the "macroscopic time scale").
    pub decorrelation_time_s: f64,
}

impl Default for ShadowingConfig {
    fn default() -> Self {
        // Middle of the paper's 2–5 s macroscopic range; 6 dB sigma.
        ShadowingConfig {
            sigma_db: 6.0,
            decorrelation_time_s: 3.5,
        }
    }
}

impl ShadowingConfig {
    /// A degenerate configuration with no shadowing at all (for ablations and
    /// for reproducing "simple channel model" baselines).
    pub fn disabled() -> Self {
        ShadowingConfig {
            sigma_db: 0.0,
            decorrelation_time_s: 1.0,
        }
    }
}

/// A temporally correlated log-normal shadowing process for one link.
///
/// The process is sampled lazily: [`ShadowingProcess::sample_db`] advances
/// the AR(1) state from the last sampled instant to the requested instant.
/// Because the channel is assumed reciprocal, a single process per link is
/// shared by both directions.  Only the per-link state lives here; the
/// [`ShadowingConfig`] is scenario-wide and passed to every sample.
#[derive(Debug, Clone)]
pub struct ShadowingProcess {
    rng: StreamRng,
    current_db: f64,
    last_sample: SimTime,
    initialized: bool,
}

impl ShadowingProcess {
    /// Create a new process with its own random stream.
    pub fn new(rng: StreamRng) -> Self {
        ShadowingProcess {
            rng,
            current_db: 0.0,
            last_sample: SimTime::ZERO,
            initialized: false,
        }
    }

    /// Sample the shadowing attenuation (dB, zero mean) at virtual time `now`.
    ///
    /// Calling with a time earlier than the previous sample returns the
    /// current state without evolving it (the process only moves forward).
    pub fn sample_db(&mut self, config: &ShadowingConfig, now: SimTime) -> f64 {
        if config.sigma_db <= 0.0 {
            return 0.0;
        }
        if !self.initialized {
            // Stationary initial draw.
            self.current_db = self.rng.normal(0.0, config.sigma_db);
            self.last_sample = now;
            self.initialized = true;
            return self.current_db;
        }
        if now <= self.last_sample {
            return self.current_db;
        }
        let dt = (now - self.last_sample).as_secs_f64();
        let rho = (-dt / config.decorrelation_time_s).exp();
        let innovation_std = config.sigma_db * (1.0 - rho * rho).sqrt();
        self.current_db = rho * self.current_db + self.rng.normal(0.0, innovation_std);
        self.last_sample = now;
        self.current_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::time::Duration;

    /// A process plus the configuration it is sampled under.
    struct Sampled {
        config: ShadowingConfig,
        process: ShadowingProcess,
    }

    impl Sampled {
        fn sample_db(&mut self, now: SimTime) -> f64 {
            self.process.sample_db(&self.config, now)
        }
    }

    fn process(seed: u64, sigma: f64, tau: f64) -> Sampled {
        Sampled {
            config: ShadowingConfig {
                sigma_db: sigma,
                decorrelation_time_s: tau,
            },
            process: ShadowingProcess::new(StreamRng::from_seed_u64(seed)),
        }
    }

    #[test]
    fn disabled_shadowing_is_zero() {
        let config = ShadowingConfig::disabled();
        let mut p = ShadowingProcess::new(StreamRng::from_seed_u64(1));
        for s in 0..10 {
            assert_eq!(p.sample_db(&config, SimTime::from_secs(s)), 0.0);
        }
    }

    #[test]
    fn stationary_moments_match_sigma() {
        let mut p = process(42, 6.0, 3.5);
        // Sample well beyond the decorrelation time so draws are ~independent.
        let n = 4000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let v = p.sample_db(SimTime::from_secs(i as u64 * 60));
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.5, "mean = {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.5, "std = {}", var.sqrt());
    }

    #[test]
    fn short_interval_samples_are_correlated() {
        // Compare lag-10ms correlation with lag-30s correlation.
        let mut p = process(7, 6.0, 3.5);
        let mut short_diffs = Vec::new();
        let mut t = SimTime::ZERO;
        let mut prev = p.sample_db(t);
        for _ in 0..2000 {
            t += Duration::from_millis(10);
            let v = p.sample_db(t);
            short_diffs.push((v - prev).abs());
            prev = v;
        }
        let mut p = process(7, 6.0, 3.5);
        let mut long_diffs = Vec::new();
        let mut t = SimTime::ZERO;
        let mut prev = p.sample_db(t);
        for _ in 0..2000 {
            t += Duration::from_secs(30);
            let v = p.sample_db(t);
            long_diffs.push((v - prev).abs());
            prev = v;
        }
        let short_mean: f64 = short_diffs.iter().sum::<f64>() / short_diffs.len() as f64;
        let long_mean: f64 = long_diffs.iter().sum::<f64>() / long_diffs.len() as f64;
        assert!(
            short_mean * 3.0 < long_mean,
            "10ms steps should change much less than 30s steps ({short_mean} vs {long_mean})"
        );
    }

    #[test]
    fn process_is_deterministic_per_seed() {
        let mut a = process(9, 6.0, 3.5);
        let mut b = process(9, 6.0, 3.5);
        for i in 0..100 {
            let t = SimTime::from_millis(i * 137);
            assert_eq!(a.sample_db(t), b.sample_db(t));
        }
    }

    #[test]
    fn sampling_backwards_does_not_evolve() {
        let mut p = process(3, 6.0, 3.5);
        let v1 = p.sample_db(SimTime::from_secs(10));
        let v2 = p.sample_db(SimTime::from_secs(5));
        let v3 = p.sample_db(SimTime::from_secs(10));
        assert_eq!(v1, v2);
        assert_eq!(v1, v3);
        assert_eq!(p.process.current_db, v1);
    }

    #[test]
    fn default_config_is_macroscopic() {
        let c = ShadowingConfig::default();
        assert!(c.decorrelation_time_s >= 2.0 && c.decorrelation_time_s <= 5.0);
        assert!(c.sigma_db > 0.0);
    }
}
