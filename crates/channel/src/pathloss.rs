//! Path-loss models: deterministic attenuation of received signal strength
//! with transmitter–receiver distance.
//!
//! The paper only says "path loss refers to the change in received signal
//! strength versus the distance"; it does not commit to a specific model.
//! We provide the three standard candidates used by the WSN literature the
//! paper cites (free space, two-ray ground, log-distance) and default to
//! log-distance with exponent 3.0, which is representative of near-ground
//! sensor deployments in cluttered terrain.

use serde::{Deserialize, Serialize};

/// Default log-distance path-loss exponent for near-ground sensor links.
const LOG_DISTANCE_DEFAULT_EXPONENT: f64 = 3.0;

/// Speed of light in m/s.
const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// A path-loss model mapping link distance to attenuation in dB.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PathLossModel {
    /// Free-space (Friis) propagation at the given carrier frequency (Hz).
    FreeSpace {
        /// Carrier frequency in Hz (e.g. 916 MHz ISM for RFM-class radios).
        frequency_hz: f64,
    },
    /// Two-ray ground-reflection model with the given antenna heights (m).
    TwoRayGround {
        /// Carrier frequency in Hz, used below the crossover distance.
        frequency_hz: f64,
        /// Transmitter antenna height in metres.
        tx_height_m: f64,
        /// Receiver antenna height in metres.
        rx_height_m: f64,
    },
    /// Log-distance model: `PL(d) = PL(d0) + 10·n·log10(d/d0)`.
    LogDistance {
        /// Path-loss exponent `n` (2 = free space, 3–4 = cluttered terrain).
        exponent: f64,
        /// Reference distance `d0` in metres.
        reference_distance_m: f64,
        /// Path loss at the reference distance, in dB.
        reference_loss_db: f64,
    },
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel::paper_default()
    }
}

impl PathLossModel {
    /// The default model used by the reproduction: log-distance, exponent 3,
    /// reference 1 m with the free-space loss at 916 MHz.
    pub fn paper_default() -> Self {
        let reference_loss_db = Self::free_space_loss_db(1.0, 916e6);
        PathLossModel::LogDistance {
            exponent: LOG_DISTANCE_DEFAULT_EXPONENT,
            reference_distance_m: 1.0,
            reference_loss_db,
        }
    }

    /// Free-space path loss at distance `d` (m) and frequency `f` (Hz), dB.
    fn free_space_loss_db(distance_m: f64, frequency_hz: f64) -> f64 {
        let d = distance_m.max(0.1);
        let lambda = SPEED_OF_LIGHT / frequency_hz;
        20.0 * (4.0 * std::f64::consts::PI * d / lambda).log10()
    }

    /// Path loss in dB at the given distance (metres).
    ///
    /// Distances below 10 cm are clamped — the models are not valid in the
    /// reactive near field and the clamp keeps the loss finite when a node is
    /// elected cluster head of its own cluster (distance 0 to itself).
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        match *self {
            PathLossModel::FreeSpace { frequency_hz } => Self::free_space_loss_db(d, frequency_hz),
            PathLossModel::TwoRayGround {
                frequency_hz,
                tx_height_m,
                rx_height_m,
            } => {
                // Crossover distance: 4*pi*ht*hr / lambda.
                let lambda = SPEED_OF_LIGHT / frequency_hz;
                let crossover = 4.0 * std::f64::consts::PI * tx_height_m * rx_height_m / lambda;
                if d < crossover {
                    Self::free_space_loss_db(d, frequency_hz)
                } else {
                    // PL = 40 log d - 20 log(ht*hr)
                    40.0 * d.log10() - 20.0 * (tx_height_m * rx_height_m).log10()
                }
            }
            PathLossModel::LogDistance {
                exponent,
                reference_distance_m,
                reference_loss_db,
            } => {
                let d0 = reference_distance_m.max(0.1);
                reference_loss_db + 10.0 * exponent * (d.max(d0) / d0).log10()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_matches_friis() {
        let m = PathLossModel::FreeSpace {
            frequency_hz: 916e6,
        };
        // Friis at 100 m, 916 MHz: 20 log10(4*pi*100/0.3273) ≈ 71.7 dB
        let loss = m.loss_db(100.0);
        assert!((loss - 71.68).abs() < 0.3, "loss = {loss}");
        // Doubling distance adds 6.02 dB in free space.
        let delta = m.loss_db(200.0) - m.loss_db(100.0);
        assert!((delta - 6.02).abs() < 0.05);
    }

    #[test]
    fn log_distance_slope_matches_exponent() {
        let m = PathLossModel::LogDistance {
            exponent: 3.0,
            reference_distance_m: 1.0,
            reference_loss_db: 40.0,
        };
        assert!((m.loss_db(1.0) - 40.0).abs() < 1e-9);
        // One decade of distance adds 10*n = 30 dB.
        assert!((m.loss_db(10.0) - 70.0).abs() < 1e-9);
        assert!((m.loss_db(100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn loss_is_monotonic_in_distance() {
        for model in [
            PathLossModel::paper_default(),
            PathLossModel::FreeSpace {
                frequency_hz: 916e6,
            },
            PathLossModel::TwoRayGround {
                frequency_hz: 916e6,
                tx_height_m: 0.5,
                rx_height_m: 0.5,
            },
        ] {
            let mut prev = model.loss_db(0.5);
            for d in [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 141.0] {
                let loss = model.loss_db(d);
                assert!(
                    loss >= prev - 1e-9,
                    "{model:?} not monotonic at {d} m: {loss} < {prev}"
                );
                prev = loss;
            }
        }
    }

    #[test]
    fn tiny_distance_is_clamped() {
        let m = PathLossModel::paper_default();
        assert!(m.loss_db(0.0).is_finite());
        assert_eq!(m.loss_db(0.0), m.loss_db(0.05));
    }

    #[test]
    fn two_ray_reduces_to_free_space_below_crossover() {
        let m = PathLossModel::TwoRayGround {
            frequency_hz: 916e6,
            tx_height_m: 1.0,
            rx_height_m: 1.0,
        };
        let fs = PathLossModel::FreeSpace {
            frequency_hz: 916e6,
        };
        // Crossover ≈ 4*pi*1*1/0.327 ≈ 38 m; below that they match.
        assert!((m.loss_db(10.0) - fs.loss_db(10.0)).abs() < 1e-9);
        // Far beyond crossover the two-ray slope is 40 dB/decade.
        let delta = m.loss_db(1000.0) - m.loss_db(100.0);
        assert!((delta - 40.0).abs() < 0.5, "delta = {delta}");
    }

    #[test]
    fn paper_default_is_log_distance() {
        match PathLossModel::paper_default() {
            PathLossModel::LogDistance { exponent, .. } => {
                assert_eq!(exponent, LOG_DISTANCE_DEFAULT_EXPONENT)
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
