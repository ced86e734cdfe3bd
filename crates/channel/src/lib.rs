//! # caem-channel
//!
//! Realistic time-varying wireless channel model, Section II-B of the paper.
//!
//! The received signal strength between two sensor terminals is governed by
//! three physical effects:
//!
//! * **Path loss** — deterministic attenuation with distance
//!   ([`pathloss`]).
//! * **Shadowing** — log-normal attenuation from terrain/obstructions,
//!   fluctuating on a *macroscopic* time scale of 2–5 s ([`shadowing`]).
//! * **Microscopic fading** — multipath (Rayleigh) fading fluctuating on the
//!   coherence-time scale; for static / <1 m/s sensors the paper states a
//!   coherence time on the order of 100 ms ([`fading`]).
//!
//! [`link::LinkChannel`] composes the three into a per-link SNR (the CSI in
//! the paper), sampled at frame granularity: the paper assumes CSI is
//! constant over at least one frame, and that the tone and data channels are
//! reciprocal (same propagation gain in both directions), which is what lets
//! a sensor estimate the uplink data-channel quality from the downlink tone
//! signal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fading;
pub mod geometry;
pub mod link;
pub mod pathloss;
pub mod shadowing;

pub use fading::{FadingConfig, FadingModel, RayleighFading, RicianFading};
pub use geometry::{Field, Position};
pub use link::{LinkBudget, LinkChannel, LinkParams, LinkQualityReport};
pub use pathloss::{PathLossModel, LOG_DISTANCE_DEFAULT_EXPONENT};
pub use shadowing::{ShadowingConfig, ShadowingProcess};

/// Convert a linear power ratio to decibels.
pub fn lin_to_db(linear: f64) -> f64 {
    10.0 * linear.max(f64::MIN_POSITIVE).log10()
}

/// Convert decibels to a linear power ratio.
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert power in watts to dBm.
pub fn watts_to_dbm(watts: f64) -> f64 {
    lin_to_db(watts * 1e3)
}

/// Convert dBm to watts.
pub fn dbm_to_watts(dbm: f64) -> f64 {
    db_to_lin(dbm) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for v in [0.001, 0.5, 1.0, 2.0, 100.0] {
            let db = lin_to_db(v);
            assert!((db_to_lin(db) - v).abs() / v < 1e-12);
        }
    }

    #[test]
    fn dbm_conversions() {
        assert!((watts_to_dbm(1.0) - 30.0).abs() < 1e-9);
        assert!((watts_to_dbm(0.001) - 0.0).abs() < 1e-9);
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-9);
        assert!((dbm_to_watts(0.0) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn lin_to_db_handles_zero() {
        // Zero power maps to a very large negative dB value, not NaN/-inf panic.
        let db = lin_to_db(0.0);
        assert!(db.is_finite());
        assert!(db < -3000.0);
    }
}
