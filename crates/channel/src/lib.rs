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

pub use fading::{FadingConfig, RayleighFading};
pub use geometry::{Field, Position};
pub use link::{LinkBudget, LinkChannel, LinkParams};
pub use pathloss::PathLossModel;
pub use shadowing::{ShadowingConfig, ShadowingProcess};

/// Convert a linear power ratio to decibels.
pub(crate) fn lin_to_db(linear: f64) -> f64 {
    10.0 * linear.max(f64::MIN_POSITIVE).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for v in [0.001, 0.5, 1.0, 2.0, 100.0] {
            let db = lin_to_db(v);
            assert!((10f64.powf(db / 10.0) - v).abs() / v < 1e-12);
        }
    }

    #[test]
    fn lin_to_db_handles_zero() {
        // Zero power maps to a very large negative dB value, not NaN/-inf panic.
        let db = lin_to_db(0.0);
        assert!(db.is_finite());
        assert!(db < -3000.0);
    }
}
