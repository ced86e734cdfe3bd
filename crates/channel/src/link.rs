//! Per-link composite channel: path loss + shadowing + fading → SNR (CSI).
//!
//! [`LinkChannel`] is the object each sensor–cluster-head pair owns.  It is
//! shared by both directions (channel reciprocity, assumption 2 of the
//! paper): the sensor measures the SNR of the *downlink* tone signal and uses
//! it as the CSI of the *uplink* data channel.  The CSI is assumed constant
//! over a frame (assumption 3), which is why consumers sample it once per
//! transmission attempt rather than continuously.

use caem_simcore::rng::StreamRng;
use caem_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

use crate::fading::{FadingConfig, FadingModel, RayleighFading};
use crate::geometry::Position;
use crate::pathloss::PathLossModel;
use crate::shadowing::{ShadowingConfig, ShadowingProcess};
use crate::watts_to_dbm;

/// Static link-budget parameters shared by every link in a scenario.
///
/// Note the distinction between *radiated* power (what determines the SNR,
/// held here) and *consumed* power (what drains the battery, held in
/// `caem-energy`'s `RadioPowerProfile`).  Table II's 0.66 W / 92 mW figures
/// are circuit power draws of an RFM-class radio whose radiated output is on
/// the order of 1 mW (0 dBm); using the draw as EIRP would place every node
/// 25+ dB above the highest ABICM threshold and no channel adaptation would
/// ever be exercised.  The default radiated powers preserve Table II's
/// data-to-tone power ratio (≈ 8.6 dB).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Radiated (EIRP) power of the data radio, in dBm.
    pub data_tx_dbm: f64,
    /// Radiated (EIRP) power of the tone radio, in dBm.
    pub tone_tx_dbm: f64,
    /// Receiver noise floor in dBm (thermal noise + noise figure over the
    /// signal bandwidth).
    pub noise_floor_dbm: f64,
    /// Combined antenna gains in dB (transmit + receive).
    pub antenna_gain_db: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget::paper_default()
    }
}

impl LinkBudget {
    /// Link budget for the paper's scenario.
    ///
    /// * Radiated data power 0 dBm (1 mW), typical of RFM-class ISM radios,
    ///   chosen so that across the 100 m × 100 m field the average SNR spans
    ///   all four ABICM thresholds (6–22 dB).
    /// * Radiated tone power 8.6 dB below the data radio, matching the
    ///   0.66 W : 92 mW consumption ratio of Table II.
    /// * Noise floor: thermal noise over 2 MHz is −174 + 10·log10(2·10⁶) ≈
    ///   −111 dBm; a 10 dB receiver noise figure gives −101 dBm.
    pub fn paper_default() -> Self {
        LinkBudget {
            data_tx_dbm: 0.0,
            tone_tx_dbm: -8.6,
            noise_floor_dbm: -101.0,
            antenna_gain_db: 0.0,
        }
    }

    /// Build a budget from radiated powers expressed in watts.
    pub fn from_radiated_watts(data_w: f64, tone_w: f64, noise_floor_dbm: f64) -> Self {
        LinkBudget {
            data_tx_dbm: watts_to_dbm(data_w),
            tone_tx_dbm: watts_to_dbm(tone_w),
            noise_floor_dbm,
            antenna_gain_db: 0.0,
        }
    }

    /// Data-radio radiated power in dBm.
    pub fn data_tx_dbm(&self) -> f64 {
        self.data_tx_dbm
    }

    /// Tone-radio radiated power in dBm.
    pub fn tone_tx_dbm(&self) -> f64 {
        self.tone_tx_dbm
    }
}

/// Breakdown of one CSI measurement, useful for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkQualityReport {
    /// Link distance in metres.
    pub distance_m: f64,
    /// Deterministic path loss, dB.
    pub path_loss_db: f64,
    /// Shadowing attenuation, dB (zero mean; positive = extra loss).
    pub shadowing_db: f64,
    /// Microscopic fading gain, dB (0 dB = average channel).
    pub fading_db: f64,
    /// Resulting SNR of the data channel, dB.
    pub snr_db: f64,
    /// SNR observed on the tone channel (differs only by transmit power).
    pub tone_snr_db: f64,
}

/// The scenario-wide propagation parameters every link shares.
///
/// One copy lives with the scenario; each [`LinkChannel`] holds only its
/// own random processes and distance, and takes these by reference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkParams {
    /// Radiated powers, noise floor and antenna gains.
    pub budget: LinkBudget,
    /// Deterministic distance attenuation.
    pub path_loss: PathLossModel,
    /// Macroscopic (shadowing) variation.
    pub shadowing: ShadowingConfig,
    /// Microscopic (multipath) variation.
    pub fading: FadingConfig,
}

/// Memo key of a link with no valid memoised SNR: no simulation instant
/// ever reaches it.
const NO_MEMO: SimTime = SimTime::MAX;

/// The time-varying channel between one sensor and one cluster head.
///
/// Only per-link state lives here: the shadowing and fading processes, the
/// distance and two caches.  The scenario-wide [`LinkParams`] are passed to
/// every call that needs them.  The caches keep repeated CSI queries off the
/// transcendental math (`log10`, `exp`, normal draws) that dominates the
/// simulator's event loop:
///
/// * the deterministic path loss is a pure function of the (rarely changing)
///   link distance, so it is computed once per `set_distance`;
/// * [`LinkChannel::snr_db`] memoises the data-channel SNR of the last
///   instant it measured.  The shadowing and fading processes are frozen
///   within one instant by construction, so a same-time re-measurement (the
///   backoff-expiry check and the burst start of one MAC decision) returns
///   the bit-identical value without re-deriving it.  A distance change
///   clears the memo.  [`LinkChannel::measure`] always derives the full
///   breakdown and leaves the memo alone.
#[derive(Debug, Clone)]
pub struct LinkChannel {
    shadowing: ShadowingProcess,
    fading: RayleighFading,
    distance_m: f64,
    /// Path loss at `distance_m`, recomputed only when the distance changes.
    cached_path_loss_db: f64,
    /// Instant of the memoised SNR (`NO_MEMO` when there is none).
    memo_at: SimTime,
    /// Data-channel SNR measured at `memo_at`.
    memo_snr_db: f64,
}

impl LinkChannel {
    /// Create a link between two fixed positions.
    ///
    /// `shadowing_rng` and `fading_rng` must be distinct streams (e.g. derived
    /// with [`caem_simcore::rng::components::SHADOWING`] and
    /// [`caem_simcore::rng::components::FADING`]) so the two processes are
    /// independent.
    pub fn new(
        params: &LinkParams,
        a: Position,
        b: Position,
        shadowing_rng: StreamRng,
        fading_rng: StreamRng,
    ) -> Self {
        Self::with_distance(params, a.distance_to(&b), shadowing_rng, fading_rng)
    }

    /// Create a link with an explicit distance (used by tests and by the
    /// cluster-head switch, where only the distance changes).
    pub fn with_distance(
        params: &LinkParams,
        distance_m: f64,
        shadowing_rng: StreamRng,
        fading_rng: StreamRng,
    ) -> Self {
        LinkChannel {
            shadowing: ShadowingProcess::new(shadowing_rng),
            fading: RayleighFading::new(fading_rng),
            distance_m,
            cached_path_loss_db: params.path_loss.loss_db(distance_m),
            memo_at: NO_MEMO,
            memo_snr_db: 0.0,
        }
    }

    /// The link distance in metres.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// Update the link distance (e.g. after a LEACH cluster-head switch the
    /// sensor talks to a different head over the *same* fading environment).
    pub fn set_distance(&mut self, params: &LinkParams, distance_m: f64) {
        assert!(distance_m >= 0.0, "distance must be non-negative");
        self.distance_m = distance_m;
        self.cached_path_loss_db = params.path_loss.loss_db(distance_m);
        self.memo_at = NO_MEMO;
    }

    /// Measure the full CSI breakdown at virtual time `now`.
    ///
    /// Both the data-channel SNR and the tone-channel SNR are produced from
    /// the *same* propagation realization (assumption 1: the tone and data
    /// channels share attenuation and fading), so the sensor's tone-based
    /// estimate equals the data-channel CSI up to the transmit-power offset.
    pub fn measure(&mut self, params: &LinkParams, now: SimTime) -> LinkQualityReport {
        let budget = &params.budget;
        let path_loss_db = self.cached_path_loss_db;
        let shadowing_db = self.shadowing.sample_db(&params.shadowing, now);
        let fading_db = self.fading.gain_db(&params.fading, now);
        let gain_db = -path_loss_db - shadowing_db + fading_db + budget.antenna_gain_db;
        let snr_db = budget.data_tx_dbm() + gain_db - budget.noise_floor_dbm;
        let tone_snr_db = budget.tone_tx_dbm() + gain_db - budget.noise_floor_dbm;
        LinkQualityReport {
            distance_m: self.distance_m,
            path_loss_db,
            shadowing_db,
            fading_db,
            snr_db,
            tone_snr_db,
        }
    }

    /// The data-channel SNR in dB at `now`, memoised per instant.
    pub fn snr_db(&mut self, params: &LinkParams, now: SimTime) -> f64 {
        if self.memo_at != now {
            self.memo_snr_db = self.measure(params, now).snr_db;
            self.memo_at = now;
        }
        self.memo_snr_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::rng::{components, RngStream};
    use caem_simcore::time::Duration;

    fn make_link(distance: f64, seed: u64) -> LinkChannel {
        let streams = RngStream::new(seed);
        LinkChannel::with_distance(
            &LinkParams::default(),
            distance,
            streams.derive(components::SHADOWING, 0),
            streams.derive(components::FADING, 0),
        )
    }

    #[test]
    fn budget_defaults_preserve_table_ii_power_ratio() {
        let b = LinkBudget::paper_default();
        // The radiated data:tone ratio matches the consumed 0.66 W : 92 mW
        // ratio from Table II (≈ 8.56 dB).
        let ratio_db = b.data_tx_dbm() - b.tone_tx_dbm();
        let table_ii_ratio_db = 10.0 * (0.66f64 / 0.092).log10();
        assert!(
            (ratio_db - table_ii_ratio_db).abs() < 0.1,
            "ratio {ratio_db}"
        );
        assert_eq!(b.noise_floor_dbm, -101.0);
        // Constructing from radiated watts agrees with the dBm fields.
        let w = LinkBudget::from_radiated_watts(0.001, 0.000_138, -101.0);
        assert!((w.data_tx_dbm() - 0.0).abs() < 0.01);
        assert!((w.data_tx_dbm() - w.tone_tx_dbm() - table_ii_ratio_db).abs() < 0.2);
    }

    #[test]
    fn field_spans_all_abicm_thresholds() {
        let p = LinkParams::default();
        // The whole point of the calibration: across plausible member-to-head
        // distances the *average* SNR must straddle the 6–22 dB mode
        // thresholds, otherwise no protocol would ever adapt.
        let avg_snr = |d: f64| -> f64 {
            let mut link = make_link(d, 42);
            (0..400)
                .map(|i| link.snr_db(&p, SimTime::from_millis(i * 500)))
                .sum::<f64>()
                / 400.0
        };
        assert!(avg_snr(10.0) > 22.0, "10 m should usually support 2 Mbps");
        let mid = avg_snr(45.0);
        assert!(
            (6.0..26.0).contains(&mid),
            "45 m average SNR {mid} should sit near the mode boundaries"
        );
        assert!(
            avg_snr(140.0) < 12.0,
            "the field diagonal should be a poor link"
        );
    }

    #[test]
    fn closer_links_have_higher_average_snr() {
        let p = LinkParams::default();
        let mut near = make_link(10.0, 1);
        let mut far = make_link(90.0, 1);
        let n = 500;
        let avg = |link: &mut LinkChannel| -> f64 {
            (0..n)
                .map(|i| link.snr_db(&p, SimTime::from_millis(i * 200)))
                .sum::<f64>()
                / n as f64
        };
        let near_avg = avg(&mut near);
        let far_avg = avg(&mut far);
        assert!(
            near_avg > far_avg + 10.0,
            "near {near_avg} dB should beat far {far_avg} dB"
        );
    }

    #[test]
    fn tone_and_data_snr_differ_by_power_offset_only() {
        let p = LinkParams::default();
        let mut link = make_link(40.0, 2);
        let b = LinkBudget::paper_default();
        let offset = b.data_tx_dbm() - b.tone_tx_dbm();
        for i in 0..50 {
            let report = link.measure(&p, SimTime::from_millis(i * 123));
            assert!(
                ((report.snr_db - report.tone_snr_db) - offset).abs() < 1e-9,
                "reciprocity offset violated"
            );
        }
    }

    #[test]
    fn snr_varies_over_time() {
        let p = LinkParams::default();
        let mut link = make_link(50.0, 3);
        let mut values = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            values.push(link.snr_db(&p, t));
            t += Duration::from_millis(500);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // With Rayleigh fading + 6 dB shadowing the swing should exceed 10 dB.
        assert!(max - min > 10.0, "swing only {} dB", max - min);
    }

    #[test]
    fn report_components_compose_to_snr() {
        let p = LinkParams::default();
        let mut link = make_link(30.0, 4);
        let r = link.measure(&p, SimTime::from_secs(1));
        let budget = LinkBudget::paper_default();
        let expected = budget.data_tx_dbm() - r.path_loss_db - r.shadowing_db + r.fading_db
            - budget.noise_floor_dbm;
        assert!((r.snr_db - expected).abs() < 1e-9);
        assert_eq!(r.distance_m, 30.0);
    }

    #[test]
    fn set_distance_changes_path_loss_only() {
        let p = LinkParams::default();
        let mut link = make_link(20.0, 5);
        let t = SimTime::from_secs(2);
        let before = link.measure(&p, t);
        link.set_distance(&p, 80.0);
        let after = link.measure(&p, t);
        // Same instant: shadowing & fading frozen, so the SNR delta equals the
        // path-loss delta.
        let snr_delta = before.snr_db - after.snr_db;
        let pl_delta = after.path_loss_db - before.path_loss_db;
        assert!((snr_delta - pl_delta).abs() < 1e-9);
        assert!(pl_delta > 0.0);
    }

    #[test]
    fn link_between_positions_uses_euclidean_distance() {
        let streams = RngStream::new(11);
        let link = LinkChannel::new(
            &LinkParams::default(),
            Position::new(0.0, 0.0),
            Position::new(30.0, 40.0),
            streams.derive(components::SHADOWING, 1),
            streams.derive(components::FADING, 1),
        );
        assert!((link.distance_m() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn same_instant_cache_is_transparent() {
        let p = LinkParams::default();
        // A link measured twice at the same instant must behave exactly like
        // a link measured once: the memoised SNR equals a fresh full
        // derivation, and the *next* measurement (which advances the random
        // processes) must also be identical.
        let mut cached = make_link(40.0, 21);
        let mut fresh = make_link(40.0, 21);
        let t1 = SimTime::from_millis(100);
        let t2 = SimTime::from_millis(137);
        let first = cached.snr_db(&p, t1);
        let repeat = cached.snr_db(&p, t1);
        assert_eq!(first.to_bits(), repeat.to_bits());
        assert_eq!(cached.measure(&p, t1).snr_db.to_bits(), first.to_bits());
        assert_eq!(fresh.measure(&p, t1).snr_db.to_bits(), first.to_bits());
        // RNG state untouched by the cached re-measurement:
        assert_eq!(cached.measure(&p, t2), fresh.measure(&p, t2));
        // A distance change clears the memo: the SNR moves by the path-loss
        // delta at the same instant.
        let before = cached.snr_db(&p, t2);
        cached.set_distance(&p, 80.0);
        assert!(cached.snr_db(&p, t2) < before);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = LinkParams::default();
        let mut a = make_link(42.0, 77);
        let mut b = make_link(42.0, 77);
        for i in 0..100 {
            let t = SimTime::from_millis(i * 91);
            assert_eq!(a.snr_db(&p, t), b.snr_db(&p, t));
        }
    }

    #[test]
    #[should_panic]
    fn negative_distance_rejected() {
        let p = LinkParams::default();
        let mut link = make_link(10.0, 1);
        link.set_distance(&p, -1.0);
    }
}
