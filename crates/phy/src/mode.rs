//! The four ABICM transmission modes and their threshold-class arithmetic.
//!
//! Each mode pairs a modulation with a convolutional-code rate; the paper
//! only specifies the resulting *effective throughputs* (2 Mbps, 1 Mbps,
//! 450 kbps, 250 kbps) and that higher modes need better channels.  The SNR
//! switching thresholds below are chosen so each mode operates at a packet
//! error rate of roughly 1 % for the paper's 2-kbit packets (see `ber`),
//! which is the standard design point for adaptive-modulation mode tables.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::ber::Modulation;

/// Number of ABICM modes (the paper's "4-mode configuration").
const MODE_COUNT: usize = 4;

/// The four transmission modes, ordered from most to least demanding.
///
/// `Mbps2` is "class 0" (the highest threshold class); `Kbps250` is
/// "class 3" (the lowest).  The CAEM threshold-adjustment pseudo-code speaks
/// of "lowering the threshold by one class" — that maps to
/// [`TransmissionMode::one_class_lower`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TransmissionMode {
    /// 2 Mbps — 16-QAM with a high-rate code; requires the best channel.
    Mbps2,
    /// 1 Mbps — QPSK with a high-rate code.
    Mbps1,
    /// 450 kbps — QPSK with a low-rate (heavily redundant) code.
    Kbps450,
    /// 250 kbps — BPSK with a low-rate code; works on the worst usable link.
    Kbps250,
}

/// All modes ordered from the highest throughput (class 0) to the lowest.
pub const ALL_MODES: [TransmissionMode; MODE_COUNT] = [
    TransmissionMode::Mbps2,
    TransmissionMode::Mbps1,
    TransmissionMode::Kbps450,
    TransmissionMode::Kbps250,
];

impl TransmissionMode {
    /// Effective throughput in bits per second after coding and modulation.
    pub fn throughput_bps(self) -> f64 {
        match self {
            TransmissionMode::Mbps2 => 2_000_000.0,
            TransmissionMode::Mbps1 => 1_000_000.0,
            TransmissionMode::Kbps450 => 450_000.0,
            TransmissionMode::Kbps250 => 250_000.0,
        }
    }

    /// The modulation used by this mode.
    pub fn modulation(self) -> Modulation {
        match self {
            TransmissionMode::Mbps2 => Modulation::Qam16,
            TransmissionMode::Mbps1 => Modulation::Qpsk,
            TransmissionMode::Kbps450 => Modulation::Qpsk,
            TransmissionMode::Kbps250 => Modulation::Bpsk,
        }
    }

    /// Code rate (useful bits / coded bits) of the mode's FEC.
    ///
    /// The raw channel symbol rate is 500 ksym/s on a 2 MHz allocation;
    /// throughput = symbol_rate × bits-per-symbol × code_rate, so the code
    /// rates below reproduce the paper's four throughput levels exactly.
    pub fn code_rate(self) -> f64 {
        match self {
            TransmissionMode::Mbps2 => 1.0,    // 500k × 4 × 1.0   = 2 Mbps
            TransmissionMode::Mbps1 => 1.0,    // 500k × 2 × 1.0   = 1 Mbps
            TransmissionMode::Kbps450 => 0.45, // 500k × 2 × 0.45  = 450 kbps
            TransmissionMode::Kbps250 => 0.5,  // 500k × 1 × 0.5   = 250 kbps
        }
    }

    /// FEC redundancy overhead: coded bits transmitted per useful bit.
    pub fn redundancy_factor(self) -> f64 {
        1.0 / self.code_rate()
    }

    /// Minimum data-channel SNR (dB) at which this mode achieves roughly 1 %
    /// packet error rate on a 2-kbit packet.  This is the "required SNR
    /// threshold" a sensor compares its tone measurement against.
    pub fn required_snr_db(self) -> f64 {
        match self {
            TransmissionMode::Mbps2 => 22.0,
            TransmissionMode::Mbps1 => 16.0,
            TransmissionMode::Kbps450 => 10.0,
            TransmissionMode::Kbps250 => 6.0,
        }
    }

    /// Threshold class index: 0 = highest (2 Mbps) … 3 = lowest (250 kbps).
    pub fn class_index(self) -> usize {
        match self {
            TransmissionMode::Mbps2 => 0,
            TransmissionMode::Mbps1 => 1,
            TransmissionMode::Kbps450 => 2,
            TransmissionMode::Kbps250 => 3,
        }
    }

    /// Mode for a given class index (clamped to the valid range).
    fn from_class_index(index: usize) -> TransmissionMode {
        ALL_MODES[index.min(MODE_COUNT - 1)]
    }

    /// The next *less* demanding mode ("lower the threshold one class" in
    /// the CAEM pseudo-code).  Saturates at 250 kbps.
    pub fn one_class_lower(self) -> TransmissionMode {
        TransmissionMode::from_class_index(self.class_index() + 1)
    }

    /// The most demanding mode (2 Mbps), the energy-optimal threshold.
    pub fn highest() -> TransmissionMode {
        TransmissionMode::Mbps2
    }

    /// The least demanding mode (250 kbps).
    pub fn lowest() -> TransmissionMode {
        TransmissionMode::Kbps250
    }

    /// The best (highest-throughput) mode whose SNR requirement is satisfied
    /// by `snr_db`, or `None` when even 250 kbps cannot be sustained.
    pub fn best_for_snr(snr_db: f64) -> Option<TransmissionMode> {
        ALL_MODES.iter().copied().find(|m| m.supports_snr(snr_db))
    }

    /// Does `snr_db` satisfy this mode's requirement?
    fn supports_snr(self, snr_db: f64) -> bool {
        snr_db >= self.required_snr_db()
    }
}

impl fmt::Display for TransmissionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransmissionMode::Mbps2 => write!(f, "2 Mbps"),
            TransmissionMode::Mbps1 => write!(f, "1 Mbps"),
            TransmissionMode::Kbps450 => write!(f, "450 kbps"),
            TransmissionMode::Kbps250 => write!(f, "250 kbps"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_modes_with_paper_throughputs() {
        assert_eq!(ALL_MODES.len(), MODE_COUNT);
        let rates: Vec<f64> = ALL_MODES.iter().map(|m| m.throughput_bps()).collect();
        assert_eq!(rates, vec![2e6, 1e6, 450e3, 250e3]);
    }

    #[test]
    fn throughput_is_strictly_decreasing_by_class() {
        for w in ALL_MODES.windows(2) {
            assert!(w[0].throughput_bps() > w[1].throughput_bps());
        }
    }

    #[test]
    fn snr_requirements_are_strictly_decreasing_by_class() {
        for w in ALL_MODES.windows(2) {
            assert!(w[0].required_snr_db() > w[1].required_snr_db());
        }
    }

    #[test]
    fn class_index_round_trips() {
        for (i, &m) in ALL_MODES.iter().enumerate() {
            assert_eq!(m.class_index(), i);
            assert_eq!(TransmissionMode::from_class_index(i), m);
        }
        // Out-of-range clamps to the lowest mode.
        assert_eq!(
            TransmissionMode::from_class_index(99),
            TransmissionMode::Kbps250
        );
    }

    #[test]
    fn class_stepping_saturates() {
        assert_eq!(
            TransmissionMode::Mbps2.one_class_lower(),
            TransmissionMode::Mbps1
        );
        assert_eq!(
            TransmissionMode::Kbps250.one_class_lower(),
            TransmissionMode::Kbps250
        );
        assert_eq!(TransmissionMode::highest(), TransmissionMode::Mbps2);
        assert_eq!(TransmissionMode::lowest(), TransmissionMode::Kbps250);
    }

    #[test]
    fn best_for_snr_selects_highest_supported() {
        assert_eq!(
            TransmissionMode::best_for_snr(30.0),
            Some(TransmissionMode::Mbps2)
        );
        assert_eq!(
            TransmissionMode::best_for_snr(22.0),
            Some(TransmissionMode::Mbps2)
        );
        assert_eq!(
            TransmissionMode::best_for_snr(18.0),
            Some(TransmissionMode::Mbps1)
        );
        assert_eq!(
            TransmissionMode::best_for_snr(12.0),
            Some(TransmissionMode::Kbps450)
        );
        assert_eq!(
            TransmissionMode::best_for_snr(6.5),
            Some(TransmissionMode::Kbps250)
        );
        assert_eq!(TransmissionMode::best_for_snr(2.0), None);
    }

    #[test]
    fn supports_snr_is_consistent_with_best_for_snr() {
        for snr in [-5.0, 0.0, 6.0, 10.0, 16.0, 22.0, 40.0] {
            if let Some(best) = TransmissionMode::best_for_snr(snr) {
                assert!(best.supports_snr(snr));
                // Anything more demanding than `best` must not be supported.
                for m in &ALL_MODES[..best.class_index()] {
                    assert!(!m.supports_snr(snr));
                }
            } else {
                assert!(!TransmissionMode::Kbps250.supports_snr(snr));
            }
        }
    }

    #[test]
    fn code_rates_reproduce_throughputs() {
        const SYMBOL_RATE: f64 = 500_000.0;
        for m in ALL_MODES {
            let bits_per_symbol = m.modulation().bits_per_symbol() as f64;
            let computed = SYMBOL_RATE * bits_per_symbol * m.code_rate();
            assert!(
                (computed - m.throughput_bps()).abs() < 1.0,
                "{m}: {computed} != {}",
                m.throughput_bps()
            );
        }
    }

    #[test]
    fn redundancy_grows_for_lower_modes() {
        assert!(
            TransmissionMode::Kbps450.redundancy_factor()
                > TransmissionMode::Mbps1.redundancy_factor()
        );
        assert!(TransmissionMode::Mbps2.redundancy_factor() >= 1.0);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(TransmissionMode::Mbps2.to_string(), "2 Mbps");
        assert_eq!(TransmissionMode::Kbps450.to_string(), "450 kbps");
    }
}
