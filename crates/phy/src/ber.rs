//! Bit- and packet-error-rate models for the ABICM modulations.
//!
//! These are the standard AWGN closed-form approximations; the coding gain of
//! each mode's convolutional code is modelled as an SNR shift.  The exact
//! curves matter much less to the CAEM evaluation than their *ordering*:
//! a mode used below its SNR threshold fails quickly, at or above it the
//! packet error rate is ~1 % or better.

use serde::{Deserialize, Serialize};

/// Modulations used by the four ABICM modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// Binary phase-shift keying (1 bit/symbol).
    Bpsk,
    /// Quadrature phase-shift keying (2 bits/symbol).
    Qpsk,
    /// 16-ary quadrature amplitude modulation (4 bits/symbol).
    Qam16,
    /// 64-ary quadrature amplitude modulation (6 bits/symbol); not used by
    /// the default 4-mode table but provided for extension studies.
    Qam64,
}

impl Modulation {
    /// Bits carried per channel symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }
}

/// Complementary error function approximation (Abramowitz & Stegun 7.1.26
/// applied to the error function, max absolute error ≈ 1.5e-7).
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

/// Gaussian Q-function.
fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded bit error rate of `modulation` at the given *symbol* SNR in dB.
///
/// Standard AWGN approximations:
/// * BPSK: `Q(sqrt(2·γb))`
/// * QPSK (Gray): `Q(sqrt(2·γb))` per bit with `γb = γs / 2`
/// * 16/64-QAM (Gray, square): nearest-neighbour approximation.
fn bit_error_rate(modulation: Modulation, snr_db: f64) -> f64 {
    let snr = 10f64.powf(snr_db / 10.0);
    let ber = match modulation {
        Modulation::Bpsk => q_function((2.0 * snr).sqrt()),
        Modulation::Qpsk => {
            let gamma_b = snr / 2.0;
            q_function((2.0 * gamma_b).sqrt())
        }
        Modulation::Qam16 => {
            let m = 16.0_f64;
            let k = m.log2();
            let gamma_b = snr / k;
            (4.0 / k) * (1.0 - 1.0 / m.sqrt()) * q_function((3.0 * k * gamma_b / (m - 1.0)).sqrt())
        }
        Modulation::Qam64 => {
            let m = 64.0_f64;
            let k = m.log2();
            let gamma_b = snr / k;
            (4.0 / k) * (1.0 - 1.0 / m.sqrt()) * q_function((3.0 * k * gamma_b / (m - 1.0)).sqrt())
        }
    };
    ber.clamp(0.0, 0.5)
}

/// Effective coding gain (dB) applied by a convolutional code of the given
/// rate — a simple piecewise model: stronger (lower-rate) codes buy more gain.
fn coding_gain_db(code_rate: f64) -> f64 {
    if code_rate >= 0.999 {
        0.0
    } else if code_rate >= 0.75 {
        2.5
    } else if code_rate >= 0.5 {
        4.5
    } else {
        6.0
    }
}

/// Packet error rate for a packet of `packet_bits` useful bits sent with the
/// given modulation and code rate at the given SNR (dB).
///
/// The coded BER is approximated by evaluating the uncoded BER at
/// `snr + coding_gain`, and packet success assumes independent bit errors:
/// `PER = 1 − (1 − BER)^L`.
pub fn packet_error_rate(
    modulation: Modulation,
    code_rate: f64,
    snr_db: f64,
    packet_bits: u64,
) -> f64 {
    let effective_snr = snr_db + coding_gain_db(code_rate);
    let ber = bit_error_rate(modulation, effective_snr);
    if ber <= 0.0 {
        return 0.0;
    }
    let log_success = (packet_bits as f64) * (1.0 - ber).ln();
    (1.0 - log_success.exp()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{TransmissionMode, ALL_MODES};

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-4);
        assert!((erfc(2.0) - 0.004_678).abs() < 1e-4);
        assert!((erfc(-1.0) - 1.842_701).abs() < 1e-4);
    }

    #[test]
    fn bpsk_ber_reference_points() {
        // BPSK at Eb/N0 = 10 dB ⇒ BER ≈ 3.9e-6 (textbook value).
        let ber = bit_error_rate(Modulation::Bpsk, 10.0);
        assert!(ber > 1e-6 && ber < 1e-5, "ber = {ber}");
        // At 0 dB ⇒ ≈ 0.0786.
        let ber0 = bit_error_rate(Modulation::Bpsk, 0.0);
        assert!((ber0 - 0.0786).abs() < 0.005, "ber0 = {ber0}");
    }

    #[test]
    fn ber_decreases_with_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut prev = bit_error_rate(m, -10.0);
            for snr in (-8..30).step_by(2) {
                let ber = bit_error_rate(m, snr as f64);
                assert!(ber <= prev + 1e-12, "{m:?} BER not monotone at {snr} dB");
                prev = ber;
            }
        }
    }

    #[test]
    fn higher_order_modulation_needs_more_snr() {
        // At the same symbol SNR, 16-QAM has a (much) higher BER than BPSK.
        for snr in [6.0, 10.0, 14.0] {
            assert!(bit_error_rate(Modulation::Qam16, snr) > bit_error_rate(Modulation::Bpsk, snr));
            assert!(
                bit_error_rate(Modulation::Qam64, snr) > bit_error_rate(Modulation::Qam16, snr)
            );
        }
    }

    #[test]
    fn ber_is_bounded() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            for snr in [-40.0, -10.0, 0.0, 50.0] {
                let ber = bit_error_rate(m, snr);
                assert!((0.0..=0.5).contains(&ber));
            }
        }
    }

    #[test]
    fn coding_gain_monotone_in_redundancy() {
        assert_eq!(coding_gain_db(1.0), 0.0);
        assert!(coding_gain_db(0.45) > coding_gain_db(0.8));
        assert!(coding_gain_db(0.3) >= coding_gain_db(0.45));
    }

    #[test]
    fn per_at_mode_threshold_is_small() {
        // Each mode's required SNR should give a usable (≲ a few %) PER on
        // the paper's 2-kbit packets.
        for mode in ALL_MODES {
            let per = packet_error_rate(
                mode.modulation(),
                mode.code_rate(),
                mode.required_snr_db(),
                2048,
            );
            assert!(per < 0.05, "{mode}: PER {per} at threshold");
        }
    }

    #[test]
    fn per_well_below_threshold_is_large() {
        for mode in ALL_MODES {
            let per = packet_error_rate(
                mode.modulation(),
                mode.code_rate(),
                mode.required_snr_db() - 8.0,
                2048,
            );
            assert!(per > 0.3, "{mode}: PER {per} 8 dB below threshold");
        }
    }

    #[test]
    fn per_monotone_in_packet_length() {
        let mode = TransmissionMode::Mbps1;
        let snr = mode.required_snr_db() - 2.0;
        let short = packet_error_rate(mode.modulation(), mode.code_rate(), snr, 256);
        let long = packet_error_rate(mode.modulation(), mode.code_rate(), snr, 4096);
        assert!(long > short);
    }

    #[test]
    fn per_extremes() {
        assert_eq!(packet_error_rate(Modulation::Bpsk, 0.5, 60.0, 2048), 0.0);
        let terrible = packet_error_rate(Modulation::Qam16, 1.0, -20.0, 2048);
        assert!(terrible > 0.999);
    }

    #[test]
    fn bits_per_symbol_values() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
    }
}
