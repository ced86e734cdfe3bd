//! FEC encoding/decoding computation energy.
//!
//! Section I lists two energy costs of adding error protection: (1) the
//! computation spent encoding/decoding the redundancy, and (2) the longer
//! radio on-time.  Section IV then states that, "to ease data analysis", the
//! codec energy is *not* counted because it is negligible compared with the
//! radio electronics.  We keep the model around with a default of zero so the
//! paper's assumption is the default behaviour, while the ablation bench can
//! switch it on and check that the conclusions are insensitive to it.

use serde::{Deserialize, Serialize};

/// Per-bit computation energy of FEC encoding and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodecEnergyModel {
    /// Energy to encode one coded bit at the transmitter, joules/bit.
    pub encode_j_per_bit: f64,
    /// Energy to decode one coded bit at the receiver, joules/bit.
    pub decode_j_per_bit: f64,
}

impl Default for CodecEnergyModel {
    fn default() -> Self {
        CodecEnergyModel::paper_default()
    }
}

impl CodecEnergyModel {
    /// The paper's assumption: codec energy is neglected entirely.
    pub fn paper_default() -> Self {
        CodecEnergyModel {
            encode_j_per_bit: 0.0,
            decode_j_per_bit: 0.0,
        }
    }

    /// A realistic non-zero model for ablations: roughly the energy of a few
    /// hundred instructions per coded bit on a sensor-class MCU
    /// (≈1 nJ/instruction ⇒ ~5 nJ/bit encode, ~50 nJ/bit Viterbi decode).
    pub fn realistic() -> Self {
        CodecEnergyModel {
            encode_j_per_bit: 5e-9,
            decode_j_per_bit: 50e-9,
        }
    }

    /// Encoding energy for a frame of `coded_bits` (transmitter side).
    pub fn encode_energy(&self, coded_bits: u64) -> f64 {
        self.encode_j_per_bit * coded_bits as f64
    }

    /// Decoding energy for a frame of `coded_bits` (receiver side).
    pub fn decode_energy(&self, coded_bits: u64) -> f64 {
        self.decode_j_per_bit * coded_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-sided codec energy of one frame: encoding plus decoding.
    fn frame_energy(m: &CodecEnergyModel, coded_bits: u64) -> f64 {
        m.encode_energy(coded_bits) + m.decode_energy(coded_bits)
    }

    #[test]
    fn paper_default_is_zero() {
        let m = CodecEnergyModel::paper_default();
        assert_eq!(m.encode_energy(1_000_000), 0.0);
        assert_eq!(m.decode_energy(1_000_000), 0.0);
    }

    #[test]
    fn realistic_model_scales_with_bits() {
        let m = CodecEnergyModel::realistic();
        let one_k = frame_energy(&m, 1_000);
        let four_k = frame_energy(&m, 4_000);
        assert!((four_k / one_k - 4.0).abs() < 1e-9);
        // Decoding dominates encoding (Viterbi vs shift-register encoder).
        assert!(m.decode_j_per_bit > m.encode_j_per_bit);
    }

    #[test]
    fn realistic_codec_is_small_relative_to_radio() {
        // A 2-kbit frame at 450 kbps with redundancy ~4.5 kbit coded bits:
        // codec ≈ 0.25 mJ vs radio tx ≈ 0.66 W × 4.4 ms ≈ 2.9 mJ — indeed an
        // order of magnitude smaller, consistent with the paper's assumption.
        let m = CodecEnergyModel::realistic();
        let codec = frame_energy(&m, 4_500);
        let radio = 0.66 * 4.44e-3;
        assert!(codec < radio / 5.0, "codec {codec} vs radio {radio}");
    }

    #[test]
    fn zero_bits_costs_nothing() {
        assert_eq!(frame_energy(&CodecEnergyModel::realistic(), 0), 0.0);
    }
}
