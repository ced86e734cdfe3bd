//! Frame layout and airtime computation.
//!
//! The paper's Table II fixes the packet (payload) length at 2 kbit.  A frame
//! carries that payload plus a PHY/MAC header and the FEC redundancy the
//! current mode adds.  Two energy effects follow directly (Section I):
//!
//! 1. more redundancy ⇒ the radio is on for longer per useful bit, and
//! 2. encoding/decoding the redundancy costs computation energy at both ends
//!    (modelled in `caem-energy` as a per-coded-bit cost).
//!
//! [`FrameSpec::airtime`] is therefore the quantity the whole evaluation
//! hinges on: it is strictly smaller for higher modes.

use caem_simcore::time::Duration;
use serde::{Deserialize, Serialize};

use crate::mode::TransmissionMode;

/// Payload length used throughout the paper's evaluation (2 kbit).
const PAPER_PACKET_LENGTH_BITS: u64 = 2_000;

/// Static frame layout parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameSpec {
    /// Useful payload bits per packet.
    pub payload_bits: u64,
    /// PHY preamble + MAC header bits (transmitted at the mode's rate but
    /// never subject to FEC expansion in this model).
    pub header_bits: u64,
}

impl Default for FrameSpec {
    fn default() -> Self {
        FrameSpec::paper_default()
    }
}

impl FrameSpec {
    /// The paper's frame: 2 kbit payload, 64-bit header.
    pub fn paper_default() -> Self {
        FrameSpec {
            payload_bits: PAPER_PACKET_LENGTH_BITS,
            header_bits: 64,
        }
    }

    /// Create a custom frame spec.
    pub fn new(payload_bits: u64, header_bits: u64) -> Self {
        assert!(payload_bits > 0, "payload must be non-empty");
        FrameSpec {
            payload_bits,
            header_bits,
        }
    }

    /// Number of coded bits actually put on the air for one frame in `mode`.
    pub fn coded_bits(&self, mode: TransmissionMode) -> u64 {
        let coded_payload = (self.payload_bits as f64 * mode.redundancy_factor()).ceil() as u64;
        coded_payload + self.header_bits
    }

    /// Time the radio is on the air for one frame in `mode`.
    ///
    /// The effective throughput already accounts for coding, so airtime is
    /// (payload + header/code_rate-equivalent) / throughput; we charge the
    /// header at the same effective rate which keeps the model simple and
    /// slightly conservative.
    pub fn airtime(&self, mode: TransmissionMode) -> Duration {
        let total_bits = self.payload_bits + self.header_bits;
        Duration::for_bits(total_bits, mode.throughput_bps())
    }

    /// Airtime for a burst of `count` frames sent back-to-back.
    pub fn burst_airtime(&self, mode: TransmissionMode, count: u64) -> Duration {
        self.airtime(mode) * count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::ALL_MODES;

    #[test]
    fn paper_default_payload_is_2kbit() {
        let f = FrameSpec::paper_default();
        assert_eq!(f.payload_bits, 2_000);
        assert!(f.header_bits > 0);
    }

    #[test]
    fn airtime_ordering_matches_modes() {
        let f = FrameSpec::paper_default();
        // Higher mode ⇒ strictly shorter airtime.
        for w in ALL_MODES.windows(2) {
            assert!(f.airtime(w[0]) < f.airtime(w[1]));
        }
        // 2 Mbps: ~1.03 ms for 2064 bits; 250 kbps: ~8.26 ms.
        let fast = f.airtime(TransmissionMode::Mbps2).as_millis_f64();
        let slow = f.airtime(TransmissionMode::Kbps250).as_millis_f64();
        assert!((fast - 1.032).abs() < 0.01, "fast = {fast}");
        assert!((slow - 8.256).abs() < 0.05, "slow = {slow}");
        assert!(slow / fast > 7.5 && slow / fast < 8.5);
    }

    #[test]
    fn airtime_is_frame_duration_of_milliseconds() {
        // Section II-B: "a packet or physical frame duration in our system is
        // around several milliseconds" — check every mode lands in 0.5–10 ms.
        let f = FrameSpec::paper_default();
        for m in ALL_MODES {
            let ms = f.airtime(m).as_millis_f64();
            assert!((0.5..=10.0).contains(&ms), "{m}: {ms} ms");
        }
    }

    #[test]
    fn coded_bits_and_redundancy() {
        let f = FrameSpec::paper_default();
        let redundancy_bits = |m| f.coded_bits(m) - f.payload_bits - f.header_bits;
        // 2 Mbps uses a rate-1.0 code in our table: no payload expansion.
        assert_eq!(redundancy_bits(TransmissionMode::Mbps2), 0);
        // 450 kbps uses rate 0.45: ~2445 redundancy bits.
        let r = redundancy_bits(TransmissionMode::Kbps450);
        assert!(r > 2000 && r < 2600, "redundancy = {r}");
        // The low-rate-coded modes (450/250 kbps) carry more redundancy than
        // the high-rate-coded ones (2/1 Mbps).  (450 kbps vs 250 kbps is not
        // ordered: 250 kbps buys robustness from BPSK, not from extra FEC.)
        for low in [TransmissionMode::Kbps450, TransmissionMode::Kbps250] {
            for high in [TransmissionMode::Mbps2, TransmissionMode::Mbps1] {
                assert!(redundancy_bits(low) > redundancy_bits(high));
            }
        }
    }

    #[test]
    fn burst_airtime_scales_linearly() {
        let f = FrameSpec::paper_default();
        let one = f.airtime(TransmissionMode::Mbps1);
        assert_eq!(f.burst_airtime(TransmissionMode::Mbps1, 8), one * 8);
        assert_eq!(f.burst_airtime(TransmissionMode::Mbps1, 0), Duration::ZERO);
    }

    #[test]
    fn goodput_below_nominal_throughput() {
        let f = FrameSpec::paper_default();
        for m in ALL_MODES {
            // Useful payload bits per second of airtime: the header costs
            // airtime but carries no payload.
            let g = f.payload_bits as f64 / f.airtime(m).as_secs_f64();
            assert!(g > 0.0);
            assert!(g < m.throughput_bps(), "{m}: goodput {g} >= nominal");
        }
    }

    #[test]
    fn custom_frame_spec() {
        let f = FrameSpec::new(512, 32);
        assert_eq!(f.payload_bits, 512);
        let airtime = f.airtime(TransmissionMode::Mbps2).as_secs_f64();
        assert!((airtime - 544.0 / 2e6).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_payload_rejected() {
        FrameSpec::new(0, 16);
    }
}
