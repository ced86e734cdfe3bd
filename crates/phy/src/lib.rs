//! # caem-phy
//!
//! Adaptive physical layer for the CAEM reproduction — a stand-in for the
//! ABICM (Adaptive Bit-Interleaved Coded Modulation) PHY the paper adopts
//! from Kwok & Lau.
//!
//! The paper uses a 4-mode configuration giving four distinct throughput
//! levels after adaptive channel coding and modulation: **2 Mbps, 1 Mbps,
//! 450 kbps and 250 kbps**.  When the CSI indicates a good channel the
//! transmitter uses a high-order modulation and a high-rate code (more
//! useful bits per unit time, less redundancy); when the channel is poor it
//! falls back to a low-order modulation and a low-rate code (longer airtime,
//! more redundancy).  That mapping — *better channel ⇒ less airtime and less
//! FEC energy* — is the physical fact CAEM exploits.
//!
//! Modules:
//!
//! * [`mode`] — the four transmission modes, their SNR switching thresholds,
//!   and the threshold-class arithmetic the CAEM policies manipulate.
//! * [`ber`] — bit-error-rate and packet-error-rate models per modulation.
//! * [`frame`] — frame layout and airtime computation (payload + FEC
//!   redundancy + header at the mode's raw symbol rate).
//!
//! Mode selection is instantaneous: a burst uses
//! [`TransmissionMode::best_for_snr`] of the CSI measured just before it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ber;
pub mod frame;
pub mod mode;

pub use ber::{packet_error_rate, Modulation};
pub use frame::FrameSpec;
pub use mode::{TransmissionMode, ALL_MODES};
