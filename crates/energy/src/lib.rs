//! # caem-energy
//!
//! Radio energy model and per-node battery accounting.
//!
//! The communication component dominates a sensor node's energy budget
//! (Section I: transmitting one bit costs ≈2000× executing one instruction),
//! so the paper models node energy purely as *radio power × state residency*
//! plus the radio start-up cost.  Table II gives the power figures this crate
//! encodes as defaults:
//!
//! | Component            | Power   |
//! |-----------------------|---------|
//! | Data radio, transmit  | 0.66 W  |
//! | Data radio, receive   | 0.305 W |
//! | Data radio, sleep     | 3.5 mW  |
//! | Tone radio, transmit  | 92 mW   |
//! | Tone radio, receive   | 36 mW   |
//!
//! plus the RFM-class radio's ~20 ms sleep→active start-up transient
//! (Section IV), during which the transceiver burns receive-level power
//! without moving any bits.  The paper explicitly neglects FEC
//! encoding/decoding computation energy "as negligible compared with energy
//! cost in electronics"; [`codec::CodecEnergyModel`] models it anyway (default
//! zero) so the ablation bench can test how much that assumption matters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod battery;
pub mod codec;
pub mod power;

pub use battery::{Battery, EnergyCategory, EnergyLedger};
pub use codec::CodecEnergyModel;
pub use power::RadioPowerProfile;
