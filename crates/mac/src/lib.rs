//! # caem-mac
//!
//! Medium access control for CAEM: the tone signaling channel and the sensor
//! state machine of Section III-A/B.
//!
//! A sensor node has **two radios** working at different frequencies: a
//! low-power *tone* radio and the *data* radio.  The cluster head broadcasts
//! tone pulses whose inter-pulse interval encodes the current data-channel
//! state (idle / receive / collision, Table I).  A sensor that wants to send:
//!
//! 1. turns on its tone radio and monitors the tone channel ([`sensor`]);
//! 2. when it hears *idle* pulses it measures their SNR — the CSI of the
//!    (reciprocal) data channel — and compares it against the current
//!    transmission threshold;
//! 3. if the threshold is met it backs off a random time
//!    `rand[0,1) × 2^r × slot × CW` ([`backoff`]), re-checks both
//!    conditions, and only then turns the data radio on and transmits a burst
//!    of `3..=8` buffered packets ([`burst`]);
//! 4. the tone radio stays on during transmission, so a *collision* tone from
//!    the head aborts the burst immediately (collision **detection**, not
//!    just avoidance).
//!
//! The sensor state machine is a pure, synchronous transition function
//! (inputs → actions), which keeps it unit-testable.  The cluster head's
//! side — tracking active senders, detecting collisions and choosing the
//! advertised tone state — is modelled by the event-driven runner in
//! `caem-wsnsim`, which also orchestrates the sensors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod burst;
pub mod sensor;
pub mod tone;

pub use backoff::{BackoffConfig, BackoffScheduler};
pub use burst::BurstPolicy;
pub use sensor::{SensorAction, SensorMac, SensorMacConfig, SensorMacState};
pub use tone::{ChannelState, TonePulse, ToneSchedule, ToneSignal};
