//! # caem-traffic
//!
//! Workload generation and packet buffering.
//!
//! In the paper's evaluation every sensor is a homogeneous Poisson source;
//! the "added traffic load" swept in Figs. 10–12 is the per-node packet
//! generation rate (packets/second).  Each node buffers generated packets in
//! a bounded queue (Table II: 50 packets) until the MAC gets to transmit
//! them; buffer overflow is one of the failure modes the CAEM Scheme 1
//! threshold adjustment exists to avoid.
//!
//! * [`source`] — Poisson, CBR and two-state bursty (MMPP) sources, as the
//!   variants of one [`source::TrafficSource`] enum with a per-node
//!   [`source::TrafficState`].
//! * [`profile`] — deterministic time-of-day modulation: a diurnal intensity
//!   envelope applied to any source by time warping
//!   ([`source::TrafficSource::Diurnal`]).
//! * [`buffer`] — bounded FIFO with drop accounting and the queue-length
//!   observations (`V(t_i)`) the CAEM predictor consumes.
//!
//! A queued packet is just its creation time: its origin is the buffer's
//! owner and its size is the scenario's fixed payload (Table II: 2 kbit),
//! so neither is stored per packet.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod profile;
pub mod source;

pub use buffer::PacketBuffer;
pub use profile::DiurnalCycle;
pub use source::{
    BurstySource, BurstyState, CbrSource, PoissonSource, TrafficSource, TrafficState,
};
