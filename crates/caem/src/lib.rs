//! # caem — Channel Adaptive Energy Management
//!
//! The paper's core contribution: deciding *when* a sensor should spend
//! energy transmitting, given that the wireless channel — and therefore the
//! energy cost of moving one useful bit — varies with time.
//!
//! The idea in one sentence: because a packet sent over a good link (high
//! CSI → high ABICM mode → short airtime, little FEC) costs several times
//! less energy than the same packet sent over a bad link, **buffer packets
//! until the measured CSI clears a transmission threshold** — and adapt that
//! threshold to the queue state so nodes with persistently bad links are not
//! starved.
//!
//! The three policies are the variants of one enum, [`policy::Policy`]:
//!
//! | Variant | Paper name | Behaviour |
//! |---|---|---|
//! | [`policy::Policy::Adaptive`] | Scheme 1 | threshold starts at 2 Mbps; once the queue exceeds `Q_threshold` (15) the ΔV predictor lowers it one class when the queue is growing and snaps it back to 2 Mbps when the queue drains |
//! | [`policy::Policy::Fixed`] | Scheme 2 | threshold pinned at 2 Mbps for the whole run; maximum energy savings, worst fairness/delay |
//! | [`policy::Policy::PureLeach`] | pure LEACH | no channel requirement at all — transmit whenever the link supports *any* mode (the non-channel-adaptive baseline) |
//!
//! The ΔV predictor ([`predictor::QueuePredictor`]) samples the queue length
//! every `K = 5` packet arrivals and differences consecutive samples, exactly
//! as in the paper's Fig. 6 pseudo-code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod policy;
pub mod predictor;

pub use config::CaemConfig;
pub use policy::{Policy, PolicyKind};
pub use predictor::{QueuePredictor, Trend};
