//! # caem-simcore
//!
//! Deterministic discrete-event simulation (DES) substrate used by every other
//! crate in the CAEM reproduction suite.
//!
//! The original paper ("On Channel Adaptive Energy Management in Wireless
//! Sensor Networks", Lin & Kwok, ICPPW 2005) evaluates CAEM with an ad-hoc
//! event-driven simulator that is not publicly available.  This crate rebuilds
//! that substrate from scratch:
//!
//! * [`SimTime`] / [`Duration`] — fixed-point virtual time (nanosecond
//!   resolution) so event ordering is exact and platform independent.
//! * [`EventQueue`] — a monotone radix pending-event set with FIFO
//!   tie-breaking for simultaneous events; it never accepts an event
//!   scheduled before the instant it last delivered.
//! * [`rng`] — splittable, seedable random-number streams so every stochastic
//!   component (traffic, shadowing, fading, LEACH election, backoff) draws
//!   from an independent, reproducible stream.
//! * [`stats`] — running statistics (Welford), histograms and time series
//!   used by the metrics crate.
//!
//! # Example
//!
//! ```
//! use caem_simcore::{Duration, EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_millis(5), "late");
//! queue.push(SimTime::ZERO + Duration::from_millis(2), "early");
//! let mut batch = Vec::new();
//! let at = queue.pop_batch_at_or_before(SimTime::from_secs(1), &mut batch);
//! assert_eq!(at, Some(SimTime::from_millis(2)));
//! assert_eq!(batch, vec!["early"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{Event, EventQueue};
pub use rng::{RngStream, StreamRng};
pub use stats::{Histogram, RunningStats, TimeSeries};
pub use time::{Duration, SimTime};
