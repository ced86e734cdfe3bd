//! # caem-metrics
//!
//! The evaluation metrics of Section IV, computed from simulator output:
//!
//! * [`energy`] — average remaining energy over time (Fig. 8) and average
//!   energy per successfully delivered packet (Fig. 11);
//! * [`lifetime`] — nodes-alive curve (Fig. 9) and network lifetime under the
//!   "dead once X % of nodes are exhausted" rule (Fig. 10);
//! * [`perf`] — average packet delay, aggregate throughput and successful
//!   delivery rate (the network-performance metrics deferred to the paper's
//!   long version, reproduced here as extension results);
//! * [`fairness`] — standard deviation of per-node queue lengths, the paper's
//!   short-term fairness measure (Fig. 12);
//! * [`report`] — plain-text / CSV / markdown table emission used by the
//!   `paper` binary (through `caem_bench::emit`);
//! * [`prof`] — the always-compiled, runtime-gated time-breakdown profiler:
//!   wall time and event counts per subsystem and per event kind, summed
//!   exactly into one process-wide profile and rendered as carcara-style
//!   breakdown tables or Chrome trace-event JSON.
//!
//! Every summary here is built by one fold over its observations and is
//! never merged with another: a replicated experiment report folds its
//! per-seed records in one canonical order, which is what makes it
//! byte-identical however the records arrived.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod fairness;
pub mod lifetime;
pub mod perf;
pub mod prof;
pub mod report;

pub use energy::{EnergyTracker, PerPacketEnergy};
pub use fairness::QueueFairness;
pub use lifetime::{LifetimeTracker, DEFAULT_DEATH_FRACTION};
pub use perf::NetworkPerformance;
pub use prof::{Breakdown, ProfKey, Profile, Span};
pub use report::{Column, Table};
