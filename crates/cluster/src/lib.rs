//! # caem-cluster
//!
//! LEACH clustering substrate (Low-Energy Adaptive Clustering Hierarchy,
//! Heinzelman et al.), the reference protocol the paper layers CAEM on.
//!
//! LEACH organises the network in rounds.  At the start of each round every
//! sensor independently decides whether to become a cluster head (CH) with a
//! probability given by the rotation threshold formula; non-head nodes join
//! the nearest elected head.  Rotating the head role spreads the expensive
//! receive/aggregate/forward work evenly, which is why (Fig. 9) all nodes die
//! within a short window of each other.
//!
//! * [`election`] — the threshold formula `T(n) = P / (1 − P·(r mod 1/P))`
//!   for nodes that have not served in the current epoch, the per-node
//!   election state, and the per-round draw.
//! * [`formation`] — nearest-head cluster formation and the degenerate-case
//!   handling (no head elected ⇒ force one so the round is not lost).
//! * [`rounds`] — round/epoch bookkeeping and round-duration scheduling.
//!
//! The paper sets `P = 0.05` (5 % of the 100 nodes are heads each round) and
//! assumes different clusters operate in different frequency bands, so
//! inter-cluster interference is not modelled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod election;
pub mod formation;
pub mod rounds;

pub use election::{ElectionConfig, LeachElection};
pub use formation::{Cluster, ClusterFormation};
pub use rounds::{RoundClock, RoundConfig};
