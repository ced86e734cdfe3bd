//! # caem-suite
//!
//! Umbrella crate for the CAEM reproduction: re-exports every workspace crate
//! under one import path so the examples and the workspace-level integration
//! tests can write `caem_suite::wsnsim::…` instead of depending on each crate
//! individually.
//!
//! See `README.md` for the project overview: its *Crate map* section is the
//! system inventory, and *Regenerating the paper's figures* and *Running
//! experiments* list the binaries that produce the measured results.

pub use caem;
pub use caem_channel as channel;
pub use caem_cluster as cluster;
pub use caem_energy as energy;
pub use caem_mac as mac;
pub use caem_metrics as metrics;
pub use caem_phy as phy;
pub use caem_simcore as simcore;
pub use caem_traffic as traffic;
pub use caem_wsnsim as wsnsim;

/// The version of the reproduction suite.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
