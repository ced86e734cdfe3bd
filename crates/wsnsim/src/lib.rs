//! # caem-wsnsim
//!
//! The full cluster-based wireless-sensor-network simulator: LEACH rounds,
//! the CAEM tone-signalled MAC, the adaptive PHY, the time-varying channel
//! and the Table II energy model, all driven by one deterministic
//! discrete-event loop.
//!
//! This crate is what the `caem-bench` binaries (`paper`, `ablation`,
//! `netperf`, `experiment`, `caem-serve`) and the examples run.  The flow of
//! one simulation:
//!
//! 1. [`config::ScenarioConfig`] describes the scenario (node count, field,
//!    traffic load, protocol variant, seed, …) — `paper_default` reproduces
//!    Table II.
//! 2. [`runner::SimulationRun::new`] deploys the nodes, seeds every random
//!    stream and primes the event queue.
//! 3. [`runner::SimulationRun::run`] executes the event loop until the
//!    configured horizon (or until the whole network is dead) and returns a
//!    [`result::SimulationResult`] holding the Fig. 8–12 metric trackers.
//! 4. [`experiment`] runs many simulations: any (scenario × policy × seed)
//!    grid is enumerated into one flat job list and fanned out in a single
//!    parallel layer, which returns every run's whole result
//!    ([`experiment::ExperimentSpec::simulate`], what `paper` and
//!    `ablation` read) or aggregates the cells into mean ± 95 % CI summaries
//!    ([`experiment::ExperimentSpec::run`]).
//! 5. [`persist`] makes grids durable: completed jobs stream to a JSONL
//!    [`persist::ExperimentStore`], interrupted grids resume with
//!    [`experiment::ExperimentSpec::run_with_store`] (bit-identical reports),
//!    historical stores re-aggregate offline, and
//!    [`experiment::ExperimentSpec::run_sequential`] adds replicates per cell
//!    until a CI-half-width target is met.
//! 6. [`serve`] distributes grids: a daemon (`caem-serve`) journals
//!    submitted grids and settled records under a store directory, leases
//!    shards of a grid to socket workers (`experiment --connect`) and
//!    finalizes byte-identical reports.  Every layer speaks the same two
//!    types: a grid is an [`experiment::ExperimentSpec`] (its canonical
//!    JSON is what a grant ships and `--print-spec` prints, and hashes to
//!    the grid's identity) and a job is an [`experiment::ExperimentJob`].
//!
//! Scenario diversity beyond the paper's single uniform deployment lives in
//! [`config::Topology`] (grid / Gaussian hotspots / corridor layouts),
//! [`config::ScenarioConfig::initial_energy_spread`] (heterogeneous
//! batteries) and [`config::ChurnConfig`] (random node-failure injection).
//!
//! Grids can be defined **declaratively**: a [`spec::GridSpec`] document
//! (JSON, strict parsing with typed field-path [`config::ConfigError`]s)
//! fully describes scenarios, policies, seeds and sequential-stopping
//! settings, and resolves deterministically into an
//! [`experiment::ExperimentSpec`] — the committed `specs/zoo.json` is the
//! `experiment` binary's built-in scenario zoo.
//!
//! ## Simplifications (documented substitutions)
//!
//! * Tone pulses are not simulated individually; a monitoring sensor samples
//!   the head's advertised state and the link CSI every idle-pulse period and
//!   is charged the corresponding tone-radio duty-cycle energy.
//! * Cluster-head data-radio receive energy is charged for actual burst
//!   airtime (the LEACH-style per-bit accounting the paper follows), not for
//!   idle listening; the head's tone broadcasts are charged at their duty
//!   cycle for the whole round.
//! * Inter-cluster interference is absent by construction (the paper assumes
//!   distinct frequency bands per cluster).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod events;
pub mod experiment;
pub mod faults;
pub mod persist;
pub mod result;
pub mod runner;
pub mod serve;
pub mod spec;
pub mod table;

pub use config::{
    ChurnConfig, ConfigError, ScenarioConfig, Topology, TrafficModel, TrafficProfile,
};
pub use experiment::{
    ExperimentCell, ExperimentJob, ExperimentReport, ExperimentSpec, ScenarioSpec,
    SequentialOutcome, SequentialRound, SequentialStopping,
};
pub use faults::{classify_io_error, ErrorClass, FaultKind, FaultPlan, FaultPlanConfig, RunEvent};
pub use persist::{config_hash, ExperimentStore, JobFailure, JobRecord, StoreError, StoreOptions};
pub use result::{NodeSummary, SimulationResult};
pub use runner::SimulationRun;
pub use serve::{
    run_socket_worker, serve_connection, serve_listener, LoopbackSpawner, ServiceClient,
    ServiceConfig, ServiceState, SocketWorkerOptions, TcpLink, WorkerExit,
};
pub use spec::{GridSpec, ResolvedGrid};
pub use table::NodeTable;
