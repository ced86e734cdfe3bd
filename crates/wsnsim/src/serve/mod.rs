//! The experiment service: a daemon that accepts grid submissions and
//! multiplexes their shards across a fleet of workers attached over a
//! pluggable transport — the one coordination protocol of the suite.
//!
//! Shard/lease semantics are spoken over length-prefixed JSON frames
//! ([`proto`]): a worker handshakes (protocol version, optional pinned
//! grid hash), claims a shard and receives the grid's resolved
//! [`ExperimentSpec`](crate::experiment::ExperimentSpec) plus the keys of
//! the shard's pending jobs, heartbeats while running,
//! streams record lines back as jobs settle, and reconciles completion by
//! count so lost frames are detected and resent.  No shared filesystem is
//! involved.  Reports are finalized daemon-side through the canonical
//! [`ExperimentReport::from_records`](crate::experiment::ExperimentReport::from_records)
//! pipeline, so a fetched report is **byte-identical** to a single-process
//! [`ExperimentSpec::run`](crate::experiment::ExperimentSpec::run) of the
//! same spec.
//!
//! Transports:
//!
//! | transport | worker attach | used by |
//! |---|---|---|
//! | TCP socket ([`TcpLink`], [`ProcessSpawner`]) | `--connect ADDR` | `caem-serve` fleets and `experiment --workers N` |
//! | loopback ([`LoopbackLink`], [`LoopbackSpawner`]) | in-memory channels | deterministic tests, the coordinator's inline worker |
//!
//! `experiment --workers N` is a [`Coordinator`]: it hosts a daemon on a
//! `127.0.0.1:0` listener with its experiment store attached, and spawns N
//! `--connect` worker processes.  The loopback transport carries the
//! *same* frames as TCP but over channels, and is the only place the chaos
//! plan's frame faults (drop, duplicate, delay, truncate) are injected —
//! the protocol's recovery machinery is exercised deterministically
//! in-process, while CI exercises the real sockets with mid-grid
//! `kill -9`s.
//!
//! A job that panics on both of its two attempts is quarantined by its
//! worker as a [`JobFailure`](crate::persist::JobFailure) instead of
//! wedging its shard.  Thread discipline: a [`ProcessSpawner`] exports
//! `RAYON_TOTAL_THREADS = process_thread_cap() / workers` to every worker
//! process ([`rayon::split_thread_budget`]), so the whole process tree
//! stays within the budget one process would use.

pub mod client;
pub mod coordinator;
pub mod daemon;
pub mod proto;
pub mod spawn;
pub mod transport;
pub mod worker;

pub use client::{ServiceClient, ServiceStatus, Submission};
pub use coordinator::Coordinator;
pub use daemon::{serve_connection, serve_listener, ServiceConfig, ServiceState};
pub use proto::{GridProgress, Message, ProtoError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use spawn::{DistribError, LoopbackSpawner, ProcessSpawner, WorkerHandle, WorkerSpawner};
pub use transport::{loopback_pair, FrameLink, LoopbackLink, TcpLink};
pub use worker::{run_socket_worker, SocketWorkerOptions, WorkerExit, WorkerOutcome};
