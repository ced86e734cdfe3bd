//! The experiment service: a daemon that accepts grid submissions and
//! multiplexes their shards across a fleet of workers attached over a
//! pluggable transport — the one multi-process run mode of the suite.
//!
//! Shard/lease semantics are spoken over length-prefixed JSON frames
//! ([`proto`]): a worker handshakes (protocol version, optional pinned
//! grid hash), claims a shard and receives the grid's resolved
//! [`ExperimentSpec`](crate::experiment::ExperimentSpec) plus the keys of
//! the shard's pending jobs, heartbeats while running,
//! streams record lines back as jobs settle, and declares the shard done.
//! No shared filesystem is involved.  Both transports deliver every frame
//! exactly once and in order, and a peer fails by stopping (crash-stop),
//! so there is no retransmission: a request is sent once, and the one
//! recovery check is end to end — a dead or silent worker's leases are
//! re-granted, and a shard declared done while some of its jobs are still
//! unsettled is reopened.  Reports are finalized daemon-side through the
//! aggregation path every run mode shares (the one behind
//! [`ExperimentReport::from_records`](crate::experiment::ExperimentReport::from_records)
//! and [`ExperimentStore::rebuild_report`](crate::persist::ExperimentStore::rebuild_report)),
//! so a fetched report is **byte-identical** to a single-process
//! [`ExperimentSpec::run`](crate::experiment::ExperimentSpec::run) of the
//! same spec, and to the offline re-aggregation of the grid's store.
//!
//! Transports:
//!
//! | transport | worker attach | used by |
//! |---|---|---|
//! | TCP socket ([`TcpLink`]) | `experiment --connect ADDR` | `caem-serve` fleets |
//! | loopback ([`LoopbackLink`], [`LoopbackSpawner`]) | in-memory channels | deterministic tests, examples, perfbench |
//!
//! `caem-serve --listen` runs the daemon on a store directory
//! ([`ServiceState::open`]): accepted submissions and every grid's settled
//! lines are journaled there, through the same append log a local
//! experiment store writes with, so a daemon killed with `kill -9` and
//! restarted on the same directory resumes its grids.  The loopback
//! transport carries the *same* frames as TCP but over channels, and is
//! the only place the chaos plan's frame delays are injected, widening
//! race windows in-process, while CI exercises the real sockets with
//! `kill -9`s of workers and of the daemon.
//!
//! A job that panics on both of its two attempts is quarantined by its
//! worker as a [`JobFailure`](crate::persist::JobFailure) instead of
//! wedging its shard.  A daemon keeps the first line that settles each
//! job, record or quarantine.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod spawn;
pub mod transport;
pub mod worker;

pub use client::{ServiceClient, ServiceStatus, Submission};
pub use daemon::{serve_connection, serve_listener, ServiceConfig, ServiceState};
pub use proto::{GridProgress, Message, ProtoError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use spawn::{LoopbackSpawner, WorkerHandle};
pub use transport::{loopback_pair, FrameLink, LoopbackLink, TcpLink};
pub use worker::{run_socket_worker, SocketWorkerOptions, WorkerExit, WorkerOutcome};
