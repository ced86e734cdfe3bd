//! The experiment service: a daemon that accepts grid submissions and
//! multiplexes their shards across a fleet of workers attached over a
//! pluggable transport — the one coordination protocol of the suite.
//!
//! Shard/lease semantics are spoken over length-prefixed JSON frames
//! ([`proto`]): a worker handshakes (protocol version, optional pinned
//! manifest hash), claims a shard and receives the grid's resolved spec
//! plus the keys of the shard's pending jobs, heartbeats while running,
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
//! | TCP socket ([`TcpLink`]) | `--connect ADDR` | `caem-serve` fleets and `experiment --workers N` |
//! | loopback ([`LoopbackSpawner`]) | in-memory channels | deterministic tests, the coordinator's inline worker |
//!
//! `experiment --workers N` is a [`Coordinator`]: it hosts a daemon on a
//! `127.0.0.1:0` listener with its experiment store attached, and spawns N
//! `--connect` worker processes.  The loopback transport carries the
//! *same* frames as TCP but over channels, and is the only place the chaos
//! plan's frame faults (drop, duplicate, delay, truncate) are injected —
//! the protocol's recovery machinery is exercised deterministically
//! in-process, while CI exercises the real sockets with mid-grid
//! `kill -9`s.

pub mod client;
pub mod coordinator;
pub mod daemon;
pub mod proto;
pub mod transport;
pub mod worker;

pub use client::{ServiceClient, ServiceStatus, Submission};
pub use coordinator::Coordinator;
pub use daemon::{serve_connection, serve_listener, ServiceConfig, ServiceState};
pub use proto::{GridProgress, Message, ProtoError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use transport::{loopback_pair, FrameLink, LoopbackLink, TcpLink};
pub use worker::{run_socket_worker, SocketWorkerOptions, WorkerExit};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::distrib::{DistribError, WorkerHandle, WorkerSpawner};

/// Spawn in-process socket workers wired to an in-process daemon over
/// loopback links.  Each spawn starts a daemon connection thread and a
/// worker thread joined by a [`loopback_pair`]; no listener, no sockets,
/// fully deterministic.
pub struct LoopbackSpawner {
    state: Arc<Mutex<ServiceState>>,
    stop: Arc<AtomicBool>,
}

impl LoopbackSpawner {
    /// A spawner attaching workers to the given daemon state.
    pub fn new(state: Arc<Mutex<ServiceState>>) -> Self {
        LoopbackSpawner {
            state,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Open a client connection to the daemon (for submit/status/fetch).
    pub fn connect(&self) -> LoopbackLink {
        let (client, mut served) = loopback_pair();
        let state = self.state.clone();
        std::thread::spawn(move || serve_connection(&mut served, &state));
        client
    }

    /// Ask every spawned worker to exit gracefully: finish or release the
    /// shard in hand, then hang up.
    pub fn stop_workers(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl WorkerSpawner for LoopbackSpawner {
    /// The endpoint is ignored: the worker attaches to this spawner's
    /// daemon state directly.
    fn spawn(
        &self,
        _endpoint: &str,
        index: usize,
        _thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        let (worker_link, mut served) = loopback_pair();
        let state = self.state.clone();
        std::thread::spawn(move || serve_connection(&mut served, &state));
        let stop = self.stop.clone();
        let handle = std::thread::spawn(move || {
            let mut link = worker_link;
            let mut opts = SocketWorkerOptions::new(format!("loopback_{index:03}"));
            opts.stop = stop;
            match run_socket_worker(&mut link, &opts) {
                Ok(WorkerExit::Finished(outcome)) => Ok(outcome),
                Ok(WorkerExit::Rejected(reason)) => Err(DistribError::Format(format!(
                    "worker {index} rejected by daemon: {reason}"
                ))),
                Err(e) => Err(DistribError::Format(format!(
                    "worker {index} transport failure: {e}"
                ))),
            }
        });
        Ok(WorkerHandle::from_thread(handle))
    }
}
