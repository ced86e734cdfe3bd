//! In-process workers: [`LoopbackSpawner`] attaches socket-worker threads
//! to an in-process daemon over loopback links, for deterministic tests
//! and examples.  Real worker processes attach to `caem-serve` over TCP
//! with `experiment --connect`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::faults::FaultPlan;

use super::daemon::{serve_connection, ServiceState};
use super::transport::{faulted_pair, LoopbackLink};
use super::worker::{run_socket_worker, SocketWorkerOptions, WorkerExit, WorkerOutcome};

/// A handle on one worker thread started by [`LoopbackSpawner::spawn`].
pub struct WorkerHandle(std::thread::JoinHandle<Result<WorkerOutcome, String>>);

impl WorkerHandle {
    /// Wait for the worker to finish.  `Err` describes an abnormal exit
    /// (rejected handshake, transport failure or panic).
    pub fn join(self) -> Result<WorkerOutcome, String> {
        self.0
            .join()
            .unwrap_or_else(|_| Err("worker thread panicked".to_string()))
    }
}

/// Spawn in-process socket workers wired to an in-process daemon over
/// loopback links.  Each spawn starts a daemon connection thread and a
/// worker thread joined by a pair of loopback links; no listener, no
/// sockets, fully deterministic.
pub struct LoopbackSpawner {
    state: Arc<Mutex<ServiceState>>,
    stop: Arc<AtomicBool>,
    faults: Option<Arc<FaultPlan>>,
}

impl LoopbackSpawner {
    /// A spawner attaching workers to the given daemon state.
    pub fn new(state: Arc<Mutex<ServiceState>>) -> Self {
        LoopbackSpawner::with_faults(state, None)
    }

    /// [`LoopbackSpawner::new`] under `faults`: both ends of every link it
    /// opens delay frames as the plan says, and every worker it spawns
    /// runs its jobs under the plan (poison).
    pub fn with_faults(state: Arc<Mutex<ServiceState>>, faults: Option<Arc<FaultPlan>>) -> Self {
        LoopbackSpawner {
            state,
            stop: Arc::new(AtomicBool::new(false)),
            faults,
        }
    }

    /// Open a client connection to the daemon (for submit/status/fetch).
    pub fn connect(&self) -> LoopbackLink {
        let (client, mut served) = faulted_pair(self.faults.clone());
        let state = self.state.clone();
        std::thread::spawn(move || serve_connection(&mut served, &state));
        client
    }

    /// Start worker `index` on its own thread, attached to this spawner's
    /// daemon.
    pub fn spawn(&self, index: usize) -> WorkerHandle {
        let mut link = self.connect();
        let mut opts = SocketWorkerOptions::new(format!("loopback_{index:03}"));
        opts.stop = self.stop.clone();
        opts.faults = self.faults.clone();
        WorkerHandle(std::thread::spawn(move || {
            match run_socket_worker(&mut link, &opts) {
                Ok(WorkerExit::Finished(outcome)) => Ok(outcome),
                Ok(WorkerExit::Rejected(reason)) => {
                    Err(format!("worker {index} rejected by daemon: {reason}"))
                }
                Err(e) => Err(format!("worker {index} transport failure: {e}")),
            }
        }))
    }

    /// Ask every spawned worker to exit gracefully: finish the jobs in
    /// flight, then hang up, which frees any unfinished shard's lease.
    pub fn stop_workers(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}
