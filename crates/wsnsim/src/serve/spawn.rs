//! Worker transports: how a coordinator brings workers to its daemon.
//!
//! [`ProcessSpawner`] re-invokes a binary as `--connect <addr>` worker
//! processes attached over TCP; [`LoopbackSpawner`] runs in-process worker
//! threads over in-memory links, for deterministic tests and the
//! coordinator's inline worker.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use caem_metrics::prof::PROFILE_ENV;

use crate::faults::{FaultPlan, CHAOS_ENV};

use super::daemon::{serve_connection, ServiceState};
use super::transport::{faulted_pair, LoopbackLink};
use super::worker::{run_socket_worker, SocketWorkerOptions, WorkerExit, WorkerOutcome};

/// Errors raised while coordinating a distributed grid.
#[derive(Debug)]
pub enum DistribError {
    /// Process failure (locating or spawning a worker binary).
    Io(std::io::Error),
    /// A worker could not be brought to the grid.
    Format(String),
    /// The grid finalized but its records and quarantines do not cover
    /// every job.
    Incomplete {
        /// Number of jobs with no valid record.
        missing: usize,
    },
}

impl std::fmt::Display for DistribError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistribError::Io(e) => write!(f, "distributed runner I/O error: {e}"),
            DistribError::Format(m) => write!(f, "distributed runner error: {m}"),
            DistribError::Incomplete { missing } => write!(
                f,
                "the grid finalized but {missing} jobs have no valid record"
            ),
        }
    }
}

impl std::error::Error for DistribError {}

impl From<std::io::Error> for DistribError {
    fn from(e: std::io::Error) -> Self {
        DistribError::Io(e)
    }
}

/// A handle on one spawned worker (process or thread).
pub struct WorkerHandle(HandleInner);

enum HandleInner {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<Result<WorkerOutcome, DistribError>>),
}

impl WorkerHandle {
    /// Wrap an in-process worker thread.
    pub fn from_thread(
        handle: std::thread::JoinHandle<Result<WorkerOutcome, DistribError>>,
    ) -> Self {
        WorkerHandle(HandleInner::Thread(handle))
    }

    /// Wait for the worker to finish.  `Err` carries a description of an
    /// abnormal exit (non-zero status, kill signal, panic or worker error);
    /// the coordinator treats that as "its jobs will be re-granted", not as
    /// a fatal condition.
    pub fn join(self) -> Result<(), String> {
        match self.0 {
            HandleInner::Process(mut child) => match child.wait() {
                Ok(status) if status.success() => Ok(()),
                Ok(status) => Err(format!("worker process exited with {status}")),
                Err(e) => Err(format!("could not wait for worker process: {e}")),
            },
            HandleInner::Thread(handle) => match handle.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("worker thread failed: {e}")),
                Err(_) => Err("worker thread panicked".to_string()),
            },
        }
    }
}

/// The worker transport: how a coordinator brings workers to its daemon.
pub trait WorkerSpawner {
    /// Launch worker `index` against the daemon at `endpoint`.
    /// `thread_budget` is the rayon thread share this worker should confine
    /// itself to (exported as `RAYON_TOTAL_THREADS` for process workers;
    /// in-process workers share the parent's budget, which already caps the
    /// total by construction).
    fn spawn(
        &self,
        endpoint: &str,
        index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError>;
}

/// Spawn real worker **processes**: re-invokes a binary (normally
/// `std::env::current_exe()`) as `--connect <endpoint>`, with
/// `RAYON_TOTAL_THREADS` set to the worker's thread share.  The chaos and
/// profiler variables ([`CHAOS_ENV`], [`PROFILE_ENV`]) are never
/// inherited from this process: a worker sees them only when `envs`
/// forwards them, so a stray variable cannot fault or profile a run that
/// did not ask for it.
#[derive(Debug, Clone)]
pub struct ProcessSpawner {
    /// The worker binary to execute.
    pub program: PathBuf,
    /// Extra environment exported to every worker (how the `experiment`
    /// binary forwards the chaos plan and the profiler across `exec`).
    pub envs: Vec<(String, String)>,
}

impl ProcessSpawner {
    /// Spawn workers by re-invoking the current executable.
    pub fn current_exe() -> Result<Self, DistribError> {
        Ok(ProcessSpawner {
            program: std::env::current_exe()?,
            envs: Vec::new(),
        })
    }
}

impl WorkerSpawner for ProcessSpawner {
    fn spawn(
        &self,
        endpoint: &str,
        _index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        let child = std::process::Command::new(&self.program)
            .arg("--connect")
            .arg(endpoint)
            .env("RAYON_TOTAL_THREADS", thread_budget.to_string())
            .env_remove(CHAOS_ENV)
            .env_remove(PROFILE_ENV)
            .envs(self.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .spawn()?;
        Ok(WorkerHandle(HandleInner::Process(child)))
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
    /// opens inject the plan's frame faults, and every worker it spawns
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
        let mut link = self.connect();
        let stop = self.stop.clone();
        let faults = self.faults.clone();
        let handle = std::thread::spawn(move || {
            let mut opts = SocketWorkerOptions::new(format!("loopback_{index:03}"));
            opts.stop = stop;
            opts.faults = faults;
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
