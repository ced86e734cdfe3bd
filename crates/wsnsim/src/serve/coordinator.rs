//! The `experiment --workers N` coordinator: a daemon hosted in-process,
//! N spawned workers attached to it, and one grid at a time run to
//! completion.
//!
//! The coordinator owns no leasing logic of its own — shards, leases,
//! eviction and record validation are the daemon's ([`ServiceState`]).
//! It submits a grid, then waits for the daemon to finalize it while
//! reaping worker exits.  A worker that dies only delays its shard: the
//! daemon re-grants the unsettled jobs to the survivors.  If every worker
//! has exited with jobs still open (for example after chaos kills), one
//! in-process [`LoopbackSpawner`] worker finishes them, under the run's
//! fault plan.
//!
//! With a store attached to the daemon ([`ServiceState::attach_store`])
//! every settled line is journaled as it arrives, so a coordinator killed
//! mid-grid resumes from its store and re-runs only what it never
//! recorded.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::experiment::{ExperimentReport, ExperimentSpec};
use crate::faults::{self, FaultPlan, RunEvent};
use crate::persist::{ExperimentStore, StoreError};

use super::spawn::{DistribError, LoopbackSpawner, WorkerHandle, WorkerSpawner};
use super::ServiceState;

/// How long the coordinator waits for a worker exit before re-checking
/// whether its grid has finished.
const POLL: Duration = Duration::from_millis(5);

/// A daemon plus the workers spawned against it.
pub struct Coordinator {
    state: Arc<Mutex<ServiceState>>,
    /// One message per spawned worker, sent when it exits.
    exits: Receiver<Result<(), String>>,
    /// Spawned workers that have not exited yet.
    live: usize,
    /// The in-process worker started once every spawned one is gone.
    inline: Option<WorkerHandle>,
    /// The fault plan the inline worker runs under.
    faults: Option<Arc<FaultPlan>>,
}

fn lock(state: &Mutex<ServiceState>) -> MutexGuard<'_, ServiceState> {
    state.lock().expect("service lock")
}

impl Coordinator {
    /// Spawn `workers` workers through `spawner`, attached to `endpoint` —
    /// the address `state` is served on.  Each gets an equal share of this
    /// process's thread budget.  `faults` is the run's fault plan, which
    /// the inline fallback worker runs under (the spawned workers get it
    /// from `spawner`).
    pub fn start<S: WorkerSpawner>(
        state: Arc<Mutex<ServiceState>>,
        spawner: &S,
        endpoint: &str,
        workers: usize,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self, DistribError> {
        assert!(workers >= 1, "need at least one worker");
        let budget = rayon::split_thread_budget(workers);
        let (tx, exits) = mpsc::channel();
        for index in 0..workers {
            let handle = spawner.spawn(endpoint, index, budget)?;
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(handle.join());
            });
        }
        Ok(Coordinator {
            state,
            exits,
            live: workers,
            inline: None,
            faults,
        })
    }

    /// Run `spec` to completion and return its report — byte-identical to
    /// [`ExperimentSpec::run`] whatever the workers did, minus any
    /// quarantined jobs, which land in the report's `failures`.
    pub fn run(&mut self, spec: &ExperimentSpec) -> Result<ExperimentReport, DistribError> {
        spec.assert_distinct_axes();
        assert!(spec.job_count() >= 1, "cannot distribute an empty grid");
        let grid = lock(&self.state).submit_grid("experiment", spec);
        let report = loop {
            if let Some(report) = lock(&self.state).take_report(grid) {
                break report;
            }
            self.reap(POLL);
            if self.live == 0 && self.inline.is_none() {
                // Every worker is gone and jobs are still open: finish them
                // here, on this process's own thread budget.
                let spawner = LoopbackSpawner::with_faults(self.state.clone(), self.faults.clone());
                self.inline = Some(spawner.spawn("inline", 0, rayon::process_thread_cap())?);
            }
        };
        // Every job must be settled by a record or a quarantine; anything
        // else is lost work, never a silently thinner report.
        let settled = report.job_count + report.failures.len();
        if settled < spec.job_count() {
            return Err(DistribError::Incomplete {
                missing: spec.job_count() - settled,
            });
        }
        Ok(report)
    }

    /// Wait up to `timeout` for one worker exit, warning about an abnormal
    /// one.
    fn reap(&mut self, timeout: Duration) {
        if self.live == 0 {
            std::thread::sleep(timeout);
            return;
        }
        match self.exits.recv_timeout(timeout) {
            Ok(exit) => {
                self.live -= 1;
                if let Err(why) = exit {
                    faults::note_event(RunEvent::WorkerAbnormalExit);
                    eprintln!("warning: {why} — its unsettled jobs will be re-granted");
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => self.live = 0,
        }
    }

    /// Shut the daemon down, wait for every worker to exit, and hand back
    /// the daemon's attached store, if any
    /// ([`ServiceState::detach_store`]).
    pub fn finish(mut self) -> Option<Result<ExperimentStore, StoreError>> {
        // Every worker, the inline one included, sees the daemon hang up
        // and exits cleanly.
        lock(&self.state).shutdown();
        if let Some(handle) = self.inline.take() {
            if let Err(why) = handle.join() {
                eprintln!("warning: inline worker: {why}");
            }
        }
        while self.live > 0 {
            self.reap(Duration::from_secs(3600));
        }
        lock(&self.state).detach_store()
    }
}
