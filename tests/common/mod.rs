//! Helpers shared by the grid contract tests (`distrib`, `chaos`,
//! `persistence`).

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{ExperimentReport, ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::persist::ExperimentStore;
use caem_suite::wsnsim::serve::{
    Coordinator, LoopbackSpawner, ServiceConfig, ServiceState, WorkerSpawner,
};
use caem_suite::wsnsim::{ScenarioConfig, Topology};

/// A fresh store path under the temp directory, unique per process.
pub fn temp_store(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "caem_grid_test_{}_{name}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// The report serialized to canonical JSON text: string equality is
/// bit-level equality of every aggregated float.
pub fn report_bits(report: &ExperimentReport) -> String {
    serde_json::to_string(&report.to_json()).expect("report serializes")
}

pub fn base(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small(PolicyKind::PureLeach, 8.0, seed).with_duration(Duration::from_secs(10))
}

/// A diverse little grid (18 jobs): two deployment shapes plus the diurnal
/// traffic axis, three policies, two seeds.
pub fn diverse_spec() -> ExperimentSpec {
    ExperimentSpec::paper_policies(
        vec![
            ScenarioSpec::new("uniform", base(0)),
            ScenarioSpec::new(
                "corridor",
                base(0).with_topology(Topology::Corridor {
                    width_fraction: 0.3,
                }),
            ),
            ScenarioSpec::new("diurnal", base(0).with_diurnal_traffic(7.0, 0.8)),
        ],
        7_300,
        2,
    )
}

/// A daemon splitting each grid into four shards.
pub fn daemon() -> Arc<Mutex<ServiceState>> {
    ServiceState::shared(ServiceConfig {
        shards_per_grid: 4,
        ..ServiceConfig::default()
    })
}

/// Run `spec` like `experiment --workers N`: `workers` workers from
/// `spawner` attached to `state`, with `store` journaling their records;
/// returns the report and the store.
pub fn served_with<S: WorkerSpawner>(
    state: &Arc<Mutex<ServiceState>>,
    spawner: &S,
    spec: &ExperimentSpec,
    workers: usize,
    store: ExperimentStore,
) -> (ExperimentReport, ExperimentStore) {
    state.lock().unwrap().attach_store(store);
    let mut coordinator =
        Coordinator::start(state.clone(), spawner, "loopback", workers).expect("workers start");
    let report = coordinator.run(spec).expect("served run succeeds");
    let store = coordinator
        .finish()
        .expect("store attached")
        .expect("every append landed");
    (report, store)
}

/// [`served_with`] over loopback workers on a fresh [`daemon`], with the
/// store at `path`.
pub fn served(
    spec: &ExperimentSpec,
    workers: usize,
    path: &Path,
) -> (ExperimentReport, ExperimentStore) {
    let state = daemon();
    let store = ExperimentStore::open(path).expect("open store");
    served_with(
        &state,
        &LoopbackSpawner::new(state.clone()),
        spec,
        workers,
        store,
    )
}
