//! Helpers shared by the grid contract tests (`distrib`, `chaos`,
//! `persistence`, `spec_roundtrip`): fixed grids, served runs, and the
//! random scenario generators the property tests draw from.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{ExperimentReport, ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::faults::FaultPlan;
use caem_suite::wsnsim::persist::{ExperimentStore, StoreOptions};
use caem_suite::wsnsim::serve::{
    Coordinator, LoopbackSpawner, ServiceConfig, ServiceState, WorkerSpawner,
};
use caem_suite::wsnsim::spec::{ScenarioQuick, ScenarioSpecDoc, TrafficSpec};
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
/// `spawner` attached to `state`, with `store` journaling their records
/// and the coordinator's inline fallback worker under `faults`; returns
/// the report and the store.
pub fn served_with<S: WorkerSpawner>(
    state: &Arc<Mutex<ServiceState>>,
    spawner: &S,
    spec: &ExperimentSpec,
    workers: usize,
    store: ExperimentStore,
    faults: Option<Arc<FaultPlan>>,
) -> (ExperimentReport, ExperimentStore) {
    state.lock().unwrap().attach_store(store);
    let mut coordinator = Coordinator::start(state.clone(), spawner, "loopback", workers, faults)
        .expect("workers start");
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
    served_under(spec, workers, path, None)
}

/// [`served`] with the store, the loopback links and every worker under
/// `faults` — what `experiment --workers N --chaos` does with real
/// processes.
pub fn served_under(
    spec: &ExperimentSpec,
    workers: usize,
    path: &Path,
    faults: Option<Arc<FaultPlan>>,
) -> (ExperimentReport, ExperimentStore) {
    let state = daemon();
    let options = StoreOptions {
        faults: faults.clone(),
        ..StoreOptions::default()
    };
    let store = ExperimentStore::open_with(path, options).expect("open store");
    let spawner = LoopbackSpawner::with_faults(state.clone(), faults.clone());
    served_with(&state, &spawner, spec, workers, store, faults)
}

// ---------------------------------------------------------------------------
// Random valid scenario documents for the property tests.
// ---------------------------------------------------------------------------

pub fn arbitrary_topology(choice: u8, a: f64, b: u8) -> Option<Topology> {
    match choice % 5 {
        0 => None,
        1 => Some(Topology::Uniform),
        2 => Some(Topology::Grid { jitter_m: a }),
        3 => Some(Topology::GaussianClusters {
            clusters: 1 + (b % 6) as usize,
            sigma_m: a,
        }),
        _ => Some(Topology::Corridor {
            // Strictly inside (0, 1].
            width_fraction: (0.05 + (a / 25.0) * 0.9).min(1.0),
        }),
    }
}

pub fn arbitrary_scenario(i: usize, knobs: (u8, f64, u8, f64, u8)) -> ScenarioSpecDoc {
    let (topo_choice, magnitude, small, rate, flags) = knobs;
    ScenarioSpecDoc {
        label: format!("scenario_{i}"),
        traffic: match flags % 3 {
            0 => TrafficSpec::Poisson(rate),
            1 => TrafficSpec::Cbr(rate),
            _ => TrafficSpec::Bursty {
                quiet_rate_pps: rate,
                burst_rate_pps: rate * 4.0,
                mean_quiet_s: 5.0 + magnitude,
                mean_burst_s: 1.0 + magnitude / 10.0,
            },
        },
        topology: arbitrary_topology(topo_choice, magnitude, small),
        diurnal: (flags & 0b100 != 0).then_some((10.0 + magnitude * 20.0, 0.8)),
        energy_spread: (flags & 0b1000 != 0).then_some(magnitude / 30.0),
        churn_mttf_s: (flags & 0b1_0000 != 0).then_some(100.0 + magnitude * 100.0),
        node_count: (flags & 0b10_0000 != 0).then_some(10 + small as usize),
        duration_s: (flags & 0b100_0000 != 0).then_some(20.0 + magnitude),
        buffer_capacity: match flags % 5 {
            0 => Some(None), // explicitly unbounded
            1 => Some(Some(10 + small as usize)),
            _ => None,
        },
        initial_energy_j: (flags & 0b1000_0000 != 0).then_some(1.0 + magnitude),
        quick: if small % 2 == 0 {
            ScenarioQuick::default()
        } else {
            ScenarioQuick {
                churn_mttf_s: (flags & 0b1_0000 != 0).then_some(50.0 + magnitude * 10.0),
                diurnal: None,
                duration_s: Some(10.0 + magnitude / 2.0),
                node_count: Some(8 + (small % 16) as usize),
            }
        },
    }
}
