//! Helpers shared by the grid contract tests (`distrib`, `chaos`,
//! `persistence`, `spec_roundtrip`): fixed grids, served runs on an
//! in-process daemon, and the random scenario generators the property
//! tests draw from.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{ExperimentReport, ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::faults::FaultPlan;
use caem_suite::wsnsim::serve::{LoopbackSpawner, ServiceConfig, ServiceState};
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

/// A fresh, empty store directory under the temp directory, unique per
/// process.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caem_grid_test_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Where a durable daemon on `dir` journals the records of `spec`.
pub fn grid_store(dir: &Path, spec: &ExperimentSpec) -> PathBuf {
    dir.join(format!("{:016x}.jsonl", spec.hash()))
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

/// The daemon tuning of these tests: each grid split into four shards.
pub fn four_shards() -> ServiceConfig {
    ServiceConfig {
        shards_per_grid: 4,
        ..ServiceConfig::default()
    }
}

/// An in-memory daemon splitting each grid into four shards.
pub fn daemon() -> Arc<Mutex<ServiceState>> {
    ServiceState::shared(four_shards())
}

/// A durable daemon on the store directory `dir`, splitting each grid into
/// four shards — what `caem-serve --listen --store dir --shards 4` runs.
pub fn durable_daemon(dir: &Path) -> Arc<Mutex<ServiceState>> {
    ServiceState::open(four_shards(), dir).expect("store directory opens")
}

/// Wait for `state` to finalize the grid `grid` and return its report.
pub fn wait_for_report(state: &Mutex<ServiceState>, grid: u64) -> ExperimentReport {
    let deadline = Instant::now() + StdDuration::from_secs(300);
    loop {
        if let Some(report) = state.lock().unwrap().report(grid) {
            return report.clone();
        }
        assert!(Instant::now() < deadline, "the grid never finalized");
        std::thread::sleep(StdDuration::from_millis(5));
    }
}

/// Submit `spec` to `state`, run it with `workers` workers from `spawner`
/// and wait for the report; then stop the workers.  Returns the report and
/// the number of jobs the workers simulated.
pub fn served_with(
    state: &Arc<Mutex<ServiceState>>,
    spawner: &LoopbackSpawner,
    spec: &ExperimentSpec,
    workers: usize,
) -> (ExperimentReport, usize) {
    let grid = state.lock().unwrap().submit_grid("served", spec);
    let handles: Vec<_> = (0..workers).map(|index| spawner.spawn(index)).collect();
    let report = wait_for_report(state, grid);
    spawner.stop_workers();
    let simulated = handles
        .into_iter()
        .map(|handle| handle.join().expect("worker exits cleanly").jobs_run)
        .sum();
    (report, simulated)
}

/// [`served_with`] over loopback workers on a [`durable_daemon`] on `dir`:
/// the grid's records are journaled to [`grid_store`]`(dir, spec)`.
pub fn served(spec: &ExperimentSpec, workers: usize, dir: &Path) -> (ExperimentReport, usize) {
    served_under(spec, workers, dir, None)
}

/// [`served`] with the loopback links and every worker under `faults`:
/// frames are delayed and the plan's poisoned jobs panic.
pub fn served_under(
    spec: &ExperimentSpec,
    workers: usize,
    dir: &Path,
    faults: Option<Arc<FaultPlan>>,
) -> (ExperimentReport, usize) {
    let state = durable_daemon(dir);
    let spawner = LoopbackSpawner::with_faults(state.clone(), faults);
    served_with(&state, &spawner, spec, workers)
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
