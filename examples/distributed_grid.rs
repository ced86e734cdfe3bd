//! Distributed experiment grids: one grid, several workers, bit-identical
//! results.
//!
//! The distributed runner's whole contract is that the execution topology is
//! unobservable: however many workers split the grid — and however many of
//! them die along the way — the merged report equals the single-process run
//! byte for byte.  This example hosts the experiment service in-process on
//! a store directory and drives its shard-lease protocol with loopback
//! worker threads (`caem-serve` plus `experiment --connect` workers do the
//! same thing with separate OS processes over TCP), checks the equivalence
//! explicitly, and then shows that a daemon restarted on the same directory
//! finishes the grid from its store alone.
//!
//! ```bash
//! cargo run --release --example distributed_grid
//! ```

use caem::policy::PolicyKind;
use caem_simcore::time::Duration;
use caem_wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_wsnsim::serve::{LoopbackSpawner, ServiceConfig, ServiceState};
use caem_wsnsim::{ExperimentReport, ScenarioConfig, Topology};

/// Wait until `state` has finalized `grid` and return its report.
fn wait_for(state: &std::sync::Mutex<ServiceState>, grid: u64) -> ExperimentReport {
    loop {
        if let Some(report) = state.lock().unwrap().report(grid) {
            return report.clone();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

fn main() {
    let base =
        ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0).with_duration(Duration::from_secs(20));
    let spec = ExperimentSpec::paper_policies(
        vec![
            ScenarioSpec::new("uniform", base.clone()),
            ScenarioSpec::new(
                "corridor",
                base.clone().with_topology(Topology::Corridor {
                    width_fraction: 0.3,
                }),
            ),
            ScenarioSpec::new("diurnal", base.with_diurnal_traffic(20.0, 0.8)),
        ],
        2_024,
        4,
    );
    println!(
        "grid: {} scenarios x {} policies x {} seeds = {} jobs",
        spec.scenarios.len(),
        spec.policies.len(),
        spec.seeds.len(),
        spec.job_count()
    );

    // Reference: the ordinary single-process run.
    let single = spec.run();

    // The same grid across 3 workers leased shards by an in-process daemon
    // that journals the grid and every record under a store directory.
    let dir = std::env::temp_dir().join(format!("caem_example_distrib_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let state = ServiceState::open(ServiceConfig::default(), &dir).expect("open store directory");
    let grid = state.lock().unwrap().submit_grid("example", &spec);
    let spawner = LoopbackSpawner::new(state.clone());
    let workers: Vec<_> = (0..3).map(|index| spawner.spawn(index)).collect();
    let report = wait_for(&state, grid);
    spawner.stop_workers();
    let simulated: usize = workers
        .into_iter()
        .map(|worker| worker.join().expect("worker exits cleanly").jobs_run)
        .sum();
    println!(
        "distributed over 3 workers / {} shards; {simulated} jobs simulated, journaled to {}",
        ServiceConfig::default().shards_per_grid,
        dir.join(format!("{grid:016x}.jsonl")).display()
    );

    assert_eq!(
        report, single,
        "N-worker report must be bit-identical to the single-process run"
    );
    let single_bits = serde_json::to_string(&single.to_json()).expect("serialize");
    let merged_bits = serde_json::to_string(&report.to_json()).expect("serialize");
    assert_eq!(single_bits, merged_bits, "byte-identical JSON");
    println!(
        "single-process and 3-worker reports are byte-identical ({} cells, {} jobs)",
        report.cells.len(),
        report.job_count
    );

    // A daemon restarted on the same directory replays the journaled grid;
    // its store settles every job, so the report is back without a worker.
    let restarted = ServiceState::open(ServiceConfig::default(), &dir).expect("reopen");
    let replayed = wait_for(&restarted, grid);
    assert_eq!(
        replayed, single,
        "the restarted daemon's report is identical"
    );
    println!("a daemon restarted on the store directory reproduces the report");
    std::fs::remove_dir_all(&dir).ok();
}
