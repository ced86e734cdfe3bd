//! Distributed experiment grids: one grid, several workers, bit-identical
//! results.
//!
//! The distributed runner's whole contract is that the execution topology is
//! unobservable: however many workers split the grid — and however many of
//! them die along the way — the merged report equals the single-process run
//! byte for byte.  This example hosts the experiment service in-process and
//! drives its shard-lease protocol with loopback worker threads (the
//! `experiment` binary's `--workers N` flag does the same thing with
//! separate OS processes over TCP) and checks the equivalence explicitly.
//!
//! ```bash
//! cargo run --release --example distributed_grid
//! ```

use caem::policy::PolicyKind;
use caem_simcore::time::Duration;
use caem_wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_wsnsim::serve::{Coordinator, LoopbackSpawner, ServiceConfig, ServiceState};
use caem_wsnsim::{ExperimentStore, ScenarioConfig, Topology};

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
    // that journals every record to a store.
    let path =
        std::env::temp_dir().join(format!("caem_example_distrib_{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let state = ServiceState::shared(ServiceConfig::default());
    state
        .lock()
        .unwrap()
        .attach_store(ExperimentStore::open(&path).expect("open store"));
    let spawner = LoopbackSpawner::new(state.clone());
    let mut coordinator =
        Coordinator::start(state.clone(), &spawner, "loopback", 3).expect("start workers");
    let report = coordinator.run(&spec).expect("distributed run");
    let store = coordinator
        .finish()
        .expect("store attached")
        .expect("every record journaled");
    println!(
        "distributed over 3 workers / {} shards; {} records journaled to {}",
        ServiceConfig::default().shards_per_grid,
        store.len(),
        path.display()
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
    std::fs::remove_file(&path).ok();
}
