//! Determinism guarantees the evaluation methodology rests on.
//!
//! The figure grids fan independent simulations out across a thread pool;
//! common-random-numbers comparisons are only valid if that parallelism
//! cannot perturb any result.  These tests pin the guarantee: a parallel
//! [`ExperimentSpec::simulate`] over a (load × policy) grid must be
//! *bit-identical* to a serial run of the same seeds, and re-running the
//! optimized engine on one seed must reproduce itself exactly.

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::{ExperimentSpec, ScenarioConfig, ScenarioSpec, SimulationResult};

/// Every observable of one run, with floats captured bit-exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    generated: u64,
    delivered: u64,
    bursts: u64,
    collisions: u64,
    events_processed: u64,
    end_time_nanos: u64,
    ledger_total_bits: u64,
    avg_delay_bits: u64,
    per_node: Vec<(u64, u64, u64, u64)>,
}

fn fingerprint(r: &SimulationResult) -> Fingerprint {
    Fingerprint {
        generated: r.perf.generated(),
        delivered: r.perf.delivered(),
        bursts: r.bursts,
        collisions: r.collisions,
        events_processed: r.events_processed,
        end_time_nanos: r.end_time.as_nanos(),
        ledger_total_bits: r.ledger.total().to_bits(),
        avg_delay_bits: r.perf.average_delay_ms().to_bits(),
        per_node: r
            .nodes
            .iter()
            .map(|n| {
                (
                    n.generated,
                    n.delivered,
                    n.dropped,
                    n.remaining_energy_j.to_bits(),
                )
            })
            .collect(),
    }
}

/// The fingerprints of a (load × paper policy) grid on one seed, in job
/// order.
fn load_grid_fingerprints() -> Vec<Fingerprint> {
    let scenarios = [5.0, 12.0]
        .iter()
        .map(|&load| {
            ScenarioSpec::new(
                format!("load_{load}pps"),
                ScenarioConfig::small(PolicyKind::PureLeach, load, 424242)
                    .with_duration(Duration::from_secs(25)),
            )
        })
        .collect();
    ExperimentSpec::paper_policies(scenarios, 424242, 1)
        .simulate()
        .iter()
        .map(fingerprint)
        .collect()
}

#[test]
fn load_grid_is_bit_identical_serial_vs_parallel() {
    // Parallel pass first (default thread budget)...
    let parallel = load_grid_fingerprints();
    // ...then force the grid through a single worker and compare.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = load_grid_fingerprints();
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        parallel, serial,
        "parallel and serial grids must agree bit-for-bit (common random numbers)"
    );
    // Sanity: the grid actually simulated something.
    assert!(parallel
        .iter()
        .all(|f| f.generated > 0 && f.events_processed > 0));
}

#[test]
fn identical_seeds_reproduce_bit_identical_runs() {
    let run = |seed: u64| {
        let cfg = ScenarioConfig::small(
            caem_suite::caem::policy::PolicyKind::Scheme1Adaptive,
            8.0,
            seed,
        )
        .with_duration(Duration::from_secs(30));
        fingerprint(&caem_suite::wsnsim::SimulationRun::new(cfg).run())
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds must not collide");
}
