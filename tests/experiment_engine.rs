//! Contract tests for the sharded experiment engine.
//!
//! The engine replaces the nested `par_iter` fan-out (which oversubscribed
//! the machine by loads × cores) with one flat (scenario × policy × seed)
//! job list run through a single parallel layer.  These tests pin the
//! properties the replicated-evaluation methodology rests on:
//!
//! * the grid enumerates every combination exactly once,
//! * a replicated grid is deterministic given its seed set,
//! * confidence-interval half-widths shrink as replicates are added,
//! * peak live worker threads never exceed the process-wide budget.

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{ExperimentSpec, ScenarioSpec, METRIC_NAMES};
use caem_suite::wsnsim::{ScenarioConfig, Topology};

fn base(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small(PolicyKind::PureLeach, 8.0, seed).with_duration(Duration::from_secs(10))
}

fn diverse_spec(replicates: usize) -> ExperimentSpec {
    ExperimentSpec::paper_policies(
        vec![
            ScenarioSpec::new("uniform", base(0)),
            ScenarioSpec::new(
                "hotspots",
                base(0).with_topology(Topology::GaussianClusters {
                    clusters: 3,
                    sigma_m: 10.0,
                }),
            ),
            ScenarioSpec::new(
                "corridor_churn",
                base(0)
                    .with_topology(Topology::Corridor {
                        width_fraction: 0.3,
                    })
                    .with_energy_spread(0.3)
                    .with_churn_mttf_s(40.0),
            ),
        ],
        7_000,
        replicates,
    )
}

#[test]
fn grid_enumerates_every_job_exactly_once() {
    let spec = diverse_spec(5);
    let jobs = spec.enumerate_jobs();
    assert_eq!(jobs.len(), 3 * 3 * 5);
    let mut seen = std::collections::HashSet::new();
    for job in &jobs {
        assert!(
            seen.insert((job.scenario, format!("{:?}", job.policy), job.seed)),
            "duplicate job {:?}/{:?}/{}",
            job.scenario,
            job.policy,
            job.seed
        );
        assert_eq!(job.config.policy, job.policy);
        assert_eq!(job.config.seed, job.seed);
    }
}

#[test]
fn replicated_grid_is_deterministic_given_the_seed_set() {
    let a = diverse_spec(2).run();
    let b = diverse_spec(2).run();
    assert_eq!(a.job_count, b.job_count);
    assert_eq!(a.cells.len(), b.cells.len());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.scenario, cb.scenario);
        assert_eq!(ca.policy, cb.policy);
        for (name, (sa, sb)) in METRIC_NAMES.iter().zip(ca.metrics.iter().zip(&cb.metrics)) {
            assert_eq!(sa.count(), sb.count());
            assert_eq!(
                sa.mean().to_bits(),
                sb.mean().to_bits(),
                "{}/{:?}/{name} mean must be bit-identical",
                ca.scenario,
                ca.policy
            );
            assert_eq!(
                sa.ci95_half_width().to_bits(),
                sb.ci95_half_width().to_bits()
            );
        }
    }
}

#[test]
fn ci_half_widths_shrink_with_replicate_count() {
    // One scenario, one policy, growing seed pools drawn from the same base:
    // the CI half-width on delivery rate must tighten as replicates grow.
    let spec_for = |replicates: usize| ExperimentSpec {
        scenarios: vec![ScenarioSpec::new("uniform", base(0))],
        policies: vec![PolicyKind::Scheme1Adaptive],
        seeds: (0..replicates as u64).map(|i| 9_100 + i).collect(),
    };
    let few = spec_for(3).run();
    let many = spec_for(12).run();
    let hw = |report: &caem_suite::wsnsim::ExperimentReport| {
        report.cells[0]
            .metric("delivery_rate")
            .unwrap()
            .ci95_half_width()
    };
    assert!(hw(&few) > 0.0, "replicates must disagree at least a little");
    assert!(
        hw(&many) < hw(&few),
        "12-seed CI ({}) must be tighter than 3-seed CI ({})",
        hw(&many),
        hw(&few)
    );
    assert_eq!(many.cells[0].metric("delivery_rate").unwrap().count(), 12);
}

#[test]
fn grid_runs_in_a_single_parallel_layer_within_the_thread_budget() {
    // The acceptance-criteria grid: 3 scenarios x 3 policies x 5 seeds.
    let spec = diverse_spec(5);
    assert_eq!(spec.scenarios.len(), 3);
    assert_eq!(spec.policies.len(), 3);
    assert_eq!(spec.seeds.len(), 5);
    let report = spec.run();
    assert_eq!(report.job_count, 45);
    // The engine fans the flat job list out exactly once; with every call
    // site drawing from rayon's process-wide budget, the peak number of live
    // spawned workers can never exceed the cap — the property whose absence
    // was the nested-sweep oversubscription bug.
    assert!(
        rayon::peak_live_workers() <= rayon::process_thread_cap(),
        "peak {} workers exceeded process cap {}",
        rayon::peak_live_workers(),
        rayon::process_thread_cap()
    );
    // Replication happened: every cell aggregated one value per seed, and
    // the report carries a CI alongside every mean.
    for cell in &report.cells {
        for stats in &cell.metrics {
            assert_eq!(stats.count(), 5);
        }
    }
}

#[test]
fn common_random_numbers_pair_policies_within_a_seed() {
    // The same seed must present every policy with the identical offered
    // load — the paired-comparison property the paper's evaluation uses.
    let spec = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("uniform", base(0))], 42, 2);
    let jobs = spec.enumerate_jobs();
    let results = spec.simulate();
    for (job, result) in jobs.iter().zip(&results) {
        for (other_job, other) in jobs.iter().zip(&results) {
            if job.seed == other_job.seed {
                assert_eq!(
                    result.perf.generated(),
                    other.perf.generated(),
                    "same seed ⇒ same offered load for every policy"
                );
            }
        }
    }
}
