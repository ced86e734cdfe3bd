//! Chaos-mode contract tests: a grid run under a deterministic fault plan
//! must produce a report **byte-identical** to the clean run (recoverable
//! faults), or identical-minus-quarantined (poison), and the store must
//! hold exactly what the report says.
//!
//! A fault plan is a value handed to the seams it drives — the store, the
//! loopback spawner and the coordinator — so these tests run side by side,
//! and each one that asks "did the plan fire?" reads its own plan's count.

use std::sync::Arc;

use caem_suite::wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::faults::{FaultKind, FaultPlan, FaultPlanConfig, FaultRole, POISON_MARKER};
use caem_suite::wsnsim::persist::{ExperimentStore, JobKey, StoreOptions};
use caem_suite::wsnsim::spec::{GridQuick, GridSpec, ScenarioQuick, SeedAxis};
use proptest::prelude::*;

mod common;

use common::{
    arbitrary_scenario, base, diverse_spec, report_bits, served, served_under, temp_store,
};

fn grid_keys(spec: &ExperimentSpec) -> Vec<JobKey> {
    let mut keys = Vec::new();
    for si in 0..spec.scenarios.len() {
        for pi in 0..spec.policies.len() {
            for &seed in &spec.seeds {
                keys.push((si, pi, seed));
            }
        }
    }
    keys
}

/// Random grids the byte-identity property checks, each under its own
/// random plan.  They run concurrently: a case mostly waits out the
/// retransmission timeouts of the frames its plan drops.  The cases are
/// fixed (the generator is seeded from the test's name), and each plan
/// injects within the store appends and frames every run of its case
/// makes, so whether it fires does not depend on thread timing.
const PROPERTY_CASES: usize = 8;

/// A random small grid: one or two scenarios from the spec generators,
/// shrunk to at most 12 nodes and 10 s, under the paper's three policies
/// and one or two seeds (3 to 12 jobs).
fn small_grid(rng: &mut TestRng) -> ExperimentSpec {
    let scenario_count = (1usize..3).sample(rng);
    let scenarios = (0..scenario_count)
        .map(|i| {
            let knobs = (
                any::<u8>().sample(rng),
                (0.5f64..25.0).sample(rng),
                any::<u8>().sample(rng),
                (0.5f64..20.0).sample(rng),
                any::<u8>().sample(rng),
            );
            let mut doc = arbitrary_scenario(i, knobs);
            doc.node_count = Some((8usize..13).sample(rng));
            doc.duration_s = Some((5.0f64..10.0).sample(rng));
            doc.quick = ScenarioQuick::default();
            doc
        })
        .collect();
    let grid = GridSpec {
        name: None,
        base_seed: Some(any::<u64>().sample(rng) % 1_000_000),
        seeds: SeedAxis::Replicates((1usize..3).sample(rng)),
        duration_s: None,
        node_count: None,
        policies: None,
        scenarios,
        sequential: None,
        quick: GridQuick::default(),
    };
    grid.resolve(0, false).expect("valid by construction").spec
}

/// A random recoverable plan: a seed and a non-empty subset of `torn`,
/// `transient` and `delay`.
fn recoverable_plan(rng: &mut TestRng) -> FaultPlanConfig {
    let mask = (1u8..8).sample(rng);
    let kinds = [FaultKind::Torn, FaultKind::Transient, FaultKind::Delay]
        .into_iter()
        .enumerate()
        .filter(|&(bit, _)| mask & (1 << bit) != 0)
        .map(|(_, kind)| kind)
        .collect();
    FaultPlanConfig {
        seed: any::<u64>().sample(rng),
        kinds,
    }
}

/// One case of the property: `spec` run three ways — [`ExperimentSpec::run`],
/// `run_with_store` on a store under the plan, and served by loopback
/// workers with the store, links and workers under the same plan.
fn check_case(case: usize, spec: &ExperimentSpec, cfg: &FaultPlanConfig) {
    let what = format!("case {case}, plan {}", cfg.env_string());
    let clean = spec.run();
    let clean_bits = report_bits(&clean);
    let plan = FaultPlan::new(cfg.clone(), FaultRole::Coordinator);

    // The local engine's parallel workers append through one shared store,
    // whose appends tear and fail transiently.
    let local_path = temp_store(&format!("property_{case}_local"));
    let options = StoreOptions {
        faults: Some(Arc::clone(&plan)),
        ..StoreOptions::default()
    };
    let mut store = ExperimentStore::open_with(&local_path, options).expect("open store");
    let local = spec.run_with_store(&mut store);
    assert_eq!(store.appended(), spec.job_count(), "{what}");
    drop(store);
    assert_eq!(report_bits(&local), clean_bits, "{what}: local report");

    // Served: dropped, duplicated, delayed and truncated frames on top of
    // the coordinator store's faults.
    let served_path = temp_store(&format!("property_{case}_served"));
    let (report, _) = served_under(spec, 2, &served_path, Some(Arc::clone(&plan)));
    assert_eq!(report_bits(&report), clean_bits, "{what}: served report");

    assert!(plan.injected() > 0, "{what}: the plan never fired");
    for path in [&local_path, &served_path] {
        let journaled = ExperimentStore::load(path).expect("store reloads");
        assert_eq!(
            journaled.rebuild_report().cells,
            clean.cells,
            "{what}: {} re-aggregates to the clean cells",
            path.display()
        );
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn random_grids_under_random_recoverable_plans_report_the_clean_bytes() {
    let mut rng = TestRng::deterministic("random_grids_under_random_recoverable_plans");
    let cases: Vec<(ExperimentSpec, FaultPlanConfig)> = (0..PROPERTY_CASES)
        .map(|_| (small_grid(&mut rng), recoverable_plan(&mut rng)))
        .collect();
    std::thread::scope(|scope| {
        for (case, (spec, cfg)) in cases.iter().enumerate() {
            scope.spawn(move || check_case(case, spec, cfg));
        }
    });
}

#[test]
fn poison_jobs_are_quarantined_and_stay_settled_on_resume() {
    let spec = diverse_spec();
    let clean = spec.run();
    assert!(
        !report_bits(&clean).contains("quarantined"),
        "a healthy report carries no degradation section"
    );

    // Pick a seed whose deterministic ~1/16 poison subset hits this grid
    // partially: at least one job dies, but not the whole grid.
    let keys = grid_keys(&spec);
    let (plan, poisoned) = (0u64..500)
        .find_map(|seed| {
            let cfg = FaultPlanConfig {
                seed,
                kinds: vec![FaultKind::Poison],
            };
            let plan = FaultPlan::new(cfg, FaultRole::Coordinator);
            let poisoned: Vec<JobKey> = keys
                .iter()
                .copied()
                .filter(|&k| plan.is_poisoned(k))
                .collect();
            (!poisoned.is_empty() && poisoned.len() < keys.len()).then_some((plan, poisoned))
        })
        .expect("some seed poisons a strict subset of 18 jobs");
    let path = temp_store("poison");
    let (degraded, _) = served_under(&spec, 2, &path, Some(plan));

    let failed_keys: Vec<JobKey> = degraded.failures.iter().map(|f| f.key()).collect();
    assert_eq!(failed_keys, poisoned, "exactly the poisoned jobs failed");
    for failure in &degraded.failures {
        assert!(
            failure.reason.contains(POISON_MARKER),
            "quarantine reason carries the panic text: {}",
            failure.reason
        );
        assert_eq!(failure.attempts, 2, "default retry budget was exhausted");
    }
    assert!(report_bits(&degraded).contains("quarantined"));

    // Identical-minus-quarantined: cells untouched by poison are equal to
    // the clean run's, bit for bit.
    for (si, scenario) in spec.scenarios.iter().enumerate() {
        for (pi, &policy) in spec.policies.iter().enumerate() {
            if poisoned.iter().any(|&(s, p, _)| (s, p) == (si, pi)) {
                continue;
            }
            assert_eq!(
                degraded.cell(&scenario.label, policy),
                clean.cell(&scenario.label, policy),
                "cell ({}, {policy:?}) had no poisoned replicate",
                scenario.label
            );
        }
    }

    // The offline re-aggregation of the store reproduces the degradation.
    let offline = ExperimentStore::load(&path)
        .expect("store reloads")
        .rebuild_report();
    assert_eq!(
        offline.failures, degraded.failures,
        "standing quarantines survive offline re-aggregation"
    );
    // Quarantines are settled state: a coordinator resuming the poisoned
    // store without a plan finds nothing pending and re-runs none of them.
    let (resumed, store) = served(&spec, 2, &path);
    assert_eq!(resumed.failures, degraded.failures);
    assert_eq!(report_bits(&resumed), report_bits(&degraded));
    assert_eq!(store.appended(), 0, "quarantined jobs are not re-run");
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_fsynced_store_round_trips_its_report() {
    let tiny = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("uniform", base(0))], 99, 1);
    let store_path = temp_store("fsync_store");
    let options = StoreOptions {
        fsync: true,
        ..StoreOptions::default()
    };
    let mut store = ExperimentStore::open_with(&store_path, options).expect("open store");
    let direct = tiny.run_with_store(&mut store);
    drop(store);
    let reloaded = ExperimentStore::load(&store_path).expect("reload fsync'd store");
    assert_eq!(reloaded.len(), tiny.job_count());
    assert_eq!(
        report_bits(&reloaded.rebuild_report()),
        report_bits(&direct)
    );
    std::fs::remove_file(&store_path).ok();
}

/// The coordinator → worker hand-off: a worker builds its plan from the
/// `CAEM_CHAOS` value the coordinator exported.
#[test]
fn a_worker_rebuilds_the_plan_from_its_env_value() {
    let plan = FaultPlan::from_env_value(Some("21:torn+delay"), FaultRole::Worker)
        .expect("well-formed plan parses")
        .expect("a non-empty value is a plan");
    assert_eq!(plan.config().env_string(), "21:torn+delay");
    assert_eq!(plan.injected(), 0, "a fresh plan has injected nothing");
    assert!(
        FaultPlan::from_env_value(Some("not-a-plan"), FaultRole::Worker).is_err(),
        "a malformed plan is a hard error, not a silent clean run"
    );
    for unset in [None, Some("")] {
        assert!(
            FaultPlan::from_env_value(unset, FaultRole::Worker)
                .expect("an unset value is fine")
                .is_none(),
            "no value, no plan"
        );
    }
}
