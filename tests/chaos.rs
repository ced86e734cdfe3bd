//! Chaos-mode contract tests: a grid run under a deterministic fault plan
//! must produce a report **byte-identical** to the clean run (recoverable
//! faults), or identical-minus-quarantined (poison), and the store must
//! hold exactly what the report says: its offline re-aggregation
//! reproduces the report byte for byte.
//!
//! A fault plan is a value handed to the seams it drives — the store and
//! the loopback spawner — so these tests run side by side, and each one
//! that asks "did the plan fire?" reads its own plan's count.

use std::path::Path;
use std::sync::Arc;

use caem_suite::wsnsim::experiment::{ExperimentReport, ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::faults::{FaultKind, FaultPlan, FaultPlanConfig, FaultRole, POISON_MARKER};
use caem_suite::wsnsim::persist::{ExperimentStore, JobKey, JobRecord, StoreOptions};
use caem_suite::wsnsim::spec::{GridQuick, GridSpec, ScenarioQuick, SeedAxis};
use proptest::prelude::*;

mod common;

use common::{
    arbitrary_scenario, base, diverse_spec, grid_store, report_bits, served, served_under,
    temp_dir, temp_store,
};

/// Random grids the byte-identity property checks, each under its own
/// random plan.  They run concurrently: a case spends much of its time in
/// store-retry backoff and frame delays.  The cases are fixed (the
/// generator is seeded from the test's name), and each plan injects within
/// the store appends and frames every run of its case makes, so whether it
/// fires does not depend on thread timing; which jobs a plan poisons
/// depends on its seed alone.
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

/// A random plan for `spec`: a seed and a non-empty subset of the
/// recoverable kinds `torn`, `transient` and `delay`, plus `poison` in about
/// half the plans.  A poisoning plan's seed is drawn again until it poisons
/// at least one of `spec`'s jobs, so every poison plan fires.
fn random_plan(rng: &mut TestRng, spec: &ExperimentSpec) -> FaultPlanConfig {
    let poison = any::<bool>().sample(rng);
    let mask = (1u8..8).sample(rng) | if poison { 8 } else { 0 };
    let kinds: Vec<FaultKind> = [
        FaultKind::Torn,
        FaultKind::Transient,
        FaultKind::Delay,
        FaultKind::Poison,
    ]
    .into_iter()
    .enumerate()
    .filter(|&(bit, _)| mask & (1 << bit) != 0)
    .map(|(_, kind)| kind)
    .collect();
    loop {
        let cfg = FaultPlanConfig {
            seed: any::<u64>().sample(rng),
            kinds: kinds.clone(),
        };
        let plan = FaultPlan::new(cfg.clone(), FaultRole::Host);
        if !poison || !poisoned_keys(spec, &plan).is_empty() {
            return cfg;
        }
    }
}

/// Cut the store at `path` just before its `(k + 1)`-th record: the header,
/// the first `k` records and any torn fragments among them stay — the
/// store a crash after the `k`-th append leaves.
fn cut_after_records(path: &Path, k: usize) {
    let text = std::fs::read_to_string(path).expect("read store");
    let mut kept = String::new();
    let mut records = 0;
    for line in text.lines() {
        let is_record = serde_json::parse(line).is_ok_and(|v| v.get("config_hash").is_some());
        if is_record {
            if records == k {
                break;
            }
            records += 1;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    std::fs::write(path, kept).expect("write the cut store");
}

/// The keys of `spec`'s jobs that `plan` poisons.
fn poisoned_keys(spec: &ExperimentSpec, plan: &FaultPlan) -> Vec<JobKey> {
    let mut keys: Vec<JobKey> = spec.enumerate_jobs().iter().map(|job| job.key()).collect();
    keys.retain(|&key| plan.is_poisoned(key));
    keys.sort_unstable();
    keys
}

/// One case of the property: `spec` run four ways — [`ExperimentSpec::run`];
/// `run_with_store` on a store under the plan; the same store cut to its
/// first `resume_at` records and resumed under the plan; and served by
/// loopback workers whose links and jobs run under the same plan.  Poison
/// fires only in workers, so the local and resumed runs report the clean
/// bytes, and the served run reports the clean records minus the poisoned
/// jobs, which it lists as quarantined.
fn check_case(case: usize, spec: &ExperimentSpec, cfg: &FaultPlanConfig, resume_at: usize) {
    let what = format!("case {case}, plan {}", cfg.env_string());
    let clean_bits = report_bits(&spec.run());
    let plan = FaultPlan::new(cfg.clone(), FaultRole::Host);

    // The local engine's parallel workers append through one shared store,
    // whose appends tear and fail transiently.
    let local_path = temp_store(&format!("property_{case}_local"));
    let options = StoreOptions {
        faults: Some(Arc::clone(&plan)),
        ..StoreOptions::default()
    };
    let mut store = ExperimentStore::open_with(&local_path, options.clone()).expect("open store");
    let local = spec.run_with_store(&mut store);
    assert_eq!(store.appended(), spec.job_count(), "{what}");
    drop(store);
    assert_eq!(report_bits(&local), clean_bits, "{what}: local report");

    // Resumed midway: only the jobs past the cut run again, under the plan.
    cut_after_records(&local_path, resume_at);
    let mut store = ExperimentStore::open_with(&local_path, options).expect("reopen store");
    assert_eq!(store.len(), resume_at, "{what}: records kept by the cut");
    let resumed = spec.run_with_store(&mut store);
    assert_eq!(
        store.appended(),
        spec.job_count() - resume_at,
        "{what}: resumed after {resume_at} records"
    );
    drop(store);
    assert_eq!(report_bits(&resumed), clean_bits, "{what}: resumed report");

    let local_store = ExperimentStore::load(&local_path).expect("store reloads");
    assert_eq!(
        report_bits(&local_store.rebuild_report()),
        clean_bits,
        "{what}: the local store re-aggregates to the clean bytes"
    );

    // Served: the daemon's store appends carry no plan; the links delay
    // frames, and the workers' poisoned jobs panic.
    let served_dir = temp_dir(&format!("property_{case}_served"));
    let (report, _) = served_under(spec, 2, &served_dir, Some(Arc::clone(&plan)));
    let poisoned = poisoned_keys(spec, &plan);
    let quarantined: Vec<JobKey> = report.failures.iter().map(|f| f.key()).collect();
    assert_eq!(quarantined, poisoned, "{what}: quarantined jobs");
    for failure in &report.failures {
        assert_eq!(failure.attempts, 2, "{what}: the retry budget was spent");
        assert!(
            failure.reason.contains(POISON_MARKER),
            "{what}: {}",
            failure.reason
        );
    }
    let kept: Vec<JobRecord> = local_store
        .records()
        .filter(|record| !poisoned.contains(&record.key()))
        .cloned()
        .collect();
    let mut expected = ExperimentReport::from_records(kept);
    expected.seeds = spec.seeds.clone();
    expected.failures = report.failures.clone();
    let served_bits = report_bits(&report);
    assert_eq!(served_bits, report_bits(&expected), "{what}: served report");
    assert_eq!(
        served_bits.contains("quarantined"),
        !poisoned.is_empty(),
        "{what}"
    );
    let served_store = ExperimentStore::load(grid_store(&served_dir, spec)).expect("store reloads");
    assert_eq!(
        report_bits(&served_store.rebuild_report()),
        served_bits,
        "{what}: the daemon's store re-aggregates to the served bytes"
    );
    // Quarantines are settled state: a daemon restarted on the store
    // without a plan finds nothing pending and re-runs none of them.
    let (restarted, simulated) = served(spec, 2, &served_dir);
    assert_eq!(
        report_bits(&restarted),
        served_bits,
        "{what}: restarted daemon"
    );
    assert_eq!(
        simulated, 0,
        "{what}: a restarted daemon re-ran settled jobs"
    );

    assert!(plan.injected() > 0, "{what}: the plan never fired");
    std::fs::remove_file(&local_path).ok();
    std::fs::remove_dir_all(&served_dir).ok();
}

#[test]
fn random_grids_under_random_recoverable_plans_report_the_clean_bytes() {
    let mut rng = TestRng::deterministic("random_grids_under_random_recoverable_plans");
    let cases: Vec<(ExperimentSpec, FaultPlanConfig, usize)> = (0..PROPERTY_CASES)
        .map(|_| {
            let spec = small_grid(&mut rng);
            let cfg = random_plan(&mut rng, &spec);
            let resume_at = (0..spec.job_count() + 1).sample(&mut rng);
            (spec, cfg, resume_at)
        })
        .collect();
    assert!(
        cases
            .iter()
            .any(|(_, cfg, _)| cfg.kinds.contains(&FaultKind::Poison)),
        "some case poisons jobs"
    );
    std::thread::scope(|scope| {
        for (case, (spec, cfg, resume_at)) in cases.iter().enumerate() {
            scope.spawn(move || check_case(case, spec, cfg, *resume_at));
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
    let (plan, poisoned) = (0u64..500)
        .find_map(|seed| {
            let cfg = FaultPlanConfig {
                seed,
                kinds: vec![FaultKind::Poison],
            };
            let plan = FaultPlan::new(cfg, FaultRole::Host);
            let poisoned = poisoned_keys(&spec, &plan);
            (!poisoned.is_empty() && poisoned.len() < spec.job_count()).then_some((plan, poisoned))
        })
        .expect("some seed poisons a strict subset of 18 jobs");
    let dir = temp_dir("poison");
    let (degraded, _) = served_under(&spec, 2, &dir, Some(plan));

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
    let offline = ExperimentStore::load(grid_store(&dir, &spec))
        .expect("store reloads")
        .rebuild_report();
    assert_eq!(
        offline.failures, degraded.failures,
        "standing quarantines survive offline re-aggregation"
    );
    // Quarantines are settled state: a daemon restarted on the poisoned
    // store without a plan finds nothing pending and re-runs none of them.
    let (resumed, simulated) = served(&spec, 2, &dir);
    assert_eq!(resumed.failures, degraded.failures);
    assert_eq!(report_bits(&resumed), report_bits(&degraded));
    assert_eq!(simulated, 0, "quarantined jobs are not re-run");
    std::fs::remove_dir_all(&dir).ok();
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

/// How a worker process takes its plan: from the `CAEM_CHAOS` value in its
/// environment.
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
