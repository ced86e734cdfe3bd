//! Chaos-mode contract tests: a served or local grid run under the
//! deterministic fault plan must produce a report **byte-identical** to the
//! clean run (recoverable faults), or identical-minus-quarantined (poison),
//! and the store must hold exactly what the report says.
//!
//! The fault plan is process-global state, so everything that installs one
//! lives in a single sequential `#[test]`; phases reset the plan and the
//! event counters between them.

use std::time::Duration as StdDuration;

use caem_suite::wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::faults::{
    self, FaultKind, FaultPlanConfig, FaultRole, RunEvent, POISON_MARKER,
};
use caem_suite::wsnsim::persist::{ExperimentStore, JobKey, StoreOptions};
use caem_suite::wsnsim::serve::{
    run_socket_worker, LoopbackSpawner, ServiceConfig, ServiceState, SocketWorkerOptions,
    WorkerExit,
};

mod common;

use common::{base, diverse_spec, report_bits, served, temp_store};

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

#[test]
fn fault_plans_preserve_reports_and_poison_is_quarantined() {
    let spec = diverse_spec();
    let clean = spec.run();
    let clean_bits = report_bits(&clean);
    assert!(
        !clean_bits.contains("quarantined"),
        "a healthy report carries no degradation section"
    );

    // --- Phase A: every recoverable fault kind at once ------------------
    // Torn and transient store appends, plus dropped, duplicated, delayed
    // and truncated frames — the served run must recover from all of them
    // and still produce the byte-identical report and a complete store.
    faults::reset_events();
    faults::install_plan(
        FaultPlanConfig::parse("1105:torn+transient+delay").expect("valid plan"),
        FaultRole::Coordinator,
    );
    let path = temp_store("recoverable");
    let (report, _) = served(&spec, 2, &path);
    assert_eq!(
        report_bits(&report),
        clean_bits,
        "recoverable faults must not change a single byte of the report"
    );
    assert!(
        faults::event_count(RunEvent::FaultInjected) > 0,
        "the plan actually fired"
    );
    assert!(
        faults::event_summary().is_some(),
        "recovery events were counted"
    );
    // The local engine under the same plan: its parallel workers append
    // through one shared store, whose appends now tear and fail
    // transiently.  A store opened while the plan is active routes every
    // append through it.
    let injected = faults::event_count(RunEvent::FaultInjected);
    let local_path = temp_store("recoverable_local");
    let mut local_store = ExperimentStore::open(&local_path).expect("open store");
    let local = spec.run_with_store(&mut local_store);
    assert_eq!(
        report_bits(&local),
        clean_bits,
        "store faults must not change a single byte of a local report"
    );
    assert_eq!(local_store.appended(), spec.job_count());
    drop(local_store);
    assert!(
        faults::event_count(RunEvent::FaultInjected) > injected,
        "the plan fired on the local store's appends"
    );
    faults::clear_plan();
    let journaled = ExperimentStore::load(&path).expect("store reloads");
    assert_eq!(journaled.rebuild_report().cells, clean.cells);
    std::fs::remove_file(&path).ok();
    let local_journal = ExperimentStore::load(&local_path).expect("store reloads");
    assert_eq!(local_journal.rebuild_report().cells, clean.cells);
    std::fs::remove_file(&local_path).ok();

    // --- Phase B: poison quarantine -------------------------------------
    // Pick a seed whose deterministic ~1/16 poison subset hits this grid
    // partially: at least one job dies, but not the whole grid.
    let keys = grid_keys(&spec);
    // The winning install is the last one performed, so the active plan and
    // `poisoned` agree when the run below starts.
    let (_plan, poisoned) = (0u64..500)
        .find_map(|seed| {
            let plan = faults::install_plan(
                FaultPlanConfig {
                    seed,
                    kinds: vec![FaultKind::Poison],
                },
                FaultRole::Coordinator,
            );
            let poisoned: Vec<JobKey> = keys
                .iter()
                .copied()
                .filter(|&k| plan.is_poisoned(k))
                .collect();
            (!poisoned.is_empty() && poisoned.len() < keys.len()).then_some((plan, poisoned))
        })
        .expect("some seed poisons a strict subset of 18 jobs");
    faults::reset_events();
    let path = temp_store("poison");
    let (degraded, _) = served(&spec, 2, &path);

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
    assert!(faults::event_count(RunEvent::JobQuarantined) > 0);
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
    faults::clear_plan();
    std::fs::remove_file(&path).ok();

    // --- Phase C: wall-clock budget quarantine (no fault plan at all) ----
    faults::reset_events();
    let path = temp_store("budget");
    let state = ServiceState::shared(ServiceConfig::default());
    state
        .lock()
        .unwrap()
        .attach_store(ExperimentStore::open(&path).expect("open store"));
    let grid = state.lock().unwrap().submit_grid("budget", &spec);
    let mut opts = SocketWorkerOptions::new("impatient");
    opts.job_attempts = 1;
    opts.job_wall_budget = Some(StdDuration::ZERO);
    let stop = opts.stop.clone();
    let mut link = LoopbackSpawner::new(state.clone()).connect();
    let worker = std::thread::spawn(move || run_socket_worker(&mut link, &opts));
    let report = loop {
        if let Some(report) = state.lock().unwrap().take_report(grid) {
            break report;
        }
        std::thread::sleep(StdDuration::from_millis(10));
    };
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    match worker.join().expect("worker thread") {
        Ok(WorkerExit::Finished(outcome)) => {
            assert_eq!(outcome.jobs_run, 0, "no job fits a zero budget");
            assert_eq!(outcome.jobs_quarantined, spec.job_count());
        }
        other => panic!("expected a finished worker, got {other:?}"),
    }
    assert_eq!(report.failures.len(), spec.job_count());
    for failure in &report.failures {
        assert!(
            failure.reason.contains("wall-clock budget"),
            "budget reason, got: {}",
            failure.reason
        );
    }
    drop(state.lock().unwrap().detach_store());
    // Quarantines are settled state: a coordinator resuming the same store
    // finds nothing pending and re-runs none of them.
    let (resumed, store) = served(&spec, 2, &path);
    assert_eq!(resumed.failures, report.failures);
    assert_eq!(store.appended(), 0, "quarantined jobs are not re-run");
    std::fs::remove_file(&path).ok();

    // --- Phase D: fsync'd store round-trip -------------------------------
    let tiny = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("uniform", base(0))], 99, 1);
    let store_path = temp_store("fsync_store");
    let mut store =
        ExperimentStore::open_with(&store_path, StoreOptions { fsync: true }).expect("open store");
    let direct = tiny.run_with_store(&mut store);
    drop(store);
    let reloaded = ExperimentStore::load(&store_path).expect("reload fsync'd store");
    assert_eq!(reloaded.len(), tiny.job_count());
    assert_eq!(
        report_bits(&reloaded.rebuild_report()),
        report_bits(&direct)
    );
    std::fs::remove_file(&store_path).ok();

    // --- Phase E: the coordinator → worker environment hand-off ----------
    std::env::set_var(faults::CHAOS_ENV, "21:torn+delay");
    let installed = faults::install_plan_from_env(FaultRole::Worker)
        .expect("well-formed plan installs")
        .expect("non-empty env installs a plan");
    assert_eq!(installed.config().env_string(), "21:torn+delay");
    std::env::set_var(faults::CHAOS_ENV, "not-a-plan");
    assert!(
        faults::install_plan_from_env(FaultRole::Worker).is_err(),
        "a malformed plan is a hard error, not a silent clean run"
    );
    std::env::remove_var(faults::CHAOS_ENV);
    faults::clear_plan();
    assert!(
        faults::install_plan_from_env(FaultRole::Worker)
            .expect("empty env is fine")
            .is_none(),
        "no env, no plan"
    );
    faults::reset_events();
}
