//! Resume/replay contract tests for the experiment persistence layer.
//!
//! These extend the determinism discipline (tests/determinism.rs) across
//! process boundaries: a grid that crashes and resumes from its JSONL store,
//! or is re-aggregated offline from the store alone, must reproduce the
//! uninterrupted run's report **bit for bit**.  On top of that they pin the
//! robustness contract (a torn trailing line re-runs its job instead of
//! panicking or double-counting) and the sequential-stopping contract
//! (half-widths shrink per batch, the loop terminates, replicate counts are
//! deterministic and persisted replicates are reused across invocations).

use caem_suite::caem::policy::PolicyKind;
use caem_suite::energy::battery::EnergyLedger;
use caem_suite::metrics::energy::EnergyTracker;
use caem_suite::metrics::fairness::QueueFairness;
use caem_suite::metrics::lifetime::LifetimeTracker;
use caem_suite::metrics::perf::NetworkPerformance;
use caem_suite::simcore::time::{Duration, SimTime};
use caem_suite::wsnsim::experiment::{
    ExperimentSpec, ScenarioSpec, SequentialStopping, METRIC_NAMES,
};
use caem_suite::wsnsim::persist::{config_hash, ExperimentStore, JobRecord};
use caem_suite::wsnsim::{SimulationResult, SimulationRun, Topology};
use proptest::prelude::*;

mod common;

use common::{base, report_bits, temp_store};

/// A grid over diverse deployments, heterogeneous batteries and churn —
/// the shapes whose records must all survive the JSONL round-trip.
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
        5_200,
        replicates,
    )
}

#[test]
fn resumed_grid_is_bit_identical_to_uninterrupted_run() {
    let spec = diverse_spec(3);
    let uninterrupted = spec.run();

    // The clean persisted run must already match the store-less path.
    let clean_path = temp_store("resume_clean");
    let mut clean_store = ExperimentStore::open(&clean_path).expect("open store");
    let clean = spec.run_with_store(&mut clean_store);
    assert_eq!(clean, uninterrupted, "persisted run == store-less run");
    assert_eq!(report_bits(&clean), report_bits(&uninterrupted));
    drop(clean_store);

    let full_text = std::fs::read_to_string(&clean_path).expect("read store");
    let lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(
        lines.len(),
        1 + spec.job_count(),
        "header + one line per job"
    );

    // Crash after k completed jobs, for an early, a mid and a late crash.
    for keep in [1, spec.job_count() / 2, spec.job_count() - 1] {
        let path = temp_store(&format!("resume_k{keep}"));
        std::fs::write(&path, format!("{}\n", lines[..1 + keep].join("\n")))
            .expect("write truncated store");
        let mut store = ExperimentStore::open(&path).expect("open truncated store");
        assert_eq!(store.len(), keep, "k jobs survived the crash");
        let resumed = spec.run_with_store(&mut store);
        assert_eq!(store.len(), spec.job_count(), "resume filled in the rest");
        assert_eq!(
            resumed, uninterrupted,
            "resume after {keep} jobs must reproduce the uninterrupted report"
        );
        assert_eq!(report_bits(&resumed), report_bits(&uninterrupted));
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&clean_path).ok();
}

#[test]
fn offline_reaggregation_from_jsonl_alone_matches_the_in_memory_report() {
    let spec = diverse_spec(2);
    let path = temp_store("reaggregate");
    let mut store = ExperimentStore::open(&path).expect("open store");
    let in_memory = spec.run_with_store(&mut store);
    drop(store);

    // Re-load from disk only: no spec, no simulation.
    let offline = ExperimentStore::load(&path)
        .expect("load store")
        .rebuild_report();
    assert_eq!(offline, in_memory);
    assert_eq!(report_bits(&offline), report_bits(&in_memory));
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_trailing_line_reruns_the_job_without_panicking_or_double_counting() {
    let spec = diverse_spec(2);
    let path = temp_store("torn");
    let mut store = ExperimentStore::open(&path).expect("open store");
    let clean = spec.run_with_store(&mut store);
    drop(store);

    // Tear the final record in half — the signature of a crash mid-write.
    let text = std::fs::read_to_string(&path).expect("read store");
    let cut = text.trim_end().len() - 40;
    std::fs::write(&path, &text[..cut]).expect("write torn store");

    let mut store = ExperimentStore::open(&path).expect("torn store must load");
    assert_eq!(
        store.skipped_lines(),
        1,
        "the torn line is skipped, not fatal"
    );
    assert_eq!(store.len(), spec.job_count() - 1);
    let before = store.len();
    let resumed = spec.run_with_store(&mut store);
    assert_eq!(store.len() - before, 1, "exactly the torn job re-ran");
    assert_eq!(resumed, clean);
    drop(store);

    // The re-appended record must not have fused with the torn fragment,
    // and a duplicated line must not double-count its replicate.
    let mut text = std::fs::read_to_string(&path).expect("read store");
    let dup = text
        .lines()
        .nth(1)
        .expect("store has at least one record")
        .to_string();
    text.push_str(&dup);
    text.push('\n');
    std::fs::write(&path, text).expect("write duplicated store");
    let store = ExperimentStore::load(&path).expect("load store");
    assert_eq!(
        store.skipped_lines(),
        1,
        "only the old torn line is skipped"
    );
    assert_eq!(
        store.len(),
        spec.job_count(),
        "duplicate deduped, not counted"
    );
    assert_eq!(store.rebuild_report(), clean);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_changed_scenario_invalidates_exactly_its_persisted_records() {
    let spec = diverse_spec(2);
    let path = temp_store("stale");
    let mut store = ExperimentStore::open(&path).expect("open store");
    spec.run_with_store(&mut store);
    assert_eq!(store.len(), spec.job_count());

    // Same grid shape, but one scenario's configuration changed: its six
    // records hash stale and re-run; the other twelve are reused as-is.
    let mut edited = spec.clone();
    edited.scenarios[1] = ScenarioSpec::new(
        "hotspots",
        base(0).with_topology(Topology::GaussianClusters {
            clusters: 5,
            sigma_m: 6.0,
        }),
    );
    let report = edited.run_with_store(&mut store);
    assert_eq!(
        store.len(),
        spec.job_count(),
        "stale records are overwritten in place (last wins), not duplicated"
    );
    assert_eq!(report, edited.run(), "the report reflects the edited grid");
    // The untouched scenarios still verify against their original hashes.
    let jobs = spec.enumerate_jobs();
    let untouched = &jobs[0];
    assert!(store
        .get(
            (0, 0, untouched.seed),
            config_hash(&untouched.config),
            "uniform"
        )
        .is_some());

    // Renaming a scenario (config untouched, so the hash still matches)
    // must also invalidate its records: labels live outside the hashed
    // config, and reused records would otherwise carry the stale name into
    // the report.
    let mut renamed = edited.clone();
    renamed.scenarios[0] = ScenarioSpec::new("uniform_renamed", base(0));
    let renamed_report = renamed.run_with_store(&mut store);
    assert_eq!(
        renamed_report.cells[0].scenario, "uniform_renamed",
        "the report must carry the new label, not the persisted one"
    );
    assert_eq!(renamed_report, renamed.run());
    std::fs::remove_file(&path).ok();
}

#[test]
fn sequential_stopping_shrinks_terminates_and_is_deterministic() {
    let spec = ExperimentSpec {
        scenarios: vec![ScenarioSpec::new("uniform", base(0))],
        policies: vec![PolicyKind::Scheme1Adaptive],
        seeds: vec![9_100, 9_101],
    };
    // An unreachable target drives the loop to its cap.
    let stop = SequentialStopping {
        metric: "delivery_rate".to_string(),
        target_half_width: 1e-9,
        batch: 2,
        max_replicates: 10,
    };
    let path = temp_store("sequential");
    let mut store = ExperimentStore::open(&path).expect("open store");
    let outcome = spec.run_sequential(&mut store, &stop);

    assert!(!outcome.converged, "1e-9 is unreachable in 10 replicates");
    let counts: Vec<usize> = outcome.rounds.iter().map(|r| r.replicates).collect();
    assert_eq!(
        counts,
        vec![2, 4, 6, 8, 10],
        "batches append deterministically"
    );
    for pair in outcome.rounds.windows(2) {
        assert!(
            pair[1].worst_half_width < pair[0].worst_half_width,
            "half-width must shrink per batch: {} -> {}",
            pair[0].worst_half_width,
            pair[1].worst_half_width
        );
    }
    assert_eq!(
        outcome.report.cells[0]
            .metric("delivery_rate")
            .unwrap()
            .count(),
        10,
        "the final report carries every appended replicate"
    );
    assert_eq!(store.len(), 10, "every replicate was persisted");

    // Re-invoking with the same store reuses all persisted replicates:
    // the trace is identical and nothing new is simulated.
    let before = store.len();
    let again = spec.run_sequential(&mut store, &stop);
    assert_eq!(store.len(), before, "no new simulations on re-invocation");
    assert_eq!(again.rounds, outcome.rounds);
    assert_eq!(again.report, outcome.report);

    // A fresh store reproduces the exact same trace (deterministic in the
    // seed set), and a generous target converges on the first round.
    let path2 = temp_store("sequential_fresh");
    let mut store2 = ExperimentStore::open(&path2).expect("open store");
    let fresh = spec.run_sequential(&mut store2, &stop);
    assert_eq!(fresh.rounds, outcome.rounds);
    let generous = spec.run_sequential(
        &mut store2,
        &SequentialStopping {
            target_half_width: 1.0,
            ..stop.clone()
        },
    );
    assert!(generous.converged);
    assert_eq!(
        generous.rounds.len(),
        1,
        "already within target at round one"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

/// A hand-built result whose delay distribution lives entirely in the
/// histogram's overflow region (delays beyond even the auto-resize growth
/// cap), plus optional zero deliveries — the cases where quantiles and ratio
/// metrics are undefined.
fn overflow_result(deliveries: u64) -> SimulationResult {
    let mut perf = NetworkPerformance::new();
    perf.record_generated_n(deliveries + 5);
    for _ in 0..deliveries {
        // A week of delay: beyond the delay histogram's growth cap, so the
        // observation is "unbounded" even to the auto-resizing bins.
        perf.record_delivered(Duration::from_secs(604_800), 2_000);
    }
    perf.set_horizon(SimTime::from_secs(200));
    SimulationResult {
        policy: PolicyKind::Scheme2Fixed,
        traffic_rate_pps: 5.0,
        seed: 3,
        end_time: SimTime::from_secs(200),
        energy: EnergyTracker::new(4),
        lifetime: LifetimeTracker::new(4),
        perf,
        fairness: QueueFairness::new(),
        ledger: EnergyLedger::new(),
        nodes: Vec::new(),
        collisions: 0,
        bursts: 0,
        node_failures: 0,
        events_processed: 123,
        queue_high_watermark: 10,
        profile: caem_suite::metrics::prof::Profile::new(),
    }
}

#[test]
fn overflow_quantiles_and_undefined_ratios_round_trip_as_none() {
    let spec = ExperimentSpec {
        scenarios: vec![ScenarioSpec::new("overflow", base(3))],
        policies: vec![PolicyKind::Scheme2Fixed],
        seeds: vec![3],
    };
    let job = &spec.enumerate_jobs()[0];

    // All-overflow delays: every quantile is unknown-beyond-range.
    let saturated = JobRecord::from_result("overflow", 0, job, &overflow_result(7));
    assert_eq!(saturated.delay_p50_ms, None);
    assert_eq!(saturated.delay_p99_ms, None);

    // Merely-saturated delays (past 10 s but below the growth cap) stay
    // quantifiable now that the delay histogram auto-resizes: a 100 s tail
    // must persist as a value, not as None.
    let mut merely_saturated = NetworkPerformance::new();
    merely_saturated.record_generated_n(4);
    for _ in 0..4 {
        merely_saturated.record_delivered(Duration::from_secs(100), 2_000);
    }
    let p99 = merely_saturated
        .delay_quantile_ms(0.99)
        .expect("saturation p99 is reportable");
    assert!((90_000.0..110_001.0).contains(&p99), "p99 {p99}");

    // Zero deliveries: quantiles empty *and* energy-per-packet undefined.
    let starved = JobRecord::from_result("overflow", 0, job, &overflow_result(0));
    assert_eq!(starved.delay_p50_ms, None);
    let mj_slot = METRIC_NAMES
        .iter()
        .position(|&m| m == "mj_per_delivered_packet")
        .unwrap();
    assert_eq!(starved.metrics[mj_slot], None, "NaN persists as None");
    assert!(
        starved.metric_array()[mj_slot].is_nan(),
        "and decodes to NaN"
    );

    for record in [&saturated, &starved] {
        let line = serde_json::to_string(record).expect("encode");
        let back: JobRecord = serde_json::from_str(&line).expect("decode");
        assert_eq!(&back, record, "JSONL round-trip is lossless");
    }
}

#[test]
fn real_results_round_trip_across_every_topology_churn_and_spread() {
    let cases = [
        (Topology::Uniform, 0.0, None),
        (Topology::Grid { jitter_m: 2.0 }, 0.25, None),
        (
            Topology::GaussianClusters {
                clusters: 3,
                sigma_m: 10.0,
            },
            0.0,
            Some(30.0),
        ),
        (
            Topology::Corridor {
                width_fraction: 0.3,
            },
            0.4,
            Some(25.0),
        ),
    ];
    for (i, (topology, spread, churn)) in cases.into_iter().enumerate() {
        let mut config = base(600 + i as u64)
            .with_topology(topology)
            .with_energy_spread(spread);
        if let Some(mttf) = churn {
            config = config.with_churn_mttf_s(mttf);
        }
        let spec = ExperimentSpec {
            scenarios: vec![ScenarioSpec::new(format!("case_{i}"), config)],
            policies: vec![PolicyKind::Scheme1Adaptive],
            seeds: vec![600 + i as u64],
        };
        let job = &spec.enumerate_jobs()[0];
        let result = SimulationRun::new(job.config.clone()).run();
        let record = JobRecord::from_result(&format!("case_{i}"), 0, job, &result);
        let line = serde_json::to_string(&record).expect("encode");
        let back: JobRecord = serde_json::from_str(&line).expect("decode");
        assert_eq!(back, record, "{topology:?} record must round-trip");
        // Metric values survive bit-exactly, None slots stay None.
        for (a, b) in back.metric_array().iter().zip(record.metric_array()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            back.delay_p95_ms.map(f64::to_bits),
            result.perf.delay_quantile_ms(0.95).map(f64::to_bits)
        );
    }
}

/// Labels with the characters most likely to break a JSONL encoder.
const TRICKY_LABELS: [&str; 4] = [
    "uniform",
    "hot spots \"β\" → π",
    "line\nbreak and\ttab",
    "back\\slash /slash \u{1F600}",
];

proptest! {
    #[test]
    fn job_records_round_trip_jsonl_bit_exactly(
        seed in any::<u64>(),
        hash in any::<u64>(),
        scenario_index in 0usize..64,
        policy_pick in 0usize..3,
        label_pick in 0usize..TRICKY_LABELS.len(),
        raw in prop::collection::vec(-1.0e12f64..1.0e12, METRIC_NAMES.len()),
        none_mask in any::<u8>(),
        generated in any::<u64>(),
        delivered in any::<u64>(),
        p50 in 0.0f64..10_000.0,
        quantile_mask in any::<u8>(),
    ) {
        let policy = [
            PolicyKind::PureLeach,
            PolicyKind::Scheme1Adaptive,
            PolicyKind::Scheme2Fixed,
        ][policy_pick];
        let record = JobRecord {
            scenario_index,
            scenario: TRICKY_LABELS[label_pick].to_string(),
            policy_index: policy_pick,
            policy,
            seed,
            config_hash: hash,
            metrics: raw
                .iter()
                .enumerate()
                .map(|(i, &v)| (none_mask >> (i % 8) & 1 == 0).then_some(v))
                .collect(),
            generated,
            delivered,
            events_processed: generated ^ hash,
            end_time_nanos: seed.rotate_left(17),
            delay_p50_ms: (quantile_mask & 1 == 0).then_some(p50),
            delay_p95_ms: (quantile_mask & 2 == 0).then_some(p50 * 1.5),
            delay_p99_ms: (quantile_mask & 4 == 0).then_some(p50 * 2.0),
        };
        let line = serde_json::to_string(&record).expect("encode");
        prop_assert!(!line.contains('\n'), "a JSONL record is one line");
        let back: JobRecord = serde_json::from_str(&line).expect("decode");
        prop_assert_eq!(&back, &record);
        // Re-encoding reproduces the identical bytes: the floats took no
        // precision damage anywhere in the cycle.
        prop_assert_eq!(serde_json::to_string(&back).expect("re-encode"), line);
    }

    #[test]
    fn metric_arrays_decode_none_to_nan_and_values_bit_exactly(
        raw in prop::collection::vec(-1.0e300f64..1.0e300, METRIC_NAMES.len()),
        none_mask in any::<u8>(),
    ) {
        let record = JobRecord {
            scenario_index: 0,
            scenario: "x".to_string(),
            policy_index: 0,
            policy: PolicyKind::PureLeach,
            seed: 0,
            config_hash: 0,
            metrics: raw
                .iter()
                .enumerate()
                .map(|(i, &v)| (none_mask >> (i % 8) & 1 == 0).then_some(v))
                .collect(),
            generated: 0,
            delivered: 0,
            events_processed: 0,
            end_time_nanos: 0,
            delay_p50_ms: None,
            delay_p95_ms: None,
            delay_p99_ms: None,
        };
        let line = serde_json::to_string(&record).expect("encode");
        let back: JobRecord = serde_json::from_str(&line).expect("decode");
        let array = back.metric_array();
        for (i, &v) in raw.iter().enumerate() {
            if none_mask >> (i % 8) & 1 == 0 {
                prop_assert_eq!(array[i].to_bits(), v.to_bits());
            } else {
                prop_assert!(array[i].is_nan());
            }
        }
    }
}
