//! Contract tests for the `caem_metrics::prof` time-breakdown profiler.
//!
//! The profiler's core promise is that it **observes without perturbing**:
//! it only reads wall clocks, never the simulation's RNG or state, so a
//! profiled run must produce bit-identical results and byte-identical
//! report artifacts.  These tests pin that promise, the exact fold of
//! per-run shards into the process-wide `SharedProfile` (any partition,
//! any order, any interleaving of threads), and the Chrome trace export.
//!
//! The enable gate is process-global, so every test that flips it runs
//! under one mutex and restores the disabled state before releasing it.

use caem_suite::caem::policy::PolicyKind;
use caem_suite::metrics::prof::{self, Profile, SharedProfile, PROF_KEYS};
use caem_suite::simcore::rng::StreamRng;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::{ScenarioConfig, SimulationResult, SimulationRun};
use proptest::prelude::*;

static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run the closure with the profiler enabled, restoring the disabled state
/// afterwards even on panic (via the poisoned-lock path of the next test).
fn with_profiler<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    let _guard = GATE.lock().unwrap_or_else(|p| p.into_inner());
    prof::set_enabled(enabled);
    let out = f();
    prof::set_enabled(false);
    out
}

fn small_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 10.0, seed)
        .with_duration(Duration::from_secs(20))
}

fn run_small(seed: u64) -> SimulationResult {
    SimulationRun::new(small_config(seed)).run()
}

/// The simulation-visible outcome of a run, bit-exact.
fn outcome_fingerprint(result: &SimulationResult) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        result.events_processed,
        result.perf.generated(),
        result.perf.delivered(),
        result.collisions,
        result
            .nodes
            .iter()
            .map(|n| n.remaining_energy_j.to_bits())
            .collect(),
    )
}

#[test]
fn profiled_run_is_bit_identical_to_clean() {
    let clean = with_profiler(false, || run_small(42));
    let profiled = with_profiler(true, || run_small(42));
    assert_eq!(
        outcome_fingerprint(&clean),
        outcome_fingerprint(&profiled),
        "profiling must not perturb the simulation"
    );
    assert!(
        clean.profile.is_empty(),
        "disabled runs must not accumulate profile samples"
    );
    assert!(
        !profiled.profile.is_empty(),
        "enabled runs must accumulate profile samples"
    );
    // Every processed event is attributed to exactly one event-kind span.
    let event_counts: u64 = PROF_KEYS
        .into_iter()
        .filter(|k| !k.is_subsystem())
        .map(|k| profiled.profile.count(k))
        .sum();
    assert_eq!(
        event_counts, profiled.events_processed,
        "event-kind span counts must partition events_processed"
    );
}

#[test]
fn profiled_experiment_report_is_byte_identical() {
    let spec = |seed: u64| {
        ExperimentSpec::paper_policies(
            vec![ScenarioSpec::new("uniform", small_config(seed))],
            seed,
            2,
        )
    };
    let clean = with_profiler(false, || spec(7).run());
    let profiled = with_profiler(true, || spec(7).run());
    let clean_json = serde_json::to_string_pretty(&clean.to_json()).expect("serialize");
    let profiled_json = serde_json::to_string_pretty(&profiled.to_json()).expect("serialize");
    assert_eq!(
        clean_json, profiled_json,
        "the report artifact must be byte-identical under profiling"
    );
}

#[test]
fn trace_capture_produces_chrome_trace_events() {
    let (json, events, dropped) = with_profiler(true, || {
        prof::start_trace(100_000);
        run_small(3);
        prof::stop_trace_json().expect("trace was started")
    });
    assert!(events > 0, "a simulated run must record trace slices");
    assert_eq!(dropped, 0, "capacity must be ample for a small run");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"cat\":\"subsystem\""));
    assert!(json.contains("\"cat\":\"event\""));
    // Stopping again without starting is a clean no-op.
    assert!(prof::stop_trace_json().is_none());
}

/// A deterministic permutation of `0..n` driven by the simulator's RNG
/// (same idiom as `tests/property_based.rs`).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StreamRng::from_seed_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = ((rng.next_f64() * (i + 1) as f64) as usize).min(i);
        idx.swap(i, j);
    }
    idx
}

proptest! {
    /// The path every run's finished shard takes into `prof::global()`:
    /// any partition of a sample stream into shards, added into one
    /// `SharedProfile` from three threads at once, reproduces the
    /// sequential accumulation bit for bit.
    #[test]
    fn shared_profile_folds_random_partitions_exactly(
        samples in prop::collection::vec(any::<u64>(), 1..120),
        order_seed in any::<u64>(),
        cuts_seed in any::<u64>(),
    ) {
        // Each raw sample carries a (count, nanos) pair in its halves,
        // shifted down so 120 stacked samples stay away from overflow.
        let split = |raw: u64| (raw >> 48, (raw & 0xffff_ffff) >> 8);
        // Sequential reference, in canonical order.
        let mut reference = Profile::new();
        for (i, &raw) in samples.iter().enumerate() {
            let key = PROF_KEYS[i % PROF_KEYS.len()];
            let (count, nanos) = split(raw);
            reference.add(key, count, nanos);
        }
        // Random partition of a random permutation of the samples.
        let order = permutation(samples.len(), order_seed);
        let mut cut_rng = StreamRng::from_seed_u64(cuts_seed);
        let mut parts: Vec<Profile> = vec![Profile::new()];
        for &i in &order {
            if cut_rng.next_f64() < 0.25 {
                parts.push(Profile::new());
            }
            let key = PROF_KEYS[i % PROF_KEYS.len()];
            let (count, nanos) = split(samples[i]);
            parts.last_mut().expect("non-empty").add(key, count, nanos);
        }
        // Three threads each add every third shard, interleaving freely.
        let shared = SharedProfile::new();
        std::thread::scope(|scope| {
            for t in 0..3 {
                let (shared, parts) = (&shared, &parts);
                scope.spawn(move || {
                    for shard in parts.iter().skip(t).step_by(3) {
                        shared.add_profile(shard);
                    }
                });
            }
        });
        prop_assert_eq!(shared.snapshot(), reference);
    }
}
