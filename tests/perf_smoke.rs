//! Tier-1 performance smoke check.
//!
//! Not a benchmark — `caem-bench`'s `netperf` binary measures real
//! throughput in release mode.  This test only guards against *gross*
//! regressions (an accidentally quadratic scan, a runaway event storm) by
//! running a small scenario under debug-friendly budgets, so a catastrophic
//! slowdown fails `cargo test` instead of waiting for someone to read the
//! bench numbers.

use std::time::{Duration as WallDuration, Instant};

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::{ScenarioConfig, SimulationRun};

#[test]
fn small_scenario_stays_inside_generous_budgets() {
    let cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 10.0, 99)
        .with_duration(Duration::from_secs(30));
    let queue_capacity = cfg.initial_queue_capacity();

    let started = Instant::now();
    let result = SimulationRun::new(cfg).run();
    let elapsed = started.elapsed();

    // Event-count budget: 20 nodes x 30 s at 10 pkt/s produce ~6k arrivals
    // and a few tens of thousands of MAC observations.  An order of magnitude
    // of slack on top of the ~60k events measured today still catches an
    // event storm.
    assert!(
        result.events_processed > 5_000,
        "suspiciously few events ({}) — did the simulation run at all?",
        result.events_processed
    );
    assert!(
        result.events_processed < 600_000,
        "event storm: {} events for a 20-node 30-second scenario",
        result.events_processed
    );

    // Wall-clock budget: this completes in well under a second even in debug
    // builds; 30 s of slack absorbs the slowest CI hardware while still
    // failing on quadratic blowups.
    assert!(
        elapsed < WallDuration::from_secs(30),
        "20-node 30-second scenario took {elapsed:?}"
    );

    // Peak pending events stay within the scenario's documented bound.
    assert!(
        result.queue_high_watermark <= queue_capacity,
        "peak pending exceeds the scenario bound: {} pending against {}",
        result.queue_high_watermark,
        queue_capacity
    );

    // The always-compiled profiler instrumentation sits on the hot path
    // behind one disabled-by-default branch.  This run never enabled it, so
    // no samples may have accumulated — and the generous wall budget above
    // doubles as the disabled-path overhead smoke: the instrumented loop
    // must still clear it easily.
    assert!(
        result.profile.is_empty(),
        "profiler accumulated samples while disabled"
    );
}
