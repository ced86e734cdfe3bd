//! Exact work pins: what a run costs, counted instead of timed.
//!
//! A wall-clock gate cannot be tight on a host whose speed drifts, and a
//! uniform slowdown leaves every profile share unchanged.  The counts here
//! are deterministic, so a change that adds simulator work fails the same
//! way on every host.  Each pinned run records four counters, in this
//! order:
//!
//! - `events`: `SimulationResult::events_processed`;
//! - `pending_peak`: `SimulationResult::queue_high_watermark`;
//! - `allocs`: heap allocation calls (`alloc`, `alloc_zeroed`, `realloc`)
//!   on the test thread, from `SimulationRun::new` through `finish`;
//! - `peak_bytes`: the highest live heap those calls reached, counted from
//!   the bytes live when the run started.
//!
//! The counting allocator exists in this test binary only and counts per
//! thread, so tests running side by side do not disturb each other.  The
//! pins hold in both the test and the release profile.  A pin that moves
//! on purpose is re-recorded by copying the measured values the failure
//! prints.  Wall time is not checked: a slowdown that keeps the
//! same events and allocations shows only in the perfbench pipeline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use caem::policy::PolicyKind;
use caem_bench::{policy_label, DEFAULT_SEED, ZOO_SPEC};
use caem_simcore::time::{Duration, SimTime};
use caem_wsnsim::experiment::ExperimentSpec;
use caem_wsnsim::spec::GridSpec;
use caem_wsnsim::{ScenarioConfig, SimulationResult, SimulationRun};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting each call on the calling thread.
struct Counting;

#[global_allocator]
static COUNTING: Counting = Counting;

/// Count one allocation call that leaves `grow` more bytes live.
fn note_alloc(grow: i64) {
    ALLOCS.set(ALLOCS.get() + 1);
    LIVE.set(LIVE.get() + grow);
    PEAK.set(PEAK.get().max(LIVE.get()));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

/// The counters of one run, in the order the module docs list them.
type Work = [u64; 4];

const COUNTERS: [&str; 4] = ["events", "pending_peak", "allocs", "peak_bytes"];

/// Build a run from `cfg`, let `step` drive it, finish it, and count its
/// work.  Every run also keeps two invariants: peak pending events stay
/// within the scenario's documented capacity, and the disabled profiler
/// accumulates nothing.
fn measure(cfg: ScenarioConfig, step: impl FnOnce(&mut SimulationRun)) -> (SimulationResult, Work) {
    let capacity = cfg.initial_queue_capacity();
    ALLOCS.set(0);
    LIVE.set(0);
    PEAK.set(0);
    let mut run = SimulationRun::new(cfg);
    step(&mut run);
    let result = run.finish();
    let work = [
        result.events_processed,
        result.queue_high_watermark as u64,
        ALLOCS.get(),
        PEAK.get() as u64,
    ];
    assert!(
        result.queue_high_watermark <= capacity,
        "peak pending exceeds the scenario bound: {} pending against {capacity}",
        result.queue_high_watermark
    );
    assert!(
        result.profile.is_empty(),
        "profiler accumulated samples while disabled"
    );
    (result, work)
}

fn run_to_horizon(run: &mut SimulationRun) {
    run.run_until(SimTime::MAX);
}

/// One line per counter where `measured` differs from `pinned`.
fn mismatches(scenario: &str, pinned: Work, measured: Work) -> Vec<String> {
    COUNTERS
        .iter()
        .zip(pinned.iter().zip(measured))
        .filter(|(_, (p, m))| *p != m)
        .map(|(counter, (p, m))| format!("{scenario}: {counter} pinned {p}, measured {m}"))
        .collect()
}

fn assert_pinned(scenario: &str, pinned: Work, measured: Work) {
    let lines = mismatches(scenario, pinned, measured);
    assert!(
        lines.is_empty(),
        "{}\nmeasured {measured:?}",
        lines.join("\n")
    );
}

/// Per job of the quick zoo at one replicate: `scenario/policy` and its work.
#[rustfmt::skip]
const ZOO_PINS: [(&str, Work); 18] = [
    ("uniform_5pps/pure_LEACH",                        [161183, 62, 350, 52403]),
    ("uniform_5pps/CAEM_scheme1_adaptive",             [ 97986, 59, 330, 47739]),
    ("uniform_5pps/CAEM_scheme2_fixed",                [ 80833, 59, 340, 50491]),
    ("grid_5pps/pure_LEACH",                           [149396, 62, 349, 51755]),
    ("grid_5pps/CAEM_scheme1_adaptive",                [ 95066, 59, 323, 45483]),
    ("grid_5pps/CAEM_scheme2_fixed",                   [ 79692, 57, 339, 49283]),
    ("hotspots_10pps/pure_LEACH",                      [221540, 61, 358, 53227]),
    ("hotspots_10pps/CAEM_scheme1_adaptive",           [212962, 62, 356, 52947]),
    ("hotspots_10pps/CAEM_scheme2_fixed",              [195689, 62, 353, 52843]),
    ("corridor_10pps/pure_LEACH",                      [222801, 62, 354, 52771]),
    ("corridor_10pps/CAEM_scheme1_adaptive",           [216207, 62, 352, 53211]),
    ("corridor_10pps/CAEM_scheme2_fixed",              [184048, 61, 351, 52859]),
    ("heterogeneous_churn_5pps/pure_LEACH",            [161286, 57, 345, 51283]),
    ("heterogeneous_churn_5pps/CAEM_scheme1_adaptive", [ 94763, 61, 328, 47195]),
    ("heterogeneous_churn_5pps/CAEM_scheme2_fixed",    [ 80194, 61, 334, 49291]),
    ("diurnal_10pps/pure_LEACH",                       [224231, 61, 350, 52643]),
    ("diurnal_10pps/CAEM_scheme1_adaptive",            [195298, 61, 353, 53387]),
    ("diurnal_10pps/CAEM_scheme2_fixed",               [150632, 61, 347, 52579]),
];

/// The quick zoo's 18 jobs, run serially on the test thread: every
/// topology, churn and diurnal path at paper density.
#[test]
fn quick_zoo_jobs_do_pinned_work() {
    let zoo = GridSpec::parse(ZOO_SPEC)
        .and_then(|doc| doc.resolve(DEFAULT_SEED, true))
        .expect("the built-in zoo spec resolves");
    let spec = ExperimentSpec::paper_policies(zoo.spec.scenarios, DEFAULT_SEED, 1);
    let jobs = spec.enumerate_jobs();
    assert_eq!(jobs.len(), ZOO_PINS.len());
    let mut lines = Vec::new();
    for (job, &(pinned_name, pinned)) in jobs.into_iter().zip(&ZOO_PINS) {
        let name = format!(
            "{}/{}",
            spec.scenarios[job.scenario].label,
            policy_label(job.policy)
        );
        let (_, work) = measure(job.config, run_to_horizon);
        assert_eq!(name, pinned_name, "zoo job order changed");
        lines.extend(mismatches(&name, pinned, work));
    }
    assert!(lines.is_empty(), "{}", lines.join("\n"));
}

/// The quick zoo never has more than a few dozen events pending, so it never
/// reaches the pending-event set's deep buckets.  A 2,000-node deployment
/// keeps thousands pending, and stepping it once per simulated second also
/// refuses a pop at every step deadline.  The pinned counts and the ledger's
/// bit pattern were recorded with the 4-ary heap queue.
#[test]
fn scaled_2000_node_schedule_matches_the_golden() {
    let cfg = ScenarioConfig::scaled(2000, PolicyKind::Scheme1Adaptive, 1.0, 12345)
        .with_duration(Duration::from_secs(10));
    let (r, work) = measure(cfg, |run| {
        for second in 1..=10 {
            run.run_until(SimTime::from_secs(second));
        }
    });
    assert_eq!(r.events_processed, 59_867);
    assert_eq!(r.perf.delivered(), 16_836);
    assert_eq!(r.collisions, 32);
    assert_eq!(r.ledger.total().to_bits(), 0x4064_32f7_05e5_1752);
    assert_pinned("scaled_2000", [59_867, 2_173, 2_661, 1_483_425], work);
}

/// A 50k-node network under churn (mean time to failure one hour), stepped
/// every 2 s: the scale at which the pending-event set, the node table and
/// round boundaries dominate a run.
#[test]
fn churn_50k_node_run_does_pinned_work() {
    let cfg = ScenarioConfig::scaled(50_000, PolicyKind::Scheme1Adaptive, 1.0, DEFAULT_SEED)
        .with_duration(Duration::from_secs(10))
        .with_churn_mttf_s(3600.0);
    let (_, work) = measure(cfg, |run| {
        for second in (2..=10).step_by(2) {
            run.run_until(SimTime::from_secs(second));
        }
    });
    assert_pinned("churn_50k", [1_495_808, 53_655, 64_497, 31_161_089], work);
}

fn small_config() -> ScenarioConfig {
    ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 10.0, 99)
        .with_duration(Duration::from_secs(30))
}

const SMALL_PIN: Work = [22_168, 41, 219, 33_221];

/// 20 nodes for 30 s at 10 pkt/s: the smallest pinned run.
#[test]
fn small_scenario_does_pinned_work() {
    let (_, work) = measure(small_config(), run_to_horizon);
    assert_pinned("small", SMALL_PIN, work);
}

/// The pins see a single added allocation, and only as an allocation.
#[test]
fn a_pin_trips_on_one_extra_allocation() {
    let (_, work) = measure(small_config(), |run| {
        run_to_horizon(run);
        drop(std::hint::black_box(Box::new(0u64)));
    });
    let lines = mismatches("small", SMALL_PIN, work);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("small: allocs pinned"), "{}", lines[0]);
}
