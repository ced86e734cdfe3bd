//! Bit-identity golden for the structure-of-arrays runner refactor.
//!
//! The committed golden at `tests/goldens/zoo_quick_report.json` was
//! generated by the pre-refactor AoS runner (`Vec<SensorNode>`).  This test
//! re-runs the same quick-zoo grid on the current runner and byte-diffs the
//! serialized `ExperimentReport` against it: any change to event ordering,
//! RNG consumption, float accumulation order or aggregation therefore fails
//! loudly instead of silently drifting the paper's figures.
//!
//! Regenerate (only when an intentional behavior change is being made):
//!
//! ```bash
//! UPDATE_GOLDENS=1 cargo test -p caem-bench --release --test soa_golden
//! ```

use caem_bench::{DEFAULT_SEED, ZOO_SPEC};
use caem_wsnsim::experiment::ExperimentSpec;
use caem_wsnsim::spec::GridSpec;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/zoo_quick_report.json"
);

/// Replicates for the golden grid: fewer than the CI zoo's 5 so the test
/// stays fast in debug builds, but still 6 scenarios × 3 policies × 2 seeds
/// = 36 full simulations covering every topology, churn and diurnal path.
const GOLDEN_REPLICATES: usize = 2;

fn golden_report_json() -> String {
    let zoo = GridSpec::parse(ZOO_SPEC)
        .and_then(|doc| doc.resolve(DEFAULT_SEED, true))
        .expect("the built-in zoo spec resolves");
    let spec = ExperimentSpec::paper_policies(zoo.spec.scenarios, DEFAULT_SEED, GOLDEN_REPLICATES);
    let report = spec.run();
    let mut text = serde_json::to_string_pretty(&report.to_json()).expect("report serializes");
    text.push('\n');
    text
}

#[test]
fn quick_zoo_report_is_byte_identical_to_the_pre_refactor_golden() {
    let current = golden_report_json();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden at {GOLDEN_PATH} ({e}); regenerate with \
             UPDATE_GOLDENS=1 cargo test -p caem-bench --test soa_golden"
        )
    });
    assert!(
        current == golden,
        "quick-zoo ExperimentReport diverged from the committed pre-refactor \
         golden: the runner is no longer bit-identical (check event ordering, \
         RNG draw order and float accumulation order); if the change is \
         intentional, regenerate with UPDATE_GOLDENS=1"
    );
}
