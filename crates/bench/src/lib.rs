//! # caem-bench
//!
//! The experiment harness: shared helpers used by the `fig8` … `fig12`,
//! `netperf` and `ablation` binaries that regenerate every figure of the
//! paper's evaluation (Section IV).
//!
//! Run the full figure suite with, e.g.:
//!
//! ```bash
//! cargo run -p caem-bench --release --bin fig8
//! cargo run -p caem-bench --release --bin fig10
//! ```
//!
//! Every binary prints a plain-text table, a CSV block and a markdown
//! table.  Seeds are fixed so the output is reproducible; pass a different
//! seed as the first CLI argument to check robustness.

use caem::policy::PolicyKind;
use caem_metrics::report::Table;
use caem_wsnsim::{ExperimentSpec, ScenarioConfig, ScenarioSpec};

pub mod cli;
pub mod profrpt;
pub mod rss;

pub use cli::{ExperimentCli, ExperimentMode, FigureArgs, NetperfArgs};
pub use profrpt::{repeat_stats, time_breakdown_json, ProfBudget, RepeatStats};

/// The seed used by all figures unless overridden on the command line.
pub const DEFAULT_SEED: u64 = 20050612;

/// Human label used in figure output for each protocol, matching the paper's
/// legend.
pub fn policy_label(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::PureLeach => "pure_LEACH",
        PolicyKind::Scheme1Adaptive => "CAEM_scheme1_adaptive",
        PolicyKind::Scheme2Fixed => "CAEM_scheme2_fixed",
    }
}

/// Shrink a scenario for `--quick` runs.
pub fn apply_quick(mut cfg: ScenarioConfig, quick: bool) -> ScenarioConfig {
    if quick {
        cfg.node_count = 30;
        cfg.duration = caem_simcore::time::Duration::from_secs(120);
    }
    cfg
}

/// The figures' traffic-load axis as one grid: per load, the Table II
/// scenario reduced by [`apply_quick`] and then `adjust`ed; the paper's
/// three protocols; one shared seed.  [`ExperimentSpec::simulate`] returns
/// its results one load after another, each load's in
/// [`caem_wsnsim::experiment::PAPER_POLICIES`] order.
pub fn load_grid(
    loads_pps: &[f64],
    seed: u64,
    quick: bool,
    adjust: impl Fn(ScenarioConfig) -> ScenarioConfig,
) -> ExperimentSpec {
    let scenarios = loads_pps
        .iter()
        .map(|&load| {
            let base = ScenarioConfig::paper_default(PolicyKind::PureLeach, load, seed);
            ScenarioSpec::new(format!("load_{load}pps"), adjust(apply_quick(base, quick)))
        })
        .collect();
    ExperimentSpec::paper_policies(scenarios, seed, 1)
}

/// The scenario zoo the `experiment` binary runs when no `--spec` file is
/// given: the committed `specs/zoo.json`, compiled in.  It is the diversity
/// grid over deployments, heterogeneous batteries, churn and diurnal
/// traffic, and `--spec specs/zoo.json` resolves the very same document.
pub const ZOO_SPEC: &str = include_str!("../../../specs/zoo.json");

/// Print a table in all three formats the harness emits.
pub fn emit(table: &Table) {
    println!("{}", table.to_text());
    println!("--- CSV ---\n{}", table.to_csv());
    println!("--- Markdown ---\n{}", table.to_markdown());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            policy_label(PolicyKind::PureLeach),
            policy_label(PolicyKind::Scheme1Adaptive),
            policy_label(PolicyKind::Scheme2Fixed),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn quick_shrinks_scenario() {
        let cfg = ScenarioConfig::paper_default(PolicyKind::PureLeach, 5.0, 1);
        let q = apply_quick(cfg.clone(), true);
        assert!(q.node_count < cfg.node_count);
        let same = apply_quick(cfg.clone(), false);
        assert_eq!(same.node_count, cfg.node_count);
    }
}
