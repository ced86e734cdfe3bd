//! # caem-bench
//!
//! The experiment harness: the `paper` binary that regenerates Table I and
//! Figs. 8–12 of the paper's evaluation (Section IV) from the compiled-in
//! [`PAPER_SPEC`], the `experiment` grid runner and `caem-serve` daemon,
//! the `netperf` engine-throughput harness and the `ablation` study.
//!
//! Regenerate the paper's tables with:
//!
//! ```bash
//! cargo run -p caem-bench --release --bin paper
//! ```
//!
//! The figures print a plain-text table, a CSV block and a markdown table
//! each.  Seeds are fixed so the output is reproducible; pass a different
//! seed as the first CLI argument to check robustness.

use caem::policy::PolicyKind;
use caem_metrics::report::Table;
use caem_wsnsim::{ExperimentSpec, GridSpec};

pub mod cli;
pub mod profrpt;
pub mod rss;

pub use cli::{ExperimentCli, ExperimentMode, FigureArgs, NetperfArgs};
pub use profrpt::{repeat_stats, time_breakdown_json, RepeatStats};

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

/// The scenario zoo the `experiment` binary runs when no `--spec` file is
/// given: the committed `specs/zoo.json`, compiled in.  It is the diversity
/// grid over deployments, heterogeneous batteries, churn and diurnal
/// traffic, and `--spec specs/zoo.json` resolves the very same document.
pub const ZOO_SPEC: &str = include_str!("../../../specs/zoo.json");

/// The paper's evaluation grid: the committed `specs/paper.json`, compiled
/// in.  Three load families on the Table II network, told apart by their
/// label prefixes: `energy_` (600 s, bounded buffers; Figs. 8 and 11 and
/// the E7 delay, throughput and delivery metrics), `lifetime_` (2,500 s;
/// Figs. 9 and 10) and `fairness_` (600 s, unbounded buffers; Fig. 12).
/// `experiment --spec specs/paper.json` runs it with replicates.
pub const PAPER_SPEC: &str = include_str!("../../../specs/paper.json");

/// [`PAPER_SPEC`] resolved, full or in its quick smoke shape, and pinned
/// to the one seed `seed`: every scenario with the paper's three
/// protocols, so [`ExperimentSpec::simulate`] puts the result of
/// (scenario `s`, policy index `p`) at `s * 3 + p`.
pub fn paper_grid(seed: u64, quick: bool) -> ExperimentSpec {
    let mut spec = GridSpec::parse(PAPER_SPEC)
        .and_then(|doc| doc.resolve(seed, quick))
        .expect("the compiled-in paper spec resolves")
        .spec;
    spec.seeds = vec![seed];
    spec
}

/// The indexes of the scenarios in `spec` whose label starts with
/// `family` (e.g. `"energy_"`), in spec order.
///
/// # Panics
/// When there are none: a figure whose scenarios are missing from the
/// paper spec is a broken spec, never an empty table.
pub fn paper_family(spec: &ExperimentSpec, family: &str) -> Vec<usize> {
    let indexes: Vec<usize> = (0..spec.scenarios.len())
        .filter(|&i| spec.scenarios[i].label.starts_with(family))
        .collect();
    assert!(
        !indexes.is_empty(),
        "the paper spec has no `{family}*` scenarios"
    );
    indexes
}

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
    fn the_paper_grid_runs_one_seed_of_every_family() {
        let spec = paper_grid(7, true);
        assert_eq!(spec.seeds, vec![7]);
        let sizes = ["energy_", "lifetime_", "fairness_"].map(|f| paper_family(&spec, f).len());
        assert_eq!(sizes, [6, 6, 5]);
    }

    #[test]
    #[should_panic(expected = "no `missing_*` scenarios")]
    fn a_figure_family_missing_from_the_spec_is_a_loud_error() {
        paper_family(&paper_grid(DEFAULT_SEED, true), "missing_");
    }
}
