//! The committed specs compiled into the harness — `specs/zoo.json`, the
//! `experiment` binary's built-in grid, and `specs/paper.json`, the grid
//! the `paper` binary prints its figures from — are canonical and seeded
//! with the harness default, and the paper spec resolves to exactly the
//! configurations the paper's figures were built from.

use caem::policy::PolicyKind;
use caem_bench::{DEFAULT_SEED, PAPER_SPEC, ZOO_SPEC};
use caem_simcore::time::Duration;
use caem_wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_wsnsim::spec::GridSpec;
use caem_wsnsim::{config_hash, ScenarioConfig};

/// Every committed spec the harness compiles in, by name.
fn committed_specs() -> [(&'static str, GridSpec); 2] {
    [("zoo", ZOO_SPEC), ("paper", PAPER_SPEC)]
        .map(|(name, text)| (name, GridSpec::parse(text).expect("committed spec parses")))
}

#[test]
fn zoo_spec_round_trips_canonically() {
    for (name, doc) in committed_specs() {
        let reserialized = serde_json::to_string_pretty(&doc.to_json()).expect("serializes");
        let back = GridSpec::parse(&reserialized).expect("canonical form re-parses");
        assert_eq!(back, doc, "parse ∘ serialize is the identity on {name}");
    }
}

#[test]
fn cli_seed_default_matches_the_zoo_spec_base_seed() {
    // The committed specs pin base_seed to the seed every binary defaults
    // to; if DEFAULT_SEED ever moves, the specs must move with it.
    for (name, doc) in committed_specs() {
        assert_eq!(doc.base_seed, Some(DEFAULT_SEED), "{name}");
    }
}

#[test]
fn paper_spec_jobs_are_the_figure_configs() {
    // What the figures were built from: per load (5, 10, … pps), the
    // Table II scenario at the figure's horizon, with unbounded buffers
    // for Fig. 12, on the paper's three protocols.
    let families = [
        ("energy", 6, 600, false),
        ("lifetime", 6, 2_500, false),
        ("fairness", 5, 600, true),
    ];
    let scenarios: Vec<ScenarioSpec> = families
        .into_iter()
        .flat_map(|(family, loads, secs, unbounded)| {
            (1..=loads).map(move |i| {
                let load = 5.0 * i as f64;
                let config =
                    ScenarioConfig::paper_default(PolicyKind::PureLeach, load, DEFAULT_SEED)
                        .with_duration(Duration::from_secs(secs));
                let config = if unbounded {
                    config.with_unbounded_buffers()
                } else {
                    config
                };
                ScenarioSpec::new(format!("{family}_{load}pps"), config)
            })
        })
        .collect();
    let doc = GridSpec::parse(PAPER_SPEC).expect("paper spec parses");
    let resolved = doc.resolve(DEFAULT_SEED, false).expect("resolves").spec;
    let built = ExperimentSpec::paper_policies(scenarios, DEFAULT_SEED, resolved.seeds.len());

    let (jobs, expected) = (resolved.enumerate_jobs(), built.enumerate_jobs());
    assert_eq!(jobs.len(), expected.len());
    for (job, want) in jobs.iter().zip(&expected) {
        let label = &resolved.scenarios[job.scenario].label;
        assert_eq!(label, &built.scenarios[want.scenario].label);
        assert_eq!((job.policy, job.seed), (want.policy, want.seed), "{label}");
        assert_eq!(job.config_hash, config_hash(&want.config), "{label}");
    }
}
