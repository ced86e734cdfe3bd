//! The committed `specs/zoo.json`, which the `experiment` binary compiles
//! in as its built-in grid, is canonical and seeded with the harness
//! default.

use caem_bench::{DEFAULT_SEED, ZOO_SPEC};
use caem_wsnsim::spec::GridSpec;

fn load_zoo() -> GridSpec {
    GridSpec::parse(ZOO_SPEC).expect("committed zoo spec parses")
}

#[test]
fn zoo_spec_round_trips_canonically() {
    let doc = load_zoo();
    let reserialized = serde_json::to_string_pretty(&doc.to_json()).expect("serializes");
    let back = GridSpec::parse(&reserialized).expect("canonical form re-parses");
    assert_eq!(back, doc, "parse ∘ serialize is the identity on the zoo");
}

#[test]
fn cli_seed_default_matches_the_zoo_spec_base_seed() {
    // The committed spec pins base_seed to the seed every other binary
    // defaults to; if DEFAULT_SEED ever moves, the spec must move with it.
    let doc = load_zoo();
    assert_eq!(doc.base_seed, Some(DEFAULT_SEED));
}
