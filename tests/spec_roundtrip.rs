//! Declarative-spec contracts: parse → resolve → re-serialize → re-parse is
//! a fixed point that preserves the persist config hashes (property-tested
//! over randomly generated documents), and every malformed-spec class —
//! unknown field, wrong type, out-of-range value, conflicting axes,
//! duplicate entries, empty axes, bad version — yields its own distinct
//! typed `ConfigError` variant carrying the offending field's path.

use caem_suite::caem::policy::PolicyKind;
use caem_suite::wsnsim::config::ConfigError;
use caem_suite::wsnsim::experiment::ExperimentSpec;
use caem_suite::wsnsim::persist::config_hash;
use caem_suite::wsnsim::spec::{
    GridQuick, GridSpec, ScenarioSpecDoc, SeedAxis, SequentialSpec, MAX_GRID_JOBS,
};
use proptest::prelude::*;

mod common;

use common::arbitrary_scenario;

proptest! {
    /// parse ∘ to_json is the identity on documents, and the resolved
    /// configs — hence the persist config hashes keyed on them — are
    /// preserved across the round trip, in both full and quick mode.
    #[test]
    fn serialize_parse_is_a_fixed_point_preserving_config_hashes(
        scenario_count in 1usize..4,
        topo_choice in 0u8..255,
        magnitude in 0.5f64..25.0,
        small in 0u8..255,
        rate in 0.5f64..20.0,
        flags in 0u8..255,
        replicate_style in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let scenarios: Vec<ScenarioSpecDoc> = (0..scenario_count)
            .map(|i| arbitrary_scenario(
                i,
                (topo_choice.wrapping_add(i as u8), magnitude + i as f64, small.wrapping_mul(i as u8 + 1), rate + i as f64, flags.wrapping_add(37 * i as u8)),
            ))
            .collect();
        let spec = GridSpec {
            name: (flags % 2 == 0).then(|| "prop".to_string()),
            base_seed: (replicate_style != 3).then_some(seed),
            seeds: if replicate_style == 3 {
                SeedAxis::Explicit(vec![seed, seed + 7, seed + 13])
            } else {
                SeedAxis::Replicates(1 + replicate_style as usize)
            },
            duration_s: (flags % 3 == 0).then_some(30.0 + magnitude),
            node_count: (flags % 5 == 0).then_some(12 + (small % 32) as usize),
            policies: None,
            scenarios,
            sequential: (flags % 4 == 0).then(|| SequentialSpec {
                metric: "delivery_rate".to_string(),
                target_half_width: magnitude / 100.0,
                batch: (small % 2 == 0).then_some(2),
                max_replicates: 64,
            }),
            quick: if small % 3 == 0 {
                GridQuick::default()
            } else {
                GridQuick {
                    // A quick replicate count conflicts with an explicit
                    // seed list (the list is the axis in both modes).
                    replicates: (replicate_style != 3).then_some(1 + (small % 3) as usize),
                    node_count: Some(8 + (small % 8) as usize),
                    duration_s: Some(10.0 + magnitude / 3.0),
                }
            },
        };

        let text = serde_json::to_string_pretty(&spec.to_json()).expect("serializes");
        let reparsed = GridSpec::parse(&text).expect("canonical text re-parses");
        prop_assert_eq!(&reparsed, &spec, "parse ∘ serialize must be the identity");

        // The double round trip is also a fixed point at the *text* level.
        let text2 = serde_json::to_string_pretty(&reparsed.to_json()).expect("serializes");
        prop_assert_eq!(&text2, &text);

        // Resolution is deterministic and hash-preserving across the trip.
        for quick in [false, true] {
            let a = spec.resolve(42, quick).expect("valid by construction");
            let b = reparsed.resolve(42, quick).expect("valid by construction");
            prop_assert_eq!(a.spec.seeds, b.spec.seeds);
            prop_assert_eq!(a.spec.policies, b.spec.policies);
            prop_assert_eq!(a.spec.scenarios.len(), b.spec.scenarios.len());
            for (sa, sb) in a.spec.scenarios.iter().zip(&b.spec.scenarios) {
                prop_assert_eq!(&sa.label, &sb.label);
                prop_assert_eq!(config_hash(&sa.base), config_hash(&sb.base));
            }
        }
    }
}

proptest! {
    /// Every enumerated job carries exactly the persist config hash of its
    /// own configuration, though the hash is spliced from a per-cell prefix
    /// and the seed's digits: across random grids and seeds of every digit
    /// count, up to `u64::MAX`.
    #[test]
    fn spliced_job_hashes_equal_config_hash(
        scenario_count in 1usize..3,
        topo_choice in 0u8..255,
        magnitude in 0.5f64..25.0,
        small in 0u8..255,
        rate in 0.5f64..20.0,
        flags in 0u8..255,
        seed in 0u64..u64::MAX,
        quick in any::<bool>(),
    ) {
        let scenarios: Vec<ScenarioSpecDoc> = (0..scenario_count)
            .map(|i| arbitrary_scenario(
                i,
                (topo_choice.wrapping_add(i as u8), magnitude + i as f64, small, rate + i as f64, flags.wrapping_add(37 * i as u8)),
            ))
            .collect();
        let mut seeds = vec![0, 9, 10, 99, 1 << 63, u64::MAX];
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
        let spec = GridSpec {
            name: None,
            base_seed: None,
            seeds: SeedAxis::Explicit(seeds),
            duration_s: None,
            node_count: None,
            policies: None,
            scenarios,
            sequential: None,
            quick: GridQuick::default(),
        };
        let grid = spec.resolve(42, quick).expect("valid by construction").spec;
        for job in grid.enumerate_jobs() {
            let base = &grid.scenarios[job.scenario].base;
            prop_assert_eq!(
                job.config_hash,
                config_hash(&base.clone().with_policy(job.policy).with_seed(job.seed))
            );
        }
    }
}

/// Splicing must not move any persisted hash: one zoo job's config hash,
/// pinned to the value the whole-config serialization gave before splicing
/// existed, so existing stores stay valid.
#[test]
fn a_zoo_job_keeps_its_persisted_config_hash() {
    let zoo = GridSpec::parse(include_str!("../specs/zoo.json"))
        .expect("zoo spec parses")
        .resolve(20_050_612, true)
        .expect("zoo spec resolves")
        .spec;
    let job = &zoo.enumerate_jobs()[37];
    assert_eq!(
        (job.scenario, job.policy, job.seed),
        (2, PolicyKind::Scheme1Adaptive, 20_050_614)
    );
    assert_eq!(job.config_hash, 0x46df_4115_3179_3a20);
    assert_eq!(config_hash(&job.config), 0x46df_4115_3179_3a20);
}

/// The grid identity a worker pins with `--expect-hash` and a daemon's
/// grants carry, pinned for the quick zoo: a change to the canonical
/// resolved form would silently invalidate every recorded `--expect-hash`
/// and change the grant bytes on the wire.
#[test]
fn the_quick_zoos_grid_hash_is_pinned() {
    let zoo = GridSpec::parse(include_str!("../specs/zoo.json"))
        .expect("zoo spec parses")
        .resolve(20_050_612, true)
        .expect("zoo spec resolves")
        .spec;
    assert_eq!(zoo.hash(), 0x87bc_5b32_bbd7_e163);
    let decoded = ExperimentSpec::from_json(&zoo.to_json()).expect("own encoding decodes");
    assert_eq!(decoded.hash(), 0x87bc_5b32_bbd7_e163);
}

// ---------------------------------------------------------------------------
// Golden malformed-spec classes → distinct typed error variants.
// ---------------------------------------------------------------------------

fn wrap(scenarios_body: &str) -> String {
    format!("{{ \"caem_grid_spec\": 1, \"replicates\": 2, \"scenarios\": [{scenarios_body}] }}")
}

#[test]
fn unknown_fields_are_rejected_at_every_level() {
    // Top level.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2, "replicats": 3,
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::UnknownField {
            path: "replicats".to_string()
        }
    );
    // Scenario level, with the array index in the path.
    let err = GridSpec::parse(&wrap(
        r#"{ "label": "a", "rate_pps": 5.0, "chrun_mttf_s": 7.0 }"#,
    ))
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::UnknownField {
            path: "scenarios[0].chrun_mttf_s".to_string()
        }
    );
    // Nested topology object.
    let err = GridSpec::parse(&wrap(
        r#"{ "label": "a", "rate_pps": 5.0, "topology": { "grid": { "jitter_m": 1.0, "jitterm": 2.0 } } }"#,
    ))
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::UnknownField {
            path: "scenarios[0].topology.grid.jitterm".to_string()
        }
    );
    // Lease tuning belongs to the daemon, not to a grid: a `distrib` block
    // is an unknown field like any other.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2,
             "distrib": { "lease_ttl_s": 1e300 },
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::UnknownField {
            path: "distrib".to_string()
        }
    );
}

#[test]
fn missing_required_fields_are_typed() {
    let err = GridSpec::parse(r#"{ "caem_grid_spec": 1, "replicates": 2 }"#).unwrap_err();
    assert_eq!(
        err,
        ConfigError::MissingField {
            path: "scenarios".to_string()
        }
    );
    let err = GridSpec::parse(&wrap(r#"{ "rate_pps": 5.0 }"#)).unwrap_err();
    assert_eq!(
        err,
        ConfigError::MissingField {
            path: "scenarios[0].label".to_string()
        }
    );
    let err = GridSpec::parse(&wrap(r#"{ "label": "a" }"#)).unwrap_err();
    assert_eq!(
        err,
        ConfigError::MissingField {
            path: "scenarios[0].rate_pps".to_string()
        }
    );
    // No seed axis at all.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::MissingField {
            path: "replicates".to_string()
        }
    );
}

#[test]
fn wrong_types_are_typed() {
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": "ten",
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::WrongType {
            path: "replicates".to_string(),
            expected: "non-negative integer"
        }
    );
    let err = GridSpec::parse(&wrap(r#"{ "label": "a", "rate_pps": "fast" }"#)).unwrap_err();
    assert_eq!(
        err,
        ConfigError::WrongType {
            path: "scenarios[0].rate_pps".to_string(),
            expected: "number"
        }
    );
}

#[test]
fn unknown_variants_are_typed() {
    let err = GridSpec::parse(&wrap(
        r#"{ "label": "a", "rate_pps": 5.0, "topology": "ring" }"#,
    ))
    .unwrap_err();
    assert!(
        matches!(
            &err,
            ConfigError::UnknownVariant { path, value, .. }
                if path == "scenarios[0].topology" && value == "ring"
        ),
        "got {err:?}"
    );
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2, "policies": ["PureLeach", "Leach2000"],
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            ConfigError::UnknownVariant { path, value, .. }
                if path == "policies[1]" && value == "Leach2000"
        ),
        "got {err:?}"
    );
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2,
             "sequential": { "metric": "vibes", "target_half_width": 0.1, "max_replicates": 8 },
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            ConfigError::UnknownVariant { path, value, .. }
                if path == "sequential.metric" && value == "vibes"
        ),
        "got {err:?}"
    );
}

#[test]
fn conflicting_axes_are_typed() {
    // replicates vs explicit seeds.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2, "seeds": [1, 2],
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::ConflictingFields {
            path: "replicates".to_string(),
            other: "seeds".to_string()
        }
    );
    // base_seed is meaningless next to an explicit list.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "base_seed": 9, "seeds": [1, 2],
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::ConflictingFields {
            path: "base_seed".to_string(),
            other: "seeds".to_string()
        }
    );
    // The rate shorthand vs the full traffic object.
    let err = GridSpec::parse(&wrap(
        r#"{ "label": "a", "rate_pps": 5.0, "traffic": { "cbr": { "rate_pps": 5.0 } } }"#,
    ))
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::ConflictingFields {
            path: "scenarios[0].rate_pps".to_string(),
            other: "scenarios[0].traffic".to_string()
        }
    );
}

#[test]
fn duplicate_entries_are_typed() {
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "seeds": [4, 4],
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::DuplicateEntry {
            path: "seeds".to_string(),
            value: "4".to_string()
        }
    );
    let err = GridSpec::parse(&wrap(
        r#"{ "label": "twin", "rate_pps": 5.0 }, { "label": "twin", "rate_pps": 6.0 }"#,
    ))
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::DuplicateEntry {
            path: "scenarios".to_string(),
            value: "label `twin`".to_string()
        }
    );
    // The same JSON key twice in one object.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2, "replicates": 3,
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::DuplicateEntry {
            path: "".to_string(),
            value: "`replicates`".to_string()
        }
    );
}

#[test]
fn empty_axes_are_typed() {
    let err = GridSpec::parse(r#"{ "caem_grid_spec": 1, "replicates": 2, "scenarios": [] }"#)
        .unwrap_err();
    assert_eq!(
        err,
        ConfigError::EmptyAxis {
            path: "scenarios".to_string()
        }
    );
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2, "policies": [],
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::EmptyAxis {
            path: "policies".to_string()
        }
    );
}

#[test]
fn version_and_value_domain_errors_are_typed() {
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 99, "replicates": 2,
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::UnsupportedVersion {
            path: "caem_grid_spec".to_string(),
            found: 99,
            supported: 1
        }
    );
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 0,
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::NonPositive {
            path: "replicates".to_string(),
            value: 0.0
        }
    );
    // Out-of-range values surface at resolution, wrapped with the scenario.
    let spec = GridSpec::parse(&wrap(
        r#"{ "label": "bad", "rate_pps": 5.0, "energy_spread": 1.5 }"#,
    ))
    .unwrap();
    let err = spec.resolve(1, false).unwrap_err();
    assert_eq!(
        err,
        ConfigError::OutOfRange {
            path: "initial_energy_spread".to_string(),
            value: 1.5,
            expected: "[0, 1)",
        }
        .in_scenario("bad")
    );
    // A seed axis that would run past u64::MAX is refused, not wrapped.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "base_seed": 18446744073709551615, "replicates": 2,
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap()
    .resolve(1, false)
    .unwrap_err();
    assert!(
        matches!(&err, ConfigError::OutOfRange { path, .. } if path == "base_seed"),
        "got {err:?}"
    );
    // So is sequential growth that would: the cap's added seeds follow the
    // largest one.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "seeds": [18446744073709551614],
             "sequential": { "metric": "delivery_rate", "target_half_width": 0.1,
                             "max_replicates": 3 },
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap()
    .resolve(1, false)
    .unwrap_err();
    assert!(
        matches!(
            &err,
            ConfigError::OutOfRange { path, .. } if path == "sequential.max_replicates"
        ),
        "got {err:?}"
    );
    // A replicate count too large to allocate is a typed error.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 1000000000000000,
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap()
    .resolve(1, false)
    .unwrap_err();
    assert!(
        matches!(&err, ConfigError::OutOfRange { path, .. } if path == "replicates"),
        "got {err:?}"
    );
    assert!(
        err.to_string().contains(&MAX_GRID_JOBS.to_string()),
        "{err}"
    );
    // So is an empty quick seed axis.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 2, "quick": { "replicates": 0 },
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap()
    .resolve(1, true)
    .unwrap_err();
    assert!(
        matches!(&err, ConfigError::OutOfRange { path, .. } if path == "quick.replicates"),
        "got {err:?}"
    );
    // A duration `SimTime`'s u64 nanoseconds cannot hold is refused at
    // every level, quick or not, even where a more specific field would
    // override it — instead of clamping to 0 or to 584 years.
    let grid = |top: &str, scenario: &str| {
        format!(
            r#"{{ "caem_grid_spec": 1, "replicates": 2{top},
                 "scenarios": [ {{ "label": "a", "rate_pps": 5.0{scenario} }} ] }}"#
        )
    };
    let duration_error = |doc: String, quick: bool| {
        GridSpec::parse(&doc)
            .unwrap()
            .resolve(1, quick)
            .unwrap_err()
    };
    for (doc, quick, path, in_scenario) in [
        (
            grid(r#", "duration_s": 1e30"#, ""),
            false,
            "duration_s",
            false,
        ),
        (
            grid(r#", "duration_s": -1"#, ""),
            false,
            "duration_s",
            false,
        ),
        (
            grid(r#", "quick": { "duration_s": 1e30 }"#, ""),
            false,
            "quick.duration_s",
            false,
        ),
        (
            grid("", r#", "duration_s": 1e30"#),
            true,
            "duration_s",
            true,
        ),
        (
            grid("", r#", "duration_s": 20, "quick": { "duration_s": 2e10 }"#),
            true,
            "quick.duration_s",
            true,
        ),
    ] {
        let err = duration_error(doc, quick);
        let inner = match &err {
            ConfigError::InScenario { label, source } => {
                assert_eq!(label, "a");
                source.as_ref()
            }
            other => other,
        };
        assert_eq!(matches!(err, ConfigError::InScenario { .. }), in_scenario);
        assert!(
            matches!(inner, ConfigError::OutOfRange { path: p, .. } if p == path),
            "got {err:?}"
        );
    }
    // The largest duration that fits still resolves.
    assert!(GridSpec::parse(&grid(r#", "duration_s": 1.8e10"#, ""))
        .unwrap()
        .resolve(1, false)
        .is_ok());
    // A sequential cap below the initial batch can never be honoured.
    let err = GridSpec::parse(
        r#"{ "caem_grid_spec": 1, "replicates": 10,
             "sequential": { "metric": "delivery_rate", "target_half_width": 0.1,
                             "max_replicates": 4 },
             "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
    )
    .unwrap()
    .resolve(1, false)
    .unwrap_err();
    assert!(
        matches!(
            &err,
            ConfigError::OutOfRange { path, .. } if path == "sequential.max_replicates"
        ),
        "got {err:?}"
    );
}

#[test]
fn every_malformed_class_maps_to_a_distinct_variant() {
    // One representative per class: the discriminants must all differ, so a
    // test (or a tool) can dispatch on the class of mistake.
    let cases: Vec<ConfigError> = vec![
        GridSpec::parse(
            r#"{ "caem_grid_spec": 1, "replicates": 2, "mystery": 1,
                 "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
        )
        .unwrap_err(),
        GridSpec::parse(r#"{ "caem_grid_spec": 1, "replicates": 2 }"#).unwrap_err(),
        GridSpec::parse(
            r#"{ "caem_grid_spec": 1, "replicates": true,
                 "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
        )
        .unwrap_err(),
        GridSpec::parse(&wrap(
            r#"{ "label": "a", "rate_pps": 5.0, "topology": "ring" }"#,
        ))
        .unwrap_err(),
        GridSpec::parse(
            r#"{ "caem_grid_spec": 1, "replicates": 2, "seeds": [1],
                 "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
        )
        .unwrap_err(),
        GridSpec::parse(
            r#"{ "caem_grid_spec": 1, "seeds": [3, 3],
                 "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
        )
        .unwrap_err(),
        GridSpec::parse(r#"{ "caem_grid_spec": 1, "replicates": 2, "scenarios": [] }"#)
            .unwrap_err(),
        GridSpec::parse(
            r#"{ "caem_grid_spec": 7, "replicates": 2,
                 "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
        )
        .unwrap_err(),
        GridSpec::parse(
            r#"{ "caem_grid_spec": 1, "replicates": 0,
                 "scenarios": [ { "label": "a", "rate_pps": 5.0 } ] }"#,
        )
        .unwrap_err(),
        GridSpec::parse(&wrap(
            r#"{ "label": "bad", "rate_pps": 5.0, "energy_spread": 1.5 }"#,
        ))
        .unwrap()
        .resolve(1, false)
        .unwrap_err(),
    ];
    let discriminants: Vec<std::mem::Discriminant<ConfigError>> =
        cases.iter().map(std::mem::discriminant).collect();
    let mut unique = discriminants.clone();
    unique.sort_by_key(|d| format!("{d:?}"));
    unique.dedup();
    assert_eq!(
        unique.len(),
        discriminants.len(),
        "every malformed class must surface as its own variant: {cases:#?}"
    );
}
