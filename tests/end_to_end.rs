//! Workspace-level integration tests: the whole stack (channel → PHY → MAC →
//! LEACH → CAEM → metrics) exercised through the public simulator API.

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::PAPER_POLICIES;
use caem_suite::wsnsim::{ExperimentSpec, ScenarioConfig, ScenarioSpec, SimulationRun};

fn run_small(
    policy: PolicyKind,
    rate: f64,
    seed: u64,
    secs: u64,
) -> caem_suite::wsnsim::SimulationResult {
    SimulationRun::new(
        ScenarioConfig::small(policy, rate, seed).with_duration(Duration::from_secs(secs)),
    )
    .run()
}

#[test]
fn all_protocols_complete_and_deliver() {
    for policy in PAPER_POLICIES {
        let r = run_small(policy, 5.0, 1, 40);
        assert!(r.perf.generated() > 500, "{policy:?} generated too little");
        assert!(r.perf.delivered() > 0, "{policy:?} delivered nothing");
        assert!(r.delivery_rate() <= 1.0);
        assert!(r.bursts > 0);
        assert_eq!(r.nodes.len(), 20);
    }
}

#[test]
fn energy_accounting_is_conservative() {
    // Energy drawn from batteries == energy attributed in the ledger, and no
    // node ever reports negative remaining energy.
    for policy in PAPER_POLICIES {
        let r = run_small(policy, 5.0, 3, 40);
        let drawn: f64 = r.nodes.iter().map(|n| 10.0 - n.remaining_energy_j).sum();
        assert!(
            (r.ledger.total() - drawn).abs() < 1e-6,
            "{policy:?} ledger {} vs battery drawdown {drawn}",
            r.ledger.total()
        );
        assert!(r.nodes.iter().all(|n| n.remaining_energy_j >= 0.0));
    }
}

#[test]
fn identical_seeds_reproduce_identical_results() {
    let a = run_small(PolicyKind::Scheme2Fixed, 5.0, 77, 30);
    let b = run_small(PolicyKind::Scheme2Fixed, 5.0, 77, 30);
    assert_eq!(a.perf.generated(), b.perf.generated());
    assert_eq!(a.perf.delivered(), b.perf.delivered());
    assert_eq!(a.collisions, b.collisions);
    assert!((a.ledger.total() - b.ledger.total()).abs() < 1e-12);
    assert_eq!(
        a.energy.series().samples().len(),
        b.energy.series().samples().len()
    );
}

#[test]
fn paper_orderings_hold_on_a_medium_network() {
    // The qualitative claims of the evaluation, checked end to end on a
    // 40-node network: CAEM schemes beat pure LEACH on per-packet energy, and
    // Scheme 1 is at least as fair (queue spread) as Scheme 2.
    let mut cfg = ScenarioConfig::paper_default(PolicyKind::PureLeach, 5.0, 2024);
    cfg.node_count = 40;
    cfg.duration = Duration::from_secs(200);
    let spec = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("medium", cfg)], 2024, 1);
    let results = spec.simulate();
    let [leach, s1, s2] = &results[..] else {
        panic!("one result per paper policy");
    };
    assert_eq!([leach.policy, s1.policy, s2.policy], PAPER_POLICIES);

    let e_leach = leach.per_packet_energy().joules_per_packet().unwrap();
    let e_s1 = s1.per_packet_energy().joules_per_packet().unwrap();
    let e_s2 = s2.per_packet_energy().joules_per_packet().unwrap();
    assert!(
        e_s1 < e_leach,
        "Scheme 1 ({e_s1}) must beat pure LEACH ({e_leach})"
    );
    assert!(
        e_s2 < e_leach,
        "Scheme 2 ({e_s2}) must beat pure LEACH ({e_leach})"
    );

    // Remaining energy ordering (Fig. 8): CAEM schemes retain more.
    let rem = |r: &caem_suite::wsnsim::SimulationResult| {
        r.energy.series().last().map(|(_, v)| v).unwrap()
    };
    assert!(rem(s1) > rem(leach));
    assert!(rem(s2) > rem(leach));

    // Fairness (Fig. 12): Scheme 1's queue spread is no worse than Scheme 2's.
    assert!(s1.fairness.mean_std_dev() <= s2.fairness.mean_std_dev() * 1.05);
}

#[test]
fn dead_network_stops_consuming() {
    // Tiny batteries: everything dies quickly, and after death the remaining
    // energy and the alive count are stable.
    let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 20.0, 9);
    cfg.initial_energy_j = 0.3;
    cfg.duration = Duration::from_secs(120);
    let r = SimulationRun::new(cfg).run();
    assert_eq!(
        r.nodes_alive(),
        0,
        "0.3 J at 20 pkt/s must exhaust every node"
    );
    assert!(r.network_lifetime_secs(0.8).is_some());
    let last = r.energy.series().last().unwrap().1;
    assert!(
        last < 0.05,
        "average remaining energy should be ~0, got {last}"
    );
}

#[test]
fn unbounded_buffers_never_drop() {
    let cfg = ScenarioConfig::small(PolicyKind::Scheme2Fixed, 10.0, 13)
        .with_duration(Duration::from_secs(60))
        .with_unbounded_buffers();
    let r = SimulationRun::new(cfg).run();
    assert_eq!(r.perf.dropped_overflow(), 0);
    // Scheme 2 with unbounded buffers builds real queue spread — the Fig. 12
    // measurement is meaningful.
    assert!(r.fairness.snapshots() > 10);
}

#[test]
fn higher_load_consumes_more_energy() {
    let low = run_small(PolicyKind::PureLeach, 2.0, 21, 60);
    let high = run_small(PolicyKind::PureLeach, 20.0, 21, 60);
    assert!(high.ledger.total() > low.ledger.total());
    assert!(high.perf.generated() > low.perf.generated() * 5);
}
