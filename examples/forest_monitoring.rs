//! Environment-monitoring scenario: the "sensors scattered in a forest for
//! months" deployment the paper's introduction motivates.
//!
//! A larger, sparser field than the evaluation default (150 m × 150 m), a low
//! steady reporting rate, and a long horizon.  The example compares the three
//! protocols on the metric that matters for this deployment — how long the
//! network keeps observing — and shows the energy breakdown per protocol.
//!
//! ```bash
//! cargo run --release --example forest_monitoring
//! ```

use caem_suite::caem::policy::PolicyKind;
use caem_suite::channel::Field;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::{ExperimentSpec, ScenarioConfig, ScenarioSpec};

fn main() {
    let mut cfg = ScenarioConfig::paper_default(PolicyKind::PureLeach, 2.0, 7);
    cfg.field = Field::new(150.0, 150.0);
    cfg.node_count = 80;
    cfg.initial_energy_j = 5.0;
    cfg.duration = Duration::from_secs(1_200);
    // The three protocols on one seed: common random numbers.
    let spec = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("forest", cfg)], 7, 1);
    let runs: Vec<_> = spec.policies.iter().zip(spec.simulate()).collect();

    println!("== forest monitoring: 80 nodes, 150 m x 150 m, 2 pkt/s, 5 J batteries ==\n");
    println!(
        "{:<28} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "protocol", "alive@end", "delivered", "mJ/packet", "delay (ms)", "lifetime (s)"
    );
    for (policy, r) in &runs {
        println!(
            "{:<28} {:>12} {:>12} {:>14.3} {:>14.1} {:>12}",
            policy.to_string().chars().take(28).collect::<String>(),
            r.nodes_alive(),
            r.perf.delivered(),
            r.per_packet_energy()
                .millijoules_per_packet()
                .unwrap_or(f64::NAN),
            r.perf.average_delay_ms(),
            r.network_lifetime_secs(0.8)
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| "> horizon".into()),
        );
    }

    println!("\nenergy breakdown (joules, network-wide):");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "protocol", "data-tx", "data-rx", "startup", "tone", "sleep"
    );
    use caem_suite::energy::battery::EnergyCategory as Cat;
    for (policy, r) in &runs {
        let l = &r.ledger;
        println!(
            "{:<28} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            policy.to_string().chars().take(28).collect::<String>(),
            l.by_category(Cat::DataTransmit),
            l.by_category(Cat::DataReceive),
            l.by_category(Cat::Startup),
            l.by_category(Cat::ToneTransmit) + l.by_category(Cat::ToneReceive),
            l.by_category(Cat::Sleep),
        );
    }
}
