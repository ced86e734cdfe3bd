//! Battlefield-surveillance scenario: bursty, event-driven traffic.
//!
//! The paper motivates CAEM with surveillance deployments where "a smooth
//! gathered data flow from a particular observing sensor is also needed to
//! keep necessary real-time surveillance on the related area".  This example
//! uses the two-state bursty (MMPP) source — quiet background reporting with
//! intense bursts when an event is detected — and looks at the trade-off the
//! paper's conclusion highlights: Scheme 2 saves the most energy but starves
//! the very sensors whose bursts matter; Scheme 1 keeps the queue spread (and
//! hence the worst-case reporting delay) in check.
//!
//! ```bash
//! cargo run --release --example battlefield_surveillance
//! ```

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::config::TrafficModel;
use caem_suite::wsnsim::{ExperimentSpec, ScenarioConfig, ScenarioSpec};

fn main() {
    let mut cfg = ScenarioConfig::paper_default(PolicyKind::PureLeach, 5.0, 99);
    cfg.traffic = TrafficModel::Bursty {
        quiet_rate_pps: 1.0,
        burst_rate_pps: 40.0,
        mean_quiet_s: 18.0,
        mean_burst_s: 2.0,
    };
    cfg.duration = Duration::from_secs(400);
    // Surveillance data is delay-sensitive: keep the real (bounded) buffers
    // so overflow shows up as lost observations.  The three protocols run
    // on one seed: common random numbers.
    let spec = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("battlefield", cfg)], 99, 1);

    println!("== battlefield surveillance: bursty event traffic (MMPP), 100 nodes ==\n");
    println!(
        "{:<28} {:>12} {:>14} {:>14} {:>16} {:>14}",
        "protocol", "delivery", "p95 delay ms", "mJ/packet", "queue stddev", "dropped"
    );
    for (policy, r) in spec.policies.iter().zip(spec.simulate()) {
        let dropped = r.perf.dropped_overflow() + r.perf.dropped_abandoned();
        println!(
            "{:<28} {:>11.1}% {:>14.1} {:>14.3} {:>16.2} {:>14}",
            policy.to_string().chars().take(28).collect::<String>(),
            r.delivery_rate() * 100.0,
            r.perf.delay_quantile_ms(0.95).unwrap_or(f64::NAN),
            r.per_packet_energy()
                .millijoules_per_packet()
                .unwrap_or(f64::NAN),
            r.fairness.mean_std_dev(),
            dropped,
        );
    }

    println!(
        "\nreading: Scheme 1 should sit between pure LEACH (most energy per packet) and \
         Scheme 2 (lowest energy, but the largest queue spread / most starvation under bursts)."
    );
}
