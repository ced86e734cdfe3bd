//! Using the CAEM policy API directly, plus a small tuning sweep of the
//! Scheme 1 parameters (K and Q_threshold).
//!
//! The first half drives a Scheme 1 [`Policy`] by hand to show the threshold
//! trajectory the Fig. 6 pseudo-code produces; the second half runs
//! short simulations over a (K, Q_threshold) grid to show how the paper's
//! choice (K = 5, Q = 15) trades energy against delay.
//!
//! ```bash
//! cargo run --release --example threshold_tuning
//! ```

use caem_suite::caem::config::CaemConfig;
use caem_suite::caem::policy::{Policy, PolicyKind};
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::{ScenarioConfig, SimulationRun};

fn main() {
    // --- Part 1: the threshold trajectory on a synthetic queue trace -------
    let config = CaemConfig::paper_default();
    let mut policy = Policy::new(PolicyKind::Scheme1Adaptive, &config);
    println!("== threshold trajectory for a growing-then-draining queue ==");
    println!("{:<10} {:>12} {:>22}", "arrival", "queue len", "threshold");
    let mut queue = 0usize;
    for arrival in 1..=40 {
        // Queue grows by one per arrival for 30 arrivals, then drains fast.
        if arrival <= 30 {
            queue += 1;
        } else {
            queue = queue.saturating_sub(6);
        }
        policy.on_packet_arrival(&config, queue);
        if arrival % 5 == 0 {
            println!(
                "{:<10} {:>12} {:>22}",
                arrival,
                queue,
                policy
                    .current_threshold(&config)
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "none".into())
            );
        }
    }
    policy.on_packets_sent(&config, 2);
    println!(
        "after the burst drains the queue: threshold back to {}",
        policy.current_threshold(&config).unwrap()
    );

    // --- Part 2: (K, Q_threshold) tuning grid ------------------------------
    println!("\n== Scheme 1 tuning grid (30 nodes, 5 pkt/s, 150 s) ==");
    println!(
        "{:<8} {:<14} {:>14} {:>14} {:>14}",
        "K", "Q_threshold", "mJ/packet", "delivery", "delay ms"
    );
    for k in [1u32, 5, 10] {
        for q in [5usize, 15, 30] {
            let mut cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 5.0, 11)
                .with_duration(Duration::from_secs(150));
            cfg.node_count = 30;
            cfg.caem = CaemConfig {
                sampling_interval_packets: k,
                queue_threshold: q,
                ..CaemConfig::paper_default()
            };
            let r = SimulationRun::new(cfg).run();
            println!(
                "{:<8} {:<14} {:>14.3} {:>13.1}% {:>14.1}",
                k,
                q,
                r.per_packet_energy()
                    .millijoules_per_packet()
                    .unwrap_or(f64::NAN),
                r.delivery_rate() * 100.0,
                r.perf.average_delay_ms()
            );
        }
    }
    println!("\npaper setting: K = 5, Q_threshold = 15.");
}
