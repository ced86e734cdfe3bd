//! Ablations of the model's design choices (README section *Regenerating the
//! paper's figures* lists this binary next to `paper`).
//!
//! Each ablation runs CAEM-LEACH Scheme 1 on the Fig. 8 scenario with one
//! knob changed and reports per-packet energy, delivery rate and mean delay,
//! so the sensitivity of the paper's conclusions to its parameter choices is
//! visible:
//!
//! * ΔV sampling period `K` (paper: 5)
//! * queue activation threshold `Q_threshold` (paper: 15)
//! * threshold step size (paper: one class)
//! * maximum burst size (paper: 8)
//! * shadowing standard deviation (how much channel variation CAEM needs)
//! * FEC codec energy accounting (the paper neglects it)
//!
//! ```bash
//! cargo run -p caem-bench --release --bin ablation
//! ```

use caem::policy::PolicyKind;
use caem_bench::FigureArgs;
use caem_energy::codec::CodecEnergyModel;
use caem_mac::burst::BurstPolicy;
use caem_simcore::time::Duration;
use caem_wsnsim::experiment::{ExperimentSpec, ScenarioSpec};
use caem_wsnsim::ScenarioConfig;

struct Ablation {
    label: &'static str,
    configure: Box<dyn Fn(ScenarioConfig) -> ScenarioConfig + Sync + Send>,
}

/// The Fig. 8 scenario at 400 s; `--quick` shrinks it to 30 nodes and
/// 120 s.
fn base_config(seed: u64, quick: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default(PolicyKind::Scheme1Adaptive, 5.0, seed);
    if quick {
        config.node_count = 30;
    }
    config.with_duration(Duration::from_secs(if quick { 120 } else { 400 }))
}

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("ablation");

    let ablations: Vec<Ablation> = vec![
        Ablation {
            label: "baseline (paper parameters)",
            configure: Box::new(|c| c),
        },
        Ablation {
            label: "K = 1 (sample every arrival)",
            configure: Box::new(|mut c| {
                c.caem.sampling_interval_packets = 1;
                c
            }),
        },
        Ablation {
            label: "K = 20 (sluggish predictor)",
            configure: Box::new(|mut c| {
                c.caem.sampling_interval_packets = 20;
                c
            }),
        },
        Ablation {
            label: "Q_threshold = 5 (eager relaxation)",
            configure: Box::new(|mut c| {
                c.caem.queue_threshold = 5;
                c
            }),
        },
        Ablation {
            label: "Q_threshold = 40 (near buffer capacity)",
            configure: Box::new(|mut c| {
                c.caem.queue_threshold = 40;
                c
            }),
        },
        Ablation {
            label: "two-class threshold steps",
            configure: Box::new(|mut c| {
                c.caem.lower_step_classes = 2;
                c
            }),
        },
        Ablation {
            label: "burst cap 16 (less fairness, fewer startups)",
            configure: Box::new(|mut c| {
                c.burst = BurstPolicy::new(3, 16);
                c
            }),
        },
        Ablation {
            label: "burst cap 4 (more startups)",
            configure: Box::new(|mut c| {
                c.burst = BurstPolicy::new(3, 4);
                c
            }),
        },
        Ablation {
            label: "no shadowing (fading only)",
            configure: Box::new(|mut c| {
                c.shadowing = caem_channel::shadowing::ShadowingConfig::disabled();
                c
            }),
        },
        Ablation {
            label: "strong shadowing (sigma 10 dB)",
            configure: Box::new(|mut c| {
                c.shadowing.sigma_db = 10.0;
                c
            }),
        },
        Ablation {
            label: "codec energy modelled (realistic, non-zero)",
            configure: Box::new(|mut c| {
                c.codec = CodecEnergyModel::realistic();
                c
            }),
        },
    ];

    // Every variant is one scenario of a Scheme 1, one-seed grid: one
    // result per variant, in order.
    let spec = ExperimentSpec {
        scenarios: ablations
            .iter()
            .map(|a| ScenarioSpec::new(a.label, (a.configure)(base_config(seed, quick))))
            .collect(),
        policies: vec![PolicyKind::Scheme1Adaptive],
        seeds: vec![seed],
    };
    let rows: Vec<(String, f64, f64, f64)> = ablations
        .iter()
        .zip(spec.simulate())
        .map(|(a, result)| {
            (
                a.label.to_string(),
                result
                    .per_packet_energy()
                    .millijoules_per_packet()
                    .unwrap_or(f64::NAN),
                result.delivery_rate(),
                result.perf.average_delay_ms(),
            )
        })
        .collect();

    println!("== E8 — Scheme 1 ablations (5 pkt/s, seed {seed}) ==");
    println!(
        "{:<48} {:>14} {:>14} {:>14}",
        "variant", "mJ/packet", "delivery rate", "mean delay ms"
    );
    for (label, ppe, delivery, delay) in &rows {
        println!("{label:<48} {ppe:>14.3} {delivery:>14.3} {delay:>14.1}");
    }
}
