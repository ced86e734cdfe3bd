//! Table I: tone-channel pulse parameters and their decodability.
//!
//! Regenerates the paper's Table I (pulse durations and intervals per data-
//! channel state) from the implementation, and verifies that a sensor
//! classifying noisy observed intervals recovers the right state.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin table1
//! ```

use caem_mac::tone::{ChannelState, ToneSchedule};
use caem_simcore::rng::StreamRng;
use caem_simcore::time::Duration;

fn main() {
    // Table I has no scenario to shape: any argument is a mistake.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument `{arg}`\nusage: table1");
        std::process::exit(2);
    }
    let schedule = ToneSchedule::paper_default();
    println!("== Table I — tone-channel pulse parameters ==");
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "state", "pulse (ms)", "interval (ms)", "repeating", "duty cycle"
    );
    for state in ChannelState::ALL {
        let p = schedule.pulse_for(state);
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>12} {:>11.1}%",
            format!("{state:?}"),
            p.duration.as_millis_f64(),
            p.interval.as_millis_f64(),
            p.repeating,
            schedule.duty_cycle(state) * 100.0
        );
    }

    // Decoding robustness: classify intervals observed with ±15 % jitter.
    let mut rng = StreamRng::from_seed_u64(caem_bench::DEFAULT_SEED);
    let trials = 10_000;
    let mut correct = 0u64;
    for _ in 0..trials {
        let state = ChannelState::ALL[rng.uniform_u64(4) as usize];
        let nominal = schedule.pulse_for(state).interval.as_secs_f64();
        let observed = nominal * rng.uniform(0.85, 1.15);
        if schedule.classify_interval(Duration::from_secs_f64(observed), 0.25) == Some(state) {
            correct += 1;
        }
    }
    println!(
        "\ninterval classification under ±15% timing jitter: {:.2}% correct ({trials} trials)",
        correct as f64 / trials as f64 * 100.0
    );
}
