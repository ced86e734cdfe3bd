//! Figure 8: average remaining energy per sensor versus elapsed time.
//!
//! Scenario (paper): 100 nodes, 10 J initial energy, Poisson traffic at
//! 5 packets/s per node, 0–600 s, three protocols (pure LEACH, CAEM-LEACH
//! Scheme 1, CAEM-LEACH Scheme 2).
//!
//! ```bash
//! cargo run -p caem-bench --release --bin fig8
//! ```

use caem_bench::{emit, load_grid, policy_label, FigureArgs};
use caem_metrics::report::{Column, Table};
use caem_wsnsim::experiment::PAPER_POLICIES;

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("fig8");
    // One load, so one result per protocol in `PAPER_POLICIES` order.
    let results = load_grid(&[5.0], seed, quick, |c| c).simulate();

    let horizon = if quick { 120.0 } else { 600.0 };
    let step = if quick { 10.0 } else { 50.0 };
    let times: Vec<f64> =
        std::iter::successors(Some(0.0), |t| (*t + step <= horizon).then(|| t + step)).collect();

    let mut columns = vec![Column::new("elapsed_time_s", times.clone())];
    for (&policy, result) in PAPER_POLICIES.iter().zip(&results) {
        let values: Vec<f64> = times
            .iter()
            .map(|&t| result.energy.average_at(t).unwrap_or(0.0))
            .collect();
        columns.push(Column::new(
            format!("{}_avg_remaining_J", policy_label(policy)),
            values,
        ));
    }
    let table = Table::new(
        "Fig. 8 — Average remaining power versus time (10 J initial, 5 pkt/s)",
        columns,
    );
    emit(&table);

    // Headline check: at the end of the horizon the CAEM schemes must retain
    // more energy than pure LEACH, Scheme 2 the most.
    let final_remaining: Vec<f64> = results
        .iter()
        .map(|r| r.energy.average_at(horizon).unwrap_or(0.0))
        .collect();
    println!(
        "final average remaining energy: pure LEACH {:.2} J, Scheme 1 {:.2} J, Scheme 2 {:.2} J",
        final_remaining[0], final_remaining[1], final_remaining[2]
    );
}
