//! Figure 9: number of sensor nodes alive versus elapsed time.
//!
//! Same scenario as Fig. 8 but run until the batteries are exhausted
//! (≈1400 s in the paper).  The LEACH head rotation makes all curves drop
//! abruptly near their exhaustion point; the CAEM schemes shift that point to
//! the right.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin fig9
//! ```

use caem_bench::{emit, load_grid, policy_label, FigureArgs};
use caem_metrics::report::{Column, Table};
use caem_simcore::time::Duration;
use caem_wsnsim::experiment::PAPER_POLICIES;

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("fig9");
    let horizon_s: u64 = if quick { 300 } else { 2_500 };
    // One load, so one result per protocol in `PAPER_POLICIES` order.
    let results = load_grid(&[5.0], seed, quick, |c| {
        c.with_duration(Duration::from_secs(horizon_s))
    })
    .simulate();

    let step = if quick { 20.0 } else { 100.0 };
    let times: Vec<f64> = std::iter::successors(Some(0.0), |t| {
        (*t + step <= horizon_s as f64).then(|| t + step)
    })
    .collect();

    let mut columns = vec![Column::new("elapsed_time_s", times.clone())];
    for (&policy, result) in PAPER_POLICIES.iter().zip(&results) {
        let values: Vec<f64> = times
            .iter()
            .map(|&t| {
                result
                    .lifetime
                    .alive_at(caem_simcore::time::SimTime::from_secs_f64(t)) as f64
            })
            .collect();
        columns.push(Column::new(
            format!("{}_nodes_alive", policy_label(policy)),
            values,
        ));
    }
    let table = Table::new(
        "Fig. 9 — Number of nodes alive versus time (10 J initial, 5 pkt/s)",
        columns,
    );
    emit(&table);

    for (&policy, result) in PAPER_POLICIES.iter().zip(&results) {
        let lifetime = result.network_lifetime_secs(0.8);
        let first = result.lifetime.first_death().map(|t| t.as_secs_f64());
        println!(
            "{}: first death {:?} s, network lifetime (80% dead) {:?} s",
            policy_label(policy),
            first,
            lifetime
        );
    }
}
