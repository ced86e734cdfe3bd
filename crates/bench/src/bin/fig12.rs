//! Figure 12: standard deviation of queue length versus traffic load
//! (short-term fairness).
//!
//! As in the paper, buffers are made "substantially large" (unbounded here)
//! so the queue-length spread is measured without drops; the metric is the
//! snapshot standard deviation averaged over the run.  The paper claims
//! that Scheme 1's adaptive threshold keeps the spread lowest, and that
//! Scheme 2's fixed threshold starves bad-channel nodes and shows the
//! largest spread.  This reproduction does not bear out the first claim:
//! over 8 paired seeds, Scheme 1's spread is significantly higher than
//! Scheme 2's at 25 packets/s.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin fig12
//! ```

use caem_bench::{apply_quick, emit, policy_label, FigureArgs};
use caem_metrics::report::{Column, Table};
use caem_simcore::time::Duration;
use caem_wsnsim::sweep::{load_sweep, PAPER_POLICIES};
use caem_wsnsim::ScenarioConfig;

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("fig12");
    let loads: Vec<f64> = if quick {
        vec![5.0, 15.0]
    } else {
        vec![5.0, 10.0, 15.0, 20.0, 25.0]
    };
    let horizon_s: u64 = if quick { 200 } else { 600 };

    let points = load_sweep(&loads, |policy, load| {
        apply_quick(ScenarioConfig::paper_default(policy, load, seed), quick)
            .with_unbounded_buffers()
            .with_duration(Duration::from_secs(horizon_s))
    });

    let mut columns = vec![Column::new("added_traffic_load_pps", loads.clone())];
    for &policy in &PAPER_POLICIES {
        let values: Vec<f64> = points
            .iter()
            .map(|p| p.comparison.get(policy).fairness.mean_std_dev())
            .collect();
        columns.push(Column::new(
            format!("{}_queue_stddev", policy_label(policy)),
            values,
        ));
    }
    let table = Table::new(
        "Fig. 12 — Standard deviation of queue length versus traffic load (unbounded buffers)",
        columns,
    );
    emit(&table);
}
