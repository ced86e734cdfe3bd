//! Figure 10: network lifetime versus added traffic load.
//!
//! The per-node Poisson rate is swept from 5 to 30 packets/s; network
//! lifetime is the time until 80 % of the nodes have exhausted their
//! batteries.  The paper claims that all curves fall with load, that
//! Scheme 2 lives longest, and that Scheme 1's advantage over pure LEACH
//! shrinks as saturation forces its threshold down to the lowest class.
//! This binary prints one seed and checks none of these claims; on at
//! least one seed Scheme 1 outlives Scheme 2 at 5 and 10 packets/s.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin fig10
//! ```

use caem_bench::{apply_quick, emit, policy_label, FigureArgs};
use caem_metrics::report::{Column, Table};
use caem_simcore::time::Duration;
use caem_wsnsim::sweep::{load_sweep, PAPER_POLICIES};
use caem_wsnsim::ScenarioConfig;

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("fig10");
    let loads: Vec<f64> = if quick {
        vec![5.0, 15.0]
    } else {
        vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    };
    let horizon_s: u64 = if quick { 300 } else { 2_500 };

    let points = load_sweep(&loads, |policy, load| {
        apply_quick(ScenarioConfig::paper_default(policy, load, seed), quick)
            .with_duration(Duration::from_secs(horizon_s))
    });

    let mut columns = vec![Column::new("added_traffic_load_pps", loads.clone())];
    for &policy in &PAPER_POLICIES {
        let values: Vec<f64> = points
            .iter()
            .map(|p| {
                p.comparison
                    .get(policy)
                    .network_lifetime_secs(0.8)
                    .unwrap_or(horizon_s as f64)
            })
            .collect();
        columns.push(Column::new(
            format!("{}_lifetime_s", policy_label(policy)),
            values,
        ));
    }
    let table = Table::new(
        "Fig. 10 — Network lifetime versus traffic load (lifetime = 80% of nodes dead; \
         values clamped to the simulated horizon when the network outlived it)",
        columns,
    );
    emit(&table);
}
