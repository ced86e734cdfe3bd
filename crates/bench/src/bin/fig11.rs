//! Figure 11: average energy consumed per successfully delivered packet
//! versus traffic load.
//!
//! The paper plots pure LEACH against CAEM-LEACH Scheme 1 (Scheme 2 is noted
//! as trivially the most efficient); we report all three plus the relative
//! saving of Scheme 1 over pure LEACH.  The paper claims a 30–40 % saving.
//! This reproduction measures less, and the saving falls with load: over
//! 8 paired seeds of the 100-node, 600 s paper scenario it is about 22 % at
//! 5 packets/s and about 10 % at 25 packets/s.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin fig11
//! ```

use caem::policy::PolicyKind;
use caem_bench::{emit, load_grid, policy_label, FigureArgs};
use caem_metrics::report::{Column, Table};
use caem_simcore::time::Duration;
use caem_wsnsim::experiment::PAPER_POLICIES;

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("fig11");
    let loads: Vec<f64> = if quick {
        vec![5.0, 15.0]
    } else {
        vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    };
    let horizon_s: u64 = if quick { 200 } else { 600 };

    let results = load_grid(&loads, seed, quick, |c| {
        c.with_duration(Duration::from_secs(horizon_s))
    })
    .simulate();
    let at_loads = || results.chunks(PAPER_POLICIES.len());
    let index_of = |policy| PAPER_POLICIES.iter().position(|&p| p == policy).unwrap();

    let mut columns = vec![Column::new("added_traffic_load_pps", loads.clone())];
    for (p, &policy) in PAPER_POLICIES.iter().enumerate() {
        let values: Vec<f64> = at_loads()
            .map(|at_load| {
                at_load[p]
                    .per_packet_energy()
                    .millijoules_per_packet()
                    .unwrap_or(f64::NAN)
            })
            .collect();
        columns.push(Column::new(
            format!("{}_mJ_per_packet", policy_label(policy)),
            values,
        ));
    }
    let savings: Vec<f64> = at_loads()
        .map(|at_load| {
            let s1 = at_load[index_of(PolicyKind::Scheme1Adaptive)].per_packet_energy();
            let leach = at_load[index_of(PolicyKind::PureLeach)].per_packet_energy();
            s1.saving_vs(&leach).map(|s| s * 100.0).unwrap_or(f64::NAN)
        })
        .collect();
    columns.push(Column::new("scheme1_saving_vs_leach_percent", savings));

    let table = Table::new(
        "Fig. 11 — Average energy consumed per delivered packet versus traffic load",
        columns,
    );
    emit(&table);
}
