//! Table I and Figs. 8–12 of the paper's evaluation, from one run of the
//! paper spec.
//!
//! `specs/paper.json` (compiled in as [`caem_bench::PAPER_SPEC`]) holds
//! every scenario the figures need; this binary resolves it pinned to one
//! seed, simulates all of it in one parallel fan-out and prints each
//! figure from its family of scenarios.  Loads, horizons and buffer
//! settings come from the spec alone.
//!
//! * **Table I**: the tone-channel pulse durations and intervals per
//!   data-channel state, regenerated from the implementation, and a check
//!   that a sensor classifying noisy observed intervals recovers the
//!   right state.
//! * **Fig. 8**: average remaining energy per sensor versus elapsed time,
//!   on the first (5 packets/s) scenario of the `energy_` family: 100
//!   nodes, 10 J initial energy, Poisson traffic, 0–600 s.
//! * **Fig. 9**: nodes alive versus elapsed time, on the first scenario of
//!   the `lifetime_` family, the Fig. 8 scenario run until the batteries
//!   are exhausted (≈1400 s in the paper).  The LEACH head rotation makes
//!   all curves drop abruptly near their exhaustion point; the CAEM
//!   schemes shift that point to the right.
//! * **Fig. 10**: network lifetime (80 % of the nodes dead) versus the
//!   per-node Poisson rate, over the `lifetime_` family.
//! * **Fig. 11**: average energy per delivered packet versus load, over
//!   the `energy_` family.  The paper plots pure LEACH against Scheme 1
//!   (Scheme 2 is noted as trivially the most efficient); this prints all
//!   three plus the relative saving of Scheme 1 over pure LEACH.
//! * **Fig. 12**: standard deviation of queue length versus load
//!   (short-term fairness), over the `fairness_` family.  As in the paper,
//!   buffers are made "substantially large" (unbounded here) so the spread
//!   is measured without drops; the metric is the snapshot standard
//!   deviation averaged over the run.
//!
//! What the reproduction shows, against the paper's claims (this binary
//! prints one seed and checks none of them):
//!
//! * Fig. 10: the paper claims that all curves fall with load, that
//!   Scheme 2 lives longest, and that Scheme 1's advantage over pure LEACH
//!   shrinks as saturation forces its threshold down to the lowest class.
//!   On at least one seed Scheme 1 outlives Scheme 2 at 5 and 10
//!   packets/s.
//! * Fig. 11: the paper claims a 30–40 % saving.  This reproduction
//!   measures less, and the saving falls with load: over 8 paired seeds of
//!   the 100-node, 600 s scenario it is about 22 % at 5 packets/s and
//!   about 10 % at 25 packets/s.
//! * Fig. 12: the paper claims that Scheme 1's adaptive threshold keeps
//!   the spread lowest, and that Scheme 2's fixed threshold starves
//!   bad-channel nodes and shows the largest spread.  The first claim is
//!   not borne out: over 8 paired seeds, Scheme 1's spread is
//!   significantly higher than Scheme 2's at 25 packets/s.
//!
//! `experiment --spec specs/paper.json` runs the same scenarios with
//! replicates and confidence intervals.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin paper
//! cargo run -p caem-bench --release --bin paper -- --quick   # 30-node smoke
//! ```

use caem_bench::{emit, paper_family, paper_grid, policy_label, FigureArgs};
use caem_mac::tone::{ChannelState, ToneSchedule};
use caem_metrics::report::{Column, Table};
use caem_simcore::rng::StreamRng;
use caem_simcore::time::{Duration, SimTime};
use caem_wsnsim::experiment::PAPER_POLICIES;
use caem_wsnsim::{ScenarioConfig, SimulationResult};

/// One scenario of a figure family with its runs, in [`PAPER_POLICIES`]
/// order: pure LEACH, Scheme 1, Scheme 2.
struct Point<'a> {
    config: &'a ScenarioConfig,
    runs: &'a [SimulationResult; 3],
}

impl Point<'_> {
    fn load_pps(&self) -> f64 {
        self.config.traffic.mean_rate_pps()
    }

    fn horizon_s(&self) -> f64 {
        self.config.duration.as_secs_f64()
    }
}

fn main() {
    let FigureArgs { seed, quick } = FigureArgs::from_env_or_exit("paper");
    table1(seed);

    let spec = paper_grid(seed, quick);
    assert_eq!(
        spec.policies, PAPER_POLICIES,
        "the paper's figures compare its three protocols"
    );
    let results = spec.simulate();
    let family = |prefix| -> Vec<Point> {
        paper_family(&spec, prefix)
            .into_iter()
            .map(|s| Point {
                config: &spec.scenarios[s].base,
                runs: results[3 * s..3 * s + 3].try_into().expect("three runs"),
            })
            .collect()
    };
    let energy = family("energy_");
    let lifetime = family("lifetime_");

    fig8(&energy[0], if quick { 10.0 } else { 50.0 });
    fig9(&lifetime[0], if quick { 20.0 } else { 100.0 });
    emit(&Table::new(
        "Fig. 10 — Network lifetime versus traffic load (lifetime = 80% of nodes dead; \
         values clamped to the simulated horizon when the network outlived it)",
        versus_load(&lifetime, "lifetime_s", |point, run| {
            run.network_lifetime_secs(0.8).unwrap_or(point.horizon_s())
        }),
    ));
    fig11(&energy);
    emit(&Table::new(
        "Fig. 12 — Standard deviation of queue length versus traffic load (unbounded buffers)",
        versus_load(&family("fairness_"), "queue_stddev", |_, run| {
            run.fairness.mean_std_dev()
        }),
    ));
}

/// Table I, plus the decoding check: classify intervals observed with
/// ±15 % jitter.
fn table1(seed: u64) {
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

    let mut rng = StreamRng::from_seed_u64(seed);
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

/// An `axis` column, then one `<protocol>_<suffix>` column per protocol:
/// `column(p)` for the protocol at index `p` of [`PAPER_POLICIES`].
fn per_protocol(
    (name, axis): (&str, Vec<f64>),
    suffix: &str,
    column: impl Fn(usize) -> Vec<f64>,
) -> Vec<Column> {
    let mut columns = vec![Column::new(name, axis)];
    for (p, &policy) in PAPER_POLICIES.iter().enumerate() {
        columns.push(Column::new(
            format!("{}_{suffix}", policy_label(policy)),
            column(p),
        ));
    }
    columns
}

/// A table against load: `metric` of each protocol's run at every point
/// of a family.
fn versus_load(
    points: &[Point],
    suffix: &str,
    metric: impl Fn(&Point, &SimulationResult) -> f64,
) -> Vec<Column> {
    let loads = points.iter().map(Point::load_pps).collect();
    per_protocol(("added_traffic_load_pps", loads), suffix, |p| {
        points
            .iter()
            .map(|point| metric(point, &point.runs[p]))
            .collect()
    })
}

/// A table against time: `metric` of each protocol's run at `0, step,
/// 2·step, …` up to and including the point's horizon.
fn versus_time(
    point: &Point,
    step: f64,
    suffix: &str,
    metric: impl Fn(&SimulationResult, f64) -> f64,
) -> Vec<Column> {
    let horizon = point.horizon_s();
    let times: Vec<f64> =
        std::iter::successors(Some(0.0), |t| (*t + step <= horizon).then(|| t + step)).collect();
    per_protocol(("elapsed_time_s", times.clone()), suffix, |p| {
        times.iter().map(|&t| metric(&point.runs[p], t)).collect()
    })
}

/// The title of a figure against time on `point`'s scenario.
fn time_title(figure: &str, point: &Point) -> String {
    format!(
        "{figure} versus time ({} J initial, {} pkt/s)",
        point.config.initial_energy_j,
        point.load_pps()
    )
}

fn fig8(point: &Point, step: f64) {
    emit(&Table::new(
        time_title("Fig. 8 — Average remaining power", point),
        versus_time(point, step, "avg_remaining_J", |run, t| {
            run.energy.average_at(t).unwrap_or(0.0)
        }),
    ));
    // Headline: the energy each protocol retains at the end of the horizon.
    let [leach, scheme1, scheme2] = point
        .runs
        .each_ref()
        .map(|run| run.energy.average_at(point.horizon_s()).unwrap_or(0.0));
    println!(
        "final average remaining energy: pure LEACH {leach:.2} J, Scheme 1 {scheme1:.2} J, \
         Scheme 2 {scheme2:.2} J"
    );
}

fn fig9(point: &Point, step: f64) {
    emit(&Table::new(
        time_title("Fig. 9 — Number of nodes alive", point),
        versus_time(point, step, "nodes_alive", |run, t| {
            run.lifetime.alive_at(SimTime::from_secs_f64(t)) as f64
        }),
    ));
    for (&policy, run) in PAPER_POLICIES.iter().zip(point.runs) {
        println!(
            "{}: first death {:?} s, network lifetime (80% dead) {:?} s",
            policy_label(policy),
            run.lifetime.first_death().map(|t| t.as_secs_f64()),
            run.network_lifetime_secs(0.8)
        );
    }
}

fn fig11(points: &[Point]) {
    let mut columns = versus_load(points, "mJ_per_packet", |_, run| {
        run.per_packet_energy()
            .millijoules_per_packet()
            .unwrap_or(f64::NAN)
    });
    let savings = points
        .iter()
        .map(|point| {
            let [leach, scheme1, _] = point.runs;
            scheme1
                .per_packet_energy()
                .saving_vs(&leach.per_packet_energy())
                .map(|s| s * 100.0)
                .unwrap_or(f64::NAN)
        })
        .collect();
    columns.push(Column::new("scheme1_saving_vs_leach_percent", savings));
    emit(&Table::new(
        "Fig. 11 — Average energy consumed per delivered packet versus traffic load",
        columns,
    ));
}
