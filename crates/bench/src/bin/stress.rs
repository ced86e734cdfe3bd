//! Stress/soak harness for large-scale runs.
//!
//! Steps one big simulation tick by tick through `SimulationRun::run_until`,
//! printing per-tick progress (events, events/sec, live nodes, pending
//! events, resident memory) and asserting the soak's health envelope at the
//! end: a peak-RSS ceiling and an events/sec floor.  Scenario shape (node
//! count, duration, churn, traffic) comes from a JSON spec file and/or
//! flags; flags override the spec.
//!
//! ```bash
//! cargo run -p caem-bench --release --bin stress -- --spec specs/stress_soak.json
//! cargo run -p caem-bench --release --bin stress -- --nodes 100000 --duration-s 10
//! ```
//!
//! Exit codes: `0` healthy, `2` bad command line or spec, `3` envelope
//! violated (RSS ceiling or events/sec floor).

use std::time::Instant;

use caem::policy::PolicyKind;
use caem_bench::cli::{option, ParsedArgs};
use caem_bench::{profrpt, rss, DEFAULT_SEED};
use caem_metrics::prof::{self, ProfKey, Profile};
use caem_simcore::time::{Duration, SimTime};
use caem_wsnsim::{ScenarioConfig, SimulationRun};

const USAGE: &str = "usage: stress [--spec FILE] [--nodes N] [--duration-s S] \
[--traffic-pps R] [--churn-mttf-s S] [--tick-s S] [--max-rss-mb MB] \
[--min-events-per-sec N] [--policy leach|scheme1|scheme2] [--seed N]";

/// The soak envelope: what to run and what to assert about it.
struct StressSpec {
    nodes: usize,
    duration_s: f64,
    traffic_pps: f64,
    churn_mttf_s: Option<f64>,
    tick_s: f64,
    max_rss_mb: Option<f64>,
    min_events_per_sec: Option<f64>,
    policy: PolicyKind,
    seed: u64,
}

impl Default for StressSpec {
    fn default() -> Self {
        StressSpec {
            nodes: 50_000,
            duration_s: 10.0,
            traffic_pps: 1.0,
            churn_mttf_s: None,
            tick_s: 2.0,
            max_rss_mb: None,
            min_events_per_sec: None,
            policy: PolicyKind::Scheme1Adaptive,
            seed: DEFAULT_SEED,
        }
    }
}

fn exit2(message: String) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_policy(text: &str) -> Result<PolicyKind, String> {
    match text {
        "leach" | "pure_leach" => Ok(PolicyKind::PureLeach),
        "scheme1" | "adaptive" => Ok(PolicyKind::Scheme1Adaptive),
        "scheme2" | "fixed" => Ok(PolicyKind::Scheme2Fixed),
        other => Err(format!(
            "unknown policy `{other}` (takes leach, scheme1 or scheme2)"
        )),
    }
}

/// Fold a JSON spec document into the defaults.  Unknown keys are errors —
/// a misspelled envelope key must not silently weaken the soak.
fn apply_spec_file(spec: &mut StressSpec, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let serde_json::Value::Map(entries) = doc else {
        return Err(format!("{path}: spec must be a JSON object"));
    };
    for (key, value) in &entries {
        let field = format!("{path}: `{key}`");
        let number = |what: &str| {
            value
                .as_f64()
                .ok_or_else(|| format!("{field} takes {what}"))
        };
        match key.as_str() {
            "nodes" => {
                spec.nodes = value
                    .as_u64()
                    .ok_or_else(|| format!("{field} takes a node count"))?
                    as usize
            }
            "duration_s" => spec.duration_s = number("seconds")?,
            "traffic_pps" => spec.traffic_pps = number("packets/sec")?,
            "churn_mttf_s" => {
                spec.churn_mttf_s = if matches!(value, serde_json::Value::Null) {
                    None
                } else {
                    Some(number("seconds or null")?)
                }
            }
            "tick_s" => spec.tick_s = number("seconds")?,
            "max_rss_mb" => spec.max_rss_mb = Some(number("MiB")?),
            "min_events_per_sec" => spec.min_events_per_sec = Some(number("events/sec")?),
            "policy" => {
                let serde_json::Value::Str(text) = value else {
                    return Err(format!("{field} takes a policy name"));
                };
                spec.policy = parse_policy(text).map_err(|e| format!("{path}: {e}"))?;
            }
            "seed" => {
                spec.seed = value
                    .as_u64()
                    .ok_or_else(|| format!("{field} takes an unsigned integer"))?
            }
            other => return Err(format!("{path}: unknown spec key `{other}`")),
        }
    }
    Ok(())
}

fn flags_spec() -> Result<StressSpec, String> {
    let vocabulary = [
        option("--spec"),
        option("--nodes"),
        option("--duration-s"),
        option("--traffic-pps"),
        option("--churn-mttf-s"),
        option("--tick-s"),
        option("--max-rss-mb"),
        option("--min-events-per-sec"),
        option("--policy"),
        option("--seed"),
    ];
    let parsed =
        ParsedArgs::lex(std::env::args().skip(1), &vocabulary).map_err(|e| e.to_string())?;
    if let Some(extra) = parsed.positionals.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let mut spec = StressSpec::default();
    if let Some(path) = parsed.value("--spec") {
        apply_spec_file(&mut spec, path)?;
    }
    let number = |name: &'static str| -> Result<Option<f64>, String> {
        parsed
            .parsed::<f64>(name, "a number")
            .map_err(|e| e.to_string())
    };
    if let Some(n) = parsed
        .parsed::<usize>("--nodes", "a node count")
        .map_err(|e| e.to_string())?
    {
        spec.nodes = n;
    }
    if let Some(v) = number("--duration-s")? {
        spec.duration_s = v;
    }
    if let Some(v) = number("--traffic-pps")? {
        spec.traffic_pps = v;
    }
    if let Some(v) = number("--churn-mttf-s")? {
        spec.churn_mttf_s = Some(v);
    }
    if let Some(v) = number("--tick-s")? {
        spec.tick_s = v;
    }
    if let Some(v) = number("--max-rss-mb")? {
        spec.max_rss_mb = Some(v);
    }
    if let Some(v) = number("--min-events-per-sec")? {
        spec.min_events_per_sec = Some(v);
    }
    if let Some(text) = parsed.value("--policy") {
        spec.policy = parse_policy(text)?;
    }
    if let Some(seed) = parsed
        .parsed::<u64>("--seed", "an unsigned integer")
        .map_err(|e| e.to_string())?
    {
        spec.seed = seed;
    }
    if spec.nodes == 0 {
        return Err("nodes must be positive".to_string());
    }
    if !spec.duration_s.is_finite() || spec.duration_s <= 0.0 {
        return Err("duration_s must be positive".to_string());
    }
    if !spec.tick_s.is_finite() || spec.tick_s <= 0.0 {
        return Err("tick_s must be positive".to_string());
    }
    Ok(spec)
}

fn main() {
    let spec = flags_spec().unwrap_or_else(|e| exit2(e));
    // The soak always profiles: the per-tick time-share columns are how a
    // degrading subsystem is spotted mid-run, and when the envelope check
    // fails at the end the dominant subsystem is named in the violation.
    prof::set_enabled(true);

    let mut cfg = ScenarioConfig::scaled(spec.nodes, spec.policy, spec.traffic_pps, spec.seed)
        .with_duration(Duration::from_millis((spec.duration_s * 1000.0) as u64));
    if let Some(mttf) = spec.churn_mttf_s {
        cfg = cfg.with_churn_mttf_s(mttf);
    }

    println!(
        "== stress: {} nodes, {:.1} sim-s horizon, {:.2} pkt/s/node, churn mttf {} ==",
        spec.nodes,
        spec.duration_s,
        spec.traffic_pps,
        spec.churn_mttf_s
            .map(|s| format!("{s:.0} s"))
            .unwrap_or_else(|| "off".to_string()),
    );
    let deploy_started = Instant::now();
    let mut run = match SimulationRun::try_new(cfg) {
        Ok(run) => run,
        Err(e) => exit2(format!("invalid scenario: {e}")),
    };
    println!(
        "deployed in {:.2} s, rss {:.0} MiB, {} pending events",
        deploy_started.elapsed().as_secs_f64(),
        rss::current_rss_mb().unwrap_or(f64::NAN),
        run.pending_events(),
    );

    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "sim_s",
        "events",
        "events/s",
        "alive",
        "pending",
        "rss_mb",
        "mac%",
        "chan%",
        "phy%",
        "round%",
        "stat%"
    );
    let soak_started = Instant::now();
    let mut sim_s = 0.0f64;
    let mut prev_profile = Profile::new();
    while sim_s < spec.duration_s {
        sim_s = (sim_s + spec.tick_s).min(spec.duration_s);
        let tick_started = Instant::now();
        let events = run.run_until(SimTime::from_millis((sim_s * 1000.0) as u64));
        let tick_wall = tick_started.elapsed().as_secs_f64();
        // This tick's subsystem time shares: the delta of the run's
        // accumulated profile since the previous tick.
        let snapshot = run.profile().clone();
        let tick = snapshot.delta_since(&prev_profile);
        prev_profile = snapshot;
        let pct = |share: f64| share * 100.0;
        println!(
            "{:>8.1} {:>12} {:>12.0} {:>10} {:>10} {:>10.0} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            sim_s,
            events,
            events as f64 / tick_wall.max(1e-9),
            run.alive_count(),
            run.pending_events(),
            rss::current_rss_mb().unwrap_or(f64::NAN),
            pct(tick.share(ProfKey::Mac)),
            pct(tick.share(ProfKey::Channel)),
            pct(tick.share(ProfKey::Phy)),
            pct(tick.share(ProfKey::ClusterElection) + tick.share(ProfKey::ClusterFormation)),
            pct(tick.share(ProfKey::StatsSnapshot)),
        );
    }
    let soak_wall = soak_started.elapsed().as_secs_f64();
    let total_events = run.events_processed();
    let events_per_sec = total_events as f64 / soak_wall.max(1e-9);
    let peak_rss = rss::peak_rss_mb();

    let result = run.finish();
    println!(
        "== done: {total_events} events in {soak_wall:.2} s = {events_per_sec:.0} events/sec =="
    );
    println!(
        "delivered {} / generated {} ({:.1} %), collisions {}, node failures {}, peak rss {:.0} MiB",
        result.perf.delivered(),
        result.perf.generated(),
        100.0 * result.delivery_rate(),
        result.collisions,
        result.node_failures,
        peak_rss.unwrap_or(f64::NAN),
    );

    let mut violations = Vec::new();
    if let (Some(ceiling), Some(peak)) = (spec.max_rss_mb, peak_rss) {
        if peak > ceiling {
            violations.push(format!(
                "peak rss {peak:.0} MiB exceeds the {ceiling:.0} MiB ceiling"
            ));
        }
    }
    if let Some(floor) = spec.min_events_per_sec {
        if events_per_sec < floor {
            violations.push(format!(
                "throughput {events_per_sec:.0} events/sec below the {floor:.0} floor"
            ));
        }
    }
    if !violations.is_empty() {
        // Name the subsystem that ate the most attributed time — the first
        // place to look when the envelope breaks.
        let dominant = profrpt::dominant_subsystem(&result.profile)
            .map(|(key, share)| {
                format!("{} ({:.1}% of attributed time)", key.label(), share * 100.0)
            })
            .unwrap_or_else(|| "unknown (no profile samples)".to_string());
        for v in &violations {
            eprintln!("SOAK VIOLATION: {v} — dominant subsystem: {dominant}");
        }
        std::process::exit(3);
    }
    println!("soak envelope satisfied");
}
