//! The `scale_100k` workload: one large run, no grid machinery.

use caem::policy::PolicyKind;
use caem_metrics::prof;
use caem_simcore::time::Duration;
use caem_wsnsim::{config_hash, ScenarioConfig};

use crate::trace::Tracer;
use crate::{
    bytes_per_node, derive_seed, put_end_to_end, put_profile, repeat_for, run_job, Args, Iteration,
    JobRun, Measured, RunnerTotals,
};

/// Deployed nodes.
pub const NODES: usize = 100_000;

/// Simulated seconds.
pub const SECONDS: u64 = 10;

/// `ScenarioConfig::scaled(100 000, Scheme1Adaptive, 1 pps)` over
/// [`SECONDS`], seeded from `seed`; `reduced` deploys 2 000 nodes for 3 s.
pub fn config(seed: u64, reduced: bool) -> ScenarioConfig {
    let (nodes, seconds) = if reduced {
        (2_000, 3)
    } else {
        (NODES, SECONDS)
    };
    ScenarioConfig::scaled(nodes, PolicyKind::Scheme1Adaptive, 1.0, derive_seed(seed))
        .with_duration(Duration::from_secs(seconds))
}

/// Run the workload.  An untimed warm-up run fixes the simulated counts
/// every later run must repeat exactly.
pub fn run(args: &Args) -> Result<Measured, String> {
    let cfg = config(args.seed, args.reduced);
    let node_seconds = cfg.node_count as f64 * cfg.duration.as_secs_f64();
    let mut out = Measured::new(config_hash(&cfg), Tracer::new(args.trace));
    let footprint = if args.trace {
        Some(bytes_per_node(&cfg, 1)?)
    } else {
        None
    };
    let mut quiet = Tracer::new(false);
    let expected = run_job(cfg.clone(), None, &mut quiet)?.counts();
    let check = |run: &JobRun| {
        (run.counts() != expected).then(|| {
            format!(
                "simulated counts {:?} differ from the warm-up run's {expected:?}",
                run.counts()
            )
        })
    };
    let mut once = || -> Result<(Iteration, Option<String>), String> {
        let run = run_job(cfg.clone(), None, &mut quiet)?;
        let wall = Iteration {
            wall_s: run.total_s(),
            setup_s: run.setup_s,
        };
        Ok((wall, check(&run)))
    };
    let timed = if args.trace {
        vec![once()?]
    } else {
        repeat_for(args.seconds, &mut once)?
    };
    for (_, problem) in &timed {
        out.count(1, u64::from(problem.is_some()), problem.clone());
    }
    let walls: Vec<Iteration> = timed.iter().map(|t| t.0).collect();
    out.walls = walls.iter().map(|i| i.wall_s).collect();
    if !args.trace {
        put_end_to_end(&mut out.metrics, &walls, node_seconds);
        return Ok(out);
    }

    prof::set_enabled(true);
    prof::global().reset();
    out.tracer.enter("scale.run", None);
    let run = run_job(cfg.clone(), Some((0, 0, cfg.seed)), &mut out.tracer)?;
    out.tracer.exit();
    let profile = prof::global().snapshot();
    prof::set_enabled(false);
    let problem = check(&run);
    out.count(1, u64::from(problem.is_some()), problem);
    let mut totals = RunnerTotals::default();
    totals.add(&run);
    let m = &mut out.metrics;
    m.put("spec.jobs", 1.0);
    m.put("trace.overhead_ratio", run.total_s() / walls[0].wall_s);
    totals.put(m, run.total_s());
    put_profile(m, &profile, run.run_s);
    if let Some(bytes) = footprint {
        m.put("table.bytes_per_node", bytes);
    }
    m.put("trace.coverage", out.tracer.coverage());
    Ok(out)
}
