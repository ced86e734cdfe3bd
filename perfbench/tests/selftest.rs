//! Self-test of the benchmark: every workload once at reduced size through
//! the command line (each run its own process, as a benchmark run is),
//! checked against the metric list `BENCHMARK.json` declares, plus the seed
//! and instrumentation contracts.

use std::cell::RefCell;
use std::process::Command;
use std::sync::atomic::Ordering;

use caem_wsnsim::serve::{FrameLink, LoopbackLink};
use perfbench::grid::{served_input, wrapper, SERVED_WORKERS};
use perfbench::link::{serve_grid, LinkStats};
use perfbench::trace::Tracer;
use perfbench::WORKLOADS;
use serde_json::Value;

/// Run the benchmark binary at reduced size; return its summary line and
/// its result line.
fn reduced(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--reduced")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., summary, result] = lines[..] else {
        panic!("{workload}: expected a summary and a result line, got {stdout}")
    };
    let parse = |line: &str| serde_json::parse(line).expect("output lines are JSON");
    let result = parse(result);
    let Value::Map(entries) = &result else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    (parse(summary), result)
}

/// The (name, unit) pairs of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Seq(entries)) = doc.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    entries
        .iter()
        .map(|e| {
            let field = |k| e.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// The (name, unit) pairs of a result line, in order.
fn reported(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("result line has no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS.map(|w| w.name()) {
        let (summary, untraced) = reduced(workload, 7, false);
        assert_eq!(summary.get("profiled"), Some(&Value::Bool(false)));
        assert_eq!(reported(&untraced), end_to_end, "{workload}");
        for (name, _) in &end_to_end {
            assert!(value(&untraced, name) > 0.0, "{workload} {name}");
        }

        let (summary, traced) = reduced(workload, 7, true);
        assert_eq!(summary.get("profiled"), Some(&Value::Bool(true)));
        assert_eq!(reported(&traced), per_layer, "{workload}");
        assert!(value(&traced, "trace.coverage") >= 0.95, "{workload}");
        for name in [
            "runner.events",
            "sim.generated",
            "table.bytes_per_node",
            "prof.sense_channel_n",
            "experiment.sim_sum_s",
        ] {
            assert!(value(&traced, name) > 0.0, "{workload} {name}");
        }
        if workload == "tiny_jobs_served" {
            assert_eq!(value(&traced, "serve.dup_ratio"), 1.0);
            assert!(value(&traced, "serve.frames") > 0.0);
        }
    }
}

#[test]
fn the_seed_changes_the_inputs_but_never_breaks_the_gates() {
    let digest = |summary: Value| {
        summary
            .get("input_digest")
            .and_then(Value::as_str)
            .expect("input digest")
            .to_string()
    };
    for workload in WORKLOADS.map(|w| w.name()) {
        let a = digest(reduced(workload, 1, false).0);
        let b = digest(reduced(workload, 2, false).0);
        let again = digest(reduced(workload, 1, false).0);
        assert_ne!(a, b, "{workload}");
        assert_eq!(a, again, "{workload}");
    }
}

#[test]
fn wrapped_fleet_report_equals_unwrapped() {
    let input = served_input(3, true).expect("served grid generates");
    let serve = |wrap: &dyn Fn(LoopbackLink) -> Box<dyn FrameLink>| {
        let fetched = RefCell::new(String::new());
        let grid = serve_grid(
            &input.text,
            input.quick,
            input.seed,
            SERVED_WORKERS,
            wrap,
            &|report| {
                *fetched.borrow_mut() = report.to_string();
                true
            },
            &mut Tracer::new(false),
        )
        .expect("served grid completes");
        assert!(grid.worker_errors.is_empty() && grid.quarantined == 0);
        fetched.into_inner()
    };
    let plain = serve(&|link| Box::new(link));
    let stats = LinkStats::new(true);
    let wrapped = serve(&wrapper(stats.clone()));
    assert_eq!(plain, wrapped);
    assert_eq!(plain, input.reference());
    assert!(stats.frames.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.records.load(Ordering::Relaxed), input.jobs());
    assert!(stats.first_grant().is_some() && stats.last_shard_done().is_some());
}
