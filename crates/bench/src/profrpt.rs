//! Profiling-report helpers shared by the `netperf` and `experiment`
//! binaries: rten-bench-style repeat timing statistics, the
//! `time_breakdown` JSON section and the process-wide run-event counter
//! table.

use caem_metrics::prof::{Breakdown, Profile, PROF_KEYS};

/// min/mean/median/max/var over a set of timed repeats (the rten-bench
/// reporting shape).  The median is the middle element of the sorted
/// samples (lower-of-two for even counts), so it is always an observed
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatStats {
    /// Fastest repeat.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Middle sorted sample (lower-of-two for even counts).
    pub median: f64,
    /// Slowest repeat.
    pub max: f64,
    /// Population variance.
    pub var: f64,
}

/// Summarize timed repeats.  Returns `None` for an empty slice.
pub fn repeat_stats(samples: &[f64]) -> Option<RepeatStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timing samples"));
    let n = sorted.len() as f64;
    let mean = sorted.iter().sum::<f64>() / n;
    let var = sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    Some(RepeatStats {
        min: sorted[0],
        mean,
        median: sorted[(sorted.len() - 1) / 2],
        max: *sorted.last().expect("non-empty"),
        var,
    })
}

impl RepeatStats {
    /// The JSON object recorded per scenario under `events_per_sec_stats`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "min": self.min,
            "mean": self.mean,
            "median": self.median,
            "max": self.max,
            "var": self.var,
        })
    }
}

/// Render one accumulated [`Breakdown`] as the `time_breakdown` JSON
/// section: per-key mean/σ share, min/max share with the offending
/// scenario label, total milliseconds and event counts, split into
/// `subsystems` and `event_kinds` groups.
pub fn time_breakdown_json(breakdown: &Breakdown) -> serde_json::Value {
    let group = |subsystems: bool| -> serde_json::Value {
        let mut entries: Vec<(String, serde_json::Value)> = Vec::new();
        for key in PROF_KEYS {
            if key.is_subsystem() != subsystems {
                continue;
            }
            let stats = breakdown.key_stats(key);
            if stats.total_count() == 0 && stats.total_nanos() == 0 {
                continue;
            }
            entries.push((
                key.label().to_string(),
                serde_json::json!({
                    "mean_share": stats.mean_share(),
                    "stddev_share": stats.stddev_share(),
                    "min_share": stats.min_share(),
                    "min_scenario": stats.min_label().unwrap_or(""),
                    "max_share": stats.max_share(),
                    "max_scenario": stats.max_label().unwrap_or(""),
                    "total_ms": stats.total_nanos() as f64 / 1e6,
                    "events": stats.total_count(),
                }),
            ));
        }
        serde_json::Value::Map(entries)
    };
    serde_json::json!({
        "observations": breakdown.observations(),
        "subsystems": group(true),
        "event_kinds": group(false),
    })
}

/// Print one accumulated [`Profile`]'s totals (nanoseconds and counts per
/// key) as a compact table — the `experiment` binary's end-of-run summary
/// of the process-wide global accumulator.
pub fn print_profile_totals(title: &str, profile: &Profile) {
    if profile.is_empty() {
        println!("== {title} == (no samples)");
        return;
    }
    println!("== {title} ==");
    println!(
        "{:<24} {:>12} {:>14} {:>8}",
        "key", "events", "total_ms", "share"
    );
    for group in [true, false] {
        for key in PROF_KEYS {
            if key.is_subsystem() != group {
                continue;
            }
            let (count, nanos) = (profile.count(key), profile.nanos(key));
            if count == 0 && nanos == 0 {
                continue;
            }
            println!(
                "{:<24} {:>12} {:>14.3} {:>7.1}%",
                key.label(),
                count,
                nanos as f64 / 1e6,
                profile.share(key) * 100.0
            );
        }
    }
}

/// Print the process-wide [`RunEvent`](caem_wsnsim::faults::RunEvent)
/// counters (retries, quarantines, lease handoffs, …) next to the profile
/// report, so one report answers both "where did the time go" and "what
/// did the run survive".
pub fn print_run_event_counters() {
    let counters = caem_wsnsim::faults::event_counters();
    println!("== run events (process-wide) ==");
    if counters.is_empty() {
        println!("(none recorded)");
        return;
    }
    for (event, count) in counters {
        println!("{:<28} {:>10}", event.label(), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_metrics::prof::ProfKey;

    #[test]
    fn repeat_stats_match_hand_computation() {
        assert_eq!(repeat_stats(&[]), None);
        let s = repeat_stats(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        // Lower-of-two median over [1,2,3,4].
        assert_eq!(s.median, 2.0);
        assert!((s.var - 1.25).abs() < 1e-12);
        let single = repeat_stats(&[7.5]).unwrap();
        assert_eq!((single.min, single.median, single.max), (7.5, 7.5, 7.5));
        assert_eq!(single.var, 0.0);
    }

    #[test]
    fn time_breakdown_json_groups_keys() {
        let mut profile = Profile::new();
        profile.add(ProfKey::Mac, 10, 3_000_000);
        profile.add(ProfKey::EvSenseChannel, 10, 2_000_000);
        let mut breakdown = Breakdown::new();
        breakdown.observe("scenario_a", &profile);
        let json = time_breakdown_json(&breakdown);
        assert_eq!(json.get("observations").and_then(|v| v.as_u64()), Some(1));
        let subsystems = json.get("subsystems").expect("subsystems group");
        let mac = subsystems.get("mac").expect("mac entry");
        assert_eq!(mac.get("events").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(mac.get("total_ms").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            mac.get("max_scenario").and_then(|v| v.as_str()),
            Some("scenario_a")
        );
        // Event kinds land in their own group, not under subsystems.
        assert!(subsystems.get("sense_channel").is_none());
        let kinds = json.get("event_kinds").expect("event_kinds group");
        assert!(kinds.get("sense_channel").is_some());
        // Untouched keys are omitted entirely.
        assert!(subsystems.get("phy").is_none());
    }
}
