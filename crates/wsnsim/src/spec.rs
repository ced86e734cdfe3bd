//! Declarative experiment specs: a serializable [`GridSpec`] document that
//! fully describes an experiment grid — scenarios (topology, traffic model +
//! diurnal profile, churn, energy spread, duration, buffers), policies,
//! seeds/replicates and sequential-stopping settings — and resolves
//! **deterministically** into an [`ExperimentSpec`].
//!
//! * **Exact**: a committed spec resolves to the same fully resolved
//!   [`crate::ScenarioConfig`]s (hence the same
//!   [`crate::persist::config_hash`]es, the same store records and the same
//!   byte-identical report) as the equivalent code-built grid.  The
//!   committed `specs/zoo.json` is the `experiment` binary's built-in
//!   scenario zoo, in both full and `--quick` mode.
//! * **Strict**: parsing rejects unknown or misspelled fields, wrong types,
//!   out-of-range values and conflicting axes with a typed
//!   [`ConfigError`] carrying the dotted path of the offending field —
//!   nothing is silently ignored.
//! * **Canonical**: [`GridSpec::to_json`] re-serializes the parsed document
//!   such that parse → resolve → re-serialize → re-parse is a fixed point
//!   (property-tested), and [`ExperimentSpec::to_json`] dumps the
//!   *resolved* grid — per-scenario config hashes included — which is
//!   exactly what a daemon's grant ships to a socket worker and what
//!   `experiment --print-spec` prints.  Its compact text hashes to the
//!   grid's identity, [`ExperimentSpec::hash`].
//!
//! Quick mode is part of the document, not a code path: grid- and
//! scenario-level `quick` blocks carry the reduced values, so one file
//! describes both the full grid and its CI smoke variant.

use serde::Value;

use crate::config::{ConfigError, ScenarioConfig, Topology, TrafficModel, TrafficProfile};
use crate::experiment::{
    ExperimentSpec, ScenarioSpec, SequentialStopping, METRIC_NAMES, PAPER_POLICIES,
};
use crate::persist::{config_hash, fnv1a64};
use caem::policy::PolicyKind;
use caem_simcore::time::Duration;

/// Spec-document format version this build reads and writes.
const SPEC_VERSION: u64 = 1;

/// The most jobs one resolved grid may hold.  Far above every committed
/// spec (the full zoo is 180 jobs) and benchmark grid (~8k jobs); a
/// document asking for more is a typed error, not an allocation failure.
pub const MAX_GRID_JOBS: usize = 100_000;

/// Refuse a `duration_s` (full, then `quick.`) that `SimTime`'s u64
/// nanoseconds cannot hold, before it is converted: the conversion would
/// clamp a negative value to zero and a huge one to 584 years.
fn check_durations(full: Option<f64>, quick: Option<f64>) -> Result<(), ConfigError> {
    for (path, secs) in [("duration_s", full), ("quick.duration_s", quick)] {
        if let Some(secs) = secs {
            if !(secs >= 0.0 && secs * 1e9 < u64::MAX as f64) {
                return Err(ConfigError::OutOfRange {
                    path: path.to_string(),
                    value: secs,
                    expected: "[0, 2^64 ns)",
                });
            }
        }
    }
    Ok(())
}

/// The policy names a spec's `policies` axis accepts (the serde variant
/// names of [`PolicyKind`], matching report JSON).
const POLICY_NAMES: [&str; 3] = ["PureLeach", "Scheme1Adaptive", "Scheme2Fixed"];

fn policy_from_name(name: &str) -> Option<PolicyKind> {
    match name {
        "PureLeach" => Some(PolicyKind::PureLeach),
        "Scheme1Adaptive" => Some(PolicyKind::Scheme1Adaptive),
        "Scheme2Fixed" => Some(PolicyKind::Scheme2Fixed),
        _ => None,
    }
}

fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::PureLeach => "PureLeach",
        PolicyKind::Scheme1Adaptive => "Scheme1Adaptive",
        PolicyKind::Scheme2Fixed => "Scheme2Fixed",
    }
}

// ---------------------------------------------------------------------------
// Field-path-aware decoding helpers over the self-describing `Value` tree.
// ---------------------------------------------------------------------------

/// A map value together with its dotted path, checking off the fields the
/// schema consumes so anything left over is reported as
/// [`ConfigError::UnknownField`] — misspelled keys can never be silently
/// ignored.
struct Fields<'a> {
    path: String,
    entries: &'a [(String, Value)],
    consumed: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(path: &str, value: &'a Value) -> Result<Self, ConfigError> {
        match value {
            Value::Map(entries) => Ok(Fields {
                path: path.to_string(),
                entries,
                consumed: vec![false; entries.len()],
            }),
            _ => Err(ConfigError::WrongType {
                path: path.to_string(),
                expected: "object",
            }),
        }
    }

    fn child_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Look up `key`, marking it consumed.  Duplicate keys in the document
    /// are a [`ConfigError::DuplicateEntry`].
    fn take(&mut self, key: &str) -> Result<Option<&'a Value>, ConfigError> {
        let mut found = None;
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                if found.is_some() {
                    return Err(ConfigError::DuplicateEntry {
                        path: self.path.clone(),
                        value: format!("`{key}`"),
                    });
                }
                self.consumed[i] = true;
                found = Some(v);
            }
        }
        Ok(found)
    }

    /// After all schema fields were taken: any remaining key is unknown.
    fn finish(self) -> Result<(), ConfigError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.consumed[i] {
                return Err(ConfigError::UnknownField {
                    path: self.child_path(k),
                });
            }
        }
        Ok(())
    }

    fn required(&mut self, key: &str) -> Result<&'a Value, ConfigError> {
        self.take(key)?.ok_or_else(|| ConfigError::MissingField {
            path: self.child_path(key),
        })
    }

    fn f64_of(&self, key: &str, v: &Value) -> Result<f64, ConfigError> {
        v.as_f64().ok_or_else(|| ConfigError::WrongType {
            path: self.child_path(key),
            expected: "number",
        })
    }

    fn u64_of(&self, key: &str, v: &Value) -> Result<u64, ConfigError> {
        v.as_u64().ok_or_else(|| ConfigError::WrongType {
            path: self.child_path(key),
            expected: "non-negative integer",
        })
    }

    fn str_of<'v>(&self, key: &str, v: &'v Value) -> Result<&'v str, ConfigError> {
        match v {
            Value::Str(s) => Ok(s),
            _ => Err(ConfigError::WrongType {
                path: self.child_path(key),
                expected: "string",
            }),
        }
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, ConfigError> {
        match self.take(key)? {
            Some(v) => Ok(Some(self.f64_of(key, v)?)),
            None => Ok(None),
        }
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, ConfigError> {
        match self.take(key)? {
            Some(v) => Ok(Some(self.u64_of(key, v)?)),
            None => Ok(None),
        }
    }

    fn opt_usize(&mut self, key: &str) -> Result<Option<usize>, ConfigError> {
        Ok(self.opt_u64(key)?.map(|u| u as usize))
    }
}

// ---------------------------------------------------------------------------
// The document model.
// ---------------------------------------------------------------------------

/// Per-node traffic as a spec document writes it.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// Poisson arrivals at the given rate (the `rate_pps` shorthand).
    Poisson(f64),
    /// Constant bit rate arrivals.
    Cbr(f64),
    /// Two-state bursty arrivals.
    Bursty {
        /// Rate while quiet (packets/second).
        quiet_rate_pps: f64,
        /// Rate while bursting (packets/second).
        burst_rate_pps: f64,
        /// Mean quiet sojourn (seconds).
        mean_quiet_s: f64,
        /// Mean burst sojourn (seconds).
        mean_burst_s: f64,
    },
}

impl TrafficSpec {
    fn to_model(&self) -> TrafficModel {
        match *self {
            TrafficSpec::Poisson(rate_pps) => TrafficModel::Poisson { rate_pps },
            TrafficSpec::Cbr(rate_pps) => TrafficModel::Cbr { rate_pps },
            TrafficSpec::Bursty {
                quiet_rate_pps,
                burst_rate_pps,
                mean_quiet_s,
                mean_burst_s,
            } => TrafficModel::Bursty {
                quiet_rate_pps,
                burst_rate_pps,
                mean_quiet_s,
                mean_burst_s,
            },
        }
    }
}

/// The numeric overrides a scenario's `quick` block may carry — the values
/// that replace their full-mode counterparts when the grid resolves in
/// quick mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioQuick {
    /// Quick-mode churn mean time to failure (seconds).
    pub churn_mttf_s: Option<f64>,
    /// Quick-mode diurnal profile.
    pub diurnal: Option<(f64, f64)>,
    /// Quick-mode scenario duration (seconds).
    pub duration_s: Option<f64>,
    /// Quick-mode node count.
    pub node_count: Option<usize>,
}

impl ScenarioQuick {
    fn is_empty(&self) -> bool {
        *self == ScenarioQuick::default()
    }
}

/// One scenario of a [`GridSpec`]: a label plus overrides layered onto the
/// paper's Table II defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpecDoc {
    /// The scenario's label (report cell key; must be unique in the grid).
    pub label: String,
    /// Per-node traffic.
    pub traffic: TrafficSpec,
    /// Deployment topology (`None` = the paper's uniform deployment).
    pub topology: Option<Topology>,
    /// Diurnal traffic profile as `(period_s, relative_amplitude)`.
    pub diurnal: Option<(f64, f64)>,
    /// Per-node initial-energy spread fraction.
    pub energy_spread: Option<f64>,
    /// Random node-failure mean time to failure (seconds).
    pub churn_mttf_s: Option<f64>,
    /// Scenario-level node-count override.
    pub node_count: Option<usize>,
    /// Scenario-level duration override (seconds).
    pub duration_s: Option<f64>,
    /// Buffer capacity; `Some(None)` = explicitly unbounded (`null` in the
    /// document), `None` = the paper default.
    pub buffer_capacity: Option<Option<usize>>,
    /// Initial battery energy override (joules).
    pub initial_energy_j: Option<f64>,
    /// Quick-mode overrides.
    pub quick: ScenarioQuick,
}

/// Grid-level quick-mode overrides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridQuick {
    /// Quick-mode replicate count.
    pub replicates: Option<usize>,
    /// Quick-mode node count applied to every scenario.
    pub node_count: Option<usize>,
    /// Quick-mode duration applied to every scenario (seconds).
    pub duration_s: Option<f64>,
}

impl GridQuick {
    fn is_empty(&self) -> bool {
        *self == GridQuick::default()
    }
}

/// Sequential-stopping settings as a spec document writes them; resolved
/// into a [`SequentialStopping`] with the grid's replicate batch as the
/// default batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialSpec {
    /// The driving metric (a [`METRIC_NAMES`] entry).
    pub metric: String,
    /// Target worst-cell 95 % CI half-width.
    pub target_half_width: f64,
    /// Replicates appended per round (`None` = the grid's replicate count).
    pub batch: Option<usize>,
    /// Hard cap on replicates per cell.
    pub max_replicates: usize,
}

/// How a grid's seed axis is written: a replicate count (consecutive seeds
/// from the base seed) or an explicit seed list.  Giving both is a
/// [`ConfigError::ConflictingFields`].
#[derive(Debug, Clone, PartialEq)]
pub enum SeedAxis {
    /// `replicates`: consecutive seeds `base_seed .. base_seed + n`.
    Replicates(usize),
    /// `seeds`: the exact list.
    Explicit(Vec<u64>),
}

/// A fully declarative experiment grid: scenarios, policies, seeds and
/// sequential stopping, as one serializable document.
///
/// Parse with [`GridSpec::parse`] (strict, typed errors), resolve with
/// [`GridSpec::resolve`] (deterministic), re-serialize with
/// [`GridSpec::to_json`] (canonical; parse ∘ serialize is the identity).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Human-readable grid name.
    pub name: Option<String>,
    /// Base seed (`None` = the caller's default, e.g. the bench harness
    /// seed).
    pub base_seed: Option<u64>,
    /// The seed axis.
    pub seeds: SeedAxis,
    /// Grid-wide scenario duration (seconds; `None` = Table II's 600 s).
    pub duration_s: Option<f64>,
    /// Grid-wide node count (`None` = Table II's 100).
    pub node_count: Option<usize>,
    /// The policy axis (`None` = the paper's three protocols).
    pub policies: Option<Vec<PolicyKind>>,
    /// The scenario axis.
    pub scenarios: Vec<ScenarioSpecDoc>,
    /// Optional sequential-stopping settings.
    pub sequential: Option<SequentialSpec>,
    /// Grid-level quick-mode overrides.
    pub quick: GridQuick,
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

impl GridSpec {
    /// Parse a spec document from JSON text.  Strict: unknown fields, wrong
    /// types, out-of-range values and conflicting axes are all typed
    /// [`ConfigError`]s carrying the offending field's dotted path.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let value = serde_json::parse(text).map_err(|e| ConfigError::WrongType {
            path: format!("<document: {e}>"),
            expected: "JSON object",
        })?;
        Self::from_value(&value)
    }

    /// Parse a spec document from an already-parsed [`Value`] tree.
    pub fn from_value(value: &Value) -> Result<Self, ConfigError> {
        let mut doc = Fields::new("", value)?;
        let version_value = doc.required("caem_grid_spec")?;
        let version = doc.u64_of("caem_grid_spec", version_value)?;
        if version != SPEC_VERSION {
            return Err(ConfigError::UnsupportedVersion {
                path: "caem_grid_spec".to_string(),
                found: version,
                supported: SPEC_VERSION,
            });
        }
        let name = match doc.take("name")? {
            Some(v) => Some(doc.str_of("name", v)?.to_string()),
            None => None,
        };
        let base_seed = doc.opt_u64("base_seed")?;
        let replicates = doc.opt_usize("replicates")?;
        let explicit_seeds = match doc.take("seeds")? {
            Some(Value::Seq(items)) => {
                let mut seeds = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let seed = item.as_u64().ok_or_else(|| ConfigError::WrongType {
                        path: format!("seeds[{i}]"),
                        expected: "non-negative integer",
                    })?;
                    if seeds.contains(&seed) {
                        return Err(ConfigError::DuplicateEntry {
                            path: "seeds".to_string(),
                            value: seed.to_string(),
                        });
                    }
                    seeds.push(seed);
                }
                Some(seeds)
            }
            Some(_) => {
                return Err(ConfigError::WrongType {
                    path: "seeds".to_string(),
                    expected: "array of integers",
                })
            }
            None => None,
        };
        let seeds = match (replicates, explicit_seeds) {
            (Some(_), Some(_)) => {
                // Two definitions of the same axis cannot coexist.
                return Err(ConfigError::ConflictingFields {
                    path: "replicates".to_string(),
                    other: "seeds".to_string(),
                });
            }
            (Some(n), None) => {
                if n == 0 {
                    return Err(ConfigError::NonPositive {
                        path: "replicates".to_string(),
                        value: 0.0,
                    });
                }
                SeedAxis::Replicates(n)
            }
            (None, Some(list)) => {
                if list.is_empty() {
                    return Err(ConfigError::EmptyAxis {
                        path: "seeds".to_string(),
                    });
                }
                if base_seed.is_some() {
                    // An explicit list leaves nothing for a base seed to do;
                    // accepting both would invite silent disagreement.
                    return Err(ConfigError::ConflictingFields {
                        path: "base_seed".to_string(),
                        other: "seeds".to_string(),
                    });
                }
                SeedAxis::Explicit(list)
            }
            (None, None) => {
                return Err(ConfigError::MissingField {
                    path: "replicates".to_string(),
                })
            }
        };
        let duration_s = doc.opt_f64("duration_s")?;
        let node_count = doc.opt_usize("node_count")?;
        let policies = match doc.take("policies")? {
            Some(Value::Seq(items)) => {
                if items.is_empty() {
                    return Err(ConfigError::EmptyAxis {
                        path: "policies".to_string(),
                    });
                }
                let mut policies = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("policies[{i}]");
                    let name = match item {
                        Value::Str(s) => s.as_str(),
                        _ => {
                            return Err(ConfigError::WrongType {
                                path,
                                expected: "string",
                            })
                        }
                    };
                    let policy =
                        policy_from_name(name).ok_or_else(|| ConfigError::UnknownVariant {
                            path,
                            value: name.to_string(),
                            expected: &POLICY_NAMES,
                        })?;
                    if policies.contains(&policy) {
                        return Err(ConfigError::DuplicateEntry {
                            path: "policies".to_string(),
                            value: format!("`{name}`"),
                        });
                    }
                    policies.push(policy);
                }
                Some(policies)
            }
            Some(_) => {
                return Err(ConfigError::WrongType {
                    path: "policies".to_string(),
                    expected: "array of policy names",
                })
            }
            None => None,
        };
        let quick = match doc.take("quick")? {
            Some(v) => parse_grid_quick(v)?,
            None => GridQuick::default(),
        };
        if matches!(seeds, SeedAxis::Explicit(_)) && quick.replicates.is_some() {
            // An explicit seed list is the whole axis in both modes; a quick
            // replicate count would be silently ignored.
            return Err(ConfigError::ConflictingFields {
                path: "quick.replicates".to_string(),
                other: "seeds".to_string(),
            });
        }
        let sequential = match doc.take("sequential")? {
            Some(v) => Some(parse_sequential(v)?),
            None => None,
        };
        let scenarios = match doc.required("scenarios")? {
            Value::Seq(items) => {
                if items.is_empty() {
                    return Err(ConfigError::EmptyAxis {
                        path: "scenarios".to_string(),
                    });
                }
                let mut scenarios: Vec<ScenarioSpecDoc> = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let scenario = parse_scenario(&format!("scenarios[{i}]"), item)?;
                    if scenarios.iter().any(|s| s.label == scenario.label) {
                        return Err(ConfigError::DuplicateEntry {
                            path: "scenarios".to_string(),
                            value: format!("label `{}`", scenario.label),
                        });
                    }
                    scenarios.push(scenario);
                }
                scenarios
            }
            _ => {
                return Err(ConfigError::WrongType {
                    path: "scenarios".to_string(),
                    expected: "array of scenario objects",
                })
            }
        };
        doc.finish()?;
        Ok(GridSpec {
            name,
            base_seed,
            seeds,
            duration_s,
            node_count,
            policies,
            scenarios,
            sequential,
            quick,
        })
    }
}

fn parse_grid_quick(value: &Value) -> Result<GridQuick, ConfigError> {
    let mut f = Fields::new("quick", value)?;
    let quick = GridQuick {
        replicates: f.opt_usize("replicates")?,
        node_count: f.opt_usize("node_count")?,
        duration_s: f.opt_f64("duration_s")?,
    };
    f.finish()?;
    Ok(quick)
}

fn parse_sequential(value: &Value) -> Result<SequentialSpec, ConfigError> {
    let mut f = Fields::new("sequential", value)?;
    let metric_value = f.required("metric")?;
    let metric = f.str_of("metric", metric_value)?.to_string();
    if !METRIC_NAMES.contains(&metric.as_str()) {
        return Err(ConfigError::UnknownVariant {
            path: "sequential.metric".to_string(),
            value: metric,
            expected: &METRIC_NAMES,
        });
    }
    let target_value = f.required("target_half_width")?;
    let target_half_width = f.f64_of("target_half_width", target_value)?;
    if target_half_width < 0.0 {
        return Err(ConfigError::Negative {
            path: "sequential.target_half_width".to_string(),
            value: target_half_width,
        });
    }
    let batch = f.opt_usize("batch")?;
    let max_value = f.required("max_replicates")?;
    let max_replicates = f.u64_of("max_replicates", max_value)? as usize;
    f.finish()?;
    Ok(SequentialSpec {
        metric,
        target_half_width,
        batch,
        max_replicates,
    })
}

fn parse_diurnal(path: &str, value: &Value) -> Result<(f64, f64), ConfigError> {
    let mut f = Fields::new(path, value)?;
    let period_value = f.required("period_s")?;
    let period_s = f.f64_of("period_s", period_value)?;
    let amplitude_value = f.required("relative_amplitude")?;
    let relative_amplitude = f.f64_of("relative_amplitude", amplitude_value)?;
    f.finish()?;
    Ok((period_s, relative_amplitude))
}

fn parse_topology(path: &str, value: &Value) -> Result<Topology, ConfigError> {
    const TOPOLOGY_NAMES: [&str; 4] = ["uniform", "grid", "gaussian_clusters", "corridor"];
    match value {
        Value::Str(s) if s == "uniform" => Ok(Topology::Uniform),
        Value::Str(s) => Err(ConfigError::UnknownVariant {
            path: path.to_string(),
            value: s.clone(),
            expected: &TOPOLOGY_NAMES,
        }),
        Value::Map(entries) if entries.len() == 1 => {
            let (kind, body) = &entries[0];
            let child = format!("{path}.{kind}");
            match kind.as_str() {
                "grid" => {
                    let mut f = Fields::new(&child, body)?;
                    let jitter_value = f.required("jitter_m")?;
                    let jitter_m = f.f64_of("jitter_m", jitter_value)?;
                    f.finish()?;
                    Ok(Topology::Grid { jitter_m })
                }
                "gaussian_clusters" => {
                    let mut f = Fields::new(&child, body)?;
                    let clusters_value = f.required("clusters")?;
                    let clusters = f.u64_of("clusters", clusters_value)? as usize;
                    let sigma_value = f.required("sigma_m")?;
                    let sigma_m = f.f64_of("sigma_m", sigma_value)?;
                    f.finish()?;
                    Ok(Topology::GaussianClusters { clusters, sigma_m })
                }
                "corridor" => {
                    let mut f = Fields::new(&child, body)?;
                    let width_value = f.required("width_fraction")?;
                    let width_fraction = f.f64_of("width_fraction", width_value)?;
                    f.finish()?;
                    Ok(Topology::Corridor { width_fraction })
                }
                other => Err(ConfigError::UnknownVariant {
                    path: path.to_string(),
                    value: other.to_string(),
                    expected: &TOPOLOGY_NAMES,
                }),
            }
        }
        _ => Err(ConfigError::WrongType {
            path: path.to_string(),
            expected: "topology name or single-key object",
        }),
    }
}

fn parse_traffic(f: &mut Fields<'_>) -> Result<TrafficSpec, ConfigError> {
    let rate = f.opt_f64("rate_pps")?;
    let traffic = match f.take("traffic")? {
        Some(value) => {
            if rate.is_some() {
                // The shorthand and the full model describe the same axis.
                return Err(ConfigError::ConflictingFields {
                    path: f.child_path("rate_pps"),
                    other: f.child_path("traffic"),
                });
            }
            let path = f.child_path("traffic");
            const TRAFFIC_NAMES: [&str; 3] = ["poisson", "cbr", "bursty"];
            match value {
                Value::Map(entries) if entries.len() == 1 => {
                    let (kind, body) = &entries[0];
                    let child = format!("{path}.{kind}");
                    match kind.as_str() {
                        "poisson" | "cbr" => {
                            let mut inner = Fields::new(&child, body)?;
                            let rate_value = inner.required("rate_pps")?;
                            let rate_pps = inner.f64_of("rate_pps", rate_value)?;
                            inner.finish()?;
                            if kind == "poisson" {
                                Some(TrafficSpec::Poisson(rate_pps))
                            } else {
                                Some(TrafficSpec::Cbr(rate_pps))
                            }
                        }
                        "bursty" => {
                            let mut inner = Fields::new(&child, body)?;
                            let quiet_value = inner.required("quiet_rate_pps")?;
                            let quiet_rate_pps = inner.f64_of("quiet_rate_pps", quiet_value)?;
                            let burst_value = inner.required("burst_rate_pps")?;
                            let burst_rate_pps = inner.f64_of("burst_rate_pps", burst_value)?;
                            let mq_value = inner.required("mean_quiet_s")?;
                            let mean_quiet_s = inner.f64_of("mean_quiet_s", mq_value)?;
                            let mb_value = inner.required("mean_burst_s")?;
                            let mean_burst_s = inner.f64_of("mean_burst_s", mb_value)?;
                            inner.finish()?;
                            Some(TrafficSpec::Bursty {
                                quiet_rate_pps,
                                burst_rate_pps,
                                mean_quiet_s,
                                mean_burst_s,
                            })
                        }
                        other => {
                            return Err(ConfigError::UnknownVariant {
                                path,
                                value: other.to_string(),
                                expected: &TRAFFIC_NAMES,
                            })
                        }
                    }
                }
                _ => {
                    return Err(ConfigError::WrongType {
                        path,
                        expected: "single-key object (poisson / cbr / bursty)",
                    })
                }
            }
        }
        None => rate.map(TrafficSpec::Poisson),
    };
    traffic.ok_or_else(|| ConfigError::MissingField {
        path: f.child_path("rate_pps"),
    })
}

fn parse_scenario_quick(path: &str, value: &Value) -> Result<ScenarioQuick, ConfigError> {
    let mut f = Fields::new(path, value)?;
    let diurnal = match f.take("diurnal")? {
        Some(v) => Some(parse_diurnal(&f.child_path("diurnal"), v)?),
        None => None,
    };
    let quick = ScenarioQuick {
        churn_mttf_s: f.opt_f64("churn_mttf_s")?,
        diurnal,
        duration_s: f.opt_f64("duration_s")?,
        node_count: f.opt_usize("node_count")?,
    };
    f.finish()?;
    Ok(quick)
}

fn parse_scenario(path: &str, value: &Value) -> Result<ScenarioSpecDoc, ConfigError> {
    let mut f = Fields::new(path, value)?;
    let label_value = f.required("label")?;
    let label = f.str_of("label", label_value)?.to_string();
    if label.is_empty() {
        return Err(ConfigError::EmptyAxis {
            path: f.child_path("label"),
        });
    }
    let traffic = parse_traffic(&mut f)?;
    let topology = match f.take("topology")? {
        Some(v) => Some(parse_topology(&f.child_path("topology"), v)?),
        None => None,
    };
    let diurnal = match f.take("diurnal")? {
        Some(v) => Some(parse_diurnal(&f.child_path("diurnal"), v)?),
        None => None,
    };
    let energy_spread = f.opt_f64("energy_spread")?;
    let churn_mttf_s = f.opt_f64("churn_mttf_s")?;
    let node_count = f.opt_usize("node_count")?;
    let duration_s = f.opt_f64("duration_s")?;
    let buffer_capacity = match f.take("buffer_capacity")? {
        Some(Value::Null) => Some(None), // explicitly unbounded
        Some(v) => Some(Some(f.u64_of("buffer_capacity", v)? as usize)),
        None => None,
    };
    let initial_energy_j = f.opt_f64("initial_energy_j")?;
    let quick = match f.take("quick")? {
        Some(v) => parse_scenario_quick(&f.child_path("quick"), v)?,
        None => ScenarioQuick::default(),
    };
    f.finish()?;
    Ok(ScenarioSpecDoc {
        label,
        traffic,
        topology,
        diurnal,
        energy_spread,
        churn_mttf_s,
        node_count,
        duration_s,
        buffer_capacity,
        initial_energy_j,
        quick,
    })
}

// ---------------------------------------------------------------------------
// Canonical re-serialization.
// ---------------------------------------------------------------------------

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn topology_to_value(topology: &Topology) -> Value {
    match *topology {
        Topology::Uniform => Value::Str("uniform".to_string()),
        Topology::Grid { jitter_m } => map(vec![(
            "grid",
            map(vec![("jitter_m", Value::Float(jitter_m))]),
        )]),
        Topology::GaussianClusters { clusters, sigma_m } => map(vec![(
            "gaussian_clusters",
            map(vec![
                ("clusters", Value::UInt(clusters as u64)),
                ("sigma_m", Value::Float(sigma_m)),
            ]),
        )]),
        Topology::Corridor { width_fraction } => map(vec![(
            "corridor",
            map(vec![("width_fraction", Value::Float(width_fraction))]),
        )]),
    }
}

fn diurnal_to_value((period_s, relative_amplitude): (f64, f64)) -> Value {
    map(vec![
        ("period_s", Value::Float(period_s)),
        ("relative_amplitude", Value::Float(relative_amplitude)),
    ])
}

impl GridSpec {
    /// Serialize the document canonically: fixed field order, no defaults
    /// materialised, so `parse(to_json(spec).to_string()) == spec` — the
    /// fixed-point property the round-trip tests pin down.
    pub fn to_json(&self) -> Value {
        let mut entries: Vec<(&str, Value)> = vec![("caem_grid_spec", Value::UInt(SPEC_VERSION))];
        if let Some(name) = &self.name {
            entries.push(("name", Value::Str(name.clone())));
        }
        if let Some(seed) = self.base_seed {
            entries.push(("base_seed", Value::UInt(seed)));
        }
        match &self.seeds {
            SeedAxis::Replicates(n) => entries.push(("replicates", Value::UInt(*n as u64))),
            SeedAxis::Explicit(seeds) => entries.push((
                "seeds",
                Value::Seq(seeds.iter().map(|&s| Value::UInt(s)).collect()),
            )),
        }
        if let Some(d) = self.duration_s {
            entries.push(("duration_s", Value::Float(d)));
        }
        if let Some(n) = self.node_count {
            entries.push(("node_count", Value::UInt(n as u64)));
        }
        if let Some(policies) = &self.policies {
            entries.push((
                "policies",
                Value::Seq(
                    policies
                        .iter()
                        .map(|&p| Value::Str(policy_name(p).to_string()))
                        .collect(),
                ),
            ));
        }
        if !self.quick.is_empty() {
            let mut q: Vec<(&str, Value)> = Vec::new();
            if let Some(r) = self.quick.replicates {
                q.push(("replicates", Value::UInt(r as u64)));
            }
            if let Some(n) = self.quick.node_count {
                q.push(("node_count", Value::UInt(n as u64)));
            }
            if let Some(d) = self.quick.duration_s {
                q.push(("duration_s", Value::Float(d)));
            }
            entries.push(("quick", map(q)));
        }
        if let Some(seq) = &self.sequential {
            let mut s: Vec<(&str, Value)> = vec![
                ("metric", Value::Str(seq.metric.clone())),
                ("target_half_width", Value::Float(seq.target_half_width)),
            ];
            if let Some(batch) = seq.batch {
                s.push(("batch", Value::UInt(batch as u64)));
            }
            s.push(("max_replicates", Value::UInt(seq.max_replicates as u64)));
            entries.push(("sequential", map(s)));
        }
        entries.push((
            "scenarios",
            Value::Seq(self.scenarios.iter().map(scenario_to_value).collect()),
        ));
        map(entries)
    }
}

fn scenario_to_value(s: &ScenarioSpecDoc) -> Value {
    let mut entries: Vec<(&str, Value)> = vec![("label", Value::Str(s.label.clone()))];
    match &s.traffic {
        TrafficSpec::Poisson(rate) => entries.push(("rate_pps", Value::Float(*rate))),
        TrafficSpec::Cbr(rate) => entries.push((
            "traffic",
            map(vec![("cbr", map(vec![("rate_pps", Value::Float(*rate))]))]),
        )),
        TrafficSpec::Bursty {
            quiet_rate_pps,
            burst_rate_pps,
            mean_quiet_s,
            mean_burst_s,
        } => entries.push((
            "traffic",
            map(vec![(
                "bursty",
                map(vec![
                    ("quiet_rate_pps", Value::Float(*quiet_rate_pps)),
                    ("burst_rate_pps", Value::Float(*burst_rate_pps)),
                    ("mean_quiet_s", Value::Float(*mean_quiet_s)),
                    ("mean_burst_s", Value::Float(*mean_burst_s)),
                ]),
            )]),
        )),
    }
    if let Some(topology) = &s.topology {
        entries.push(("topology", topology_to_value(topology)));
    }
    if let Some(diurnal) = s.diurnal {
        entries.push(("diurnal", diurnal_to_value(diurnal)));
    }
    if let Some(spread) = s.energy_spread {
        entries.push(("energy_spread", Value::Float(spread)));
    }
    if let Some(mttf) = s.churn_mttf_s {
        entries.push(("churn_mttf_s", Value::Float(mttf)));
    }
    if let Some(n) = s.node_count {
        entries.push(("node_count", Value::UInt(n as u64)));
    }
    if let Some(d) = s.duration_s {
        entries.push(("duration_s", Value::Float(d)));
    }
    if let Some(capacity) = &s.buffer_capacity {
        entries.push((
            "buffer_capacity",
            match capacity {
                Some(c) => Value::UInt(*c as u64),
                None => Value::Null,
            },
        ));
    }
    if let Some(e) = s.initial_energy_j {
        entries.push(("initial_energy_j", Value::Float(e)));
    }
    if !s.quick.is_empty() {
        let mut q: Vec<(&str, Value)> = Vec::new();
        if let Some(mttf) = s.quick.churn_mttf_s {
            q.push(("churn_mttf_s", Value::Float(mttf)));
        }
        if let Some(diurnal) = s.quick.diurnal {
            q.push(("diurnal", diurnal_to_value(diurnal)));
        }
        if let Some(d) = s.quick.duration_s {
            q.push(("duration_s", Value::Float(d)));
        }
        if let Some(n) = s.quick.node_count {
            q.push(("node_count", Value::UInt(n as u64)));
        }
        entries.push(("quick", map(q)));
    }
    map(entries)
}

// ---------------------------------------------------------------------------
// Resolution.
// ---------------------------------------------------------------------------

/// What a [`GridSpec`] resolves to: the runnable [`ExperimentSpec`] plus the
/// sequential-stopping rule the document carried (if any).
#[derive(Debug, Clone)]
pub struct ResolvedGrid {
    /// The runnable grid.
    pub spec: ExperimentSpec,
    /// The document's sequential-stopping rule, batch defaulted to the
    /// grid's replicate count.
    pub sequential: Option<SequentialStopping>,
}

impl GridSpec {
    /// Resolve the document into a runnable grid, **deterministically**:
    /// the same document, `default_seed` and `quick` flag always produce
    /// field-identical [`ScenarioConfig`]s (hence identical
    /// [`config_hash`]es, store records and reports).
    ///
    /// `default_seed` is used when the document pins no `base_seed`.
    /// Every resolved configuration is validated; a violation surfaces as
    /// the underlying typed error wrapped in
    /// [`ConfigError::InScenario`] with the scenario's label.
    pub fn resolve(&self, default_seed: u64, quick: bool) -> Result<ResolvedGrid, ConfigError> {
        check_durations(self.duration_s, self.quick.duration_s)?;
        for doc in &self.scenarios {
            check_durations(doc.duration_s, doc.quick.duration_s)
                .map_err(|e| e.in_scenario(&doc.label))?;
        }
        let base_seed = self.base_seed.unwrap_or(default_seed);
        let policies = self
            .policies
            .clone()
            .unwrap_or_else(|| PAPER_POLICIES.to_vec());
        let (seed_path, seed_count) = match (&self.seeds, self.quick.replicates) {
            (SeedAxis::Replicates(_), Some(n)) if quick => ("quick.replicates", n),
            (SeedAxis::Replicates(n), _) => ("replicates", *n),
            (SeedAxis::Explicit(seeds), _) => ("seeds", seeds.len()),
        };
        // Checked before the seed axis is materialized: a huge replicate
        // count must be an error, not an allocation failure.
        let jobs = seed_count
            .checked_mul(self.scenarios.len())
            .and_then(|j| j.checked_mul(policies.len()));
        if seed_count == 0 || seed_count > MAX_GRID_JOBS || jobs.is_none_or(|j| j > MAX_GRID_JOBS) {
            return Err(ConfigError::OutOfRange {
                path: seed_path.to_string(),
                value: seed_count as f64,
                expected: "[1, 100000 / (scenarios × policies)]",
            });
        }
        let seeds: Vec<u64> = match &self.seeds {
            SeedAxis::Replicates(_) => {
                if base_seed.checked_add(seed_count as u64 - 1).is_none() {
                    return Err(ConfigError::OutOfRange {
                        path: "base_seed".to_string(),
                        value: base_seed as f64,
                        expected: "[0, 2^64 - replicates]",
                    });
                }
                (0..seed_count as u64).map(|i| base_seed + i).collect()
            }
            SeedAxis::Explicit(seeds) => seeds.clone(),
        };
        let mut scenarios = Vec::with_capacity(self.scenarios.len());
        for doc in &self.scenarios {
            let config = self.resolve_scenario(doc, base_seed, quick)?;
            config.validate().map_err(|e| e.in_scenario(&doc.label))?;
            scenarios.push(ScenarioSpec::new(doc.label.clone(), config));
        }
        let sequential = self.sequential.as_ref().map(|seq| SequentialStopping {
            metric: seq.metric.clone(),
            target_half_width: seq.target_half_width,
            batch: seq.batch.unwrap_or(seeds.len()),
            max_replicates: seq.max_replicates,
        });
        if let Some(stop) = &sequential {
            stop.validate()?;
            stop.check_seeds(&seeds)?;
        }
        Ok(ResolvedGrid {
            spec: ExperimentSpec {
                scenarios,
                policies,
                seeds,
            },
            sequential,
        })
    }

    /// Layer one scenario's overrides onto the paper defaults, mirroring
    /// exactly what the code-built zoo does (`paper_default` + builders), so
    /// a spec file and the equivalent Rust produce identical configs.
    fn resolve_scenario(
        &self,
        doc: &ScenarioSpecDoc,
        base_seed: u64,
        quick: bool,
    ) -> Result<ScenarioConfig, ConfigError> {
        let mut cfg = ScenarioConfig::paper_default(
            PolicyKind::PureLeach,
            doc.traffic.to_model().mean_rate_pps(),
            base_seed,
        );
        cfg.traffic = doc.traffic.to_model();
        // Grid-wide overrides first, then per-scenario, then quick blocks —
        // most specific wins.
        if let Some(n) = self.node_count {
            cfg.node_count = n;
        }
        if let Some(d) = self.duration_s {
            cfg.duration = Duration::from_secs_f64(d);
        }
        if quick {
            if let Some(n) = self.quick.node_count {
                cfg.node_count = n;
            }
            if let Some(d) = self.quick.duration_s {
                cfg.duration = Duration::from_secs_f64(d);
            }
        }
        if let Some(topology) = doc.topology {
            cfg.topology = topology;
        }
        let diurnal = if quick {
            doc.quick.diurnal.or(doc.diurnal)
        } else {
            doc.diurnal
        };
        if let Some((period_s, relative_amplitude)) = diurnal {
            cfg.traffic_profile = TrafficProfile::Diurnal {
                period_s,
                relative_amplitude,
            };
        }
        if let Some(spread) = doc.energy_spread {
            cfg.initial_energy_spread = spread;
        }
        let churn = if quick {
            doc.quick.churn_mttf_s.or(doc.churn_mttf_s)
        } else {
            doc.churn_mttf_s
        };
        if let Some(mttf) = churn {
            cfg = cfg.with_churn_mttf_s(mttf);
        }
        if let Some(n) = doc.node_count {
            cfg.node_count = n;
        }
        let duration = if quick {
            doc.quick.duration_s.or(doc.duration_s)
        } else {
            doc.duration_s
        };
        if let Some(d) = duration {
            cfg.duration = Duration::from_secs_f64(d);
        }
        if quick {
            if let Some(n) = doc.quick.node_count {
                cfg.node_count = n;
            }
        }
        if let Some(capacity) = doc.buffer_capacity {
            cfg.buffer_capacity = capacity;
        }
        if let Some(e) = doc.initial_energy_j {
            cfg.initial_energy_j = e;
        }
        Ok(cfg)
    }
}

// ---------------------------------------------------------------------------
// The canonical resolved form (what `--print-spec` dumps and a grant ships).
// ---------------------------------------------------------------------------

impl ExperimentSpec {
    /// The grid's identity: FNV-1a of the [`ExperimentSpec::to_json`] text
    /// serialized compactly, i.e. of the `experiment --print-spec` document
    /// without whitespace between tokens.  The shard partition plays no
    /// part, so a grid keeps its hash whatever worker count runs it.
    pub fn hash(&self) -> u64 {
        let text = serde_json::to_string(&self.to_json()).expect("resolved specs always serialize");
        fnv1a64(text.as_bytes())
    }

    /// Decode the [`ExperimentSpec::to_json`] form.  Per-scenario config
    /// hashes are recomputed from the configs, not trusted, so a spec whose
    /// hashes were altered no longer has the [`ExperimentSpec::hash`] it
    /// claims.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let list = |key: &str| match value.get(key) {
            Some(Value::Seq(items)) => Ok(items),
            _ => Err(format!("missing `{key}` list")),
        };
        let policies = list("policies")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(policy_from_name)
                    .ok_or_else(|| format!("unknown policy {v:?}"))
            })
            .collect::<Result<_, _>>()?;
        let seeds = list("seeds")?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("bad seed {v:?}")))
            .collect::<Result<_, _>>()?;
        let scenarios = list("scenarios")?
            .iter()
            .map(|scenario| {
                let label = scenario
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or("scenario without a label")?;
                let config: ScenarioConfig = scenario
                    .get("config")
                    .cloned()
                    .ok_or_else(|| format!("scenario `{label}` without a config"))
                    .and_then(|c| {
                        serde_json::from_value(c)
                            .map_err(|e| format!("scenario `{label}` config: {e}"))
                    })?;
                Ok(ScenarioSpec::new(label, config))
            })
            .collect::<Result<_, String>>()?;
        Ok(ExperimentSpec {
            scenarios,
            policies,
            seeds,
        })
    }

    /// The canonical, fully resolved description of the grid: every
    /// scenario's label, [`config_hash`] (hex) and complete
    /// [`ScenarioConfig`], plus the policy and seed axes and the job count.
    /// The persistence layer's config hashes derive from the same configs,
    /// so diffing two `--print-spec` dumps proves two grid definitions
    /// identical without simulating anything.
    pub fn to_json(&self) -> Value {
        let scenarios: Vec<Value> = self
            .scenarios
            .iter()
            .map(|s| {
                map(vec![
                    ("label", Value::Str(s.label.clone())),
                    (
                        "config_hash",
                        Value::Str(format!("{:016x}", config_hash(&s.base))),
                    ),
                    ("config", serde::Serialize::to_value(&s.base)),
                ])
            })
            .collect();
        map(vec![
            (
                "policies",
                Value::Seq(
                    self.policies
                        .iter()
                        .map(|&p| Value::Str(policy_name(p).to_string()))
                        .collect(),
                ),
            ),
            (
                "seeds",
                Value::Seq(self.seeds.iter().map(|&s| Value::UInt(s)).collect()),
            ),
            ("job_count", Value::UInt(self.job_count() as u64)),
            ("scenarios", Value::Seq(scenarios)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "caem_grid_spec": 1,
        "replicates": 2,
        "scenarios": [ { "label": "uniform_5pps", "rate_pps": 5.0 } ]
    }"#;

    #[test]
    fn minimal_spec_parses_and_resolves_to_paper_defaults() {
        let spec = GridSpec::parse(MINIMAL).expect("minimal spec parses");
        let resolved = spec.resolve(42, false).expect("resolves");
        assert_eq!(resolved.spec.seeds, vec![42, 43]);
        assert_eq!(resolved.spec.policies, PAPER_POLICIES.to_vec());
        assert_eq!(resolved.spec.scenarios.len(), 1);
        let cfg = &resolved.spec.scenarios[0].base;
        let paper = ScenarioConfig::paper_default(PolicyKind::PureLeach, 5.0, 42);
        assert_eq!(config_hash(cfg), config_hash(&paper));
    }

    #[test]
    fn unknown_field_is_rejected_with_its_path() {
        let text = r#"{
            "caem_grid_spec": 1,
            "replicates": 2,
            "scenarios": [ { "label": "a", "rate_pps": 5.0, "chrun_mttf_s": 100.0 } ]
        }"#;
        assert_eq!(
            GridSpec::parse(text),
            Err(ConfigError::UnknownField {
                path: "scenarios[0].chrun_mttf_s".to_string()
            })
        );
    }

    #[test]
    fn quick_replicates_conflict_with_an_explicit_seed_list() {
        let text = r#"{
            "caem_grid_spec": 1,
            "seeds": [1, 2, 3],
            "quick": { "replicates": 2 },
            "scenarios": [ { "label": "a", "rate_pps": 5.0 } ]
        }"#;
        assert_eq!(
            GridSpec::parse(text),
            Err(ConfigError::ConflictingFields {
                path: "quick.replicates".to_string(),
                other: "seeds".to_string()
            })
        );
    }

    #[test]
    fn conflicting_seed_axes_are_rejected() {
        let text = r#"{
            "caem_grid_spec": 1,
            "replicates": 2,
            "seeds": [1, 2],
            "scenarios": [ { "label": "a", "rate_pps": 5.0 } ]
        }"#;
        assert_eq!(
            GridSpec::parse(text),
            Err(ConfigError::ConflictingFields {
                path: "replicates".to_string(),
                other: "seeds".to_string()
            })
        );
    }

    #[test]
    fn out_of_range_resolved_value_carries_scenario_and_path() {
        let text = r#"{
            "caem_grid_spec": 1,
            "replicates": 1,
            "scenarios": [ { "label": "bad", "rate_pps": 5.0, "energy_spread": 1.5 } ]
        }"#;
        let spec = GridSpec::parse(text).expect("structurally fine");
        let err = spec.resolve(1, false).expect_err("spread out of range");
        assert_eq!(
            err,
            ConfigError::OutOfRange {
                path: "initial_energy_spread".to_string(),
                value: 1.5,
                expected: "[0, 1)",
            }
            .in_scenario("bad")
        );
    }

    #[test]
    fn quick_overrides_stack_most_specific_last() {
        let text = r#"{
            "caem_grid_spec": 1,
            "replicates": 10,
            "duration_s": 400.0,
            "quick": { "replicates": 5, "node_count": 30, "duration_s": 120.0 },
            "scenarios": [
                { "label": "churny", "rate_pps": 5.0, "churn_mttf_s": 4000.0,
                  "quick": { "churn_mttf_s": 1200.0 } }
            ]
        }"#;
        let spec = GridSpec::parse(text).unwrap();
        let full = spec.resolve(7, false).unwrap().spec;
        let quick = spec.resolve(7, true).unwrap().spec;
        assert_eq!(full.seeds.len(), 10);
        assert_eq!(quick.seeds.len(), 5);
        let f = &full.scenarios[0].base;
        let q = &quick.scenarios[0].base;
        assert_eq!(f.node_count, 100);
        assert_eq!(q.node_count, 30);
        assert_eq!(f.duration, Duration::from_secs(400));
        assert_eq!(q.duration, Duration::from_secs(120));
        assert_eq!(f.churn.unwrap().mean_time_to_failure_s, 4000.0);
        assert_eq!(q.churn.unwrap().mean_time_to_failure_s, 1200.0);
    }

    #[test]
    fn canonical_serialization_is_a_fixed_point() {
        let text = r#"{
            "caem_grid_spec": 1,
            "name": "demo",
            "base_seed": 99,
            "replicates": 3,
            "duration_s": 50.0,
            "quick": { "replicates": 2 },
            "sequential": { "metric": "delivery_rate", "target_half_width": 0.01,
                            "max_replicates": 12 },
            "scenarios": [
                { "label": "corridor", "rate_pps": 8.0,
                  "topology": { "corridor": { "width_fraction": 0.25 } },
                  "buffer_capacity": null },
                { "label": "bursty_grid",
                  "traffic": { "bursty": { "quiet_rate_pps": 2.0, "burst_rate_pps": 30.0,
                                           "mean_quiet_s": 9.0, "mean_burst_s": 1.0 } },
                  "topology": { "grid": { "jitter_m": 3.0 } },
                  "diurnal": { "period_s": 100.0, "relative_amplitude": 0.5 } }
            ]
        }"#;
        let spec = GridSpec::parse(text).unwrap();
        let reserialized = serde_json::to_string_pretty(&spec.to_json()).unwrap();
        let back = GridSpec::parse(&reserialized).unwrap();
        assert_eq!(back, spec);
        // And the resolved grids are hash-identical.
        let a = spec.resolve(1, false).unwrap().spec;
        let b = back.resolve(1, false).unwrap().spec;
        for (sa, sb) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(config_hash(&sa.base), config_hash(&sb.base));
        }
    }

    #[test]
    fn resolved_spec_json_carries_config_hashes() {
        let spec = GridSpec::parse(MINIMAL).unwrap();
        let resolved = spec.resolve(5, false).unwrap();
        let dump = resolved.spec.to_json();
        let scenarios = match dump.get("scenarios") {
            Some(Value::Seq(items)) => items,
            other => panic!("expected scenario list, got {other:?}"),
        };
        let hash = scenarios[0]
            .get("config_hash")
            .and_then(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("hash present");
        assert_eq!(
            hash,
            format!("{:016x}", config_hash(&resolved.spec.scenarios[0].base))
        );
    }

    #[test]
    fn resolved_spec_round_trips_and_recomputes_config_hashes() {
        let spec = GridSpec::parse(MINIMAL)
            .unwrap()
            .resolve(5, false)
            .unwrap()
            .spec;
        let json = spec.to_json();
        let back = ExperimentSpec::from_json(&json).expect("own encoding decodes");
        assert_eq!(back.hash(), spec.hash());
        assert_eq!(
            back.enumerate_jobs()[1].config_hash,
            spec.enumerate_jobs()[1].config_hash
        );
        // A forged per-scenario hash is recomputed away, so the decoded
        // spec no longer carries the identity the forged text had.
        let forged = serde_json::to_string(&json).unwrap().replace(
            &format!("{:016x}", config_hash(&spec.scenarios[0].base)),
            "0000000000000000",
        );
        let forged = serde_json::parse(&forged).unwrap();
        let decoded = ExperimentSpec::from_json(&forged).expect("still decodes");
        assert_eq!(decoded.hash(), spec.hash());
        assert_ne!(
            fnv1a64(serde_json::to_string(&forged).unwrap().as_bytes()),
            spec.hash()
        );
    }
}
