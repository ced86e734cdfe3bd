//! Scenario configuration (Table II plus the protocol variant under test).

use caem::config::CaemConfig;
use caem::policy::PolicyKind;
use caem_channel::geometry::Position;
use caem_channel::link::LinkBudget;
use caem_channel::pathloss::PathLossModel;
use caem_channel::shadowing::ShadowingConfig;
use caem_channel::Field;
use caem_cluster::rounds::RoundConfig;
use caem_energy::codec::CodecEnergyModel;
use caem_energy::power::RadioPowerProfile;
use caem_mac::backoff::BackoffConfig;
use caem_mac::burst::BurstPolicy;
use caem_mac::tone::ToneSchedule;
use caem_phy::frame::FrameSpec;
use caem_simcore::rng::StreamRng;
use caem_simcore::time::Duration;
use serde::{Deserialize, Serialize};

/// A typed configuration error, carrying the path of the offending field.
///
/// Every variant names the field (as a dotted path into the serialized
/// configuration or spec document, with `[i]` indices into arrays) plus the
/// data needed to explain the violation, so CLIs can surface the error
/// verbatim and tests can assert on the *class* of mistake instead of
/// matching prose.  The first group of variants covers value-domain errors
/// ([`ScenarioConfig::validate`]); the second covers structural errors in
/// declarative spec documents ([`crate::spec::GridSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A value that must be strictly positive was zero or negative.
    NonPositive {
        /// Dotted field path.
        path: String,
        /// The offending value.
        value: f64,
    },
    /// A value that must be non-negative was negative.
    Negative {
        /// Dotted field path.
        path: String,
        /// The offending value.
        value: f64,
    },
    /// A value outside its legal interval.
    OutOfRange {
        /// Dotted field path.
        path: String,
        /// The offending value.
        value: f64,
        /// The legal interval, in mathematical notation (e.g. `(0, 1]`).
        expected: &'static str,
    },
    /// A spec-document field no schema element matches (misspelled or
    /// unsupported) — never silently ignored.
    UnknownField {
        /// Dotted field path of the unknown key.
        path: String,
    },
    /// A required spec-document field is missing.
    MissingField {
        /// Dotted field path of the missing key.
        path: String,
    },
    /// A spec-document field holds the wrong JSON type.
    WrongType {
        /// Dotted field path.
        path: String,
        /// What the schema expects there (e.g. `"number"`, `"object"`).
        expected: &'static str,
    },
    /// An enumerated spec-document string matches no known variant.
    UnknownVariant {
        /// Dotted field path.
        path: String,
        /// The unrecognised value.
        value: String,
        /// The accepted variant names.
        expected: &'static [&'static str],
    },
    /// Two spec-document fields that cannot be given together (conflicting
    /// axes, e.g. `replicates` *and* an explicit `seeds` list).
    ConflictingFields {
        /// Dotted path of the field kept.
        path: String,
        /// Dotted path of the field it conflicts with.
        other: String,
    },
    /// An axis that must hold distinct entries holds a duplicate.
    DuplicateEntry {
        /// Dotted field path of the axis.
        path: String,
        /// The duplicated entry, rendered as text.
        value: String,
    },
    /// An axis that must be non-empty is empty.
    EmptyAxis {
        /// Dotted field path of the axis.
        path: String,
    },
    /// The spec document declares a format version this build cannot read.
    UnsupportedVersion {
        /// Dotted field path of the version marker.
        path: String,
        /// The version the document declares.
        found: u64,
        /// The version this build supports.
        supported: u64,
    },
    /// A value-domain error inside the configuration one spec scenario
    /// resolves to, wrapped with the scenario's label for context.
    InScenario {
        /// The scenario's label.
        label: String,
        /// The underlying error (paths are into the resolved config).
        source: Box<ConfigError>,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositive { path, value } => {
                write!(f, "`{path}` must be positive (got {value})")
            }
            ConfigError::Negative { path, value } => {
                write!(f, "`{path}` must be non-negative (got {value})")
            }
            ConfigError::OutOfRange {
                path,
                value,
                expected,
            } => write!(f, "`{path}` must be in {expected} (got {value})"),
            ConfigError::UnknownField { path } => write!(f, "unknown field `{path}`"),
            ConfigError::MissingField { path } => write!(f, "missing required field `{path}`"),
            ConfigError::WrongType { path, expected } => {
                write!(f, "`{path}` must be a {expected}")
            }
            ConfigError::UnknownVariant {
                path,
                value,
                expected,
            } => write!(
                f,
                "`{path}` has unknown value `{value}` (expected one of {expected:?})"
            ),
            ConfigError::ConflictingFields { path, other } => {
                write!(
                    f,
                    "`{path}` conflicts with `{other}`; give one or the other"
                )
            }
            ConfigError::DuplicateEntry { path, value } => {
                write!(f, "`{path}` holds duplicate entry {value}")
            }
            ConfigError::EmptyAxis { path } => write!(f, "`{path}` must not be empty"),
            ConfigError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "`{path}` declares version {found} (this build reads version {supported})"
            ),
            ConfigError::InScenario { label, source } => {
                write!(f, "scenario `{label}`: {source}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Wrap a value-domain error with the label of the scenario whose
    /// resolved configuration it was found in.
    pub fn in_scenario(self, label: &str) -> Self {
        ConfigError::InScenario {
            label: label.to_string(),
            source: Box::new(self),
        }
    }
}

/// `Ok(())` when `value > 0`, else [`ConfigError::NonPositive`] at `path`.
fn require_positive(path: &str, value: f64) -> Result<(), ConfigError> {
    if value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositive {
            path: path.to_string(),
            value,
        })
    }
}

/// `Ok(())` when `value >= 0`, else [`ConfigError::Negative`] at `path`.
fn require_non_negative(path: &str, value: f64) -> Result<(), ConfigError> {
    if value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::Negative {
            path: path.to_string(),
            value,
        })
    }
}

/// Which traffic model each sensor runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Homogeneous Poisson arrivals (the paper's workload).
    Poisson {
        /// Per-node packet generation rate (packets/second) — the "added
        /// traffic load" axis of Figs. 10–12.
        rate_pps: f64,
    },
    /// Constant bit rate arrivals.
    Cbr {
        /// Per-node packet rate (packets/second).
        rate_pps: f64,
    },
    /// Two-state bursty arrivals (event-driven sensing).
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

impl TrafficModel {
    /// Long-run per-node packet rate.
    pub fn mean_rate_pps(&self) -> f64 {
        match *self {
            TrafficModel::Poisson { rate_pps } | TrafficModel::Cbr { rate_pps } => rate_pps,
            TrafficModel::Bursty {
                quiet_rate_pps,
                burst_rate_pps,
                mean_quiet_s,
                mean_burst_s,
            } => {
                (quiet_rate_pps * mean_quiet_s + burst_rate_pps * mean_burst_s)
                    / (mean_quiet_s + mean_burst_s)
            }
        }
    }
}

/// Deterministic time-of-day modulation applied to every node's traffic
/// source.  Default-off ([`TrafficProfile::Constant`]) so the paper's
/// stationary workload is untouched; [`TrafficProfile::Diurnal`] warps the
/// arrival process so the instantaneous rate follows a day/night cycle while
/// the long-run mean rate — and every random stream — stay exactly as
/// configured (see [`caem_traffic::profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficProfile {
    /// Stationary traffic (the paper's workload): no modulation.
    Constant,
    /// Sinusoidal diurnal cycle starting at its trough ("midnight") and
    /// peaking half a period later: instantaneous rate =
    /// `mean · (1 − a·cos(2πt/T))`.
    Diurnal {
        /// Cycle period `T` in seconds of virtual time.
        period_s: f64,
        /// Relative amplitude `a` in `[0, 1)`; 0.8 swings the rate between
        /// 0.2× and 1.8× the mean.
        relative_amplitude: f64,
    },
}

/// How the nodes are laid out in the field.
///
/// The paper evaluates a single uniform random deployment; real networks are
/// deployed on grids, around phenomena of interest, or along linear assets.
/// Every generator draws from the scenario's placement stream, so a given
/// seed fixes the deployment exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Uniform random positions over the whole field (the paper's setup).
    Uniform,
    /// Jittered square grid covering the field.
    Grid {
        /// Maximum per-axis jitter from the grid point, in metres.
        jitter_m: f64,
    },
    /// Gaussian hotspot clusters: uniformly placed centres, normal scatter.
    GaussianClusters {
        /// Number of hotspot centres.
        clusters: usize,
        /// Isotropic standard deviation of the scatter around each centre (m).
        sigma_m: f64,
    },
    /// Uniform placement inside a horizontal corridor (pipeline / road /
    /// border-line monitoring), centred vertically.
    Corridor {
        /// Corridor height as a fraction of the field height, in (0, 1].
        width_fraction: f64,
    },
}

impl Topology {
    /// Generate `n` node positions inside `field` from the placement stream.
    pub fn generate(&self, field: &Field, n: usize, rng: &mut StreamRng) -> Vec<Position> {
        match *self {
            Topology::Uniform => field.random_deployment(n, rng),
            Topology::Grid { jitter_m } => field.grid_deployment(n, jitter_m, rng),
            Topology::GaussianClusters { clusters, sigma_m } => {
                field.gaussian_cluster_deployment(n, clusters, sigma_m, rng)
            }
            Topology::Corridor { width_fraction } => {
                field.corridor_deployment(n, width_fraction, rng)
            }
        }
    }

    /// Short machine-readable label used in experiment reports.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Uniform => "uniform",
            Topology::Grid { .. } => "grid",
            Topology::GaussianClusters { .. } => "gaussian_clusters",
            Topology::Corridor { .. } => "corridor",
        }
    }
}

/// Random node-failure (churn) injection: independent of battery depletion,
/// every node draws an exponential failure time (hardware fault, animal,
/// weather) and drops out of the network when it fires within the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean time to failure per node, in seconds.
    pub mean_time_to_failure_s: f64,
}

impl ChurnConfig {
    /// Churn with the given per-node mean time to failure (seconds).
    pub fn with_mttf_s(mean_time_to_failure_s: f64) -> Self {
        ChurnConfig {
            mean_time_to_failure_s,
        }
    }
}

/// Everything needed to run one simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of sensor nodes (Table II: 100).
    pub node_count: usize,
    /// Deployment field (Table II: 100 m × 100 m).
    pub field: Field,
    /// How node positions are generated inside the field.
    pub topology: Topology,
    /// Traffic model per node.
    pub traffic: TrafficModel,
    /// Time-of-day modulation of the traffic model (default
    /// [`TrafficProfile::Constant`], the paper's stationary workload).
    pub traffic_profile: TrafficProfile,
    /// Buffer capacity per node; `None` = unbounded (the Fig. 12 setup).
    pub buffer_capacity: Option<usize>,
    /// Initial battery energy per node in joules (Fig. 8/9: 10 J).
    pub initial_energy_j: f64,
    /// Per-node initial-energy heterogeneity: each node starts with
    /// `initial_energy_j · (1 + u)` where `u` is uniform in
    /// `[-spread, +spread]`.  `0.0` (the paper's setup) keeps all batteries
    /// identical and draws nothing from the heterogeneity stream.
    pub initial_energy_spread: f64,
    /// Optional random node-failure injection; `None` (the paper's setup)
    /// lets nodes die of battery depletion only.
    pub churn: Option<ChurnConfig>,
    /// Which protocol variant to run.
    pub policy: PolicyKind,
    /// CAEM parameters (K, Q_threshold, initial threshold).
    pub caem: CaemConfig,
    /// Virtual time horizon of the run.
    pub duration: Duration,
    /// Master random seed.
    pub seed: u64,
    /// LEACH round timing.
    pub round: RoundConfig,
    /// LEACH cluster-head probability (Table II: 5 %).
    pub ch_probability: f64,
    /// Radiated-power link budget.
    pub link_budget: LinkBudget,
    /// Path-loss model.
    pub path_loss: PathLossModel,
    /// Shadowing process parameters.
    pub shadowing: ShadowingConfig,
    /// Frame layout (Table II: 2-kbit packets).
    pub frame: FrameSpec,
    /// Burst sizing policy (min 3 / max 8).
    pub burst: BurstPolicy,
    /// Backoff parameters (CW = 10, slot 20 µs, r ≤ 6).
    pub backoff: BackoffConfig,
    /// Tone-channel pulse schedule (Table I).
    pub tone: ToneSchedule,
    /// Radio power consumption profile (Table II).
    pub power: RadioPowerProfile,
    /// FEC codec energy model (paper default: neglected).
    pub codec: CodecEnergyModel,
    /// Sensing delay before the first tone observation after wake-up
    /// (Table II: 8 ms).
    pub sensing_delay: Duration,
    /// How long the cluster head takes to detect an incoming burst and switch
    /// its tone broadcast from `idle` to `receive` pulses.  This is the
    /// collision vulnerability window of the tone-signalled CSMA scheme.
    pub ch_detection_delay: Duration,
    /// How often the energy tracker snapshots the network.
    pub energy_snapshot_interval: Duration,
    /// How often the fairness tracker snapshots the queues.
    pub fairness_snapshot_interval: Duration,
}

impl ScenarioConfig {
    /// The Table II scenario for a given protocol, traffic load and seed.
    pub fn paper_default(policy: PolicyKind, traffic_rate_pps: f64, seed: u64) -> Self {
        ScenarioConfig {
            node_count: 100,
            field: Field::paper_default(),
            topology: Topology::Uniform,
            traffic: TrafficModel::Poisson {
                rate_pps: traffic_rate_pps,
            },
            traffic_profile: TrafficProfile::Constant,
            buffer_capacity: Some(50),
            initial_energy_j: 10.0,
            initial_energy_spread: 0.0,
            churn: None,
            policy,
            caem: CaemConfig::paper_default(),
            duration: Duration::from_secs(600),
            seed,
            round: RoundConfig::default(),
            ch_probability: 0.05,
            link_budget: LinkBudget::paper_default(),
            path_loss: PathLossModel::paper_default(),
            shadowing: ShadowingConfig::default(),
            frame: FrameSpec::paper_default(),
            burst: BurstPolicy::paper_default(),
            backoff: BackoffConfig::paper_default(),
            tone: ToneSchedule::paper_default(),
            power: RadioPowerProfile::paper_default(),
            codec: CodecEnergyModel::paper_default(),
            sensing_delay: Duration::from_millis(8),
            ch_detection_delay: Duration::from_micros(500),
            energy_snapshot_interval: Duration::from_secs(5),
            fairness_snapshot_interval: Duration::from_secs(1),
        }
    }

    /// A smaller, faster scenario for unit/integration tests and the
    /// quickstart example: 20 nodes, 60 s horizon.
    pub fn small(policy: PolicyKind, traffic_rate_pps: f64, seed: u64) -> Self {
        let mut cfg = Self::paper_default(policy, traffic_rate_pps, seed);
        cfg.node_count = 20;
        cfg.duration = Duration::from_secs(60);
        cfg
    }

    /// A deployment scaled to `node_count` nodes at the paper's density.
    ///
    /// The Table II scenario is 100 nodes on a 100 m × 100 m field
    /// (0.01 nodes/m²); this keeps that density — the field side grows with
    /// `√(node_count / 100)` — and the head probability, so expected cluster
    /// size and contention per cluster stay at paper scale while the network
    /// grows.  This is the constructor the stress/soak harness and the
    /// node-count scaling benchmarks use for 10⁴–10⁶-node runs.
    pub fn scaled(node_count: usize, policy: PolicyKind, traffic_rate_pps: f64, seed: u64) -> Self {
        let mut cfg = Self::paper_default(policy, traffic_rate_pps, seed);
        assert!(node_count > 0, "scaled scenario needs nodes");
        let side = 100.0 * (node_count as f64 / 100.0).sqrt();
        cfg.node_count = node_count;
        cfg.field = Field::new(side, side);
        cfg
    }

    /// Set the simulated horizon (builder style).
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Set the per-node traffic rate, keeping the traffic model kind.
    pub fn with_traffic_rate(mut self, rate_pps: f64) -> Self {
        self.traffic = match self.traffic {
            TrafficModel::Poisson { .. } => TrafficModel::Poisson { rate_pps },
            TrafficModel::Cbr { .. } => TrafficModel::Cbr { rate_pps },
            bursty => bursty,
        };
        self
    }

    /// Use an unbounded buffer (the Fig. 12 fairness configuration).
    pub fn with_unbounded_buffers(mut self) -> Self {
        self.buffer_capacity = None;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the protocol variant under test, keeping everything else (and in
    /// particular the seed, hence the channel/traffic realisation) fixed —
    /// the common-random-numbers pairing the experiment grid relies on.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Set the deployment topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Modulate every node's traffic with a diurnal cycle of the given
    /// period (seconds) and relative amplitude in `[0, 1)`; the cycle starts
    /// at its trough and the long-run mean rate is unchanged.
    pub fn with_diurnal_traffic(mut self, period_s: f64, relative_amplitude: f64) -> Self {
        self.traffic_profile = TrafficProfile::Diurnal {
            period_s,
            relative_amplitude,
        };
        self
    }

    /// Set the per-node initial-energy spread fraction (see
    /// [`ScenarioConfig::initial_energy_spread`]).
    pub fn with_energy_spread(mut self, spread: f64) -> Self {
        self.initial_energy_spread = spread;
        self
    }

    /// Enable random node-failure injection with the given per-node mean
    /// time to failure (seconds).
    pub fn with_churn_mttf_s(mut self, mean_time_to_failure_s: f64) -> Self {
        self.churn = Some(ChurnConfig::with_mttf_s(mean_time_to_failure_s));
        self
    }

    /// Upper bound on the number of simultaneously pending events under this
    /// scenario's load.
    ///
    /// Peak occupancy is bounded by the simultaneously pending event classes:
    /// one traffic arrival per node (sources schedule exactly one ahead), at
    /// most one MAC timer (sense or backoff) per non-head node, one
    /// transmission-completion per in-flight burst (bounded by the cluster
    /// count, itself bounded by `ch_probability`-scaled expectations), and the
    /// three periodic housekeeping events.  Heavier traffic widens the MAC
    /// duty cycle towards its one-timer-per-node bound rather than adding
    /// queue entries, so the capacity formula needs the node count, the
    /// cluster expectation, and constant slack — not the raw packet rate.
    pub fn initial_queue_capacity(&self) -> usize {
        let expected_heads = (self.node_count as f64 * self.ch_probability).ceil() as usize;
        // One arrival + one MAC timer per node, one completion per possible
        // concurrent burst, housekeeping, plus 25% headroom for transients
        // around round boundaries (stale timers coexisting with fresh ones).
        let peak = 2 * self.node_count + expected_heads + 8;
        peak + peak / 4
    }

    /// Sanity-check the configuration.  Never panics: every violation is
    /// returned as a typed [`ConfigError`] carrying the offending field's
    /// path, so CLIs surface it verbatim and callers can match on the class
    /// of mistake.  The runner validates (and panics on `Err`, since by then
    /// the configuration should have been checked) before deploying.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_positive("node_count", self.node_count as f64)?;
        require_positive("initial_energy_j", self.initial_energy_j)?;
        require_positive("traffic.mean_rate_pps", self.traffic.mean_rate_pps())?;
        if let Some(capacity) = self.buffer_capacity {
            require_positive("buffer_capacity", capacity as f64)?;
        }
        if let TrafficProfile::Diurnal {
            period_s,
            relative_amplitude,
        } = self.traffic_profile
        {
            require_positive("traffic_profile.period_s", period_s)?;
            if !(0.0..1.0).contains(&relative_amplitude) {
                return Err(ConfigError::OutOfRange {
                    path: "traffic_profile.relative_amplitude".to_string(),
                    value: relative_amplitude,
                    expected: "[0, 1)",
                });
            }
        }
        if !(self.ch_probability > 0.0 && self.ch_probability <= 1.0) {
            return Err(ConfigError::OutOfRange {
                path: "ch_probability".to_string(),
                value: self.ch_probability,
                expected: "(0, 1]",
            });
        }
        if self.duration.is_zero() {
            return Err(ConfigError::NonPositive {
                path: "duration".to_string(),
                value: 0.0,
            });
        }
        if !(0.0..1.0).contains(&self.initial_energy_spread) {
            return Err(ConfigError::OutOfRange {
                path: "initial_energy_spread".to_string(),
                value: self.initial_energy_spread,
                expected: "[0, 1)",
            });
        }
        if let Some(churn) = &self.churn {
            require_positive("churn.mean_time_to_failure_s", churn.mean_time_to_failure_s)?;
        }
        match self.topology {
            Topology::Uniform => {}
            Topology::Grid { jitter_m } => {
                require_non_negative("topology.jitter_m", jitter_m)?;
            }
            Topology::GaussianClusters { clusters, sigma_m } => {
                require_positive("topology.clusters", clusters as f64)?;
                require_non_negative("topology.sigma_m", sigma_m)?;
            }
            Topology::Corridor { width_fraction } => {
                if !(width_fraction > 0.0 && width_fraction <= 1.0) {
                    return Err(ConfigError::OutOfRange {
                        path: "topology.width_fraction".to_string(),
                        value: width_fraction,
                        expected: "(0, 1]",
                    });
                }
            }
        }
        if self.energy_snapshot_interval.is_zero() {
            return Err(ConfigError::NonPositive {
                path: "energy_snapshot_interval".to_string(),
                value: 0.0,
            });
        }
        if self.fairness_snapshot_interval.is_zero() {
            return Err(ConfigError::NonPositive {
                path: "fairness_snapshot_interval".to_string(),
                value: 0.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii() {
        let cfg = ScenarioConfig::paper_default(PolicyKind::Scheme1Adaptive, 5.0, 1);
        assert_eq!(cfg.node_count, 100);
        assert_eq!(cfg.field.width, 100.0);
        assert_eq!(cfg.buffer_capacity, Some(50));
        assert_eq!(cfg.initial_energy_j, 10.0);
        assert_eq!(cfg.ch_probability, 0.05);
        assert_eq!(cfg.frame.payload_bits, 2_000);
        assert_eq!(cfg.backoff.contention_window, 10);
        assert_eq!(cfg.sensing_delay, Duration::from_millis(8));
        assert_eq!(cfg.traffic.mean_rate_pps(), 5.0);
        cfg.validate().expect("Table II config is valid");
    }

    #[test]
    fn builders_modify_fields() {
        let cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 2)
            .with_duration(Duration::from_secs(30))
            .with_traffic_rate(12.0)
            .with_unbounded_buffers()
            .with_seed(99);
        assert_eq!(cfg.node_count, 20);
        assert_eq!(cfg.duration, Duration::from_secs(30));
        assert_eq!(cfg.traffic.mean_rate_pps(), 12.0);
        assert_eq!(cfg.buffer_capacity, None);
        assert_eq!(cfg.seed, 99);
        cfg.validate().expect("builder output is valid");
    }

    #[test]
    fn queue_capacity_scales_with_the_deployment() {
        let small = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        let paper = ScenarioConfig::paper_default(PolicyKind::PureLeach, 5.0, 1);
        let small_cap = small.initial_queue_capacity();
        let paper_cap = paper.initial_queue_capacity();
        // At least one arrival and one MAC timer per node, plus headroom.
        assert!(small_cap > 2 * small.node_count);
        assert!(paper_cap > 2 * paper.node_count);
        assert!(paper_cap > small_cap);
    }

    #[test]
    fn bursty_mean_rate() {
        let t = TrafficModel::Bursty {
            quiet_rate_pps: 2.0,
            burst_rate_pps: 42.0,
            mean_quiet_s: 9.0,
            mean_burst_s: 1.0,
        };
        assert!((t.mean_rate_pps() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn config_serializes_round_trip() {
        let cfg = ScenarioConfig::paper_default(PolicyKind::Scheme2Fixed, 10.0, 7);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ScenarioConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.node_count, cfg.node_count);
        assert_eq!(back.policy, cfg.policy);
        assert_eq!(back.seed, cfg.seed);
    }

    #[test]
    fn zero_buffer_capacity_fails_validation() {
        // Buffers hold no capacity of their own: a zero capacity would drop
        // every packet, so the scenario rejects it up front.
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        cfg.buffer_capacity = Some(0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::NonPositive {
                path: "buffer_capacity".to_string(),
                value: 0.0
            })
        );
        cfg.buffer_capacity = None;
        cfg.validate().expect("an unbounded buffer is valid");
    }

    #[test]
    fn zero_nodes_fails_validation_with_a_field_path() {
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        cfg.node_count = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::NonPositive {
                path: "node_count".to_string(),
                value: 0.0
            })
        );
    }

    #[test]
    fn scenario_diversity_builders() {
        let cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 3)
            .with_policy(PolicyKind::Scheme2Fixed)
            .with_topology(Topology::GaussianClusters {
                clusters: 3,
                sigma_m: 10.0,
            })
            .with_energy_spread(0.3)
            .with_churn_mttf_s(900.0);
        assert_eq!(cfg.policy, PolicyKind::Scheme2Fixed);
        assert_eq!(cfg.topology.label(), "gaussian_clusters");
        assert_eq!(cfg.initial_energy_spread, 0.3);
        assert_eq!(
            cfg.churn,
            Some(ChurnConfig {
                mean_time_to_failure_s: 900.0
            })
        );
        cfg.validate().expect("diverse config is valid");
    }

    #[test]
    fn every_topology_generates_in_field_and_deterministically() {
        use caem_simcore::rng::StreamRng;
        let field = Field::paper_default();
        for topology in [
            Topology::Uniform,
            Topology::Grid { jitter_m: 2.0 },
            Topology::GaussianClusters {
                clusters: 4,
                sigma_m: 12.0,
            },
            Topology::Corridor {
                width_fraction: 0.25,
            },
        ] {
            let a = topology.generate(&field, 60, &mut StreamRng::from_seed_u64(9));
            let b = topology.generate(&field, 60, &mut StreamRng::from_seed_u64(9));
            assert_eq!(a.len(), 60);
            assert!(a.iter().all(|p| field.contains(p)), "{topology:?}");
            assert_eq!(a, b, "{topology:?} must be seed-deterministic");
        }
    }

    #[test]
    fn diverse_config_serializes_round_trip() {
        let cfg = ScenarioConfig::paper_default(PolicyKind::Scheme1Adaptive, 8.0, 4)
            .with_topology(Topology::Corridor {
                width_fraction: 0.2,
            })
            .with_energy_spread(0.25)
            .with_churn_mttf_s(1_200.0);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ScenarioConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.topology, cfg.topology);
        assert_eq!(back.initial_energy_spread, cfg.initial_energy_spread);
        assert_eq!(back.churn, cfg.churn);
    }

    #[test]
    fn diurnal_builder_sets_profile_and_round_trips() {
        let cfg =
            ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 4).with_diurnal_traffic(600.0, 0.8);
        assert_eq!(
            cfg.traffic_profile,
            TrafficProfile::Diurnal {
                period_s: 600.0,
                relative_amplitude: 0.8
            }
        );
        assert_eq!(cfg.traffic.mean_rate_pps(), 5.0, "mean load unchanged");
        cfg.validate().expect("diurnal config is valid");
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ScenarioConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.traffic_profile, cfg.traffic_profile);
    }

    #[test]
    fn diurnal_amplitude_of_one_fails_validation() {
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        cfg.traffic_profile = TrafficProfile::Diurnal {
            period_s: 600.0,
            relative_amplitude: 1.0,
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                path: "traffic_profile.relative_amplitude".to_string(),
                value: 1.0,
                expected: "[0, 1)"
            })
        );
    }

    #[test]
    fn energy_spread_of_one_fails_validation() {
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        cfg.initial_energy_spread = 1.0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                path: "initial_energy_spread".to_string(),
                value: 1.0,
                expected: "[0, 1)"
            })
        );
    }

    #[test]
    fn config_error_display_carries_the_field_path_verbatim() {
        let e = ConfigError::OutOfRange {
            path: "ch_probability".to_string(),
            value: 1.5,
            expected: "(0, 1]",
        };
        assert_eq!(
            e.to_string(),
            "`ch_probability` must be in (0, 1] (got 1.5)"
        );
        let wrapped = e.in_scenario("grid_5pps");
        assert_eq!(
            wrapped.to_string(),
            "scenario `grid_5pps`: `ch_probability` must be in (0, 1] (got 1.5)"
        );
        assert_eq!(
            ConfigError::UnknownField {
                path: "scenarios[2].chrun_mttf_s".to_string()
            }
            .to_string(),
            "unknown field `scenarios[2].chrun_mttf_s`"
        );
    }
}
