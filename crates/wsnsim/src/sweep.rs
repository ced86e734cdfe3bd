//! Protocol comparisons and traffic-load sweeps — the machinery behind the
//! figure binaries.
//!
//! Independent simulations (different protocols, loads, seeds) are
//! embarrassingly parallel.  Both entry points enumerate their full
//! (load × policy) grid into one flat work list and run it through the
//! experiment engine's single parallel layer
//! ([`crate::experiment::run_configs`]), so nothing nests one parallel
//! fan-out inside another.

use caem::policy::PolicyKind;

use crate::config::ScenarioConfig;
use crate::experiment::run_configs;
use crate::result::SimulationResult;

/// The three protocol variants the paper compares, in its plotting order.
pub const PAPER_POLICIES: [PolicyKind; 3] = [
    PolicyKind::PureLeach,
    PolicyKind::Scheme1Adaptive,
    PolicyKind::Scheme2Fixed,
];

/// Results of running every protocol on the same scenario (common random
/// numbers: the channel/traffic realisations share the seed).
pub struct PolicyComparison {
    /// One result per entry of [`PAPER_POLICIES`], same order.
    pub results: Vec<SimulationResult>,
}

impl PolicyComparison {
    /// The result for a given protocol.
    pub fn get(&self, policy: PolicyKind) -> &SimulationResult {
        self.results
            .iter()
            .find(|r| r.policy == policy)
            .expect("all paper policies are simulated")
    }
}

/// Run all three protocols on the scenario produced by `make_config`.
///
/// `make_config` receives the policy so callers can tweak per-policy details
/// while keeping the seed (and hence the channel realisation) shared.
pub fn compare_policies<F>(make_config: F) -> PolicyComparison
where
    F: Fn(PolicyKind) -> ScenarioConfig + Sync,
{
    let configs: Vec<ScenarioConfig> = PAPER_POLICIES
        .iter()
        .map(|&policy| make_config(policy))
        .collect();
    PolicyComparison {
        results: run_configs(&configs),
    }
}

/// One point of a traffic-load sweep.
pub struct LoadSweepPoint {
    /// Per-node traffic load in packets/second.
    pub load_pps: f64,
    /// Results for every protocol at this load.
    pub comparison: PolicyComparison,
}

/// Sweep the per-node traffic load (the x axis of Figs. 10–12), running every
/// protocol at every load.
pub fn load_sweep<F>(loads_pps: &[f64], make_config: F) -> Vec<LoadSweepPoint>
where
    F: Fn(PolicyKind, f64) -> ScenarioConfig + Sync,
{
    // Flatten the whole (load × policy) grid before fanning anything out:
    // one work list, one parallel layer, no nesting.
    let make_config = &make_config;
    let configs: Vec<ScenarioConfig> = loads_pps
        .iter()
        .flat_map(|&load| {
            PAPER_POLICIES
                .iter()
                .map(move |&policy| make_config(policy, load))
        })
        .collect();
    let mut results = run_configs(&configs).into_iter();
    loads_pps
        .iter()
        .map(|&load| LoadSweepPoint {
            load_pps: load,
            comparison: PolicyComparison {
                results: results.by_ref().take(PAPER_POLICIES.len()).collect(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::time::Duration;

    #[test]
    fn comparison_covers_all_policies() {
        let cmp = compare_policies(|policy| {
            ScenarioConfig::small(policy, 5.0, 42).with_duration(Duration::from_secs(20))
        });
        assert_eq!(cmp.results.len(), 3);
        for &p in &PAPER_POLICIES {
            assert_eq!(cmp.get(p).policy, p);
        }
        // Shared seed ⇒ identical offered load across protocols.
        let gen: Vec<u64> = cmp.results.iter().map(|r| r.perf.generated()).collect();
        assert!(gen.iter().all(|&g| g > 0));
    }

    #[test]
    fn load_sweep_produces_one_point_per_load() {
        let points = load_sweep(&[5.0, 10.0], |policy, load| {
            ScenarioConfig::small(policy, load, 7).with_duration(Duration::from_secs(15))
        });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].load_pps, 5.0);
        assert_eq!(points[1].load_pps, 10.0);
        // Higher load generates more packets for every protocol.
        for &p in &PAPER_POLICIES {
            assert!(
                points[1].comparison.get(p).perf.generated()
                    > points[0].comparison.get(p).perf.generated()
            );
        }
    }
}
