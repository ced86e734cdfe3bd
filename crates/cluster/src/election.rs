//! LEACH cluster-head election.
//!
//! At the start of round `r`, node `n` draws a uniform random number in
//! `[0, 1)` and becomes cluster head if the draw is below the threshold
//!
//! ```text
//! T(n) = P / (1 − P · (r mod 1/P))   if n ∈ G,
//!        0                            otherwise,
//! ```
//!
//! where `P` is the desired head fraction (paper: 0.05) and `G` is the set of
//! nodes that have **not** served as head in the last `1/P` rounds (the
//! current *epoch*).  Within an epoch every node therefore serves exactly
//! once in expectation, and the threshold rises toward 1 for the remaining
//! candidates as the epoch progresses.

use caem_simcore::rng::StreamRng;
use serde::{Deserialize, Serialize};

/// The paper's desired cluster-head percentage (5 %).
const PAPER_CH_PROBABILITY: f64 = 0.05;

/// Election parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElectionConfig {
    /// Desired fraction of nodes serving as cluster head each round (0 < P ≤ 1).
    pub ch_probability: f64,
}

impl Default for ElectionConfig {
    fn default() -> Self {
        ElectionConfig {
            ch_probability: PAPER_CH_PROBABILITY,
        }
    }
}

impl ElectionConfig {
    /// Number of rounds in one rotation epoch (`1/P`, rounded to nearest).
    fn epoch_length(&self) -> u64 {
        (1.0 / self.ch_probability).round().max(1.0) as u64
    }
}

/// Per-network LEACH election state.
#[derive(Debug, Clone)]
pub struct LeachElection {
    config: ElectionConfig,
    /// `true` while the node is still eligible in the current epoch (∈ G).
    eligible: Vec<bool>,
    /// How many times each node has served as head in total (for fairness
    /// assertions and metrics).
    head_counts: Vec<u64>,
    round: u64,
}

impl LeachElection {
    /// Create the election state for `node_count` nodes.
    pub fn new(node_count: usize, config: ElectionConfig) -> Self {
        assert!(
            config.ch_probability > 0.0 && config.ch_probability <= 1.0,
            "P must be in (0, 1]"
        );
        assert!(node_count > 0, "need at least one node");
        LeachElection {
            config,
            eligible: vec![true; node_count],
            head_counts: vec![0; node_count],
            round: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ElectionConfig {
        self.config
    }

    /// The round that will be drawn next (0-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total number of times each node has served as head.
    pub fn head_counts(&self) -> &[u64] {
        &self.head_counts
    }

    /// The election threshold `T(n)` for node `n` in the upcoming round.
    pub fn threshold(&self, node: usize) -> f64 {
        if !self.eligible[node] {
            return 0.0;
        }
        let p = self.config.ch_probability;
        let r_mod = (self.round % self.config.epoch_length()) as f64;
        let denom = 1.0 - p * r_mod;
        if denom <= 0.0 {
            1.0
        } else {
            (p / denom).min(1.0)
        }
    }

    /// Run the election for the next round.
    ///
    /// `alive` marks which nodes still have battery; dead nodes never become
    /// heads and do not block the epoch rotation.  Returns the indices of the
    /// elected cluster heads.  If no live node elected itself (possible early
    /// in an epoch with few candidates), one live eligible node is forced so
    /// the round — and hence the network — is not lost; this mirrors the
    /// standard LEACH implementation behaviour.
    pub fn elect_round(&mut self, alive: &[bool], rng: &mut StreamRng) -> Vec<usize> {
        assert_eq!(alive.len(), self.eligible.len(), "alive mask size mismatch");
        // Epoch rollover: when nobody is left in G, everybody re-enters.
        if self.eligible.iter().zip(alive).all(|(&e, &a)| !e || !a) {
            for e in &mut self.eligible {
                *e = true;
            }
        }
        let mut heads = Vec::new();
        for (node, &node_alive) in alive.iter().enumerate().take(self.eligible.len()) {
            if !node_alive {
                continue;
            }
            let t = self.threshold(node);
            if rng.next_f64() < t {
                heads.push(node);
            }
        }
        if heads.is_empty() {
            // Force one head among live eligible nodes (or any live node).
            let candidate = (0..alive.len())
                .find(|&n| alive[n] && self.eligible[n])
                .or_else(|| (0..alive.len()).find(|&n| alive[n]));
            if let Some(n) = candidate {
                heads.push(n);
            }
        }
        for &h in &heads {
            self.eligible[h] = false;
            self.head_counts[h] += 1;
        }
        self.round += 1;
        heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_length_from_probability() {
        assert_eq!(ElectionConfig::default().epoch_length(), 20);
        assert_eq!(
            ElectionConfig {
                ch_probability: 0.1
            }
            .epoch_length(),
            10
        );
        assert_eq!(
            ElectionConfig {
                ch_probability: 1.0
            }
            .epoch_length(),
            1
        );
    }

    #[test]
    fn threshold_formula_matches_paper() {
        let e = LeachElection::new(10, ElectionConfig::default());
        // Round 0: T = P.
        assert!((e.threshold(0) - 0.05).abs() < 1e-12);
        let mut e = LeachElection::new(10, ElectionConfig::default());
        e.round = 10; // mid-epoch
                      // T = 0.05 / (1 - 0.05*10) = 0.1
        assert!((e.threshold(0) - 0.1).abs() < 1e-12);
        e.round = 19; // last round of the epoch
                      // T = 0.05 / (1 - 0.95) = 1.0
        assert!((e.threshold(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ineligible_nodes_have_zero_threshold() {
        let mut e = LeachElection::new(
            4,
            ElectionConfig {
                ch_probability: 0.25,
            },
        );
        let alive = vec![true; 4];
        let mut rng = StreamRng::from_seed_u64(1);
        let heads = e.elect_round(&alive, &mut rng);
        for &h in &heads {
            assert_eq!(e.threshold(h), 0.0, "fresh head must leave G");
        }
    }

    #[test]
    fn every_round_has_at_least_one_head() {
        let mut e = LeachElection::new(100, ElectionConfig::default());
        let alive = vec![true; 100];
        let mut rng = StreamRng::from_seed_u64(2);
        for _ in 0..200 {
            let heads = e.elect_round(&alive, &mut rng);
            assert!(!heads.is_empty());
        }
    }

    #[test]
    fn average_head_count_is_close_to_p_times_n() {
        let mut e = LeachElection::new(100, ElectionConfig::default());
        let alive = vec![true; 100];
        let mut rng = StreamRng::from_seed_u64(3);
        let rounds = 400;
        let total: usize = (0..rounds)
            .map(|_| e.elect_round(&alive, &mut rng).len())
            .sum();
        let avg = total as f64 / rounds as f64;
        // Expect about 5 heads per round for P = 0.05, N = 100.
        assert!((avg - 5.0).abs() < 1.0, "average heads per round = {avg}");
    }

    #[test]
    fn rotation_is_fair_over_epochs() {
        let mut e = LeachElection::new(100, ElectionConfig::default());
        let alive = vec![true; 100];
        let mut rng = StreamRng::from_seed_u64(4);
        // 10 epochs worth of rounds.
        for _ in 0..200 {
            e.elect_round(&alive, &mut rng);
        }
        let counts = e.head_counts();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        // Every node served at least a few times and nobody served wildly
        // more than anyone else (LEACH's fairness property).
        assert!(min >= 5, "min head count {min}");
        assert!(max <= 15, "max head count {max}");
    }

    #[test]
    fn within_one_epoch_no_node_serves_twice() {
        let mut e = LeachElection::new(
            40,
            ElectionConfig {
                ch_probability: 0.1,
            },
        );
        let alive = vec![true; 40];
        let mut rng = StreamRng::from_seed_u64(5);
        let mut served = std::collections::HashSet::new();
        // One epoch = 10 rounds; only ~4 heads/round * 10 = 40 nodes, so a
        // double service within the epoch would be a rotation bug.
        for _ in 0..10 {
            for h in e.elect_round(&alive, &mut rng) {
                assert!(served.insert(h), "node {h} served twice in one epoch");
            }
        }
    }

    #[test]
    fn dead_nodes_are_never_elected() {
        let mut e = LeachElection::new(
            10,
            ElectionConfig {
                ch_probability: 0.3,
            },
        );
        let mut alive = vec![true; 10];
        for slot in alive.iter_mut().take(5) {
            *slot = false;
        }
        let mut rng = StreamRng::from_seed_u64(6);
        for _ in 0..50 {
            for h in e.elect_round(&alive, &mut rng) {
                assert!(alive[h], "dead node {h} elected");
            }
        }
    }

    #[test]
    fn epoch_rolls_over_when_everyone_has_served() {
        let mut e = LeachElection::new(
            3,
            ElectionConfig {
                ch_probability: 0.5,
            },
        );
        let alive = vec![true; 3];
        let mut rng = StreamRng::from_seed_u64(7);
        for _ in 0..20 {
            e.elect_round(&alive, &mut rng);
        }
        // All three nodes must have served several times — the epoch reset
        // re-admits them after exhaustion.
        assert!(
            e.head_counts().iter().all(|&c| c >= 2),
            "{:?}",
            e.head_counts()
        );
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        LeachElection::new(
            10,
            ElectionConfig {
                ch_probability: 0.0,
            },
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_alive_mask_rejected() {
        let mut e = LeachElection::new(10, ElectionConfig::default());
        let mut rng = StreamRng::from_seed_u64(1);
        e.elect_round(&[true; 5], &mut rng);
    }
}
