//! LEACH round and epoch bookkeeping.
//!
//! LEACH time is divided into rounds; each round begins with cluster-head
//! election and cluster formation, followed by a (much longer) steady-state
//! data-transfer phase.  The paper does not state its round length; LEACH
//! implementations conventionally use ~20 s, which we adopt as the default
//! and expose for the ablation bench.

use caem_simcore::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Round timing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundConfig {
    /// Duration of one round (election + steady state).
    pub round_duration: Duration,
    /// Portion of the round consumed by election/formation signalling before
    /// the steady-state data phase begins.
    pub setup_duration: Duration,
}

impl Default for RoundConfig {
    fn default() -> Self {
        RoundConfig {
            round_duration: Duration::from_secs(20),
            setup_duration: Duration::from_millis(100),
        }
    }
}

/// Maps simulation time to LEACH round numbers and phase boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundClock {
    config: RoundConfig,
}

impl RoundClock {
    /// Create a round clock.
    pub fn new(config: RoundConfig) -> Self {
        assert!(
            config.round_duration > config.setup_duration,
            "round must be longer than its setup phase"
        );
        RoundClock { config }
    }

    /// The round number containing time `t` (round 0 starts at t = 0).
    fn round_at(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.config.round_duration.as_nanos()
    }

    /// Start time of round `r`.
    fn round_start(&self, round: u64) -> SimTime {
        SimTime::from_nanos(round * self.config.round_duration.as_nanos())
    }

    /// Start time of the round after the one containing `t`.
    pub fn next_round_start(&self, t: SimTime) -> SimTime {
        self.round_start(self.round_at(t) + 1)
    }
}

impl Default for RoundClock {
    fn default() -> Self {
        RoundClock::new(RoundConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_numbering() {
        let clock = RoundClock::default();
        assert_eq!(clock.round_at(SimTime::ZERO), 0);
        assert_eq!(clock.round_at(SimTime::from_secs(19)), 0);
        assert_eq!(clock.round_at(SimTime::from_secs(20)), 1);
        assert_eq!(clock.round_at(SimTime::from_secs(605)), 30);
    }

    #[test]
    fn round_boundaries() {
        let clock = RoundClock::default();
        assert_eq!(clock.round_start(0), SimTime::ZERO);
        assert_eq!(clock.round_start(3), SimTime::from_secs(60));
        assert_eq!(
            clock.next_round_start(SimTime::from_secs(25)),
            SimTime::from_secs(40)
        );
    }

    #[test]
    fn custom_round_length() {
        let clock = RoundClock::new(RoundConfig {
            round_duration: Duration::from_secs(5),
            setup_duration: Duration::from_millis(200),
        });
        assert_eq!(clock.round_at(SimTime::from_secs(12)), 2);
        assert_eq!(clock.round_start(2), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic]
    fn setup_longer_than_round_rejected() {
        RoundClock::new(RoundConfig {
            round_duration: Duration::from_millis(50),
            setup_duration: Duration::from_millis(100),
        });
    }
}
