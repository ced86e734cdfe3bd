//! Node-death tracking: the Fig. 9 nodes-alive curve and the Fig. 10 network
//! lifetime definition.
//!
//! The paper calls the network "dead" once the fraction of exhausted nodes
//! exceeds a cut-off (the printed value is garbled in the scanned text; 80 %
//! is the conventional LEACH-literature choice and is what we default to,
//! with the fraction exposed for sensitivity checks).

use caem_simcore::stats::TimeSeries;
use caem_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Default fraction of dead nodes at which the network counts as dead.
pub const DEFAULT_DEATH_FRACTION: f64 = 0.8;

/// Tracks node deaths over time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifetimeTracker {
    node_count: usize,
    death_times: Vec<Option<SimTime>>,
    alive_series: TimeSeries,
    /// Running count of still-alive nodes, kept so `record_death` is O(1).
    /// Deaths arrive in event-time order from the simulation loop, so the
    /// counter always matches what an `alive_at(time)` scan would report —
    /// without the O(n) scan per death that made a full network die-off
    /// O(n²).
    alive_now: usize,
}

impl LifetimeTracker {
    /// Create a tracker for `node_count` initially alive nodes.
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "need at least one node");
        let mut alive_series = TimeSeries::new("nodes_alive");
        alive_series.push(0.0, node_count as f64);
        LifetimeTracker {
            node_count,
            death_times: vec![None; node_count],
            alive_series,
            alive_now: node_count,
        }
    }

    /// Record that `node` depleted its battery at `time`.  Repeated reports
    /// for the same node are ignored (the first death stands).  Deaths must
    /// be reported in non-decreasing time order (as the event loop does).
    pub fn record_death(&mut self, node: usize, time: SimTime) {
        assert!(node < self.node_count, "node index out of range");
        if self.death_times[node].is_none() {
            self.death_times[node] = Some(time);
            self.alive_now -= 1;
            self.alive_series.push_at(time, self.alive_now as f64);
        }
    }

    /// Number of nodes alive at `time`.
    pub fn alive_at(&self, time: SimTime) -> usize {
        self.death_times
            .iter()
            .filter(|d| match d {
                Some(t) => *t > time,
                None => true,
            })
            .count()
    }

    /// Number of nodes that have died so far.
    pub fn dead_count(&self) -> usize {
        self.death_times.iter().filter(|d| d.is_some()).count()
    }

    /// The time of the first node death, if any (the "first node dies"
    /// lifetime definition used by some of the cited work).
    pub fn first_death(&self) -> Option<SimTime> {
        self.death_times.iter().flatten().min().copied()
    }

    /// Network lifetime under the paper's rule: the instant at which the
    /// fraction of dead nodes first exceeds `death_fraction`.  `None` when
    /// the network never died during the run.
    pub fn network_lifetime(&self, death_fraction: f64) -> Option<SimTime> {
        assert!(
            (0.0..=1.0).contains(&death_fraction),
            "death fraction must be in [0, 1]"
        );
        let needed = ((self.node_count as f64) * death_fraction).floor() as usize + 1;
        let needed = needed.min(self.node_count);
        let mut times: Vec<SimTime> = self.death_times.iter().flatten().copied().collect();
        if times.len() < needed {
            return None;
        }
        times.sort_unstable();
        Some(times[needed - 1])
    }

    /// The nodes-alive time series (Fig. 9).
    pub fn alive_series(&self) -> &TimeSeries {
        &self.alive_series
    }

    /// Per-node death times (None = still alive).
    pub fn death_times(&self) -> &[Option<SimTime>] {
        &self.death_times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alive_count_follows_deaths() {
        let mut t = LifetimeTracker::new(5);
        assert_eq!(t.alive_at(SimTime::from_secs(100)), 5);
        t.record_death(2, SimTime::from_secs(50));
        t.record_death(4, SimTime::from_secs(150));
        assert_eq!(t.alive_at(SimTime::from_secs(10)), 5);
        assert_eq!(t.alive_at(SimTime::from_secs(60)), 4);
        assert_eq!(t.alive_at(SimTime::from_secs(200)), 3);
        assert_eq!(t.dead_count(), 2);
        assert_eq!(t.first_death(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn duplicate_death_reports_are_ignored() {
        let mut t = LifetimeTracker::new(3);
        t.record_death(0, SimTime::from_secs(10));
        t.record_death(0, SimTime::from_secs(99));
        assert_eq!(t.first_death(), Some(SimTime::from_secs(10)));
        assert_eq!(t.dead_count(), 1);
    }

    #[test]
    fn network_lifetime_with_80_percent_rule() {
        let mut t = LifetimeTracker::new(10);
        // Kill 9 of 10 nodes at known times.
        for (i, secs) in (0..9).zip([100u64, 110, 120, 130, 140, 150, 160, 170, 180]) {
            t.record_death(i, SimTime::from_secs(secs));
        }
        // 80 % of 10 = 8 dead needed to *exceed*: the 9th death crosses it.
        assert_eq!(
            t.network_lifetime(DEFAULT_DEATH_FRACTION),
            Some(SimTime::from_secs(180))
        );
        // With a 50 % rule the 6th death is the lifetime.
        assert_eq!(t.network_lifetime(0.5), Some(SimTime::from_secs(150)));
        // A 100 % rule needs every node dead.
        assert_eq!(t.network_lifetime(1.0), None);
        t.record_death(9, SimTime::from_secs(300));
        assert_eq!(t.network_lifetime(1.0), Some(SimTime::from_secs(300)));
    }

    #[test]
    fn lifetime_none_when_not_enough_deaths() {
        let mut t = LifetimeTracker::new(100);
        for i in 0..50 {
            t.record_death(i, SimTime::from_secs(i as u64));
        }
        assert_eq!(t.network_lifetime(0.8), None);
    }

    #[test]
    fn alive_series_is_recorded() {
        let mut t = LifetimeTracker::new(4);
        t.record_death(0, SimTime::from_secs(10));
        t.record_death(1, SimTime::from_secs(20));
        let s = t.alive_series();
        assert_eq!(s.samples()[0], (0.0, 4.0));
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((20.0, 2.0)));
    }

    #[test]
    fn running_alive_counter_matches_scan() {
        // The O(1) counter in record_death must agree with an explicit
        // alive_at scan at every recorded death instant, including ties.
        let mut t = LifetimeTracker::new(50);
        let deaths: Vec<(usize, u64)> = (0..40).map(|i| (i, 10 + (i as u64 / 3) * 5)).collect();
        for &(node, secs) in &deaths {
            t.record_death(node, SimTime::from_secs(secs));
        }
        for &(t_secs, alive) in t.alive_series().samples().iter().skip(1) {
            let scan = t.alive_at(SimTime::from_secs_f64(t_secs));
            // At a tie instant the series records the running count after
            // each individual death, so the final sample at that time must
            // match the scan; intermediate tie samples are upper bounds.
            assert!(alive as usize >= scan);
        }
        let last = t.alive_series().last().unwrap();
        assert_eq!(last.1 as usize, t.alive_at(SimTime::from_secs(10_000)));
        assert_eq!(t.dead_count(), 40);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_rejected() {
        let mut t = LifetimeTracker::new(2);
        t.record_death(5, SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_rejected() {
        let t = LifetimeTracker::new(2);
        t.network_lifetime(1.5);
    }
}
