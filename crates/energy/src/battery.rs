//! Battery and energy-ledger accounting for one sensor node.
//!
//! The paper's headline metrics — average remaining energy (Fig. 8), nodes
//! alive over time (Fig. 9), network lifetime (Fig. 10) and energy per
//! delivered packet (Fig. 11) — all reduce to "how many joules has each node
//! drawn, and on what".  [`Battery`] tracks the remaining charge; the
//! embedded [`EnergyLedger`] attributes every drawn joule to a category so
//! the per-packet and per-activity breakdowns can be reported.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What a unit of energy was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnergyCategory {
    /// Data-radio transmission of frames that were delivered successfully.
    DataTransmit,
    /// Data-radio transmission that ended in a collision (wasted energy).
    CollisionWaste,
    /// Data-radio reception (cluster-head side).
    DataReceive,
    /// Data-radio sleep current.
    Sleep,
    /// Data-radio start-up transients.
    Startup,
    /// Tone-radio transmission (cluster head broadcasting pulses).
    ToneTransmit,
    /// Tone-radio reception / channel monitoring (sensor side).
    ToneReceive,
    /// FEC encoding/decoding computation (zero under the paper's assumption).
    Codec,
    /// Sensing and other non-radio activity (not modelled by the paper; kept
    /// for extensions).
    Other,
}

impl EnergyCategory {
    /// All categories, for iteration in reports.
    pub const ALL: [EnergyCategory; 9] = [
        EnergyCategory::DataTransmit,
        EnergyCategory::CollisionWaste,
        EnergyCategory::DataReceive,
        EnergyCategory::Sleep,
        EnergyCategory::Startup,
        EnergyCategory::ToneTransmit,
        EnergyCategory::ToneReceive,
        EnergyCategory::Codec,
        EnergyCategory::Other,
    ];

    fn index(self) -> usize {
        match self {
            EnergyCategory::DataTransmit => 0,
            EnergyCategory::CollisionWaste => 1,
            EnergyCategory::DataReceive => 2,
            EnergyCategory::Sleep => 3,
            EnergyCategory::Startup => 4,
            EnergyCategory::ToneTransmit => 5,
            EnergyCategory::ToneReceive => 6,
            EnergyCategory::Codec => 7,
            EnergyCategory::Other => 8,
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EnergyCategory::DataTransmit => "data-tx",
            EnergyCategory::CollisionWaste => "collision",
            EnergyCategory::DataReceive => "data-rx",
            EnergyCategory::Sleep => "sleep",
            EnergyCategory::Startup => "startup",
            EnergyCategory::ToneTransmit => "tone-tx",
            EnergyCategory::ToneReceive => "tone-rx",
            EnergyCategory::Codec => "codec",
            EnergyCategory::Other => "other",
        };
        f.write_str(s)
    }
}

/// Per-category record of energy drawn, in joules.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    joules: [f64; 9],
}

impl EnergyLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `joules` against `category`.
    pub fn record(&mut self, category: EnergyCategory, joules: f64) {
        debug_assert!(joules >= 0.0, "cannot record negative energy");
        self.joules[category.index()] += joules;
    }

    /// Total joules drawn in `category`.
    pub fn by_category(&self, category: EnergyCategory) -> f64 {
        self.joules[category.index()]
    }

    /// Total joules drawn across all categories.
    pub fn total(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Joules drawn by the radio while actually moving data (tx + rx),
    /// excluding overheads.
    pub fn useful_radio(&self) -> f64 {
        self.by_category(EnergyCategory::DataTransmit)
            + self.by_category(EnergyCategory::DataReceive)
    }

    /// Joules wasted on collisions, startups and idle listening overheads.
    pub fn overhead(&self) -> f64 {
        self.by_category(EnergyCategory::CollisionWaste)
            + self.by_category(EnergyCategory::Startup)
            + self.by_category(EnergyCategory::ToneTransmit)
            + self.by_category(EnergyCategory::ToneReceive)
    }

    /// Merge another ledger into this one (for network-wide aggregation).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (a, b) in self.joules.iter_mut().zip(other.joules.iter()) {
            *a += b;
        }
    }
}

/// A node's battery: finite initial energy, drawn down by the ledger.
///
/// Depletion is not stored: draws are non-negative, so `drawn_j` only
/// grows and `drawn_j >= initial_j` holds from the depleting draw onwards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Battery {
    initial_j: f64,
    drawn_j: f64,
    ledger: EnergyLedger,
}

impl Battery {
    /// A battery with the paper's initial charge of 10 J.
    pub fn paper_default() -> Self {
        Battery::new(10.0)
    }

    /// A battery with `initial_j` joules of charge.
    pub fn new(initial_j: f64) -> Self {
        assert!(initial_j > 0.0, "battery must start with positive charge");
        Battery {
            initial_j,
            drawn_j: 0.0,
            ledger: EnergyLedger::new(),
        }
    }

    /// Initial charge in joules.
    pub fn initial(&self) -> f64 {
        self.initial_j
    }

    /// Remaining charge in joules (clamped at zero).
    pub fn remaining(&self) -> f64 {
        (self.initial_j - self.drawn_j).max(0.0)
    }

    /// Remaining charge as a fraction of the initial charge.
    pub fn fraction_remaining(&self) -> f64 {
        self.remaining() / self.initial_j
    }

    /// Total energy drawn so far (may exceed `initial` by the final draw that
    /// crossed zero).
    pub fn drawn(&self) -> f64 {
        self.drawn_j
    }

    /// Has the battery run out?
    pub fn is_depleted(&self) -> bool {
        self.drawn_j >= self.initial_j
    }

    /// Draw `joules` for `category`.  Returns `true` if this draw depleted
    /// the battery (i.e. it was alive before and is dead after) — the caller
    /// uses that edge to record the node-death time exactly once.
    pub fn draw(&mut self, category: EnergyCategory, joules: f64) -> bool {
        assert!(joules >= 0.0, "cannot draw negative energy");
        if self.is_depleted() {
            return false;
        }
        self.drawn_j += joules;
        self.ledger.record(category, joules);
        self.is_depleted()
    }

    /// The per-category ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_battery_is_10_joules() {
        let b = Battery::paper_default();
        assert_eq!(b.initial(), 10.0);
        assert_eq!(b.remaining(), 10.0);
        assert_eq!(b.fraction_remaining(), 1.0);
        assert!(!b.is_depleted());
    }

    #[test]
    fn draws_accumulate_and_deplete() {
        let mut b = Battery::new(1.0);
        assert!(!b.draw(EnergyCategory::DataTransmit, 0.4));
        assert!(!b.draw(EnergyCategory::DataReceive, 0.4));
        assert!((b.remaining() - 0.2).abs() < 1e-12);
        // The draw that crosses zero reports the depletion edge exactly once.
        assert!(b.draw(EnergyCategory::Sleep, 0.3));
        assert!(b.is_depleted());
        assert_eq!(b.remaining(), 0.0);
        // Further draws are ignored and do not re-report depletion.
        assert!(!b.draw(EnergyCategory::DataTransmit, 5.0));
        assert!((b.drawn() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn ledger_attributes_energy_by_category() {
        let mut b = Battery::new(10.0);
        b.draw(EnergyCategory::DataTransmit, 1.0);
        b.draw(EnergyCategory::DataTransmit, 0.5);
        b.draw(EnergyCategory::ToneReceive, 0.25);
        b.draw(EnergyCategory::Startup, 0.1);
        let l = b.ledger();
        assert!((l.by_category(EnergyCategory::DataTransmit) - 1.5).abs() < 1e-12);
        assert!((l.by_category(EnergyCategory::ToneReceive) - 0.25).abs() < 1e-12);
        assert_eq!(l.by_category(EnergyCategory::DataReceive), 0.0);
        assert!((l.total() - 1.85).abs() < 1e-12);
        assert!((l.useful_radio() - 1.5).abs() < 1e-12);
        assert!((l.overhead() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn ledger_merge_sums_categories() {
        let mut a = EnergyLedger::new();
        a.record(EnergyCategory::Sleep, 1.0);
        a.record(EnergyCategory::DataTransmit, 2.0);
        let mut b = EnergyLedger::new();
        b.record(EnergyCategory::Sleep, 0.5);
        b.record(EnergyCategory::Codec, 0.25);
        a.merge(&b);
        assert!((a.by_category(EnergyCategory::Sleep) - 1.5).abs() < 1e-12);
        assert!((a.by_category(EnergyCategory::Codec) - 0.25).abs() < 1e-12);
        assert!((a.total() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn all_categories_enumerated_once() {
        let mut indices: Vec<usize> = EnergyCategory::ALL.iter().map(|c| c.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), EnergyCategory::ALL.len());
        // Display labels are unique and non-empty.
        let labels: std::collections::HashSet<String> =
            EnergyCategory::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(labels.len(), EnergyCategory::ALL.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn fraction_remaining_decreases_monotonically() {
        let mut b = Battery::new(2.0);
        let mut prev = b.fraction_remaining();
        for _ in 0..10 {
            b.draw(EnergyCategory::DataReceive, 0.1);
            let f = b.fraction_remaining();
            assert!(f <= prev);
            prev = f;
        }
    }

    #[test]
    #[should_panic]
    fn negative_initial_charge_rejected() {
        Battery::new(0.0);
    }

    #[test]
    #[should_panic]
    fn negative_draw_rejected() {
        let mut b = Battery::new(1.0);
        b.draw(EnergyCategory::Other, -0.1);
    }
}
