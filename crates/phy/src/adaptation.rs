//! Burst-by-burst mode selection from measured CSI.
//!
//! Section II-B: "when CSI is available at the transmitter, the transmitter
//! performs burst-by-burst throughput adaptation with respect to the CSI".
//! [`ModeSelector`] implements that adaptation, optionally with hysteresis so
//! a link sitting exactly on a switching threshold does not flap between
//! modes on every burst (an extension knob exercised by the ablation bench).

use serde::{Deserialize, Serialize};

use crate::mode::TransmissionMode;

/// How the transmitter picks a mode from the measured SNR.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AdaptationPolicy {
    /// Pick the highest mode the instantaneous SNR supports (the paper).
    #[default]
    Instantaneous,
    /// Same, but require `margin_db` extra SNR before stepping *up* a class;
    /// stepping down happens immediately.  Reduces mode flapping.
    Hysteresis {
        /// Extra SNR (dB) demanded before upgrading to a faster mode.
        margin_db: f64,
    },
}

/// Stateful per-link mode selector: remembers the last usable mode, which
/// the hysteresis policy steps away from.  The [`AdaptationPolicy`] is
/// scenario-wide and passed to every selection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ModeSelector {
    last_mode: Option<TransmissionMode>,
}

impl ModeSelector {
    /// A selector with no mode history.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mode chosen by the previous call, if any.
    pub fn last_mode(&self) -> Option<TransmissionMode> {
        self.last_mode
    }

    /// Select a mode for the next burst given the measured data-channel SNR.
    ///
    /// Returns `None` when the link cannot sustain even the lowest mode; the
    /// MAC then defers the transmission (that is exactly the situation CAEM's
    /// buffering exploits).
    pub fn select(&mut self, policy: &AdaptationPolicy, snr_db: f64) -> Option<TransmissionMode> {
        let raw = TransmissionMode::best_for_snr(snr_db);
        let chosen = match (*policy, raw, self.last_mode) {
            (AdaptationPolicy::Instantaneous, raw, _) => raw,
            (AdaptationPolicy::Hysteresis { .. }, None, _) => None,
            (AdaptationPolicy::Hysteresis { margin_db }, Some(raw_mode), Some(prev)) => {
                if raw_mode.class_index() < prev.class_index() {
                    // Candidate upgrade: demand the margin on top of the
                    // candidate's own requirement.
                    if snr_db >= raw_mode.required_snr_db() + margin_db {
                        Some(raw_mode)
                    } else {
                        // Stay at the previous mode if it is still supported,
                        // otherwise fall to whatever is.
                        if prev.supports_snr(snr_db) {
                            Some(prev)
                        } else {
                            Some(raw_mode)
                        }
                    }
                } else {
                    Some(raw_mode)
                }
            }
            (AdaptationPolicy::Hysteresis { .. }, Some(raw_mode), None) => Some(raw_mode),
        };
        if chosen.is_some() {
            self.last_mode = chosen;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INSTANT: &AdaptationPolicy = &AdaptationPolicy::Instantaneous;

    #[test]
    fn instantaneous_tracks_best_mode() {
        let mut s = ModeSelector::default();
        assert_eq!(s.select(INSTANT, 30.0), Some(TransmissionMode::Mbps2));
        assert_eq!(s.select(INSTANT, 17.0), Some(TransmissionMode::Mbps1));
        assert_eq!(s.select(INSTANT, 11.0), Some(TransmissionMode::Kbps450));
        assert_eq!(s.select(INSTANT, 7.0), Some(TransmissionMode::Kbps250));
        assert_eq!(s.select(INSTANT, 1.0), None);
        assert_eq!(s.last_mode(), Some(TransmissionMode::Kbps250));
    }

    #[test]
    fn hysteresis_delays_upgrades() {
        let h = &AdaptationPolicy::Hysteresis { margin_db: 3.0 };
        let mut s = ModeSelector::new();
        // Start at 1 Mbps.
        assert_eq!(s.select(h, 17.0), Some(TransmissionMode::Mbps1));
        // SNR creeps just over the 2 Mbps threshold (22 dB) but not by the
        // 3 dB margin: stay at 1 Mbps.
        assert_eq!(s.select(h, 23.0), Some(TransmissionMode::Mbps1));
        // Clears the margin: upgrade.
        assert_eq!(s.select(h, 25.5), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn hysteresis_downgrades_immediately() {
        let h = &AdaptationPolicy::Hysteresis { margin_db: 3.0 };
        let mut s = ModeSelector::new();
        assert_eq!(s.select(h, 30.0), Some(TransmissionMode::Mbps2));
        assert_eq!(s.select(h, 12.0), Some(TransmissionMode::Kbps450));
    }

    #[test]
    fn hysteresis_first_selection_has_no_margin() {
        let h = &AdaptationPolicy::Hysteresis { margin_db: 5.0 };
        let mut s = ModeSelector::new();
        assert_eq!(s.select(h, 22.5), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn hysteresis_falls_back_when_previous_unsupported() {
        let h = &AdaptationPolicy::Hysteresis { margin_db: 10.0 };
        let mut s = ModeSelector::new();
        assert_eq!(s.select(h, 10.5), Some(TransmissionMode::Kbps450));
        // SNR rises but the previous mode is *also* no longer the limiter;
        // the raw candidate (1 Mbps at 16.5) doesn't clear the 10 dB margin,
        // previous (450 kbps) still supported → stay.
        assert_eq!(s.select(h, 16.5), Some(TransmissionMode::Kbps450));
    }

    #[test]
    fn unusable_channel_keeps_last_mode_memory() {
        let mut s = ModeSelector::default();
        s.select(INSTANT, 25.0);
        assert_eq!(s.select(INSTANT, 0.0), None);
        // Memory of the last *usable* mode survives an outage.
        assert_eq!(s.last_mode(), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn default_policy_is_instantaneous() {
        assert_eq!(AdaptationPolicy::default(), AdaptationPolicy::Instantaneous);
    }
}
