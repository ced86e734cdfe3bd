//! The transmission-threshold policies compared in the paper.
//!
//! A policy answers one question for the MAC at every decision point: *what
//! is the minimum ABICM mode (equivalently, CSI level) this node currently
//! demands before it will spend energy transmitting?*  Plus a secondary one:
//! *is the buffer under enough pressure that the minimum-burst rule should be
//! waived?*
//!
//! [`Policy`] holds one node's policy; [`PolicyKind`] names the scheme.
//!
//! * **Scheme 1** ([`Policy::Adaptive`]) — the full CAEM proposal: the
//!   threshold starts at 2 Mbps; once the queue length reaches
//!   `Q_threshold = 15` the ΔV predictor (sampled every K = 5 arrivals)
//!   lowers the threshold one class while the queue grows and snaps it back
//!   to the highest class once the queue drains.
//! * **Scheme 2** ([`Policy::Fixed`]) — threshold fixed at 2 Mbps; maximal
//!   energy efficiency, no fairness protection.
//! * **Pure LEACH** ([`Policy::PureLeach`]) — the non-channel-adaptive baseline:
//!   no CSI requirement beyond "the link can carry *some* mode".

use caem_phy::TransmissionMode;
use serde::{Deserialize, Serialize};

use crate::config::CaemConfig;
use crate::predictor::{QueuePredictor, Trend};

/// Which protocol variant a policy instance implements (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Pure LEACH without channel adaptation.
    PureLeach,
    /// CAEM-LEACH Scheme 1 (adaptive threshold adjustment).
    Scheme1Adaptive,
    /// CAEM-LEACH Scheme 2 (fixed highest threshold).
    Scheme2Fixed,
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::PureLeach => "pure-LEACH",
            PolicyKind::Scheme1Adaptive => "CAEM-LEACH Scheme 1 (adaptive threshold)",
            PolicyKind::Scheme2Fixed => "CAEM-LEACH Scheme 2 (fixed threshold)",
        };
        f.write_str(s)
    }
}

/// One node's threshold policy: which scheme it runs and, for Scheme 1,
/// its adjustment state.
///
/// A closed enum, so nodes stay allocation-free and the per-event queries
/// (`required_snr_db`, `is_urgent`, arrival notifications) inline into the
/// event loop.  The scenario-wide [`CaemConfig`] is passed to every call.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Pure LEACH: no channel adaptation at all, and no per-node state.
    PureLeach,
    /// Scheme 1: CAEM with adaptive threshold adjustment.
    Adaptive(AdaptiveThreshold),
    /// Scheme 2: the threshold is pinned at the configuration's initial
    /// threshold (the paper's 2 Mbps); no per-node state.
    Fixed,
}

/// Scheme 1's per-node state (Fig. 6 pseudo-code): the ΔV predictor and the
/// threshold currently in force.
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    predictor: QueuePredictor,
    current: TransmissionMode,
}

impl Policy {
    /// One node's policy for protocol variant `kind`, starting at
    /// `config`'s initial threshold.
    pub fn new(kind: PolicyKind, config: &CaemConfig) -> Self {
        match kind {
            PolicyKind::PureLeach => Policy::PureLeach,
            PolicyKind::Scheme1Adaptive => {
                assert!(
                    config.sampling_interval_packets > 0,
                    "sampling interval must be positive"
                );
                Policy::Adaptive(AdaptiveThreshold {
                    predictor: QueuePredictor::new(),
                    current: config.initial_threshold,
                })
            }
            PolicyKind::Scheme2Fixed => Policy::Fixed,
        }
    }

    /// Which scheme this is.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Policy::PureLeach => PolicyKind::PureLeach,
            Policy::Adaptive(_) => PolicyKind::Scheme1Adaptive,
            Policy::Fixed => PolicyKind::Scheme2Fixed,
        }
    }

    /// Notify the policy of a packet arrival; `queue_len` is the buffer
    /// occupancy *after* the enqueue (or after the drop, if the buffer was
    /// full — the pressure signal is the same).
    pub fn on_packet_arrival(&mut self, config: &CaemConfig, queue_len: usize) {
        let Policy::Adaptive(p) = self else { return };
        // The predictor samples on every arrival regardless; the *adjustment*
        // only engages once the queue is past the activation threshold.
        let delta = p
            .predictor
            .on_arrival(config.sampling_interval_packets, queue_len);
        if queue_len < config.queue_threshold {
            return;
        }
        if delta.is_some() {
            match p.predictor.trend() {
                Some(Trend::Growing) => {
                    for _ in 0..config.lower_step_classes {
                        p.current = p.current.one_class_lower();
                    }
                }
                Some(Trend::Draining) => p.current = TransmissionMode::highest(),
                None => {}
            }
        }
    }

    /// Notify the policy that a burst completed; `queue_len` is the occupancy
    /// after the dequeue.
    pub fn on_packets_sent(&mut self, config: &CaemConfig, queue_len: usize) {
        // Once the pressure is relieved Scheme 1 reverts to the
        // energy-optimal threshold; this implements the "increase
        // transmission threshold to the highest value to save energy" branch
        // without waiting for the next sampled arrival.
        if let Policy::Adaptive(p) = self {
            if queue_len < config.queue_threshold {
                p.current = TransmissionMode::highest();
            }
        }
    }

    /// Notify the policy that the node was re-homed to a new cluster head
    /// (LEACH round change): history about the old link/queue dynamics no
    /// longer predicts the new one.
    pub fn on_round_change(&mut self, config: &CaemConfig) {
        if let Policy::Adaptive(p) = self {
            p.predictor.reset();
            p.current = config.initial_threshold;
        }
    }

    /// The transmission threshold currently in force.
    ///
    /// `Some(mode)` demands the data-channel CSI support at least `mode`;
    /// `None` means no channel-quality requirement (pure LEACH) — the MAC
    /// only needs the link to support the lowest mode so the packet can be
    /// modulated at all.
    pub fn current_threshold(&self, config: &CaemConfig) -> Option<TransmissionMode> {
        match self {
            Policy::PureLeach => None,
            Policy::Adaptive(p) => Some(p.current),
            Policy::Fixed => Some(config.initial_threshold),
        }
    }

    /// The minimum data-channel SNR (dB) the MAC should demand right now.
    pub fn required_snr_db(&self, config: &CaemConfig) -> f64 {
        self.current_threshold(config)
            .unwrap_or_else(TransmissionMode::lowest)
            .required_snr_db()
    }

    /// Should the MAC waive the minimum-burst rule because the buffer is
    /// under overflow pressure?  Every scheme waives it at the queue
    /// threshold: the rule exists only to amortise start-up energy, and
    /// waiting for more packets while dropping others is self-defeating.
    pub fn is_urgent(&self, config: &CaemConfig, queue_len: usize) -> bool {
        queue_len >= config.queue_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: &CaemConfig = &CaemConfig {
        sampling_interval_packets: 5,
        queue_threshold: 15,
        initial_threshold: TransmissionMode::Mbps2,
        lower_step_classes: 1,
    };

    fn scheme1(config: &CaemConfig) -> Policy {
        Policy::new(PolicyKind::Scheme1Adaptive, config)
    }

    #[test]
    fn policy_factory_builds_all_kinds() {
        for kind in [
            PolicyKind::PureLeach,
            PolicyKind::Scheme1Adaptive,
            PolicyKind::Scheme2Fixed,
        ] {
            assert_eq!(Policy::new(kind, C).kind(), kind);
        }
    }

    #[test]
    fn pure_leach_has_no_channel_requirement() {
        let p = Policy::PureLeach;
        assert_eq!(p.kind(), PolicyKind::PureLeach);
        assert_eq!(p.current_threshold(C), None);
        // Required SNR falls back to the lowest mode's requirement.
        assert_eq!(
            p.required_snr_db(C),
            TransmissionMode::Kbps250.required_snr_db()
        );
        assert!(!p.is_urgent(C, 5));
        assert!(p.is_urgent(C, 15));
    }

    #[test]
    fn scheme2_threshold_never_moves() {
        let mut p = Policy::Fixed;
        assert_eq!(p.kind(), PolicyKind::Scheme2Fixed);
        for q in [1usize, 10, 20, 45, 50] {
            p.on_packet_arrival(C, q);
            assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
        }
        p.on_packets_sent(C, 0);
        p.on_round_change(C);
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
        assert_eq!(
            p.required_snr_db(C),
            TransmissionMode::Mbps2.required_snr_db()
        );
    }

    #[test]
    fn scheme1_starts_at_highest_threshold() {
        let p = scheme1(C);
        assert_eq!(p.kind(), PolicyKind::Scheme1Adaptive);
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn scheme1_ignores_growth_below_queue_threshold() {
        let mut p = scheme1(C);
        // Queue grows but stays below Q_threshold = 15: no adjustment.
        for q in 1..=14usize {
            p.on_packet_arrival(C, q);
        }
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn scheme1_lowers_one_class_per_growing_sample_above_threshold() {
        let mut p = scheme1(C);
        // Drive the queue well past Q_threshold with one arrival per length
        // increment; a sample is taken every 5 arrivals.
        let mut q = 0usize;
        // First 15 arrivals establish pressure and the first samples.
        for _ in 0..15 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        // Arrival 15 produced the 3rd sample (q=15, above threshold) with a
        // growing delta ⇒ one class down.
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps1));
        for _ in 0..5 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Kbps450));
        for _ in 0..5 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Kbps250));
        // Saturates at the lowest class.
        for _ in 0..10 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Kbps250));
    }

    #[test]
    fn scheme1_snaps_back_to_top_when_queue_drains() {
        let mut p = scheme1(C);
        let mut q = 0usize;
        for _ in 0..20 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        assert_ne!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
        // Queue drains below Q_threshold after a burst: snap to 2 Mbps.
        p.on_packets_sent(C, 8);
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn scheme1_draining_samples_above_threshold_also_raise() {
        let mut p = scheme1(C);
        // Push queue to 25 to lower the threshold.
        let mut q = 0usize;
        for _ in 0..25 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        assert_ne!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
        // Still above Q_threshold but now *draining* between samples
        // (arrivals continue while big bursts are served elsewhere).
        for q_obs in [22usize, 20, 19, 18, 17] {
            p.on_packet_arrival(C, q_obs);
        }
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn scheme1_burst_completion_above_threshold_does_not_raise() {
        let mut p = scheme1(C);
        let mut q = 0usize;
        for _ in 0..25 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        let before = p.current_threshold(C);
        // Burst sent but queue still ≥ Q_threshold: keep the relaxed value.
        p.on_packets_sent(C, 17);
        assert_eq!(p.current_threshold(C), before);
    }

    #[test]
    fn scheme1_round_change_resets_state() {
        let mut p = scheme1(C);
        let mut q = 0usize;
        for _ in 0..25 {
            q += 1;
            p.on_packet_arrival(C, q);
        }
        assert_ne!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
        p.on_round_change(C);
        assert_eq!(p.current_threshold(C), Some(TransmissionMode::Mbps2));
    }

    #[test]
    fn scheme1_urgency_tracks_queue_threshold() {
        let p = scheme1(C);
        assert!(!p.is_urgent(C, 14));
        assert!(p.is_urgent(C, 15));
        assert!(p.is_urgent(C, 50));
    }

    #[test]
    fn scheme1_multi_class_step_ablation() {
        let config = &CaemConfig {
            lower_step_classes: 2,
            ..*C
        };
        let mut p = scheme1(config);
        let mut q = 0usize;
        for _ in 0..15 {
            q += 1;
            p.on_packet_arrival(config, q);
        }
        // One growing sample above threshold drops two classes at once.
        assert_eq!(p.current_threshold(config), Some(TransmissionMode::Kbps450));
    }

    #[test]
    fn policy_kind_display_labels() {
        assert_eq!(PolicyKind::PureLeach.to_string(), "pure-LEACH");
        assert!(PolicyKind::Scheme1Adaptive.to_string().contains("Scheme 1"));
        assert!(PolicyKind::Scheme2Fixed.to_string().contains("Scheme 2"));
    }
}
