//! Sensor-node MAC state machine (Fig. 3 of the paper).
//!
//! States and transitions:
//!
//! ```text
//!            packets queued                channel idle ∧ CSI ≥ threshold
//!   Sleep ───────────────────► Sensing ───────────────────────────────► Backoff
//!     ▲                          ▲  ▲                                      │
//!     │ queue drained            │  │ conditions no longer hold            │ backoff expired,
//!     │ or tone lost             │  └──────────────────────────────────────┘ conditions re-checked
//!     │                          │ collision tone / burst aborted
//!     └────────── Transmitting ◄─┴─────────────────────────────────────────┘
//! ```
//!
//! The struct is a *pure* state machine: every method consumes an observation
//! and returns the [`SensorAction`] the node should carry out (turn a radio
//! on, start a timer, start or abort a burst).  All timing, energy accounting
//! and queue manipulation happen in `caem-wsnsim`, which keeps this logic
//! independently testable.

use caem_simcore::rng::StreamRng;
use caem_simcore::time::Duration;
use serde::{Deserialize, Serialize};

use crate::backoff::{BackoffConfig, BackoffScheduler};
use crate::burst::BurstPolicy;
use crate::tone::{ChannelState, ToneSignal};

/// The MAC-layer state of a sensor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensorMacState {
    /// Both radios off; no packets to send (or cluster head lost).
    Sleep,
    /// Tone radio on, monitoring the channel state and CSI.
    Sensing,
    /// Conditions were satisfied; waiting out the random backoff.
    Backoff,
    /// Data radio on, sending a burst of packets.
    Transmitting,
}

/// What the node should do next, as decided by the state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorAction {
    /// Nothing to do; stay in the current state.
    None,
    /// Turn the tone radio on and start monitoring the channel.
    StartSensing,
    /// Start a backoff timer of the given duration (tone radio stays on).
    StartBackoff(Duration),
    /// Wake the data radio (incurring the start-up cost) and transmit a burst
    /// of `burst_size` packets.
    StartTransmission {
        /// Number of packets to include in the burst.
        burst_size: usize,
    },
    /// Stop the ongoing burst immediately (collision detected) and power the
    /// data radio down.
    AbortTransmission,
    /// Power both radios down and sleep.
    EnterSleep,
}

/// Configuration of the sensor MAC.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SensorMacConfig {
    /// Backoff parameters.
    pub backoff: BackoffConfig,
    /// Burst sizing policy.
    pub burst: BurstPolicy,
}

/// The sensor MAC state machine.
///
/// Holds one node's state and backoff stream only; the scenario-wide
/// [`SensorMacConfig`] is passed to every transition that consults it.
#[derive(Debug, Clone)]
pub struct SensorMac {
    state: SensorMacState,
    backoff: BackoffScheduler,
}

impl SensorMac {
    /// Create a sensor MAC with its own backoff random stream.
    pub fn new(backoff_rng: StreamRng) -> Self {
        SensorMac {
            state: SensorMacState::Sleep,
            backoff: BackoffScheduler::new(backoff_rng),
        }
    }

    /// Current state.
    pub fn state(&self) -> SensorMacState {
        self.state
    }

    /// Number of retransmissions of the head-of-line packet so far.
    pub fn retries(&self) -> u32 {
        self.backoff.retries()
    }

    /// The node has (or received) packets to send while asleep.
    pub fn packets_pending(&mut self, queued: usize) -> SensorAction {
        if queued == 0 {
            return SensorAction::None;
        }
        match self.state {
            SensorMacState::Sleep => {
                self.state = SensorMacState::Sensing;
                SensorAction::StartSensing
            }
            _ => SensorAction::None,
        }
    }

    /// Evaluate the transmission conditions, deriving the CSI *lazily*.
    ///
    /// The checks are ordered cheapest-first so the expensive CSI measurement
    /// (shadowing/fading evolution in the channel crate) only runs when the
    /// channel is idle **and** the queue actually justifies a burst — on a
    /// loaded network the busy check alone short-circuits most observations.
    fn conditions_met<F: FnOnce() -> f64>(
        config: &SensorMacConfig,
        state: ChannelState,
        csi_db: F,
        threshold_snr_db: f64,
        queued: usize,
        urgent: bool,
    ) -> bool {
        if state != ChannelState::Idle || !config.burst.should_transmit(queued, urgent) {
            return false;
        }
        if csi_db() < threshold_snr_db {
            return false;
        }
        true
    }

    /// A tone observation arrived while the node is sensing.
    ///
    /// * `signal = None` means the tone channel went silent (cluster head
    ///   collapsed or switched): the node powers down.
    /// * `threshold_snr_db` is the transmission threshold currently demanded
    ///   by the CAEM policy (the *tone-channel* SNR equivalent).
    /// * `urgent` is set by the policy when the buffer is under overflow
    ///   pressure, waiving the minimum burst size.
    pub fn observe_tone(
        &mut self,
        config: &SensorMacConfig,
        signal: Option<ToneSignal>,
        threshold_snr_db: f64,
        queued: usize,
        urgent: bool,
    ) -> SensorAction {
        match signal {
            Some(signal) => self.observe_tone_lazy(
                config,
                Some(signal.state),
                || signal.tone_snr_db,
                threshold_snr_db,
                queued,
                urgent,
            ),
            None => self.observe_tone_lazy(config, None, || 0.0, threshold_snr_db, queued, urgent),
        }
    }

    /// Lazy-CSI variant of [`SensorMac::observe_tone`]: the channel state is
    /// always known (it is read from the cheap tone-pulse cadence), while the
    /// CSI closure is only invoked if the decision actually depends on it.
    /// `state = None` means the tone channel went silent.
    pub fn observe_tone_lazy<F: FnOnce() -> f64>(
        &mut self,
        config: &SensorMacConfig,
        state: Option<ChannelState>,
        csi_db: F,
        threshold_snr_db: f64,
        queued: usize,
        urgent: bool,
    ) -> SensorAction {
        let Some(state) = state else {
            self.state = SensorMacState::Sleep;
            return SensorAction::EnterSleep;
        };
        match self.state {
            SensorMacState::Sensing => {
                if queued == 0 {
                    self.state = SensorMacState::Sleep;
                    return SensorAction::EnterSleep;
                }
                if Self::conditions_met(config, state, csi_db, threshold_snr_db, queued, urgent) {
                    self.state = SensorMacState::Backoff;
                    SensorAction::StartBackoff(self.backoff.next_backoff(&config.backoff))
                } else {
                    SensorAction::None
                }
            }
            // Observations in other states carry no new decision here; the
            // collision case is handled by `collision_detected`.
            _ => SensorAction::None,
        }
    }

    /// The backoff timer expired; the node re-checks both conditions before
    /// committing the data radio.
    pub fn backoff_expired(
        &mut self,
        config: &SensorMacConfig,
        signal: Option<ToneSignal>,
        threshold_snr_db: f64,
        queued: usize,
        urgent: bool,
    ) -> SensorAction {
        match signal {
            Some(signal) => self.backoff_expired_lazy(
                config,
                Some(signal.state),
                || signal.tone_snr_db,
                threshold_snr_db,
                queued,
                urgent,
            ),
            None => {
                self.backoff_expired_lazy(config, None, || 0.0, threshold_snr_db, queued, urgent)
            }
        }
    }

    /// Lazy-CSI variant of [`SensorMac::backoff_expired`]; see
    /// [`SensorMac::observe_tone_lazy`] for the contract.
    pub fn backoff_expired_lazy<F: FnOnce() -> f64>(
        &mut self,
        config: &SensorMacConfig,
        state: Option<ChannelState>,
        csi_db: F,
        threshold_snr_db: f64,
        queued: usize,
        urgent: bool,
    ) -> SensorAction {
        if self.state != SensorMacState::Backoff {
            return SensorAction::None;
        }
        let Some(state) = state else {
            self.state = SensorMacState::Sleep;
            return SensorAction::EnterSleep;
        };
        if queued == 0 {
            self.state = SensorMacState::Sleep;
            return SensorAction::EnterSleep;
        }
        if Self::conditions_met(config, state, csi_db, threshold_snr_db, queued, urgent) {
            self.state = SensorMacState::Transmitting;
            SensorAction::StartTransmission {
                burst_size: config.burst.burst_size(queued),
            }
        } else {
            self.state = SensorMacState::Sensing;
            SensorAction::None
        }
    }

    /// A collision tone was heard while transmitting: abort the burst.
    ///
    /// Returns the action plus whether the head-of-line packet may still be
    /// retried (false once the retransmission budget is exhausted, in which
    /// case the caller should drop it).
    pub fn collision_detected(&mut self, config: &SensorMacConfig) -> (SensorAction, bool) {
        if self.state != SensorMacState::Transmitting {
            return (SensorAction::None, true);
        }
        let may_retry = self.backoff.record_failure(&config.backoff);
        if !may_retry {
            self.backoff.reset();
        }
        self.state = SensorMacState::Sensing;
        (SensorAction::AbortTransmission, may_retry)
    }

    /// The burst finished without collision.
    pub fn burst_complete(&mut self, packets_still_queued: usize) -> SensorAction {
        if self.state != SensorMacState::Transmitting {
            return SensorAction::None;
        }
        self.backoff.record_success();
        if packets_still_queued > 0 {
            self.state = SensorMacState::Sensing;
            SensorAction::StartSensing
        } else {
            self.state = SensorMacState::Sleep;
            SensorAction::EnterSleep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(state: ChannelState, snr: f64) -> Option<ToneSignal> {
        Some(ToneSignal {
            state,
            tone_snr_db: snr,
        })
    }

    /// The paper's MAC parameters: 20 µs slot, CW = 10, r ≤ 6, 3..=8
    /// packets per burst.
    const CFG: &SensorMacConfig = &SensorMacConfig {
        backoff: BackoffConfig {
            slot: Duration::from_micros(20),
            contention_window: 10,
            max_retransmissions: 6,
        },
        burst: BurstPolicy {
            min_packets: 3,
            max_packets: 8,
        },
    };

    fn mac(seed: u64) -> SensorMac {
        SensorMac::new(StreamRng::from_seed_u64(seed))
    }

    #[test]
    fn starts_asleep_and_wakes_on_packets() {
        let mut m = mac(1);
        assert_eq!(m.state(), SensorMacState::Sleep);
        assert_eq!(m.packets_pending(0), SensorAction::None);
        assert_eq!(m.state(), SensorMacState::Sleep);
        assert_eq!(m.packets_pending(3), SensorAction::StartSensing);
        assert_eq!(m.state(), SensorMacState::Sensing);
        // Waking again while already sensing is a no-op.
        assert_eq!(m.packets_pending(4), SensorAction::None);
    }

    #[test]
    fn full_happy_path_to_transmission() {
        let mut m = mac(2);
        m.packets_pending(5);
        // Good channel, idle, enough packets: go to backoff.
        let a = m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
        match a {
            SensorAction::StartBackoff(d) => assert!(d <= Duration::from_micros(200)),
            other => panic!("expected backoff, got {other:?}"),
        }
        assert_eq!(m.state(), SensorMacState::Backoff);
        // Conditions still hold after backoff: transmit a burst of 5.
        let a = m.backoff_expired(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
        assert_eq!(a, SensorAction::StartTransmission { burst_size: 5 });
        assert_eq!(m.state(), SensorMacState::Transmitting);
        // Finish with 0 packets left: sleep.
        assert_eq!(m.burst_complete(0), SensorAction::EnterSleep);
        assert_eq!(m.state(), SensorMacState::Sleep);
    }

    #[test]
    fn burst_size_capped_at_eight() {
        let mut m = mac(3);
        m.packets_pending(20);
        m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 20, false);
        let a = m.backoff_expired(CFG, signal(ChannelState::Idle, 30.0), 20.0, 20, false);
        assert_eq!(a, SensorAction::StartTransmission { burst_size: 8 });
    }

    #[test]
    fn low_csi_defers_transmission() {
        let mut m = mac(4);
        m.packets_pending(5);
        let a = m.observe_tone(CFG, signal(ChannelState::Idle, 10.0), 20.0, 5, false);
        assert_eq!(a, SensorAction::None);
        assert_eq!(m.state(), SensorMacState::Sensing);
    }

    #[test]
    fn busy_channel_defers_transmission() {
        let mut m = mac(5);
        m.packets_pending(5);
        let a = m.observe_tone(CFG, signal(ChannelState::Receive, 30.0), 20.0, 5, false);
        assert_eq!(a, SensorAction::None);
        let a = m.observe_tone(CFG, signal(ChannelState::Collision, 30.0), 20.0, 5, false);
        assert_eq!(a, SensorAction::None);
    }

    #[test]
    fn below_min_burst_waits_unless_urgent() {
        let mut m = mac(6);
        m.packets_pending(2);
        let a = m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 2, false);
        assert_eq!(a, SensorAction::None);
        // Urgent (queue pressure) waives the 3-packet minimum.
        let a = m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 2, true);
        assert!(matches!(a, SensorAction::StartBackoff(_)));
    }

    #[test]
    fn conditions_rechecked_after_backoff() {
        let mut m = mac(7);
        m.packets_pending(5);
        m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
        // Channel deteriorated during the backoff: back to sensing.
        let a = m.backoff_expired(CFG, signal(ChannelState::Idle, 12.0), 20.0, 5, false);
        assert_eq!(a, SensorAction::None);
        assert_eq!(m.state(), SensorMacState::Sensing);
        // Channel became busy during the backoff.
        m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
        let a = m.backoff_expired(CFG, signal(ChannelState::Receive, 30.0), 20.0, 5, false);
        assert_eq!(a, SensorAction::None);
        assert_eq!(m.state(), SensorMacState::Sensing);
    }

    #[test]
    fn collision_aborts_and_eventually_abandons() {
        let mut m = mac(8);
        let reach_tx = |m: &mut SensorMac| {
            m.packets_pending(5);
            m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
            let a = m.backoff_expired(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
            assert!(matches!(a, SensorAction::StartTransmission { .. }));
        };
        // Six collisions are retriable, the seventh abandons the packet.
        for i in 1..=7 {
            reach_tx(&mut m);
            let (action, may_retry) = m.collision_detected(CFG);
            assert_eq!(action, SensorAction::AbortTransmission);
            if i <= 6 {
                assert!(may_retry, "collision {i} should allow a retry");
            } else {
                assert!(!may_retry, "collision 7 should abandon the packet");
            }
            assert_eq!(m.state(), SensorMacState::Sensing);
        }
        // Retry counter reset after abandonment.
        assert_eq!(m.retries(), 0);
    }

    #[test]
    fn csi_is_not_derived_when_channel_is_busy_or_burst_too_small() {
        let mut m = mac(20);
        m.packets_pending(5);
        // Busy channel: the CSI closure must not run.
        let a = m.observe_tone_lazy(
            CFG,
            Some(ChannelState::Receive),
            || panic!("CSI derived for a busy channel"),
            20.0,
            5,
            false,
        );
        assert_eq!(a, SensorAction::None);
        // Below the burst minimum and not urgent: also no CSI derivation.
        let a = m.observe_tone_lazy(
            CFG,
            Some(ChannelState::Idle),
            || panic!("CSI derived below the burst minimum"),
            20.0,
            2,
            false,
        );
        assert_eq!(a, SensorAction::None);
        // Idle channel with a full burst: now the CSI is consulted.
        let a = m.observe_tone_lazy(CFG, Some(ChannelState::Idle), || 30.0, 20.0, 5, false);
        assert!(matches!(a, SensorAction::StartBackoff(_)));
    }

    #[test]
    fn tone_loss_sends_node_to_sleep() {
        let mut m = mac(9);
        m.packets_pending(5);
        assert_eq!(
            m.observe_tone(CFG, None, 20.0, 5, false),
            SensorAction::EnterSleep
        );
        assert_eq!(m.state(), SensorMacState::Sleep);
        // Also from backoff.
        let mut m = mac(10);
        m.packets_pending(5);
        m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false);
        assert_eq!(
            m.backoff_expired(CFG, None, 20.0, 5, false),
            SensorAction::EnterSleep
        );
    }

    #[test]
    fn burst_complete_with_backlog_keeps_sensing() {
        let mut m = mac(11);
        m.packets_pending(12);
        m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 12, false);
        m.backoff_expired(CFG, signal(ChannelState::Idle, 30.0), 20.0, 12, false);
        assert_eq!(m.burst_complete(4), SensorAction::StartSensing);
        assert_eq!(m.state(), SensorMacState::Sensing);
    }

    #[test]
    fn empty_queue_while_sensing_sleeps() {
        let mut m = mac(12);
        m.packets_pending(3);
        let a = m.observe_tone(CFG, signal(ChannelState::Idle, 30.0), 20.0, 0, false);
        assert_eq!(a, SensorAction::EnterSleep);
    }

    #[test]
    fn out_of_state_events_are_ignored() {
        let mut m = mac(13);
        // Not transmitting: collision is a no-op.
        assert_eq!(m.collision_detected(CFG), (SensorAction::None, true));
        // Not in backoff: expiry is a no-op.
        assert_eq!(
            m.backoff_expired(CFG, signal(ChannelState::Idle, 30.0), 20.0, 5, false),
            SensorAction::None
        );
        // Not transmitting: completion is a no-op.
        assert_eq!(m.burst_complete(0), SensorAction::None);
        assert_eq!(m.state(), SensorMacState::Sleep);
    }
}
