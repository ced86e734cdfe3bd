//! The tone signaling channel (Section III-A, Table I).
//!
//! Instead of a cellular-style dedicated control channel, the cluster head
//! broadcasts short tone pulses on a separate low-power radio.  The
//! *inter-pulse interval* identifies the data-channel state; the *received
//! strength* of the pulses gives each sensor the CSI of the (reciprocal) data
//! channel.  The broadcast rules from the paper:
//!
//! * **idle** — while the data channel is free the head periodically
//!   broadcasts idle pulses of 1 ms duration with a 50 ms period;
//! * **receive** — while receiving a packet burst the head sends 0.5 ms
//!   pulses every 10 ms so the sending sensor can keep adapting its error
//!   protection to the live channel;
//! * **collision** — on detecting packet corruption the head sends a single
//!   0.5 ms collision pulse (a distinct, shorter interval);
//! * back to **idle** pulses once the channel frees up.

use caem_simcore::time::Duration;
use serde::{Deserialize, Serialize};

/// State of the shared data channel as advertised on the tone channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelState {
    /// No packet is being received or transmitted; the data channel is free.
    Idle,
    /// The sink is receiving data packets from a node in the cluster.
    Receive,
    /// More than one node transmitted simultaneously; packets collided.
    Collision,
    /// The sink is forwarding processed data to the base station.  The paper
    /// defines this state but does not exercise it ("we do not consider this
    /// at this stage"); it is included for completeness.
    Transmit,
}

impl ChannelState {
    /// All states, in a fixed order.
    pub const ALL: [ChannelState; 4] = [
        ChannelState::Idle,
        ChannelState::Receive,
        ChannelState::Collision,
        ChannelState::Transmit,
    ];
}

/// Timing of the tone pulses for one channel state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TonePulse {
    /// Duration of each pulse.
    pub duration: Duration,
    /// Interval between the start of consecutive pulses.  For one-shot
    /// notifications (collision) this is the guard interval after which the
    /// head reverts to the idle pattern.
    pub interval: Duration,
    /// Whether the pulse train repeats (idle/receive) or fires once
    /// (collision).
    pub repeating: bool,
}

/// The pulse schedule used by a cluster head — Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToneSchedule {
    /// Idle-state pulse train (1 ms pulses every 50 ms).
    pub idle: TonePulse,
    /// Receive-state pulse train (0.5 ms pulses every 10 ms).
    pub receive: TonePulse,
    /// Collision notification (single 0.5 ms pulse).
    pub collision: TonePulse,
    /// Transmit-state pulse train (0.5 ms pulses every 15 ms).
    pub transmit: TonePulse,
}

impl Default for ToneSchedule {
    fn default() -> Self {
        ToneSchedule::paper_default()
    }
}

impl ToneSchedule {
    /// The schedule from Section III-A / Table I.
    pub fn paper_default() -> Self {
        ToneSchedule {
            idle: TonePulse {
                duration: Duration::from_millis(1),
                interval: Duration::from_millis(50),
                repeating: true,
            },
            receive: TonePulse {
                duration: Duration::from_micros(500),
                interval: Duration::from_millis(10),
                repeating: true,
            },
            collision: TonePulse {
                duration: Duration::from_micros(500),
                interval: Duration::from_millis(5),
                repeating: false,
            },
            transmit: TonePulse {
                duration: Duration::from_micros(500),
                interval: Duration::from_millis(15),
                repeating: true,
            },
        }
    }

    /// The pulse timing for a given channel state.
    pub fn pulse_for(&self, state: ChannelState) -> TonePulse {
        match state {
            ChannelState::Idle => self.idle,
            ChannelState::Receive => self.receive,
            ChannelState::Collision => self.collision,
            ChannelState::Transmit => self.transmit,
        }
    }

    /// Decode a channel state from an observed inter-pulse interval.
    ///
    /// A sensor classifies the interval to the nearest scheduled interval;
    /// `tolerance` (fraction, e.g. 0.2 = ±20 %) bounds how far off an
    /// observation may be before it is rejected as noise (`None`).
    pub fn classify_interval(&self, observed: Duration, tolerance: f64) -> Option<ChannelState> {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        let mut best: Option<(ChannelState, f64)> = None;
        for state in ChannelState::ALL {
            let nominal = self.pulse_for(state).interval.as_secs_f64();
            let obs = observed.as_secs_f64();
            let rel_err = (obs - nominal).abs() / nominal;
            if rel_err <= tolerance {
                match best {
                    Some((_, e)) if e <= rel_err => {}
                    _ => best = Some((state, rel_err)),
                }
            }
        }
        best.map(|(s, _)| s)
    }

    /// Fraction of time the tone radio of the cluster head is actively
    /// transmitting while advertising `state` (duty cycle).
    pub fn duty_cycle(&self, state: ChannelState) -> f64 {
        let p = self.pulse_for(state);
        if p.interval.is_zero() {
            return 1.0;
        }
        (p.duration.as_secs_f64() / p.interval.as_secs_f64()).min(1.0)
    }
}

/// One decoded observation of the tone channel as seen by a sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToneSignal {
    /// The advertised data-channel state.
    pub state: ChannelState,
    /// Measured SNR of the tone pulses, in dB (the CSI estimate).
    pub tone_snr_db: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_matches_section_iii() {
        let s = ToneSchedule::paper_default();
        assert_eq!(s.idle.duration, Duration::from_millis(1));
        assert_eq!(s.idle.interval, Duration::from_millis(50));
        assert!(s.idle.repeating);
        assert_eq!(s.receive.duration, Duration::from_micros(500));
        assert_eq!(s.receive.interval, Duration::from_millis(10));
        assert!(!s.collision.repeating);
        assert_eq!(s.collision.duration, Duration::from_micros(500));
    }

    #[test]
    fn intervals_are_distinguishable() {
        let s = ToneSchedule::paper_default();
        let mut intervals: Vec<u64> = ChannelState::ALL
            .iter()
            .map(|&st| s.pulse_for(st).interval.as_nanos())
            .collect();
        intervals.sort_unstable();
        intervals.dedup();
        assert_eq!(intervals.len(), 4, "each state needs a unique interval");
    }

    #[test]
    fn classify_exact_intervals() {
        let s = ToneSchedule::paper_default();
        for state in ChannelState::ALL {
            let observed = s.pulse_for(state).interval;
            assert_eq!(s.classify_interval(observed, 0.1), Some(state));
        }
    }

    #[test]
    fn classify_with_jitter_and_noise() {
        let s = ToneSchedule::paper_default();
        // 10% jitter on the 50 ms idle interval still decodes as idle.
        assert_eq!(
            s.classify_interval(Duration::from_millis(54), 0.2),
            Some(ChannelState::Idle)
        );
        // A wildly off interval decodes to nothing.
        assert_eq!(s.classify_interval(Duration::from_millis(200), 0.2), None);
        assert_eq!(s.classify_interval(Duration::from_micros(100), 0.2), None);
    }

    #[test]
    fn classification_picks_nearest_state() {
        let s = ToneSchedule::paper_default();
        // 11 ms is closest to the 10 ms receive interval even with a generous
        // tolerance that would also admit 15 ms transmit.
        assert_eq!(
            s.classify_interval(Duration::from_millis(11), 0.5),
            Some(ChannelState::Receive)
        );
    }

    #[test]
    fn duty_cycles_are_low_power() {
        let s = ToneSchedule::paper_default();
        // Idle: 1 ms / 50 ms = 2 %.
        assert!((s.duty_cycle(ChannelState::Idle) - 0.02).abs() < 1e-9);
        // Receive: 0.5 ms / 10 ms = 5 %.
        assert!((s.duty_cycle(ChannelState::Receive) - 0.05).abs() < 1e-9);
        for st in ChannelState::ALL {
            assert!(s.duty_cycle(st) <= 0.10, "{st:?} duty cycle too high");
        }
    }

    #[test]
    #[should_panic]
    fn negative_tolerance_rejected() {
        ToneSchedule::paper_default().classify_interval(Duration::from_millis(50), -0.1);
    }
}
