//! Radio power profiles and state-residency energy computation.

use caem_simcore::time::Duration;
use serde::{Deserialize, Serialize};

/// Power draw of every radio state, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioPowerProfile {
    /// Data radio transmit power draw (W).
    pub data_tx_w: f64,
    /// Data radio receive power draw (W).
    pub data_rx_w: f64,
    /// Data radio sleep power draw (W).
    pub data_sleep_w: f64,
    /// Data radio power draw during the start-up transient (W).
    pub data_startup_w: f64,
    /// Duration of the sleep→active start-up transient.
    pub startup_time: Duration,
    /// Tone radio transmit power draw (W).
    pub tone_tx_w: f64,
    /// Tone radio receive power draw (W).
    pub tone_rx_w: f64,
}

impl Default for RadioPowerProfile {
    fn default() -> Self {
        RadioPowerProfile::paper_default()
    }
}

impl RadioPowerProfile {
    /// The Table II power profile with the RFM radio's 20 ms start-up time.
    ///
    /// The start-up transient is charged at receive-level power: the
    /// frequency synthesizer and RX chain are live but no useful bits move.
    pub fn paper_default() -> Self {
        RadioPowerProfile {
            data_tx_w: 0.66,
            data_rx_w: 0.305,
            data_sleep_w: 3.5e-3,
            data_startup_w: 0.305,
            startup_time: Duration::from_millis(20),
            tone_tx_w: 92e-3,
            tone_rx_w: 36e-3,
        }
    }

    /// Energy (J) of one complete sleep→active start-up transient.
    pub fn startup_energy(&self) -> f64 {
        self.data_startup_w * self.startup_time.as_secs_f64()
    }

    /// Energy to transmit for `airtime` (transmitter side).
    pub fn transmit_energy(&self, airtime: Duration) -> f64 {
        self.data_tx_w * airtime.as_secs_f64()
    }

    /// Energy to receive for `airtime` (receiver side).
    pub fn receive_energy(&self, airtime: Duration) -> f64 {
        self.data_rx_w * airtime.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_ii() {
        let p = RadioPowerProfile::paper_default();
        assert_eq!(p.data_tx_w, 0.66);
        assert_eq!(p.data_rx_w, 0.305);
        assert_eq!(p.data_sleep_w, 0.0035);
        assert_eq!(p.tone_tx_w, 0.092);
        assert_eq!(p.tone_rx_w, 0.036);
        assert_eq!(p.startup_time, Duration::from_millis(20));
    }

    #[test]
    fn energy_is_power_times_time() {
        let p = RadioPowerProfile::paper_default();
        // 1 ms of transmit at 0.66 W = 0.66 mJ.
        let e = p.transmit_energy(Duration::from_millis(1));
        assert!((e - 0.66e-3).abs() < 1e-12);
        let e = p.receive_energy(Duration::from_millis(8));
        assert!((e - 0.305 * 8e-3).abs() < 1e-12);
    }

    #[test]
    fn startup_energy_value() {
        let p = RadioPowerProfile::paper_default();
        // 20 ms at 0.305 W = 6.1 mJ.
        assert!((p.startup_energy() - 6.1e-3).abs() < 1e-9);
    }

    #[test]
    fn sleep_is_orders_of_magnitude_cheaper_than_active() {
        let p = RadioPowerProfile::paper_default();
        assert!(p.data_sleep_w * 80.0 < p.data_rx_w);
        assert!(p.data_rx_w < p.data_tx_w);
        // The tone radio really is "low power" relative to the data radio.
        assert!(p.tone_rx_w < p.data_rx_w / 5.0);
    }

    #[test]
    fn transmitting_at_high_mode_saves_energy_per_packet() {
        // The core CAEM premise: a 2-kbit packet at 2 Mbps (1 ms) costs ~8x
        // less transmit energy than at 250 kbps (8 ms).
        let p = RadioPowerProfile::paper_default();
        let fast = p.transmit_energy(Duration::from_millis(1));
        let slow = p.transmit_energy(Duration::from_millis(8));
        assert!((slow / fast - 8.0).abs() < 1e-9);
    }
}
