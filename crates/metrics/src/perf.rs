//! Network-performance metrics: average packet delay, aggregate throughput
//! and successful packet delivery rate.
//!
//! The paper defines these three metrics in Section IV-A but defers the plots
//! to its long version; we reproduce them as extension results, reported per
//! scenario by the experiment grids (README section *Running experiments*).

use caem_simcore::stats::{Histogram, RunningStats};
use caem_simcore::time::{Duration, SimTime};

/// Accumulates delay / throughput / delivery statistics for one protocol run.
#[derive(Debug, Clone)]
pub struct NetworkPerformance {
    delay_stats: RunningStats,
    delay_histogram: Histogram,
    generated: u64,
    delivered: u64,
    dropped_overflow: u64,
    dropped_abandoned: u64,
    delivered_bits: u64,
    horizon: SimTime,
}

/// The delay histogram's initial range: 0–10 s in milliseconds.
const DELAY_HISTOGRAM_HI_MS: f64 = 10_000.0;

/// How far the delay histogram may grow by doubling under saturation loads
/// (to ~21 min of queueing delay).  Delays beyond this are treated as
/// unbounded: they land in the overflow bin and quantiles there stay `None`.
const DELAY_HISTOGRAM_MAX_HI_MS: f64 = DELAY_HISTOGRAM_HI_MS * 128.0;

impl NetworkPerformance {
    /// Create an empty accumulator.  The delay histogram starts at 0–10 s
    /// and auto-resizes (halving resolution per doubling) up to 128× that
    /// range (~21 min of queueing delay), so p95/p99 stay reportable under
    /// saturation instead of collapsing to `None` the moment the tail
    /// crosses 10 s.
    pub fn new() -> Self {
        NetworkPerformance {
            delay_stats: RunningStats::new(),
            delay_histogram: Histogram::with_auto_resize(
                0.0,
                DELAY_HISTOGRAM_HI_MS,
                200,
                DELAY_HISTOGRAM_MAX_HI_MS,
            ),
            generated: 0,
            delivered: 0,
            dropped_overflow: 0,
            dropped_abandoned: 0,
            delivered_bits: 0,
            horizon: SimTime::ZERO,
        }
    }

    /// Record that a packet was generated.
    pub fn record_generated(&mut self) {
        self.generated += 1;
    }

    /// Record that `count` packets were generated.
    pub fn record_generated_n(&mut self, count: u64) {
        self.generated += count;
    }

    /// Record a successful delivery with the packet's end-to-end delay and
    /// size in bits.
    pub fn record_delivered(&mut self, delay: Duration, size_bits: u64) {
        self.delivered += 1;
        self.delivered_bits += size_bits;
        self.delay_stats.push(delay.as_millis_f64());
        self.delay_histogram.record(delay.as_millis_f64());
    }

    /// Record a packet dropped due to buffer overflow.
    pub fn record_dropped_overflow(&mut self) {
        self.dropped_overflow += 1;
    }

    /// Record a packet abandoned after exhausting its retransmissions.
    pub fn record_dropped_abandoned(&mut self) {
        self.dropped_abandoned += 1;
    }

    /// Note the final simulation time (needed for throughput).
    pub fn set_horizon(&mut self, end: SimTime) {
        self.horizon = end;
    }

    /// Number of packets generated.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Number of packets delivered to a sink.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped at the source buffers.
    pub fn dropped_overflow(&self) -> u64 {
        self.dropped_overflow
    }

    /// Packets abandoned after too many collisions.
    pub fn dropped_abandoned(&self) -> u64 {
        self.dropped_abandoned
    }

    /// Average end-to-end packet delay in milliseconds.
    pub fn average_delay_ms(&self) -> f64 {
        self.delay_stats.mean()
    }

    /// The `q`-quantile of the delay distribution in milliseconds.
    pub fn delay_quantile_ms(&self, q: f64) -> Option<f64> {
        self.delay_histogram.quantile(q)
    }

    /// Aggregate network throughput in kbit/s (delivered payload bits over
    /// the simulated horizon).
    pub fn throughput_kbps(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.delivered_bits as f64 / secs / 1_000.0
        }
    }

    /// Successful packet delivery rate (delivered / generated).
    pub fn delivery_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }
}

impl Default for NetworkPerformance {
    fn default() -> Self {
        NetworkPerformance::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_and_delivery_accounting() {
        let mut p = NetworkPerformance::new();
        p.record_generated_n(10);
        for ms in [10u64, 20, 30, 40] {
            p.record_delivered(Duration::from_millis(ms), 2_000);
        }
        p.record_dropped_overflow();
        p.record_dropped_abandoned();
        p.set_horizon(SimTime::from_secs(2));
        assert_eq!(p.generated(), 10);
        assert_eq!(p.delivered(), 4);
        assert_eq!(p.dropped_overflow(), 1);
        assert_eq!(p.dropped_abandoned(), 1);
        assert!((p.average_delay_ms() - 25.0).abs() < 1e-9);
        assert!((p.delivery_rate() - 0.4).abs() < 1e-12);
        // 4 × 2000 bits over 2 s = 4 kbit/s.
        assert!((p.throughput_kbps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_yields_zeroes() {
        let p = NetworkPerformance::new();
        assert_eq!(p.average_delay_ms(), 0.0);
        assert_eq!(p.delivery_rate(), 0.0);
        assert_eq!(p.throughput_kbps(), 0.0);
        assert_eq!(p.delay_quantile_ms(0.5), None);
    }

    #[test]
    fn delay_quantiles_track_distribution() {
        let mut p = NetworkPerformance::new();
        for ms in 1..=100u64 {
            p.record_delivered(Duration::from_millis(ms), 2_000);
        }
        let median = p.delay_quantile_ms(0.5).unwrap();
        assert!((median - 50.0).abs() < 51.0 * 0.1, "median {median}");
        let p95 = p.delay_quantile_ms(0.95).unwrap();
        assert!(p95 > 85.0);
    }

    #[test]
    fn saturation_delays_beyond_ten_seconds_keep_quantiles_reportable() {
        let mut p = NetworkPerformance::new();
        // A saturated queue: every delivery took 30-90 s, far past the
        // initial 10 s histogram range.
        for s in 0..600u64 {
            p.record_delivered(Duration::from_secs(30 + s / 10), 2_000);
        }
        let p99 = p
            .delay_quantile_ms(0.99)
            .expect("saturation p99 reportable");
        assert!((88_000.0..92_000.0).contains(&p99), "p99 {p99}");
        // Truly unbounded delays (beyond the growth cap) still answer None.
        p.record_delivered(Duration::from_secs(100_000), 2_000);
        assert_eq!(p.delay_quantile_ms(1.0), None);
        assert!(p.delay_quantile_ms(0.5).is_some(), "the bulk stays known");
    }

    #[test]
    fn zero_horizon_throughput_is_zero() {
        let mut p = NetworkPerformance::new();
        p.record_delivered(Duration::from_millis(5), 2_000);
        assert_eq!(p.throughput_kbps(), 0.0);
    }
}
