//! Virtual time for the discrete-event simulator.
//!
//! Time is represented as an integer number of nanoseconds since the start of
//! the simulation.  Using fixed-point time (instead of `f64` seconds) keeps
//! event ordering exact: two events scheduled at the same instant compare
//! equal on every platform, and accumulating millions of sub-millisecond
//! packet/tone events never drifts.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Round a non-negative float to the nearest integer nanosecond count.
///
/// Equivalent to `x.round() as u64` for the half-up convention, but compiles
/// to straight-line arithmetic instead of a libm `round` call — this sits on
/// the simulator's hot path (every stochastic delay goes through it).
#[inline]
fn round_nonneg_to_u64(x: f64) -> u64 {
    debug_assert!(x >= 0.0);
    (x + 0.5) as u64
}

/// Number of nanoseconds in one second.
const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Number of nanoseconds in one millisecond.
const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in one microsecond.
const NANOS_PER_MICRO: u64 = 1_000;

/// An instant of virtual simulation time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual simulation time (nanoseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation origin, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds.  Negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimTime(0)
        } else {
            SimTime(round_nonneg_to_u64(secs * NANOS_PER_SEC as f64))
        }
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// Largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds.  Negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            Duration(0)
        } else {
            Duration(round_nonneg_to_u64(secs * NANOS_PER_SEC as f64))
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True iff the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative float (e.g. a random backoff factor).
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(factor >= 0.0, "duration factor must be non-negative");
        Duration(round_nonneg_to_u64(self.0 as f64 * factor))
    }

    /// The time it takes to move `bits` bits over a link of `bits_per_sec`.
    pub fn for_bits(bits: u64, bits_per_sec: f64) -> Duration {
        assert!(bits_per_sec > 0.0, "link rate must be positive");
        Duration::from_secs_f64(bits as f64 / bits_per_sec)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < NANOS_PER_MILLI {
            write!(f, "{}ns", self.0)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(50).as_millis_f64(), 50.0);
        assert_eq!(Duration::from_micros(7).as_nanos(), 7_000);
        let t = SimTime::from_secs_f64(1.25);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(Duration::from_secs_f64(-0.5), Duration::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(5), Duration::from_millis(10));
        // Saturating subtraction: the past minus the future is zero.
        assert_eq!(
            SimTime::from_millis(5) - SimTime::from_millis(9),
            Duration::ZERO
        );
        let (a, b) = (SimTime::from_millis(3), SimTime::from_millis(5));
        assert_eq!(b.saturating_since(a), Duration::from_millis(2));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(Duration::from_millis(4) * 3, Duration::from_millis(12));
        assert_eq!(Duration::from_millis(12) / 4, Duration::from_millis(3));
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_nanos(1_000);
        let b = SimTime::from_nanos(1_001);
        assert!(a < b);
        assert_eq!(a, SimTime::from_micros(1));
    }

    #[test]
    fn airtime_for_bits() {
        // 2000-bit packet at 2 Mbps takes exactly 1 ms.
        let d = Duration::for_bits(2_000, 2_000_000.0);
        assert_eq!(d, Duration::from_millis(1));
        // ... and at 250 kbps it takes 8 ms.
        let d = Duration::for_bits(2_000, 250_000.0);
        assert_eq!(d, Duration::from_millis(8));
    }

    #[test]
    fn mul_f64_rounds() {
        let d = Duration::from_millis(20).mul_f64(0.5);
        assert_eq!(d, Duration::from_millis(10));
        assert_eq!(Duration::from_millis(20).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    #[should_panic]
    fn mul_f64_rejects_negative() {
        let _ = Duration::from_millis(1).mul_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
    }
}
