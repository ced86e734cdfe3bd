//! Statistics primitives shared by the metrics and benchmark crates.
//!
//! * [`RunningStats`] — single-pass mean / variance / min / max (Welford).
//! * [`TimeSeries`] — ordered `(time, value)` samples with linear
//!   interpolation, used to build the figure curves.
//! * [`Histogram`] — fixed-width bin histogram with quantile estimation used
//!   for packet-delay distributions.

use crate::time::SimTime;

/// Single-pass running statistics using Welford's algorithm.
///
/// `PartialEq` compares every accumulator field exactly (floats included),
/// which is what the experiment persistence layer's "bit-identical report"
/// guarantees are asserted against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every value of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance with Bessel's correction (0 if fewer than 2 observations).
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the 95 % confidence interval on the mean:
    /// `t₀.₉₇₅(n−1) · s / √n` with the Bessel-corrected sample deviation.
    ///
    /// Student-t critical values matter here: experiment cells aggregate a
    /// handful of seed replicates (3–12), where the normal approximation's
    /// 1.96 understates the interval by 15–120 %.  Zero with fewer than two
    /// observations — a single replicate carries no dispersion information.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let t = t_critical_975(self.count - 1);
        t * (self.sample_variance() / self.count as f64).sqrt()
    }

    /// The 95 % CI half-width as a fraction of the mean's magnitude — a
    /// scale-free precision readout ("±2 %" reads the same for a delivery
    /// rate near 1 and a delay in the hundreds of milliseconds).  Reported
    /// alongside the absolute half-width that sequential-stopping targets
    /// are expressed in.  `None` with fewer than two observations or a zero
    /// mean (relative precision is undefined there).
    pub fn ci95_relative_half_width(&self) -> Option<f64> {
        if self.count < 2 || self.mean == 0.0 {
            return None;
        }
        Some(self.ci95_half_width() / self.mean.abs())
    }
}

/// Two-sided 97.5 % Student-t critical value for `df` degrees of freedom
/// (the multiplier of a 95 % confidence interval).  Tabulated for the small
/// replicate counts experiments actually run; past 30 degrees of freedom the
/// tail approaches the normal limit through the standard 40/60/120
/// breakpoints, interpolated linearly in `1/df` (the variable the t quantile
/// is nearly linear in), so the value is continuous and strictly decreasing
/// everywhere.  The old implementation dropped straight from t(30) = 2.042
/// to 1.96 — a ~4 % step that made `ci95_half_width` non-monotone in the
/// replicate count right where sequential stopping compares widths.
fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    // Anchors past the table, ending at the deepest tabulated row (df 120);
    // interpolation runs on 1/df between consecutive anchors.
    const ANCHORS: [(f64, f64); 4] = [(30.0, 2.042), (40.0, 2.021), (60.0, 2.000), (120.0, 1.980)];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=120 => {
            let x = df as f64;
            let (lo, hi) = ANCHORS
                .windows(2)
                .map(|w| (w[0], w[1]))
                .find(|&((lo_df, _), (hi_df, _))| x >= lo_df && x <= hi_df)
                .expect("31..=120 is covered by the anchor spans");
            let alpha = (1.0 / x - 1.0 / lo.0) / (1.0 / hi.0 - 1.0 / lo.0);
            lo.1 + alpha * (hi.1 - lo.1)
        }
        // Beyond the table: decay the remaining 0.02 gap over 1.96 like
        // 1/df (t(120) = 1.98 exactly matches the last anchor), so the
        // curve stays continuous and monotone down to the normal limit.
        _ => 1.96 + 0.02 * (120.0 / df as f64),
    }
}

/// An ordered sequence of `(time, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample; time is given in seconds.
    pub fn push(&mut self, time_secs: f64, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(t, _)| time_secs >= t),
            "samples must be time-ordered"
        );
        self.samples.push((time_secs, value));
    }

    /// Append a sample with a [`SimTime`] timestamp.
    pub fn push_at(&mut self, time: SimTime, value: f64) {
        self.push(time.as_secs_f64(), value);
    }

    /// All samples.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.samples.last().copied()
    }

    /// Linearly interpolate the value at `time_secs`.
    ///
    /// Clamps to the first/last sample outside the observed range; returns
    /// `None` when the series is empty.
    pub fn value_at(&self, time_secs: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let first = self.samples[0];
        let last = *self.samples.last().unwrap();
        if time_secs <= first.0 {
            return Some(first.1);
        }
        if time_secs >= last.0 {
            return Some(last.1);
        }
        let idx = self
            .samples
            .partition_point(|&(t, _)| t <= time_secs)
            .saturating_sub(1);
        let (t0, v0) = self.samples[idx];
        let (t1, v1) = self.samples[idx + 1];
        if (t1 - t0).abs() < f64::EPSILON {
            return Some(v1);
        }
        let alpha = (time_secs - t0) / (t1 - t0);
        Some(v0 + alpha * (v1 - v0))
    }
}

/// A fixed-count-bin histogram over `[lo, hi)` with overflow/underflow bins,
/// optionally **auto-resizing**: recording a value at or beyond `hi` doubles
/// the bin width (merging adjacent bin pairs; the bin count never changes)
/// until the value fits or the range reaches a configured growth cap.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// Precomputed `bins / (hi - lo)`: `record` sits on the delivery hot path
    /// and a multiply is far cheaper than the two divisions it replaces.
    inv_width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    /// The largest `hi` the range may grow to by doubling; equal to `hi` for
    /// a fixed-range histogram.
    max_hi: f64,
}

impl Histogram {
    /// Create a fixed-range histogram with `bins` equal-width bins spanning
    /// `[lo, hi)`.  Values at or beyond `hi` always land in the overflow bin.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Self::with_auto_resize(lo, hi, bins, hi)
    }

    /// Create an auto-resizing histogram: when a value at or beyond the
    /// current `hi` is recorded, the bin width doubles (adjacent bin pairs
    /// merge, so the bin count and all already-recorded counts are preserved
    /// exactly) until the value fits or doubling again would push `hi` past
    /// `max_hi`.  Values beyond the cap still land in the overflow bin, so
    /// the [`Histogram::quantile`] `None` contract survives for truly
    /// unbounded observations while merely-saturated distributions stay
    /// quantifiable (at coarser resolution).
    ///
    /// The final bin layout depends only on the multiset of recorded values,
    /// not on their order: a value recorded before a doubling is merged into
    /// exactly the bin it would have landed in afterwards.
    pub fn with_auto_resize(lo: f64, hi: f64, bins: usize, max_hi: f64) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(max_hi >= hi, "growth cap must be at or beyond the range");
        Histogram {
            lo,
            hi,
            inv_width: bins as f64 / (hi - lo),
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            max_hi,
        }
    }

    /// Double the bin width (halving resolution) until `x < hi` or the next
    /// doubling would exceed the growth cap.  Bin `k` of the widened layout
    /// absorbs bins `2k` and `2k + 1` of the old one — exactly where a value
    /// recorded at the widened resolution would land, so resizing commutes
    /// with recording.
    fn grow_to_cover(&mut self, x: f64) {
        while x >= self.hi {
            let doubled_hi = self.lo + 2.0 * (self.hi - self.lo);
            if doubled_hi > self.max_hi {
                return; // at the cap: x stays an overflow observation
            }
            self.double_width();
        }
    }

    /// One doubling step: bin `k` of the widened layout absorbs bins `2k`
    /// and `2k + 1` of the old one.  The caller checks the growth cap.
    fn double_width(&mut self) {
        let n = self.bins.len();
        for k in 0..n {
            let merged = match (self.bins.get(2 * k), self.bins.get(2 * k + 1)) {
                (Some(&a), Some(&b)) => a + b,
                (Some(&a), None) => a,
                _ => 0,
            };
            self.bins[k] = merged;
        }
        self.hi = self.lo + 2.0 * (self.hi - self.lo);
        self.inv_width = n as f64 / (self.hi - self.lo);
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.grow_to_cover(x);
        }
        if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) * self.inv_width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// The current upper edge of the binned range (grows in an auto-resizing
    /// histogram; fixed otherwise).
    pub fn range_hi(&self) -> f64 {
        self.hi
    }

    /// Total number of observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Number of underflowed / overflowed observations.
    pub fn outliers(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Approximate quantile (0..=1) using within-bin linear interpolation.
    ///
    /// Returns `None` when the histogram is empty **or** when the requested
    /// quantile falls inside the overflow bin: observations at or above `hi`
    /// only record that they exceeded the range, so any in-range answer
    /// (previously `Some(hi)`) would silently understate the true value.
    /// Quantiles inside the underflow bin clamp to `lo` (an upper bound on
    /// the true value, which the delay metrics treat as "effectively zero").
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut cum = self.underflow as f64;
        if cum >= target && self.underflow > 0 {
            return Some(self.lo);
        }
        for (i, &b) in self.bins.iter().enumerate() {
            let next = cum + b as f64;
            if next >= target && b > 0 {
                let frac = (target - cum) / b as f64;
                return Some(self.lo + width * (i as f64 + frac));
            }
            cum = next;
        }
        // The target lands beyond all in-range mass, i.e. in the overflow
        // bin (or the histogram holds only outliers): the value is >= `hi`
        // but otherwise unknown.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn relative_half_width_is_scale_free() {
        let mut a = RunningStats::new();
        a.extend([1.0, 2.0, 3.0, 4.0]);
        let mut b = RunningStats::new();
        b.extend([100.0, 200.0, 300.0, 400.0]);
        let ra = a.ci95_relative_half_width().unwrap();
        let rb = b.ci95_relative_half_width().unwrap();
        assert!((ra - rb).abs() < 1e-12, "same shape ⇒ same relative CI");
        assert!((ra - a.ci95_half_width() / a.mean()).abs() < 1e-12);
        // Undefined cases: too few observations, zero mean.
        let mut single = RunningStats::new();
        single.push(5.0);
        assert_eq!(single.ci95_relative_half_width(), None);
        let mut zero_mean = RunningStats::new();
        zero_mean.extend([-1.0, 1.0]);
        assert_eq!(zero_mean.ci95_relative_half_width(), None);
    }

    #[test]
    fn time_series_interpolation() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 10.0);
        ts.push(10.0, 5.0);
        ts.push(20.0, 0.0);
        assert_eq!(ts.value_at(-1.0), Some(10.0));
        assert_eq!(ts.value_at(25.0), Some(0.0));
        assert!((ts.value_at(5.0).unwrap() - 7.5).abs() < 1e-12);
        assert!((ts.value_at(15.0).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.last(), Some((20.0, 0.0)));
    }

    #[test]
    fn empty_series_value_is_none() {
        let ts = TimeSeries::new();
        assert_eq!(ts.value_at(1.0), None);
        assert!(ts.is_empty());
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!(h.bins().iter().all(|&b| b == 10));
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() < 10.0);
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > 90.0);
    }

    #[test]
    fn histogram_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-5.0);
        h.record(100.0);
        h.record(5.0);
        assert_eq!(h.outliers(), (1, 1));
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_all_overflow_quantile_is_none() {
        // Regression: with every observation in the overflow bin, quantile
        // used to return Some(hi) — a silently wrong value for data known
        // only to be >= hi.
        let mut h = Histogram::new(0.0, 10.0, 5);
        for _ in 0..8 {
            h.record(1_000.0);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn histogram_quantile_inside_overflow_region_is_none() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for i in 0..9 {
            h.record(i as f64); // 9 in-range observations
        }
        h.record(50.0); // 1 overflow
                        // The median is in range, the maximum is not.
        assert!(h.quantile(0.5).is_some());
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn auto_resize_doubles_range_and_preserves_counts() {
        let mut h = Histogram::with_auto_resize(0.0, 10.0, 10, 80.0);
        for i in 0..10 {
            h.record(i as f64); // one per bin
        }
        assert_eq!(h.range_hi(), 10.0);
        // A value at 35 forces two doublings: [0,10) -> [0,20) -> [0,40).
        h.record(35.0);
        assert_eq!(h.range_hi(), 40.0);
        assert_eq!(h.count(), 11);
        assert_eq!(h.outliers(), (0, 0), "35 fits after resizing");
        // The original ten observations survived the pair merges exactly.
        assert_eq!(h.bins().iter().sum::<u64>(), 11);
        assert_eq!(&h.bins()[..3], &[4, 4, 2], "0-3, 4-7, 8-9 per 4-wide bin");
        // Beyond the cap (next doubling would need hi = 160 > 80): overflow.
        h.record(100.0);
        assert_eq!(h.range_hi(), 80.0, "one last doubling to the cap");
        assert_eq!(h.outliers(), (0, 1));
        assert_eq!(h.quantile(1.0), None, "unbounded tail stays unknown");
    }

    #[test]
    fn auto_resize_is_record_order_independent() {
        let values = [1.0, 9.5, 35.0, 4.0, 19.0, 0.0, 39.9];
        let mut forward = Histogram::with_auto_resize(0.0, 10.0, 8, 640.0);
        let mut reverse = Histogram::with_auto_resize(0.0, 10.0, 8, 640.0);
        for &v in &values {
            forward.record(v);
        }
        for &v in values.iter().rev() {
            reverse.record(v);
        }
        assert_eq!(forward.range_hi(), reverse.range_hi());
        assert_eq!(forward.bins(), reverse.bins());
        assert_eq!(
            forward.quantile(0.99).map(f64::to_bits),
            reverse.quantile(0.99).map(f64::to_bits)
        );
    }

    #[test]
    fn saturated_distribution_reports_p99_after_resizing() {
        // Every observation beyond the initial range: a fixed histogram
        // would answer None for every quantile; the auto-resizing one
        // recovers the whole distribution at coarser resolution.
        let mut h = Histogram::with_auto_resize(0.0, 10.0, 100, 10_000.0);
        for i in 0..1000 {
            h.record(50.0 + (i % 100) as f64);
        }
        let p99 = h.quantile(0.99).expect("saturation stays quantifiable");
        assert!((p99 - 149.0).abs() < 10.0, "p99 {p99}");
        let fixed = {
            let mut f = Histogram::new(0.0, 10.0, 100);
            f.record(50.0);
            f
        };
        assert_eq!(
            fixed.quantile(0.99),
            None,
            "fixed range keeps the old contract"
        );
    }

    #[test]
    fn ci95_half_width_shrinks_with_replicates() {
        let mut few = RunningStats::new();
        few.extend([1.0, 2.0, 3.0, 4.0]);
        let mut many = RunningStats::new();
        for _ in 0..16 {
            many.extend([1.0, 2.0, 3.0, 4.0]);
        }
        assert!(few.ci95_half_width() > 0.0);
        // Same dispersion, 16x the observations: the half-width shrinks by
        // the 4x sample-size factor *and* the t(3)=3.182 → t(63)≈1.998
        // critical-value drop.
        assert!(many.ci95_half_width() < few.ci95_half_width() / 3.5);
        // The small-n width uses the Student-t multiplier, not z = 1.96:
        // n = 4, s² = 5/3 ⇒ 3.182 · √(5/12).
        let expected_few = 3.182 * (few.sample_variance() / 4.0).sqrt();
        assert!((few.ci95_half_width() - expected_few).abs() < 1e-9);
        let mut single = RunningStats::new();
        single.push(7.0);
        assert_eq!(single.ci95_half_width(), 0.0);
    }

    #[test]
    fn t_critical_is_continuous_and_monotone() {
        // The tabulated region, the interpolated 31..=120 region and the
        // tail must form one strictly decreasing sequence — the old code
        // jumped 2.042 → 1.96 at df 31, making CI widths non-monotone in n.
        let mut prev = t_critical_975(1);
        for df in 2..=2000 {
            let t = t_critical_975(df);
            assert!(
                t < prev,
                "t_critical_975 must strictly decrease: t({df}) = {t} vs t({}) = {prev}",
                df - 1
            );
            // Past the table edge no step exceeds 0.5 % of the value (the
            // old discontinuity at df 31 was ~4 %); inside the table the
            // tabulated quantiles drop as steeply as the distribution does.
            if df > 30 {
                assert!(prev - t < 0.005 * prev, "step at df {df}: {prev} -> {t}");
            }
            prev = t;
        }
        // Pinned anchors: the table edge, the standard breakpoints, and the
        // normal limit far out.
        assert_eq!(t_critical_975(30), 2.042);
        assert_eq!(t_critical_975(40), 2.021);
        assert_eq!(t_critical_975(60), 2.000);
        assert_eq!(t_critical_975(120), 1.980);
        assert!((t_critical_975(1_000_000) - 1.96).abs() < 1e-4);
        // ci95_half_width is now monotone across the df 30 → 31 boundary
        // for identically dispersed samples.
        let sample = [1.0, 5.0, 9.0];
        let mut n31 = RunningStats::new();
        let mut n32 = RunningStats::new();
        for i in 0..32 {
            if i < 31 {
                n31.push(sample[i % 3]);
            }
            n32.push(sample[i % 3]);
        }
        assert!(n32.ci95_half_width() < n31.ci95_half_width());
    }
}
