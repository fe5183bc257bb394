//! Online statistics for simulation outputs.
//!
//! Everything here is single-pass and allocation-light so it can sit on hot
//! event paths:
//!
//! * [`OnlineStats`] — Welford mean/variance/min/max.
//! * [`TimeWeighted`] — integral-of-value-over-time averages; the correct way
//!   to measure utilization and queue length.
//! * [`ci_student_t`] — replication-level confidence intervals.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Welford single-pass mean / variance / extrema accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Non-finite values are ignored (and counted
    /// nowhere) — a deliberate guard against NaN poisoning long runs.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. "busy nodes".
///
/// Call [`TimeWeighted::set`] whenever the value changes; query the average
/// over any elapsed window with [`TimeWeighted::average`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    start: SimTime,
    integral: f64, // value·seconds accumulated before `last_change`
    peak: f64,
}

impl TimeWeighted {
    /// Start tracking at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            value,
            last_change: start,
            start,
            integral: 0.0,
            peak: value,
        }
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The maximum value the signal has reached.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Change the signal's value at time `now` (must be monotone).
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change, "TimeWeighted: time went backwards");
        let dt = now.saturating_since(self.last_change).as_secs_f64();
        self.integral += self.value * dt;
        self.value = value;
        self.last_change = now;
        self.peak = self.peak.max(value);
    }

    /// Add `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The time-weighted average over `[start, now]`. Returns 0 for an empty
    /// window.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        (self.integral + self.value * tail) / span
    }

    /// The integral of the signal over `[start, now]`, in value·seconds.
    pub fn integral(&self, now: SimTime) -> f64 {
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        self.integral + self.value * tail
    }
}

/// Two-sided Student-t critical values at 95% confidence, by degrees of
/// freedom (1-based index; `[0]` unused). Beyond 30 d.o.f. we use 1.96.
const T_TABLE_95: [f64; 31] = [
    f64::NAN,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

/// Mean and 95% confidence half-width across replication means.
///
/// Returns `(mean, half_width)`; the half-width is 0 for fewer than two
/// replications.
pub fn ci_student_t(replication_means: &[f64]) -> (f64, f64) {
    let n = replication_means.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = replication_means.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = replication_means
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (n - 1) as f64;
    let dof = n - 1;
    let t = if dof <= 30 { T_TABLE_95[dof] } else { 1.96 };
    (mean, t * (var / n as f64).sqrt())
}

/// Exact quantile of a *stored* sample (for small result sets where storing
/// is fine). Uses the nearest-rank method. Returns `None` if empty.
pub fn exact_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let q = q.clamp(0.0, 1.0);
    let idx = ((q * sorted.len() as f64).ceil() as usize).saturating_sub(1);
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// A named series of `(x, y)` points — the common currency of experiment
/// outputs (one per figure line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// The data points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given legend label.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Convenience: a utilization tracker counting busy capacity out of a fixed
/// total (e.g. busy cores on a cluster).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Utilization {
    busy: TimeWeighted,
    capacity: f64,
}

impl Utilization {
    /// Track utilization of `capacity` units starting at `start` with nothing busy.
    pub fn new(start: SimTime, capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        Utilization {
            busy: TimeWeighted::new(start, 0.0),
            capacity,
        }
    }

    /// Mark `amount` additional units busy at `now`.
    pub fn acquire(&mut self, now: SimTime, amount: f64) {
        let v = self.busy.current() + amount;
        debug_assert!(
            v <= self.capacity + 1e-9,
            "over capacity: {v} > {}",
            self.capacity
        );
        self.busy.set(now, v);
    }

    /// Release `amount` units at `now`.
    pub fn release(&mut self, now: SimTime, amount: f64) {
        let v = self.busy.current() - amount;
        debug_assert!(v >= -1e-9, "released more than acquired");
        self.busy.set(now, v.max(0.0));
    }

    /// Currently busy units.
    pub fn busy(&self) -> f64 {
        self.busy.current()
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Average utilization in `[start, now]` as a fraction of capacity.
    pub fn average(&self, now: SimTime) -> f64 {
        self.busy.average(now) / self.capacity
    }

    /// Busy integral in unit·seconds (e.g. core-seconds delivered).
    pub fn busy_integral(&self, now: SimTime) -> f64 {
        self.busy.integral(now)
    }
}

/// Helper: bucket a (time, value) stream into fixed windows, summing values —
/// used for "usage per quarter" style series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeBuckets {
    width: SimDuration,
    sums: Vec<f64>,
}

impl TimeBuckets {
    /// Buckets of the given width starting at time zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        TimeBuckets {
            width,
            sums: Vec::new(),
        }
    }

    /// Add `value` to the bucket containing `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = at.bucket_index(self.width) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
        }
        self.sums[idx] += value;
    }

    /// Per-bucket sums, index 0 first.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic set is 4; sample variance 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_ignores_nonfinite() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 1.37).sin() * 10.0 + 5.0)
            .collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 4.0); // 0 for 10 s
        tw.set(SimTime::from_secs(20), 2.0); // 4 for 10 s
                                             // then 2 for 10 s → integral = 0 + 40 + 20 = 60 over 30 s
        assert!((tw.average(SimTime::from_secs(30)) - 2.0).abs() < 1e-12);
        assert!((tw.integral(SimTime::from_secs(30)) - 60.0).abs() < 1e-9);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 2.0);
    }

    #[test]
    fn time_weighted_add_and_empty_window() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 1.0);
        assert_eq!(tw.average(SimTime::from_secs(5)), 0.0);
        tw.add(SimTime::from_secs(10), 2.0);
        assert_eq!(tw.current(), 3.0);
        // [5,10]: 1 for 5s; [10,15]: 3 for 5s → avg (5+15)/10 = 2
        assert!((tw.average(SimTime::from_secs(15)) - 2.0).abs() < 1e-12);
    }

    // Quantile checks. The workspace's one streaming quantile estimator is
    // `QuantileSketch`; it replaced a fixed-width or log-binned histogram
    // and a P² marker estimator. The tests below keep the names and the
    // bars those two were held to, and hold the sketch to them.
    use crate::sketch::{QuantileSketch, RELATIVE_ERROR};

    fn sketch_of(values: impl IntoIterator<Item = f64>) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for x in values {
            s.record(x);
        }
        s
    }

    #[test]
    fn histogram_linear_binning_and_quantiles() {
        // A linear ramp 0.5, 1.5, …, 99.5.
        let ramp: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let h = sketch_of(ramp.iter().copied());
        assert_eq!(h.count(), 100);
        let median = h.quantile(0.5);
        assert!((median - 50.0).abs() < 10.0, "median {median}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 90.0).abs() < 10.0, "p90 {p90}");
        assert!((h.mean() - 50.0).abs() < 1.0, "mean {}", h.mean());
        for q in [0.5, 0.9] {
            let exact = exact_quantile(&ramp, q).unwrap();
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= RELATIVE_ERROR * exact,
                "q={q}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_outliers_clamp() {
        // A negative value clamps to zero and lands below the bin range;
        // 1e18 s lands above it. Both guard bins keep the exact extremes,
        // so the end quantiles report them exactly.
        let h = sketch_of([-100.0, 1e18]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e18);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 1e18);
    }

    #[test]
    fn histogram_merge() {
        let mut a = sketch_of([1.0]);
        let b = sketch_of([9.0, 9.5]);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a, sketch_of([1.0, 9.0, 9.5]));
        // 9.0 and 9.5 share a bin, so ranks 2 and 3 answer alike.
        assert_eq!(a.quantile(0.5), a.quantile(0.99));
    }

    #[test]
    fn empty_histogram_quantile_none() {
        // An empty stream has no quantile: the exact referee answers None,
        // and the sketch reports no observations and zeroes throughout.
        assert_eq!(exact_quantile(&[], 0.5), None);
        let h = QuantileSketch::new();
        assert!(h.is_empty());
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!((s.p50, s.p95, s.p99), (0.0, 0.0, 0.0));
    }

    #[test]
    fn p2_median_converges_on_uniform() {
        let mut p = QuantileSketch::new();
        let mut rng = crate::rng::SimRng::seeded(4);
        for _ in 0..50_000 {
            p.record(rng.uniform_range(0.0, 100.0));
        }
        let est = p.quantile(0.5);
        assert!((est - 50.0).abs() < 2.0, "median estimate {est}");
    }

    #[test]
    fn p2_p95_converges_on_exponential() {
        use crate::dist::{Dist, Exponential};
        let mut p = QuantileSketch::new();
        let d = Exponential::with_mean(10.0);
        let mut rng = crate::rng::SimRng::seeded(5);
        for _ in 0..100_000 {
            p.record(d.sample(&mut rng));
        }
        let est = p.quantile(0.95);
        let expect = -10.0 * (0.05f64).ln(); // ≈ 29.96
        assert!((est - expect).abs() / expect < 0.1, "p95 {est} vs {expect}");
    }

    #[test]
    fn p2_small_samples_exact() {
        let mut p = QuantileSketch::new();
        assert!(p.is_empty());
        p.record(10.0);
        // One sample: the [min, max] clamp makes every quantile exact.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(p.quantile(q), 10.0);
        }
        p.record(20.0);
        p.record(30.0);
        let est = p.quantile(0.5);
        assert!(
            (est - 20.0).abs() <= RELATIVE_ERROR * 20.0,
            "median estimate {est}"
        );
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn ci_behaviour() {
        assert_eq!(ci_student_t(&[]), (0.0, 0.0));
        assert_eq!(ci_student_t(&[5.0]), (5.0, 0.0));
        let (m, hw) = ci_student_t(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert!((m - 11.0).abs() < 1e-12);
        assert!(hw > 0.0 && hw < 5.0);
        // Identical replications → zero width.
        let (_, hw0) = ci_student_t(&[7.0; 10]);
        assert_eq!(hw0, 0.0);
        // Wider sample → wider CI.
        let (_, hw_wide) = ci_student_t(&[1.0, 21.0, 11.0, 2.0, 20.0]);
        assert!(hw_wide > hw);
    }

    #[test]
    fn exact_quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(exact_quantile(&v, 0.5), Some(3.0));
        assert_eq!(exact_quantile(&v, 0.0), Some(1.0));
        assert_eq!(exact_quantile(&v, 1.0), Some(5.0));
        assert_eq!(exact_quantile(&[], 0.5), None);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = Utilization::new(SimTime::ZERO, 10.0);
        u.acquire(SimTime::ZERO, 5.0);
        u.release(SimTime::from_secs(50), 5.0);
        // busy 5/10 for 50 s then 0 for 50 s → 25% average
        assert!((u.average(SimTime::from_secs(100)) - 0.25).abs() < 1e-12);
        assert!((u.busy_integral(SimTime::from_secs(100)) - 250.0).abs() < 1e-9);
        assert_eq!(u.busy(), 0.0);
        assert_eq!(u.capacity(), 10.0);
    }

    #[test]
    fn time_buckets_accumulate() {
        let mut tb = TimeBuckets::new(SimDuration::from_days(7));
        tb.add(SimTime::from_days(1), 10.0);
        tb.add(SimTime::from_days(6), 5.0);
        tb.add(SimTime::from_days(8), 2.0);
        assert_eq!(tb.sums(), &[15.0, 2.0]);
        assert_eq!(tb.width(), SimDuration::from_days(7));
    }

    #[test]
    fn series_collects_points() {
        let mut s = Series::new("wait");
        s.push(1.0, 2.0);
        s.push(2.0, 3.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.name, "wait");
    }
}
