//! Online statistics used by every measurement in the reproduction:
//! Welford mean/variance, min/max tracking, logarithmic histograms and
//! raw time series.

use crate::Nanos;
use std::fmt;

/// Streaming mean / variance / count via Welford's algorithm.
///
/// # Example
///
/// ```
/// use simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] { s.record(x); }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            // Extend in place; replacing `*self` with a clone of `other`
            // would discard this accumulator's storage for no gain.
            self.n = other.n;
            self.mean = other.mean;
            self.m2 = other.m2;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
    }
}

/// Running minimum and maximum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MinMax {
    min: Option<f64>,
    max: Option<f64>,
}

impl MinMax {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

/// Combined response-time style summary: count, mean, σ, min, max.
///
/// This is the unit of reporting for the paper's Figures 2 & 4 (min–max
/// bars) and Table 1 (averages).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    online: OnlineStats,
    minmax: MinMax,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.online.record(x);
        self.minmax.record(x);
    }

    /// Adds a duration observation in milliseconds.
    pub fn record_nanos(&mut self, d: Nanos) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.online.count()
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        self.online.mean()
    }

    /// Standard deviation of the observations.
    pub fn std_dev(&self) -> f64 {
        self.online.std_dev()
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.minmax.min().unwrap_or(0.0)
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.minmax.max().unwrap_or(0.0)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.online.merge(&other.online);
        if let Some(m) = other.minmax.min() {
            self.minmax.record(m);
        }
        if let Some(m) = other.minmax.max() {
            self.minmax.record(m);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} max={:.2}",
            self.count(),
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// Histogram with logarithmically spaced buckets (base √2 by default
/// granularity of ~2 buckets per octave is enough for latency shapes).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// bucket i counts values in [scale * r^i, scale * r^(i+1))
    counts: Vec<u64>,
    scale: f64,
    ratio: f64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given smallest bucket boundary,
    /// bucket growth ratio and bucket count.
    ///
    /// # Panics
    /// Panics if `scale <= 0`, `ratio <= 1`, or `buckets == 0`.
    pub fn new(scale: f64, ratio: f64, buckets: usize) -> Self {
        assert!(scale > 0.0 && ratio > 1.0 && buckets > 0);
        Histogram {
            counts: vec![0; buckets],
            scale,
            ratio,
            underflow: 0,
            total: 0,
        }
    }

    /// A latency-oriented default: 1 µs .. ~100 s in ms units.
    pub fn latency_millis() -> Self {
        Histogram::new(1e-3, std::f64::consts::SQRT_2, 56)
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.scale {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.scale).ln() / self.ratio.ln()) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (`q` in `[0,1]`) using bucket upper bounds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.scale;
        }
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.scale * self.ratio.powi(i as i32 + 1);
            }
        }
        self.scale * self.ratio.powi(self.counts.len() as i32)
    }
}

/// A captured `(time, value)` series, e.g. for Figure 7's CPU/buffer traces.
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(Nanos, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, t: Nanos, v: f64) {
        self.points.push((t, v));
    }

    /// The captured samples in insertion order.
    pub fn points(&self) -> &[(Nanos, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples have been captured.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest value in the series, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of the sampled values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basics() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.record(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn minmax_tracks() {
        let mut m = MinMax::new();
        assert_eq!(m.min(), None);
        m.record(3.0);
        m.record(-1.0);
        m.record(2.0);
        assert_eq!(m.min(), Some(-1.0));
        assert_eq!(m.max(), Some(3.0));
    }

    #[test]
    fn summary_combines() {
        let mut s = Summary::new();
        s.record_nanos(Nanos::from_millis(10));
        s.record_nanos(Nanos::from_millis(30));
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert_eq!(s.min(), 10.0);
        assert_eq!(s.max(), 30.0);
        let shown = s.to_string();
        assert!(shown.contains("n=2"), "{shown}");
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        a.record(1.0);
        let mut b = Summary::new();
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 9.0);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::latency_millis();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p50 > 300.0 && p50 < 800.0, "p50 {p50}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_underflow_and_empty() {
        let mut h = Histogram::new(1.0, 2.0, 4);
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(0.01);
        assert_eq!(h.quantile(1.0), 1.0);
    }

    #[test]
    fn series_capture() {
        let mut s = Series::new();
        assert!(s.is_empty());
        s.push(Nanos(1), 2.0);
        s.push(Nanos(2), 8.0);
        s.push(Nanos(3), 5.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_value(), Some(8.0));
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.points()[1], (Nanos(2), 8.0));
    }

    #[test]
    #[should_panic(expected = "scale > 0.0")]
    fn histogram_rejects_bad_scale() {
        let _ = Histogram::new(0.0, 2.0, 4);
    }

    #[test]
    fn histogram_overflow_lands_in_last_bucket() {
        let mut h = Histogram::new(1.0, 2.0, 3); // buckets up to 8
        h.record(1e12);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) >= 8.0);
    }

    #[test]
    fn summary_display_handles_empty() {
        let s = Summary::new();
        let text = s.to_string();
        assert!(text.contains("n=0"), "{text}");
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }
}
