//! Per-request-type response-time collection (Figures 2 & 4, Table 1).
//!
//! Every histogram here is built by `Histogram::latency_millis`, so a
//! record computes its latency bucket once and counts it in both its
//! type's histogram and the overall one (`Histogram::record_with`, which
//! checks that the two layouts agree).

use simcore::stats::{Histogram, Summary};
use simcore::Nanos;
use std::collections::BTreeMap;

/// Response-time summaries keyed by request type name.
///
/// # Example
///
/// ```
/// use metrics::ResponseStats;
/// use simcore::Nanos;
///
/// let mut r = ResponseStats::new();
/// r.record("PutBid", Nanos::from_millis(1500));
/// r.record("PutBid", Nanos::from_millis(500));
/// let s = r.summary("PutBid").unwrap();
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.mean(), 1000.0); // milliseconds
/// ```
#[derive(Debug, Clone)]
pub struct ResponseStats {
    per_type: BTreeMap<String, (Summary, Histogram)>,
    all: Summary,
    all_hist: Histogram,
}

impl Default for ResponseStats {
    fn default() -> Self {
        ResponseStats {
            per_type: BTreeMap::new(),
            all: Summary::new(),
            all_hist: Histogram::latency_millis(),
        }
    }
}

impl ResponseStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed request of type `key` with the given
    /// end-to-end latency. Values are summarised in milliseconds. Only the
    /// first record of a type allocates (its owned key).
    pub fn record(&mut self, key: &str, latency: Nanos) {
        let (summary, hist) = match self.per_type.get_mut(key) {
            Some(entry) => entry,
            None => self
                .per_type
                .entry(key.to_owned())
                .or_insert_with(|| (Summary::new(), Histogram::latency_millis())),
        };
        let ms = latency.as_millis_f64();
        summary.record(ms);
        self.all.record(ms);
        hist.record_with(&mut self.all_hist, ms);
    }

    /// Approximate latency percentile for one request type, in
    /// milliseconds (`q` in 0..=1; 0 when the type was never seen).
    pub fn percentile(&self, key: &str, q: f64) -> f64 {
        self.per_type.get(key).map_or(0.0, |(_, h)| h.quantile(q))
    }

    /// Approximate latency percentile across all types, in milliseconds.
    pub fn overall_percentile(&self, q: f64) -> f64 {
        self.all_hist.quantile(q)
    }

    /// Summary for one request type.
    pub fn summary(&self, key: &str) -> Option<&Summary> {
        self.per_type.get(key).map(|(s, _)| s)
    }

    /// Summary across all request types.
    pub fn overall(&self) -> &Summary {
        &self.all
    }

    /// Iterates `(type, summary)` in type order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.per_type.iter().map(|(k, (s, _))| (k.as_str(), s))
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.all.count()
    }

    /// Number of distinct request types seen.
    pub fn types(&self) -> usize {
        self.per_type.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_type_and_overall() {
        let mut r = ResponseStats::new();
        r.record("A", Nanos::from_millis(10));
        r.record("A", Nanos::from_millis(30));
        r.record("B", Nanos::from_millis(100));
        assert_eq!(r.total(), 3);
        assert_eq!(r.types(), 2);
        assert_eq!(r.summary("A").unwrap().mean(), 20.0);
        assert_eq!(r.summary("B").unwrap().count(), 1);
        assert!(r.summary("C").is_none());
        assert!((r.overall().mean() - 140.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_data() {
        let mut r = ResponseStats::new();
        for i in 1..=1000u64 {
            r.record("T", Nanos::from_millis(i));
        }
        let p50 = r.percentile("T", 0.5);
        let p95 = r.percentile("T", 0.95);
        let p99 = r.percentile("T", 0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 > 300.0 && p50 < 800.0, "p50 {p50}");
        assert!(p99 > 800.0, "p99 {p99}");
        assert_eq!(r.percentile("missing", 0.5), 0.0);
        assert!(r.overall_percentile(0.99) >= r.overall_percentile(0.5));
    }

    #[test]
    fn shared_bucket_matches_separate_histograms() {
        let names = ["BrowseCategories", "PutBid", "ViewItem", "SearchItems"];
        let mut r = ResponseStats::new();
        let mut per_type: Vec<Histogram> =
            names.iter().map(|_| Histogram::latency_millis()).collect();
        let mut all = Histogram::latency_millis();
        for i in 0..20_000u64 {
            // Sub-µs underflow, every bucket and, above ~268 s, overflow.
            let latency = if i % 50 == 0 {
                Nanos(i % 1000)
            } else {
                Nanos((i * i * 1009) % 400_000_000_000)
            };
            let k = (i % 4) as usize;
            r.record(names[k], latency);
            per_type[k].record(latency.as_millis_f64());
            all.record(latency.as_millis_f64());
        }
        for q in (0..=1000).map(|m| f64::from(m) / 1000.0) {
            for (k, name) in names.iter().enumerate() {
                assert_eq!(
                    r.percentile(name, q),
                    per_type[k].quantile(q),
                    "{name} q={q}"
                );
            }
            assert_eq!(r.overall_percentile(q), all.quantile(q), "overall q={q}");
        }
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = ResponseStats::new();
        r.record("Zed", Nanos(1));
        r.record("Alpha", Nanos(1));
        let keys: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["Alpha", "Zed"]);
    }
}
