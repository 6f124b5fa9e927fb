//! Lightweight bounded event tracing for debugging simulations.
//!
//! A [`TraceBuffer`] is a fixed-capacity ring of timestamped records.
//! The record type is generic: components on a hot path record compact
//! event values (the platform uses a plain enum) and rendering to text
//! happens lazily, only when something actually reads the history — so
//! steady-state tracing costs a ring-slot write and no allocation. The
//! default record type is `String` for ad-hoc debugging.

use crate::Nanos;
use std::collections::VecDeque;
use std::fmt::Display;

/// A bounded ring of `(time, record)` trace entries.
///
/// # Example
///
/// ```
/// use simcore::{trace::TraceBuffer, Nanos};
///
/// let mut t: TraceBuffer = TraceBuffer::new(2);
/// t.record(Nanos::from_millis(1), "first");
/// t.record(Nanos::from_millis(2), "second");
/// t.record(Nanos::from_millis(3), "third"); // evicts "first"
/// let msgs: Vec<_> = t.iter().map(|(_, m)| m.as_str()).collect();
/// assert_eq!(msgs, vec!["second", "third"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer<T = String> {
    records: VecDeque<(Nanos, T)>,
    capacity: usize,
    recorded: u64,
}

/// Upper bound on *up-front* allocation in [`TraceBuffer::new`]. The
/// eviction bound is always the full `capacity`; buffers larger than this
/// start small and grow on demand, so a huge capacity costs nothing until
/// it is actually used.
const PREALLOC_LIMIT: usize = 4096;

impl<T> TraceBuffer<T> {
    /// Creates a buffer holding at most `capacity` records (0 disables
    /// recording entirely). Pre-allocation is capped at
    /// [`PREALLOC_LIMIT`](self) records; capacities beyond that grow
    /// lazily but still retain up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            records: VecDeque::with_capacity(capacity.min(PREALLOC_LIMIT)),
            capacity,
            recorded: 0,
        }
    }

    /// Appends a record, evicting the oldest when full. Once the ring has
    /// either filled its pre-allocated capacity or wrapped, this performs
    /// no heap allocation for record types that own no heap data.
    pub fn record(&mut self, now: Nanos, event: impl Into<T>) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back((now, event.into()));
        self.recorded += 1;
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Nanos, T)> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever written (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Clears retained records (the total count is preserved).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

impl<T: Display> TraceBuffer<T> {
    /// Renders the retained records, one per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (t, m) in &self.records {
            out.push_str(&format!("[{t}] {m}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t: TraceBuffer = TraceBuffer::new(3);
        for i in 0..5u64 {
            t.record(Nanos(i), format!("e{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 5);
        let first = t.iter().next().unwrap();
        assert_eq!(first.1, "e2");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut t: TraceBuffer = TraceBuffer::new(0);
        t.record(Nanos(1), "x");
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn dump_is_line_per_record() {
        let mut t: TraceBuffer = TraceBuffer::new(8);
        t.record(Nanos::from_millis(1), "alpha");
        t.record(Nanos::from_millis(2), "beta");
        let dump = t.dump();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("alpha"));
        assert!(dump.contains("1.000ms"));
    }

    #[test]
    fn capacity_beyond_prealloc_limit_still_retains_everything() {
        let cap = PREALLOC_LIMIT + 100;
        let mut t: TraceBuffer = TraceBuffer::new(cap);
        for i in 0..(cap as u64 + 50) {
            t.record(Nanos(i), "e");
        }
        // The true retention bound is `capacity`, not the pre-allocation
        // limit: the buffer grew past PREALLOC_LIMIT and evicted only the
        // overflow beyond `cap`.
        assert_eq!(t.len(), cap);
        assert_eq!(t.iter().next().unwrap().0, Nanos(50));
    }

    #[test]
    fn clear_keeps_total() {
        let mut t: TraceBuffer = TraceBuffer::new(2);
        t.record(Nanos(1), "a");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 1);
    }

    #[test]
    fn value_records_round_trip() {
        // Non-string record types work end to end; rendering happens
        // only in `dump`.
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Ev(u32);
        impl std::fmt::Display for Ev {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "ev#{}", self.0)
            }
        }
        let mut t: TraceBuffer<Ev> = TraceBuffer::new(2);
        t.record(Nanos(1), Ev(7));
        t.record(Nanos(2), Ev(8));
        t.record(Nanos(3), Ev(9));
        assert_eq!(
            t.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            [Ev(8), Ev(9)]
        );
        assert!(t.dump().contains("ev#9"));
    }
}
