//! The [`Component`] contract every event source implements, and the
//! [`Tracked`] wrapper that caches a source's horizon for the master
//! loop.
//!
//! Before this module, the platform's run loop hand-threaded nine event
//! sources through a `match`: each source had its own peek call, its own
//! scratch buffer, and its own arm. [`Component`] names the two
//! operations that loop actually needs —
//!
//! * [`next_event_time`](Component::next_event_time): the earliest
//!   simulated instant at which the component would change state on its
//!   own (its *horizon*; `None` when idle), and
//! * [`advance`](Component::advance): consume everything due at `now`,
//!   appending the externally visible results to `out`, and return the
//!   horizon the component is left with,
//!
//! — so schedulers, network islands, DMA links, mailbox lanes,
//! retransmission timers and accelerators all present one shape to the
//! loop, and a registry can iterate them instead of a hand-written match.
//!
//! [`Tracked`] owns one source and its cached horizon. Any `&mut` access
//! marks the cache stale, so the loop's per-iteration cost is one flag
//! test per source, and a recompute only for sources something touched.
//! [`Tracked::advance`] stores the horizon `advance` returns as fresh, so
//! a dispatched source is not re-peeked unless something borrows it
//! again before the next iteration.
//! The dispatch rule (earliest horizon, lowest source index breaks ties)
//! lives with the loop that owns the source order.

use crate::Nanos;
use std::ops::{Deref, DerefMut};

/// An event source the master loop can schedule: anything with a
/// well-defined next event time that can be advanced to a timestamp.
///
/// # Contract
///
/// * **Horizon validity** — `advance(now, …)` returns the component's
///   new horizon, which must equal [`next_event_time`](Self::next_event_time)
///   right after the call and be `>= now`: a component never
///   retroactively discovers work in the past. The conformance property
///   in `crates/bench/tests/determinism.rs` checks both for every island
///   device.
/// * **Purity of the peek** — `next_event_time` takes `&self` and must
///   not mutate observable state, and its answer may change only through
///   `&mut self`. [`Tracked`] relies on both: it re-peeks only after a
///   mutable borrow, so a horizon that moved behind a shared reference
///   (interior mutability) would leave its cache silently stale, and a
///   peek with side effects would make the number of re-peeks — which
///   varies with how often the platform touches a source — observable.
/// * **Determinism** — identical call sequences produce identical events
///   in identical order; any randomness comes from seeded state inside
///   the component.
pub trait Component {
    /// What the component emits when advanced (scheduler completions,
    /// classified packets, delivered frames, …).
    type Event;

    /// Earliest simulated time at which this component has work, or
    /// `None` when idle. The master loop never advances a component past
    /// another component's horizon.
    fn next_event_time(&self) -> Option<Nanos>;

    /// Advances internal state to `now`, appending externally visible
    /// events to `out`, and returns the horizon left afterwards: the
    /// value [`next_event_time`](Self::next_event_time) would answer now
    /// (`None` when idle). Called only with `now` equal to the
    /// component's own horizon (the loop dispatches exactly at event
    /// times).
    fn advance(&mut self, now: Nanos, out: &mut Vec<Self::Event>) -> Option<Nanos>;
}

/// An absent component is idle: `None` has no horizon and advancing it
/// emits nothing. Optional event sources (a reliable sender that is
/// configured off, a platform without an accelerator) then need no
/// special case in the loop.
impl<C: Component> Component for Option<C> {
    type Event = C::Event;

    #[inline]
    fn next_event_time(&self) -> Option<Nanos> {
        self.as_ref().and_then(C::next_event_time)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<Self::Event>) -> Option<Nanos> {
        self.as_mut().and_then(|c| c.advance(now, out))
    }
}

/// A component plus its cached horizon: the master loop's view of one
/// event source.
///
/// Shared access ([`Deref`]) leaves the cache alone; any mutable access
/// ([`DerefMut`]) marks it stale, and [`horizon`](Self::horizon)
/// recomputes it on the next call. Every mutation path therefore
/// invalidates the cache by construction — no call site can forget to
/// mark its source. The price is an occasional needless recompute after
/// a `&mut` use that did not move the horizon, which the peek's purity
/// makes harmless.
#[derive(Debug, Clone)]
pub struct Tracked<C> {
    inner: C,
    /// Last computed horizon ([`Nanos::MAX`] = idle); valid unless
    /// `stale`.
    cached: Nanos,
    stale: bool,
}

impl<C: Component> Tracked<C> {
    /// Wraps `inner` with a stale cache, so the first
    /// [`horizon`](Self::horizon) computes it from scratch.
    pub fn new(inner: C) -> Self {
        Tracked {
            inner,
            cached: Nanos::MAX,
            stale: true,
        }
    }

    /// The component's horizon ([`Nanos::MAX`] when idle), peeked only if
    /// a mutable borrow has happened since the last call.
    #[inline]
    pub fn horizon(&mut self) -> Nanos {
        if self.stale {
            self.cached = self.inner.next_event_time().unwrap_or(Nanos::MAX);
            self.stale = false;
        }
        self.cached
    }

    /// Advances the component to `now` (see [`Component::advance`]) and
    /// caches the horizon it returns as fresh, so the next
    /// [`horizon`](Self::horizon) answers without a peek.
    #[inline]
    pub fn advance(&mut self, now: Nanos, out: &mut Vec<C::Event>) {
        self.cached = self.inner.advance(now, out).unwrap_or(Nanos::MAX);
        self.stale = false;
    }

    /// Whether the cache is stale or agrees with a fresh peek: the
    /// master loop's debug sweep asserts this for every source on every
    /// iteration.
    pub fn is_coherent(&self) -> bool {
        self.stale || self.cached == self.inner.next_event_time().unwrap_or(Nanos::MAX)
    }

    /// Overwrites the cached horizon and marks it fresh without touching
    /// the component: a deliberately corrupted cache, for tests proving
    /// that [`is_coherent`](Self::is_coherent) checks catch it.
    #[doc(hidden)]
    pub fn corrupt_cache_for_test(&mut self, cached: Nanos) {
        self.cached = cached;
        self.stale = false;
    }
}

impl<C> Deref for Tracked<C> {
    type Target = C;

    #[inline]
    fn deref(&self) -> &C {
        &self.inner
    }
}

impl<C> DerefMut for Tracked<C> {
    #[inline]
    fn deref_mut(&mut self) -> &mut C {
        self.stale = true;
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;

    /// Counts its peeks, so tests can see when the cache recomputes.
    #[derive(Default)]
    struct Probe {
        next: Option<Nanos>,
        /// The horizon `advance` leaves behind.
        after: Option<Nanos>,
        peeks: std::cell::Cell<u32>,
    }

    impl Component for Probe {
        type Event = Nanos;

        fn next_event_time(&self) -> Option<Nanos> {
            self.peeks.set(self.peeks.get() + 1);
            self.next
        }

        fn advance(&mut self, now: Nanos, out: &mut Vec<Nanos>) -> Option<Nanos> {
            out.push(now);
            self.next = self.after;
            self.next
        }
    }

    #[test]
    fn mutable_borrows_mark_the_cache_stale_and_shared_ones_do_not() {
        let mut t = Tracked::new(Probe::default());
        assert_eq!(t.horizon(), Nanos::MAX);
        let _ = t.next;
        assert!(!t.stale, "a shared borrow must leave the cache fresh");
        t.next = Some(Nanos::from_micros(4));
        assert!(t.stale, "a mutable borrow must mark the cache stale");
        assert_eq!(t.horizon(), Nanos::from_micros(4));
        assert!(!t.stale);
    }

    #[test]
    fn horizon_recomputes_only_when_stale() {
        let mut t = Tracked::new(Probe {
            next: Some(Nanos::from_micros(2)),
            ..Probe::default()
        });
        assert_eq!(t.horizon(), Nanos::from_micros(2));
        assert_eq!(t.horizon(), Nanos::from_micros(2));
        assert_eq!(t.peeks.get(), 1, "a fresh cache answers without peeking");
        let mut out = Vec::new();
        Component::advance(&mut *t, Nanos::from_micros(2), &mut out);
        assert_eq!(out, vec![Nanos::from_micros(2)]);
        assert_eq!(t.horizon(), Nanos::MAX);
        assert_eq!(t.peeks.get(), 2);
    }

    #[test]
    fn tracked_advance_caches_the_returned_horizon_until_the_next_mutable_borrow() {
        let mut t = Tracked::new(Probe {
            next: Some(Nanos::from_micros(2)),
            after: Some(Nanos::from_micros(7)),
            ..Probe::default()
        });
        assert_eq!(t.horizon(), Nanos::from_micros(2));
        let mut out = Vec::new();
        t.advance(Nanos::from_micros(2), &mut out);
        assert_eq!(out, vec![Nanos::from_micros(2)]);
        assert_eq!(t.peeks.get(), 1);
        assert_eq!(t.horizon(), Nanos::from_micros(7));
        assert_eq!(t.horizon(), Nanos::from_micros(7));
        assert!(t.is_coherent());
        assert_eq!(t.peeks.get(), 2, "only the coherence check peeked");
        t.next = Some(Nanos::from_micros(5));
        assert_eq!(t.horizon(), Nanos::from_micros(5));
        assert_eq!(t.peeks.get(), 3, "the mutable borrow forced one re-peek");
    }

    #[test]
    fn coherence_check_catches_a_corrupted_cache() {
        let mut t = Tracked::new(Probe {
            next: Some(Nanos::from_micros(9)),
            ..Probe::default()
        });
        assert!(t.is_coherent(), "a stale cache is never incoherent");
        t.horizon();
        assert!(t.is_coherent());
        t.corrupt_cache_for_test(Nanos::from_micros(1));
        assert!(!t.is_coherent());
        t.next = Some(Nanos::from_micros(1));
        assert!(
            t.is_coherent(),
            "the borrow that moved the horizon marked it stale"
        );
    }

    #[test]
    fn an_absent_component_is_idle_and_a_present_one_forwards() {
        let mut none: Option<Probe> = None;
        assert_eq!(Component::next_event_time(&none), None);
        let mut out = Vec::new();
        assert_eq!(
            Component::advance(&mut none, Nanos::from_micros(1), &mut out),
            None
        );
        assert!(out.is_empty());
        let mut some = Some(Probe {
            next: Some(Nanos::from_micros(3)),
            ..Probe::default()
        });
        assert_eq!(
            Component::next_event_time(&some),
            Some(Nanos::from_micros(3))
        );
        assert_eq!(
            Component::advance(&mut some, Nanos::from_micros(3), &mut out),
            None
        );
        assert_eq!(out, vec![Nanos::from_micros(3)]);
        assert_eq!(Component::next_event_time(&some), None);
        assert_eq!(Tracked::new(none).horizon(), Nanos::MAX);
    }

    #[test]
    fn event_queue_is_a_component() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(Component::next_event_time(&q), None);
        q.schedule(Nanos::from_micros(3), 7);
        q.schedule(Nanos::from_micros(1), 9);
        let t = Component::next_event_time(&q).unwrap();
        assert_eq!(t, Nanos::from_micros(1));
        let mut out = Vec::new();
        // One event per advance: the head at 3 µs is still queued.
        assert_eq!(q.advance(t, &mut out), Some(Nanos::from_micros(3)));
        assert_eq!(out, vec![(Nanos::from_micros(1), 9)]);
        assert_eq!(Component::next_event_time(&q), Some(Nanos::from_micros(3)));
    }
}
