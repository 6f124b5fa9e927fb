//! Time-ordered event queue with FIFO tie-breaking, implemented as one
//! binary min-heap of `(time, seq, event)` entries.
//!
//! The queue is the innermost loop of every simulation in the workspace:
//! the master platform loop, the IXP pipeline, the PCIe link, the
//! coordination mailboxes and the accelerator all drain through one.
//! These queues hold tens to a few hundred entries, and many of them are
//! long timers (retransmission timeouts, client think times, sample
//! ticks), so one `BinaryHeap` ordered by `(time, seq)` is both the
//! simplest and the fastest index: every entry is pushed and popped
//! exactly once, whatever its horizon. There is no cancellation: a timer
//! no longer wanted (a stale RTO) fires and its handler ignores it.

use crate::Nanos;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A heap entry, ordered by `(time, seq)` alone.
#[derive(Debug)]
struct Entry<E> {
    time: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A discrete-event queue ordered by time.
///
/// Two events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), which keeps simulations deterministic.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_micros(10), 'a');
/// q.schedule(Nanos::from_micros(10), 'b');
/// assert_eq!(q.pop(), Some((Nanos::from_micros(10), 'a')));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(10), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. Allocates nothing until the first
    /// `schedule`.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn schedule(&mut self, time: Nanos, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Removes and returns the earliest pending event with its time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The master queue is itself an event source to the registry-driven
/// loop: its horizon is the head's timestamp, and advancing it pops the
/// due head — one event per call, so equal-time events keep their FIFO
/// order across successive advances and the master loop's tie-break
/// stays with the loop, not the queue. Events carry their timestamp so
/// handlers scheduled in the past (never produced, but type-honest)
/// remain observable.
impl<E> crate::Component for EventQueue<E> {
    type Event = (Nanos, E);

    fn next_event_time(&self) -> Option<Nanos> {
        self.peek_time()
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<(Nanos, E)>) -> Option<Nanos> {
        if self.peek_time().is_some_and(|t| t <= now) {
            out.extend(self.pop());
        }
        self.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), 3);
        q.schedule(Nanos(10), 1);
        q.schedule(Nanos(20), 2);
        assert_eq!(q.pop(), Some((Nanos(10), 1)));
        assert_eq!(q.pop(), Some((Nanos(20), 2)));
        assert_eq!(q.pop(), Some((Nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), 1);
        assert_eq!(q.pop(), Some((Nanos(10), 1)));
        q.schedule(Nanos(5), 2);
        q.schedule(Nanos(7), 3);
        assert_eq!(q.pop(), Some((Nanos(5), 2)));
        q.schedule(Nanos(6), 4);
        assert_eq!(q.pop(), Some((Nanos(6), 4)));
        assert_eq!(q.pop(), Some((Nanos(7), 3)));
    }

    #[test]
    fn wide_horizons_pop_in_sorted_order() {
        // Horizons from nanoseconds to 50 ms, scheduled out of order.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500)
            .map(|i| (i * 2_654_435_761u64) % 50_000_000) // up to 50 ms
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        sorted.sort();
        for (t, i) in sorted {
            assert_eq!(q.pop(), Some((Nanos(t), i)));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_in_the_past_still_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10_000_000), 'f');
        q.schedule(Nanos(1), 'p');
        assert_eq!(q.pop(), Some((Nanos(1), 'p')));
        // A schedule behind the last popped time still comes out ahead
        // of the far event.
        assert_eq!(q.peek_time(), Some(Nanos(10_000_000)));
        q.schedule(Nanos(5), 'q');
        assert_eq!(q.peek_time(), Some(Nanos(5)));
        assert_eq!(q.pop(), Some((Nanos(5), 'q')));
        assert_eq!(q.pop(), Some((Nanos(10_000_000), 'f')));
    }
}
