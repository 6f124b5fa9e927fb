//! Time-ordered event queue with FIFO tie-breaking: one binary min-heap
//! of `(time, seq, event)` entries, plus one FIFO lane for fixed-delay
//! timers.
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
//!
//! A timer armed at a fixed delay from a clock that never goes back
//! (the platform's first-transmission RTO) is due no earlier than the
//! one armed before it. [`EventQueue::schedule_fifo`] appends it to a
//! `VecDeque` lane in O(1); an entry due before the lane's last falls
//! back to the heap. Lane and heap share one `seq` counter and `pop`
//! takes the smaller `(time, seq)` of the two heads, so pop order is
//! exactly `(time, seq)`. Queues that never use the lane pay one length
//! check per `pop` and `peek_time`.

use crate::Nanos;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// A heap or lane entry, ordered by `(time, seq)` alone.
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
    /// `schedule_fifo` entries in non-decreasing time, hence `(time, seq)`,
    /// order.
    lane: VecDeque<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. Allocates nothing until the first event
    /// is scheduled.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
        }
    }

    fn entry(&mut self, time: Nanos, event: E) -> Entry<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { time, seq, event }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn schedule(&mut self, time: Nanos, event: E) {
        let e = self.entry(time, event);
        self.heap.push(Reverse(e));
    }

    /// Schedules `event` at absolute time `time`, like
    /// [`schedule`](Self::schedule), through the FIFO lane: O(1) when
    /// `time` is no earlier than the last lane entry's, which holds for a
    /// fixed delay added to a clock that never goes back. An earlier
    /// `time` goes to the heap, so the pop order is the same either way.
    pub fn schedule_fifo(&mut self, time: Nanos, event: E) {
        let e = self.entry(time, event);
        match self.lane.back() {
            Some(last) if time < last.time => self.heap.push(Reverse(e)),
            _ => self.lane.push_back(e),
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        let top = self.heap.peek().map(|Reverse(e)| e.time);
        match self.lane.front() {
            None => top,
            Some(l) => Some(top.map_or(l.time, |t| t.min(l.time))),
        }
    }

    /// Removes and returns the earliest pending event with its time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let e = match self.lane.front() {
            Some(l) if self.heap.peek().is_none_or(|Reverse(h)| l < h) => self.lane.pop_front(),
            _ => self.heap.pop().map(|Reverse(e)| e),
        };
        e.map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// `true` if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
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
        let mut sorted: Vec<(u64, usize)> = times
            .iter()
            .copied()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect();
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

    #[test]
    fn lane_and_heap_entries_at_equal_time_pop_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(5), 'a');
        q.schedule_fifo(Nanos(5), 'b');
        q.schedule(Nanos(5), 'c');
        q.schedule_fifo(Nanos(5), 'd');
        for c in ['a', 'b', 'c', 'd'] {
            assert_eq!(q.pop(), Some((Nanos(5), c)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lane_fallback_keeps_the_order() {
        // The second and fourth `schedule_fifo` calls are earlier than
        // the lane's last entry and fall back to the heap.
        let mut q = EventQueue::new();
        q.schedule_fifo(Nanos(30), 'a');
        q.schedule_fifo(Nanos(10), 'b');
        q.schedule_fifo(Nanos(30), 'c');
        q.schedule_fifo(Nanos(20), 'd');
        q.schedule(Nanos(25), 'e');
        q.schedule_fifo(Nanos(40), 'f');
        assert_eq!(q.peek_time(), Some(Nanos(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (10, 'b'),
                (20, 'd'),
                (25, 'e'),
                (30, 'a'),
                (30, 'c'),
                (40, 'f')
            ]
            .map(|(t, c)| (Nanos(t), c))
        );
    }

    #[test]
    fn len_and_is_empty_count_lane_and_heap() {
        let mut q = EventQueue::new();
        q.schedule_fifo(Nanos(7), 1);
        assert_eq!((q.len(), q.is_empty()), (1, false));
        q.schedule(Nanos(9), 2);
        assert_eq!((q.len(), q.is_empty()), (2, false));
        assert_eq!(q.pop(), Some((Nanos(7), 1)));
        assert_eq!(
            (q.len(), q.is_empty(), q.peek_time()),
            (1, false, Some(Nanos(9)))
        );
        assert_eq!(q.pop(), Some((Nanos(9), 2)));
        q.schedule_fifo(Nanos(3), 3);
        assert_eq!(
            (q.len(), q.is_empty(), q.peek_time()),
            (1, false, Some(Nanos(3)))
        );
        assert_eq!(q.pop(), Some((Nanos(3), 3)));
        assert_eq!((q.len(), q.is_empty(), q.peek_time()), (0, true, None));
    }
}
