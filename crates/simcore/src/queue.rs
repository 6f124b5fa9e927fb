//! Time-ordered event queue with FIFO tie-breaking and cancellation,
//! implemented as a binary min-heap over a generation-tagged slab.
//!
//! The queue is the innermost loop of every simulation in the workspace:
//! the master platform loop, the IXP pipeline, the PCIe link, the
//! coordination mailboxes and the accelerator all drain through one.
//! These queues hold tens to a few hundred entries, and many of them are
//! long timers (retransmission timeouts, client think times, sample
//! ticks), so one `BinaryHeap` ordered by `(time, seq)` is both the
//! simplest and the fastest index: every entry is pushed and popped
//! exactly once, whatever its horizon.
//!
//! * **Slab with generation tags** — payloads live in a slab; the heap
//!   stores 24-byte `(time, seq, slot, gen)` entries. An [`EventKey`]
//!   packs `(slot, gen)`, so `cancel` is a bounds check and a generation
//!   compare — no hashing. A cancelled entry stays in the heap as a
//!   tombstone, recognized by its generation mismatch and skipped.
//! * **Eager head** — tombstones are swept off the heap's top on every
//!   mutation, so the top is always live and [`EventQueue::peek_time`] is
//!   a read-only load.
//! * **Amortized compaction** — once tombstones outnumber live entries
//!   the heap is rebuilt without them (`BinaryHeap::retain`), so heavy
//!   cancel traffic cannot grow storage without bound.

use crate::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An opaque handle identifying a scheduled event, usable to cancel it.
///
/// A key packs the event's slab slot and that slot's generation at
/// scheduling time; once the event pops or is cancelled the generation
/// advances, so stale keys are always rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

impl EventKey {
    fn new(slot: u32, gen: u32) -> Self {
        EventKey(((gen as u64) << 32) | slot as u64)
    }
    fn slot(self) -> u32 {
        self.0 as u32
    }
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A 24-byte heap entry; the payload stays in the slab. `(slot, gen)`
/// identifies the slab record (a mismatch marks a tombstone), `(time,
/// seq)` gives the deterministic total order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: Nanos,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A payload slot: occupied (`event` is `Some`) or on the free list.
#[derive(Debug)]
struct Slot<E> {
    /// Bumped every time the slot is freed; a heap entry whose `gen`
    /// does not match is a tombstone.
    gen: u32,
    event: Option<E>,
}

/// A discrete-event queue ordered by time.
///
/// Two events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), which keeps simulations deterministic. Events can be
/// cancelled by [`EventKey`]. The head of the queue is maintained eagerly
/// on every mutation, so [`peek_time`](Self::peek_time) is a read-only
/// O(1) load — it is the cached event horizon the master loop polls every
/// iteration. Cancelled entries become tombstones that are compacted
/// wholesale once they outnumber live entries, keeping heavy `cancel()`
/// traffic from degrading `pop` over long runs.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// let _k1 = q.schedule(Nanos::from_micros(10), 'a');
/// let k2 = q.schedule(Nanos::from_micros(10), 'b');
/// q.cancel(k2);
/// assert_eq!(q.pop(), Some((Nanos::from_micros(10), 'a')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Indices of the unoccupied slots.
    free: Vec<u32>,
    /// Every scheduled entry, tombstones included, ordered by `(time,
    /// seq)`; its top is live whenever any event is pending.
    heap: BinaryHeap<Reverse<Entry>>,
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
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`, returning a cancellation
    /// key.
    pub fn schedule(&mut self, time: Nanos, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot { gen: 0, event: Some(event) });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(Reverse(Entry { time, seq, slot, gen }));
        EventKey::new(slot, gen)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (it will never be popped), `false` if it had already
    /// popped or was cancelled before.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let s = key.slot() as usize;
        if s >= self.slots.len() {
            return false;
        }
        let rec = &self.slots[s];
        if rec.gen != key.gen() || rec.event.is_none() {
            return false;
        }
        self.release(key.slot());
        self.sweep_top();
        self.maybe_compact();
        true
    }

    /// The time of the earliest pending (non-cancelled) event.
    ///
    /// Tombstones are swept off the heap's top on every mutation, so this
    /// is a read-only O(1) load.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Removes and returns the earliest pending event with its time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse(e) = self.heap.pop()?;
        let event = self.slots[e.slot as usize]
            .event
            .take()
            .expect("the heap's top is live");
        self.release(e.slot);
        self.sweep_top();
        Some((e.time, event))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap entries physically stored, including cancelled tombstones that
    /// have not been swept or compacted yet (diagnostics; tests assert the
    /// compaction bound through this).
    pub fn storage_len(&self) -> usize {
        self.heap.len()
    }

    /// Pops the head event if it is due at or before `now`, appending it
    /// (with its timestamp) to `out`. One event per call: equal-time
    /// events keep their FIFO order across successive advances, so the
    /// master loop's tie-break stays with the loop, not the queue.
    fn advance_due(&mut self, now: Nanos, out: &mut Vec<(Nanos, E)>) {
        if self.peek_time().is_some_and(|t| t <= now) {
            let (t, e) = self.pop().expect("head is live");
            out.push((t, e));
        }
    }

    /// Frees a slot whose event was popped or cancelled: the generation
    /// bump turns its heap entry (if still stored) into a tombstone.
    fn release(&mut self, slot: u32) {
        let rec = &mut self.slots[slot as usize];
        rec.event = None;
        rec.gen = rec.gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Drops tombstones off the heap's top until it is live or empty.
    fn sweep_top(&mut self) {
        while let Some(Reverse(e)) = self.heap.peek() {
            if self.slots[e.slot as usize].gen == e.gen {
                return;
            }
            self.heap.pop();
        }
    }

    /// Rebuilds the heap without tombstones once they outnumber live
    /// entries. The O(n) rebuild is amortized: it frees at least half the
    /// storage, so each cancelled entry is moved O(1) times on average.
    fn maybe_compact(&mut self) {
        let (stored, live) = (self.heap.len(), self.len());
        if stored - live <= live || stored < 64 {
            return;
        }
        let slots = &self.slots;
        self.heap
            .retain(|Reverse(e)| slots[e.slot as usize].gen == e.gen);
        debug_assert_eq!(self.heap.len(), live);
    }
}

/// The master queue is itself an event source to the registry-driven
/// loop: its horizon is the head's timestamp, and advancing it pops the
/// due head. Events carry their timestamp so handlers scheduled in the
/// past (never produced, but type-honest) remain observable.
impl<E> crate::Component for EventQueue<E> {
    type Event = (Nanos, E);

    fn next_event_time(&self) -> Option<Nanos> {
        self.peek_time()
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<(Nanos, E)>) -> Option<Nanos> {
        self.advance_due(now, out);
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
    fn cancel_pending() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(1), 'a');
        let b = q.schedule(Nanos(2), 'b');
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Nanos(2), 'b')));
        assert!(!q.cancel(b), "already popped events cannot be cancelled");
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(1), 'a');
        q.schedule(Nanos(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Nanos(2)));
    }

    #[test]
    fn is_empty_accounts_for_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(1), ());
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn compaction_bounds_tombstone_storage() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..10_000u64 {
            keys.push(q.schedule(Nanos(1 + (i * 7919) % 100_000), i));
        }
        for k in keys.drain(..9_990) {
            assert!(q.cancel(k));
        }
        assert_eq!(q.len(), 10);
        assert!(
            q.storage_len() <= (2 * q.len()).max(64),
            "tombstones compacted: {} stored for {} live",
            q.storage_len(),
            q.len()
        );
        // The survivors still pop in time order.
        let mut last = Nanos::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn peek_is_readonly_and_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(1), 'a');
        q.schedule(Nanos(2), 'b');
        q.cancel(a);
        // peek_time takes &self: the head cache was fixed eagerly.
        let q_ref = &q;
        assert_eq!(q_ref.peek_time(), Some(Nanos(2)));
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
        assert_eq!(q.storage_len(), 0);
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
    fn keys_from_reused_slots_do_not_alias() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(1), 'a');
        assert_eq!(q.pop(), Some((Nanos(1), 'a')));
        // 'b' reuses slot 0 with a bumped generation; the stale key for
        // 'a' must not cancel it.
        let b = q.schedule(Nanos(2), 'b');
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert_eq!(q.pop(), None);
    }
}
