//! Microengine thread pools.
//!
//! Each pipeline task (Rx, classify, per-flow host dequeue, Tx) owns a set
//! of hardware thread contexts. A pool is an M/G/k-style server group: a
//! free thread starts a packet immediately (plus a polling delay when the
//! pool was idle), excess packets queue in DRAM. The pool tracks queued
//! bytes — the quantity the paper's buffer monitor watches.

use crate::Packet;
use simcore::Nanos;
use std::collections::VecDeque;

/// A group of identical microengine threads serving one packet queue.
///
/// The pool does not know service *times* — the island computes those from
/// the task's [`CostModel`](crate::CostModel) — it only tracks which
/// threads are busy and what is queued, so resizing the pool (the paper's
/// IXP-side Tune lever) never loses in-flight work.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: u32,
    busy: u32,
    poll: Nanos,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    capacity_bytes: u64,
    served: u64,
    dropped: u64,
    max_queued_bytes: u64,
}

impl ThreadPool {
    /// Creates a pool of `threads` contexts polling every `poll`, with a
    /// DRAM queue bounded at `capacity_bytes`.
    pub fn new(threads: u32, poll: Nanos, capacity_bytes: u64) -> Self {
        ThreadPool {
            threads,
            busy: 0,
            poll,
            queue: VecDeque::new(),
            queued_bytes: 0,
            capacity_bytes,
            served: 0,
            dropped: 0,
            max_queued_bytes: 0,
        }
    }

    /// Offers a packet to the pool. If a thread is free the packet starts
    /// service and `Some(start_delay)` is returned (the polling latency if
    /// the pool was idle); otherwise the packet is queued, or dropped if
    /// the queue is at capacity (`None` either way —
    /// [`dropped`](Self::dropped) distinguishes).
    pub fn offer(&mut self, pkt: Packet) -> Option<(Nanos, Packet)> {
        if self.busy < self.threads {
            let delay = if self.busy == 0 {
                self.poll / 2
            } else {
                Nanos::ZERO
            };
            self.busy += 1;
            return Some((delay, pkt));
        }
        if self.queued_bytes + pkt.len_bytes as u64 > self.capacity_bytes {
            self.dropped += 1;
            return None;
        }
        self.queued_bytes += pkt.len_bytes as u64;
        self.max_queued_bytes = self.max_queued_bytes.max(self.queued_bytes);
        self.queue.push_back(pkt);
        None
    }

    /// Marks one service completion. Returns the next queued packet to
    /// start (no polling delay: the thread is hot), if capacity allows.
    pub fn finish_one(&mut self) -> Option<Packet> {
        debug_assert!(self.busy > 0, "finish without start");
        self.busy = self.busy.saturating_sub(1);
        self.served += 1;
        self.start_next()
    }

    /// Starts one queued packet if a thread is free.
    pub fn start_next(&mut self) -> Option<Packet> {
        if self.busy < self.threads {
            if let Some(pkt) = self.queue.pop_front() {
                self.queued_bytes -= pkt.len_bytes as u64;
                self.busy += 1;
                return Some(pkt);
            }
        }
        None
    }

    /// Resizes the pool. Growing releases queued packets (returned, to be
    /// started immediately); shrinking lets excess in-flight work finish
    /// without starting new packets.
    pub fn set_threads(&mut self, threads: u32) -> Vec<Packet> {
        self.threads = threads;
        let mut started = Vec::new();
        while let Some(p) = self.start_next() {
            started.push(p);
        }
        started
    }

    /// Configured thread count.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Threads currently serving packets (may transiently exceed
    /// [`threads`](Self::threads) after a shrink).
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Bytes waiting in the DRAM queue.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total packets fully served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Packets dropped due to queue overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// High-water mark of queued bytes.
    pub fn max_queued_bytes(&self) -> u64 {
        self.max_queued_bytes
    }

    /// Current polling interval.
    pub fn poll(&self) -> Nanos {
        self.poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppTag;

    fn pkt(id: u64, len: u32) -> Packet {
        Packet::new(id, 0, len, AppTag::Plain)
    }

    #[test]
    fn idle_pool_starts_with_poll_delay() {
        let mut p = ThreadPool::new(2, Nanos::from_micros(20), 1 << 20);
        let (delay, _) = p.offer(pkt(1, 100)).unwrap();
        assert_eq!(delay, Nanos::from_micros(10));
        // Second packet: pool busy but has a free thread — no poll delay.
        let (delay2, _) = p.offer(pkt(2, 100)).unwrap();
        assert_eq!(delay2, Nanos::ZERO);
        assert_eq!(p.busy(), 2);
    }

    #[test]
    fn excess_packets_queue_fifo() {
        let mut p = ThreadPool::new(1, Nanos::ZERO, 1 << 20);
        assert!(p.offer(pkt(1, 100)).is_some());
        assert!(p.offer(pkt(2, 100)).is_none());
        assert!(p.offer(pkt(3, 100)).is_none());
        assert_eq!(p.queue_len(), 2);
        assert_eq!(p.queued_bytes(), 200);
        let next = p.finish_one().unwrap();
        assert_eq!(next.id, 2);
        let next = p.finish_one().unwrap();
        assert_eq!(next.id, 3);
        assert!(p.finish_one().is_none());
        assert_eq!(p.served(), 3);
    }

    #[test]
    fn zero_threads_never_serve() {
        let mut p = ThreadPool::new(0, Nanos::ZERO, 1 << 20);
        assert!(p.offer(pkt(1, 100)).is_none());
        assert_eq!(p.queue_len(), 1);
        assert!(p.start_next().is_none());
    }

    #[test]
    fn growing_releases_queue() {
        let mut p = ThreadPool::new(1, Nanos::ZERO, 1 << 20);
        p.offer(pkt(1, 100));
        p.offer(pkt(2, 100));
        p.offer(pkt(3, 100));
        let started = p.set_threads(3);
        assert_eq!(started.len(), 2);
        assert_eq!(p.busy(), 3);
        assert_eq!(p.queue_len(), 0);
    }

    #[test]
    fn shrink_lets_inflight_finish() {
        let mut p = ThreadPool::new(2, Nanos::ZERO, 1 << 20);
        p.offer(pkt(1, 100));
        p.offer(pkt(2, 100));
        p.offer(pkt(3, 100)); // queued
        assert!(p.set_threads(1).is_empty());
        assert_eq!(p.busy(), 2, "in-flight work keeps running");
        // First completion frees a thread but busy (1) == threads (1):
        // the queued packet must wait for the next completion.
        assert!(p.finish_one().is_none());
        let next = p.finish_one().unwrap();
        assert_eq!(next.id, 3);
    }

    #[test]
    fn overflow_drops() {
        let mut p = ThreadPool::new(1, Nanos::ZERO, 250);
        p.offer(pkt(1, 100)); // in service
        assert!(p.offer(pkt(2, 200)).is_none()); // queued: 200
        assert!(p.offer(pkt(3, 100)).is_none()); // would exceed 250 → drop
        assert_eq!(p.dropped(), 1);
        assert_eq!(p.queued_bytes(), 200);
        assert_eq!(p.max_queued_bytes(), 200);
    }
}
