//! Ack-based reliable delivery for coordination messages.
//!
//! The channel the prototype rides (§2.3) is modelled as lossy/jittery by
//! `pcie::FaultProfile`; this module supplies the endpoint state machines
//! that survive it:
//!
//! * [`ReliableSender`] — assigns sequence numbers, keeps unacknowledged
//!   messages pending, retransmits with exponential backoff up to a retry
//!   cap, and exposes a *degraded-mode* signal (consecutive timeouts) so
//!   policies can fall back to doing nothing rather than acting on state
//!   the remote side may never have seen.
//! * [`ReliableReceiver`] — suppresses duplicate sequence numbers (both
//!   channel-injected duplicates and retransmissions whose ack was lost).
//!
//! Both are pure state machines over [`Nanos`] timestamps: the platform
//! owns the mailboxes and calls these at its event-loop pace, which keeps
//! the whole path deterministic and replayable.

use simcore::Nanos;
use std::collections::{BTreeMap, BTreeSet};

use crate::CoordMsg;

/// Tuning for the ack/retry state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Time to wait for an ack before the first retransmission.
    pub ack_timeout: Nanos,
    /// Backoff multiplier applied per retry (timeout × backoff^retries).
    pub backoff: u32,
    /// Retransmissions attempted before giving a message up for lost.
    pub max_retries: u32,
    /// Consecutive timeout events (retransmits or give-ups) after which
    /// the sender reports degraded mode.
    pub degraded_after: u32,
}

impl Default for ReliableConfig {
    /// 1 ms initial timeout (≫ one coordination RTT at the default 30 µs
    /// one-way latency), doubling per retry, 5 retries, degraded after 4
    /// consecutive timeouts.
    fn default() -> Self {
        ReliableConfig {
            ack_timeout: Nanos::from_millis(1),
            backoff: 2,
            max_retries: 5,
            degraded_after: 4,
        }
    }
}

impl ReliableConfig {
    /// Deadline of a message sent (or resent) at `now` after `retries`
    /// retransmissions.
    fn deadline(&self, now: Nanos, retries: u32) -> Nanos {
        let factor = self.backoff.max(1).saturating_pow(retries.min(16));
        now + Nanos(
            self.ack_timeout
                .as_nanos()
                .saturating_mul(u64::from(factor)),
        )
    }
}

/// Counters kept by [`ReliableSender`] for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SenderStats {
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Messages acknowledged by the receiver.
    pub acked: u64,
    /// Messages abandoned after exhausting the retry cap.
    pub gave_up: u64,
    /// Times the sender entered degraded mode.
    pub degraded_entries: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    msg: CoordMsg,
    retries: u32,
    deadline: Nanos,
}

/// Sender half: sequence assignment, retransmission, degraded-mode signal.
#[derive(Debug, Clone)]
pub struct ReliableSender {
    cfg: ReliableConfig,
    next_seq: u32,
    pending: BTreeMap<u32, Pending>,
    consecutive_timeouts: u32,
    degraded_since: Option<Nanos>,
    degraded_total: Nanos,
    stats: SenderStats,
}

impl ReliableSender {
    /// Creates a sender with the given configuration.
    pub fn new(cfg: ReliableConfig) -> Self {
        ReliableSender {
            cfg,
            next_seq: 0,
            pending: BTreeMap::new(),
            consecutive_timeouts: 0,
            degraded_since: None,
            degraded_total: Nanos::ZERO,
            stats: SenderStats::default(),
        }
    }

    /// The configuration this sender runs with.
    pub fn config(&self) -> ReliableConfig {
        self.cfg
    }

    /// Registers a fresh outbound message and returns its sequence number;
    /// the caller transmits the framed bytes.
    pub fn send(&mut self, now: Nanos, msg: CoordMsg) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let deadline = self.cfg.deadline(now, 0);
        self.pending.insert(
            seq,
            Pending {
                msg,
                retries: 0,
                deadline,
            },
        );
        seq
    }

    /// Earliest retransmission deadline among pending messages.
    pub fn next_timer(&self) -> Option<Nanos> {
        self.pending.values().map(|p| p.deadline).min()
    }

    /// Fires every deadline that has passed by `now`. Messages under the
    /// retry cap are appended to `out` as `(seq, msg)` for retransmission
    /// with a backed-off deadline; messages over the cap are dropped from
    /// the pending set. Every expired deadline counts one consecutive
    /// timeout toward the degraded threshold.
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<(u32, CoordMsg)>) {
        let ReliableSender {
            cfg,
            pending,
            consecutive_timeouts,
            degraded_since,
            stats,
            ..
        } = self;
        // `retain` visits in sequence order and each entry once, so a
        // deadline re-armed here is not fired again in this call.
        pending.retain(|&seq, p| {
            if p.deadline > now {
                return true;
            }
            *consecutive_timeouts += 1;
            if *consecutive_timeouts >= cfg.degraded_after && degraded_since.is_none() {
                *degraded_since = Some(now);
                stats.degraded_entries += 1;
            }
            if p.retries >= cfg.max_retries {
                stats.gave_up += 1;
                return false;
            }
            p.retries += 1;
            p.deadline = cfg.deadline(now, p.retries);
            stats.retransmits += 1;
            out.push((seq, p.msg));
            true
        });
    }

    /// Processes an ack. Returns `true` when it matched a pending message;
    /// any valid ack resets the consecutive-timeout count and ends
    /// degraded mode (the channel demonstrably works again).
    pub fn on_ack(&mut self, now: Nanos, seq: u32) -> bool {
        let hit = self.pending.remove(&seq).is_some();
        if hit {
            self.stats.acked += 1;
        }
        self.consecutive_timeouts = 0;
        if let Some(since) = self.degraded_since.take() {
            self.degraded_total += now.saturating_sub(since);
        }
        hit
    }

    /// `true` while in degraded mode: enough consecutive timeouts that the
    /// remote side's view must be assumed stale.
    pub fn is_degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// Messages awaiting acknowledgement.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total time spent in degraded mode up to `now` (including the
    /// current stretch, if degraded).
    pub fn degraded_time(&self, now: Nanos) -> Nanos {
        match self.degraded_since {
            Some(since) => self.degraded_total + now.saturating_sub(since),
            None => self.degraded_total,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }
}

/// Receiver half: duplicate suppression by sequence number.
///
/// Keeps a low-watermark plus the sparse set of out-of-order sequence
/// numbers above it, so memory stays bounded by the reorder depth rather
/// than the message count.
#[derive(Debug, Clone, Default)]
pub struct ReliableReceiver {
    /// All sequences `< low` have been accepted.
    low: u32,
    /// Accepted sequences `>= low`, pending watermark advance.
    seen: BTreeSet<u32>,
    dup_suppressed: u64,
}

impl ReliableReceiver {
    /// Creates a receiver expecting sequence numbers from 0.
    pub fn new() -> Self {
        ReliableReceiver::default()
    }

    /// Returns `true` the first time `seq` is seen, `false` for replays
    /// (channel duplicates or retransmissions already processed).
    pub fn accept(&mut self, seq: u32) -> bool {
        if seq < self.low || !self.seen.insert(seq) {
            self.dup_suppressed += 1;
            return false;
        }
        while self.seen.remove(&self.low) {
            self.low = self.low.wrapping_add(1);
        }
        true
    }

    /// Duplicate deliveries suppressed so far.
    pub fn dup_suppressed(&self) -> u64 {
        self.dup_suppressed
    }
}

/// The reliable sender's retransmission clock as a master-loop event
/// source: its horizon is the earliest pending deadline, and advancing
/// it emits the `(seq, msg)` pairs that must be re-encoded onto the
/// coordination channel.
impl simcore::Component for ReliableSender {
    type Event = (u32, CoordMsg);

    fn next_event_time(&self) -> Option<Nanos> {
        self.next_timer()
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<(u32, CoordMsg)>) -> Option<Nanos> {
        self.on_timer(now, out);
        self.next_timer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EntityId;

    fn tune(delta: i32) -> CoordMsg {
        CoordMsg::Tune {
            entity: EntityId(1),
            delta,
            target: None,
        }
    }

    fn cfg() -> ReliableConfig {
        ReliableConfig {
            ack_timeout: Nanos::from_millis(1),
            backoff: 2,
            max_retries: 3,
            degraded_after: 2,
        }
    }

    #[test]
    fn ack_before_deadline_means_no_retransmit() {
        let mut tx = ReliableSender::new(cfg());
        let seq = tx.send(Nanos::ZERO, tune(5));
        assert_eq!(tx.next_timer(), Some(Nanos::from_millis(1)));
        assert!(tx.on_ack(Nanos::from_micros(60), seq));
        assert_eq!(tx.next_timer(), None);
        let mut out = Vec::new();
        tx.on_timer(Nanos::from_secs(1), &mut out);
        assert!(out.is_empty());
        assert_eq!(
            tx.stats(),
            SenderStats {
                acked: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn timeouts_back_off_then_give_up() {
        let mut tx = ReliableSender::new(cfg());
        tx.send(Nanos::ZERO, tune(5));
        let mut out = Vec::new();
        let mut deadlines = Vec::new();
        while let Some(t) = tx.next_timer() {
            deadlines.push(t);
            tx.on_timer(t, &mut out);
        }
        // 1 ms, then +2 ms, +4 ms, +8 ms of backoff; three retransmits
        // fire and the fourth expiry abandons the message.
        assert_eq!(out.len(), 3);
        assert_eq!(
            deadlines,
            vec![
                Nanos::from_millis(1),
                Nanos::from_millis(3),
                Nanos::from_millis(7),
                Nanos::from_millis(15),
            ]
        );
        assert_eq!(tx.pending_len(), 0);
        assert_eq!(tx.stats().retransmits, 3);
        assert_eq!(tx.stats().gave_up, 1);
    }

    #[test]
    fn degraded_mode_enters_on_consecutive_timeouts_and_acks_clear_it() {
        let mut tx = ReliableSender::new(cfg());
        let s0 = tx.send(Nanos::ZERO, tune(1));
        let mut out = Vec::new();
        tx.on_timer(Nanos::from_millis(1), &mut out); // 1st timeout
        assert!(!tx.is_degraded());
        tx.on_timer(Nanos::from_millis(3), &mut out); // 2nd → degraded
        assert!(tx.is_degraded());
        assert_eq!(tx.stats().degraded_entries, 1);
        // Two ms of degraded time later, an ack recovers.
        let t = Nanos::from_millis(5);
        assert!(tx.on_ack(t, s0));
        assert!(!tx.is_degraded());
        assert_eq!(tx.degraded_time(t), Nanos::from_millis(2));
        // The counter reset means degradation needs a fresh streak.
        tx.send(t, tune(2));
        tx.on_timer(Nanos::from_millis(6), &mut out);
        assert!(!tx.is_degraded());
    }

    #[test]
    fn receiver_suppresses_replays_and_advances_watermark() {
        let mut rx = ReliableReceiver::new();
        assert!(rx.accept(0));
        assert!(rx.accept(2)); // out of order is fine, only replays die
        assert!(!rx.accept(0));
        assert!(!rx.accept(2));
        assert!(rx.accept(1));
        assert!(!rx.accept(1));
        assert_eq!(rx.dup_suppressed(), 3);
        // Watermark has moved past 0..=2: the set is empty again.
        assert!(rx.seen.is_empty());
        assert!(rx.accept(3));
    }

    #[test]
    fn unmatched_ack_still_resets_the_timeout_streak() {
        let mut tx = ReliableSender::new(cfg());
        tx.send(Nanos::ZERO, tune(1));
        let mut out = Vec::new();
        tx.on_timer(Nanos::from_millis(1), &mut out);
        // A duplicate ack for an already-settled seq proves the channel
        // works, so it clears the streak even though nothing matched.
        assert!(!tx.on_ack(Nanos::from_millis(2), 999));
        tx.on_timer(Nanos::from_millis(3), &mut out);
        assert!(!tx.is_degraded(), "streak was broken by the ack");
    }
}
