//! The coordination channel: a small-message mailbox with injected
//! one-way latency.
//!
//! The prototype carves this channel out of the IXP device's PCI
//! configuration space (§2.3). Its latency is the knob behind the paper's
//! hardware-considerations discussion: PCIe-era mailboxes cost tens of
//! microseconds, while QPI/HTX-class integration or hardware signalling
//! would cut that by orders of magnitude (§3.3). Ablation A1 sweeps it.
//!
//! A mailbox may additionally carry a [`FaultProfile`]: seeded,
//! per-message drop/duplication/jitter/reordering for the reliability
//! experiments (R1/R2). Without one the channel is perfect.

use crate::fault::{FaultLayer, FaultProfile};
use simcore::{EventQueue, Nanos, SimRng};

/// A unidirectional, latency-injected, order-preserving message channel.
///
/// Order preservation holds regardless of [`set_latency`](Self::set_latency)
/// calls: each arrival is clamped to be no earlier than the previous
/// send's arrival, so a latency cut never lets a newer message overtake
/// an older one. The only opt-out is an explicit [`FaultProfile`] with a
/// non-zero reorder window.
///
/// Generic over the message type, which the fault layer never inspects: the
/// platform's coordination lanes carry `coord::CoordMsg` values (with
/// their reliable-delivery sequence numbers) and bare `u32` acks, while the
/// fleet bus carries `coord::wire` envelope bytes.
#[derive(Debug)]
pub struct Mailbox<M> {
    latency: Nanos,
    q: EventQueue<M>,
    sent: u64,
    delivered: u64,
    in_flight: u64,
    /// Arrival time of the most recent (non-duplicate) send; new arrivals
    /// clamp to it so FIFO survives latency changes.
    last_arrival: Nanos,
    faults: Option<FaultLayer>,
    partitioned: bool,
    partition_drops: u64,
}

impl<M> Mailbox<M> {
    /// Creates a mailbox with the given one-way delivery latency.
    pub fn new(latency: Nanos) -> Self {
        Mailbox {
            latency,
            q: EventQueue::new(),
            sent: 0,
            delivered: 0,
            in_flight: 0,
            last_arrival: Nanos::ZERO,
            faults: None,
            partitioned: false,
            partition_drops: 0,
        }
    }

    /// Attaches a fault profile driven by `rng`. All randomness is private
    /// to this mailbox, so faulty runs replay exactly from the seed. A
    /// profile of [`FaultProfile::none()`] draws nothing and injects
    /// nothing.
    pub fn set_faults(&mut self, profile: FaultProfile, rng: SimRng) {
        self.faults = Some(FaultLayer::new(profile, rng));
    }

    /// The attached fault profile, if any.
    pub fn fault_profile(&self) -> Option<FaultProfile> {
        self.faults.as_ref().map(|f| f.profile)
    }

    /// Enqueues a message at `now`; it arrives at `now + latency()` plus
    /// any fault-injected jitter, but never before a previously sent
    /// message unless the fault profile enables reordering.
    pub fn send(&mut self, now: Nanos, msg: M)
    where
        M: Clone,
    {
        self.sent += 1;
        if self.partitioned {
            // A partitioned lane swallows every send; messages already in
            // flight still arrive (the cut is at the sender's edge).
            self.partition_drops += 1;
            return;
        }
        let base = now + self.latency;
        let (mut arrival, dup) = match self.faults.as_mut() {
            None => (base, None),
            Some(layer) => match layer.roll() {
                None => return, // dropped in the channel
                Some((extra, dup)) => (base + extra, dup.map(|d| base + d)),
            },
        };
        let reorder = self
            .faults
            .as_ref()
            .is_some_and(|f| f.profile.reorder_window > Nanos::ZERO);
        if !reorder {
            arrival = arrival.max(self.last_arrival);
        }
        self.last_arrival = self.last_arrival.max(arrival);
        if let Some(dup_at) = dup {
            // The spurious copy never constrains real traffic: it is not
            // folded into the FIFO clamp.
            let at = if reorder { dup_at } else { dup_at.max(arrival) };
            self.q.schedule(at, msg.clone());
            self.in_flight += 1;
        }
        self.q.schedule(arrival, msg);
        self.in_flight += 1;
    }

    /// Arrival time of the earliest undelivered message (read-only O(1)).
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.q.peek_time()
    }

    /// Delivers every message that has arrived by `now`, in arrival order
    /// (send order unless reordering is enabled), appending to `out`
    /// (caller-owned and typically reused across calls).
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<M>) {
        while let Some(t) = self.q.peek_time() {
            if t > now {
                break;
            }
            let (_, m) = self.q.pop().expect("peeked");
            out.push(m);
            self.delivered += 1;
            self.in_flight -= 1;
        }
    }

    /// Configured one-way latency.
    pub fn latency(&self) -> Nanos {
        self.latency
    }

    /// Changes the one-way latency for subsequently sent messages. Order
    /// is still preserved: a send after a latency cut arrives no earlier
    /// than everything already in flight.
    pub fn set_latency(&mut self, latency: Nanos) {
        self.latency = latency;
    }

    /// Messages sent so far (drops and injected duplicates not included).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Message copies delivered so far (duplicate copies included).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Message copies currently in flight.
    ///
    /// Conservation: `delivered + dropped + partition_drops + in_flight
    /// == sent + duplicated` at every instant.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Messages dropped by fault injection.
    pub fn dropped(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped)
    }

    /// Duplicate copies injected by fault injection.
    pub fn duplicated(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.duplicated)
    }

    /// Cuts (or heals) the lane. While partitioned every send is dropped
    /// deterministically — no fault RNG is consumed, so healing the
    /// partition resumes the exact same fault stream a never-partitioned
    /// replay would have seen from that send onward.
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// `true` while the lane is partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Messages swallowed by partitions (disjoint from [`Self::dropped`]).
    pub fn partition_drops(&self) -> u64 {
        self.partition_drops
    }
}

/// A mailbox lane as a master-loop event source: its horizon is the
/// earliest undelivered frame's arrival time (post fault-layer jitter),
/// and advancing it delivers everything due at `now` in send order.
impl<M> simcore::Component for Mailbox<M> {
    type Event = M;

    fn next_event_time(&self) -> Option<Nanos> {
        Mailbox::next_event_time(self)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<M>) -> Option<Nanos> {
        self.on_timer(now, out);
        self.next_event_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Jitter;

    fn deliveries<M: Clone>(m: &mut Mailbox<M>, now: Nanos) -> Vec<M> {
        let mut out = Vec::new();
        m.on_timer(now, &mut out);
        out
    }

    #[test]
    fn delivers_after_latency_in_order() {
        let mut m = Mailbox::new(Nanos::from_micros(10));
        m.send(Nanos::ZERO, 1);
        m.send(Nanos::from_micros(1), 2);
        assert_eq!(deliveries(&mut m, Nanos::from_micros(9)), Vec::<i32>::new());
        assert_eq!(deliveries(&mut m, Nanos::from_micros(11)), vec![1, 2]);
        assert_eq!(m.in_flight(), 0);
        assert_eq!((m.sent(), m.delivered()), (2, 2));
    }

    #[test]
    fn zero_latency_delivers_immediately() {
        let mut m = Mailbox::new(Nanos::ZERO);
        m.send(Nanos::from_millis(5), "x");
        assert_eq!(m.next_event_time(), Some(Nanos::from_millis(5)));
        assert_eq!(deliveries(&mut m, Nanos::from_millis(5)), vec!["x"]);
    }

    #[test]
    fn latency_change_applies_to_new_sends() {
        let mut m = Mailbox::new(Nanos::from_micros(30));
        m.send(Nanos::ZERO, 'a');
        m.set_latency(Nanos::from_micros(1));
        m.send(Nanos::ZERO, 'b');
        // 'b' would arrive at 1 µs under its own latency, but the channel
        // is order-preserving: it clamps to 'a''s 30 µs arrival.
        assert_eq!(
            deliveries(&mut m, Nanos::from_micros(29)),
            Vec::<char>::new()
        );
        assert_eq!(deliveries(&mut m, Nanos::from_micros(30)), vec!['a', 'b']);
        // A later send under the shorter latency is not held back further
        // than the in-flight horizon requires.
        m.send(Nanos::from_micros(40), 'c');
        assert_eq!(m.next_event_time(), Some(Nanos::from_micros(41)));
    }

    #[test]
    fn latency_increase_never_reorders_either() {
        let mut m = Mailbox::new(Nanos::from_micros(1));
        m.send(Nanos::ZERO, 'a');
        m.set_latency(Nanos::from_micros(30));
        m.send(Nanos::ZERO, 'b');
        assert_eq!(deliveries(&mut m, Nanos::from_micros(30)), vec!['a', 'b']);
    }

    #[test]
    fn drop_faults_account_and_conserve() {
        let mut m = Mailbox::new(Nanos::from_micros(10));
        m.set_faults(FaultProfile::none().with_drop(1.0), SimRng::new(1));
        m.send(Nanos::ZERO, 1);
        m.send(Nanos::ZERO, 2);
        assert_eq!(m.sent(), 2);
        assert_eq!(m.dropped(), 2);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(deliveries(&mut m, Nanos::from_secs(1)), Vec::<i32>::new());
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut m = Mailbox::new(Nanos::from_micros(10));
        m.set_faults(FaultProfile::none().with_dup(1.0), SimRng::new(2));
        m.send(Nanos::ZERO, 7);
        assert_eq!(m.duplicated(), 1);
        assert_eq!(m.in_flight(), 2);
        assert_eq!(deliveries(&mut m, Nanos::from_micros(10)), vec![7, 7]);
        assert_eq!(m.delivered(), 2);
    }

    #[test]
    fn jitter_without_reorder_preserves_order() {
        let mut m = Mailbox::new(Nanos::from_micros(10));
        m.set_faults(
            FaultProfile::none().with_jitter(Jitter::Uniform {
                max: Nanos::from_micros(500),
            }),
            SimRng::new(3),
        );
        for i in 0..100 {
            m.send(Nanos::from_micros(i), i);
        }
        let got = deliveries(&mut m, Nanos::from_secs(1));
        assert_eq!(got.len(), 100);
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "FIFO violated: {got:?}"
        );
    }

    #[test]
    fn partition_swallows_sends_and_heals_cleanly() {
        let mut m = Mailbox::new(Nanos::from_micros(10));
        m.send(Nanos::ZERO, 1);
        m.set_partitioned(true);
        assert!(m.is_partitioned());
        // In-flight traffic still lands; new sends vanish at the edge.
        m.send(Nanos::from_micros(1), 2);
        m.send(Nanos::from_micros(2), 3);
        assert_eq!(deliveries(&mut m, Nanos::from_micros(10)), vec![1]);
        assert_eq!(m.partition_drops(), 2);
        assert_eq!(m.dropped(), 0, "partition drops are not fault drops");
        m.set_partitioned(false);
        m.send(Nanos::from_micros(20), 4);
        assert_eq!(deliveries(&mut m, Nanos::from_micros(30)), vec![4]);
        // Conservation with the partition term included.
        assert_eq!(
            m.delivered() + m.dropped() + m.partition_drops() + m.in_flight(),
            m.sent() + m.duplicated()
        );
    }

    #[test]
    fn reorder_window_allows_overtaking() {
        let mut m = Mailbox::new(Nanos::from_micros(10));
        m.set_faults(
            FaultProfile::none().with_reorder(Nanos::from_millis(5)),
            SimRng::new(4),
        );
        for i in 0..200 {
            m.send(Nanos::from_micros(i), i);
        }
        let got = deliveries(&mut m, Nanos::from_secs(1));
        assert_eq!(got.len(), 200);
        assert!(
            got.windows(2).any(|w| w[0] > w[1]),
            "a 5 ms window over 10 µs spacing must reorder something"
        );
    }
}
