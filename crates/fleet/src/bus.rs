//! The cross-node coordination bus: per-node lanes of faulty, latency-
//! injected [`pcie::Mailbox`] channels under the `coord::reliable`
//! ack/retransmit layer, carrying Lamport-stamped envelopes (wire tag 8).
//!
//! Each lane models one node's uplink to an aggregation point (rack or
//! fleet root). The lane reuses the exact PR-3 machinery the in-platform
//! coordination channel uses — [`pcie::FaultProfile`] for seeded
//! drop/dup/jitter/reorder, [`coord::ReliableSender`]/
//! [`coord::ReliableReceiver`] for seq-numbered retransmission and dup
//! suppression — but frames are [`coord::wire::encode_envelope`] bytes,
//! so every delivery carries the `(lamport, source)` stamp that gives
//! the fleet its total order. Acks travel back as bare `u32` sequence
//! numbers, as on the platform's coordination channel. Delivery order
//! within the advance window
//! is arrival order (i.e. *not* deterministic under skew); consumers
//! restore the total order by sorting on the stamp, which is exactly
//! what [`crate::FleetState`] and `coord::hierarchy::aggregate` do.

use crate::lamport::{Envelope, NodeId};
use coord::{wire, CoordMsg, ReliableConfig, ReliableReceiver, ReliableSender};
use pcie::{FaultProfile, Mailbox};
use simcore::{Nanos, SimRng};
use std::collections::BTreeMap;

/// Configuration for one bus (all lanes identical).
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// One-way lane latency (cross-node: hundreds of µs to ms).
    pub latency: Nanos,
    /// Fault injection on every lane (data and ack directions).
    pub fault: FaultProfile,
    /// Reliable-delivery tuning for the lane senders.
    pub reliable: ReliableConfig,
}

impl BusConfig {
    /// A perfect bus with the given latency and default retransmission.
    pub fn perfect(latency: Nanos) -> Self {
        BusConfig {
            latency,
            fault: FaultProfile::none(),
            reliable: ReliableConfig::default(),
        }
    }
}

/// Aggregate bus counters (summed over lanes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Envelope frames put on lanes (first transmissions).
    pub frames_sent: u64,
    /// Envelopes delivered to the consumer (dups suppressed).
    pub delivered: u64,
    /// Deliveries whose `(lamport, source)` key regressed on their lane —
    /// the wire really reordered (or retransmission resurrected) them.
    pub reordered: u64,
    /// Deliveries that arrived in a later round than they were sent in.
    pub late: u64,
    /// Retransmissions by the reliable layer.
    pub retransmits: u64,
    /// Frames acknowledged end-to-end.
    pub acked: u64,
    /// Frames the reliable layer gave up on.
    pub gave_up: u64,
    /// Duplicate frames suppressed at the receivers.
    pub dup_suppressed: u64,
    /// Frame copies dropped in the channel by fault injection.
    pub channel_drops: u64,
    /// Frame copies swallowed by partitions.
    pub partition_drops: u64,
}

/// One delivered envelope, with transport metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Lane (node) the envelope arrived on.
    pub node: NodeId,
    /// The envelope itself.
    pub envelope: Envelope,
    /// `true` when it was sent in an earlier round than it arrived in.
    pub late: bool,
}

struct Lane {
    data: Mailbox<Vec<u8>>,
    acks: Mailbox<u32>,
    tx: ReliableSender,
    rx: ReliableReceiver,
    /// seq → (lamport, source, send round); retransmits re-stamp from
    /// here, keys are pruned on ack.
    stamps: BTreeMap<u32, (u64, u16, u32)>,
    last_key: Option<(u64, u16)>,
    delivered: u64,
    reordered: u64,
    late: u64,
    frames_sent: u64,
}

impl Lane {
    fn new(cfg: &BusConfig, data_rng: u64, ack_rng: u64) -> Self {
        let mut data = Mailbox::new(cfg.latency);
        let mut acks = Mailbox::new(cfg.latency);
        if !cfg.fault.is_none() {
            data.set_faults(cfg.fault, SimRng::new(data_rng));
            acks.set_faults(cfg.fault, SimRng::new(ack_rng));
        }
        Lane {
            data,
            acks,
            tx: ReliableSender::new(cfg.reliable),
            rx: ReliableReceiver::new(),
            stamps: BTreeMap::new(),
            last_key: None,
            delivered: 0,
            reordered: 0,
            late: 0,
            frames_sent: 0,
        }
    }
}

/// A set of node → aggregator lanes advanced as a little discrete-event
/// simulation of its own.
///
/// Time on the bus is partitioned into coordination rounds: senders
/// stamp and send at the current round's start, [`CoordBus::advance`]
/// runs the lane event loops (deliveries, acks, retransmission timers)
/// up to the round's end, and anything still in flight carries over —
/// arriving in a later round as a *late* (stale) envelope.
pub struct CoordBus {
    lanes: Vec<Lane>,
    now: Nanos,
    round: u32,
}

impl CoordBus {
    /// Creates a bus with `nodes` lanes. Fault RNG streams derive
    /// straight from `seed` and the lane index (never from any workload
    /// RNG), so faulty buses replay exactly and fault-free buses draw
    /// nothing.
    pub fn new(nodes: u16, cfg: &BusConfig, seed: u64) -> Self {
        let lanes = (0..nodes)
            .map(|i| {
                let salt = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Lane::new(cfg, seed ^ 0xF1EE_7000 ^ salt, seed ^ 0xF1EE_7ACC ^ salt)
            })
            .collect();
        CoordBus {
            lanes,
            now: Nanos::ZERO,
            round: 0,
        }
    }

    /// Number of lanes.
    pub fn nodes(&self) -> u16 {
        self.lanes.len() as u16
    }

    /// The bus clock (end of the last advanced window).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Starts round `round` (monotonically non-decreasing; used only to
    /// classify late deliveries).
    pub fn set_round(&mut self, round: u32) {
        self.round = self.round.max(round);
    }

    /// Cuts (or heals) a node's lane in both directions.
    pub fn partition(&mut self, node: NodeId, cut: bool) {
        let lane = &mut self.lanes[node.0 as usize];
        lane.data.set_partitioned(cut);
        lane.acks.set_partitioned(cut);
    }

    /// Sends an envelope on `node`'s lane at the current bus time.
    pub fn send(&mut self, node: NodeId, env: &Envelope) {
        let lane = &mut self.lanes[node.0 as usize];
        let seq = lane.tx.send(self.now, env.msg);
        lane.stamps
            .insert(seq, (env.lamport, env.source.0, self.round));
        let mut bytes = Vec::with_capacity(32);
        wire::encode_envelope(seq, env.lamport, env.source.0, &env.msg, &mut bytes);
        lane.data.send(self.now, bytes);
        lane.frames_sent += 1;
    }

    /// Runs every lane's event loop — deliveries, acks, retransmission
    /// timers — up to `until`, appending delivered envelopes to `out` in
    /// per-lane arrival order (lanes drained in node order).
    pub fn advance(&mut self, until: Nanos, out: &mut Vec<Delivery>) {
        let round = self.round;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let node = NodeId(i as u16);
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut acked: Vec<u32> = Vec::new();
            let mut retx: Vec<(u32, CoordMsg)> = Vec::new();
            loop {
                let next = [
                    lane.data.next_event_time(),
                    lane.acks.next_event_time(),
                    lane.tx.next_timer(),
                ]
                .into_iter()
                .flatten()
                .min();
                let Some(t) = next else { break };
                if t > until {
                    break;
                }
                // Deliver data frames due at t: decode, dedup, ack.
                frames.clear();
                lane.data.on_timer(t, &mut frames);
                for bytes in frames.drain(..) {
                    let (seq, lamport, source, msg, _) =
                        wire::decode_envelope(&bytes).expect("bus frames are self-encoded");
                    // Ack every copy — the original ack may have been
                    // lost, and a stale retransmitting sender must stop.
                    lane.acks.send(t, seq);
                    if !lane.rx.accept(seq) {
                        continue;
                    }
                    let key = (lamport, source);
                    if lane.last_key.is_some_and(|last| key < last) {
                        lane.reordered += 1;
                    }
                    lane.last_key = Some(lane.last_key.map_or(key, |last| last.max(key)));
                    let sent_round = lane.stamps.get(&seq).map_or(round, |&(_, _, r)| r);
                    let late = sent_round < round;
                    if late {
                        lane.late += 1;
                    }
                    lane.delivered += 1;
                    out.push(Delivery {
                        node,
                        envelope: Envelope {
                            lamport,
                            source: NodeId(source),
                            msg,
                        },
                        late,
                    });
                }
                // Acks back to the sender retire pending entries.
                acked.clear();
                lane.acks.on_timer(t, &mut acked);
                for seq in acked.drain(..) {
                    if lane.tx.on_ack(t, seq) {
                        lane.stamps.remove(&seq);
                    }
                }
                // Retransmission timers re-stamp from the stored stamp.
                retx.clear();
                lane.tx.on_timer(t, &mut retx);
                for (seq, msg) in retx.drain(..) {
                    let &(lamport, source, _) = lane
                        .stamps
                        .get(&seq)
                        .expect("pending frames keep their stamp");
                    let mut bytes = Vec::with_capacity(32);
                    wire::encode_envelope(seq, lamport, source, &msg, &mut bytes);
                    lane.data.send(t, bytes);
                }
            }
        }
        self.now = self.now.max(until);
    }

    /// Summed lane counters.
    pub fn stats(&self) -> BusStats {
        let mut s = BusStats::default();
        for lane in &self.lanes {
            s.frames_sent += lane.frames_sent;
            s.delivered += lane.delivered;
            s.reordered += lane.reordered;
            s.late += lane.late;
            let tx = lane.tx.stats();
            s.retransmits += tx.retransmits;
            s.acked += tx.acked;
            s.gave_up += tx.gave_up;
            s.dup_suppressed += lane.rx.dup_suppressed();
            s.channel_drops += lane.data.dropped() + lane.acks.dropped();
            s.partition_drops += lane.data.partition_drops() + lane.acks.partition_drops();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coord::EntityId;
    use pcie::Jitter;

    fn env(lamport: u64, source: u16, delta: i32) -> Envelope {
        Envelope {
            lamport,
            source: NodeId(source),
            msg: CoordMsg::Tune {
                entity: EntityId(source as u32),
                delta,
                target: None,
            },
        }
    }

    fn window(bus: &mut CoordBus, until: Nanos) -> Vec<Delivery> {
        let mut out = Vec::new();
        bus.advance(until, &mut out);
        out
    }

    #[test]
    fn perfect_bus_delivers_everything_in_one_window() {
        let cfg = BusConfig::perfect(Nanos::from_micros(500));
        let mut bus = CoordBus::new(3, &cfg, 42);
        for n in 0..3u16 {
            bus.send(NodeId(n), &env(1, n, 10));
        }
        let got = window(&mut bus, Nanos::from_millis(5));
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|d| !d.late));
        let s = bus.stats();
        assert_eq!((s.frames_sent, s.delivered, s.acked), (3, 3, 3));
        assert_eq!((s.retransmits, s.reordered, s.late), (0, 0, 0));
    }

    #[test]
    fn lossy_lanes_recover_by_retransmission() {
        let cfg = BusConfig {
            latency: Nanos::from_micros(200),
            fault: FaultProfile::none().with_drop(0.4),
            reliable: ReliableConfig::default(),
        };
        let mut bus = CoordBus::new(2, &cfg, 7);
        for i in 0..20u64 {
            bus.send(NodeId((i % 2) as u16), &env(i + 1, (i % 2) as u16, 1));
        }
        // A generous window lets the ack/retransmit machinery converge.
        let got = window(&mut bus, Nanos::from_millis(100));
        assert_eq!(got.len(), 20, "reliable layer must recover every frame");
        let s = bus.stats();
        assert!(s.retransmits > 0, "40% drop must force retransmissions");
        assert!(s.channel_drops > 0);
        assert_eq!(s.delivered, 20);
    }

    #[test]
    fn undelivered_frames_arrive_late_next_round() {
        let cfg = BusConfig::perfect(Nanos::from_millis(2));
        let mut bus = CoordBus::new(1, &cfg, 1);
        bus.set_round(0);
        bus.send(NodeId(0), &env(1, 0, 5));
        // Window ends before the 2 ms latency elapses: nothing lands.
        assert!(window(&mut bus, Nanos::from_millis(1)).is_empty());
        bus.set_round(1);
        let got = window(&mut bus, Nanos::from_millis(4));
        assert_eq!(got.len(), 1);
        assert!(got[0].late, "carried-over frame must be flagged stale");
        assert_eq!(bus.stats().late, 1);
    }

    #[test]
    fn partition_swallows_then_heals() {
        let cfg = BusConfig {
            latency: Nanos::from_micros(100),
            fault: FaultProfile::none(),
            // Cap retries so the partition-era frames die quickly.
            reliable: ReliableConfig::default(),
        };
        let mut bus = CoordBus::new(2, &cfg, 3);
        bus.partition(NodeId(0), true);
        bus.send(NodeId(0), &env(1, 0, 1));
        bus.send(NodeId(1), &env(1, 1, 1));
        // Backed-off retries (1, 3, 7, 15, 31 ms) exhaust at 63 ms.
        let got = window(&mut bus, Nanos::from_millis(70));
        // Only the healthy node's envelope lands; the partitioned lane
        // swallowed the original and every retransmission.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].envelope.source, NodeId(1));
        let s = bus.stats();
        assert!(s.partition_drops > 0);
        assert_eq!(s.gave_up, 1);
        // Heal and verify the lane works again.
        bus.partition(NodeId(0), false);
        bus.send(NodeId(0), &env(2, 0, 1));
        let got = window(&mut bus, Nanos::from_millis(100));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].envelope.lamport, 2);
    }

    #[test]
    fn reorder_window_flags_key_regressions() {
        let cfg = BusConfig {
            latency: Nanos::from_micros(50),
            fault: FaultProfile::none()
                .with_jitter(Jitter::Uniform {
                    max: Nanos::from_millis(2),
                })
                .with_reorder(Nanos::from_millis(2)),
            reliable: ReliableConfig::default(),
        };
        let mut bus = CoordBus::new(1, &cfg, 9);
        for i in 0..50u64 {
            bus.send(NodeId(0), &env(i + 1, 0, 1));
        }
        let got = window(&mut bus, Nanos::from_secs(1));
        assert_eq!(got.len(), 50);
        let s = bus.stats();
        assert!(
            s.reordered > 0,
            "a 2 ms window over 50 µs spacing must reorder"
        );
        // The consumer-side fix: sorting by the stamp restores the order.
        let mut envs: Vec<Envelope> = got.into_iter().map(|d| d.envelope).collect();
        crate::lamport::sort_envelopes(&mut envs);
        assert!(envs.windows(2).all(|w| w[0].key() <= w[1].key()));
    }
}
