//! The descriptor/payload path between the IXP and the host.
//!
//! Host-bound: the IXP posts descriptors ([`HostLink::post_to_host`]);
//! after DMA latency they land in a bounded ring in reserved host memory.
//! The Dom0 messaging driver learns about them via [`NotifyMode`] — a
//! moderated interrupt or a periodic poll — and drains the ring
//! ([`HostLink::host_take`]). Crucially, the *drain* is driven by the
//! platform only after Dom0 has been scheduled to run its driver burst, so
//! host-side latency inherits Dom0's scheduling fortunes.

use crate::DmaModel;
use ixp::{FlowId, Packet};
use simcore::{EventQueue, Nanos};
use std::collections::VecDeque;

/// Link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// DMA cost model.
    pub dma: DmaModel,
    /// How the host learns of new host-bound descriptors.
    pub notify: NotifyMode,
    /// Host-bound ring capacity in descriptors.
    pub ring_slots: u32,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            dma: DmaModel::pcie_i8000(),
            notify: NotifyMode::Interrupt {
                period: Nanos::from_micros(100),
            },
            ring_slots: 1024,
        }
    }
}

/// Host notification policy for the messaging driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// The IXP interrupts the host at most once per `period` while
    /// descriptors are pending (user-defined interrupt frequency, §2.1).
    Interrupt {
        /// Minimum gap between interrupts.
        period: Nanos,
    },
    /// Dom0 polls the ring every `period`.
    Poll {
        /// Polling cadence.
        period: Nanos,
    },
}

/// Observable link outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieEvent {
    /// The host should run its messaging-driver service routine: `pending`
    /// descriptors await in the ring.
    HostNotify {
        /// Descriptors currently in the ring.
        pending: u32,
        /// Notification time.
        at: Nanos,
    },
}

/// Link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Descriptors successfully posted host-bound.
    pub posted: u64,
    /// Descriptors dropped because the host ring was full.
    pub ring_full_drops: u64,
    /// Host notifications (interrupts or non-empty polls) raised.
    pub notifications: u64,
    /// Descriptors drained by the host.
    pub drained: u64,
    /// Bytes posted host-bound.
    pub bytes: u64,
}

#[derive(Debug)]
enum Transfer {
    ToHost { flow: FlowId, pkt: Packet },
    Notify,
}

/// The host-bound DMA + ring + notification state machine.
#[derive(Debug)]
pub struct HostLink {
    cfg: LinkConfig,
    q: EventQueue<Transfer>,
    ring: VecDeque<(FlowId, Packet)>,
    /// A notification has been raised and not yet serviced by `host_take`.
    notify_outstanding: bool,
    /// A notify timer is scheduled.
    notify_scheduled: bool,
    last_notify: Nanos,
    now: Nanos,
    stats: LinkStats,
}

impl HostLink {
    /// Creates an idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        HostLink {
            cfg,
            q: EventQueue::new(),
            ring: VecDeque::new(),
            notify_outstanding: false,
            notify_scheduled: false,
            last_notify: Nanos::ZERO,
            now: Nanos::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// IXP posts a host-bound descriptor. Returns `false` if the ring
    /// (including in-flight transfers) is full and the descriptor was
    /// dropped.
    pub fn post_to_host(&mut self, now: Nanos, flow: FlowId, pkt: Packet) -> bool {
        self.now = self.now.max(now);
        if self.ring.len() as u32 >= self.cfg.ring_slots {
            self.stats.ring_full_drops += 1;
            return false;
        }
        let t = now + self.cfg.dma.transfer_time(pkt.len_bytes);
        self.q.schedule(t, Transfer::ToHost { flow, pkt });
        self.stats.posted += 1;
        self.stats.bytes += pkt.len_bytes as u64;
        true
    }

    /// The host messaging driver services the ring, draining up to `max`
    /// descriptors. Re-arms notification if descriptors remain. See
    /// [`host_take_into`](Self::host_take_into).
    pub fn host_take(&mut self, now: Nanos, max: usize) -> Vec<(FlowId, Packet)> {
        let mut taken = Vec::new();
        self.host_take_into(now, max, &mut taken);
        taken
    }

    /// [`host_take`](Self::host_take), appending the drained descriptors
    /// to `out` (caller-owned and typically reused).
    pub fn host_take_into(&mut self, now: Nanos, max: usize, out: &mut Vec<(FlowId, Packet)>) {
        self.now = self.now.max(now);
        let n = max.min(self.ring.len());
        out.extend(self.ring.drain(..n));
        self.stats.drained += n as u64;
        self.notify_outstanding = false;
        if !self.ring.is_empty() {
            self.schedule_notify(now);
        }
    }

    /// Descriptors currently waiting in the host ring.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Link counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Next internal event (DMA completion or notification), if any.
    /// Read-only O(1): the horizon is the head of the internal queue.
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.q.peek_time()
    }

    /// Advances to `now`, appending host notifications to `out` (caller-owned and typically reused across calls).
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<PcieEvent>) {
        self.now = self.now.max(now);
        while let Some(t) = self.q.peek_time() {
            if t > now {
                break;
            }
            let (t, ev) = self.q.pop().expect("peeked");
            match ev {
                Transfer::ToHost { flow, pkt } => {
                    self.ring.push_back((flow, pkt));
                    if !self.notify_outstanding && !self.notify_scheduled {
                        self.schedule_notify(t);
                    }
                }
                Transfer::Notify => {
                    self.notify_scheduled = false;
                    if !self.ring.is_empty() && !self.notify_outstanding {
                        self.notify_outstanding = true;
                        self.last_notify = t;
                        self.stats.notifications += 1;
                        out.push(PcieEvent::HostNotify {
                            pending: self.ring.len() as u32,
                            at: t,
                        });
                    }
                }
            }
        }
    }

    fn schedule_notify(&mut self, now: Nanos) {
        if self.notify_scheduled {
            return;
        }
        let t = match self.cfg.notify {
            NotifyMode::Interrupt { period } => now.max(self.last_notify + period),
            NotifyMode::Poll { period } => {
                // Next point on the polling grid strictly after `now`.
                let p = period.as_nanos().max(1);
                Nanos((now.as_nanos() / p + 1) * p)
            }
        };
        self.q.schedule(t, Transfer::Notify);
        self.notify_scheduled = true;
    }
}

/// The PCIe link as a master-loop event source: its horizon is the next
/// DMA completion or moderated notification, and advancing it emits the
/// host notifications due at `now`.
impl simcore::Component for HostLink {
    type Event = PcieEvent;

    fn next_event_time(&self) -> Option<Nanos> {
        HostLink::next_event_time(self)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<PcieEvent>) -> Option<Nanos> {
        self.on_timer(now, out);
        self.next_event_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp::AppTag;

    fn pkt(id: u64, len: u32) -> Packet {
        Packet::new(id, 0, len, AppTag::Plain)
    }

    fn drain_events(l: &mut HostLink, until: Nanos) -> Vec<PcieEvent> {
        let mut out = Vec::new();
        while let Some(t) = l.next_event_time() {
            if t > until {
                break;
            }
            l.on_timer(t, &mut out);
        }
        out
    }

    #[test]
    fn to_host_notifies_after_dma_and_moderation() {
        let mut l = HostLink::new(LinkConfig::default());
        l.post_to_host(Nanos::ZERO, FlowId(0), pkt(1, 1000));
        let evs = drain_events(&mut l, Nanos::from_millis(1));
        let PcieEvent::HostNotify { pending, at } = *evs.first().expect("notified");
        assert_eq!(pending, 1);
        // DMA = 2 µs + 1 µs; interrupt not before max(arrival, period).
        assert!(at >= Nanos::from_micros(3));
        assert_eq!(l.ring_len(), 1);
        let taken = l.host_take(at, 64);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].1.id, 1);
        assert_eq!(l.stats().drained, 1);
    }

    #[test]
    fn interrupt_moderation_batches() {
        let cfg = LinkConfig {
            notify: NotifyMode::Interrupt {
                period: Nanos::from_micros(100),
            },
            ..LinkConfig::default()
        };
        let mut l = HostLink::new(cfg);
        for i in 0..10 {
            l.post_to_host(Nanos::from_micros(i), FlowId(0), pkt(i, 100));
        }
        let evs = drain_events(&mut l, Nanos::from_millis(1));
        assert_eq!(evs.len(), 1, "one interrupt covers the batch");
        let PcieEvent::HostNotify { pending, .. } = evs[0];
        assert_eq!(pending, 10);
    }

    #[test]
    fn renotifies_if_host_leaves_residue() {
        let mut l = HostLink::new(LinkConfig::default());
        for i in 0..5 {
            l.post_to_host(Nanos::ZERO, FlowId(0), pkt(i, 100));
        }
        let evs = drain_events(&mut l, Nanos::from_millis(1));
        let PcieEvent::HostNotify { at: first_at, .. } = evs[0];
        // Host takes only 2; the link must schedule another notification.
        let taken = l.host_take(first_at, 2);
        assert_eq!(taken.len(), 2);
        let evs = drain_events(&mut l, Nanos::from_millis(2));
        assert!(!evs.is_empty(), "residue re-notified");
    }

    #[test]
    fn poll_mode_aligns_to_grid() {
        let cfg = LinkConfig {
            notify: NotifyMode::Poll {
                period: Nanos::from_micros(50),
            },
            ..LinkConfig::default()
        };
        let mut l = HostLink::new(cfg);
        l.post_to_host(Nanos::from_micros(7), FlowId(0), pkt(1, 100));
        let evs = drain_events(&mut l, Nanos::from_millis(1));
        let PcieEvent::HostNotify { at, .. } = evs[0];
        assert_eq!(at.as_nanos() % 50_000, 0, "poll happens on the grid");
    }

    #[test]
    fn ring_full_drops() {
        let cfg = LinkConfig {
            ring_slots: 2,
            ..LinkConfig::default()
        };
        let mut l = HostLink::new(cfg);
        assert!(l.post_to_host(Nanos::ZERO, FlowId(0), pkt(1, 100)));
        drain_events(&mut l, Nanos::from_millis(1));
        assert!(l.post_to_host(Nanos::from_millis(1), FlowId(0), pkt(2, 100)));
        drain_events(&mut l, Nanos::from_millis(2));
        assert!(!l.post_to_host(Nanos::from_millis(2), FlowId(0), pkt(3, 100)));
        assert_eq!(l.stats().ring_full_drops, 1);
    }

    #[test]
    fn stats_track_posted_bytes_and_notifications() {
        let mut l = HostLink::new(LinkConfig::default());
        l.post_to_host(Nanos::ZERO, FlowId(0), pkt(1, 500));
        l.post_to_host(Nanos::ZERO, FlowId(0), pkt(2, 700));
        drain_events(&mut l, Nanos::from_millis(1));
        let s = l.stats();
        assert_eq!(s.posted, 2);
        assert_eq!(s.bytes, 1200);
        assert_eq!(s.notifications, 1);
    }

    #[test]
    fn host_take_respects_max() {
        let mut l = HostLink::new(LinkConfig::default());
        for i in 0..10 {
            l.post_to_host(Nanos::ZERO, FlowId(0), pkt(i, 100));
        }
        drain_events(&mut l, Nanos::from_millis(1));
        assert_eq!(l.ring_len(), 10);
        let first = l.host_take(Nanos::from_millis(1), 3);
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].1.id, 0, "FIFO drain");
        assert_eq!(l.ring_len(), 7);
    }

    #[test]
    fn interrupt_rate_is_moderated() {
        let cfg = LinkConfig {
            notify: NotifyMode::Interrupt {
                period: Nanos::from_millis(1),
            },
            ..LinkConfig::default()
        };
        let mut l = HostLink::new(cfg);
        let mut notifies = 0;
        // Post steadily for 10 ms, servicing promptly after each notify.
        let mut evs = Vec::new();
        for i in 0..100u64 {
            l.post_to_host(Nanos::from_micros(i * 100), FlowId(0), pkt(i, 100));
            evs.clear();
            l.on_timer(Nanos::from_micros(i * 100 + 50), &mut evs);
            for &PcieEvent::HostNotify { at, .. } in &evs {
                notifies += 1;
                l.host_take(at, usize::MAX);
            }
        }
        notifies += drain_events(&mut l, Nanos::from_millis(20)).len();
        assert!(
            notifies <= 12,
            "≤ ~1 interrupt per moderation period: {notifies}"
        );
    }
}
