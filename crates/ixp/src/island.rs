//! The assembled IXP island: Rx/Tx pipelines, classification, per-flow
//! host-bound queues with backpressure, and the software scheduling knobs.
//!
//! ## Pipeline (mirrors Figure 3 of the paper)
//!
//! ```text
//!  wire ──► Rx pool ──► classifier pool ──► per-flow queue ──► host ring
//!                         (flow / DPI)      (thread + poll      (window-
//!                                            knobs, monitor)    limited)
//!  host ──► Tx pool ──► wire
//! ```
//!
//! Figure 3's Tx classifier and per-flow egress scheduler are not
//! modelled: no workload originates classified guest traffic, so every
//! host packet takes the shared Tx pool.
//!
//! The host ring is **window-limited**: each flow may have at most
//! `host_window` packets posted to the PCIe message queue and not yet
//! consumed by the host. When the host stalls (e.g. the destination VM is
//! CPU-starved), the window closes, the per-flow DRAM queue grows, and the
//! buffer monitor eventually fires — precisely the causal chain behind the
//! paper's Figure 7 trigger experiment.

use crate::monitor::BufferMonitor;
use crate::{AppTag, CostModel, FlowId, IxpGeometry, Packet, ThreadPool};
use simcore::{EventQueue, Nanos};
use std::collections::{BTreeMap, VecDeque};

/// Configuration for an [`IxpIsland`].
#[derive(Debug, Clone, PartialEq)]
pub struct IxpConfig {
    /// Hardware geometry (clock, engines, threads, stall exposure).
    pub geometry: IxpGeometry,
    /// Threads receiving packets from the wire.
    pub rx_threads: u32,
    /// Threads running the Rx classifier.
    pub classify_threads: u32,
    /// Threads transmitting host packets to the wire.
    pub tx_threads: u32,
    /// Default threads per registered flow's host-bound queue.
    pub flow_threads: u32,
    /// Default poll interval for flow queues.
    pub flow_poll: Nanos,
    /// Poll interval for the shared pipeline pools.
    pub stage_poll: Nanos,
    /// Enable deep packet inspection on Rx (request classification).
    pub dpi: bool,
    /// Per-flow DRAM queue capacity in bytes.
    pub flow_capacity_bytes: u64,
    /// Per-flow buffer-monitor alarm threshold in bytes (None = off).
    pub buffer_threshold: Option<u64>,
    /// Per-flow host ring window (descriptors posted but not yet consumed).
    pub host_window: u32,
}

impl Default for IxpConfig {
    fn default() -> Self {
        IxpConfig {
            geometry: IxpGeometry::ixp2850(),
            rx_threads: 8,
            classify_threads: 8,
            tx_threads: 8,
            flow_threads: 2,
            flow_poll: Nanos::from_micros(20),
            stage_poll: Nanos::from_micros(2),
            dpi: false,
            flow_capacity_bytes: 4 << 20,
            buffer_threshold: None,
            host_window: 128,
        }
    }
}

/// Observable outputs of the island.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IxpEvent {
    /// A packet descriptor was posted on the host-bound message ring.
    DeliverToHost {
        /// Flow the packet belongs to.
        flow: FlowId,
        /// The packet.
        pkt: Packet,
        /// Posting time.
        at: Nanos,
    },
    /// A host packet left on the wire.
    TransmitToWire {
        /// The packet.
        pkt: Packet,
        /// Transmission time.
        at: Nanos,
    },
    /// The Rx classifier finished classifying a packet (DPI result).
    Classified {
        /// Flow the packet was mapped to.
        flow: FlowId,
        /// The packet (carrying its [`AppTag`]).
        pkt: Packet,
        /// Classification time.
        at: Nanos,
    },
    /// A flow's DRAM queue crossed the monitor threshold.
    BufferAlarm {
        /// Flow whose queue crossed.
        flow: FlowId,
        /// Occupancy at the crossing.
        bytes: u64,
        /// Crossing time.
        at: Nanos,
    },
}

/// Per-flow counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets classified into this flow.
    pub rx_packets: u64,
    /// Bytes classified into this flow.
    pub rx_bytes: u64,
    /// Packets posted to the host.
    pub delivered: u64,
    /// Packets dropped on DRAM queue overflow.
    pub dropped: u64,
    /// High-water mark of the DRAM queue in bytes.
    pub max_queue_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Rx,
    Classify,
    FlowQueue(FlowId),
    Tx,
}

#[derive(Debug)]
struct Internal {
    stage: Stage,
    pkt: Packet,
}

#[derive(Debug)]
struct FlowState {
    vm: u32,
    pool: ThreadPool,
    monitor: BufferMonitor,
    stats: FlowStats,
    window: u32,
    window_max: u32,
    /// Packets that finished queue service but found the window closed.
    awaiting_window: VecDeque<Packet>,
}

/// The IXP island state machine. See the module-level documentation for
/// the pipeline layout and the crate docs for a driving example.
#[derive(Debug)]
pub struct IxpIsland {
    cfg: IxpConfig,
    rx: ThreadPool,
    classify: ThreadPool,
    tx: ThreadPool,
    flows: Vec<FlowState>,
    vm_to_flow: BTreeMap<u32, FlowId>,
    q: EventQueue<Internal>,
    now: Nanos,
    unroutable: u64,
}

impl IxpIsland {
    /// Creates an island with no registered flows.
    pub fn new(cfg: IxpConfig) -> Self {
        let cap = u64::MAX; // shared stages are not the DRAM-bounded queues
        IxpIsland {
            rx: ThreadPool::new(cfg.rx_threads, cfg.stage_poll, cap),
            classify: ThreadPool::new(cfg.classify_threads, cfg.stage_poll, cap),
            tx: ThreadPool::new(cfg.tx_threads, cfg.stage_poll, cap),
            flows: Vec::new(),
            vm_to_flow: BTreeMap::new(),
            q: EventQueue::new(),
            now: Nanos::ZERO,
            unroutable: 0,
            cfg,
        }
    }

    /// Registers a receive flow for guest VM index `vm` and returns its id.
    /// Registering the same VM twice returns the existing flow.
    pub fn register_flow(&mut self, vm: u32) -> FlowId {
        if let Some(&f) = self.vm_to_flow.get(&vm) {
            return f;
        }
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowState {
            vm,
            pool: ThreadPool::new(
                self.cfg.flow_threads,
                self.cfg.flow_poll,
                self.cfg.flow_capacity_bytes,
            ),
            monitor: BufferMonitor::new(self.cfg.buffer_threshold),
            stats: FlowStats::default(),
            window: self.cfg.host_window,
            window_max: self.cfg.host_window,
            awaiting_window: VecDeque::new(),
        });
        self.vm_to_flow.insert(vm, id);
        id
    }

    /// The flow registered for a VM, if any.
    pub fn flow_of_vm(&self, vm: u32) -> Option<FlowId> {
        self.vm_to_flow.get(&vm).copied()
    }

    // ------------------------------------------------------------------
    // Software scheduler knobs (the IXP-side Tune levers, §2.1)
    // ------------------------------------------------------------------

    /// Sets the number of dequeuing threads serving `flow`'s queue.
    pub fn set_flow_threads(&mut self, flow: FlowId, threads: u32) {
        let now = self.now;
        if let Some(f) = self.flows.get_mut(flow.0 as usize) {
            for pkt in f.pool.set_threads(threads) {
                let t = now + Self::flow_service(&self.cfg, &pkt);
                self.q.schedule(
                    t,
                    Internal {
                        stage: Stage::FlowQueue(flow),
                        pkt,
                    },
                );
            }
        }
    }

    /// Current number of dequeuing threads serving `flow`.
    pub fn flow_threads(&self, flow: FlowId) -> u32 {
        self.flows
            .get(flow.0 as usize)
            .map(|f| f.pool.threads())
            .unwrap_or(0)
    }

    /// The VM a flow was registered for.
    pub fn vm_of_flow(&self, flow: FlowId) -> Option<u32> {
        self.flows.get(flow.0 as usize).map(|f| f.vm)
    }

    // ------------------------------------------------------------------
    // Data path inputs
    // ------------------------------------------------------------------

    /// A packet arrived from the wire.
    pub fn rx_from_wire(&mut self, now: Nanos, pkt: Packet) -> Vec<IxpEvent> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        if let Some((delay, pkt)) = self.rx.offer(pkt) {
            let t = now + delay + CostModel::rx().service_time(&self.cfg.geometry, pkt.len_bytes);
            self.q.schedule(
                t,
                Internal {
                    stage: Stage::Rx,
                    pkt,
                },
            );
        }
        out
    }

    /// A packet arrived from the host for transmission through the shared
    /// wire-Tx stage.
    pub fn tx_from_host(&mut self, now: Nanos, pkt: Packet) -> Vec<IxpEvent> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        if let Some((delay, pkt)) = self.tx.offer(pkt) {
            let t = now + delay + CostModel::tx().service_time(&self.cfg.geometry, pkt.len_bytes);
            self.q.schedule(
                t,
                Internal {
                    stage: Stage::Tx,
                    pkt,
                },
            );
        }
        out
    }

    /// The host consumed `n` descriptors of `flow`'s ring, reopening the
    /// delivery window.
    pub fn host_ack(&mut self, now: Nanos, flow: FlowId, n: u32) -> Vec<IxpEvent> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        let Some(f) = self.flows.get_mut(flow.0 as usize) else {
            return out;
        };
        f.window = (f.window + n).min(f.window_max);
        // Release packets that were blocked on the window.
        while f.window > 0 {
            let Some(pkt) = f.awaiting_window.pop_front() else {
                break;
            };
            f.window -= 1;
            f.stats.delivered += 1;
            out.push(IxpEvent::DeliverToHost { flow, pkt, at: now });
        }
        // Freed queue space may admit new services.
        while let Some(pkt) = f.pool.start_next() {
            let t = now + Self::flow_service(&self.cfg, &pkt);
            self.q.schedule(
                t,
                Internal {
                    stage: Stage::FlowQueue(flow),
                    pkt,
                },
            );
        }
        out
    }

    // ------------------------------------------------------------------
    // Event-loop contract
    // ------------------------------------------------------------------

    /// Next internal completion time, if any work is in flight.
    ///
    /// This is a read-only O(1) peek: the island's event horizon is the
    /// head of its internal queue.
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.q.peek_time()
    }

    /// Advances to `now`, appending all pipeline outputs that fall due to
    /// `out` (caller-owned and typically reused, so steady-state dispatch
    /// does not allocate).
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<IxpEvent>) {
        self.advance(now, out);
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Counters for `flow`.
    pub fn flow_stats(&self, flow: FlowId) -> Option<FlowStats> {
        self.flows.get(flow.0 as usize).map(|f| f.stats)
    }

    /// Current DRAM queue occupancy of `flow` in bytes (queued + blocked
    /// on the host window).
    pub fn flow_queue_bytes(&self, flow: FlowId) -> u64 {
        self.flows
            .get(flow.0 as usize)
            .map(|f| {
                f.pool.queued_bytes()
                    + f.awaiting_window
                        .iter()
                        .map(|p| p.len_bytes as u64)
                        .sum::<u64>()
            })
            .unwrap_or(0)
    }

    /// Packets whose destination VM had no registered flow.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn flow_service(cfg: &IxpConfig, pkt: &Packet) -> Nanos {
        CostModel::host_queue().service_time(&cfg.geometry, pkt.len_bytes)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<IxpEvent>) {
        debug_assert!(now >= self.now, "ixp time went backwards");
        while let Some(t) = self.q.peek_time() {
            if t > now {
                break;
            }
            let (t, ev) = self.q.pop().expect("peeked");
            self.handle_done(t, ev, out);
        }
        self.now = now;
    }

    fn handle_done(&mut self, t: Nanos, ev: Internal, out: &mut Vec<IxpEvent>) {
        match ev.stage {
            Stage::Rx => {
                if let Some(pkt) = self.rx.finish_one() {
                    let d = CostModel::rx().service_time(&self.cfg.geometry, pkt.len_bytes);
                    self.q.schedule(
                        t + d,
                        Internal {
                            stage: Stage::Rx,
                            pkt,
                        },
                    );
                }
                // Hand to the classifier.
                if let Some((delay, pkt)) = self.classify.offer(ev.pkt) {
                    let d = self.classify_cost(&pkt);
                    self.q.schedule(
                        t + delay + d,
                        Internal {
                            stage: Stage::Classify,
                            pkt,
                        },
                    );
                }
            }
            Stage::Classify => {
                if let Some(pkt) = self.classify.finish_one() {
                    let d = self.classify_cost(&pkt);
                    self.q.schedule(
                        t + d,
                        Internal {
                            stage: Stage::Classify,
                            pkt,
                        },
                    );
                }
                let Some(&flow) = self.vm_to_flow.get(&ev.pkt.dst_vm) else {
                    self.unroutable += 1;
                    return;
                };
                out.push(IxpEvent::Classified {
                    flow,
                    pkt: ev.pkt,
                    at: t,
                });
                let f = &mut self.flows[flow.0 as usize];
                f.stats.rx_packets += 1;
                f.stats.rx_bytes += ev.pkt.len_bytes as u64;
                if let Some((delay, pkt)) = f.pool.offer(ev.pkt) {
                    let d = Self::flow_service(&self.cfg, &pkt);
                    self.q.schedule(
                        t + delay + d,
                        Internal {
                            stage: Stage::FlowQueue(flow),
                            pkt,
                        },
                    );
                } else {
                    f.stats.dropped = f.pool.dropped();
                }
                self.check_monitor(flow, t, out);
            }
            Stage::FlowQueue(flow) => {
                let f = &mut self.flows[flow.0 as usize];
                if let Some(pkt) = f.pool.finish_one() {
                    // A dequeue thread polls its queue between services:
                    // per-flow bandwidth ≈ threads / poll interval — the
                    // §2.1 knob pair.
                    let d = f.pool.poll() + Self::flow_service(&self.cfg, &pkt);
                    self.q.schedule(
                        t + d,
                        Internal {
                            stage: Stage::FlowQueue(flow),
                            pkt,
                        },
                    );
                }
                if f.window > 0 {
                    f.window -= 1;
                    f.stats.delivered += 1;
                    out.push(IxpEvent::DeliverToHost {
                        flow,
                        pkt: ev.pkt,
                        at: t,
                    });
                } else {
                    f.awaiting_window.push_back(ev.pkt);
                }
                self.check_monitor(flow, t, out);
            }
            Stage::Tx => {
                if let Some(pkt) = self.tx.finish_one() {
                    let d = CostModel::tx().service_time(&self.cfg.geometry, pkt.len_bytes);
                    self.q.schedule(
                        t + d,
                        Internal {
                            stage: Stage::Tx,
                            pkt,
                        },
                    );
                }
                out.push(IxpEvent::TransmitToWire { pkt: ev.pkt, at: t });
            }
        }
    }

    fn classify_cost(&self, pkt: &Packet) -> Nanos {
        let model =
            if self.cfg.dpi && matches!(pkt.app, AppTag::Http { .. } | AppTag::Inference { .. }) {
                CostModel::classify_dpi()
            } else {
                CostModel::classify_flow()
            };
        model.service_time(&self.cfg.geometry, pkt.len_bytes)
    }

    fn check_monitor(&mut self, flow: FlowId, t: Nanos, out: &mut Vec<IxpEvent>) {
        let bytes = self.flow_queue_bytes(flow);
        let f = &mut self.flows[flow.0 as usize];
        f.stats.max_queue_bytes = f.stats.max_queue_bytes.max(bytes);
        if f.monitor.on_level(t, bytes) {
            out.push(IxpEvent::BufferAlarm { flow, bytes, at: t });
        }
    }
}

/// The IXP island as a master-loop event source: its horizon is the
/// earliest internal stage-pipeline event, and advancing it emits the
/// classification/delivery/alarm/transmit events due at `now`.
impl simcore::Component for IxpIsland {
    type Event = IxpEvent;

    fn next_event_time(&self) -> Option<Nanos> {
        IxpIsland::next_event_time(self)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<IxpEvent>) -> Option<Nanos> {
        self.on_timer(now, out);
        self.next_event_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(island: &mut IxpIsland, until: Nanos) -> Vec<IxpEvent> {
        let mut out = Vec::new();
        while let Some(t) = island.next_event_time() {
            if t > until {
                break;
            }
            island.on_timer(t, &mut out);
        }
        out
    }

    fn plain(id: u64, vm: u32) -> Packet {
        Packet::new(id, vm, 1500, AppTag::Plain)
    }

    #[test]
    fn rx_packet_traverses_pipeline() {
        let mut island = IxpIsland::new(IxpConfig::default());
        let flow = island.register_flow(1);
        island.rx_from_wire(Nanos::ZERO, plain(1, 1));
        let evs = drain(&mut island, Nanos::from_millis(1));
        assert!(evs
            .iter()
            .any(|e| matches!(e, IxpEvent::Classified { flow: f, .. } if *f == flow)));
        assert!(evs
            .iter()
            .any(|e| matches!(e, IxpEvent::DeliverToHost { flow: f, .. } if *f == flow)));
        let stats = island.flow_stats(flow).unwrap();
        assert_eq!(stats.rx_packets, 1);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn unknown_vm_is_unroutable() {
        let mut island = IxpIsland::new(IxpConfig::default());
        island.register_flow(1);
        island.rx_from_wire(Nanos::ZERO, plain(1, 99));
        drain(&mut island, Nanos::from_millis(1));
        assert_eq!(island.unroutable(), 1);
    }

    #[test]
    fn tx_path_emits_to_wire() {
        let mut island = IxpIsland::new(IxpConfig::default());
        island.tx_from_host(Nanos::ZERO, plain(7, 0));
        let evs = drain(&mut island, Nanos::from_millis(1));
        assert!(evs
            .iter()
            .any(|e| matches!(e, IxpEvent::TransmitToWire { pkt, .. } if pkt.id == 7)));
    }

    #[test]
    fn register_flow_idempotent() {
        let mut island = IxpIsland::new(IxpConfig::default());
        let a = island.register_flow(5);
        let b = island.register_flow(5);
        assert_eq!(a, b);
        assert_eq!(island.flow_of_vm(5), Some(a));
        assert_eq!(island.flow_of_vm(6), None);
    }

    #[test]
    fn window_backpressure_queues_in_dram() {
        let cfg = IxpConfig {
            host_window: 2,
            ..IxpConfig::default()
        };
        let mut island = IxpIsland::new(cfg);
        let flow = island.register_flow(1);
        for i in 0..10 {
            island.rx_from_wire(Nanos::ZERO, plain(i, 1));
        }
        let evs = drain(&mut island, Nanos::from_millis(10));
        let delivered = evs
            .iter()
            .filter(|e| matches!(e, IxpEvent::DeliverToHost { .. }))
            .count();
        assert_eq!(delivered, 2, "window limits deliveries");
        assert!(island.flow_queue_bytes(flow) > 0, "rest parked in DRAM");
        // Host consumes: the window reopens and more deliveries flow.
        let evs = island.host_ack(Nanos::from_millis(11), flow, 2);
        let more = evs
            .iter()
            .filter(|e| matches!(e, IxpEvent::DeliverToHost { .. }))
            .count();
        assert_eq!(more, 2);
    }

    #[test]
    fn buffer_alarm_fires_on_threshold() {
        let cfg = IxpConfig {
            host_window: 0,               // host never consumes
            buffer_threshold: Some(6000), // four 1500-byte packets
            ..IxpConfig::default()
        };
        let mut island = IxpIsland::new(cfg);
        let flow = island.register_flow(1);
        let mut evs = Vec::new();
        for i in 0..10 {
            evs.extend(island.rx_from_wire(Nanos::from_micros(i * 50), plain(i, 1)));
        }
        evs.extend(drain(&mut island, Nanos::from_millis(10)));
        let alarms: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e, IxpEvent::BufferAlarm { .. }))
            .collect();
        assert_eq!(alarms.len(), 1, "one alarm per crossing");
        if let IxpEvent::BufferAlarm { flow: f, bytes, .. } = alarms[0] {
            assert_eq!(*f, flow);
            assert!(*bytes >= 6000);
        }
    }

    #[test]
    fn more_threads_drain_faster() {
        // Measure time to deliver a burst with 1 vs 6 flow threads.
        let time_to_drain = |threads: u32| {
            let cfg = IxpConfig {
                flow_threads: threads,
                ..IxpConfig::default()
            };
            let mut island = IxpIsland::new(cfg);
            island.register_flow(1);
            for i in 0..200 {
                island.rx_from_wire(Nanos::ZERO, plain(i, 1));
            }
            let mut last = Nanos::ZERO;
            let mut evs = Vec::new();
            while let Some(t) = island.next_event_time() {
                evs.clear();
                island.on_timer(t, &mut evs);
                for ev in &evs {
                    if matches!(ev, IxpEvent::DeliverToHost { .. }) {
                        last = t;
                    }
                }
            }
            last
        };
        let slow = time_to_drain(1);
        let fast = time_to_drain(6);
        assert!(
            fast < slow,
            "6 threads ({fast}) should beat 1 thread ({slow})"
        );
    }

    #[test]
    fn dpi_slows_classification() {
        let latency = |dpi: bool| {
            let cfg = IxpConfig {
                dpi,
                ..IxpConfig::default()
            };
            let mut island = IxpIsland::new(cfg);
            island.register_flow(1);
            let pkt = Packet::new(
                1,
                1,
                1500,
                AppTag::Http {
                    class_id: 3,
                    write: false,
                },
            );
            island.rx_from_wire(Nanos::ZERO, pkt);
            let mut t_class = Nanos::ZERO;
            let mut evs = Vec::new();
            while let Some(t) = island.next_event_time() {
                evs.clear();
                island.on_timer(t, &mut evs);
                for ev in &evs {
                    if matches!(ev, IxpEvent::Classified { .. }) {
                        t_class = t;
                    }
                }
            }
            t_class
        };
        assert!(latency(true) > latency(false));
    }

    #[test]
    fn set_flow_threads_releases_backlog() {
        let cfg = IxpConfig {
            flow_threads: 0,
            ..IxpConfig::default()
        }; // nothing drains initially
        let mut island = IxpIsland::new(cfg);
        let flow = island.register_flow(1);
        for i in 0..5 {
            island.rx_from_wire(Nanos::ZERO, plain(i, 1));
        }
        drain(&mut island, Nanos::from_millis(5));
        assert_eq!(island.flow_stats(flow).unwrap().delivered, 0);
        island.set_flow_threads(flow, 4);
        drain(&mut island, Nanos::from_millis(10));
        assert_eq!(island.flow_stats(flow).unwrap().delivered, 5);
    }

    #[test]
    fn classified_event_carries_app_tag() {
        let cfg = IxpConfig {
            dpi: true,
            ..IxpConfig::default()
        };
        let mut island = IxpIsland::new(cfg);
        island.register_flow(2);
        let pkt = Packet::new(
            1,
            2,
            800,
            AppTag::Http {
                class_id: 9,
                write: true,
            },
        );
        island.rx_from_wire(Nanos::ZERO, pkt);
        let evs = drain(&mut island, Nanos::from_millis(1));
        let classified = evs.iter().find_map(|e| match e {
            IxpEvent::Classified { pkt, .. } => Some(*pkt),
            _ => None,
        });
        assert!(matches!(
            classified.unwrap().app,
            AppTag::Http {
                class_id: 9,
                write: true
            }
        ));
    }

    #[test]
    fn unclassified_egress_skips_flow_queues() {
        let mut island = IxpIsland::new(IxpConfig::default());
        let flow = island.register_flow(1);
        island.tx_from_host(Nanos::ZERO, Packet::new(6, 1, 1000, AppTag::Plain));
        let evs = drain(&mut island, Nanos::from_millis(1));
        assert!(evs
            .iter()
            .any(|e| matches!(e, IxpEvent::TransmitToWire { pkt, .. } if pkt.id == 6)));
        assert_eq!(island.flow_stats(flow).unwrap(), FlowStats::default());
        assert_eq!(island.flow_queue_bytes(flow), 0);
    }
}
