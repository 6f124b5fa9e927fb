//! Layer probes: each drives one layer's public API with the workload's
//! configuration and reports the median host nanoseconds per operation
//! over several timed batches.

use crate::alloc;
use crate::workload::{lossy_bus, Op, Size, Workload};
use accel::{AccelConfig, AccelIsland, AccelRequest, TenantId};
use coord::{
    wire, Controller, CoordMsg, EntityId, IslandId, IslandKind, ReliableConfig, ReliableSender,
};
use fleet::{CoordBus, Envelope, NodeId};
use ixp::{AppTag, FlowId, IxpConfig, IxpIsland, Packet};
use metrics::ResponseStats;
use pcie::{HostLink, LinkConfig, Mailbox};
use platform::PolicerConfig;
use simcore::{EventQueue, Nanos, SimRng};
use std::hint::black_box;
use std::time::Instant;
use xsched::{Burst, CreditScheduler, SchedConfig, WakeMode};

/// Median ns/op of every probe, plus the allocation rate of the metrics
/// probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `EventQueue` schedule + pop at the workload's mean event gap.
    pub queue_ns: f64,
    /// `CreditScheduler::on_timer` with the workload's domain count.
    pub sched_ns: f64,
    /// One packet through the IXP receive pipeline.
    pub pkt_ns: f64,
    /// One descriptor posted, DMA'd and drained over the host link.
    pub link_ns: f64,
    /// One encoded frame through the coordination mailbox.
    pub mbx_ns: f64,
    /// Encode + decode of one coordination message.
    pub wire_ns: f64,
    /// `Controller::handle` of one Tune.
    pub controller_ns: f64,
    /// One message through the reliable sender (send, timers, ack).
    pub retx_ns: f64,
    /// One accelerator request submitted and completed.
    pub req_ns: f64,
    /// `ResponseStats::record` of one response.
    pub record_ns: f64,
    /// Allocations per `ResponseStats::record`.
    pub allocs_per_record: f64,
    /// One envelope through the fleet's cross-node bus.
    pub bus_ns: f64,
}

/// Median of a sample (0 for an empty one).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Times `size.probe_batches` batches of `size.probe_ops` calls of `f`
/// after one untimed warm-up batch and returns the median ns per call.
fn ns_per_op(size: &Size, mut f: impl FnMut(u64)) -> f64 {
    let ops = size.probe_ops;
    let mut i = 0;
    let mut batch = |i: &mut u64| {
        let start = Instant::now();
        for _ in 0..ops {
            f(*i);
            *i += 1;
        }
        start.elapsed().as_nanos() as f64 / ops as f64
    };
    batch(&mut i);
    median((0..size.probe_batches).map(|_| batch(&mut i)).collect())
}

fn queue(size: &Size, gap_ns: u64) -> f64 {
    // 64 pending events spread over 128 gaps: each pop advances the clock
    // by about one mean gap, as in the platform's master queue.
    let span = 128 * gap_ns.max(1);
    let mut q = EventQueue::new();
    let mut rng = SimRng::new(1);
    for i in 0..64 {
        q.schedule(Nanos(1 + rng.next_u64() % span), i);
    }
    let mut now = 0;
    ns_per_op(size, |i| {
        q.schedule(Nanos(now + 1 + rng.next_u64() % span), i);
        let (t, v) = q.pop().expect("queue holds 64 events");
        now = t.0;
        black_box(v);
    })
}

fn sched(size: &Size, domains: u64) -> f64 {
    let mut s = CreditScheduler::new(SchedConfig::new(2));
    for d in 0..domains.max(1) {
        let dom = s.create_domain(&format!("d{d}"), 256, 1);
        s.submit(
            Nanos::ZERO,
            dom,
            Burst::user(Nanos::from_secs(1 << 20), d),
            WakeMode::Plain,
        )
        .expect("domain was just created");
    }
    let mut evs = Vec::new();
    ns_per_op(size, |_| {
        let t = s
            .next_event_time()
            .expect("saturated domains always have a next tick");
        s.on_timer(t, &mut evs);
        evs.clear();
    })
}

fn ixp_packets(size: &Size) -> f64 {
    // Every workload's IXP runs the DPI classifier.
    let mut island = IxpIsland::new(IxpConfig {
        dpi: true,
        ..IxpConfig::default()
    });
    let flow = island.register_flow(1);
    let mut evs = Vec::new();
    let mut now = Nanos::ZERO;
    ns_per_op(size, |i| {
        now += Nanos(2_000);
        let app = AppTag::Http {
            class_id: (i % 8) as u16,
            write: i % 3 == 0,
        };
        black_box(island.rx_from_wire(now, Packet::new(i, 1, 1400, app)));
        black_box(island.host_ack(now, flow, 1));
        while island.next_event_time().is_some_and(|t| t <= now) {
            let t = island.next_event_time().expect("checked");
            island.on_timer(t, &mut evs);
        }
        evs.clear();
    })
}

fn link(size: &Size) -> f64 {
    let mut l = HostLink::new(LinkConfig::default());
    let mut evs = Vec::new();
    let mut now = Nanos::ZERO;
    ns_per_op(size, |i| {
        now += Nanos(2_000);
        l.post_to_host(now, FlowId(0), Packet::new(i, 1, 1400, AppTag::Plain));
        while l.next_event_time().is_some_and(|t| t <= now) {
            let t = l.next_event_time().expect("checked");
            l.on_timer(t, &mut evs);
        }
        evs.clear();
        black_box(l.host_take(now, 64));
    })
}

fn tune(i: u64, entities: u64) -> CoordMsg {
    CoordMsg::Tune {
        entity: EntityId((i % entities.max(1)) as u32 + 1),
        delta: if i.is_multiple_of(2) { 64 } else { -64 },
        target: None,
    }
}

fn mailbox(size: &Size, w: Workload) -> f64 {
    // The platform encodes every frame into a fresh buffer; so does this.
    let mut mbx: Mailbox<Vec<u8>> = Mailbox::new(Nanos::from_micros(30));
    let faults = w.channel_faults();
    if !faults.is_none() {
        mbx.set_faults(faults, SimRng::new(7));
    }
    let mut out = Vec::new();
    let mut now = Nanos::ZERO;
    ns_per_op(size, |i| {
        now += Nanos(10_000);
        let mut buf = Vec::new();
        wire::encode(&tune(i, 3), &mut buf);
        mbx.send(now, buf);
        mbx.on_timer(now, &mut out);
        out.clear();
    })
}

fn codec(size: &Size, framed: bool) -> f64 {
    let mut buf = Vec::with_capacity(32);
    ns_per_op(size, |i| {
        buf.clear();
        let msg = tune(i, 3);
        if framed {
            wire::encode_framed(i as u32, &msg, &mut buf);
            black_box(wire::decode_framed(&buf).expect("self-encoded"));
        } else {
            wire::encode(&msg, &mut buf);
            black_box(wire::decode(&buf).expect("self-encoded"));
        }
    })
}

fn controller(size: &Size, entities: u64, defended: bool) -> f64 {
    let mut ctl = Controller::new();
    if defended {
        ctl.set_defenses(PolicerConfig::default());
    }
    let x86 = IslandId(0);
    ctl.handle(
        Nanos::ZERO,
        CoordMsg::RegisterIsland {
            island: x86,
            kind: IslandKind::GeneralPurpose,
        },
    );
    for e in 1..=entities.max(1) {
        let msg = CoordMsg::RegisterEntity {
            entity: EntityId(e as u32),
            island: x86,
            local_key: e,
        };
        ctl.handle(Nanos::ZERO, msg);
    }
    let mut now = Nanos::ZERO;
    ns_per_op(size, |i| {
        now += Nanos(10_000);
        black_box(ctl.handle(now, tune(i, entities)));
    })
}

fn reliable(size: &Size) -> f64 {
    // Acks trail sends by four messages, so the pending set stays small
    // and timers rarely fire, as on a channel that mostly delivers.
    let mut tx = ReliableSender::new(ReliableConfig::default());
    let mut out = Vec::new();
    let mut seqs = std::collections::VecDeque::new();
    let mut now = Nanos::ZERO;
    ns_per_op(size, |i| {
        now += Nanos(10_000);
        seqs.push_back(tx.send(now, tune(i, 3)));
        if seqs.len() > 4 {
            tx.on_ack(now, seqs.pop_front().expect("non-empty"));
        }
        tx.on_timer(now, &mut out);
        out.clear();
    })
}

fn accelerator(size: &Size) -> f64 {
    let mut acc = AccelIsland::new(AccelConfig::default());
    for vm in 0..4 {
        acc.register_tenant(vm + 1);
    }
    let mut evs = Vec::new();
    let mut now = Nanos::ZERO;
    ns_per_op(size, |i| {
        // The mixed-tenant offered rate, 690 requests per second.
        now += Nanos(1_450_000);
        let req = AccelRequest {
            id: i,
            tenant: TenantId((i % 4) as u32),
            cost: Nanos::from_micros(400),
            bytes: 256 * 1024,
        };
        black_box(acc.submit(now, req));
        while acc.next_event_time().is_some_and(|t| t <= now) {
            let t = acc.next_event_time().expect("checked");
            acc.on_timer(t, &mut evs);
        }
        evs.clear();
    })
}

fn records(size: &Size, names: &[String]) -> (f64, f64) {
    let fallback = [String::from("request")];
    let names = if names.is_empty() {
        &fallback[..]
    } else {
        names
    };
    let mut stats = ResponseStats::new();
    let mark = alloc::mark();
    let ns = ns_per_op(size, |i| {
        let latency = Nanos::from_micros(500 + (i * 7919) % 200_000);
        stats.record(&names[i as usize % names.len()], latency);
    });
    let calls = (size.probe_batches as u64 + 1) * size.probe_ops;
    (ns, alloc::since(mark).allocs as f64 / calls as f64)
}

fn bus(size: &Size, shards: u16) -> f64 {
    let racks = shards.div_ceil(4).max(1);
    let mut b = CoordBus::new(racks, &lossy_bus(), 11);
    let mut out = Vec::new();
    let mut round = 0;
    ns_per_op(size, |i| {
        let env = Envelope {
            lamport: i,
            source: NodeId((i % racks as u64) as u16),
            msg: tune(i, 3),
        };
        b.send(NodeId((i % racks as u64) as u16), &env);
        if i % racks as u64 == racks as u64 - 1 {
            // One coordination round per envelope from every rack.
            round += 1;
            b.set_round(round);
            let until = b.now() + Nanos::from_millis(2);
            b.advance(until, &mut out);
            out.clear();
        }
    })
}

/// Runs every probe with `w`'s configuration; `op` supplies the domain
/// count, the mean event gap and the request-type names.
pub fn run_all(w: Workload, size: &Size, op: &Op) -> Probes {
    let c = &op.counts;
    // Simulated seconds per event within one platform (shard-seconds
    // over shard events for the fleet).
    let gap_ns = (op.sim_secs * 1e9 / c.events().max(1) as f64) as u64;
    let reliable_channel = w == Workload::CoordStorm;
    let (record_ns, allocs_per_record) = records(size, &op.names);
    Probes {
        queue_ns: queue(size, gap_ns),
        sched_ns: sched(size, c.domains),
        pkt_ns: ixp_packets(size),
        link_ns: link(size),
        mbx_ns: mailbox(size, w),
        wire_ns: codec(size, reliable_channel),
        controller_ns: controller(size, c.domains, reliable_channel),
        retx_ns: reliable(size),
        req_ns: accelerator(size),
        record_ns,
        allocs_per_record,
        bus_ns: bus(size, size.shards),
    }
}
