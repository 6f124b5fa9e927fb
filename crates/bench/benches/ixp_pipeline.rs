//! IXP island benchmarks: packet pipeline throughput with and without
//! deep packet inspection, and the flow-knob costs.

use ixp::{AppTag, IxpConfig, IxpIsland, Packet};
use simcore::Nanos;
use simtest::BenchSuite;
use std::hint::black_box;

fn drive_packets(island: &mut IxpIsland, n: u64) -> usize {
    let mut delivered = 0;
    let mut now = Nanos::ZERO;
    for i in 0..n {
        now += Nanos(2_000); // 500 kpps offered
        let pkt = Packet::new(
            i,
            1,
            1400,
            AppTag::Http {
                class_id: 3,
                write: false,
            },
        );
        delivered += island.rx_from_wire(now, pkt).len();
        // Open the window as fast as packets appear.
        let evs = island.host_ack(now, ixp::FlowId(0), 4);
        delivered += evs.len();
    }
    let mut evs = Vec::new();
    while let Some(t) = island.next_event_time() {
        evs.clear();
        island.on_timer(t, &mut evs);
        delivered += evs.len();
    }
    delivered
}

fn main() {
    let mut suite = BenchSuite::new("ixp_pipeline");

    // Per-sample figures cover one 1k-packet block (criterion reported
    // these with Throughput::Elements(1000)).
    suite.bench_n("ixp/rx_pipeline/flow_classify_1k_pkts", 30, || {
        let mut island = IxpIsland::new(IxpConfig::default());
        island.register_flow(1);
        black_box(drive_packets(&mut island, 1000))
    });
    suite.bench_n("ixp/rx_pipeline/dpi_classify_1k_pkts", 30, || {
        let cfg = IxpConfig {
            dpi: true,
            ..IxpConfig::default()
        };
        let mut island = IxpIsland::new(cfg);
        island.register_flow(1);
        black_box(drive_packets(&mut island, 1000))
    });

    let mut island = IxpIsland::new(IxpConfig::default());
    let flow = island.register_flow(1);
    let mut n = 2;
    suite.bench("ixp/set_flow_threads", || {
        n = if n == 2 { 4 } else { 2 };
        island.set_flow_threads(black_box(flow), n)
    });

    let mut island = IxpIsland::new(IxpConfig::default());
    let flow = island.register_flow(1);
    for i in 0..100 {
        island.rx_from_wire(Nanos(i * 1000), Packet::new(i, 1, 1400, AppTag::Plain));
    }
    suite.bench("ixp/buffer_occupancy_query", || {
        black_box(island.flow_queue_bytes(flow))
    });

    suite.finish();
}
