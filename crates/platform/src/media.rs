//! The MPlayer streaming/decode path across the platform.
//!
//! A Darwin-server analogue paces RTP packets at the stream's (slightly
//! over-provisioned) frame rate. Packets flow through the IXP into the
//! guest; once a frame's worth of bytes has arrived the guest queues a
//! decode burst. Local-disk players skip the network entirely and decode
//! continuously ("fastest frame rate possible", as MPlayer's benchmark
//! mode does).

use crate::world::{Ctx, Ev, Platform};
use ixp::Packet;
use workloads::mplayer::{Source, MTU_BYTES};
use xsched::{Burst, WakeMode};

impl Platform {
    /// The streaming server emits one frame's packets for player `i`.
    pub(crate) fn frame_gen(&mut self, i: usize) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let overrate = self.overrate;
        let Some(p) = self.players.get_mut(i) else {
            return;
        };
        let spec = p.player.spec();
        let vm = p.vm_index;
        let mut remaining = spec.bytes_per_frame();
        while remaining > 0 {
            let len = remaining.min(MTU_BYTES);
            remaining -= len;
            let id = p.next_pkt_id;
            p.next_pkt_id += 1;
            let pkt = spec.data_packet(id, vm, len);
            self.q.schedule(now + wire, Ev::WireArrive(pkt));
        }
        let interval = spec.frame_interval() * (1.0 / overrate);
        self.q.schedule(now + interval, Ev::FrameGen(i));
    }

    /// Stream data reached the guest: accumulate and queue decode work
    /// when a full frame is present.
    pub(crate) fn media_data_arrived(&mut self, vm: u32, pkt: Packet) {
        let Some(i) = self.players.iter().position(|p| p.vm_index == vm) else {
            self.consume_rx(vm, 1);
            return;
        };
        self.players[i].rx_accum_bytes += pkt.len_bytes as u64;
        let bpf = self.players[i].player.spec().bytes_per_frame() as u64;
        if self.players[i].rx_accum_bytes >= bpf {
            self.players[i].rx_accum_bytes -= bpf;
            self.submit_decode(i);
        }
    }

    /// Queues one frame-decode burst on the player's guest.
    pub(crate) fn submit_decode(&mut self, i: usize) {
        let Some(p) = self.players.get(i) else { return };
        let cost = p.player.spec().decode_cost();
        let vm = p.vm_index;
        let Some(dom) = self.dom_of_vm(vm) else {
            return;
        };
        self.submit(
            dom,
            Burst::user(cost, Ctx::Decode { player: i }),
            WakeMode::Boost,
        );
    }

    /// A frame finished decoding.
    pub(crate) fn decode_done(&mut self, i: usize) {
        let Some(p) = self.players.get_mut(i) else {
            return;
        };
        p.player.frame_decoded();
        let source = p.player.source();
        let ppf = p.player.spec().packets_per_frame();
        let vm = p.vm_index;
        match source {
            Source::Network => {
                // The frame's packets leave the guest receive window only
                // now — a CPU-starved decoder therefore backpressures all
                // the way to the IXP DRAM queue (Figure 7's mechanism).
                self.consume_rx(vm, ppf);
            }
            Source::LocalDisk => {
                // Benchmark mode: decode the next frame immediately.
                self.submit_decode(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use simcore::Nanos;

    #[test]
    fn frame_interval_respects_overrate() {
        // 25 fps at overrate 1.25 → packets every 32 ms instead of 40 ms.
        let base = Nanos::from_millis(40);
        let scaled = base * (1.0 / 1.25);
        assert_eq!(scaled, Nanos::from_millis(32));
    }
}
