//! Cycle-level microengine model, used to validate the analytic
//! [`CostModel`].
//!
//! The IXP2850's microengines interleave 8 hardware thread contexts with a
//! zero-cost context switch on every memory reference (§2.1): while one
//! thread waits out an SRAM/DRAM access, the others execute. The pipeline
//! model uses a closed-form approximation (instruction time + a fixed
//! *exposure fraction* of memory stall time); this module simulates the
//! actual interleaving cycle-by-cycle so tests can check the approximation
//! against ground truth for the shipped task profiles.

use crate::{CostModel, IxpGeometry, MemLevel};

/// One task's execution shape on a microengine: alternating compute
/// segments and memory references.
#[derive(Debug, Clone)]
pub struct TaskProfile {
    /// Instruction cycles between consecutive memory references.
    pub compute_per_ref: u64,
    /// Memory references per packet, with their levels.
    pub refs: Vec<MemLevel>,
    /// Trailing instruction cycles after the last reference.
    pub tail_compute: u64,
}

impl TaskProfile {
    /// Derives a representative profile from a [`CostModel`]: the model's
    /// instruction budget is spread evenly between its memory references.
    pub fn from_cost_model(cost: &CostModel, len_bytes: u32) -> Self {
        let payload_refs = (cost.dram_refs_per_64b * (len_bytes as f64 / 64.0)).round() as u32;
        let mut refs = Vec::new();
        for _ in 0..cost.scratch_refs {
            refs.push(MemLevel::Scratch);
        }
        for _ in 0..cost.sram_refs {
            refs.push(MemLevel::Sram);
        }
        for _ in 0..(cost.dram_refs + payload_refs) {
            refs.push(MemLevel::Dram);
        }
        let segments = refs.len() as u64 + 1;
        let per = cost.instr.count() / segments;
        TaskProfile {
            compute_per_ref: per,
            refs,
            tail_compute: cost.instr.count() - per * (segments - 1),
        }
    }

    fn total_compute(&self) -> u64 {
        self.compute_per_ref * self.refs.len() as u64 + self.tail_compute
    }

    fn total_stall(&self) -> u64 {
        self.refs.iter().map(|r| r.latency().count()).sum()
    }
}

/// Simulates `threads` contexts on one microengine, each repeatedly
/// executing `profile`, for `packets_per_thread` packets each. Returns the
/// achieved packets-per-1000-cycles throughput.
///
/// Round-robin semantics: a thread runs until its next memory reference,
/// issues it, and yields; it becomes runnable again once the reference
/// completes. The engine idles only when every context is stalled.
pub fn simulate_engine(profile: &TaskProfile, threads: u32, packets_per_thread: u32) -> f64 {
    assert!(threads >= 1, "need at least one context");
    #[derive(Clone)]
    struct Ctx {
        /// Cycle at which this context's pending memory reference completes
        /// (0 = runnable).
        ready_at: u64,
        /// Position in the profile: next reference index.
        next_ref: usize,
        packets_done: u32,
    }
    let mut ctxs = vec![
        Ctx {
            ready_at: 0,
            next_ref: 0,
            packets_done: 0
        };
        threads as usize
    ];
    let mut cycle: u64 = 0;
    let total_packets = packets_per_thread as u64 * threads as u64;
    let mut done: u64 = 0;
    let mut rr = 0usize;
    while done < total_packets {
        // Pick the next runnable context round-robin.
        let runnable = (0..ctxs.len())
            .map(|i| (rr + i) % ctxs.len())
            .find(|&i| ctxs[i].ready_at <= cycle && ctxs[i].packets_done < packets_per_thread);
        let Some(i) = runnable else {
            // Everyone is stalled: advance to the earliest completion.
            cycle = ctxs
                .iter()
                .filter(|c| c.packets_done < packets_per_thread)
                .map(|c| c.ready_at)
                .min()
                .expect("unfinished context exists");
            continue;
        };
        rr = i + 1;
        let c = &mut ctxs[i];
        if c.next_ref < profile.refs.len() {
            // Compute segment, then issue the reference and yield.
            cycle += profile.compute_per_ref;
            let lat = profile.refs[c.next_ref].latency().count();
            c.ready_at = cycle + lat;
            c.next_ref += 1;
        } else {
            // Tail compute finishes the packet.
            cycle += profile.tail_compute;
            c.packets_done += 1;
            c.next_ref = 0;
            c.ready_at = cycle;
            done += 1;
        }
    }
    total_packets as f64 * 1000.0 / cycle as f64
}

/// The effective per-packet cost (cycles) observed by the cycle simulator.
pub fn effective_cycles_per_packet(profile: &TaskProfile, threads: u32) -> f64 {
    1000.0 / simulate_engine(profile, threads, 200)
}

/// The analytic model's prediction for the same task: instruction cycles
/// plus the exposed fraction of stall cycles.
pub fn analytic_cycles_per_packet(profile: &TaskProfile, geom: &IxpGeometry) -> f64 {
    profile.total_compute() as f64 + profile.total_stall() as f64 * geom.stall_exposure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_pays_full_stalls() {
        let p = TaskProfile {
            compute_per_ref: 100,
            refs: vec![MemLevel::Dram, MemLevel::Sram],
            tail_compute: 100,
        };
        let cy = effective_cycles_per_packet(&p, 1);
        let expect = (p.total_compute() + p.total_stall()) as f64;
        assert!(
            (cy - expect).abs() < expect * 0.01,
            "one context hides nothing: {cy} vs {expect}"
        );
    }

    #[test]
    fn eight_threads_hide_most_stalls() {
        // Compute-heavy enough that 8 contexts cover the latencies.
        let p = TaskProfile {
            compute_per_ref: 60,
            refs: vec![MemLevel::Dram, MemLevel::Sram, MemLevel::Scratch],
            tail_compute: 60,
        };
        let cy = effective_cycles_per_packet(&p, 8);
        let compute = p.total_compute() as f64;
        assert!(
            cy < compute * 1.10,
            "8 contexts approach pure-compute throughput: {cy} vs {compute}"
        );
    }

    #[test]
    fn throughput_improves_monotonically_with_threads() {
        let p = TaskProfile {
            compute_per_ref: 30,
            refs: vec![MemLevel::Dram; 4],
            tail_compute: 30,
        };
        let mut last = f64::INFINITY;
        for t in [1u32, 2, 4, 8] {
            let cy = effective_cycles_per_packet(&p, t);
            assert!(cy <= last + 1e-9, "{t} threads: {cy} vs {last}");
            last = cy;
        }
    }

    #[test]
    fn analytic_model_tracks_cycle_simulation_for_shipped_tasks() {
        // The pipeline's closed-form costs must stay within 40% of the
        // cycle-level ground truth at the hardware's 8-context geometry
        // for every shipped task profile. The analytic model is expected
        // to land on the *high* side: the idealized interleaving here
        // hides essentially all stall latency at 8 contexts, while the
        // 25% exposure factor keeps a margin for SDRAM bank conflicts and
        // memory-command-queue limits real IXPs hit.
        let geom = IxpGeometry::ixp2850();
        for (name, cost, len) in [
            ("rx", CostModel::rx(), 1500u32),
            ("tx", CostModel::tx(), 1500),
            ("classify_flow", CostModel::classify_flow(), 1500),
            ("classify_dpi", CostModel::classify_dpi(), 1500),
            ("host_queue", CostModel::host_queue(), 1500),
        ] {
            let profile = TaskProfile::from_cost_model(&cost, len);
            let simulated = effective_cycles_per_packet(&profile, geom.threads_per_engine);
            let analytic = analytic_cycles_per_packet(&profile, &geom);
            let ratio = analytic / simulated;
            assert!(
                (0.95..=1.40).contains(&ratio),
                "{name}: analytic {analytic:.0}cy vs simulated {simulated:.0}cy (ratio {ratio:.2})"
            );
        }
    }
}
