//! Canonical FNV-1a 64 digests of simulated results.
//!
//! A digest covers what the simulated system did and nothing about the
//! host that simulated it: wall-clock fields and the parallel-engine
//! bookkeeping (`sync_points`, `island_threads`, `epoch_ns`) are left out,
//! so a change that only makes the simulator faster keeps every digest.

use fleet::FleetReport;
use platform::RunReport;

/// Incremental FNV-1a 64.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Hashes raw bytes.
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hashes an integer.
    fn u(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a float by its bit pattern.
    fn f(&mut self, v: f64) {
        self.u(v.to_bits());
    }

    /// Hashes a string with a terminator, so adjacent strings cannot
    /// trade bytes.
    fn s(&mut self, v: &str) {
        self.bytes(v.as_bytes());
        self.bytes(&[0xFF]);
    }

    /// The digest so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one platform run: RUBiS and inference responses, players,
/// CPU accounting, efficiency, coordination, network, accelerator, power
/// and energy reports, and the dispatched-event counts.
pub fn run_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::default();
    let rubis = &r.rubis;
    for (name, s) in rubis.responses.iter() {
        h.s(name);
        h.u(s.count());
        for v in [s.mean(), s.std_dev(), s.min(), s.max()] {
            h.f(v);
        }
        h.f(rubis.responses.percentile(name, 0.5));
        h.f(rubis.responses.percentile(name, 0.99));
    }
    h.u(rubis.completed);
    h.f(rubis.throughput);
    h.u(rubis.sessions);
    h.f(rubis.avg_session_secs);
    for p in &r.players {
        h.s(&p.name);
        h.u(p.target_fps as u64);
        h.f(p.achieved_fps);
        h.u(p.frames);
    }
    for d in &r.cpu {
        h.s(&d.name);
        for v in [d.percent, d.user, d.system, d.steal] {
            h.f(v);
        }
    }
    h.f(r.efficiency);
    let c = &r.coord;
    for v in [
        c.messages_sent,
        c.bytes_sent,
        c.tunes_applied,
        c.triggers_applied,
        c.rejected,
        c.throttled,
        c.discounted,
        c.channel_drops,
        c.channel_dups,
        c.retransmits,
        c.acked,
        c.gave_up,
        c.dup_suppressed,
        c.degraded_entries,
        c.degraded_suppressed,
    ] {
        h.u(v);
    }
    h.f(c.degraded_secs);
    let n = &r.net;
    for v in [
        n.ixp_drops,
        n.link_drops,
        n.unroutable,
        n.delivered,
        n.guest_drops,
    ] {
        h.u(v);
    }
    for t in &r.accel.tenants {
        h.s(&t.name);
        h.u(t.latency_sensitive as u64);
        for v in [
            t.submitted,
            t.completed,
            t.rejected,
            t.batches,
            t.preemptions,
            t.alarms,
        ] {
            h.u(v);
        }
        h.f(t.mean_batch);
        h.f(t.queue_p99_ms);
    }
    h.u(r.accel.hbm_high_water);
    h.u(r.accel.hbm_rejects);
    let p = &r.power;
    h.f(p.cap_watts.unwrap_or(-1.0));
    h.f(p.mean_watts);
    h.f(p.max_watts);
    h.u(p.cap_actions);
    for &(t, v) in p.series.points() {
        h.u(t.0);
        h.f(v);
    }
    let e = &r.energy;
    h.u(e.enabled as u64);
    for v in [e.p99_target_ms, e.cpu_joules, e.ixp_joules] {
        h.f(v);
    }
    for &(pct, n) in &e.residency {
        h.u(pct as u64);
        h.u(n);
    }
    for v in [
        e.violations,
        e.backoffs,
        e.descents,
        e.freezes,
        e.knob_actions,
    ] {
        h.u(v);
    }
    for v in [e.final_dvfs_percent, e.final_ways, e.final_membw_percent] {
        h.u(v as u64);
    }
    h.u(r.sim_rate.events);
    let i = &r.events_by_island;
    for v in [i.x86, i.ixp, i.accel] {
        h.u(v);
    }
    h.finish()
}

/// Digest of a fleet run: [`FleetReport::canonical`] without its trailing
/// parallel-engine barrier count, which describes the host engine rather
/// than the simulated fleet.
pub fn fleet_digest(r: &FleetReport) -> u64 {
    let canonical = r.canonical();
    let simulated = canonical.split(" sync=").next().unwrap_or_default();
    let mut h = Fnv::default();
    h.bytes(simulated.as_bytes());
    h.finish()
}
