//! Shared run-loop and reporting scaffolding for the probe binaries
//! (`probe`, `schedprobe`) — each used to carry its own copy.

use platform::RunReport;
use xsched::{CreditScheduler, DomId};

/// Fraction of the QoS gap that strategic tenants open — measured as a
/// mean-response-time increase over the honest baseline — which the
/// controller's defenses claw back:
///
/// `recovered = (adversarial − defended) / (adversarial − honest)`
///
/// 0 means the defenses changed nothing, 1 means they fully restored the
/// honest baseline, and values above 1 mean the defended run beat it.
/// When the adversaries opened no gap (`adversarial ≤ honest`) there is
/// nothing to recover and the fraction is defined as 0.
pub fn gap_recovered(honest: f64, adversarial: f64, defended: f64) -> f64 {
    let gap = adversarial - honest;
    if gap <= f64::EPSILON * honest.abs().max(1.0) {
        return 0.0;
    }
    (adversarial - defended) / gap
}

/// One inference tenant's accelerator summary as the calibration tools
/// compare it: client-observed p99 plus the device-side batching view.
#[derive(Debug, Clone, Default)]
pub struct AccelTenantOut {
    /// Tenant name.
    pub name: String,
    /// `true` when the tenant carries an interactive latency SLA.
    pub latency_sensitive: bool,
    /// Client-observed p99 response time (ms).
    pub p99_ms: f64,
    /// Completed requests per second.
    pub goodput: f64,
    /// Mean items per launched batch.
    pub mean_batch: f64,
    /// p99 batch-forming queue delay (ms).
    pub queue_p99_ms: f64,
    /// Batches launched early by a Trigger.
    pub preemptions: u64,
}

/// Per-tenant accelerator summaries of a run (empty for two-island runs).
pub fn accel_tenants(r: &RunReport) -> Vec<AccelTenantOut> {
    let secs = r.duration.as_secs_f64().max(1e-9);
    r.accel
        .tenants
        .iter()
        .map(|t| AccelTenantOut {
            name: t.name.clone(),
            latency_sensitive: t.latency_sensitive,
            p99_ms: r.rubis.responses.percentile(&t.name, 0.99),
            goodput: t.completed as f64 / secs,
            mean_batch: t.mean_batch,
            queue_p99_ms: t.queue_p99_ms,
            preemptions: t.preemptions,
        })
        .collect()
}

/// Prints the deterministic per-island dispatch split of a run.
pub fn print_islands(r: &RunReport) {
    let i = &r.events_by_island;
    println!("  islands: x86 {} ixp {} accel {}", i.x86, i.ixp, i.accel);
}

/// Prints the deterministic per-source dispatch counts of a run, in
/// registry order, with each source's share of all dispatches.
pub fn print_sources(r: &RunReport) {
    let total = r.sim_rate.events.max(1) as f64;
    let cols: Vec<String> = r
        .events_by_source
        .iter()
        .map(|s| {
            format!(
                "{} {} ({:.1}%)",
                s.name,
                s.events,
                100.0 * s.events as f64 / total
            )
        })
        .collect();
    println!("  sources: {}", cols.join("  "));
}

/// Prints a fleet run's per-shard event/coordination counters plus the
/// bus and tree totals (the `probe fleet` view).
pub fn print_fleet(r: &fleet::FleetReport) {
    println!(
        "  fleet: {} shards, depth {} ({} racks), {} slices, coordinated={}",
        r.shards, r.depth, r.racks, r.slices, r.coordinated
    );
    for s in &r.per_shard {
        println!(
            "  shard {:2} ncpus {} cap {:3}  sessions {}/{} (rej {})  \
             events {:>9}  X={:6.1}/s mean={:7.1}ms",
            s.shard,
            s.ncpus,
            s.cap,
            s.admitted,
            s.offered,
            s.rejected,
            s.events,
            s.throughput,
            s.mean_ms,
        );
    }
    for (name, b) in [("fleet bus", &r.fleet_bus), ("rack bus ", &r.rack_bus)] {
        println!(
            "  {name}: sent {} delivered {} reordered {} late {} retx {} \
             gave-up {} dup-suppressed {} drops {} partition-drops {}",
            b.frames_sent,
            b.delivered,
            b.reordered,
            b.late,
            b.retransmits,
            b.gave_up,
            b.dup_suppressed,
            b.channel_drops,
            b.partition_drops,
        );
    }
    println!(
        "  tunes l0/l1/l2 {}/{}/{}  root lookups {}  total events {}  \
         fleet mean {:.1} ms  digest {:016x}",
        r.tunes[0],
        r.tunes[1],
        r.tunes[2],
        r.root_lookups,
        r.total_events(),
        r.mean_ms(),
        r.digest(),
    );
}

/// Prints the per-domain CPU table: full user/system/steal split when
/// `detail` is set, the compact percent+steal form otherwise.
pub fn print_cpu(r: &RunReport, detail: bool) {
    for c in &r.cpu {
        if detail {
            println!(
                "  {}: {:.1}% (u {:.1} / s {:.1} / steal {:.1})",
                c.name, c.percent, c.user, c.system, c.steal
            );
        } else {
            println!("  {}: {:.1}% steal {:.1}", c.name, c.percent, c.steal);
        }
    }
}

/// Prints the energy-dimension accounting of a run (no-op when the
/// energy dimension was off — the default).
pub fn print_energy(r: &RunReport) {
    let e = &r.energy;
    if !e.enabled {
        return;
    }
    println!(
        "  energy: {:.1} J (cpu {:.1} / ixp {:.1})  target p99 {:.0} ms  \
         violations {} descents {} backoffs {} freezes {}",
        e.total_joules(),
        e.cpu_joules,
        e.ixp_joules,
        e.p99_target_ms,
        e.violations,
        e.descents,
        e.backoffs,
        e.freezes,
    );
    let total: u64 = e.residency.iter().map(|&(_, n)| n).sum();
    let mix = e
        .residency
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(f, n)| format!("{f}%×{:.0}%", n as f64 * 100.0 / total.max(1) as f64))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "  knobs: {} applied, final dvfs {}% ways {} membw {}%  residency {}",
        e.knob_actions, e.final_dvfs_percent, e.final_ways, e.final_membw_percent, mix,
    );
}

/// Prints the per-player frame-rate lines.
pub fn print_players(r: &RunReport) {
    for p in &r.players {
        println!(
            "  {}: target {} achieved {:.1} fps ({} frames)",
            p.name, p.target_fps, p.achieved_fps, p.frames
        );
    }
}

/// Prints per-request-type response statistics.
pub fn print_responses(r: &RunReport) {
    for (name, s) in r.rubis.responses.iter() {
        println!(
            "  {:26} n={:4} mean={:7.1} sd={:7.1} min={:6.1} max={:8.1}",
            name,
            s.count(),
            s.mean(),
            s.std_dev(),
            s.min(),
            s.max()
        );
    }
}

/// Prints the usage snapshot lines for a raw scheduler probe.
pub fn print_sched_usage(s: &mut CreditScheduler, doms: &[(DomId, &str)]) {
    let snap = s.usage_snapshot();
    for &(d, name) in doms {
        println!(
            "{name}: {:.1}% steal {:.1} credit {:?}",
            snap.cpu_percent(d),
            snap.steal_percent(d),
            s.credit(d)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::gap_recovered;

    #[test]
    fn gap_recovered_spans_the_defined_range() {
        // Defenses restored half of a 100 → 300 ms degradation.
        assert!((gap_recovered(100.0, 300.0, 200.0) - 0.5).abs() < 1e-12);
        // Full restoration and no restoration.
        assert!((gap_recovered(100.0, 300.0, 100.0) - 1.0).abs() < 1e-12);
        assert!(gap_recovered(100.0, 300.0, 300.0).abs() < 1e-12);
        // No gap opened: nothing to recover, even if "defended" is lower.
        assert_eq!(gap_recovered(100.0, 100.0, 50.0), 0.0);
        assert_eq!(gap_recovered(100.0, 90.0, 50.0), 0.0);
    }
}
