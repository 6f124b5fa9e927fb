//! Fleet-level run reports and the determinism digest.
//!
//! Everything in a [`FleetReport`] is a pure function of the fleet seed
//! and configuration — no wall-clock fields — so two runs of the same
//! fleet must produce byte-identical [`FleetReport::canonical`] strings
//! (and therefore equal [`FleetReport::digest`]s) regardless of how many
//! worker threads ran the shards. The F2 experiment commits exactly that
//! comparison.

use crate::bus::BusStats;
use platform::IslandEvents;
use std::fmt::Write as _;

/// One shard's totals across every slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSummary {
    /// Shard id.
    pub shard: u16,
    /// Physical CPUs on the shard.
    pub ncpus: u32,
    /// Final admission cap after coordination.
    pub cap: u32,
    /// Sessions that arrived at the door.
    pub offered: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions rejected.
    pub rejected: u64,
    /// Island events the shard's slices dispatched.
    pub events: u64,
    /// RUBiS requests completed.
    pub completed: u64,
    /// Requests per simulated second.
    pub throughput: f64,
    /// Session-weighted mean response time (ms).
    pub mean_ms: f64,
}

/// The fleet's aggregate view over a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Shard count.
    pub shards: u16,
    /// Tree depth (1..=3).
    pub depth: u8,
    /// Rack count.
    pub racks: u16,
    /// Slices absorbed.
    pub slices: u32,
    /// Whether the coordinated arm ran.
    pub coordinated: bool,
    /// Per-shard totals, in shard order.
    pub per_shard: Vec<ShardSummary>,
    /// Cross-node (root uplink) bus counters.
    pub fleet_bus: BusStats,
    /// Intra-rack bus counters (zeroed at depth 1).
    pub rack_bus: BusStats,
    /// Cap moves by tree level (node group, rack, fleet root).
    pub tunes: [u64; 3],
    /// Root-directory forwards inside `coord::hierarchy`.
    pub root_lookups: u64,
    /// Summed per-island event counts across every shard slice.
    pub islands: IslandEvents,
}

impl FleetReport {
    /// Total island events dispatched across all shards.
    pub fn total_events(&self) -> u64 {
        self.per_shard.iter().map(|s| s.events).sum()
    }

    /// Total sessions offered / admitted / rejected.
    pub fn sessions(&self) -> (u64, u64, u64) {
        self.per_shard.iter().fold((0, 0, 0), |(o, a, r), s| {
            (o + s.offered, a + s.admitted, r + s.rejected)
        })
    }

    /// Fleet request throughput (sum of shard throughputs).
    pub fn throughput(&self) -> f64 {
        self.per_shard.iter().map(|s| s.throughput).sum()
    }

    /// Completion-weighted fleet mean response time (ms).
    pub fn mean_ms(&self) -> f64 {
        let total: u64 = self.per_shard.iter().map(|s| s.completed).sum();
        if total == 0 {
            return 0.0;
        }
        self.per_shard
            .iter()
            .map(|s| s.mean_ms * s.completed as f64)
            .sum::<f64>()
            / total as f64
    }

    /// A canonical, thread-count-independent rendering of the report.
    ///
    /// Floats print with fixed precision and only simulated outcomes are
    /// included, so the string — and the digest over it — is the shard
    /// determinism contract in one value.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "fleet v1 shards={} depth={} racks={} slices={} coord={}",
            self.shards, self.depth, self.racks, self.slices, self.coordinated
        );
        for p in &self.per_shard {
            let _ = write!(
                s,
                "|s{} ncpus={} cap={} off={} adm={} rej={} ev={} done={} thr={:.6} ms={:.6}",
                p.shard,
                p.ncpus,
                p.cap,
                p.offered,
                p.admitted,
                p.rejected,
                p.events,
                p.completed,
                p.throughput,
                p.mean_ms
            );
        }
        for (name, b) in [("fleet", &self.fleet_bus), ("rack", &self.rack_bus)] {
            let _ = write!(
                s,
                "|{name} sent={} del={} reord={} late={} retx={} ack={} gaveup={} dup={} drop={} cut={}",
                b.frames_sent,
                b.delivered,
                b.reordered,
                b.late,
                b.retransmits,
                b.acked,
                b.gave_up,
                b.dup_suppressed,
                b.channel_drops,
                b.partition_drops
            );
        }
        let _ = write!(
            s,
            "|tunes={},{},{} root={} x86={} ixp={} accel={}",
            self.tunes[0],
            self.tunes[1],
            self.tunes[2],
            self.root_lookups,
            self.islands.x86,
            self.islands.ixp,
            self.islands.accel
        );
        s
    }

    /// FNV-1a hash of [`Self::canonical`]: the value the F2 determinism
    /// columns compare across thread counts and replays.
    pub fn digest(&self) -> u64 {
        simcore::digest::fnv1a(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FleetReport {
        FleetReport {
            shards: 2,
            depth: 2,
            racks: 1,
            slices: 3,
            coordinated: true,
            per_shard: vec![
                ShardSummary {
                    shard: 0,
                    ncpus: 3,
                    cap: 60,
                    offered: 100,
                    admitted: 80,
                    rejected: 20,
                    events: 1000,
                    completed: 500,
                    throughput: 12.5,
                    mean_ms: 80.0,
                },
                ShardSummary {
                    shard: 1,
                    ncpus: 1,
                    cap: 36,
                    offered: 50,
                    admitted: 40,
                    rejected: 10,
                    events: 700,
                    completed: 300,
                    throughput: 7.5,
                    mean_ms: 160.0,
                },
            ],
            fleet_bus: BusStats::default(),
            rack_bus: BusStats::default(),
            tunes: [0, 4, 2],
            root_lookups: 2,
            islands: IslandEvents::default(),
        }
    }

    #[test]
    fn totals_roll_up() {
        let r = report();
        assert_eq!(r.total_events(), 1700);
        assert_eq!(r.sessions(), (150, 120, 30));
        assert!((r.throughput() - 20.0).abs() < 1e-9);
        assert!(
            (r.mean_ms() - 110.0).abs() < 1e-9,
            "completion-weighted mean"
        );
    }

    #[test]
    fn digest_tracks_content() {
        let a = report();
        let mut b = report();
        assert_eq!(a.digest(), b.digest());
        b.per_shard[1].completed += 1;
        assert_ne!(a.digest(), b.digest());
    }
}
