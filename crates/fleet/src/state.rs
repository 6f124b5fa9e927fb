//! Fleet coordination state: admission caps, Lamport clocks, buses, and
//! the node → rack → fleet aggregation tree.
//!
//! The coordinated resource at fleet scale is the per-shard **admission
//! cap** (how many concurrent sessions a shard may run). Each slice,
//! every shard reports its pressure (mean response time) upward as a
//! Lamport-stamped Tune envelope; aggregation points rebalance cap from
//! high-pressure members toward low-pressure ones, conserving the total.
//! The tree depth decides *where* rebalancing happens:
//!
//! * depth 1 — every shard reports straight to the fleet root over the
//!   cross-node bus; all rebalancing is global (and every decision is a
//!   root-directory forward in `coord::hierarchy` terms).
//! * depth 2 — shards report to their rack over short intra-rack lanes;
//!   racks rebalance locally (zone-local resolutions) and forward only a
//!   residual summary to the root.
//! * depth 3 — node-group pairs pre-balance synchronously (level-0
//!   tunes) before the rack and fleet stages.
//!
//! Deeper trees therefore keep most coordination close to the data and
//! degrade gracefully when the cross-node bus is slow or lossy — the F1
//! experiment measures exactly that.

use crate::bus::{BusConfig, CoordBus, Delivery};
use crate::lamport::{Envelope, LamportClock, NodeId};
use crate::report::{FleetReport, ShardSummary};
use crate::shard::{slice_seed, ShardPlan, ShardSpec};
use coord::hierarchy::{ChildReport, HierarchicalController, ZoneId};
use coord::{Action, CoordMsg, EntityId, IslandId, IslandKind};
use pcie::{FaultProfile, Jitter};
use platform::{IslandEvents, RunReport};
use simcore::Nanos;
use std::ops::Range;
use workloads::session::simulate_admission;

/// Shape of the fleet tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTopology {
    /// Number of shards (independent platforms).
    pub shards: u16,
    /// Aggregation depth: 1 (flat), 2 (racks), or 3 (node groups + racks).
    pub depth: u8,
    /// Shards per rack.
    pub rack_size: u16,
}

impl FleetTopology {
    /// Creates a topology.
    ///
    /// # Panics
    /// Panics unless `shards > 0`, `rack_size > 0` and `1 <= depth <= 3`.
    pub fn new(shards: u16, depth: u8, rack_size: u16) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(rack_size > 0, "need a positive rack size");
        assert!((1..=3).contains(&depth), "depth must be 1..=3");
        FleetTopology {
            shards,
            depth,
            rack_size,
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> u16 {
        self.shards.div_ceil(self.rack_size)
    }

    /// The rack a shard belongs to.
    pub fn rack_of(&self, shard: u16) -> u16 {
        shard / self.rack_size
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Tree shape.
    pub topo: FleetTopology,
    /// Cross-node bus lanes (the fleet root's uplinks). Intra-rack lanes
    /// derive from this with 8× lower latency and 4× lower loss.
    pub bus: BusConfig,
    /// `false` runs the uncoordinated arm: caps stay at `base_cap`.
    pub coordinated: bool,
    /// Initial per-shard admission cap (concurrent sessions).
    pub base_cap: u32,
    /// Floor a rebalance may push a shard's cap to.
    pub min_cap: u32,
    /// Ceiling a rebalance may raise a shard's cap to.
    pub max_cap: u32,
    /// Rebalance step: fraction of the pressure imbalance corrected per
    /// round (0.5 = half).
    pub gain: f64,
    /// Coordination-round window: how long each round waits for
    /// envelopes before acting on what arrived.
    pub window: Nanos,
    /// Fleet seed; shard `s` derives every stream from `seed ^ s`.
    pub seed: u64,
}

/// What one coordination round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Envelopes delivered (all buses) within the round's window.
    pub delivered: u32,
    /// Deliveries that were stale (sent in an earlier round).
    pub late: u32,
    /// Cap moves applied, by tree level (node group, rack, fleet root).
    pub moves: [u32; 3],
}

/// Intra-rack lanes: an 8× faster, 4× cleaner derivative of the
/// cross-node bus config.
fn rack_bus_cfg(bus: &BusConfig) -> BusConfig {
    let div = |n: Nanos, d: u64| Nanos::from_nanos(n.as_nanos() / d);
    let jitter = match bus.fault.jitter {
        Jitter::None => Jitter::None,
        Jitter::Uniform { max } => Jitter::Uniform { max: div(max, 8) },
        Jitter::Exponential { mean } => Jitter::Exponential { mean: div(mean, 8) },
    };
    BusConfig {
        latency: div(bus.latency, 8),
        fault: FaultProfile {
            drop_prob: bus.fault.drop_prob / 4.0,
            dup_prob: bus.fault.dup_prob / 4.0,
            jitter,
            reorder_window: div(bus.fault.reorder_window, 8),
        },
        reliable: bus.reliable,
    }
}

/// Encodes a pressure (mean response ms) into a Tune delta (centi-ms).
fn quantize(pressure_ms: f64) -> i32 {
    (pressure_ms * 100.0).round().clamp(0.0, i32::MAX as f64) as i32
}

/// Rebalances capacity among units: moves cap from units whose pressure
/// sits above the cap-weighted mean toward units below it, `gain` of the
/// imbalance per call, conserving the total (subject to the per-unit
/// clamp). Deterministic; ties resolve by lowest index.
fn rebalance(units: &[(u32, f64)], gain: f64, min_cap: u32, max_cap: u32) -> Vec<i64> {
    let n = units.len();
    let mut deltas = vec![0i64; n];
    if n < 2 {
        return deltas;
    }
    let wmean = weighted_mean(units);
    if wmean <= f64::EPSILON {
        return deltas;
    }
    let lo = |cap: u32| min_cap as i64 - cap as i64;
    let hi = |cap: u32| max_cap as i64 - cap as i64;
    for (i, &(cap, p)) in units.iter().enumerate() {
        let raw = gain * cap as f64 * (wmean - p) / wmean;
        deltas[i] = (raw.round() as i64).clamp(lo(cap), hi(cap));
    }
    // Restore conservation lost to rounding and clamping: shave the
    // largest donors/receivers one unit at a time, lowest index first.
    loop {
        let sum: i64 = deltas.iter().sum();
        if sum == 0 {
            break;
        }
        let pick = if sum > 0 {
            deltas
                .iter()
                .enumerate()
                .filter(|&(i, &d)| d > lo(units[i].0))
                .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
        } else {
            deltas
                .iter()
                .enumerate()
                .filter(|&(i, &d)| d < hi(units[i].0))
                .min_by_key(|&(i, &d)| (d, i))
                .map(|(i, _)| i)
        };
        let Some(i) = pick else { break };
        deltas[i] -= sum.signum();
    }
    deltas
}

/// The cap-weighted mean pressure of `units` (0 when they hold no cap).
fn weighted_mean(units: &[(u32, f64)]) -> f64 {
    let cap: u64 = units.iter().map(|&(c, _)| c as u64).sum();
    if cap == 0 {
        return 0.0;
    }
    units.iter().map(|&(c, p)| c as f64 * p).sum::<f64>() / cap as f64
}

/// Splits a unit-level delta across members pro-rata by cap (largest
/// share first in index order; remainder spread one unit at a time).
fn distribute(delta: i64, member_caps: &[u32]) -> Vec<i64> {
    let n = member_caps.len();
    if n == 1 {
        return vec![delta];
    }
    let total: i64 = member_caps.iter().map(|&c| c as i64).sum();
    let mut out = vec![0i64; n];
    if total == 0 {
        out[0] = delta;
        return out;
    }
    let mut assigned = 0i64;
    for (i, &c) in member_caps.iter().enumerate() {
        out[i] = delta * c as i64 / total;
        assigned += out[i];
    }
    let mut rem = delta - assigned;
    let step = rem.signum();
    let mut i = 0;
    while rem != 0 {
        out[i % n] += step;
        rem -= step;
        i += 1;
    }
    out
}

/// A `Tune` for `entity` by `delta`.
fn tune(entity: usize, delta: i32) -> CoordMsg {
    CoordMsg::Tune {
        entity: EntityId(entity as u32),
        delta,
        target: None,
    }
}

/// A unit's pressure report to its parent, before it goes on the wire.
#[derive(Debug, Clone, Copy)]
struct Report {
    /// The unit reported on; also the lane the report travels.
    unit: u16,
    lamport: u64,
    source: u16,
    pressure: f64,
}

/// Sends every report up its unit's lane and returns what arrives within
/// the round's window (late copies of earlier rounds included).
fn exchange(
    bus: &mut CoordBus,
    round: u32,
    window: Nanos,
    reports: &[Report],
    stats: &mut RoundStats,
) -> Vec<Delivery> {
    bus.set_round(round);
    let start = bus.now();
    for r in reports {
        let msg = tune(r.unit as usize, quantize(r.pressure));
        bus.send(
            NodeId(r.unit),
            &Envelope {
                lamport: r.lamport,
                source: NodeId(r.source),
                msg,
            },
        );
    }
    let mut deliveries = Vec::new();
    bus.advance(start + window, &mut deliveries);
    stats.delivered += deliveries.len() as u32;
    stats.late += deliveries.iter().filter(|d| d.late).count() as u32;
    deliveries
}

/// The unit a delivered report speaks for, and its pressure (ms).
fn reading(e: &Envelope) -> Option<(u16, f64)> {
    match e.msg {
        CoordMsg::Tune { entity, delta, .. } => Some((entity.0 as u16, delta as f64 / 100.0)),
        _ => None,
    }
}

/// How the units one stage rebalances map onto shards: unit `u` stands
/// for shards `u * stride .. u * stride + width`, clipped to the fleet.
#[derive(Debug, Clone, Copy)]
struct Span {
    stride: u16,
    width: u16,
}

/// Every shard on its own.
const SHARDS: Span = Span {
    stride: 1,
    width: 1,
};
/// Node-group pairs, each named by its first shard.
const PAIRS: Span = Span {
    stride: 1,
    width: 2,
};

/// One shard's totals across absorbed slices.
#[derive(Debug, Clone, Copy, Default)]
struct ShardTotals {
    offered: u64,
    admitted: u64,
    rejected: u64,
    events: u64,
    completed: u64,
    /// Sum over slices of mean response × responses.
    resp_weight: f64,
    resp_count: u64,
}

/// The fleet: N shard plans, their admission caps, and the coordination
/// tree that moves cap between them.
pub struct FleetState {
    cfg: FleetConfig,
    plans: Vec<ShardPlan>,
    caps: Vec<u32>,
    shard_clocks: Vec<LamportClock>,
    /// One clock per aggregation zone: racks `0..racks`, then the root.
    zone_clocks: Vec<LamportClock>,
    /// Shard → rack lanes (depth ≥ 2).
    rack_bus: Option<CoordBus>,
    /// Uplinks to the fleet root: shard lanes at depth 1, rack lanes
    /// at depth ≥ 2.
    fleet_bus: CoordBus,
    h: HierarchicalController,
    tunes: [u64; 3],
    round: u32,
    slices: u32,
    sim_nanos: u128,
    totals: Vec<ShardTotals>,
    islands: IslandEvents,
}

impl FleetState {
    /// Builds the fleet from per-shard plans.
    ///
    /// # Panics
    /// Panics unless `plans` holds shards `0..topo.shards` in order.
    pub fn new(cfg: FleetConfig, plans: Vec<ShardPlan>) -> Self {
        let topo = cfg.topo;
        let shards = topo.shards as usize;
        assert_eq!(plans.len(), shards, "one plan per shard");
        assert!(
            plans.iter().enumerate().all(|(i, p)| p.shard as usize == i),
            "plans in shard order"
        );
        let racks = topo.racks();
        // The hierarchy models racks as zones plus one extra root zone;
        // rack-stage decisions resolve zone-locally, root-stage decisions
        // originate in the root zone and forward through the directory.
        let mut h = HierarchicalController::new(racks + 1);
        for r in 0..racks {
            h.register_island(ZoneId(r), IslandId(r), IslandKind::GeneralPurpose);
        }
        for plan in &plans {
            let rack = topo.rack_of(plan.shard);
            h.register_entity(
                ZoneId(rack),
                EntityId(plan.shard as u32),
                IslandId(rack),
                plan.shard as u64,
            );
        }
        let rack_bus = (topo.depth >= 2)
            .then(|| CoordBus::new(topo.shards, &rack_bus_cfg(&cfg.bus), cfg.seed ^ 0x7ACC));
        let fleet_nodes = if topo.depth >= 2 { racks } else { topo.shards };
        let fleet_bus = CoordBus::new(fleet_nodes, &cfg.bus, cfg.seed);
        FleetState {
            plans,
            caps: vec![cfg.base_cap; shards],
            shard_clocks: vec![LamportClock::new(); shards],
            zone_clocks: vec![LamportClock::new(); racks as usize + 1],
            rack_bus,
            fleet_bus,
            h,
            tunes: [0; 3],
            round: 0,
            slices: 0,
            sim_nanos: 0,
            totals: vec![ShardTotals::default(); shards],
            islands: IslandEvents::default(),
            cfg,
        }
    }

    /// Current per-shard admission caps.
    pub fn caps(&self) -> &[u32] {
        &self.caps
    }

    /// The topology.
    pub fn topo(&self) -> FleetTopology {
        self.cfg.topo
    }

    /// Cuts (or heals) a shard's uplink — its rack lane at depth ≥ 2,
    /// its root lane at depth 1.
    pub fn partition_shard(&mut self, shard: u16, cut: bool) {
        match self.rack_bus.as_mut() {
            Some(bus) => bus.partition(NodeId(shard), cut),
            None => self.fleet_bus.partition(NodeId(shard), cut),
        }
    }

    /// Runs each shard's admission door for the coming slice and returns
    /// the build specs (admitted concurrency, slice-salted seeds).
    pub fn specs(&mut self, slice: u32, duration: Nanos) -> Vec<ShardSpec> {
        let seed = slice_seed(self.cfg.seed, slice);
        self.slices += 1;
        self.sim_nanos += duration.as_nanos() as u128;
        self.plans
            .iter()
            .map(|plan| {
                let s = plan.shard as usize;
                let adm_seed =
                    seed ^ 0xAD3A_0000 ^ (plan.shard as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
                let adm = simulate_admission(plan.load, self.caps[s], duration, adm_seed);
                let t = &mut self.totals[s];
                t.offered += adm.offered;
                t.admitted += adm.admitted;
                t.rejected += adm.rejected;
                let clients = (adm.mean_active.round() as u32).min(self.caps[s]).max(1);
                ShardSpec {
                    shard: plan.shard,
                    seed,
                    ncpus: plan.ncpus,
                    clients,
                    duration,
                }
            })
            .collect()
    }

    /// Folds one slice's shard reports into the fleet accumulators and —
    /// on the coordinated arm — runs one coordination round over the
    /// resulting pressures.
    pub fn absorb(&mut self, reports: &[RunReport]) -> RoundStats {
        assert_eq!(reports.len(), self.plans.len(), "one report per shard");
        let mut pressures = vec![0.0f64; reports.len()];
        for (s, r) in reports.iter().enumerate() {
            let t = &mut self.totals[s];
            t.events += r.events_by_island.x86 + r.events_by_island.ixp + r.events_by_island.accel;
            t.completed += r.rubis.completed;
            let overall = r.rubis.responses.overall();
            t.resp_weight += overall.mean() * overall.count() as f64;
            t.resp_count += overall.count();
            self.islands.accumulate(&r.events_by_island);
            pressures[s] = overall.mean();
        }
        if self.cfg.coordinated {
            self.coordinate(&pressures)
        } else {
            RoundStats::default()
        }
    }

    /// One coordination round: stamp → bus → ordered fold → rebalance,
    /// at each level of the tree.
    fn coordinate(&mut self, pressures: &[f64]) -> RoundStats {
        let topo = self.cfg.topo;
        let window = self.cfg.window;
        let round = self.round;
        self.round += 1;
        let mut stats = RoundStats::default();

        // Every shard stamps its pressure report.
        let stamps: Vec<u64> = self
            .shard_clocks
            .iter_mut()
            .map(LamportClock::tick)
            .collect();

        // ---- Level 0: node-group pre-balance (depth 3) --------------
        let mut units: Vec<Report> = Vec::new();
        if topo.depth == 3 {
            for rep in (0..topo.shards).step_by(2) {
                let members = self.members(PAIRS, rep);
                let member_units: Vec<(u32, f64)> = members
                    .clone()
                    .map(|m| (self.caps[m], pressures[m]))
                    .collect();
                let deltas = self.rebalance(&member_units);
                let batch: Vec<ChildReport> = members
                    .clone()
                    .zip(deltas)
                    .filter(|&(_, d)| d != 0)
                    .map(|(m, d)| ChildReport {
                        lamport: stamps[m],
                        source: m as u16,
                        origin: ZoneId(topo.rack_of(m as u16)),
                        msg: tune(m, d as i32),
                    })
                    .collect();
                self.commit(0, batch, &mut stats);
                // Residual: group pressure weighted by the rebalanced caps,
                // under the rep's clock, which observes its partner first.
                let pressure = weighted_mean(
                    &members
                        .clone()
                        .map(|m| (self.caps[m], pressures[m]))
                        .collect::<Vec<_>>(),
                );
                let newest = members.map(|m| stamps[m]).max().unwrap_or(0);
                let lamport = self.shard_clocks[rep as usize].observe(newest);
                units.push(Report {
                    unit: rep,
                    lamport,
                    source: rep,
                    pressure,
                });
            }
        } else {
            for s in 0..topo.shards {
                let (lamport, pressure) = (stamps[s as usize], pressures[s as usize]);
                units.push(Report {
                    unit: s,
                    lamport,
                    source: s,
                    pressure,
                });
            }
        }

        // ---- Level 1: each rack over its intra-rack lanes (depth ≥ 2) --
        let racks = topo.racks();
        let rack_deliveries = self
            .rack_bus
            .as_mut()
            .map(|bus| exchange(bus, round, window, &units, &mut stats));
        if let Some(deliveries) = rack_deliveries {
            units.clear();
            for r in 0..racks {
                let heard = deliveries.iter().filter(|d| topo.rack_of(d.node.0) == r);
                if let Some(pressure) = self.stage(r, heard.map(|d| &d.envelope), &mut stats) {
                    let lamport = self.zone_clocks[r as usize].tick();
                    let source = topo.shards + r;
                    units.push(Report {
                        unit: r,
                        lamport,
                        source,
                        pressure,
                    });
                }
            }
        }

        // ---- Level 2: fleet root over the cross-node bus -------------
        let deliveries = exchange(&mut self.fleet_bus, round, window, &units, &mut stats);
        self.stage(racks, deliveries.iter().map(|d| &d.envelope), &mut stats);
        // Feedback: the root's decision closes the causal loop — every
        // shard clock observes the root's time before its next report.
        let root_now = self.zone_clocks[racks as usize].now();
        for c in &mut self.shard_clocks {
            c.observe(root_now);
        }
        stats
    }

    /// One aggregation point: rack `zone`, or the fleet root when `zone`
    /// is the rack count. Keeps each unit's latest report in the
    /// `(lamport, source)` order of [`Envelope::key`] — so arrival order,
    /// duplicates and late copies of earlier reports change nothing —
    /// observes the newest stamp on the zone's clock, rebalances the
    /// units, splits each unit's move over its member shards and hands
    /// the moves to the hierarchy. Returns the units' cap-weighted
    /// pressure (caps as they were before the moves), or `None` when
    /// nothing arrived, in which case the zone does nothing at all.
    fn stage<'a>(
        &mut self,
        zone: u16,
        envelopes: impl IntoIterator<Item = &'a Envelope>,
        stats: &mut RoundStats,
    ) -> Option<f64> {
        let topo = self.cfg.topo;
        let root = zone == topo.racks();
        let mut latest: Vec<(&Envelope, u16, f64)> = Vec::new();
        for e in envelopes {
            let Some((unit, pressure)) = reading(e) else {
                continue;
            };
            match latest.iter_mut().find(|l| l.1 == unit) {
                Some(l) if l.0.key() < e.key() => *l = (e, unit, pressure),
                Some(_) => {}
                None => latest.push((e, unit, pressure)),
            }
        }
        latest.sort_by_key(|l| l.0.key());
        let newest = latest.last()?.0.lamport;
        self.zone_clocks[zone as usize].observe(newest);
        let span = match (root, topo.depth) {
            (false, 3) => PAIRS,
            (true, 2..) => Span {
                stride: topo.rack_size,
                width: topo.rack_size,
            },
            _ => SHARDS,
        };
        let members: Vec<_> = latest
            .iter()
            .map(|&(_, unit, _)| self.members(span, unit))
            .collect();
        let units: Vec<(u32, f64)> = latest
            .iter()
            .zip(&members)
            .map(|(&(_, _, p), m)| (self.caps[m.clone()].iter().sum(), p))
            .collect();
        let deltas = self.rebalance(&units);
        let node = topo.shards + zone;
        let mut batch: Vec<ChildReport> = Vec::new();
        for (m, &d) in members.iter().zip(&deltas) {
            if d == 0 {
                continue;
            }
            for (shard, md) in m.clone().zip(distribute(d, &self.caps[m.clone()])) {
                // A rack hands over every member of a split node group,
                // zero moves included; the root drops zero moves.
                if root && md == 0 {
                    continue;
                }
                batch.push(ChildReport {
                    lamport: self.zone_clocks[zone as usize].tick(),
                    source: node,
                    origin: ZoneId(zone),
                    msg: tune(shard, md as i32),
                });
            }
        }
        self.commit(if root { 2 } else { 1 }, batch, stats);
        Some(weighted_mean(&units))
    }

    /// The shards unit `unit` of `span` stands for.
    fn members(&self, span: Span, unit: u16) -> Range<usize> {
        let first = unit * span.stride;
        first as usize..(first + span.width).min(self.cfg.topo.shards) as usize
    }

    /// [`rebalance`] under the fleet's gain and cap bounds.
    fn rebalance(&self, units: &[(u32, f64)]) -> Vec<i64> {
        rebalance(units, self.cfg.gain, self.cfg.min_cap, self.cfg.max_cap)
    }

    /// Counts one tree level's cap moves, resolves them through the
    /// hierarchy and applies the result to the caps (clamped — which is
    /// exactly why the fold order must be deterministic).
    fn commit(&mut self, level: usize, batch: Vec<ChildReport>, stats: &mut RoundStats) {
        stats.moves[level] += batch.len() as u32;
        self.tunes[level] += batch.len() as u64;
        for a in self.h.aggregate(self.fleet_bus.now(), batch) {
            if let Action::ApplyTune {
                local_key, delta, ..
            } = a
            {
                let s = local_key as usize;
                let next = self.caps[s] as i64 + delta as i64;
                self.caps[s] = next.clamp(self.cfg.min_cap as i64, self.cfg.max_cap as i64) as u32;
            }
        }
    }

    /// The fleet-level report over everything absorbed so far.
    pub fn report(&self) -> FleetReport {
        let secs = self.sim_nanos as f64 / 1e9;
        let per_shard: Vec<ShardSummary> = self
            .plans
            .iter()
            .zip(&self.totals)
            .map(|(plan, t)| ShardSummary {
                shard: plan.shard,
                ncpus: plan.ncpus,
                cap: self.caps[plan.shard as usize],
                offered: t.offered,
                admitted: t.admitted,
                rejected: t.rejected,
                events: t.events,
                completed: t.completed,
                throughput: if secs > 0.0 {
                    t.completed as f64 / secs
                } else {
                    0.0
                },
                mean_ms: if t.resp_count > 0 {
                    t.resp_weight / t.resp_count as f64
                } else {
                    0.0
                },
            })
            .collect();
        FleetReport {
            shards: self.cfg.topo.shards,
            depth: self.cfg.topo.depth,
            racks: self.cfg.topo.racks(),
            slices: self.slices,
            coordinated: self.cfg.coordinated,
            per_shard,
            fleet_bus: self.fleet_bus.stats(),
            rack_bus: self
                .rack_bus
                .as_ref()
                .map(CoordBus::stats)
                .unwrap_or_default(),
            tunes: self.tunes,
            root_lookups: self.h.root_lookups(),
            islands: self.islands,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use workloads::session::SessionLoad;

    fn plans(n: u16) -> Vec<ShardPlan> {
        (0..n)
            .map(|s| ShardPlan {
                shard: s,
                ncpus: [3, 2, 1][s as usize % 3],
                load: SessionLoad {
                    arrivals_per_sec: [12.0, 6.0, 8.0][s as usize % 3],
                    mean_session_secs: 8.0,
                },
            })
            .collect()
    }

    fn cfg(shards: u16, depth: u8, coordinated: bool) -> FleetConfig {
        FleetConfig {
            topo: FleetTopology::new(shards, depth, 4),
            bus: BusConfig::perfect(Nanos::from_micros(100)),
            coordinated,
            base_cap: 48,
            min_cap: 8,
            max_cap: 96,
            gain: 0.5,
            window: Nanos::from_millis(2),
            seed: 42,
        }
    }

    /// Synthetic pressures standing in for platform runs: weak shards
    /// (fewer cpus) report higher mean response.
    fn pressure_round(state: &mut FleetState) -> RoundStats {
        let p: Vec<f64> = state
            .plans
            .iter()
            .map(|pl| 400.0 * pl.load.erlangs() / (pl.ncpus as f64 * 40.0))
            .collect();
        state.coordinate(&p)
    }

    #[test]
    fn uncoordinated_caps_never_move() {
        let mut st = FleetState::new(cfg(8, 2, false), plans(8));
        let specs = st.specs(0, Nanos::from_secs(30));
        assert_eq!(specs.len(), 8);
        assert!(st.caps().iter().all(|&c| c == 48));
    }

    #[test]
    fn coordination_moves_cap_toward_capacity() {
        let mut st = FleetState::new(cfg(8, 2, true), plans(8));
        for _ in 0..4 {
            let _ = st.specs(0, Nanos::from_secs(10));
            pressure_round(&mut st);
        }
        // ncpus-3 shards are low-pressure → they gain cap; ncpus-1
        // shards shed it.
        let strong: u32 = (0..8).filter(|s| s % 3 == 0).map(|s| st.caps()[s]).sum();
        let weak: u32 = (0..8).filter(|s| s % 3 == 2).map(|s| st.caps()[s]).sum();
        assert!(
            strong > weak + 20,
            "strong shards must accumulate cap: strong={strong} weak={weak} caps={:?}",
            st.caps()
        );
        let r = st.report();
        assert!(r.tunes.iter().sum::<u64>() > 0);
        assert!(
            r.root_lookups > 0,
            "root-stage moves forward through the directory"
        );
    }

    #[test]
    fn deeper_trees_resolve_more_locally() {
        let mut flat = FleetState::new(cfg(8, 1, true), plans(8));
        let mut racked = FleetState::new(cfg(8, 2, true), plans(8));
        for _ in 0..3 {
            pressure_round(&mut flat);
            pressure_round(&mut racked);
        }
        let flat_r = flat.report();
        let racked_r = racked.report();
        assert_eq!(flat_r.tunes[1], 0, "flat fleet has no rack stage");
        assert!(racked_r.tunes[1] > 0, "racked fleet rebalances locally");
        assert!(
            racked_r.root_lookups < flat_r.root_lookups,
            "racks absorb directory pressure: {} vs {}",
            racked_r.root_lookups,
            flat_r.root_lookups
        );
    }

    #[test]
    fn rounds_replay_bit_identically() {
        let run = || {
            let mut st = FleetState::new(cfg(6, 3, true), plans(6));
            for _ in 0..3 {
                let _ = st.specs(0, Nanos::from_secs(5));
                pressure_round(&mut st);
            }
            (st.caps().to_vec(), st.report().digest())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rebalance_conserves_and_clamps() {
        let units = [(48u32, 900.0), (48, 100.0), (48, 400.0), (48, 50.0)];
        let d = rebalance(&units, 0.5, 8, 96);
        assert_eq!(d.iter().sum::<i64>(), 0, "conserved: {d:?}");
        assert!(d[0] < 0, "hottest unit sheds cap");
        assert!(d[3] > 0, "coolest unit gains cap");
        for (&(c, _), &di) in units.iter().zip(&d) {
            let next = c as i64 + di;
            assert!((8..=96).contains(&next), "clamped: {next}");
        }
        // Equal pressures are a fixed point.
        let flat = rebalance(&[(40, 100.0), (40, 100.0)], 0.5, 8, 96);
        assert_eq!(flat, vec![0, 0]);
    }

    #[test]
    fn distribute_is_exact() {
        assert_eq!(distribute(10, &[30, 10]).iter().sum::<i64>(), 10);
        assert_eq!(distribute(-7, &[10, 10, 10]).iter().sum::<i64>(), -7);
        assert_eq!(distribute(5, &[0, 0]), vec![5, 0]);
    }

    /// Four units' current reports, then copies the wire may add: a
    /// duplicate of every other report, and a late copy of an earlier
    /// round's report (lower stamp, other pressure) for every unit. The
    /// first two reports share a stamp and a pressure: their units tie in
    /// the rebalance, so which of them rounding shaves rests on the
    /// source id alone.
    fn reports(units: [(u16, u16); 4]) -> (Vec<Envelope>, Vec<Envelope>) {
        let report = |i: usize, lamport: u64, pressure: f64| {
            let (unit, source) = units[i];
            let msg = tune(unit as usize, quantize(pressure));
            Envelope {
                lamport,
                source: NodeId(source),
                msg,
            }
        };
        let current: Vec<Envelope> = [100.0, 100.0, 240.0, 180.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| report(i, 10 + i.max(1) as u64, p))
            .collect();
        let mut copies = current.clone();
        copies.extend(current.iter().step_by(2).cloned());
        copies.extend((0..4).map(|i| report(i, 1 + i as u64, 500.0 - 100.0 * i as f64)));
        (current, copies)
    }

    #[test]
    fn stage_outcome_is_independent_of_arrival_order_duplicates_and_late_copies() {
        // (depth, rack size, zone, (unit, source) per report): a depth-2
        // rack over its shards, a depth-3 rack over node-group pairs, and
        // the depth-2 root over four racks' residuals.
        let cases = [
            (2, 4, 0, [(0, 0), (1, 1), (2, 2), (3, 3)]),
            (3, 8, 0, [(0, 0), (2, 2), (4, 4), (6, 6)]),
            (2, 2, 4, [(0, 8), (1, 9), (2, 10), (3, 11)]),
        ];
        let mut rng = SimRng::new(7);
        for (depth, rack, zone, units) in cases {
            let run = |envelopes: &[Envelope]| {
                let mut c = cfg(8, depth, true);
                c.topo = FleetTopology::new(8, depth, rack);
                let mut st = FleetState::new(c, plans(8));
                // Uneven caps, so splits over members leave remainders.
                st.caps = vec![10, 10, 12, 8, 9, 11, 13, 15];
                let mut stats = RoundStats::default();
                let residual = st.stage(zone, envelopes, &mut stats);
                (st.caps().to_vec(), st.zone_clocks.clone(), residual, stats)
            };
            let (current, mut copies) = reports(units);
            let expect = run(&current);
            assert!(
                expect.3.moves.iter().sum::<u32>() > 0,
                "depth {depth} zone {zone} moves cap"
            );
            for _ in 0..100 {
                for i in (1..copies.len()).rev() {
                    copies.swap(i, rng.below(i as u64 + 1) as usize);
                }
                assert_eq!(
                    run(&copies),
                    expect,
                    "depth {depth} zone {zone}: {copies:?}"
                );
            }
        }
    }

    #[test]
    fn partitioned_shard_is_left_out_of_rebalancing() {
        let mut cut = FleetState::new(cfg(8, 2, true), plans(8));
        let mut healthy = FleetState::new(cfg(8, 2, true), plans(8));
        cut.partition_shard(5, true);
        for _ in 0..3 {
            pressure_round(&mut cut);
            pressure_round(&mut healthy);
        }
        assert!(cut.report().rack_bus.partition_drops > 0);
        // The cut shard's cap can only have been moved by the root's
        // rack-level distribution, not by its own (unheard) reports; the
        // healthy run must have moved it more.
        assert_ne!(cut.caps(), healthy.caps());
    }
}
