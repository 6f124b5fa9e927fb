//! Distributed coordination across many islands (the paper's §5 ongoing
//! work: "evaluations of the scalability of such mechanisms to large-scale
//! multicore platforms, part of which involve the use of distributed
//! coordination algorithms across multiple island resource managers").
//!
//! A single global controller serializes every Tune/Trigger through one
//! point. [`HierarchicalController`] shards the registry instead: each
//! *zone* controller owns a subset of islands and resolves messages for
//! entities bound in its zone locally; only messages whose target lives in
//! another zone are forwarded through the root directory, which maps
//! entities to zones. Locality in the workload then translates directly
//! into load taken off the root — the scalability experiment S1 measures
//! exactly that.

use crate::{Action, Controller, CoordMsg, EntityId, IslandId};
use simcore::Nanos;
use std::collections::BTreeMap;

/// A zone identifier (one per zone controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u16);

/// Where a message was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Handled entirely within the origin zone.
    Local,
    /// Forwarded through the root directory to another zone.
    Forwarded {
        /// Zone that ultimately resolved the message.
        to: ZoneId,
    },
    /// No zone knows the entity (or the message was a registration).
    None,
}

/// A child decision waiting to be folded into the fabric: a coordination
/// message plus the `(lamport, source)` stamp its cross-node envelope
/// carried and the zone it originated in.
///
/// Fleet aggregation delivers these in *arrival* order, which under
/// cross-node latency skew, loss, and retransmission is not a
/// deterministic order. [`HierarchicalController::aggregate`] restores
/// the `(lamport, source)` total order before folding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildReport {
    /// Lamport timestamp from the envelope.
    pub lamport: u64,
    /// Source node from the envelope (tie-breaker for equal timestamps).
    pub source: u16,
    /// Zone the report originated in.
    pub origin: ZoneId,
    /// The decision itself.
    pub msg: CoordMsg,
}

/// Per-controller load counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneLoad {
    /// Messages this zone resolved for its own islands.
    pub local: u64,
    /// Messages this zone resolved on behalf of another zone.
    pub remote_in: u64,
    /// Messages this zone originated that had to be forwarded.
    pub forwarded_out: u64,
}

/// A two-level coordination fabric: zone controllers plus a root entity
/// directory.
///
/// # Example
///
/// ```
/// use coord::hierarchy::{HierarchicalController, ZoneId};
/// use coord::{CoordMsg, EntityId, IslandId, IslandKind};
/// use simcore::Nanos;
///
/// let mut h = HierarchicalController::new(2);
/// h.register_island(ZoneId(0), IslandId(0), IslandKind::GeneralPurpose);
/// h.register_entity(ZoneId(0), EntityId(1), IslandId(0), 1);
/// // A tune originating in zone 1 for an entity owned by zone 0 is
/// // forwarded through the root.
/// let (actions, res) = h.handle(
///     Nanos::ZERO,
///     ZoneId(1),
///     CoordMsg::Tune { entity: EntityId(1), delta: 64, target: None },
/// );
/// assert_eq!(actions.len(), 1);
/// assert_eq!(res, coord::hierarchy::Resolution::Forwarded { to: ZoneId(0) });
/// ```
#[derive(Debug)]
pub struct HierarchicalController {
    zones: Vec<Controller>,
    loads: Vec<ZoneLoad>,
    /// Root directory: entity → owning zone.
    directory: BTreeMap<EntityId, ZoneId>,
    /// Root directory: island → owning zone.
    island_zone: BTreeMap<IslandId, ZoneId>,
    root_lookups: u64,
}

impl HierarchicalController {
    /// Creates a fabric with `zones` empty zone controllers.
    ///
    /// # Panics
    /// Panics if `zones == 0`.
    pub fn new(zones: u16) -> Self {
        assert!(zones > 0, "need at least one zone");
        HierarchicalController {
            zones: (0..zones).map(|_| Controller::new()).collect(),
            loads: vec![ZoneLoad::default(); zones as usize],
            directory: BTreeMap::new(),
            island_zone: BTreeMap::new(),
            root_lookups: 0,
        }
    }

    /// Registers an island under a zone.
    pub fn register_island(&mut self, zone: ZoneId, island: IslandId, kind: crate::IslandKind) {
        self.island_zone.insert(island, zone);
        self.zones[zone.0 as usize].handle(Nanos::ZERO, CoordMsg::RegisterIsland { island, kind });
    }

    /// Registers an entity binding; the entity is owned by the island's
    /// zone and advertised in the root directory.
    pub fn register_entity(
        &mut self,
        zone: ZoneId,
        entity: EntityId,
        island: IslandId,
        local_key: u64,
    ) {
        self.directory.insert(entity, zone);
        self.zones[zone.0 as usize].handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity {
                entity,
                island,
                local_key,
            },
        );
    }

    /// Handles a runtime coordination message originating in `origin`.
    /// Returns the resolved actions and where resolution happened.
    pub fn handle(
        &mut self,
        now: Nanos,
        origin: ZoneId,
        msg: CoordMsg,
    ) -> (Vec<Action>, Resolution) {
        let Some(entity) = msg.entity() else {
            // Island registrations go through the typed API.
            return (Vec::new(), Resolution::None);
        };
        let owner = match self.directory.get(&entity) {
            Some(z) => *z,
            None => {
                // Unknown everywhere: charge the origin's rejection count.
                self.zones[origin.0 as usize].handle(now, msg);
                return (Vec::new(), Resolution::None);
            }
        };
        if owner == origin {
            self.loads[origin.0 as usize].local += 1;
            let actions = self.zones[origin.0 as usize].handle(now, msg);
            (actions, Resolution::Local)
        } else {
            // Root directory lookup + forward to the owning zone.
            self.root_lookups += 1;
            self.loads[origin.0 as usize].forwarded_out += 1;
            self.loads[owner.0 as usize].remote_in += 1;
            let actions = self.zones[owner.0 as usize].handle(now, msg);
            (actions, Resolution::Forwarded { to: owner })
        }
    }

    /// Folds a batch of child reports into the fabric in `(lamport,
    /// source)` order, returning the resolved actions in that order.
    ///
    /// This is the ordered counterpart of calling [`Self::handle`] per
    /// report as it arrives: bus lanes deliver reports in arrival order,
    /// which varies with latency skew and retransmission, and a fold
    /// whose effects are order-dependent (e.g. clamped weight arithmetic)
    /// would diverge across runs. Sorting by the envelope stamp first
    /// makes the aggregate a pure function of the *set* of reports —
    /// permuted arrival yields an identical aggregate.
    pub fn aggregate(&mut self, now: Nanos, mut batch: Vec<ChildReport>) -> Vec<Action> {
        batch.sort_by_key(|r| (r.lamport, r.source));
        let mut actions = Vec::new();
        for r in batch {
            let (mut a, _) = self.handle(now, r.origin, r.msg);
            actions.append(&mut a);
        }
        actions
    }

    /// Load counters for a zone.
    pub fn load(&self, zone: ZoneId) -> ZoneLoad {
        self.loads[zone.0 as usize]
    }

    /// Root-directory lookups performed (the centralization pressure).
    pub fn root_lookups(&self) -> u64 {
        self.root_lookups
    }

    /// Number of zones.
    pub fn zones(&self) -> usize {
        self.zones.len()
    }

    /// Read access to a zone controller (diagnostics).
    pub fn zone(&self, zone: ZoneId) -> &Controller {
        &self.zones[zone.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IslandKind;

    fn fabric() -> HierarchicalController {
        let mut h = HierarchicalController::new(4);
        for z in 0..4u16 {
            let island = IslandId(z);
            h.register_island(ZoneId(z), island, IslandKind::GeneralPurpose);
            // Entities 10z..10z+9 live in zone z.
            for e in 0..10u32 {
                h.register_entity(ZoneId(z), EntityId(z as u32 * 10 + e), island, e as u64);
            }
        }
        h
    }

    #[test]
    fn local_messages_stay_local() {
        let mut h = fabric();
        let (actions, res) = h.handle(
            Nanos::ZERO,
            ZoneId(2),
            CoordMsg::Tune {
                entity: EntityId(25),
                delta: 64,
                target: None,
            },
        );
        assert_eq!(actions.len(), 1);
        assert_eq!(res, Resolution::Local);
        assert_eq!(h.load(ZoneId(2)).local, 1);
        assert_eq!(h.root_lookups(), 0);
    }

    #[test]
    fn cross_zone_messages_forward_through_root() {
        let mut h = fabric();
        let (actions, res) = h.handle(
            Nanos::ZERO,
            ZoneId(0),
            CoordMsg::Trigger {
                entity: EntityId(31),
                target: None,
            },
        );
        assert_eq!(actions.len(), 1);
        assert_eq!(res, Resolution::Forwarded { to: ZoneId(3) });
        assert_eq!(h.load(ZoneId(0)).forwarded_out, 1);
        assert_eq!(h.load(ZoneId(3)).remote_in, 1);
        assert_eq!(h.root_lookups(), 1);
    }

    #[test]
    fn unknown_entities_rejected_at_origin() {
        let mut h = fabric();
        let (actions, res) = h.handle(
            Nanos::ZERO,
            ZoneId(1),
            CoordMsg::Tune {
                entity: EntityId(999),
                delta: 1,
                target: None,
            },
        );
        assert!(actions.is_empty());
        assert_eq!(res, Resolution::None);
        assert_eq!(h.zone(ZoneId(1)).stats().rejected, 1);
    }

    #[test]
    fn locality_reduces_root_pressure() {
        let mut h = fabric();
        // 90% local traffic, 10% cross-zone.
        for i in 0..100u32 {
            let origin = ZoneId((i % 4) as u16);
            let entity = if i % 10 == 0 {
                EntityId(((i + 1) % 4) * 10) // someone else's entity
            } else {
                EntityId(origin.0 as u32 * 10 + (i % 10))
            };
            h.handle(
                Nanos::ZERO,
                origin,
                CoordMsg::Tune {
                    entity,
                    delta: 1,
                    target: None,
                },
            );
        }
        assert_eq!(h.root_lookups(), 10);
        let total_local: u64 = (0..4).map(|z| h.load(ZoneId(z)).local).sum();
        assert_eq!(total_local, 90);
    }

    /// Issue-4 coverage: a fabric mixing the three *real* island kinds the
    /// platform now ships (x86 credit scheduler, IXP network processor,
    /// batching accelerator), not a homogeneous synthetic one.
    fn mixed_kind_fabric() -> HierarchicalController {
        let mut h = HierarchicalController::new(2);
        for z in 0..2u16 {
            let base = z * 10;
            h.register_island(ZoneId(z), IslandId(base), IslandKind::GeneralPurpose);
            h.register_island(ZoneId(z), IslandId(base + 1), IslandKind::NetworkProcessor);
            h.register_island(ZoneId(z), IslandId(base + 2), IslandKind::Accelerator);
            // Entity z00+e: a VM bound on the zone's x86 island; tenants
            // z00+100+e are bound on the zone's accelerator.
            for e in 0..4u32 {
                let vm = EntityId(z as u32 * 100 + e);
                h.register_entity(ZoneId(z), vm, IslandId(base), e as u64);
                let tenant = EntityId(z as u32 * 100 + 50 + e);
                h.register_entity(ZoneId(z), tenant, IslandId(base + 2), e as u64);
            }
        }
        h
    }

    #[test]
    fn zone_local_accel_to_xsched_tune_needs_no_root() {
        let mut h = mixed_kind_fabric();
        // The accelerator island in zone 0 observes congestion and tunes a
        // VM living on zone 0's x86 island: resolved zone-locally.
        let (actions, res) = h.handle(
            Nanos::ZERO,
            ZoneId(0),
            CoordMsg::Tune {
                entity: EntityId(2),
                delta: -32,
                target: None,
            },
        );
        assert_eq!(res, Resolution::Local);
        assert_eq!(h.root_lookups(), 0, "no root directory involvement");
        assert_eq!(
            actions,
            vec![Action::ApplyTune {
                island: IslandId(0),
                local_key: 2,
                delta: -32
            }]
        );
        // And the reverse direction: tuning a zone-local accel tenant.
        let (actions, res) = h.handle(
            Nanos::ZERO,
            ZoneId(0),
            CoordMsg::Tune {
                entity: EntityId(51),
                delta: 6,
                target: None,
            },
        );
        assert_eq!(res, Resolution::Local);
        assert_eq!(h.root_lookups(), 0);
        assert_eq!(
            actions,
            vec![Action::ApplyTune {
                island: IslandId(2),
                local_key: 1,
                delta: 6
            }]
        );
        assert_eq!(h.load(ZoneId(0)).local, 2);
    }

    #[test]
    fn cross_zone_accel_trigger_still_forwards() {
        let mut h = mixed_kind_fabric();
        // Zone 0 triggers a tenant hosted on zone 1's accelerator.
        let (actions, res) = h.handle(
            Nanos::ZERO,
            ZoneId(0),
            CoordMsg::Trigger {
                entity: EntityId(153),
                target: None,
            },
        );
        assert_eq!(res, Resolution::Forwarded { to: ZoneId(1) });
        assert_eq!(h.root_lookups(), 1);
        assert_eq!(
            actions,
            vec![Action::ApplyTrigger {
                island: IslandId(12),
                local_key: 3
            }]
        );
        assert_eq!(h.load(ZoneId(0)).forwarded_out, 1);
        assert_eq!(h.load(ZoneId(1)).remote_in, 1);
    }

    #[test]
    fn aggregate_is_arrival_order_independent() {
        // Regression (issue 9): the fold over child reports must consume
        // children in (lamport, source) order, not arrival order. Build a
        // batch whose stamps collide on lamport (tie broken by source) and
        // fold every rotation + a few swaps; all must agree exactly.
        let batch = [
            ChildReport {
                lamport: 3,
                source: 1,
                origin: ZoneId(0),
                msg: CoordMsg::Tune {
                    entity: EntityId(5),
                    delta: 64,
                    target: None,
                },
            },
            ChildReport {
                lamport: 1,
                source: 2,
                origin: ZoneId(1),
                msg: CoordMsg::Tune {
                    entity: EntityId(12),
                    delta: -32,
                    target: None,
                },
            },
            ChildReport {
                lamport: 3,
                source: 0,
                origin: ZoneId(2),
                msg: CoordMsg::Trigger {
                    entity: EntityId(25),
                    target: None,
                },
            },
            ChildReport {
                lamport: 1,
                source: 0,
                origin: ZoneId(3),
                msg: CoordMsg::Tune {
                    entity: EntityId(7),
                    delta: 16,
                    target: None,
                },
            },
        ];
        let run = |order: &[usize]| {
            let mut h = fabric();
            let permuted: Vec<ChildReport> = order.iter().map(|&i| batch[i].clone()).collect();
            let actions = h.aggregate(Nanos::ZERO, permuted);
            let loads: Vec<ZoneLoad> = (0..4).map(|z| h.load(ZoneId(z))).collect();
            (actions, loads, h.root_lookups())
        };
        let reference = run(&[0, 1, 2, 3]);
        for order in [
            [1, 0, 3, 2],
            [3, 2, 1, 0],
            [2, 3, 0, 1],
            [1, 3, 0, 2],
            [2, 0, 3, 1],
        ] {
            assert_eq!(run(&order), reference, "arrival order {order:?} diverged");
        }
        // And the sorted fold really is the (lamport, source) order: the
        // lamport-1 pair resolves before the lamport-3 pair, sources
        // breaking the ties.
        assert_eq!(
            reference.0,
            vec![
                Action::ApplyTune {
                    island: IslandId(0),
                    local_key: 7,
                    delta: 16
                },
                Action::ApplyTune {
                    island: IslandId(1),
                    local_key: 2,
                    delta: -32
                },
                Action::ApplyTrigger {
                    island: IslandId(2),
                    local_key: 5
                },
                Action::ApplyTune {
                    island: IslandId(0),
                    local_key: 5,
                    delta: 64
                },
            ]
        );
    }
}
