//! Coordination message vocabulary.

use crate::energy::KnobAxis;
use crate::{EntityId, IslandId, IslandKind};

/// Messages exchanged between islands over the coordination channel.
///
/// The registration messages implement §2.3's initialisation flow (islands
/// register with the global controller; deployed entities register their
/// island-local identities); `Tune` and `Trigger` are the two runtime
/// mechanisms of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordMsg {
    /// An island announces itself to the global controller.
    RegisterIsland {
        /// The island registering.
        island: IslandId,
        /// What it manages.
        kind: IslandKind,
    },
    /// An entity's island-local identity is announced.
    RegisterEntity {
        /// Platform-global entity.
        entity: EntityId,
        /// Island on which the binding holds.
        island: IslandId,
        /// Island-local key (domain id, flow id, …).
        local_key: u64,
    },
    /// Fine-grained resource adjustment request (± numeric value).
    Tune {
        /// Target entity.
        entity: EntityId,
        /// Signed adjustment, interpreted by the receiving island.
        delta: i32,
        /// Island that should act; `None` addresses every island the
        /// entity is bound on.
        target: Option<IslandId>,
    },
    /// Immediate resource-allocation request with preemptive semantics.
    Trigger {
        /// Target entity.
        entity: EntityId,
        /// Island that should act; `None` addresses every island the
        /// entity is bound on.
        target: Option<IslandId>,
    },
    /// Acknowledgement of an applied message (sequence-numbered).
    Ack {
        /// Sequence number being acknowledged.
        seq: u32,
    },
    /// Energy-knob setting: moves one axis of the x86 island's energy
    /// lattice (DVFS rung, cache ways, bandwidth share) to an absolute
    /// rung. Issued by the platform's
    /// [`EnergyController`](crate::energy::EnergyController), riding the
    /// same channel and registry as Tune/Trigger; the receiving island
    /// translates the rung into its own operating point.
    SetKnob {
        /// Target entity (for DVFS the entity's whole island acts).
        entity: EntityId,
        /// The lattice axis to move.
        axis: KnobAxis,
        /// Absolute rung index (0 = full performance).
        rung: u8,
        /// Island that should act; `None` addresses every island the
        /// entity is bound on.
        target: Option<IslandId>,
    },
}

impl CoordMsg {
    /// `true` for the time-critical Trigger mechanism.
    pub fn is_urgent(&self) -> bool {
        matches!(self, CoordMsg::Trigger { .. })
    }

    /// The entity this message targets, if any.
    pub fn entity(&self) -> Option<EntityId> {
        match self {
            CoordMsg::RegisterEntity { entity, .. }
            | CoordMsg::Tune { entity, .. }
            | CoordMsg::Trigger { entity, .. }
            | CoordMsg::SetKnob { entity, .. } => Some(*entity),
            CoordMsg::RegisterIsland { .. } | CoordMsg::Ack { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urgency() {
        assert!(CoordMsg::Trigger { entity: EntityId(1), target: None }.is_urgent());
        assert!(!CoordMsg::Tune { entity: EntityId(1), delta: 1, target: None }.is_urgent());
    }

    #[test]
    fn knob_settings_are_not_urgent_and_carry_their_entity() {
        let m = CoordMsg::SetKnob {
            entity: EntityId(2),
            axis: KnobAxis::Dvfs,
            rung: 3,
            target: None,
        };
        assert!(!m.is_urgent(), "knob moves are deliberate, not preemptive");
        assert_eq!(m.entity(), Some(EntityId(2)));
    }

    #[test]
    fn entity_extraction() {
        assert_eq!(
            CoordMsg::Tune { entity: EntityId(3), delta: -1, target: Some(IslandId(0)) }.entity(),
            Some(EntityId(3))
        );
        assert_eq!(CoordMsg::Ack { seq: 1 }.entity(), None);
        assert_eq!(
            CoordMsg::RegisterIsland { island: IslandId(0), kind: IslandKind::Storage }.entity(),
            None
        );
    }
}
