//! Strategic (adversarial) tenants that game the coordination interface.
//!
//! The Tune/Trigger vocabulary assumes requesters report honest demand.
//! Legrand & Touati's analysis of non-cooperative bag-of-tasks scheduling
//! (PAPERS.md) shows what happens when they don't: self-interested
//! players reach an equilibrium well below the cooperative optimum — the
//! *price of anarchy*. This module models the three strategies such a
//! tenant plays against the global controller:
//!
//! * [`Strategy::InflateTune`] — periodically request a large one-sided
//!   weight delta, monotonically ratcheting its own share upward.
//! * [`Strategy::SpamTrigger`] — fire preemptive Triggers far above any
//!   honest alarm rate, keeping itself runqueue-boosted at everyone
//!   else's expense.
//! * [`Strategy::FreeRide`] — send nothing and simply consume: a CPU hog
//!   that relies on honest tenants' coordinated concessions.
//!
//! An [`Adversary`] is a deterministic message source: the platform gives
//! it event-loop time ([`Adversary::next_at`]) and forwards whatever
//! [`Adversary::emit`] produces through the *real* coordination channel,
//! so adversarial traffic competes with honest traffic in the mailbox and
//! is policed by `coord`'s controller defenses. Experiment A1 sweeps the
//! adversary count and measures the QoS gap the defenses recover.

use coord::{CoordMsg, EntityId, IslandId};
use simcore::Nanos;

/// A strategic tenant's behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Request `delta` (typically large and positive) every `period`.
    InflateTune {
        /// Signed weight delta to request each time.
        delta: i32,
        /// Interval between requests.
        period: Nanos,
    },
    /// Fire a Trigger every `period`.
    SpamTrigger {
        /// Interval between triggers.
        period: Nanos,
    },
    /// Send no coordination traffic at all; just consume CPU.
    FreeRide,
}

/// Build-time description of one adversarial tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarySpec {
    /// The strategy the tenant plays.
    pub strategy: Strategy,
}

impl AdversarySpec {
    /// A demand-delta inflater: +512 every 250 ms — honest-looking
    /// per-message deltas (the request-type policy uses ±512 too) but
    /// monotone, ratcheting its weight without bound unless policed.
    pub fn inflate() -> Self {
        AdversarySpec {
            strategy: Strategy::InflateTune {
                delta: 512,
                period: Nanos::from_millis(250),
            },
        }
    }

    /// A Trigger spammer: one preemptive Trigger every 50 ms (20/s,
    /// roughly 100x the honest alarm rate).
    pub fn spam() -> Self {
        AdversarySpec {
            strategy: Strategy::SpamTrigger {
                period: Nanos::from_millis(50),
            },
        }
    }

    /// A free-rider: no messages, pure consumption.
    pub fn free_ride() -> Self {
        AdversarySpec {
            strategy: Strategy::FreeRide,
        }
    }
}

/// A live adversary bound to a platform entity.
///
/// Purely deterministic: emission times are a fixed arithmetic sequence
/// from the strategy period, so adding adversaries never perturbs any
/// other RNG stream in the simulation.
#[derive(Debug, Clone)]
pub struct Adversary {
    entity: EntityId,
    target: Option<IslandId>,
    strategy: Strategy,
    next_at: Option<Nanos>,
    sent: u64,
}

impl Adversary {
    /// Binds a strategy to the entity it plays as. `start` is the
    /// simulation time of the first emission (free-riders never emit).
    pub fn new(
        entity: EntityId,
        target: Option<IslandId>,
        strategy: Strategy,
        start: Nanos,
    ) -> Self {
        let next_at = match strategy {
            Strategy::InflateTune { period, .. } | Strategy::SpamTrigger { period } => {
                Some(start + period)
            }
            Strategy::FreeRide => None,
        };
        Adversary {
            entity,
            target,
            strategy,
            next_at,
            sent: 0,
        }
    }

    /// The entity this adversary plays as.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// The strategy in play.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// When the next message should be emitted, if ever.
    pub fn next_at(&self) -> Option<Nanos> {
        self.next_at
    }

    /// Messages emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Produces the message due at `now` (the host calls this when its
    /// event loop reaches [`next_at`](Self::next_at)) and advances the
    /// emission clock by one period.
    pub fn emit(&mut self, now: Nanos) -> Option<CoordMsg> {
        let due = self.next_at?;
        debug_assert!(now >= due, "emit called before the scheduled time");
        let (msg, period) = match self.strategy {
            Strategy::InflateTune { delta, period } => (
                CoordMsg::Tune {
                    entity: self.entity,
                    delta,
                    target: self.target,
                },
                period,
            ),
            Strategy::SpamTrigger { period } => (
                CoordMsg::Trigger {
                    entity: self.entity,
                    target: self.target,
                },
                period,
            ),
            Strategy::FreeRide => return None,
        };
        self.next_at = Some(due + period);
        self.sent += 1;
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflater_emits_monotone_tunes_on_a_fixed_cadence() {
        let mut a = Adversary::new(
            EntityId(10),
            Some(IslandId(0)),
            AdversarySpec::inflate().strategy,
            Nanos::ZERO,
        );
        let t0 = a.next_at().unwrap();
        assert_eq!(t0, Nanos::from_millis(250));
        let msg = a.emit(t0).unwrap();
        assert_eq!(
            msg,
            CoordMsg::Tune {
                entity: EntityId(10),
                delta: 512,
                target: Some(IslandId(0))
            }
        );
        assert_eq!(a.next_at().unwrap(), Nanos::from_millis(500));
        assert_eq!(a.sent(), 1);
    }

    #[test]
    fn spammer_emits_triggers_20_per_second() {
        let mut a = Adversary::new(
            EntityId(11),
            None,
            AdversarySpec::spam().strategy,
            Nanos::ZERO,
        );
        let mut n = 0;
        while let Some(t) = a.next_at() {
            if t > Nanos::from_secs(1) {
                break;
            }
            assert!(matches!(a.emit(t), Some(CoordMsg::Trigger { .. })));
            n += 1;
        }
        assert_eq!(n, 20);
    }

    #[test]
    fn free_rider_never_emits() {
        let mut a = Adversary::new(
            EntityId(12),
            None,
            AdversarySpec::free_ride().strategy,
            Nanos::ZERO,
        );
        assert_eq!(a.next_at(), None);
        assert_eq!(a.emit(Nanos::from_secs(5)), None);
        assert_eq!(a.sent(), 0);
    }

    #[test]
    fn emission_schedule_is_deterministic() {
        let run = || {
            let mut a = Adversary::new(
                EntityId(1),
                None,
                AdversarySpec::spam().strategy,
                Nanos::ZERO,
            );
            let mut log = Vec::new();
            for _ in 0..10 {
                let t = a.next_at().unwrap();
                a.emit(t);
                log.push(t);
            }
            log
        };
        assert_eq!(run(), run());
    }
}
