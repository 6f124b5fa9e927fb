//! Deterministic fault injection for the coordination channel.
//!
//! The paper attributes occasional *mis*-coordination to channel latency
//! (§3.3); real interconnects add loss, jitter, duplication, and
//! reordering on top. A [`FaultProfile`] describes those imperfections
//! per channel; the [`Mailbox`](crate::Mailbox) applies them to each send
//! using a caller-supplied [`SimRng`], so a faulty run replays
//! byte-identically from its seed. Experiments R1/R2 sweep the profile.

use simcore::{Nanos, SimRng};

/// Latency jitter added on top of the mailbox's base latency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Jitter {
    /// No jitter: every copy takes exactly the base latency.
    #[default]
    None,
    /// Uniform extra delay in `[0, max]`.
    Uniform {
        /// Upper bound of the extra delay.
        max: Nanos,
    },
    /// Exponentially distributed extra delay with the given mean.
    Exponential {
        /// Mean of the extra delay.
        mean: Nanos,
    },
}

impl Jitter {
    fn sample(&self, rng: &mut SimRng) -> Nanos {
        match *self {
            Jitter::None => Nanos::ZERO,
            Jitter::Uniform { max } => Nanos(rng.range(0, max.as_nanos())),
            Jitter::Exponential { mean } => rng.exp_nanos(mean),
        }
    }
}

/// Per-message fault model for a [`Mailbox`](crate::Mailbox).
///
/// `FaultProfile::none()` (the default) injects nothing and draws nothing
/// from the RNG, so a fault-free mailbox behaves — draw for draw —
/// exactly like one built without a profile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability that a sent message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a delivered message is duplicated (one extra copy).
    pub dup_prob: f64,
    /// Extra delivery delay distribution.
    pub jitter: Jitter,
    /// When non-zero, each arrival additionally slips by a uniform draw in
    /// `[0, reorder_window]` and the mailbox's FIFO clamp is disabled, so
    /// later sends may overtake earlier ones — the only supported opt-out
    /// from the order-preserving contract.
    pub reorder_window: Nanos,
}

impl FaultProfile {
    /// The perfect channel: no loss, no jitter, no duplication, FIFO.
    pub fn none() -> Self {
        FaultProfile::default()
    }

    /// `true` when the profile injects nothing.
    pub fn is_none(&self) -> bool {
        *self == FaultProfile::none()
    }

    /// Sets the per-message drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the latency jitter distribution.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Enables reordering within the given window (disables the FIFO
    /// clamp).
    pub fn with_reorder(mut self, window: Nanos) -> Self {
        self.reorder_window = window;
        self
    }
}

/// The mailbox-side fault state: a profile plus its private RNG stream
/// and injection counters.
#[derive(Debug, Clone)]
pub(crate) struct FaultLayer {
    pub profile: FaultProfile,
    pub rng: SimRng,
    pub dropped: u64,
    pub duplicated: u64,
}

impl FaultLayer {
    pub fn new(profile: FaultProfile, rng: SimRng) -> Self {
        FaultLayer {
            profile,
            rng,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Rolls the per-send faults. Returns `None` when the message is
    /// dropped; otherwise `(extra_delay, duplicate_extra_delay)` where the
    /// second field is `Some` when a duplicate copy must be scheduled.
    pub fn roll(&mut self) -> Option<(Nanos, Option<Nanos>)> {
        let p = self.profile;
        if p.drop_prob > 0.0 && self.rng.chance(p.drop_prob) {
            self.dropped += 1;
            return None;
        }
        let mut extra = p.jitter.sample(&mut self.rng);
        if p.reorder_window > Nanos::ZERO {
            extra += Nanos(self.rng.range(0, p.reorder_window.as_nanos()));
        }
        let dup = if p.dup_prob > 0.0 && self.rng.chance(p.dup_prob) {
            self.duplicated += 1;
            let mut d = extra;
            if p.reorder_window > Nanos::ZERO {
                d = p.jitter.sample(&mut self.rng)
                    + Nanos(self.rng.range(0, p.reorder_window.as_nanos()));
            }
            Some(d)
        } else {
            None
        };
        Some((extra, dup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_is_none() {
        assert!(FaultProfile::none().is_none());
        assert!(!FaultProfile::none().with_drop(0.1).is_none());
        assert!(!FaultProfile::none()
            .with_jitter(Jitter::Uniform { max: Nanos(5) })
            .is_none());
    }

    #[test]
    fn drop_probability_is_clamped() {
        assert_eq!(FaultProfile::none().with_drop(7.0).drop_prob, 1.0);
        assert_eq!(FaultProfile::none().with_dup(-1.0).dup_prob, 0.0);
    }

    #[test]
    fn certain_drop_always_drops() {
        let mut layer = FaultLayer::new(FaultProfile::none().with_drop(1.0), SimRng::new(1));
        for _ in 0..100 {
            assert!(layer.roll().is_none());
        }
        assert_eq!(layer.dropped, 100);
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let max = Nanos::from_micros(50);
        let mut layer = FaultLayer::new(
            FaultProfile::none().with_jitter(Jitter::Uniform { max }),
            SimRng::new(2),
        );
        for _ in 0..1000 {
            let (extra, dup) = layer.roll().expect("no drops configured");
            assert!(extra <= max, "{extra}");
            assert!(dup.is_none());
        }
    }

    #[test]
    fn rolls_replay_from_the_seed() {
        let profile = FaultProfile::none()
            .with_drop(0.3)
            .with_dup(0.2)
            .with_jitter(Jitter::Exponential {
                mean: Nanos::from_micros(20),
            })
            .with_reorder(Nanos::from_micros(100));
        let mut a = FaultLayer::new(profile, SimRng::new(42));
        let mut b = FaultLayer::new(profile, SimRng::new(42));
        for _ in 0..1000 {
            assert_eq!(a.roll(), b.roll());
        }
        assert_eq!((a.dropped, a.duplicated), (b.dropped, b.duplicated));
        assert!(a.dropped > 0 && a.duplicated > 0, "faults actually fired");
    }
}
