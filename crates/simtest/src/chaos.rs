//! Seeded chaos plans: deterministic event-timing perturbation.
//!
//! A [`ChaosPlan`] is a finite, replayable schedule of timing
//! perturbations that a host simulation consults at three defined hook
//! points:
//!
//! 1. **Timer-fire delay** — before dispatching the next master-queue
//!    event, [`ChaosPlan::delay_event`] may ask the host to re-schedule it
//!    a bounded distance into the future (delayed timer fire within the
//!    lookahead bound).
//! 2. **Forced Trigger preemption** — at an accelerator batch boundary,
//!    [`ChaosPlan::force_trigger`] may ask the host to apply a Trigger to
//!    one tenant, preempting the batch the coordination stack would have
//!    let run out.
//! 3. **Coordination-message jitter** — per coordination send,
//!    [`ChaosPlan::coord_jitter`] may return extra channel latency for a
//!    burst of consecutive messages, layered on top of whatever
//!    `pcie::FaultProfile` the build already injects.
//!
//! Plans are either empty ([`ChaosPlan::none`], the default — every hook
//! is a constant-time no-op with **zero** state change, so a chaos-off
//! run is byte-identical to a build that never linked this module),
//! derived from a seed on an independent stream ([`ChaosPlan::seeded`],
//! following the platform's discipline of XOR-tagged seed-derived fault
//! streams), or generated by [`plan`] inside a property test where the
//! runner shrinks the schedule toward empty alongside the test case
//! ([`chaos_check`] / [`chaos_property!`](crate::chaos_property)).

use crate::gen::{vec_of, zip2, Gen};
use crate::runner::{check_with, Config};
use simcore::{Nanos, SimRng};
use std::fmt;

/// XOR tag for the chaos RNG stream: like the platform's fault-injection
/// mailbox streams, chaos draws from its own seed-derived stream so that
/// enabling chaos never perturbs the simulation's primary RNG sequence.
pub const CHAOS_STREAM: u64 = 0xC4A0_5EED;

/// Smallest injected timer delay.
pub const MIN_DELAY: Nanos = Nanos::from_micros(1);
/// Largest injected timer delay (the lookahead bound: well under every
/// periodic horizon the platform runs, so a delayed event can never be
/// pushed past the end of a run segment).
pub const MAX_DELAY: Nanos = Nanos::from_millis(5);
/// Smallest extra latency a jitter burst adds to a coordination send.
pub const MIN_JITTER: Nanos = Nanos::from_micros(10);
/// Largest extra latency a jitter burst adds to a coordination send.
pub const MAX_JITTER: Nanos = Nanos::from_millis(2);
/// Exclusive upper bound on the hook-occurrence index a generated
/// perturbation may target.
pub const MAX_AT: u32 = 4096;
/// Largest generated jitter-burst length.
pub const MAX_BURST: u32 = 32;

const HOOK_TIMER: usize = 0;
const HOOK_TRIGGER: usize = 1;
const HOOK_COORD: usize = 2;

/// One scheduled perturbation. The variant implies the hook it arms and
/// `at` selects the *n-th occurrence* (0-based) of that hook, which makes
/// a plan a pure function of the host's deterministic event order —
/// replaying the same seed replays the same interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Delay the `at`-th master-queue dispatch by `delay`.
    DelayEvent {
        /// Hook occurrence index (0-based dispatch count).
        at: u32,
        /// How far to push the event into the future.
        delay: Nanos,
    },
    /// Force a Trigger preemption at the `at`-th batch boundary.
    ForceTrigger {
        /// Hook occurrence index (0-based batch-boundary count).
        at: u32,
    },
    /// Starting at the `at`-th coordination send, add `extra` latency to
    /// `len` consecutive sends.
    JitterBurst {
        /// Hook occurrence index (0-based coordination-send count).
        at: u32,
        /// Extra channel latency per affected send.
        extra: Nanos,
        /// Number of consecutive sends affected (>= 1).
        len: u32,
    },
}

/// A replayable chaos schedule plus its runtime cursor state.
///
/// Equality and `Debug` cover only the schedule (the part a property
/// shrinks and a counterexample reports); runtime counters are cursor
/// state that a fresh run rebuilds.
#[derive(Clone)]
pub struct ChaosPlan {
    schedule: Vec<Perturbation>,
    /// Per-hook occurrence counters (timer, trigger, coord-send).
    counts: [u32; 3],
    /// Remaining sends in the currently-draining jitter burst.
    jitter_left: u32,
    /// Extra latency of the currently-draining jitter burst.
    jitter_extra: Nanos,
    /// Total perturbations actually injected so far.
    injected: u64,
}

impl fmt::Debug for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosPlan").field("schedule", &self.schedule).finish()
    }
}

impl PartialEq for ChaosPlan {
    fn eq(&self, other: &Self) -> bool {
        self.schedule == other.schedule
    }
}

impl Eq for ChaosPlan {}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

impl ChaosPlan {
    /// The empty plan: every hook returns "no perturbation" without
    /// touching any state.
    pub fn none() -> Self {
        ChaosPlan::from_schedule(Vec::new())
    }

    /// A plan executing exactly `schedule`.
    pub fn from_schedule(schedule: Vec<Perturbation>) -> Self {
        ChaosPlan {
            schedule,
            counts: [0; 3],
            jitter_left: 0,
            jitter_extra: Nanos::ZERO,
            injected: 0,
        }
    }

    /// A plan of `n` perturbations drawn from `seed` on the dedicated
    /// [`CHAOS_STREAM`]: two calls with the same arguments produce the
    /// same schedule on every platform.
    pub fn seeded(seed: u64, n: usize) -> Self {
        let mut rng = SimRng::new(seed ^ CHAOS_STREAM);
        let g = perturbation();
        ChaosPlan::from_schedule((0..n).map(|_| g.sample(&mut rng)).collect())
    }

    /// True when the plan has no scheduled perturbations at all.
    pub fn is_none(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The scheduled perturbations (runtime cursors excluded).
    pub fn schedule(&self) -> &[Perturbation] {
        &self.schedule
    }

    /// How many perturbations have actually fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Hook 1 (master-queue dispatch). Returns `Some(delay)` when the
    /// current dispatch should be postponed by `delay` instead of being
    /// handled. Clamped to `[MIN_DELAY, MAX_DELAY]` so a hand-built plan
    /// cannot stall the simulation.
    pub fn delay_event(&mut self) -> Option<Nanos> {
        if self.schedule.is_empty() {
            return None;
        }
        let at = self.counts[HOOK_TIMER];
        self.counts[HOOK_TIMER] = at.wrapping_add(1);
        let delay = self.schedule.iter().find_map(|p| match *p {
            Perturbation::DelayEvent { at: a, delay } if a == at => Some(delay),
            _ => None,
        })?;
        self.injected += 1;
        Some(delay.max(MIN_DELAY).min(MAX_DELAY))
    }

    /// Hook 2 (accelerator batch boundary). Returns true when the host
    /// should force a Trigger preemption now.
    pub fn force_trigger(&mut self) -> bool {
        if self.schedule.is_empty() {
            return false;
        }
        let at = self.counts[HOOK_TRIGGER];
        self.counts[HOOK_TRIGGER] = at.wrapping_add(1);
        let hit = self
            .schedule
            .iter()
            .any(|p| matches!(*p, Perturbation::ForceTrigger { at: a } if a == at));
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// Hook 3 (coordination send). Returns `Some(extra_latency)` while a
    /// jitter burst is draining; starting a burst counts its opening send.
    pub fn coord_jitter(&mut self) -> Option<Nanos> {
        if self.schedule.is_empty() && self.jitter_left == 0 {
            return None;
        }
        let at = self.counts[HOOK_COORD];
        self.counts[HOOK_COORD] = at.wrapping_add(1);
        if let Some((extra, len)) = self.schedule.iter().find_map(|p| match *p {
            Perturbation::JitterBurst { at: a, extra, len } if a == at => Some((extra, len)),
            _ => None,
        }) {
            self.jitter_extra = extra.max(MIN_JITTER).min(MAX_JITTER);
            self.jitter_left = len.max(1);
        }
        if self.jitter_left > 0 {
            self.jitter_left -= 1;
            self.injected += 1;
            Some(self.jitter_extra)
        } else {
            None
        }
    }
}

/// Shrink candidates for an integer, halving toward `lo` (the module-local
/// twin of the generator's private integer shrinker).
fn toward(lo: u64, v: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if v <= lo {
        return out;
    }
    out.push(lo);
    let mut gap = v - lo;
    while gap > 1 {
        gap /= 2;
        let cand = v - gap;
        if cand != lo && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

fn shrink_perturbation(p: &Perturbation) -> Vec<Perturbation> {
    match *p {
        Perturbation::DelayEvent { at, delay } => {
            let mut out: Vec<Perturbation> = toward(0, at as u64)
                .into_iter()
                .map(|a| Perturbation::DelayEvent { at: a as u32, delay })
                .collect();
            out.extend(
                toward(MIN_DELAY.as_nanos(), delay.as_nanos())
                    .into_iter()
                    .map(|d| Perturbation::DelayEvent { at, delay: Nanos(d) }),
            );
            out
        }
        Perturbation::ForceTrigger { at } => toward(0, at as u64)
            .into_iter()
            .map(|a| Perturbation::ForceTrigger { at: a as u32 })
            .collect(),
        Perturbation::JitterBurst { at, extra, len } => {
            let mut out: Vec<Perturbation> = toward(0, at as u64)
                .into_iter()
                .map(|a| Perturbation::JitterBurst { at: a as u32, extra, len })
                .collect();
            out.extend(
                toward(1, len as u64)
                    .into_iter()
                    .map(|l| Perturbation::JitterBurst { at, extra, len: l as u32 }),
            );
            out.extend(
                toward(MIN_JITTER.as_nanos(), extra.as_nanos())
                    .into_iter()
                    .map(|e| Perturbation::JitterBurst { at, extra: Nanos(e), len }),
            );
            out
        }
    }
}

/// Generator for a single [`Perturbation`], shrinking every field toward
/// its minimum while keeping the variant fixed.
pub fn perturbation() -> Gen<Perturbation> {
    let delay = zip2(Gen::u32_in(0, MAX_AT - 1), Gen::nanos_in(MIN_DELAY, MAX_DELAY))
        .map(|(at, delay)| Perturbation::DelayEvent { at, delay });
    let trigger = Gen::u32_in(0, MAX_AT - 1).map(|at| Perturbation::ForceTrigger { at });
    let jitter = zip2(
        Gen::u32_in(0, MAX_AT - 1),
        zip2(Gen::nanos_in(MIN_JITTER, MAX_JITTER), Gen::u32_in(1, MAX_BURST)),
    )
    .map(|(at, (extra, len))| Perturbation::JitterBurst { at, extra, len });
    Gen::one_of(vec![delay, trigger, jitter]).with_shrink(shrink_perturbation)
}

/// Generator for a whole [`ChaosPlan`] of up to `max_perturbations`
/// entries. The shrinker delegates to the underlying vector generator, so
/// a failing schedule shrinks **to empty**: minimal counterexamples
/// report the fewest perturbations that still break the property.
pub fn plan(max_perturbations: usize) -> Gen<ChaosPlan> {
    let v = vec_of(perturbation(), 0, max_perturbations);
    let shrinker = v.clone();
    v.map(ChaosPlan::from_schedule).with_shrink(move |p| {
        shrinker
            .shrinks(&p.schedule)
            .into_iter()
            .map(ChaosPlan::from_schedule)
            .collect()
    })
}

/// Checks `prop` against pairs of a generated case and a generated chaos
/// schedule of up to `max_perturbations` entries. On failure the runner
/// shrinks **both** halves — the case via `gen`'s shrinker, the schedule
/// toward the empty plan — and the reported `SIMTEST_SEED` regenerates
/// the identical (case, plan) pair.
pub fn chaos_check<T, P>(name: &str, gen: &Gen<T>, max_perturbations: usize, prop: P)
where
    T: std::fmt::Debug + Clone + 'static,
    P: FnMut(&T, &ChaosPlan) -> Result<(), String>,
{
    chaos_check_with(&Config::default(), name, gen, max_perturbations, prop)
}

/// [`chaos_check`] with an explicit runner configuration.
pub fn chaos_check_with<T, P>(
    cfg: &Config,
    name: &str,
    gen: &Gen<T>,
    max_perturbations: usize,
    mut prop: P,
) where
    T: std::fmt::Debug + Clone + 'static,
    P: FnMut(&T, &ChaosPlan) -> Result<(), String>,
{
    let paired = zip2(gen.clone(), plan(max_perturbations));
    check_with(cfg, name, &paired, |(case, chaos)| prop(case, chaos));
}

/// Sugar over [`chaos_check`]: names the property after the enclosing
/// test, binds the case and the chaos plan, and runs the body as the
/// property.
///
/// ```
/// use simtest::{chaos_property, st_assert, gen::Gen};
///
/// chaos_property!(doubling_survives_chaos, Gen::u64_in(0, 100), 4, |v, chaos| {
///     let _ = chaos; // a real test would drive a sim with this plan
///     st_assert!(v * 2 >= *v, "overflowed: {v}");
///     Ok(())
/// });
/// ```
#[macro_export]
macro_rules! chaos_property {
    ($name:ident, $gen:expr, $max:expr, |$case:ident, $chaos:ident| $body:block) => {
        $crate::chaos::chaos_check(
            stringify!($name),
            &$gen,
            $max,
            |$case: &_, $chaos: &$crate::chaos::ChaosPlan| $body,
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_a_no_op_with_zero_state_change() {
        let mut p = ChaosPlan::none();
        for _ in 0..100 {
            assert_eq!(p.delay_event(), None);
            assert!(!p.force_trigger());
            assert_eq!(p.coord_jitter(), None);
        }
        assert_eq!(p.injected(), 0);
        assert_eq!(p.counts, [0; 3], "empty plan must not advance cursors");
        assert!(p.is_none());
    }

    #[test]
    fn seeded_plans_replay_identically_and_differ_across_seeds() {
        let a = ChaosPlan::seeded(42, 16);
        let b = ChaosPlan::seeded(42, 16);
        let c = ChaosPlan::seeded(43, 16);
        assert_eq!(a, b);
        assert_ne!(a.schedule(), c.schedule());
        assert_eq!(a.schedule().len(), 16);
    }

    #[test]
    fn delay_fires_on_the_exact_occurrence_and_clamps() {
        let mut p = ChaosPlan::from_schedule(vec![
            Perturbation::DelayEvent { at: 2, delay: Nanos::from_secs(10) },
            Perturbation::DelayEvent { at: 0, delay: Nanos::ZERO },
        ]);
        assert_eq!(p.delay_event(), Some(MIN_DELAY), "at=0 clamps up");
        assert_eq!(p.delay_event(), None);
        assert_eq!(p.delay_event(), Some(MAX_DELAY), "at=2 clamps down");
        assert_eq!(p.delay_event(), None);
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn trigger_fires_once_per_armed_occurrence() {
        let mut p = ChaosPlan::from_schedule(vec![Perturbation::ForceTrigger { at: 1 }]);
        assert!(!p.force_trigger());
        assert!(p.force_trigger());
        assert!(!p.force_trigger());
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn jitter_burst_covers_len_consecutive_sends() {
        let extra = Nanos::from_micros(100);
        let mut p =
            ChaosPlan::from_schedule(vec![Perturbation::JitterBurst { at: 1, extra, len: 3 }]);
        assert_eq!(p.coord_jitter(), None);
        assert_eq!(p.coord_jitter(), Some(extra));
        assert_eq!(p.coord_jitter(), Some(extra));
        assert_eq!(p.coord_jitter(), Some(extra));
        assert_eq!(p.coord_jitter(), None);
        assert_eq!(p.injected(), 3);
    }

    #[test]
    fn plan_generator_shrinks_to_empty() {
        let g = plan(6);
        let mut rng = SimRng::new(7);
        // Find a non-empty sample, then walk first-candidate shrinks; the
        // very first candidate chain must reach the empty schedule.
        let mut v = loop {
            let s = g.sample(&mut rng);
            if !s.is_none() {
                break s;
            }
        };
        let mut guard = 0;
        while !v.is_none() {
            let cands = g.shrinks(&v);
            assert!(!cands.is_empty(), "non-empty plan must offer shrinks");
            v = cands.into_iter().next().unwrap();
            guard += 1;
            assert!(guard < 64, "shrink chain did not converge");
        }
        assert!(g.shrinks(&ChaosPlan::none()).is_empty());
    }

    #[test]
    fn perturbation_shrinks_keep_variant_and_head_toward_minimum() {
        let p = Perturbation::JitterBurst {
            at: 100,
            extra: Nanos::from_millis(1),
            len: 8,
        };
        let cands = shrink_perturbation(&p);
        assert!(!cands.is_empty());
        assert!(cands
            .iter()
            .all(|c| matches!(c, Perturbation::JitterBurst { .. })));
        assert!(cands.contains(&Perturbation::JitterBurst {
            at: 0,
            extra: Nanos::from_millis(1),
            len: 8
        }));
        assert!(shrink_perturbation(&Perturbation::ForceTrigger { at: 0 }).is_empty());
    }

    #[test]
    fn chaos_check_shrinks_schedule_alongside_case() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos_check_with(
                &Config::with_cases(64),
                "chaos_shrink_demo",
                &Gen::u64_in(0, 1000),
                5,
                |&v, chaos| {
                    if v >= 10 && !chaos.is_none() {
                        return Err(format!(
                            "v={v} with {} perturbations",
                            chaos.schedule().len()
                        ));
                    }
                    Ok(())
                },
            );
        }));
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("SIMTEST_SEED="), "{msg}");
        // The schedule must shrink to a single perturbation and the case
        // to the boundary value.
        assert!(msg.contains("v=10 with 1 perturbations"), "{msg}");
    }
}
