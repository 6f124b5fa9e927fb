//! The QoS-constrained energy controller.
//!
//! Energy is the one dimension the islands historically never negotiated
//! over: the power governor caps watts by squeezing CPU shares with no
//! notion of application QoS. This module adds the coordinated
//! alternative in the shape of Nejat et al.'s processor-configuration +
//! cache-partitioning work and CBP's coordinated throttling: the x86
//! island exposes three discrete knobs —
//!
//! * **DVFS** — the package operating point (frequency/voltage rung);
//! * **cache ways** — ways powered for the DB-heavy partition;
//! * **memory-bandwidth share** — the partition's bandwidth allocation;
//!
//! — and [`EnergyController`] hill-climbs the knob *lattice* downward in
//! power while every tenant's p99 stays under target. Each knob alone is
//! weak (its latency cost turns steep a rung or two down); walked
//! jointly, each axis stays in its shallow region and the lattice reaches
//! operating points none of the knobs can reach alone (experiment E2).
//!
//! The controller is deliberately island-agnostic: it works on lattice
//! *indices* (rung 0 = full performance on every axis) and the platform
//! maps indices to concrete operating points (`power::DvfsState`, demand
//! factors). Decisions come back as [`KnobSetting`]s which the platform
//! ships over the ordinary coordination channel as
//! [`CoordMsg::SetKnob`](crate::CoordMsg::SetKnob) messages — energy
//! management rides the same Tune vocabulary as everything else.
//!
//! ## Algorithm
//!
//! One decision per period, driven by the worst per-tenant p99 observed
//! over the platform's sampling window:
//!
//! * **violation** (`p99 > target`): step the most recently deepened axis
//!   back toward performance and feed the flip to the
//!   [`OscillationDetector`]. While the detector reports oscillation the
//!   controller freezes (holds the current point) for a cooldown — the
//!   hysteresis that keeps a marginal tenant from knob-flapping.
//! * **headroom** (`p99 < margin × target`): deepen one axis, round-robin
//!   over the axes that still have rungs left, one rung at a time.
//! * otherwise: hold.
//!
//! Round-robin descent is the lattice-walk analogue of coordinate
//! descent: it keeps the three axes at nearly equal depth, which is where
//! the convex per-axis latency costs sum cheapest.

use crate::limits::OscillationDetector;
use simcore::Nanos;

/// One knob axis of the energy lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobAxis {
    /// The package DVFS operating point.
    Dvfs,
    /// Cache ways powered for the partitioned (DB-heavy) class.
    CacheWays,
    /// Memory-bandwidth share of the partitioned class.
    MembwShare,
}

impl KnobAxis {
    /// All axes, in descent (round-robin) order.
    pub const ALL: [KnobAxis; 3] = [KnobAxis::Dvfs, KnobAxis::CacheWays, KnobAxis::MembwShare];
}

/// A point on the knob lattice: the rung index of each axis, where rung 0
/// is full performance and higher rungs trade latency for power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KnobPoint {
    /// DVFS rung (0 = nominal frequency).
    pub dvfs: u8,
    /// Cache-way rung (0 = all ways powered).
    pub ways: u8,
    /// Bandwidth-share rung (0 = full share).
    pub membw: u8,
}

impl KnobPoint {
    /// The rung of one axis.
    pub fn rung(&self, axis: KnobAxis) -> u8 {
        match axis {
            KnobAxis::Dvfs => self.dvfs,
            KnobAxis::CacheWays => self.ways,
            KnobAxis::MembwShare => self.membw,
        }
    }

    fn rung_mut(&mut self, axis: KnobAxis) -> &mut u8 {
        match axis {
            KnobAxis::Dvfs => &mut self.dvfs,
            KnobAxis::CacheWays => &mut self.ways,
            KnobAxis::MembwShare => &mut self.membw,
        }
    }

    /// Total descent depth (sum of rungs) — a cheap power-order proxy:
    /// deeper points never draw more than shallower ones on a monotone
    /// ladder.
    pub fn depth(&self) -> u32 {
        self.dvfs as u32 + self.ways as u32 + self.membw as u32
    }
}

/// A decision: set `axis` to rung `rung`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSetting {
    /// The axis to move.
    pub axis: KnobAxis,
    /// The new rung index on that axis.
    pub rung: u8,
}

/// Configuration for [`EnergyController`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyControllerConfig {
    /// Per-tenant p99 response-time target in milliseconds.
    pub p99_target_ms: f64,
    /// Descend only while `p99 < margin × target` (headroom guard).
    pub margin: f64,
    /// Rungs available per axis (inclusive max index = rungs − 1), in
    /// [`KnobAxis::ALL`] order.
    pub rungs: [u8; 3],
    /// Minimum time between decisions.
    pub decision_period: Nanos,
    /// Oscillation-detector window.
    pub osc_window: Nanos,
    /// Flips inside the window that count as oscillation.
    pub osc_threshold: u32,
    /// Hold time after the detector trips.
    pub freeze: Nanos,
}

impl Default for EnergyControllerConfig {
    fn default() -> Self {
        EnergyControllerConfig {
            p99_target_ms: 400.0,
            margin: 0.85,
            rungs: [4, 5, 5],
            decision_period: Nanos::from_secs(2),
            osc_window: Nanos::from_secs(30),
            osc_threshold: 4,
            freeze: Nanos::from_secs(20),
        }
    }
}

impl EnergyControllerConfig {
    /// Sets the p99 target.
    pub fn with_target_ms(mut self, ms: f64) -> Self {
        self.p99_target_ms = ms;
        self
    }
}

/// The hill-climbing QoS-constrained energy controller. See the module
/// documentation for the algorithm.
#[derive(Debug, Clone)]
pub struct EnergyController {
    cfg: EnergyControllerConfig,
    point: KnobPoint,
    next_axis: usize,
    last_stepped: Option<KnobAxis>,
    last_decision: Nanos,
    frozen_until: Nanos,
    osc: OscillationDetector,
    violations: u64,
    backoffs: u64,
    descents: u64,
    freezes: u64,
}

impl EnergyController {
    /// Creates a controller at the full-performance lattice corner.
    ///
    /// # Panics
    /// Panics if the target is not positive, the margin is not in
    /// `(0, 1]`, or any axis has zero rungs.
    pub fn new(cfg: EnergyControllerConfig) -> Self {
        assert!(cfg.p99_target_ms > 0.0, "p99 target must be positive");
        assert!(
            cfg.margin > 0.0 && cfg.margin <= 1.0,
            "margin must be in (0, 1]"
        );
        assert!(
            cfg.rungs.iter().all(|&r| r >= 1),
            "every axis needs at least its performance rung"
        );
        let osc = OscillationDetector::new(cfg.osc_window, cfg.osc_threshold);
        EnergyController {
            cfg,
            point: KnobPoint::default(),
            next_axis: 0,
            last_stepped: None,
            last_decision: Nanos::ZERO,
            frozen_until: Nanos::ZERO,
            osc,
            violations: 0,
            backoffs: 0,
            descents: 0,
            freezes: 0,
        }
    }

    /// The current lattice point.
    pub fn point(&self) -> KnobPoint {
        self.point
    }

    /// QoS violations observed (p99 over target at a decision instant).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Back-off steps taken (rungs climbed back toward performance).
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// Descent steps taken (rungs walked down in power).
    pub fn descents(&self) -> u64 {
        self.descents
    }

    /// Times the oscillation detector froze the controller.
    pub fn freezes(&self) -> u64 {
        self.freezes
    }

    /// The configured p99 target in milliseconds.
    pub fn p99_target_ms(&self) -> f64 {
        self.cfg.p99_target_ms
    }

    /// Feeds one observation (the worst per-tenant p99 over the last
    /// window, in milliseconds) and returns the knob move to apply, if
    /// any. Call at the platform's sampling cadence; the controller
    /// self-limits to one decision per `decision_period`.
    pub fn observe(&mut self, now: Nanos, worst_p99_ms: f64) -> Option<KnobSetting> {
        let violating = worst_p99_ms > self.cfg.p99_target_ms;
        if violating {
            // Violations are counted (and fed to the detector) even
            // between decision instants — QoS pain must not be masked by
            // the decision rate limit.
            self.violations += 1;
        }
        self.osc.observe(now, violating);
        if now < self.last_decision + self.cfg.decision_period && !self.last_decision.is_zero() {
            return None;
        }
        if now < self.frozen_until {
            return None;
        }
        if self.osc.is_oscillating(now) {
            self.frozen_until = now + self.cfg.freeze;
            self.freezes += 1;
            return None;
        }
        if violating {
            return self.back_off(now);
        }
        if worst_p99_ms < self.cfg.margin * self.cfg.p99_target_ms {
            return self.descend(now);
        }
        None
    }

    /// Steps the most recently deepened axis back toward performance
    /// (falling back to the deepest axis when the last-stepped one is
    /// already at rung 0).
    fn back_off(&mut self, now: Nanos) -> Option<KnobSetting> {
        let axis = self
            .last_stepped
            .filter(|&a| self.point.rung(a) > 0)
            .or_else(|| {
                KnobAxis::ALL
                    .into_iter()
                    .max_by_key(|&a| self.point.rung(a))
                    .filter(|&a| self.point.rung(a) > 0)
            })?;
        let r = self.point.rung_mut(axis);
        *r -= 1;
        self.backoffs += 1;
        self.last_decision = now;
        self.last_stepped = Some(axis);
        Some(KnobSetting {
            axis,
            rung: self.point.rung(axis),
        })
    }

    /// Deepens the next axis (round-robin) that still has rungs left.
    fn descend(&mut self, now: Nanos) -> Option<KnobSetting> {
        for i in 0..KnobAxis::ALL.len() {
            let ai = (self.next_axis + i) % KnobAxis::ALL.len();
            let axis = KnobAxis::ALL[ai];
            let max_rung = self.cfg.rungs[ai] - 1;
            if self.point.rung(axis) < max_rung {
                *self.point.rung_mut(axis) += 1;
                self.next_axis = (ai + 1) % KnobAxis::ALL.len();
                self.descents += 1;
                self.last_decision = now;
                self.last_stepped = Some(axis);
                return Some(KnobSetting {
                    axis,
                    rung: self.point.rung(axis),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(target: f64) -> EnergyControllerConfig {
        EnergyControllerConfig {
            p99_target_ms: target,
            decision_period: Nanos::from_secs(1),
            ..EnergyControllerConfig::default()
        }
    }

    /// Drives the controller against a synthetic monotone latency model:
    /// each rung of depth adds `per_rung` ms to a base p99. Returns the
    /// final lattice point.
    fn converge(target: f64, base: f64, per_rung: f64) -> KnobPoint {
        let mut c = EnergyController::new(cfg(target));
        for i in 0..200u64 {
            let p99 = base + c.point().depth() as f64 * per_rung;
            c.observe(Nanos::from_secs(i), p99);
        }
        c.point()
    }

    #[test]
    fn descends_round_robin_under_headroom() {
        let mut c = EnergyController::new(cfg(400.0));
        let s1 = c.observe(Nanos::from_secs(1), 100.0).unwrap();
        let s2 = c.observe(Nanos::from_secs(2), 100.0).unwrap();
        let s3 = c.observe(Nanos::from_secs(3), 100.0).unwrap();
        assert_eq!(s1.axis, KnobAxis::Dvfs);
        assert_eq!(s2.axis, KnobAxis::CacheWays);
        assert_eq!(s3.axis, KnobAxis::MembwShare);
        assert_eq!(
            c.point(),
            KnobPoint {
                dvfs: 1,
                ways: 1,
                membw: 1
            }
        );
        assert_eq!(c.descents(), 3);
    }

    #[test]
    fn violation_backs_off_the_last_stepped_axis() {
        let mut c = EnergyController::new(cfg(400.0));
        c.observe(Nanos::from_secs(1), 100.0); // dvfs → 1
        let s = c.observe(Nanos::from_secs(2), 500.0).unwrap();
        assert_eq!(
            s,
            KnobSetting {
                axis: KnobAxis::Dvfs,
                rung: 0
            }
        );
        assert_eq!(c.violations(), 1);
        assert_eq!(c.backoffs(), 1);
    }

    #[test]
    fn holds_inside_the_margin_band() {
        let mut c = EnergyController::new(cfg(400.0));
        // 0.85 × 400 = 340: neither headroom nor violation.
        assert!(c.observe(Nanos::from_secs(1), 360.0).is_none());
        assert_eq!(c.point(), KnobPoint::default());
    }

    #[test]
    fn decisions_are_rate_limited() {
        let mut c = EnergyController::new(cfg(400.0));
        assert!(c.observe(Nanos::from_millis(1000), 100.0).is_some());
        assert!(c.observe(Nanos::from_millis(1500), 100.0).is_none());
        assert!(c.observe(Nanos::from_millis(2100), 100.0).is_some());
    }

    #[test]
    fn converges_to_the_deepest_feasible_point() {
        // base 100, 40 ms per rung, target 400 with margin 0.85 → descend
        // while p99 < 340, i.e. depth < 6; stop at depth 6 (340 ≤ p99 ≤ 400).
        let p = converge(400.0, 100.0, 40.0);
        assert_eq!(p.depth(), 6, "stopped at {p:?}");
    }

    #[test]
    fn tighter_target_never_descends_deeper() {
        // The monotonicity property behind the simtest version: for the
        // same monotone latency response, a tighter target's solution is
        // never deeper (never lower-power) than a looser one's.
        let mut last_depth = u32::MAX;
        for target in [200.0, 300.0, 400.0, 600.0, 1000.0] {
            let depth = converge(target, 100.0, 40.0).depth();
            assert!(
                depth >= last_depth || last_depth == u32::MAX,
                "target {target} descended shallower than a tighter one"
            );
            last_depth = depth;
        }
    }

    #[test]
    fn knob_flapping_freezes_instead_of_oscillating_forever() {
        // A workload exactly at the edge: p99 flips violating/clear each
        // observation. The detector must trip and freeze the controller.
        let mut c = EnergyController::new(EnergyControllerConfig {
            p99_target_ms: 400.0,
            decision_period: Nanos::from_secs(1),
            osc_window: Nanos::from_secs(60),
            osc_threshold: 4,
            freeze: Nanos::from_secs(30),
            ..EnergyControllerConfig::default()
        });
        let mut moves = 0;
        for i in 0..120u64 {
            let p99 = if i % 2 == 0 { 100.0 } else { 500.0 };
            if c.observe(Nanos::from_secs(i), p99).is_some() {
                moves += 1;
            }
        }
        assert!(c.freezes() > 0, "detector never froze the controller");
        assert!(moves < 30, "controller flapped {moves} times");
    }

    #[test]
    fn backoff_from_the_corner_is_a_no_op() {
        let mut c = EnergyController::new(cfg(400.0));
        assert!(c.observe(Nanos::from_secs(1), 500.0).is_none());
        assert_eq!(c.point(), KnobPoint::default());
        assert_eq!(c.violations(), 1);
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn bad_margin_is_rejected() {
        let _ = EnergyController::new(EnergyControllerConfig {
            margin: 1.5,
            ..EnergyControllerConfig::default()
        });
    }
}
