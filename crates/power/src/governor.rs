//! The platform power governor.
//!
//! Sampled once per measurement period with each domain's recent CPU
//! utilization and the platform's modelled power draw, the governor keeps
//! total power under a cap by tightening per-domain CPU caps (the Xen
//! credit scheduler's `cap` knob) and relaxes them again when headroom
//! returns.
//!
//! The victim choice is the coordination story: [`Strategy::BiggestConsumer`]
//! is per-tile logic (no application knowledge — exactly what the paper
//! warns about), while [`Strategy::Priority`] caps in an application-aware
//! order supplied by the coordination layer.

use simcore::Nanos;
use std::collections::BTreeMap;

/// Who gets capped when over budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Cap the domain currently consuming the most CPU (uncoordinated,
    /// application-blind).
    BiggestConsumer,
    /// Cap domains in the given order (first = first victim), restoring
    /// in reverse. Domains not listed are never capped.
    Priority(Vec<String>),
}

/// One domain's sample fed to the governor.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSample {
    /// Domain name.
    pub name: String,
    /// CPU consumption over the window as a percentage of one pCPU.
    pub cpu_percent: f64,
}

/// A cap adjustment the platform should apply.
#[derive(Debug, Clone, PartialEq)]
pub struct CapAction {
    /// Domain to adjust.
    pub name: String,
    /// New cap as a percentage of one pCPU (0 = uncapped).
    pub cap_percent: u32,
}

/// The sampling power governor. See the module-level documentation.
#[derive(Debug, Clone)]
pub struct PowerGovernor {
    cap_watts: f64,
    hysteresis_w: f64,
    step_percent: u32,
    floor_percent: u32,
    strategy: Strategy,
    /// Current caps (0 = uncapped).
    caps: BTreeMap<String, u32>,
    actions_applied: u64,
    last_decision: Nanos,
    min_gap: Nanos,
}

impl PowerGovernor {
    /// Creates a governor holding platform power at or below `cap_watts`.
    pub fn new(cap_watts: f64, strategy: Strategy) -> Self {
        PowerGovernor {
            cap_watts,
            hysteresis_w: 3.0,
            step_percent: 15,
            floor_percent: 10,
            strategy,
            caps: BTreeMap::new(),
            actions_applied: 0,
            last_decision: Nanos::ZERO,
            min_gap: Nanos::from_secs(1),
        }
    }

    /// Overrides the cap step and floor (percent of one pCPU).
    ///
    /// # Panics
    ///
    /// Panics if `step == 0` (the governor could never change a cap) or
    /// `floor > 100` (a floor above full speed is meaningless).
    pub fn with_steps(mut self, step: u32, floor: u32) -> Self {
        assert!(step > 0, "governor step must be at least 1 percent");
        assert!(
            floor <= 100,
            "governor floor is a percent of one pCPU (0..=100)"
        );
        self.step_percent = step;
        self.floor_percent = floor;
        self
    }

    /// The configured watt cap.
    pub fn cap_watts(&self) -> f64 {
        self.cap_watts
    }

    /// Total cap adjustments issued.
    pub fn actions_applied(&self) -> u64 {
        self.actions_applied
    }

    /// Current cap for a domain (0 = uncapped).
    pub fn cap_of(&self, name: &str) -> u32 {
        self.caps.get(name).copied().unwrap_or(0)
    }

    /// Feeds one sampling period; returns the cap adjustments to apply.
    ///
    /// `watts` is the modelled platform draw over the window; `domains`
    /// are the per-domain utilization samples.
    pub fn sample(&mut self, now: Nanos, watts: f64, domains: &[DomainSample]) -> Vec<CapAction> {
        if now < self.last_decision + self.min_gap && !self.last_decision.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if watts > self.cap_watts {
            if let Some(victim) = self.pick_victim(domains) {
                let sample = domains
                    .iter()
                    .find(|d| d.name == victim)
                    .map(|d| d.cpu_percent)
                    .unwrap_or(100.0);
                let current = self.cap_of(&victim);
                // First cap lands just below current consumption; further
                // caps step down toward the floor. Ceiling, not `as`-cast:
                // truncation would start the descent one percent short of
                // the measured consumption, landing the first cap below
                // where the step arithmetic intends (and, with a fractional
                // sample at the floor, below the floor itself before the
                // final clamp).
                let base = if current == 0 {
                    sample.max(self.floor_percent as f64).ceil() as u32
                } else {
                    current
                };
                let new = base
                    .saturating_sub(self.step_percent)
                    .max(self.floor_percent);
                if new != current {
                    self.caps.insert(victim.clone(), new);
                    self.actions_applied += 1;
                    self.last_decision = now;
                    out.push(CapAction {
                        name: victim,
                        cap_percent: new,
                    });
                }
            }
        } else if watts < self.cap_watts - self.hysteresis_w {
            if let Some(beneficiary) = self.pick_restore() {
                let current = self.cap_of(&beneficiary);
                let new = current + self.step_percent;
                // Fully uncap once the cap no longer binds meaningfully.
                let new = if new >= 100 { 0 } else { new };
                if new != current {
                    if new == 0 {
                        self.caps.remove(&beneficiary);
                    } else {
                        self.caps.insert(beneficiary.clone(), new);
                    }
                    self.actions_applied += 1;
                    self.last_decision = now;
                    out.push(CapAction {
                        name: beneficiary,
                        cap_percent: new,
                    });
                }
            }
        }
        out
    }

    fn pick_victim(&self, domains: &[DomainSample]) -> Option<String> {
        match &self.strategy {
            Strategy::BiggestConsumer => domains
                .iter()
                .filter(|d| {
                    let cap = self.cap_of(&d.name);
                    cap == 0 || cap > self.floor_percent
                })
                .max_by(|a, b| {
                    a.cpu_percent
                        .partial_cmp(&b.cpu_percent)
                        .expect("utilizations are finite")
                })
                .map(|d| d.name.clone()),
            Strategy::Priority(order) => order
                .iter()
                .find(|name| {
                    let cap = self.cap_of(name);
                    cap == 0 || cap > self.floor_percent
                })
                .cloned(),
        }
    }

    fn pick_restore(&self) -> Option<String> {
        match &self.strategy {
            Strategy::BiggestConsumer => self.caps.keys().next().cloned(),
            Strategy::Priority(order) => order
                .iter()
                .rev()
                .find(|n| self.caps.contains_key(*n))
                .cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doms(web: f64, db: f64, bg: f64) -> Vec<DomainSample> {
        vec![
            DomainSample {
                name: "web".into(),
                cpu_percent: web,
            },
            DomainSample {
                name: "db".into(),
                cpu_percent: db,
            },
            DomainSample {
                name: "background".into(),
                cpu_percent: bg,
            },
        ]
    }

    #[test]
    fn over_budget_biggest_consumer_caps_the_hog() {
        let mut g = PowerGovernor::new(100.0, Strategy::BiggestConsumer);
        let actions = g.sample(Nanos::from_secs(1), 120.0, &doms(40.0, 80.0, 30.0));
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].name, "db");
        assert_eq!(actions[0].cap_percent, 65); // 80 − 15
        assert_eq!(g.cap_of("db"), 65);
    }

    #[test]
    fn over_budget_priority_caps_in_order() {
        let mut g = PowerGovernor::new(
            100.0,
            Strategy::Priority(vec!["background".into(), "db".into()]),
        );
        let a1 = g.sample(Nanos::from_secs(1), 120.0, &doms(40.0, 80.0, 30.0));
        assert_eq!(a1[0].name, "background");
        // Keep squeezing: background steps toward the floor before db is
        // touched.
        let a2 = g.sample(Nanos::from_secs(2), 118.0, &doms(40.0, 80.0, 15.0));
        assert_eq!(a2[0].name, "background");
        let a3 = g.sample(Nanos::from_secs(3), 117.0, &doms(40.0, 80.0, 10.0));
        assert_eq!(a3[0].name, "db", "after the floor, the next priority");
    }

    #[test]
    fn under_budget_restores_in_reverse_order() {
        let mut g = PowerGovernor::new(
            100.0,
            Strategy::Priority(vec!["background".into(), "db".into()]),
        );
        g.sample(Nanos::from_secs(1), 120.0, &doms(40.0, 80.0, 30.0));
        g.sample(Nanos::from_secs(2), 115.0, &doms(40.0, 80.0, 15.0));
        g.sample(Nanos::from_secs(3), 112.0, &doms(40.0, 80.0, 10.0)); // caps db
                                                                       // Headroom: db (last capped) is restored first.
        let a = g.sample(Nanos::from_secs(4), 80.0, &doms(40.0, 50.0, 10.0));
        assert_eq!(a[0].name, "db");
    }

    #[test]
    fn within_band_is_quiet() {
        let mut g = PowerGovernor::new(100.0, Strategy::BiggestConsumer);
        assert!(g
            .sample(Nanos::from_secs(1), 99.0, &doms(40.0, 80.0, 30.0))
            .is_empty());
        assert!(g
            .sample(Nanos::from_secs(2), 98.0, &doms(40.0, 80.0, 30.0))
            .is_empty());
        assert_eq!(g.actions_applied(), 0);
    }

    #[test]
    fn decisions_are_rate_limited() {
        let mut g = PowerGovernor::new(100.0, Strategy::BiggestConsumer);
        let a1 = g.sample(Nanos::from_secs(1), 120.0, &doms(40.0, 80.0, 30.0));
        assert_eq!(a1.len(), 1);
        // 200 ms later: too soon.
        let a2 = g.sample(
            Nanos::from_secs(1) + Nanos::from_millis(200),
            120.0,
            &doms(40.0, 80.0, 30.0),
        );
        assert!(a2.is_empty());
        let a3 = g.sample(Nanos::from_secs(3), 120.0, &doms(40.0, 80.0, 30.0));
        assert_eq!(a3.len(), 1);
    }

    #[test]
    fn caps_never_fall_below_floor() {
        let mut g = PowerGovernor::new(100.0, Strategy::Priority(vec!["background".into()]))
            .with_steps(30, 10);
        for i in 1..10 {
            g.sample(Nanos::from_secs(i), 150.0, &doms(40.0, 80.0, 30.0));
        }
        assert_eq!(g.cap_of("background"), 10);
    }

    #[test]
    fn fractional_sample_at_the_floor_never_caps_below_it() {
        // Floor 10, consumption 10.4%: the old `as u32` truncation turned
        // `max(10.4, 10.0)` into base 10 via the fraction being dropped —
        // here the ceiling keeps base at 11 so the first step lands on the
        // clamped floor, never under it.
        let mut g = PowerGovernor::new(100.0, Strategy::BiggestConsumer).with_steps(1, 10);
        let a = g.sample(
            Nanos::from_secs(1),
            120.0,
            &[DomainSample {
                name: "db".into(),
                cpu_percent: 10.4,
            }],
        );
        assert_eq!(a.len(), 1);
        assert!(
            a[0].cap_percent >= 10,
            "cap {} fell below the floor",
            a[0].cap_percent
        );
        assert_eq!(a[0].cap_percent, 10);
    }

    #[test]
    fn first_cap_rounds_consumption_up_not_down() {
        // 80.3% consumption with a 15-point step: the descent starts from
        // ceil(80.3) = 81, so the first cap is 66, not the truncated 65.
        let mut g = PowerGovernor::new(100.0, Strategy::BiggestConsumer);
        let a = g.sample(
            Nanos::from_secs(1),
            120.0,
            &[DomainSample {
                name: "db".into(),
                cpu_percent: 80.3,
            }],
        );
        assert_eq!(a[0].cap_percent, 66);
    }

    #[test]
    #[should_panic(expected = "step must be at least 1")]
    fn with_steps_rejects_zero_step() {
        let _ = PowerGovernor::new(100.0, Strategy::BiggestConsumer).with_steps(0, 10);
    }

    #[test]
    #[should_panic(expected = "floor is a percent")]
    fn with_steps_rejects_floor_above_100() {
        let _ = PowerGovernor::new(100.0, Strategy::BiggestConsumer).with_steps(15, 101);
    }

    #[test]
    fn restore_uncaps_fully_at_100() {
        let mut g = PowerGovernor::new(100.0, Strategy::BiggestConsumer).with_steps(60, 10);
        g.sample(Nanos::from_secs(1), 120.0, &doms(40.0, 90.0, 30.0));
        assert_eq!(g.cap_of("db"), 30);
        g.sample(Nanos::from_secs(2), 80.0, &doms(40.0, 30.0, 30.0));
        assert_eq!(g.cap_of("db"), 90);
        g.sample(Nanos::from_secs(3), 80.0, &doms(40.0, 30.0, 30.0));
        assert_eq!(g.cap_of("db"), 0, "fully uncapped past 100");
    }
}
