//! Per-domain run-state accounting: how much time each domain spent
//! running (user/system), waiting on a runqueue, or blocked.
//!
//! This is the data source for the paper's Figure 5 (per-VM CPU
//! utilization) and the user/system/iowait discussion in §3.1.

use crate::{BurstKind, DomId};
use simcore::Nanos;

/// Accumulated run-state time for one domain over an accounting window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainUsage {
    /// Time spent executing user-classified bursts.
    pub running_user: Nanos,
    /// Time spent executing system-classified bursts.
    pub running_system: Nanos,
    /// Time spent runnable but waiting for a pCPU (steal-time analogue).
    pub runnable: Nanos,
    /// Time spent blocked (no queued work).
    pub blocked: Nanos,
}

impl DomainUsage {
    /// Total CPU time consumed (user + system).
    pub fn running(&self) -> Nanos {
        self.running_user + self.running_system
    }
}

/// A consistent view of all domains' usage over a window.
#[derive(Debug, Clone, Default)]
pub struct RunstateSnapshot {
    /// Indexed by `DomId.0`.
    per_dom: Vec<DomainUsage>,
    window: Nanos,
}

impl RunstateSnapshot {
    /// Usage for one domain, if it exists.
    pub fn usage(&self, dom: DomId) -> Option<&DomainUsage> {
        self.per_dom.get(dom.0 as usize)
    }

    /// The window length this snapshot covers.
    pub fn window(&self) -> Nanos {
        self.window
    }

    /// CPU consumption of `dom` as a percentage of one pCPU over the
    /// window (can exceed 100 for multi-VCPU domains).
    pub fn cpu_percent(&self, dom: DomId) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.usage(dom)
            .map(|u| u.running() / self.window * 100.0)
            .unwrap_or(0.0)
    }

    /// User-mode share of `dom`'s CPU percentage.
    pub fn user_percent(&self, dom: DomId) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.usage(dom)
            .map(|u| u.running_user / self.window * 100.0)
            .unwrap_or(0.0)
    }

    /// System-mode share of `dom`'s CPU percentage.
    pub fn system_percent(&self, dom: DomId) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.usage(dom)
            .map(|u| u.running_system / self.window * 100.0)
            .unwrap_or(0.0)
    }

    /// Runnable-wait ("steal") share of `dom` as a percentage of the window.
    pub fn steal_percent(&self, dom: DomId) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.usage(dom)
            .map(|u| u.runnable / self.window * 100.0)
            .unwrap_or(0.0)
    }

    /// Iterates over `(domain, usage)` in domain order.
    pub fn iter(&self) -> impl Iterator<Item = (DomId, &DomainUsage)> {
        self.per_dom
            .iter()
            .enumerate()
            .map(|(i, u)| (DomId(i as u32), u))
    }

    /// Sum of all domains' CPU percentages (percent of one pCPU).
    pub fn total_cpu_percent(&self) -> f64 {
        self.iter().map(|(d, _)| self.cpu_percent(d)).sum()
    }
}

/// Internal accumulator maintained by the scheduler.
#[derive(Debug, Clone, Default)]
pub(crate) struct UsageAccum {
    /// Indexed by `DomId.0`, grown to cover every domain seen.
    per_dom: Vec<DomainUsage>,
    window_start: Nanos,
}

impl UsageAccum {
    fn slot(&mut self, dom: DomId) -> &mut DomainUsage {
        let i = dom.0 as usize;
        if i >= self.per_dom.len() {
            self.per_dom.resize(i + 1, DomainUsage::default());
        }
        &mut self.per_dom[i]
    }

    pub(crate) fn register(&mut self, dom: DomId) {
        self.slot(dom);
    }

    pub(crate) fn add_running(&mut self, dom: DomId, kind: BurstKind, dt: Nanos) {
        let u = self.slot(dom);
        match kind {
            BurstKind::User => u.running_user += dt,
            BurstKind::System => u.running_system += dt,
        }
    }

    pub(crate) fn add_runnable(&mut self, dom: DomId, dt: Nanos) {
        self.slot(dom).runnable += dt;
    }

    pub(crate) fn add_blocked(&mut self, dom: DomId, dt: Nanos) {
        self.slot(dom).blocked += dt;
    }

    /// Snapshot the window ending at `now` without resetting.
    pub(crate) fn snapshot(&self, now: Nanos) -> RunstateSnapshot {
        RunstateSnapshot {
            per_dom: self.per_dom.clone(),
            window: now.saturating_sub(self.window_start),
        }
    }

    /// Clears all counters and starts a new window at `now`.
    pub(crate) fn reset(&mut self, now: Nanos) {
        for u in &mut self.per_dom {
            *u = DomainUsage::default();
        }
        self.window_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_kind() {
        let mut a = UsageAccum::default();
        let d = DomId(1);
        a.add_running(d, BurstKind::User, Nanos::from_millis(10));
        a.add_running(d, BurstKind::System, Nanos::from_millis(5));
        a.add_runnable(d, Nanos::from_millis(20));
        let s = a.snapshot(Nanos::from_millis(100));
        let u = s.usage(d).unwrap();
        assert_eq!(u.running(), Nanos::from_millis(15));
        assert!((s.cpu_percent(d) - 15.0).abs() < 1e-9);
        assert!((s.user_percent(d) - 10.0).abs() < 1e-9);
        assert!((s.system_percent(d) - 5.0).abs() < 1e-9);
        assert!((s.steal_percent(d) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reset_starts_new_window() {
        let mut a = UsageAccum::default();
        let d = DomId(1);
        a.add_running(d, BurstKind::User, Nanos::from_millis(10));
        a.reset(Nanos::from_millis(100));
        a.add_running(d, BurstKind::User, Nanos::from_millis(30));
        let s = a.snapshot(Nanos::from_millis(200));
        assert_eq!(s.window(), Nanos::from_millis(100));
        assert!((s.cpu_percent(d) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_domain_is_zero() {
        let s = RunstateSnapshot::default();
        assert_eq!(s.cpu_percent(DomId(9)), 0.0);
        assert!(s.usage(DomId(9)).is_none());
    }

    #[test]
    fn total_sums_domains() {
        let mut a = UsageAccum::default();
        a.add_running(DomId(1), BurstKind::User, Nanos::from_millis(50));
        a.add_running(DomId(2), BurstKind::User, Nanos::from_millis(100));
        let s = a.snapshot(Nanos::from_millis(100));
        assert!((s.total_cpu_percent() - 150.0).abs() < 1e-9);
    }
}
