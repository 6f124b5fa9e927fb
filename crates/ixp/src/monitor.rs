//! System-level buffer monitoring (§3.2 "Using system buffer monitoring").
//!
//! The IXP watches per-VM packet-queue lengths in its DRAM. When a queue
//! crosses a byte threshold the monitor fires an alarm — the platform turns
//! it into a coordination *Trigger* — re-firing periodically while the
//! overload persists (the XScale monitor polls the queue), and fully
//! re-arming once the queue has drained below half the threshold so a
//! hovering queue does not spam triggers.

use simcore::Nanos;

/// Re-fire interval during a sustained overload: the XScale monitor's
/// polling period.
const REFIRE: Nanos = Nanos::from_millis(100);

/// Threshold detector over a byte-occupancy signal.
///
/// Fires on the upward crossing, then re-fires every 100 ms while the
/// level stays at or above the threshold; fully re-arms below half the
/// threshold.
///
/// # Example
///
/// ```
/// use ixp::BufferMonitor;
/// use simcore::Nanos;
/// let mut m = BufferMonitor::new(Some(128 * 1024));
/// assert!(!m.on_level(Nanos::ZERO, 100 * 1024));
/// assert!(m.on_level(Nanos::ZERO, 130 * 1024));            // crossed: fire
/// assert!(!m.on_level(Nanos::from_millis(1), 140 * 1024)); // within refire
/// assert!(!m.on_level(Nanos::from_millis(2), 60 * 1024));  // below half: re-armed
/// assert!(m.on_level(Nanos::from_millis(3), 130 * 1024));  // fires again
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferMonitor {
    threshold: Option<u64>,
    armed: bool,
    last_fire: Option<Nanos>,
    alarms: u64,
}

impl BufferMonitor {
    /// Creates a monitor; `None` disables alarming.
    pub fn new(threshold: Option<u64>) -> Self {
        BufferMonitor {
            threshold,
            armed: true,
            last_fire: None,
            alarms: 0,
        }
    }

    /// Reports the current occupancy at time `now`. Returns `true` exactly
    /// when an alarm fires.
    pub fn on_level(&mut self, now: Nanos, bytes: u64) -> bool {
        let Some(th) = self.threshold else {
            return false;
        };
        if bytes >= th {
            let due = match self.last_fire {
                None => true,
                Some(t) => self.armed || now >= t + REFIRE,
            };
            if due {
                self.armed = false;
                self.last_fire = Some(now);
                self.alarms += 1;
                return true;
            }
        }
        if !self.armed && bytes < th / 2 {
            self.armed = true;
        }
        false
    }

    /// Configured threshold.
    pub fn threshold(&self) -> Option<u64> {
        self.threshold
    }

    /// Total alarms fired.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Nanos {
        Nanos::from_millis(ms)
    }

    #[test]
    fn disabled_never_fires() {
        let mut m = BufferMonitor::new(None);
        assert!(!m.on_level(at(0), u64::MAX));
        assert_eq!(m.alarms(), 0);
    }

    #[test]
    fn fires_once_per_crossing_within_refire() {
        let mut m = BufferMonitor::new(Some(100));
        assert!(m.on_level(at(0), 100));
        assert!(!m.on_level(at(10), 200));
        assert!(!m.on_level(at(20), 150));
        assert_eq!(m.alarms(), 1);
    }

    #[test]
    fn refires_during_sustained_overload() {
        let mut m = BufferMonitor::new(Some(100));
        assert!(m.on_level(at(0), 150));
        assert!(!m.on_level(at(99), 150));
        assert!(m.on_level(at(100), 150), "re-fires after the interval");
        assert_eq!(m.alarms(), 2);
    }

    #[test]
    fn rearms_below_half() {
        let mut m = BufferMonitor::new(Some(100));
        assert!(m.on_level(at(0), 100));
        assert!(!m.on_level(at(1), 60)); // not below half yet
        assert!(!m.on_level(at(2), 100)); // still disarmed, within refire
        assert!(!m.on_level(at(3), 49)); // re-armed
        assert!(m.on_level(at(4), 100));
        assert_eq!(m.alarms(), 2);
    }
}
