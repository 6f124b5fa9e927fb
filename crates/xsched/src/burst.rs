//! CPU work items executed by VCPUs.

use simcore::Nanos;

/// Classifies a burst for utilization accounting, mirroring `top`'s
/// user/system split the paper reports in §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstKind {
    /// Guest application work (request processing, frame decoding).
    User,
    /// Kernel/driver work (bridging, messaging-driver polling, softirq).
    System,
}

/// A unit of CPU demand queued on a VCPU.
///
/// The `tag` is opaque to the scheduler and returned verbatim in
/// [`SchedEvent::Completed`](crate::SchedEvent), letting callers correlate
/// completions with in-flight requests. It may be any type: a caller can
/// attach the whole completion context to the burst instead of a key into
/// a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst<T = u64> {
    /// Remaining CPU demand.
    pub demand: Nanos,
    /// Accounting classification.
    pub kind: BurstKind,
    /// Caller correlation tag, echoed on completion.
    pub tag: T,
}

impl<T> Burst<T> {
    /// Creates a user-mode burst.
    pub fn user(demand: Nanos, tag: T) -> Self {
        Burst {
            demand,
            kind: BurstKind::User,
            tag,
        }
    }

    /// Creates a system-mode burst.
    pub fn system(demand: Nanos, tag: T) -> Self {
        Burst {
            demand,
            kind: BurstKind::System,
            tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let u = Burst::user(Nanos::from_millis(1), 7);
        assert_eq!(u.kind, BurstKind::User);
        assert_eq!(u.tag, 7);
        let s = Burst::system(Nanos::from_micros(50), 8);
        assert_eq!(s.kind, BurstKind::System);
        assert_eq!(s.demand, Nanos::from_micros(50));
    }
}
