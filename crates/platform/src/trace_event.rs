//! Structured records for the coordination-decision trace.
//!
//! The master loop's coordination paths (tune/trigger application,
//! retransmission, ack handling) used to build `format!` strings for
//! every traced decision; at IXP packet rates that is an allocation per
//! event on the hottest paths. A [`TraceEvent`] is a compact value
//! recorded into the platform's `TraceBuffer<TraceEvent>` by copy —
//! no heap traffic — and rendered through its
//! [`Display`](fmt::Display) impl only when a report, test, or debugger
//! reads the history.

use coord::{CoordMsg, EntityId, KnobAxis};
use std::fmt;
use xsched::DomId;

/// One coordination-path decision, recorded by value on the hot path.
///
/// Variants carry only plain data (`CoordMsg` is `Copy`), so recording
/// one never allocates; the human-readable form is produced lazily by
/// the `Display` impl and matches the strings the trace historically
/// stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Degraded channel: a new message was suppressed rather than queued
    /// behind retransmissions that are demonstrably not being delivered.
    DegradedSuppressed {
        /// The coordination message that was dropped at the source.
        msg: CoordMsg,
    },
    /// A reliable-delivery retransmission left Dom0.
    Retransmit {
        /// Sequence number of the re-sent frame.
        seq: u32,
    },
    /// The retry cap was hit and message(s) were abandoned.
    GaveUp {
        /// How many messages were given up on at this deadline.
        count: u64,
    },
    /// The reliable sender entered degraded mode.
    EnteredDegraded,
    /// The receiver suppressed an already-processed duplicate frame.
    SuppressedDuplicate {
        /// Sequence number of the duplicate.
        seq: u32,
    },
    /// An ack arrived while degraded: the channel has recovered.
    DegradedOver {
        /// Sequence number whose ack ended degraded mode.
        seq: u32,
    },
    /// The accelerator island applied a Tune verb.
    AccelTune {
        /// Entity whose batch budget / queue weight moved.
        entity: EntityId,
        /// Signed adjustment applied.
        delta: i32,
    },
    /// The accelerator island applied a Trigger verb (batch preempt).
    AccelTrigger {
        /// Entity whose batch boundary was forced.
        entity: EntityId,
    },
    /// The x86 island applied a weight Tune to a domain.
    Tune {
        /// Domain whose weight moved.
        dom: DomId,
        /// Weight before the tune.
        from: u32,
        /// Weight after clamping.
        to: u32,
    },
    /// The x86 island applied a Trigger (runqueue boost + credit grant).
    Trigger {
        /// Domain that was boosted.
        dom: DomId,
    },
    /// The x86 island moved one axis of its energy-knob lattice.
    Knob {
        /// The axis that moved.
        axis: KnobAxis,
        /// The applied value in the axis's own unit (frequency percent,
        /// powered ways, or bandwidth-share percent).
        value: u32,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::DegradedSuppressed { msg } => {
                write!(f, "coord: degraded, suppressed {msg:?}")
            }
            TraceEvent::Retransmit { seq } => write!(f, "coord: retransmit seq {seq}"),
            TraceEvent::GaveUp { count } => {
                write!(f, "coord: gave up on {count} message(s)")
            }
            TraceEvent::EnteredDegraded => write!(f, "coord: entering degraded mode"),
            TraceEvent::SuppressedDuplicate { seq } => {
                write!(f, "coord: suppressed duplicate seq {seq}")
            }
            TraceEvent::DegradedOver { seq } => {
                write!(f, "coord: ack seq {seq}, degraded mode over")
            }
            TraceEvent::AccelTune { entity, delta } => {
                write!(f, "accel tune {entity:?}: delta {delta}")
            }
            TraceEvent::AccelTrigger { entity } => {
                write!(f, "accel trigger {entity:?}: batch preempt")
            }
            TraceEvent::Tune { dom, from, to } => {
                write!(f, "tune {dom}: weight {from} -> {to}")
            }
            TraceEvent::Trigger { dom } => {
                write!(f, "trigger {dom}: boost + credit grant")
            }
            TraceEvent::Knob { axis, value } => {
                write!(f, "energy knob {axis:?} -> {value}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_match_the_historical_trace_strings() {
        let dom = DomId(3);
        assert_eq!(
            TraceEvent::Tune { dom, from: 256, to: 260 }.to_string(),
            format!("tune {dom}: weight 256 -> 260"),
        );
        assert_eq!(
            TraceEvent::Trigger { dom }.to_string(),
            format!("trigger {dom}: boost + credit grant"),
        );
        assert_eq!(
            TraceEvent::Retransmit { seq: 9 }.to_string(),
            "coord: retransmit seq 9",
        );
        assert_eq!(
            TraceEvent::GaveUp { count: 2 }.to_string(),
            "coord: gave up on 2 message(s)",
        );
        assert_eq!(
            TraceEvent::EnteredDegraded.to_string(),
            "coord: entering degraded mode",
        );
        assert_eq!(
            TraceEvent::SuppressedDuplicate { seq: 4 }.to_string(),
            "coord: suppressed duplicate seq 4",
        );
        assert_eq!(
            TraceEvent::DegradedOver { seq: 4 }.to_string(),
            "coord: ack seq 4, degraded mode over",
        );
        let entity = EntityId(1);
        assert_eq!(
            TraceEvent::AccelTune { entity, delta: -2 }.to_string(),
            format!("accel tune {entity:?}: delta -2"),
        );
        assert_eq!(
            TraceEvent::AccelTrigger { entity }.to_string(),
            format!("accel trigger {entity:?}: batch preempt"),
        );
        let msg = CoordMsg::Ack { seq: 1 };
        assert_eq!(
            TraceEvent::DegradedSuppressed { msg }.to_string(),
            format!("coord: degraded, suppressed {msg:?}"),
        );
        assert_eq!(
            TraceEvent::Knob { axis: KnobAxis::Dvfs, value: 85 }.to_string(),
            "energy knob Dvfs -> 85",
        );
    }
}
