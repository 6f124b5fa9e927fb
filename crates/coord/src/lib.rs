//! # coord — coordinated resource management across scheduling islands
//!
//! This crate is the paper's primary contribution: the vocabulary and
//! machinery that let *independent resource managers* on heterogeneous
//! islands coordinate on behalf of applications that span them.
//!
//! ## The two mechanisms (§3.3)
//!
//! * **Tune** ([`CoordMsg::Tune`]) — a fine-grained resource adjustment
//!   request for an entity in a remote island: an entity id plus a ±
//!   numeric value, translated *by the remote island* into its own
//!   scheduler's terms — credit-weight deltas on Xen, dequeue-thread or
//!   poll-interval changes on the IXP.
//! * **Trigger** ([`CoordMsg::Trigger`]) — an immediate, interrupt-like
//!   notification asking that an entity receive resources as soon as
//!   possible; preemptive semantics (Xen runqueue boost).
//!
//! ## The pieces
//!
//! * [`EntityId`] / [`Registry`] — platform-global identity for things that
//!   span islands (a VM on x86 that is also a flow on the IXP), hiding each
//!   island's local abstraction behind a uniform key.
//! * [`ResourceManager`] — the trait an island implements to receive
//!   coordination verbs in its own vocabulary.
//! * [`Controller`] — the global controller (hosted by Dom0 in the
//!   prototype): islands and entities register at initialisation; incoming
//!   messages are resolved against the registry into island-local actions.
//! * [`CoordinationPolicy`] — producers of coordination traffic:
//!   [`RequestTypePolicy`] (RUBiS request classes → weight shifts),
//!   [`StreamQosPolicy`] (stream properties → weight + IXP thread tunes),
//!   [`BufferTriggerPolicy`] (queue occupancy → triggers), and the
//!   [`HysteresisPolicy`] extension that damps read↔write oscillation.
//! * [`wire`] — the compact binary codec for the messages (they must fit a
//!   PCI config-space mailbox).
//! * [`ReliableSender`] / [`ReliableReceiver`] — optional ack-based
//!   delivery over a lossy channel: sequence-numbered frames,
//!   retransmission with exponential backoff, duplicate suppression, and
//!   a degraded-mode signal for graceful policy fallback (see
//!   `pcie::FaultProfile` for the faults they survive).
//! * [`TokenBucket`] — rate limiting for coordination traffic — and
//!   [`EntityPolicer`] — the controller-side defense against strategic
//!   tenants (per-entity rate limits plus reputation-weighted Tune
//!   discounting; enable with [`Controller::set_defenses`]).
//! * [`hierarchy`] — the paper's future-work extension: a two-level
//!   coordination fabric (zone controllers + root directory) for
//!   large-scale multi-island platforms.
//! * [`EnergyController`] — the QoS-constrained energy dimension: a
//!   hill-climbing walk of the x86 island's knob lattice (DVFS rung ×
//!   cache ways × bandwidth share, [`CoordMsg::SetKnob`]) downward in
//!   power while per-tenant p99 stays under target, frozen by the
//!   [`OscillationDetector`] when a marginal tenant makes it knob-flap.
//!
//! ## Example
//!
//! ```
//! use coord::{Controller, CoordMsg, EntityId, IslandId, IslandKind, Action};
//! use simcore::Nanos;
//!
//! let mut ctl = Controller::new();
//! let x86 = IslandId(0);
//! ctl.handle(Nanos::ZERO, CoordMsg::RegisterIsland { island: x86, kind: IslandKind::GeneralPurpose });
//! let web = EntityId(1);
//! ctl.handle(Nanos::ZERO, CoordMsg::RegisterEntity { entity: web, island: x86, local_key: 1 });
//! let actions = ctl.handle(Nanos::ZERO, CoordMsg::Tune { entity: web, delta: 64, target: None });
//! assert_eq!(actions, vec![Action::ApplyTune { island: x86, local_key: 1, delta: 64 }]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod controller;
mod energy;
mod entity;
mod error;
pub mod hierarchy;
mod island;
mod limits;
mod msg;
mod policy;
mod reliable;
pub mod wire;

pub use controller::{Action, Controller, ControllerStats};
pub use energy::{EnergyController, EnergyControllerConfig, KnobAxis, KnobPoint, KnobSetting};
pub use entity::{EntityId, Registry};
pub use error::CoordError;
pub use island::{IslandId, IslandKind, ResourceManager};
pub use limits::{EntityPolicer, MeterStats, OscillationDetector, PolicerConfig, TokenBucket};
pub use msg::CoordMsg;
pub use policy::{
    BufferTriggerPolicy, CoordinationPolicy, HysteresisPolicy, InferenceBatchPolicy, NullPolicy,
    Observation, PolicyKind, RequestTypePolicy, StreamQosPolicy,
};
pub use reliable::{ReliableConfig, ReliableReceiver, ReliableSender, SenderStats};
