//! # platform — the assembled x86-IXP two-island prototype
//!
//! This crate wires every substrate into the paper's experimental
//! platform (Figure 3): a [`xsched::CreditScheduler`] x86 island hosting
//! Dom0 and the guest VMs, an [`ixp::IxpIsland`] network-processor island
//! fronting all network traffic, a [`pcie::HostLink`] moving packets
//! between them, a [`pcie::Mailbox`] carrying wire-encoded coordination
//! messages, and a [`coord::Controller`] in the Dom0 role applying Tune
//! and Trigger actions through each island's own knobs.
//!
//! ## End-to-end receive path
//!
//! ```text
//! client ─wire─► IXP Rx ─► classifier (DPI → policy → coordination msgs)
//!        ─► per-VM flow queue ─► PCIe DMA ─► host ring ─► interrupt
//!        ─► Dom0 driver burst ─► guest rx window ─► guest CPU bursts
//! ```
//!
//! Every hop that costs host CPU is a real burst on the credit scheduler,
//! so host-side latency — including the latency of *applying* coordination
//! — inherits Dom0's scheduling fortunes, exactly the coupling the paper's
//! uncoordinated baseline suffers from.
//!
//! ## Example
//!
//! ```
//! use platform::{PlatformBuilder, RubisScenario};
//! use coord::PolicyKind;
//! use simcore::Nanos;
//!
//! let mut sim = PlatformBuilder::new()
//!     .seed(7)
//!     .policy(PolicyKind::RequestType)
//!     .build_rubis(RubisScenario::read_write_mix(8));
//! let report = sim.run(Nanos::from_secs(5));
//! assert!(report.rubis.completed > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod inference_path;
mod media;
mod report;
mod rubis_path;
mod trace_event;
mod world;

pub use config::{
    EnergyConfig, InferenceScenario, MplayerScenario, PlatformBuilder, PlayerSpec, RubisScenario,
};
pub use report::{
    AccelReport, AccelTenantReport, CoordReport, DomCpu, EnergyReport, IslandEvents, NetReport,
    PlayerReport, PowerReport, RubisReport, RunReport, SimRate, SourceEvents,
};
pub use trace_event::TraceEvent;
pub use world::Platform;

// Re-export the types callers need to configure scenarios without extra
// imports.
pub use accel::AccelConfig;
pub use coord::{PolicerConfig, PolicyKind, ReliableConfig};
pub use simtest::chaos::{ChaosPlan, Perturbation};
pub use workloads::adversary::{AdversarySpec, Strategy as AdversaryStrategy};
pub use workloads::inference::{InferenceConfig, TenantSpec};
pub use pcie::{FaultProfile, Jitter};
pub use power::Strategy as PowerStrategy;
pub use workloads::mplayer::{Source, StreamSpec};
pub use workloads::rubis::Mix;
