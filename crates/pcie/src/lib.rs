//! # pcie — the host ↔ IXP interconnect substrate
//!
//! The paper's prototype moves packets between the IXP and the x86 host
//! over PCIe: message queues of descriptors live in reserved host memory,
//! payloads move by DMA, the messaging driver in Dom0 learns of new
//! descriptors either by periodic polling or by a rate-moderated interrupt,
//! and a small *coordination channel* rides on the device's PCI
//! configuration space (§2, §2.3).
//!
//! This crate models each of those pieces:
//!
//! * [`DmaModel`] — transfer latency as base cost + bytes / bandwidth;
//! * [`HostLink`] — the host-bound descriptor path with a bounded
//!   ring and a [`NotifyMode`] (interrupt moderation vs. Dom0
//!   polling), whose service latency the *platform* couples to Dom0's CPU
//!   scheduling — the source of the response-time variability the paper
//!   attributes to the uncoordinated baseline;
//! * [`Mailbox`] — the latency-injected coordination message channel. Its
//!   one-way latency is a first-class parameter because §3.3 singles out
//!   PCIe channel latency as a cause of mis-applied coordination, to be
//!   fixed by QPI/HTX-class integration;
//! * [`FaultProfile`] — seeded per-message drop/duplication/jitter/
//!   reordering for a mailbox, so the reliability experiments (R1/R2) can
//!   study *unreliable* — not merely slow — coordination, deterministically.
//!
//! ## Example
//!
//! ```
//! use pcie::{Mailbox};
//! use simcore::Nanos;
//!
//! let mut mbx: Mailbox<&'static str> = Mailbox::new(Nanos::from_micros(30));
//! mbx.send(Nanos::ZERO, "tune web +64");
//! assert_eq!(mbx.next_event_time(), Some(Nanos::from_micros(30)));
//! let mut delivered = Vec::new();
//! mbx.on_timer(Nanos::from_micros(30), &mut delivered);
//! assert_eq!(delivered, vec!["tune web +64"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dma;
mod fault;
mod link;
mod mailbox;

pub use dma::DmaModel;
pub use fault::{FaultProfile, Jitter};
pub use link::{HostLink, LinkConfig, LinkStats, NotifyMode, PcieEvent};
pub use mailbox::Mailbox;
