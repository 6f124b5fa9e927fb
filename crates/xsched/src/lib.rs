//! # xsched — the x86 scheduling island (Xen credit scheduler model)
//!
//! An event-driven reimplementation of the Xen **credit scheduler** as
//! described in Cherkasova, Gupta & Vahdat, *"Comparison of the three CPU
//! schedulers in Xen"* and the Xen source documentation, together with the
//! domain / VCPU / event-channel machinery the paper's x86 island uses:
//!
//! * Domains have **weights** (default 256); every 30 ms accounting period,
//!   active domains receive credits proportional to weight; a running VCPU
//!   is debited 100 credits per 10 ms tick.
//! * VCPUs are **UNDER** (credit ≥ 0) or **OVER** (credit < 0); runqueues
//!   are ordered BOOST → UNDER → OVER, FIFO within a class.
//! * A VCPU woken by an event channel with non-negative credit enters
//!   **BOOST** priority and preempts lower-priority work — Xen's I/O
//!   latency optimisation, and the landing pad for the paper's *Trigger*
//!   coordination mechanism ([`CreditScheduler::trigger`]).
//! * Idle pCPUs steal runnable VCPUs from other runqueues, and optional
//!   per-domain **caps** park VCPUs that exhaust their capped allowance.
//!
//! Work arrives as [`Burst`]s — CPU demands tagged by the caller with any
//! value, by default a `u64` — queued per VCPU; the scheduler emits
//! [`SchedEvent::Completed`] with the tag when a burst finishes, which is
//! how the platform layer sequences multi-tier request processing.
//!
//! ## Example
//!
//! ```
//! use xsched::{Burst, CreditScheduler, SchedConfig, WakeMode};
//! use simcore::Nanos;
//!
//! let mut s = CreditScheduler::new(SchedConfig::new(2));
//! let web = s.create_domain("web", 256, 1);
//! s.submit(Nanos::ZERO, web, Burst::user(Nanos::from_millis(5), 1), WakeMode::Plain);
//! // Drive the scheduler to its next internal event, collecting burst
//! // completions into a reusable caller-owned buffer:
//! let t = s.next_event_time().unwrap();
//! let mut done = Vec::new();
//! s.on_timer(t, &mut done);
//! assert_eq!(done.len(), 1); // the 5 ms burst completed
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod burst;
mod credit;
mod domain;
mod error;
mod runstate;

pub use burst::{Burst, BurstKind};
pub use credit::{CreditScheduler, Priority, RunState, SchedConfig, SchedEvent, WakeMode};
pub use domain::{DomId, Domain};
pub use error::SchedError;
pub use runstate::{DomainUsage, RunstateSnapshot};
