//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation every other `archipelago` crate builds on. It provides:
//!
//! * [`Nanos`] / [`Cycles`] — simulated-time and clock-domain arithmetic.
//! * [`EventQueue`] — a time-ordered, FIFO-stable event heap, with a FIFO
//!   lane for fixed-delay timers.
//! * [`SimRng`] — a small, fully deterministic PRNG with the distribution
//!   samplers the workload models need (no external dependency).
//! * [`stats`] — online statistics: Welford mean/variance, min/max,
//!   logarithmic histograms and time series.
//! * [`trace`] — bounded ring-buffer tracing for debugging simulations.
//! * [`Component`] / [`Tracked`] — the event-source contract and the
//!   cached-horizon wrapper the platform's master loop schedules by.
//! * [`digest`] — the FNV-1a hash results are pinned with.
//!
//! Everything here is purely computational: no wall-clock, no I/O, no
//! threads. A simulation driven exclusively through this kernel with a fixed
//! seed replays bit-identically.
//!
//! ## Example
//!
//! ```
//! use simcore::{EventQueue, Nanos};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Nanos::from_millis(5), "later");
//! q.schedule(Nanos::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Nanos::from_millis(1), "sooner"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod component;
pub mod digest;
mod idmap;
mod queue;
mod rng;
pub mod stats;
mod time;
pub mod trace;

pub use component::{Component, Tracked};
pub use idmap::{IdHasher, IdMap};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{Cycles, Nanos};
