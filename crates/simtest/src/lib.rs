//! # simtest — hermetic deterministic testing & benchmarking harness
//!
//! The workspace's replacement for `proptest` and `criterion`: everything
//! is built on [`simcore`]'s deterministic primitives, with zero external
//! dependencies, so the whole test and bench surface builds and runs fully
//! offline.
//!
//! Three pieces:
//!
//! * [`gen`] — composable value generators ([`Gen`]) with greedy
//!   shrinking, including domain generators for coordination messages,
//!   durations, packet lengths and scheduler weights.
//! * [`runner`] — the property runner ([`check`]): deterministic case
//!   seeds, `SIMTEST_SEED=<n>` exact-case reproduction, greedy shrinking
//!   of counterexamples, and the [`st_assert!`]/[`st_assert_eq!`] macros.
//! * [`mod@bench`] — a wall-clock [`BenchSuite`]: warmup, N samples,
//!   mean/p50/p99 per benchmark, JSON reports under `results/` (verified
//!   to parse via the in-crate [`json`] module).
//! * [`chaos`] — seeded, replayable [`ChaosPlan`] schedules of
//!   event-timing perturbations (delayed timer fires, forced Trigger
//!   preemptions, coordination-jitter bursts) that a host simulation
//!   consults at defined hook points, plus [`chaos_check`] /
//!   [`chaos_property!`] runners that shrink the chaos schedule to empty
//!   alongside the generated case.
//!
//! ## Property example
//!
//! ```
//! use simtest::{check, st_assert, gen::Gen};
//!
//! let doubles = Gen::u64_in(0, 1000);
//! simtest::check("doubling_is_monotone", &doubles, |&v| {
//!     st_assert!(v * 2 >= v, "overflowed: {v}");
//!     Ok(())
//! });
//! ```
//!
//! ## Bench example
//!
//! ```no_run
//! let mut suite = simtest::BenchSuite::new("micro");
//! suite.bench("sum_1k", || (0..1000u64).sum::<u64>());
//! suite.finish(); // prints a table, writes results/bench_micro.json
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod chaos;
pub mod gen;
pub mod json;
pub mod runner;

pub use bench::{BenchConfig, BenchRecord, BenchSuite};
pub use chaos::{chaos_check, chaos_check_with, ChaosPlan, Perturbation};
pub use gen::Gen;
pub use runner::{check, check_with, Config};
