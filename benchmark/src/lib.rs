//! The archipelago benchmark: four workloads that stress different layers
//! of the simulator, end-to-end metrics measured with tracing off, and a
//! traced run plus layer probes for per-layer numbers.
//!
//! Everything here calls the simulator only through its public API and
//! measures each layer from the outside. See `README.md` in this package
//! for the metrics, the workloads and the noise protocol.

pub mod alloc;
pub mod digest;
pub mod probe;
pub mod reference;
pub mod run;
pub mod trace;
pub mod workload;

// Every binary and test that links this library counts its allocations.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
