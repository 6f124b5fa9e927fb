//! Proves the master loop's steady-state dispatch (almost) never allocates,
//! and bounds what building a platform allocates.
//!
//! A counting global allocator measures two runs of one seed, 20 s and
//! 80 s of simulated time. Building the platform, warming its buffers up
//! to their high-water sizes and writing the report cost about the same
//! in both, so the extra allocations of the longer run over its extra
//! dispatched events are what one steady-state event costs. The same
//! allocator also counts requested bytes, so construction cost is pinned
//! separately. Counters are
//! per thread, so the harness and the other test in this binary cannot
//! leak into a measurement. This binary installs its own
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use platform::{
    AdversarySpec, FaultProfile, InferenceScenario, Jitter, Platform, PlatformBuilder,
    PolicerConfig, PolicyKind, ReliableConfig, RubisScenario,
};
use simcore::{EventQueue, Nanos};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation request of `bytes` bytes.
fn count(bytes: usize) {
    // `try_with`: allocations while a thread's locals are torn down go
    // uncounted instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a side effect on a thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and dispatched events of one `secs`-long run.
fn run(build: &dyn Fn() -> Platform, secs: u64) -> (u64, u64) {
    let mut sim = build();
    let before = ALLOCS.with(Cell::get);
    let report = sim.run(Nanos::from_secs(secs));
    (ALLOCS.with(Cell::get) - before, report.sim_rate.events)
}

/// Δallocations ÷ Δevents between a 20 s and an 80 s run.
fn marginal_allocs_per_event(build: &dyn Fn() -> Platform) -> f64 {
    let (short_allocs, short_events) = run(build, 20);
    let (long_allocs, long_events) = run(build, 80);
    assert!(
        long_events > 2 * short_events,
        "{short_events} → {long_events} events"
    );
    long_allocs.saturating_sub(short_allocs) as f64 / (long_events - short_events) as f64
}

#[test]
fn rubis_dispatch_allocates_almost_nothing() {
    let per_event = marginal_allocs_per_event(&|| {
        PlatformBuilder::new()
            .seed(7)
            .policy(PolicyKind::RequestType)
            .build_rubis(RubisScenario::read_write_mix(24))
    });
    assert!(per_event <= 0.02, "{per_event:.4} allocations per event");
}

#[test]
fn faulty_channel_dispatch_allocates_almost_nothing() {
    // The R2 channel (loss, duplication, jitter) under reliable delivery,
    // three adversaries and the controller's defenses: every coordination
    // path, retransmits and acks included, is live.
    let per_event = marginal_allocs_per_event(&|| {
        PlatformBuilder::new()
            .seed(7)
            .policy(PolicyKind::RequestType)
            .fault_profile(
                FaultProfile::none()
                    .with_drop(0.10)
                    .with_dup(0.05)
                    .with_jitter(Jitter::Exponential {
                        mean: Nanos::from_micros(20),
                    }),
            )
            .reliable_delivery(ReliableConfig::default())
            .adversaries(vec![
                AdversarySpec::spam(),
                AdversarySpec::inflate(),
                AdversarySpec::spam(),
            ])
            .coord_defenses(PolicerConfig::default())
            .build_rubis(RubisScenario::read_write_mix(24))
    });
    assert!(per_event <= 0.1, "{per_event:.4} allocations per event");
}

/// Allocation requests and requested bytes while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        ALLOCS.with(Cell::get) - allocs,
        BYTES.with(Cell::get) - bytes,
        out,
    )
}

#[test]
fn empty_event_queue_allocates_nothing() {
    let (allocs, bytes, q) = allocated_by(EventQueue::<u32>::new);
    assert_eq!((allocs, bytes), (0, 0), "a new queue reserves no storage");
    drop(q);
}

/// Bytes that building a default platform may request: 17,164 measured
/// for RUBiS and 19,594 for inference, with headroom.
const BUILD_BYTES_MAX: u64 = 32 * 1024;

#[test]
fn building_the_default_rubis_platform_is_cheap() {
    // Every island's event queue starts empty and no event is scheduled
    // before the first `run`, so construction pays only for the
    // platform's own tables.
    let (_, bytes, sim) =
        allocated_by(|| PlatformBuilder::new().build_rubis(RubisScenario::read_write_mix(24)));
    assert!(bytes <= BUILD_BYTES_MAX, "building allocated {bytes} bytes");
    drop(sim);
}

#[test]
fn building_the_default_inference_platform_is_cheap() {
    let (_, bytes, sim) =
        allocated_by(|| PlatformBuilder::new().build_inference(InferenceScenario::mixed_tenants()));
    assert!(bytes <= BUILD_BYTES_MAX, "building allocated {bytes} bytes");
    drop(sim);
}
