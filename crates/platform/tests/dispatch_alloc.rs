//! Proves the master loop's steady-state dispatch (almost) never allocates.
//!
//! A counting global allocator measures two runs of one seed, 20 s and
//! 80 s of simulated time. Building the platform, warming its buffers up
//! to their high-water sizes and writing the report cost about the same
//! in both, so the extra allocations of the longer run over its extra
//! dispatched events are what one steady-state event costs. Counters are
//! per thread, so the harness and the other test in this binary cannot
//! leak into a measurement. This binary installs its own
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use platform::{
    AdversarySpec, FaultProfile, Jitter, Platform, PlatformBuilder, PolicerConfig, PolicyKind,
    ReliableConfig, RubisScenario,
};
use simcore::Nanos;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations while a thread's locals are torn down go
    // uncounted instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a side effect on a thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
