//! Proves the steady-state tracing path allocates nothing.
//!
//! A counting global allocator brackets a burst of `record` calls on a
//! wrapped `TraceBuffer<TraceEvent>` — exactly the operation the
//! platform's coordination paths perform per traced decision — and
//! asserts the allocation counter did not move. This binary installs its
//! own `#[global_allocator]`, so it holds only this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use coord::{CoordMsg, EntityId};
use platform::TraceEvent;
use simcore::trace::TraceBuffer;
use simcore::Nanos;
use xsched::DomId;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_trace_recording_does_not_allocate() {
    // Same capacity the platform uses for its coordination trace.
    let mut trace: TraceBuffer<TraceEvent> = TraceBuffer::new(512);
    let dom = DomId(2);
    let entity = EntityId(1);
    // Warm-up: fill the ring past capacity so eviction is active — the
    // steady state every long run operates in.
    for i in 0..1024u64 {
        trace.record(
            Nanos(i),
            TraceEvent::Tune {
                dom,
                from: 256,
                to: 257,
            },
        );
    }

    // The counter is process-global, so the libtest harness thread can
    // allocate inside the bracket when a loaded machine stretches the
    // recording loop (seen under cargo's pipelined workspace builds).
    // Other threads can only *inflate* the count, never hide a recording
    // allocation — so the minimum over a few attempts is the recording
    // path's own cost, and one clean attempt proves the property.
    let mut best = u64::MAX;
    let mut after = 0;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        for i in 0..10_000u64 {
            let now = Nanos(2048 + i);
            trace.record(
                now,
                TraceEvent::Tune {
                    dom,
                    from: 256,
                    to: 260,
                },
            );
            trace.record(now, TraceEvent::Trigger { dom });
            trace.record(now, TraceEvent::Retransmit { seq: i as u32 });
            trace.record(now, TraceEvent::AccelTune { entity, delta: -2 });
            trace.record(now, TraceEvent::AccelTrigger { entity });
            trace.record(
                now,
                TraceEvent::DegradedSuppressed {
                    msg: CoordMsg::Tune {
                        entity,
                        delta: 1,
                        target: None,
                    },
                },
            );
            trace.record(now, TraceEvent::GaveUp { count: 1 });
            trace.record(now, TraceEvent::EnteredDegraded);
            trace.record(now, TraceEvent::SuppressedDuplicate { seq: i as u32 });
            trace.record(now, TraceEvent::DegradedOver { seq: i as u32 });
        }
        after = ALLOCS.load(Ordering::SeqCst);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best,
        0,
        "recording {} trace events allocated {} time(s) on the cleanest of 5 attempts",
        10_000 * 10,
        best,
    );

    // Rendering is where the cost moved: it allocates, but only when the
    // history is actually read.
    assert_eq!(trace.len(), 512);
    let rendered = trace.dump();
    assert!(rendered.contains("trigger"));
    assert!(ALLOCS.load(Ordering::SeqCst) > after);
}
