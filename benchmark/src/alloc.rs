//! A counting global allocator.
//!
//! Every allocation is counted into per-thread `Cell`s, so reading the
//! counters around a call attributes allocations to that call on that
//! thread without any cross-thread synchronisation. The live-heap peak is
//! tracked the same way; [`mark`] and [`since`] nest, so an outer span's
//! peak still covers the peaks of the spans inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[derive(Clone, Copy)]
struct Counters {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    static COUNTERS: Cell<Counters> =
        const { Cell::new(Counters { allocs: 0, bytes: 0, live: 0, peak: 0 }) };
}

fn update(f: impl FnOnce(&mut Counters)) {
    // `try_with` keeps allocations made while a thread's locals are torn
    // down from panicking inside the allocator; they go uncounted.
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        f(&mut v);
        v.peak = v.peak.max(v.live);
        c.set(v);
    });
}

fn read() -> Counters {
    COUNTERS.try_with(Cell::get).unwrap_or(Counters {
        allocs: 0,
        bytes: 0,
        live: 0,
        peak: 0,
    })
}

/// The system allocator with per-thread counting.
pub struct Counting;

// SAFETY: every operation is forwarded unchanged to `System`; the
// counters are a side effect on thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.bytes += layout.size() as u64;
            c.live += layout.size() as i64;
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.bytes += layout.size() as u64;
            c.live += layout.size() as i64;
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.bytes += new_size as u64;
            c.live += new_size as i64 - layout.size() as i64;
        });
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|c| c.live -= layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// This thread's counters at the start of a measured interval.
#[derive(Clone, Copy)]
pub struct Mark {
    allocs: u64,
    bytes: u64,
    live: i64,
    outer_peak: i64,
}

/// What this thread allocated over a measured interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live-heap growth above the level at [`mark`], in bytes.
    pub peak_growth: u64,
}

/// Starts an interval: saves the enclosing peak and restarts peak
/// tracking from the current live heap.
pub fn mark() -> Mark {
    let c = read();
    let _ = COUNTERS.try_with(|cell| {
        let mut v = cell.get();
        v.peak = v.live;
        cell.set(v);
    });
    Mark {
        allocs: c.allocs,
        bytes: c.bytes,
        live: c.live,
        outer_peak: c.peak,
    }
}

/// Ends an interval started by [`mark`] and folds its peak back into the
/// enclosing interval's.
pub fn since(m: Mark) -> Delta {
    let c = read();
    let _ = COUNTERS.try_with(|cell| {
        let mut v = cell.get();
        v.peak = v.peak.max(m.outer_peak);
        cell.set(v);
    });
    Delta {
        allocs: c.allocs - m.allocs,
        bytes: c.bytes - m.bytes,
        peak_growth: (c.peak - m.live).max(0) as u64,
    }
}
