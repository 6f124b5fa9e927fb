//! Spans around the benchmark's own calls into the simulator's public API.
//!
//! A [`Tracer`] always times the calls it wraps, because the end-to-end
//! metrics are built from those durations. Only a tracer that is switched
//! on keeps span records; they are plain `Copy` values pushed into a
//! preallocated `Vec` and written out after the run.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a span that has none.
pub const ROOT: u32 = u32::MAX;

/// CPU time this process has used so far, summed over all its threads,
/// in nanoseconds. Unlike wall time it does not run on while the process
/// waits for a processor, nor, on a kernel that accounts steal time, while
/// the hypervisor runs another guest on this one's virtual CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Wall time since the first call, where the process CPU clock is not
/// available.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within a run: the worker id in the top byte, a per-worker
    /// sequence number below it.
    pub id: u32,
    /// The enclosing span's id, or [`ROOT`].
    pub parent: u32,
    /// What was called, e.g. `platform.run`.
    pub name: &'static str,
    /// Which traced run this span belongs to.
    pub run: u32,
    /// The thread that made the call (0 = the main thread).
    pub worker: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Allocations this thread made inside the span.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Highest live-heap growth inside the span, in bytes.
    pub heap_peak: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when on, records them as [`Span`]s.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    run: u32,
    worker: u32,
    next: u32,
    /// Recorded spans (empty while off).
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that only times.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: false,
            run: 0,
            worker: 0,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer for traced run `run`.
    pub fn on(run: u32) -> Self {
        Tracer {
            on: true,
            run,
            spans: Vec::with_capacity(512),
            ..Tracer::off()
        }
    }

    /// A tracer for worker thread `worker`, sharing this one's epoch and
    /// run; its spans are merged back with [`Tracer::absorb`].
    pub fn for_worker(&self, worker: u32) -> Self {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            run: self.run,
            worker,
            next: 0,
            spans: Vec::with_capacity(if self.on { 256 } else { 0 }),
        }
    }

    /// Takes a worker tracer's spans.
    pub fn absorb(&mut self, worker: Tracer) {
        self.spans.extend(worker.spans);
    }

    /// Runs `f` as span `name` under `parent`, returning its result and
    /// duration in nanoseconds. `f` receives the new span's id for
    /// nesting.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce(&mut Self, u32) -> T,
    ) -> (T, u64) {
        let id = (self.worker << 24) | self.next;
        self.next += 1;
        let mark = alloc::mark();
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        let delta = alloc::since(mark);
        let ns = end.duration_since(start).as_nanos() as u64;
        if self.on {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                name,
                run: self.run,
                worker: self.worker,
                start_ns,
                end_ns: start_ns + ns,
                allocs: delta.allocs,
                alloc_bytes: delta.bytes,
                heap_peak: delta.peak_growth,
            });
        }
        (out, ns)
    }

    /// The recorded spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"run\": {}, \"worker\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \
                 \"heap_peak\": {}}}{sep}",
                sp.id,
                if sp.parent == ROOT {
                    -1
                } else {
                    sp.parent as i64
                },
                sp.name,
                sp.run,
                sp.worker,
                sp.start_ns,
                sp.end_ns,
                sp.allocs,
                sp.alloc_bytes,
                sp.heap_peak,
            );
        }
        s.push_str("]\n");
        s
    }
}
