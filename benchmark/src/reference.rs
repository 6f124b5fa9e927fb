//! A fixed reference computation, timed just before every operation, that
//! tracks how fast the shared host runs at that moment.
//!
//! Other guests on the same machine slow the simulator down by 15–40% for
//! minutes at a time, through the caches and cores they share with it.
//! CPU time does not filter that, because the simulator still runs, only
//! slower. The kernel below does the simulator's kind of work: a binary
//! heap of pending events drives updates to a state table, per-type
//! statistics keyed by freshly allocated names, and an ordered map of
//! timers. Scaling each operation's host time by the kernel's slowdown
//! measured just before it expresses the time in seconds of the reference
//! host. The kernel is the benchmark's own code, so a change to the
//! simulator cannot move it.

use crate::trace::process_cpu_ns;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// CPU time of one [`kernel`] run on the reference host, an uncontended
/// 2-vCPU Intel Xeon (Emerald Rapids) virtual machine.
pub const REFERENCE_NS: f64 = 39.2e6;

/// Events the kernel dispatches.
const STEPS: u64 = 300_000;

/// Slots of the kernel's state table, 64 bytes each.
const SLOTS: usize = 8192;

/// Distinct timer keys.
const TIMERS: u64 = 1 << 14;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Dispatches [`STEPS`] events of six kinds from a 16384-entry heap, each
/// doing one piece of work and scheduling one more event. Deterministic:
/// the same work on every call (the hasher's keys are fixed).
fn kernel() -> u64 {
    let names: Vec<String> = (0..16).map(|i| format!("request-type-{i}")).collect();
    let mut state = vec![[0u64; 8]; SLOTS];
    let mut stats: HashMap<String, (u64, u64), BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    let mut timers: BTreeMap<u64, u64> = BTreeMap::new();
    let mut queue = BinaryHeap::with_capacity(2 * SLOTS);
    let mut x = 4242;
    for i in 0..2 * SLOTS as u32 {
        queue.push(Reverse((
            xorshift(&mut x) & 0xf_ffff,
            i % 6,
            i % SLOTS as u32,
        )));
    }
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Reverse((t, kind, slot)) = queue.pop().expect("every step refills the queue");
        let r = xorshift(&mut x);
        let s = &mut state[slot as usize];
        match kind {
            0 => s[0] = s[0].wrapping_add(t),
            1 => s[1] ^= r,
            2 => {
                s[2] += 1;
                s[3] = s[3].max(t);
            }
            3 => {
                let name = &names[(r >> 8) as usize % names.len()];
                let e = stats.entry(name.to_owned()).or_insert((0, 0));
                e.0 += 1;
                e.1 = e.1.max(r >> 40);
            }
            4 => {
                let key = r % TIMERS;
                *timers.entry(key).or_insert(0) += 1;
                if r & (1 << 20) == 0 {
                    if let Some((&due, _)) = timers.range(key..).next() {
                        timers.remove(&due);
                    }
                }
            }
            _ => acc = acc.wrapping_add(s[4].wrapping_mul(3) ^ s[7].wrapping_mul(r | 1)),
        }
        let next = (r >> 20) as u32 % SLOTS as u32;
        state[next as usize][7] += 1;
        queue.push(Reverse((t + 1 + (r & 0xffff), (r >> 40) as u32 % 6, next)));
    }
    acc ^ stats.len() as u64 ^ timers.len() as u64
}

/// How many times slower than the reference host this one runs now: the
/// kernel's CPU time, run at once on each of `threads` threads (as many
/// as the operation that follows uses), per thread, over
/// [`REFERENCE_NS`].
pub fn slowdown(threads: usize) -> f64 {
    let start = process_cpu_ns();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| black_box(kernel()));
        }
        black_box(kernel());
    });
    (process_cpu_ns() - start) as f64 / threads.max(1) as f64 / REFERENCE_NS
}
