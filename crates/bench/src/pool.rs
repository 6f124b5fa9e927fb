//! A pure-`std` scoped-thread job pool for fanning independent
//! simulation runs across cores.
//!
//! Every experiment/seed pair is an isolated deterministic simulation, so
//! the harness parallelises at that granularity: workers claim items off a
//! shared atomic cursor and write results into per-item slots, and the
//! caller receives them in submission order regardless of completion
//! order. With identical inputs the merged output is therefore
//! byte-identical whether `jobs` is 1 or 64 — the determinism tests in
//! `tests/determinism.rs` enforce this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the `ARCH_JOBS` environment variable if set,
/// otherwise [`std::thread::available_parallelism`].
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("ARCH_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Strips a `--jobs N` / `--jobs=N` flag from `args` and returns the
/// requested worker count, falling back to [`default_jobs`].
pub fn take_jobs_flag(args: &mut Vec<String>) -> usize {
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--jobs=") {
            jobs = v.parse::<usize>().ok();
            args.remove(i);
        } else if args[i] == "--jobs" && i + 1 < args.len() {
            jobs = args[i + 1].parse::<usize>().ok();
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
    jobs.map(|n| n.max(1)).unwrap_or_else(default_jobs)
}

/// Strips a `--shards N` / `--shards=N` flag from `args` and returns the
/// requested fleet shard count, if any. `None` leaves the fleet
/// experiments on their default (12-shard) fleet; the value is clamped
/// by `bench::set_fleet_shards`.
pub fn take_shards_flag(args: &mut Vec<String>) -> Option<u16> {
    let mut shards = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--shards=") {
            shards = v.parse::<u16>().ok();
            args.remove(i);
        } else if args[i] == "--shards" && i + 1 < args.len() {
            shards = args[i + 1].parse::<u16>().ok();
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
    shards
}

/// Runs `f` over `items` on up to `jobs` worker threads and returns the
/// results in submission order.
///
/// With `jobs <= 1` (or fewer than two items) everything runs inline on
/// the calling thread — the serial and parallel paths produce the same
/// output for pure `f`. A panicking `f` propagates to the caller when the
/// thread scope joins.
pub fn parallel_map<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Each slot holds the item's result or the panic payload `f` died
    // with. A worker panic used to poison its result mutex and surface
    // at the merge as `PoisonError` on `into_inner().unwrap()` — masking
    // the actual panic message and the item it belongs to. Catching the
    // unwind per item keeps the real payload (AssertUnwindSafe is sound
    // here: a failed item's slot stays `None` and is never read as a
    // result).
    type Caught = Box<dyn std::any::Any + Send>;
    let results: Vec<Mutex<Option<Result<U, Caught>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("item claimed once");
                let out =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            match m.into_inner().unwrap_or_else(|e| e.into_inner()) {
                Some(Ok(out)) => out,
                // Re-raise the first failed item's original panic, tagged
                // with which item it was (completion order can differ).
                Some(Err(payload)) => {
                    eprintln!("parallel_map: worker panicked on item {i}");
                    std::panic::resume_unwind(payload)
                }
                None => panic!("parallel_map: item {i} produced no result"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 13] {
            let out = parallel_map(jobs, items.clone(), |x| x * x);
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = parallel_map(8, (0..50).collect::<Vec<u64>>(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(parallel_map(16, vec![1, 2], |x| x + 1), vec![2, 3]);
        assert_eq!(parallel_map(16, vec![7], |x| x + 1), vec![8]);
        assert_eq!(parallel_map(16, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
    }

    #[test]
    fn worker_panic_propagates_its_original_payload() {
        // Regression: a panicking `f` used to poison its result slot and
        // surface at the merge as `PoisonError`, hiding the real message.
        let result = std::panic::catch_unwind(|| {
            parallel_map(4, (0..16u64).collect::<Vec<_>>(), |x| {
                if x == 9 {
                    panic!("simulation diverged on seed {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("simulation diverged on seed 9"),
            "original panic payload was masked: {msg:?}"
        );
    }

    #[test]
    fn jobs_flag_parsing() {
        let mut args: Vec<String> =
            ["a", "--jobs", "3", "b"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_jobs_flag(&mut args), 3);
        assert_eq!(args, ["a", "b"]);
        let mut args: Vec<String> = ["--jobs=5"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_jobs_flag(&mut args), 5);
        assert!(args.is_empty());
        let mut args: Vec<String> = ["--jobs=0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_jobs_flag(&mut args), 1, "zero clamps to one");
    }

    #[test]
    fn shards_flag_parsing() {
        let mut args: Vec<String> =
            ["fleet", "--shards", "4"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_shards_flag(&mut args), Some(4));
        assert_eq!(args, ["fleet"]);
        let mut args: Vec<String> = ["--shards=16"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_shards_flag(&mut args), Some(16));
        assert!(args.is_empty());
        let mut args: Vec<String> = ["fleet"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_shards_flag(&mut args), None, "default is no override");
    }
}
