//! The measured and traced runs of one workload, the digest checks, and
//! the metrics they produce.

use crate::probe::{self, median};
use crate::reference;
use crate::trace::{Span, Tracer};
use crate::workload::{run_op, Op, Size, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_s_per_s", "sim_s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run and the probes.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("platform.events", "count"),
    ("platform.events_x86", "count"),
    ("platform.events_ixp", "count"),
    ("platform.events_accel", "count"),
    ("platform.ns_per_event", "ns"),
    ("platform.allocs_per_event", "1/event"),
    ("platform.alloc_bytes_per_event", "B/event"),
    ("platform.peak_heap_kb", "KiB"),
    ("platform.build_us", "us"),
    ("simcore.queue_ns", "ns"),
    ("xsched.sched_ns", "ns"),
    ("ixp.pkt_ns", "ns"),
    ("ixp.delivered", "count"),
    ("ixp.drop_ratio", "ratio"),
    ("ixp.est_share", "ratio"),
    ("pcie.link_ns", "ns"),
    ("pcie.mbx_ns", "ns"),
    ("coord.msgs", "count"),
    ("coord.useful_ratio", "ratio"),
    ("coord.wire_ns", "ns"),
    ("coord.controller_ns", "ns"),
    ("coord.est_share", "ratio"),
    ("coord.retx_ratio", "ratio"),
    ("coord.retx_ns", "ns"),
    ("accel.req_ns", "ns"),
    ("accel.submitted", "count"),
    ("accel.mean_batch", "count"),
    ("accel.reject_ratio", "ratio"),
    ("accel.est_share", "ratio"),
    ("metrics.records", "count"),
    ("metrics.record_ns", "ns"),
    ("metrics.allocs_per_record", "1/record"),
    ("metrics.est_share", "ratio"),
    ("fleet.specs_us", "us"),
    ("fleet.absorb_us", "us"),
    ("fleet.bus_ns", "ns"),
    ("fleet.frames", "count"),
    ("fleet.late_ratio", "ratio"),
    ("fleet.admit_ratio", "ratio"),
    ("fleet.slice_imbalance", "ratio"),
    ("fleet.pool_util", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Distinct seeds one run cycles through: `base .. base + SEEDS`. Each
/// seed comes round again once the cycle is done, and its digest must
/// repeat.
pub const SEEDS: u64 = 16;

/// Threads a fleet operation runs its shards on.
pub const WORKERS: usize = 2;

/// Digests pinned per `(workload, seed)`, from `digests.txt`.
pub struct Pins(BTreeMap<(String, u64), u64>);

impl Pins {
    /// The digests compiled into the benchmark.
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../digests.txt"))
    }

    /// Parses `workload seed digest` lines; `#` starts a comment.
    ///
    /// # Panics
    /// Panics on a malformed line: the file ships with the benchmark.
    pub fn parse(text: &str) -> Pins {
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
        {
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || panic!("malformed digests.txt line: {line:?}");
            if f.len() != 3 {
                bad();
            }
            let seed = f[1].parse().unwrap_or_else(|_| bad());
            let digest = u64::from_str_radix(f[2], 16).unwrap_or_else(|_| bad());
            map.insert((f[0].to_owned(), seed), digest);
        }
        Pins(map)
    }

    /// The pinned digest, if any.
    pub fn get(&self, w: Workload, seed: u64) -> Option<u64> {
        self.0.get(&(w.name().to_owned(), seed)).copied()
    }
}

/// Checks each operation's digest against the pinned one or, for an
/// unpinned seed, against the first digest this run saw for it.
struct Checker<'a> {
    w: Workload,
    pins: &'a Pins,
    seen: BTreeMap<u64, u64>,
    pinned_checks: u64,
}

impl<'a> Checker<'a> {
    fn new(w: Workload, pins: &'a Pins) -> Self {
        Checker {
            w,
            pins,
            seen: BTreeMap::new(),
            pinned_checks: 0,
        }
    }

    fn check(&mut self, seed: u64, digest: u64) -> bool {
        let pinned = self.pins.get(self.w, seed);
        self.pinned_checks += pinned.is_some() as u64;
        let expect = pinned.or_else(|| self.seen.get(&seed).copied());
        self.seen.entry(seed).or_insert(digest);
        expect.is_none_or(|e| e == digest)
    }

    fn describe(&self, attempted: u64) -> String {
        if self.pinned_checks == 0 {
            "no pinned digests for these seeds: checked that every seed replays its first digest"
                .to_owned()
        } else {
            format!(
                "{} of {attempted} ops checked against digests.txt, the rest against their own replay",
                self.pinned_checks
            )
        }
    }
}

/// One workload's result: what was attempted and the metrics measured.
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations that panicked or produced a wrong digest.
    pub failed: u64,
    /// `(name, unit, value)` in registry order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run (`None` for a measured run).
    pub trace: Option<Tracer>,
}

/// Runs one operation, turning a panic into `None`.
fn attempt(w: Workload, size: &Size, seed: u64, t: &mut Tracer) -> Option<Op> {
    catch_unwind(AssertUnwindSafe(|| run_op(w, size, seed, WORKERS, t))).ok()
}

fn collect(
    values: &BTreeMap<&str, f64>,
    registry: &[(&'static str, &'static str)],
) -> Vec<(&'static str, &'static str, f64)> {
    registry
        .iter()
        .filter_map(|&(name, unit)| {
            values
                .get(name)
                .map(|&v| (name, unit, if v.is_finite() { v } else { 0.0 }))
        })
        .collect()
}

/// One operation that ran, with the peak RSS it reached and the host's
/// slowdown measured just before it.
struct Sample {
    seed: u64,
    op: Op,
    rss_kib: f64,
    slowdown: f64,
}

/// Runs untraced operations, the `i`-th on `seed_of(i)`, until `limit`
/// has passed (at least three), checking every digest. Returns the
/// operations that ran, the number attempted and the number failed.
fn run_for(
    w: Workload,
    size: &Size,
    limit: Duration,
    check: &mut Checker,
    seed_of: impl Fn(u64) -> u64,
) -> (Vec<Sample>, u64, u64) {
    let threads = if w == Workload::FleetLossy {
        WORKERS
    } else {
        1
    };
    let start = Instant::now();
    let (mut samples, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    while attempted < 3 || start.elapsed() < limit {
        let seed = seed_of(attempted);
        attempted += 1;
        let slowdown = reference::slowdown(threads);
        fresh_rss_baseline();
        match attempt(w, size, seed, &mut Tracer::off()) {
            Some(op) => {
                failed += !check.check(seed, op.digest) as u64;
                let rss_kib = peak_rss_kib() as f64;
                samples.push(Sample {
                    seed,
                    op,
                    rss_kib,
                    slowdown,
                });
            }
            None => failed += 1,
        }
    }
    (samples, attempted, failed)
}

/// The measured run: operations on seeds `base..base + SEEDS`, cycled,
/// until `seconds` have passed (at least three), with tracing off.
pub fn measure(w: Workload, size: &Size, base: u64, seconds: f64, pins: &Pins) -> Outcome {
    let mut check = Checker::new(w, pins);
    let limit = Duration::from_secs_f64(seconds);
    let (samples, attempted, failed) =
        run_for(w, size, limit, &mut check, |i| base.wrapping_add(i % SEEDS));
    // Host times are CPU times, so waiting for a processor does not count,
    // scaled by the slowdown the reference kernel measured just before
    // the operation, so they read in seconds of the reference host. The
    // seeds are cycled, so each is equally represented in the medians.
    let rates = samples.iter().map(|s| s.op.sim_s_per_s() * s.slowdown);
    let setup = samples
        .iter()
        .map(|s| s.op.setup_ns as f64 / 1e9 / s.slowdown);
    // A fresh heap's peak varies with what the allocator keeps between
    // operations, and only ever upwards, so each seed keeps its lowest.
    let mut rss_kib = BTreeMap::new();
    for s in &samples {
        rss_kib
            .entry(s.seed)
            .and_modify(|v: &mut f64| *v = v.min(s.rss_kib))
            .or_insert(s.rss_kib);
    }
    let values = BTreeMap::from([
        ("sim_s_per_s", median(rates.collect())),
        ("setup_s", median(setup.collect())),
        (
            "peak_rss_mb",
            median(rss_kib.into_values().collect()) / 1024.0,
        ),
    ]);
    let wall_s = total(samples.iter().map(|s| s.op.wall_ns as f64 / 1e9));
    let slowdown = median(samples.iter().map(|s| s.slowdown).collect());
    let unscaled = median(samples.iter().map(|s| s.op.sim_s_per_s()).collect());
    Outcome {
        attempted,
        failed,
        metrics: collect(&values, &END_TO_END),
        notes: vec![
            check.describe(attempted),
            format!(
                "{} samples over seeds {base}..={}; wall_s {wall_s:.3}, host slowdown \
                 {slowdown:.3}, unscaled sim_s_per_s {unscaled:.1} (not gated)",
                samples.len(),
                base.wrapping_add(SEEDS - 1)
            ),
        ],
        trace: None,
    }
}

/// The traced run: untraced comparison operations on seed `base` for
/// about 60% of `seconds` (at least three), then one traced operation on
/// the same seed, whose digest must equal theirs, then the layer probes.
pub fn trace(w: Workload, size: &Size, base: u64, seconds: f64, pins: &Pins) -> Outcome {
    let mut check = Checker::new(w, pins);
    let limit = Duration::from_secs_f64(seconds * 0.6);
    let (refs, mut attempted, failed) = run_for(w, size, limit, &mut check, |_| base);
    let mut tracer = Tracer::on(0);
    attempted += 1;
    let traced = attempt(w, size, base, &mut tracer).filter(|op| check.check(base, op.digest));
    let mut notes = vec![check.describe(attempted)];
    let Some(op) = traced else {
        notes.push("the traced run panicked or its digest differs from the untraced runs".into());
        return Outcome {
            attempted,
            failed: failed + 1,
            metrics: Vec::new(),
            notes,
            trace: Some(tracer),
        };
    };
    notes.push(format!(
        "traced digest {:016x} equals the untraced digest",
        op.digest
    ));
    let run_med = median(refs.iter().map(|s| s.op.run_ns as f64).collect());
    let wall_med = median(refs.iter().map(|s| s.op.wall_ns as f64).collect());
    let probes = probe::run_all(w, size, &op);
    let values = layer_metrics(&op, &tracer.spans, &probes, run_med, wall_med);
    Outcome {
        attempted,
        failed,
        metrics: collect(&values, &PER_LAYER),
        notes,
        trace: Some(tracer),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Sum that is `0.0`, not `-0.0`, when empty.
fn total(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(0.0, |a, b| a + b)
}

fn span_median(spans: &[Span], name: &str) -> f64 {
    median(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect(),
    )
}

/// Per-layer metrics of the traced operation `op`. `run_med` and
/// `wall_med` are the untraced medians of its `Platform::run` time and
/// wall time on the same seed.
fn layer_metrics(
    op: &Op,
    spans: &[Span],
    p: &probe::Probes,
    run_med: f64,
    wall_med: f64,
) -> BTreeMap<&'static str, f64> {
    let c = &op.counts;
    let events = c.events() as f64;
    let runs: Vec<&Span> = spans.iter().filter(|s| s.name == "platform.run").collect();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let peak_heap = runs
        .iter()
        .filter_map(|r| by_id.get(&r.parent))
        .map(|s| s.heap_peak)
        .max()
        .unwrap_or(0);
    // Fleet rounds: shard spans grouped by the round (`fleet.slice`) that
    // ran them.
    let mut rounds: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "fleet.shard_run") {
        rounds.entry(s.parent).or_default().push(s.ns() as f64);
    }
    let imbalance = total(rounds.values().map(|v| {
        ratio(
            v.iter().cloned().fold(0.0, f64::max),
            total(v.iter().cloned()) / v.len() as f64,
        )
    }));
    let shard_ns = total(rounds.values().flatten().cloned());
    let slice_ns = total(
        spans
            .iter()
            .filter(|s| s.name == "fleet.slice")
            .map(|s| s.ns() as f64),
    );
    let coord_msgs = (c.coord_sent + c.coord_retx) as f64;
    let packets = (c.delivered + c.ixp_drops) as f64;
    let share = |count: f64, ns: f64| ratio(count * ns, run_med);
    BTreeMap::from([
        ("platform.events", events),
        ("platform.events_x86", c.x86 as f64),
        ("platform.events_ixp", c.ixp as f64),
        ("platform.events_accel", c.accel as f64),
        ("platform.ns_per_event", ratio(run_med, events)),
        (
            "platform.allocs_per_event",
            ratio(total(runs.iter().map(|s| s.allocs as f64)), events),
        ),
        (
            "platform.alloc_bytes_per_event",
            ratio(total(runs.iter().map(|s| s.alloc_bytes as f64)), events),
        ),
        ("platform.peak_heap_kb", peak_heap as f64 / 1024.0),
        (
            "platform.build_us",
            span_median(spans, "platform.build") / 1e3,
        ),
        ("simcore.queue_ns", p.queue_ns),
        ("xsched.sched_ns", p.sched_ns),
        ("ixp.pkt_ns", p.pkt_ns),
        ("ixp.delivered", c.delivered as f64),
        ("ixp.drop_ratio", ratio(c.ixp_drops as f64, packets)),
        ("ixp.est_share", share(packets, p.pkt_ns)),
        ("pcie.link_ns", p.link_ns),
        ("pcie.mbx_ns", p.mbx_ns),
        ("coord.msgs", c.coord_sent as f64),
        (
            "coord.useful_ratio",
            ratio(c.coord_applied as f64, coord_msgs),
        ),
        ("coord.wire_ns", p.wire_ns),
        ("coord.controller_ns", p.controller_ns),
        (
            "coord.est_share",
            share(coord_msgs, p.wire_ns + p.mbx_ns + p.controller_ns),
        ),
        (
            "coord.retx_ratio",
            ratio(c.coord_retx as f64, c.coord_sent as f64),
        ),
        ("coord.retx_ns", p.retx_ns),
        ("accel.req_ns", p.req_ns),
        ("accel.submitted", c.accel_submitted as f64),
        (
            "accel.mean_batch",
            ratio(c.accel_items as f64, c.accel_batches as f64),
        ),
        (
            "accel.reject_ratio",
            ratio(
                c.accel_rejected as f64,
                (c.accel_submitted + c.accel_rejected) as f64,
            ),
        ),
        ("accel.est_share", share(c.accel_submitted as f64, p.req_ns)),
        ("metrics.records", c.records as f64),
        ("metrics.record_ns", p.record_ns),
        ("metrics.allocs_per_record", p.allocs_per_record),
        ("metrics.est_share", share(c.records as f64, p.record_ns)),
        ("fleet.specs_us", span_median(spans, "fleet.specs") / 1e3),
        ("fleet.absorb_us", span_median(spans, "fleet.absorb") / 1e3),
        ("fleet.bus_ns", p.bus_ns),
        ("fleet.frames", c.frames as f64),
        (
            "fleet.late_ratio",
            ratio(c.late as f64, c.bus_delivered as f64),
        ),
        (
            "fleet.admit_ratio",
            ratio(c.admitted as f64, c.offered as f64),
        ),
        ("fleet.slice_imbalance", imbalance),
        (
            "fleet.pool_util",
            ratio(shard_ns, WORKERS as f64 * slice_ns),
        ),
        ("trace.overhead", ratio(op.wall_ns as f64, wall_med)),
    ])
}

/// The result line the benchmark prints last.
pub fn result_json(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in o.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.failed == 0 && !o.metrics.is_empty(),
        o.attempted.max(1),
        o.failed
    )
}

/// Hands the allocator's free pages back to the kernel and restarts this
/// process's peak-RSS counter (`VmHWM`) at the current RSS, so that each
/// operation's peak is its own and not what earlier ones left cached.
/// Where the kernel refuses the reset, the counter keeps the lifetime peak.
fn fresh_rss_baseline() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only releases free memory that glibc's
        // allocator holds; it takes no pointers and may be called at any
        // time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last reset
/// (`VmHWM`), in KiB; 0 where the kernel does not report it. `getrusage`
/// is no substitute: its peak carries over the parent's footprint from
/// before `exec`.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
