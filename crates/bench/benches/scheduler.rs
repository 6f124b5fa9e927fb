//! Credit-scheduler benchmarks: simulated-second throughput and the cost
//! of the coordination entry points (weight change, trigger boost).

use simcore::Nanos;
use simtest::BenchSuite;
use std::hint::black_box;
use xsched::{Burst, CreditScheduler, SchedConfig, WakeMode};

/// Builds a loaded scheduler: 4 domains on 2 pCPUs, all saturated.
fn loaded() -> CreditScheduler {
    let mut s = CreditScheduler::new(SchedConfig::new(2));
    for i in 0..4 {
        let d = s.create_domain(&format!("d{i}"), 256, 1);
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_secs(3600), i),
            WakeMode::Plain,
        )
        .unwrap();
    }
    s
}

fn main() {
    let mut suite = BenchSuite::new("scheduler");

    // Whole-run bench: each sample simulates a full saturated second.
    suite.bench_n("sched/simulate_1s_saturated", 20, || {
        let mut s = loaded();
        let mut evs = Vec::new();
        while let Some(t) = s.next_event_time() {
            if t > Nanos::from_secs(1) {
                break;
            }
            evs.clear();
            s.on_timer(t, &mut evs);
            black_box(&evs);
        }
        s
    });

    let mut s = CreditScheduler::new(SchedConfig::new(2));
    let d = s.create_domain("d", 256, 1);
    let mut now = Nanos::ZERO;
    let mut tag = 0u64;
    let mut evs = Vec::new();
    suite.bench("sched/submit_and_complete", || {
        tag += 1;
        s.submit(
            now,
            d,
            Burst::user(Nanos::from_micros(10), tag),
            WakeMode::Boost,
        )
        .unwrap();
        let t = s.next_event_time().expect("completion pending");
        now = t;
        evs.clear();
        s.on_timer(t, &mut evs);
        black_box(&evs);
    });

    let mut s = loaded();
    let d = xsched::DomId(1);
    let mut w = 256;
    suite.bench("sched/set_weight", || {
        w = if w == 256 { 512 } else { 256 };
        s.set_weight(d, black_box(w)).unwrap()
    });

    let mut s = loaded();
    let d = xsched::DomId(2);
    let mut now = Nanos::ZERO;
    suite.bench("sched/trigger_boost_front", || {
        now += Nanos(1000);
        black_box(s.trigger(now, d).unwrap())
    });

    let mut s = loaded();
    let mut evs = Vec::new();
    while let Some(t) = s.next_event_time() {
        if t > Nanos::from_millis(100) {
            break;
        }
        evs.clear();
        s.on_timer(t, &mut evs);
    }
    suite.bench("sched/usage_snapshot", || black_box(s.usage_snapshot()));

    suite.finish();
}
