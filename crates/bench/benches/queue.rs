//! Churn benchmarks for the heap-backed [`EventQueue`]: schedule and pop
//! mixes at three horizon regimes — imminent (about 2 µs), near
//! (about 1 ms) and far (up to 100 ms) — plus a mixed workload shaped like
//! the platform's steady state. The heap treats every horizon alike; the
//! regimes (and bench names) are kept so results compare across
//! implementations. `queue/churn_fixed_delay` runs the master queue's
//! RTO pattern once through the heap and once through the FIFO lane.

use simcore::{EventQueue, Nanos, SimRng};
use simtest::BenchSuite;
use std::hint::black_box;

/// One schedule+pop cycle of `n` events whose horizons are drawn
/// uniformly from `[1, span]` ns past the current virtual time.
fn schedule_pop_cycle(rng: &mut SimRng, span: u64, n: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut now = 0u64;
    let mut sum = 0u64;
    for i in 0..n {
        q.schedule(Nanos(now + 1 + rng.next_u64() % span), i);
        // Drain every other event so virtual time advances as it would in
        // a live simulation instead of the queue filling up and emptying
        // once.
        if i % 2 == 1 {
            if let Some((t, v)) = q.pop() {
                now = t.0;
                sum += v;
            }
        }
    }
    while let Some((_, v)) = q.pop() {
        sum += v;
    }
    black_box(sum)
}

fn main() {
    let mut suite = BenchSuite::new("queue");

    // Horizon regimes: imminent events fall within a few microseconds,
    // near events within about a millisecond, far events up to 100 ms
    // out (the platform's retransmit and think-time timers).
    let mut rng = SimRng::new(11);
    suite.bench("queue/schedule_pop_imminent_1k", || {
        schedule_pop_cycle(&mut rng, 2_000, 1000)
    });
    let mut rng = SimRng::new(12);
    suite.bench("queue/schedule_pop_near_1k", || {
        schedule_pop_cycle(&mut rng, 1_000_000, 1000)
    });
    let mut rng = SimRng::new(13);
    suite.bench("queue/schedule_pop_far_1k", || {
        schedule_pop_cycle(&mut rng, 100_000_000, 1000)
    });

    // Steady-state churn against a persistent queue: every iteration
    // schedules one long timer and one imminent event, then pops twice:
    // the imminent event and the earliest long timer, which fires stale
    // and is ignored (the retransmit/RTO pattern — most timers are no
    // longer wanted when they fire). Queue depth stays flat at 256, so
    // the loop measures churn, not growth.
    let mut rng = SimRng::new(14);
    let mut q = EventQueue::new();
    let mut now = 0u64;
    for i in 0..256u64 {
        q.schedule(Nanos(10_000_000 + rng.next_u64() % 1_000_000), i);
    }
    suite.bench("queue/churn_mixed", || {
        q.schedule(Nanos(now + 10_000_000 + rng.next_u64() % 1_000_000), 0);
        q.schedule(Nanos(now + 1 + rng.next_u64() % 2_000), 1);
        for _ in 0..2 {
            if let Some((t, v)) = q.pop() {
                now = t.0;
                black_box(v);
            }
        }
        black_box(q.len())
    });

    // The master queue on `inference_mix`: about 350 pending 500 ms
    // timers (one per request sent in the last RTO period) under a stream
    // of imminent events. Every iteration arms one timer at `now + 500 ms`
    // and schedules one imminent event, then pops twice, so depth stays
    // flat and the earliest timer fires stale. `heap` arms the timer with
    // `schedule`, `lane` with `schedule_fifo`.
    for (name, lane) in [
        ("queue/churn_fixed_delay/heap", false),
        ("queue/churn_fixed_delay/lane", true),
    ] {
        const RTO: u64 = 500_000_000;
        let arm = |q: &mut EventQueue<u64>, t: u64| {
            if lane {
                q.schedule_fifo(Nanos(t), 0)
            } else {
                q.schedule(Nanos(t), 0)
            }
        };
        let mut rng = SimRng::new(15);
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for i in 0..350u64 {
            arm(&mut q, i * RTO / 350);
        }
        suite.bench(name, || {
            arm(&mut q, now + RTO);
            q.schedule(Nanos(now + 1 + rng.next_u64() % 2_000), 1);
            for _ in 0..2 {
                if let Some((t, v)) = q.pop() {
                    now = t.0;
                    black_box(v);
                }
            }
            black_box(q.len())
        });
    }

    suite.finish();
}
