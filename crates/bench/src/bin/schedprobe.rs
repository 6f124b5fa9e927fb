//! Minimal scheduler-only probe reproducing the Figure-6 contention
//! pattern without the platform: two paced decoders against a two-stream
//! Dom0 chunk workload. Useful when bisecting credit-scheduler dynamics
//! (it also demonstrates the UNDER-FIFO starvation trap that global
//! rebalancing does not address, since no priority inversion exists).

use simcore::Nanos;
use xsched::{Burst, CreditScheduler, SchedConfig, SchedEvent, WakeMode};

fn main() {
    let mut s = CreditScheduler::new(SchedConfig::new(2));
    let dom0 = s.create_domain("dom0", 256, 2);
    let d1 = s.create_domain("d1", 256, 1);
    let d2 = s.create_domain("d2", 256, 1);

    // dom0: two continuous 30ms chunk streams (resubmitted on completion).
    // d1: 32ms bursts arriving every 47.6ms (paced, boost wake).
    // d2: 35ms bursts arriving every 38.1ms.
    let mut next_arrival1 = Nanos::ZERO;
    let mut next_arrival2 = Nanos::ZERO;
    for tag in [1u64, 2] {
        s.submit(
            Nanos::ZERO,
            dom0,
            Burst::system(Nanos::from_millis(30), tag),
            WakeMode::Plain,
        )
        .unwrap();
    }
    let t_end = Nanos::from_secs(60);
    let mut now = Nanos::ZERO;
    let mut pending = Vec::new();
    while now < t_end {
        let next_event = s.next_event_time().unwrap_or(Nanos::MAX);
        let t = next_event.min(next_arrival1).min(next_arrival2).min(t_end);
        now = t;
        if t == next_arrival1 {
            pending.extend(
                s.submit(
                    t,
                    d1,
                    Burst::user(Nanos::from_millis(32), 10),
                    WakeMode::Boost,
                )
                .unwrap(),
            );
            next_arrival1 += Nanos::from_micros(47_600);
        }
        if t == next_arrival2 {
            pending.extend(
                s.submit(
                    t,
                    d2,
                    Burst::user(Nanos::from_millis(35), 20),
                    WakeMode::Boost,
                )
                .unwrap(),
            );
            next_arrival2 += Nanos::from_micros(38_100);
        }
        if t == next_event {
            s.on_timer(t, &mut pending);
        }
        for ev in pending.drain(..) {
            let SchedEvent::Completed { dom, tag, .. } = ev;
            if dom == dom0 {
                pending_resubmit(&mut s, t, dom, tag);
            }
        }
    }
    bench::summary::print_sched_usage(&mut s, &[(dom0, "dom0"), (d1, "d1"), (d2, "d2")]);
}

fn pending_resubmit(s: &mut CreditScheduler, t: Nanos, dom: xsched::DomId, tag: u64) {
    let _ = s.submit(
        t,
        dom,
        Burst::system(Nanos::from_millis(30), tag),
        WakeMode::Plain,
    );
}
