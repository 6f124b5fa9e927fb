//! Properties of the fault-injection and reliable-delivery layer.
//!
//! These pin the contracts ISSUE 3 introduced: message conservation on a
//! faulty mailbox, FIFO delivery whenever reordering is disabled (even
//! across live latency changes), eventual delivery through the ack/retry
//! protocol for any loss rate below 1.0, and byte-level determinism of
//! same-seed faulty runs.

use archipelago::coord::{
    wire, CoordMsg, EntityId, ReliableConfig, ReliableReceiver, ReliableSender,
};
use archipelago::pcie::{FaultProfile, Mailbox};
use archipelago::platform::{PlatformBuilder, PolicyKind, RubisScenario};
use archipelago::simcore::{Nanos, SimRng};
use simtest::gen::{domain, vec_of, zip2, Gen};
use simtest::{check, st_assert, st_assert_eq};

/// `delivered + dropped + in_flight == sent + duplicated` must hold at
/// every observable point, under any fault profile, and in_flight must
/// reach zero once the horizon passes every scheduled arrival.
#[test]
fn mailbox_conserves_messages_under_any_profile() {
    let gen = zip2(domain::fault_profile(), vec_of(Gen::u64_in(0, 500), 1, 60));
    check(
        "mailbox_conserves_messages_under_any_profile",
        &gen,
        |case| {
            let (profile, gaps_us) = case;
            let mut mbx: Mailbox<u32> = Mailbox::new(Nanos::from_micros(30));
            mbx.set_faults(*profile, SimRng::new(0xC0_45EED));
            let mut now = Nanos::ZERO;
            let mut out = Vec::new();
            for (i, &gap) in gaps_us.iter().enumerate() {
                now += Nanos::from_micros(gap);
                mbx.send(now, i as u32);
                st_assert_eq!(
                    mbx.delivered() + mbx.dropped() + mbx.in_flight(),
                    mbx.sent() + mbx.duplicated(),
                    "conservation violated after send {i}"
                );
                if i % 3 == 0 {
                    out.clear();
                    mbx.on_timer(now, &mut out);
                    st_assert_eq!(
                        mbx.delivered() + mbx.dropped() + mbx.in_flight(),
                        mbx.sent() + mbx.duplicated(),
                        "conservation violated after drain at {now:?}"
                    );
                }
            }
            out.clear();
            mbx.on_timer(Nanos::MAX, &mut out);
            st_assert_eq!(
                mbx.in_flight(),
                0,
                "messages stuck in flight at the horizon"
            );
            st_assert_eq!(
                mbx.delivered() + mbx.dropped(),
                mbx.sent() + mbx.duplicated(),
                "final conservation violated"
            );
            Ok(())
        },
    );
}

/// With `reorder_window == 0` the mailbox must deliver in send order no
/// matter what jitter the profile adds and no matter how `set_latency`
/// moves while traffic is in flight. Duplicate copies may repeat a value
/// but never overtake later sends.
#[test]
fn mailbox_is_fifo_whenever_reordering_is_disabled() {
    let profile = domain::fault_profile().map(|p| p.with_reorder(Nanos::ZERO));
    // (inter-send gap µs, latency to switch to µs) per step.
    let step = zip2(Gen::u64_in(0, 200), Gen::u64_in(1, 120));
    let gen = zip2(profile, vec_of(step, 2, 80));
    check(
        "mailbox_is_fifo_whenever_reordering_is_disabled",
        &gen,
        |case| {
            let (profile, steps) = case;
            let mut mbx: Mailbox<usize> = Mailbox::new(Nanos::from_micros(30));
            mbx.set_faults(*profile, SimRng::new(0xF1F0));
            let mut now = Nanos::ZERO;
            for (i, &(gap_us, lat_us)) in steps.iter().enumerate() {
                now += Nanos::from_micros(gap_us);
                mbx.set_latency(Nanos::from_micros(lat_us));
                mbx.send(now, i);
            }
            let mut out = Vec::new();
            mbx.on_timer(Nanos::MAX, &mut out);
            st_assert!(
                out.windows(2).all(|w| w[0] <= w[1]),
                "FIFO violated with reordering disabled: {out:?}"
            );
            if mbx.duplicated() == 0 {
                st_assert!(
                    out.windows(2).all(|w| w[0] < w[1]),
                    "unexpected repeat without duplication: {out:?}"
                );
            }
            Ok(())
        },
    );
}

/// Drives a [`ReliableSender`]/[`ReliableReceiver`] pair over two faulty
/// mailboxes (forward framed data, reverse acks as bare sequence numbers,
/// as on the platform) until no event remains.
/// Returns (accepted, gave_up, pending_left).
fn run_reliable_exchange(profile: FaultProfile, n: u32, seed: u64) -> (u32, u64, usize) {
    let mut fwd: Mailbox<Vec<u8>> = Mailbox::new(Nanos::from_micros(30));
    let mut back: Mailbox<u32> = Mailbox::new(Nanos::from_micros(30));
    fwd.set_faults(profile, SimRng::new(seed ^ 0x0DD));
    back.set_faults(profile, SimRng::new(seed ^ 0xACC));
    // Constant timeout and a deep retry budget: with loss capped at 0.5
    // per direction a round trip succeeds with probability >= 0.25 per
    // attempt, so 200 tries fail with probability ~1e-25.
    let cfg = ReliableConfig {
        ack_timeout: Nanos::from_micros(400),
        backoff: 1,
        max_retries: 200,
        degraded_after: 4,
    };
    let mut tx = ReliableSender::new(cfg);
    let mut rx = ReliableReceiver::new();
    let mut accepted = 0u32;
    let mut buf = Vec::new();
    for i in 0..n {
        let now = Nanos::from_micros(i as u64);
        let msg = CoordMsg::Tune {
            entity: EntityId(i),
            delta: i as i32,
            target: None,
        };
        let seq = tx.send(now, msg);
        buf.clear();
        wire::encode_framed(seq, &msg, &mut buf);
        fwd.send(now, buf.clone());
    }
    let mut out = Vec::new();
    let mut acks = Vec::new();
    let mut retx = Vec::new();
    loop {
        let next = [
            fwd.next_event_time(),
            back.next_event_time(),
            tx.next_timer(),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(now) = next else { break };
        out.clear();
        fwd.on_timer(now, &mut out);
        for bytes in &out {
            let (seq, _, _) = wire::decode_framed(bytes).expect("framed coord msg");
            back.send(now, seq);
            if rx.accept(seq) {
                accepted += 1;
            }
        }
        acks.clear();
        back.on_timer(now, &mut acks);
        for &seq in &acks {
            tx.on_ack(now, seq);
        }
        retx.clear();
        tx.on_timer(now, &mut retx);
        for &(seq, msg) in &retx {
            buf.clear();
            wire::encode_framed(seq, &msg, &mut buf);
            fwd.send(now, buf.clone());
        }
    }
    (accepted, tx.stats().gave_up, tx.pending_len())
}

/// As long as loss stays below 1.0, retransmission must deliver every
/// message exactly once — regardless of duplication, jitter, or
/// reordering riding along on the same profile.
#[test]
fn retransmission_eventually_delivers_every_message() {
    let gen = zip2(
        zip2(domain::fault_profile(), Gen::u64_any()),
        Gen::u32_in(1, 30),
    );
    check(
        "retransmission_eventually_delivers_every_message",
        &gen,
        |case| {
            let ((profile, seed), n) = case;
            let (accepted, gave_up, pending) = run_reliable_exchange(*profile, *n, *seed);
            st_assert_eq!(accepted, *n, "not every message was accepted exactly once");
            st_assert_eq!(gave_up, 0, "sender gave up despite loss < 1.0");
            st_assert_eq!(pending, 0, "sender still holds pending entries after drain");
            Ok(())
        },
    );
}

/// Two runs of the same faulty mailbox schedule from the same seed must
/// produce identical delivery sequences and identical counters.
#[test]
fn same_seed_faulty_runs_are_identical() {
    let gen = zip2(
        zip2(domain::fault_profile(), Gen::u64_any()),
        vec_of(Gen::u64_in(0, 300), 1, 60),
    );
    check("same_seed_faulty_runs_are_identical", &gen, |case| {
        let ((profile, seed), gaps_us) = case;
        let run = || {
            let mut mbx: Mailbox<u32> = Mailbox::new(Nanos::from_micros(25));
            mbx.set_faults(*profile, SimRng::new(*seed));
            let mut now = Nanos::ZERO;
            let mut log = Vec::new();
            let mut out = Vec::new();
            for (i, &gap) in gaps_us.iter().enumerate() {
                now += Nanos::from_micros(gap);
                mbx.send(now, i as u32);
                out.clear();
                mbx.on_timer(now, &mut out);
                log.extend(out.iter().copied());
            }
            out.clear();
            mbx.on_timer(Nanos::MAX, &mut out);
            log.extend(out.iter().copied());
            (
                log,
                mbx.sent(),
                mbx.delivered(),
                mbx.dropped(),
                mbx.duplicated(),
            )
        };
        st_assert_eq!(run(), run(), "same-seed faulty runs diverged");
        Ok(())
    });
}

/// Full-platform determinism: an identical faulty, reliable build must
/// reproduce the exact same report twice.
#[test]
fn faulty_platform_runs_are_deterministic() {
    let run = || {
        let mut sim = PlatformBuilder::new()
            .seed(42)
            .policy(PolicyKind::RequestType)
            .fault_profile(FaultProfile::none().with_drop(0.2).with_dup(0.05))
            .reliable_delivery(ReliableConfig::default())
            .build_rubis(RubisScenario::read_write_mix(8));
        let r = sim.run(Nanos::from_secs(5));
        (
            r.rubis.completed,
            r.rubis.throughput.to_bits(),
            r.coord.messages_sent,
            r.coord.channel_drops,
            r.coord.channel_dups,
            r.coord.retransmits,
            r.coord.acked,
            r.coord.dup_suppressed,
            r.coord.tunes_applied,
        )
    };
    assert_eq!(run(), run(), "same-seed faulty platform runs diverged");
}

/// Integration: under 30% loss with reliable delivery on, the channel
/// machinery must actually engage (drops happen, retransmits recover
/// them, tunes still land) rather than silently degrade to no-ops.
#[test]
fn reliable_delivery_recovers_tunes_under_loss() {
    let mut sim = PlatformBuilder::new()
        .seed(7)
        .policy(PolicyKind::RequestType)
        .fault_profile(FaultProfile::none().with_drop(0.3))
        .reliable_delivery(ReliableConfig::default())
        .build_rubis(RubisScenario::read_write_mix(8));
    let r = sim.run(Nanos::from_secs(20));
    assert!(
        r.coord.messages_sent > 0,
        "policy sent no coordination messages"
    );
    assert!(
        r.coord.channel_drops > 0,
        "fault layer never dropped at 30% loss"
    );
    assert!(r.coord.retransmits > 0, "no retransmissions despite drops");
    assert!(r.coord.acked > 0, "no acks made it back");
    assert!(
        r.coord.tunes_applied > 0,
        "no tunes survived the lossy channel"
    );
}

/// A default build (no fault profile, no reliable config) must report
/// all-zero channel fault counters — the new machinery is pay-as-you-go.
#[test]
fn default_build_reports_zero_fault_counters() {
    let mut sim = PlatformBuilder::new()
        .seed(7)
        .policy(PolicyKind::RequestType)
        .build_rubis(RubisScenario::read_write_mix(8));
    let r = sim.run(Nanos::from_secs(5));
    assert_eq!(r.coord.channel_drops, 0);
    assert_eq!(r.coord.channel_dups, 0);
    assert_eq!(r.coord.retransmits, 0);
    assert_eq!(r.coord.acked, 0);
    assert_eq!(r.coord.gave_up, 0);
    assert_eq!(r.coord.dup_suppressed, 0);
    assert_eq!(r.coord.degraded_entries, 0);
    assert_eq!(r.coord.degraded_suppressed, 0);
}
