//! Platform mechanism tests: retransmission, admission control,
//! receive-window backpressure, and the coordination apply path.

use coord::PolicyKind;
use platform::{MplayerScenario, PlatformBuilder, RubisScenario};
use simcore::Nanos;

#[test]
fn overload_produces_drops_and_retransmissions_recover() {
    // Brutally small queues: many drops, yet every client keeps making
    // progress because retransmission recovers lost requests.
    let mut scen = RubisScenario::read_write_mix(24);
    scen.rx_window = 2;
    let mut sim = PlatformBuilder::new()
        .seed(11)
        .queue_caps(2, 3)
        .build_rubis(scen);
    let r = sim.run(Nanos::from_secs(60));
    assert!(
        r.net.guest_drops > 100,
        "tiny queues overflow: {}",
        r.net.guest_drops
    );
    assert!(
        r.rubis.completed > 500,
        "clients still complete requests via retransmission: {}",
        r.rubis.completed
    );
    // Retransmission tails show up in the maxima.
    assert!(
        r.rubis.responses.overall().max() > 400.0,
        "timeout tails visible: {}",
        r.rubis.responses.overall().max()
    );
}

#[test]
fn generous_queues_eliminate_drops() {
    let mut scen = RubisScenario::read_write_mix(24);
    scen.rx_window = 64;
    let mut sim = PlatformBuilder::new()
        .seed(11)
        .queue_caps(64, 200)
        .build_rubis(scen);
    let r = sim.run(Nanos::from_secs(30));
    assert_eq!(r.net.guest_drops, 0, "no admission pressure, no drops");
    assert!(r.rubis.completed > 500);
}

#[test]
fn rto_knob_shapes_retransmission_pressure() {
    // Short client timeouts retransmit aggressively into the overloaded
    // tiers (more duplicate sends, more drops); long timeouts park the
    // client instead. Tails exceed the respective timeout either way.
    let run = |rto_ms: u64| {
        let mut sim = PlatformBuilder::new()
            .seed(7)
            .rto_initial(Nanos::from_millis(rto_ms))
            .queue_caps(4, 6)
            .build_rubis(RubisScenario::read_write_mix(24));
        sim.run(Nanos::from_secs(60))
    };
    let short = run(300);
    let long = run(3_000);
    assert!(short.net.guest_drops > 0, "scenario actually drops");
    assert!(
        short.net.guest_drops > long.net.guest_drops,
        "aggressive timeouts retransmit more into the overload: {} vs {}",
        short.net.guest_drops,
        long.net.guest_drops
    );
    assert!(short.rubis.responses.overall().max() > 300.0);
    assert!(long.rubis.responses.overall().max() > 3_000.0);
}

#[test]
fn mplayer_backpressure_parks_frames_on_the_ixp() {
    // A starved decoder cannot consume; the guest receive window closes
    // and frames pile up in IXP DRAM (the Figure 7 mechanism), without a
    // single packet being lost.
    let mut scen = MplayerScenario::trigger_setup();
    scen.buffer_threshold = None; // no triggers: pure backpressure
    let mut sim = PlatformBuilder::new().seed(13).build_mplayer(scen);
    let r = sim.run(Nanos::from_secs(120));
    assert!(
        r.buffer_series.max_value().unwrap_or(0.0) > 100_000.0,
        "standing queue forms: {:?}",
        r.buffer_series.max_value()
    );
    assert_eq!(r.net.ixp_drops, 0, "backpressure, not loss");
    let d1 = r.player("dom1").unwrap();
    assert!(d1.achieved_fps < d1.target_fps as f64, "decoder is starved");
}

#[test]
fn coordination_latency_delays_but_does_not_lose_tunes() {
    let run = |latency_us: u64| {
        let mut sim = PlatformBuilder::new()
            .seed(21)
            .policy(PolicyKind::RequestType)
            .coord_latency(Nanos::from_micros(latency_us))
            .build_rubis(RubisScenario::read_write_mix(24));
        sim.run(Nanos::from_secs(20))
    };
    let fast = run(1);
    let slow = run(10_000);
    // Applications are serialized through Dom0, so a handful may still be
    // in flight when the run ends — but none are lost along the way.
    for r in [&fast, &slow] {
        assert!(r.coord.tunes_applied <= r.coord.messages_sent);
        assert!(
            r.coord.messages_sent - r.coord.tunes_applied < 20,
            "only end-of-run residue unapplied: {} of {}",
            r.coord.tunes_applied,
            r.coord.messages_sent
        );
    }
    assert!(slow.coord.messages_sent > 100);
}

#[test]
fn weight_override_changes_outcomes() {
    let run = |override_weights: bool| {
        let mut sim = PlatformBuilder::new()
            .seed(9)
            .build_rubis(RubisScenario::read_write_mix(24));
        if override_weights {
            assert!(sim.set_weight_by_name("app", 1024));
            assert!(sim.set_weight_by_name("db", 1024));
            assert!(!sim.set_weight_by_name("ghost", 1));
        }
        sim.run(Nanos::from_secs(30))
    };
    let base = run(false);
    let boosted = run(true);
    assert_ne!(
        base.rubis.completed, boosted.rubis.completed,
        "static weights change the execution"
    );
}

#[test]
fn ixp_flow_thread_override_by_vm() {
    let mut sim = PlatformBuilder::new()
        .seed(3)
        .build_mplayer(MplayerScenario::figure6(256, 256));
    assert!(sim.set_flow_threads_by_vm(1, 6));
    assert!(sim.set_flow_threads_by_vm(2, 6));
    assert!(!sim.set_flow_threads_by_vm(99, 6));
    let r = sim.run(Nanos::from_secs(10));
    assert!(r.net.delivered > 100);
}

#[test]
fn coordination_trace_records_applied_decisions() {
    let mut sim = PlatformBuilder::new()
        .seed(2)
        .policy(PolicyKind::RequestType)
        .build_rubis(RubisScenario::read_write_mix(24));
    let r = sim.run(Nanos::from_secs(10));
    assert!(r.coord.tunes_applied > 10);
    let trace: Vec<_> = sim.coordination_trace().collect();
    assert!(!trace.is_empty(), "decisions were traced");
    assert!(trace.len() <= 512, "bounded history");
    assert!(
        trace.iter().all(|(_, m)| m.starts_with("tune ")),
        "rubis run applies tunes only"
    );
    // Timestamps are non-decreasing.
    for w in trace.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
}
