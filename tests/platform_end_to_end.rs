//! End-to-end integration tests across all crates: the assembled platform
//! must reproduce the paper's qualitative results deterministically.

use archipelago::coord::PolicyKind;
use archipelago::platform::{MplayerScenario, PlatformBuilder, RubisScenario, RunReport};
use archipelago::simcore::Nanos;

fn rubis(policy: PolicyKind, seed: u64, secs: u64) -> RunReport {
    let mut sim = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .build_rubis(RubisScenario::read_write_mix(24));
    sim.run(Nanos::from_secs(secs))
}

#[test]
fn rubis_baseline_completes_requests() {
    let r = rubis(PolicyKind::None, 1, 30);
    assert!(r.rubis.completed > 500, "completed {}", r.rubis.completed);
    assert!(r.rubis.throughput > 20.0);
    assert!(r.rubis.sessions > 10);
    assert!(r.rubis.responses.types() >= 14, "most request types seen");
    // Every response is positive and bounded by the run length.
    let o = r.rubis.responses.overall();
    assert!(o.min() > 0.0);
    assert!(o.max() < 30_000.0);
}

#[test]
fn rubis_is_deterministic_per_seed() {
    let a = rubis(PolicyKind::RequestType, 42, 20);
    let b = rubis(PolicyKind::RequestType, 42, 20);
    assert_eq!(a.rubis.completed, b.rubis.completed);
    assert_eq!(a.coord.messages_sent, b.coord.messages_sent);
    assert_eq!(a.net.guest_drops, b.net.guest_drops);
    let c = rubis(PolicyKind::RequestType, 43, 20);
    assert_ne!(
        (a.rubis.completed, a.net.guest_drops),
        (c.rubis.completed, c.net.guest_drops),
        "different seeds should differ"
    );
}

#[test]
fn coordination_tames_tails_across_seeds() {
    // The paper's Figure 4 claim: peak-latency alleviation and lower
    // per-run standard deviation. σ improves on every seed; maxima and
    // drops improve in aggregate.
    let mut agg = [(0.0f64, 0.0f64, 0u64), (0.0, 0.0, 0)]; // (sd, max, drops)
    for seed in [42, 7, 99, 1234, 5, 777] {
        for (i, policy) in [PolicyKind::None, PolicyKind::RequestType]
            .into_iter()
            .enumerate()
        {
            let r = rubis(policy, seed, 300);
            let o = r.rubis.responses.overall().clone();
            agg[i].0 += o.std_dev();
            agg[i].1 += o.max();
            agg[i].2 += r.net.guest_drops;
        }
    }
    let (base, coord) = (agg[0], agg[1]);
    assert!(
        coord.0 < base.0 * 0.9,
        "σ falls ≥10% in aggregate: {:.0} vs {:.0}",
        coord.0,
        base.0
    );
    assert!(
        coord.1 < base.1 * 0.9,
        "peak latencies alleviated: {:.0} vs {:.0}",
        coord.1,
        base.1
    );
    assert!(
        coord.2 < base.2,
        "overflow drops fall in aggregate: {} vs {}",
        coord.2,
        base.2
    );
}

#[test]
fn coordination_messages_flow_and_none_rejected() {
    let r = rubis(PolicyKind::RequestType, 42, 30);
    assert!(r.coord.messages_sent > 100, "per-request regime flips");
    assert!(
        r.coord.bytes_sent >= r.coord.messages_sent * 11,
        "11-byte tunes"
    );
    assert_eq!(r.coord.rejected, 0, "all entities registered");
    // Serialized application may leave a few messages in flight at the
    // end of the run; none are lost on the way.
    assert!(r.coord.tunes_applied <= r.coord.messages_sent);
    assert!(r.coord.messages_sent - r.coord.tunes_applied < 20);
}

#[test]
fn baseline_sends_no_coordination() {
    let r = rubis(PolicyKind::None, 42, 20);
    assert_eq!(r.coord.messages_sent, 0);
    assert_eq!(r.coord.tunes_applied, 0);
    assert_eq!(r.coord.triggers_applied, 0);
}

#[test]
fn hysteresis_sends_far_fewer_messages() {
    let per_request = rubis(PolicyKind::RequestType, 42, 30);
    let hysteresis = rubis(PolicyKind::RequestTypeHysteresis, 42, 30);
    assert!(
        hysteresis.coord.messages_sent * 10 < per_request.coord.messages_sent,
        "hysteresis {} vs per-request {}",
        hysteresis.coord.messages_sent,
        per_request.coord.messages_sent
    );
}

#[test]
fn browsing_mix_issues_only_read_types() {
    let mut sim = PlatformBuilder::new()
        .seed(5)
        .build_rubis(RubisScenario::browsing_mix(12));
    let r = sim.run(Nanos::from_secs(20));
    for (name, _) in r.rubis.responses.iter() {
        assert!(
            !matches!(
                name,
                "Register"
                    | "BuyNow"
                    | "PutBidAuth"
                    | "PutBid"
                    | "StoreBid"
                    | "PutComment"
                    | "Sell"
            ),
            "write type {name} in browsing mix"
        );
    }
}

#[test]
fn cpu_accounting_is_consistent() {
    let r = rubis(PolicyKind::None, 9, 30);
    let sum: f64 = r.cpu.iter().map(|d| d.percent).sum();
    assert!((sum - r.total_cpu_percent).abs() < 1e-6);
    // Two pCPUs bound the total.
    assert!(r.total_cpu_percent <= 200.0 + 1e-6);
    for d in &r.cpu {
        assert!(
            (d.user + d.system - d.percent).abs() < 0.5,
            "{}: user {} + sys {} != {}",
            d.name,
            d.user,
            d.system,
            d.percent
        );
    }
    // The web/app/db tiers do real work in a saturated run.
    for name in ["web", "app", "db"] {
        assert!(r.cpu_percent(name) > 10.0, "{name} busy");
    }
}

#[test]
fn cpu_series_sampled_once_per_second() {
    let r = rubis(PolicyKind::None, 3, 20);
    let (_, series) = r
        .cpu_series
        .iter()
        .find(|(n, _)| n == "web")
        .expect("web series");
    assert!(
        (series.len() as i64 - 20).abs() <= 1,
        "one sample per second, got {}",
        series.len()
    );
}

#[test]
fn figure6_shape_holds() {
    let run = |w1, w2| {
        let mut sim = PlatformBuilder::new()
            .seed(42)
            .build_mplayer(MplayerScenario::figure6(w1, w2));
        let r = sim.run(Nanos::from_secs(60));
        (
            r.player("dom1").unwrap().achieved_fps,
            r.player("dom2").unwrap().achieved_fps,
        )
    };
    let (d1_base, d2_base) = run(256, 256);
    let (d1_coord, d2_coord) = run(384, 512);
    assert!(d1_base < 20.0, "dom1 misses at default weights: {d1_base}");
    assert!(d2_base < 25.0, "dom2 misses at default weights: {d2_base}");
    assert!(d1_coord >= 20.0, "dom1 meets when coordinated: {d1_coord}");
    assert!(d2_coord >= 25.0, "dom2 meets when coordinated: {d2_coord}");
    assert!(d2_coord > d2_base + 3.0, "dom2 improves substantially");
}

#[test]
fn trigger_coordination_improves_boosted_domain() {
    let run = |policy| {
        let mut sim = PlatformBuilder::new()
            .seed(42)
            .policy(policy)
            .build_mplayer(MplayerScenario::trigger_setup());
        sim.run(Nanos::from_secs(120))
    };
    let base = run(PolicyKind::None);
    let coord = run(PolicyKind::BufferTrigger);
    let b1 = base.player("dom1").unwrap().achieved_fps;
    let c1 = coord.player("dom1").unwrap().achieved_fps;
    let b2 = base.player("dom2").unwrap().achieved_fps;
    let c2 = coord.player("dom2").unwrap().achieved_fps;
    assert!(c1 > b1 * 1.03, "boosted domain gains ≥3%: {b1} → {c1}");
    assert!(c2 < b2, "colocated domain pays: {b2} → {c2}");
    assert!(c2 > b2 * 0.85, "interference bounded: {b2} → {c2}");
    assert!(coord.coord.triggers_applied > 100);
    assert_eq!(base.coord.triggers_applied, 0);
    // The monitored buffer drains under coordination.
    assert!(coord.buffer_series.mean() < base.buffer_series.mean() * 0.8);
}

#[test]
fn trigger_rate_limit_bounds_interference() {
    let run = |rate: f64| {
        let mut sim = PlatformBuilder::new()
            .seed(42)
            .policy(PolicyKind::BufferTrigger)
            .trigger_rate_limit(rate)
            .build_mplayer(MplayerScenario::trigger_setup());
        sim.run(Nanos::from_secs(60))
    };
    let slow = run(0.5);
    let fast = run(50.0);
    assert!(slow.coord.triggers_applied < fast.coord.triggers_applied);
}

#[test]
fn channel_latency_is_configurable() {
    // A glacial channel must not break anything — coordination still
    // applies, just late.
    let mut sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::RequestType)
        .coord_latency(Nanos::from_millis(50))
        .build_rubis(RubisScenario::read_write_mix(24));
    let r = sim.run(Nanos::from_secs(20));
    assert!(r.coord.tunes_applied > 0);
    assert!(r.rubis.completed > 200);
}

#[test]
fn report_player_and_cpu_lookups() {
    let mut sim = PlatformBuilder::new()
        .seed(1)
        .build_mplayer(MplayerScenario::figure6(256, 256));
    let r = sim.run(Nanos::from_secs(10));
    assert!(r.player("dom1").is_some());
    assert!(r.player("nope").is_none());
    assert!(r.cpu_percent("dom0") >= 0.0);
    assert_eq!(r.cpu_percent("nope"), 0.0);
    assert!(r.rubis.completed == 0, "no rubis in mplayer scenario");
}

#[test]
fn power_cap_holds_and_priority_strategy_preserves_qos() {
    use archipelago::platform::PowerStrategy;
    let run = |cap: Option<(f64, PowerStrategy)>| {
        let mut b = PlatformBuilder::new().seed(42);
        if let Some((w, s)) = cap {
            b = b.power_cap(w, s);
        }
        let mut sim = b.build_mplayer(MplayerScenario::figure6(384, 512));
        sim.run(Nanos::from_secs(90))
    };
    let uncapped = run(None);
    assert!(
        uncapped.power.mean_watts > 110.0,
        "{}",
        uncapped.power.mean_watts
    );
    assert_eq!(uncapped.power.cap_actions, 0);
    let naive = run(Some((105.0, PowerStrategy::BiggestConsumer)));
    let coord = run(Some((
        105.0,
        PowerStrategy::Priority(vec!["dom0".into(), "dom1".into(), "dom2".into()]),
    )));
    for r in [&naive, &coord] {
        assert!(r.power.cap_actions > 0, "governor acted");
        assert!(
            r.power.mean_watts < uncapped.power.mean_watts - 5.0,
            "power actually fell: {}",
            r.power.mean_watts
        );
    }
    let fps2 = |r: &RunReport| r.player("dom2").unwrap().achieved_fps;
    assert!(
        fps2(&coord) > fps2(&naive) + 5.0,
        "priority strategy preserves the high-priority stream: {} vs {}",
        fps2(&coord),
        fps2(&naive)
    );
    assert!(fps2(&coord) > 24.0, "dom2 still streams: {}", fps2(&coord));
}

#[test]
fn power_series_is_sampled_for_every_run() {
    let mut sim = PlatformBuilder::new()
        .seed(3)
        .build_rubis(RubisScenario::read_write_mix(24));
    let r = sim.run(Nanos::from_secs(10));
    assert!((r.power.series.len() as i64 - 10).abs() <= 1);
    assert!(r.power.mean_watts > 40.0, "at least CPU idle + IXP static");
    assert!(r.power.cap_watts.is_none());
}

#[test]
fn stream_qos_policy_tunes_from_rtsp_setup() {
    let mut sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::StreamQos)
        .build_mplayer(MplayerScenario::figure6(256, 256));
    let r = sim.run(Nanos::from_secs(30));
    // One high-rate stream (weight + tandem thread tune) and one low-rate
    // stream (weight decrease): at least three tunes total.
    assert!(r.coord.messages_sent >= 3, "msgs {}", r.coord.messages_sent);
    assert!(r.coord.tunes_applied >= 3);
    assert_eq!(r.coord.rejected, 0);
}
