//! World-stepping and report-generation tests: short deterministic runs
//! asserting the accounting identities a `RunReport` promises.

use coord::PolicyKind;
use platform::{
    FaultProfile, InferenceScenario, MplayerScenario, PlatformBuilder, ReliableConfig,
    RubisScenario,
};
use power::Strategy;
use simcore::Nanos;

const SECS: u64 = 10;

fn short_rubis(policy: PolicyKind, seed: u64) -> platform::RunReport {
    let mut sim = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .build_rubis(RubisScenario::read_write_mix(12));
    sim.run(Nanos::from_secs(SECS))
}

#[test]
fn rubis_run_accounting_is_consistent() {
    let r = short_rubis(PolicyKind::None, 7);
    assert_eq!(r.duration, Nanos::from_secs(SECS));
    assert!(r.rubis.completed > 0, "a loaded run completes requests");
    let expected_tput = r.rubis.completed as f64 / SECS as f64;
    assert!(
        (r.rubis.throughput - expected_tput).abs() < 1e-6,
        "throughput {} != completed/duration {expected_tput}",
        r.rubis.throughput
    );
    // CPU accounting: the total is the per-domain sum, each domain's
    // user+system splits stay within its total, and dom0 exists.
    let sum: f64 = r.cpu.iter().map(|d| d.percent).sum();
    assert!((r.total_cpu_percent - sum).abs() < 1e-6);
    assert!(r.cpu.iter().any(|d| d.name == "dom0"));
    for d in &r.cpu {
        assert!(
            d.percent >= 0.0 && d.percent <= 100.0 + 1e-6,
            "{}: {}",
            d.name,
            d.percent
        );
        assert!(
            d.user + d.system <= d.percent + 1e-6,
            "{}: user {} + system {} > total {}",
            d.name,
            d.user,
            d.system,
            d.percent
        );
    }
    // Network accounting: traffic flowed and every response series is
    // non-empty for a type that completed requests.
    assert!(r.net.delivered > 0, "packets reached the guests");
    assert!(r.rubis.responses.iter().count() > 0);
    // One CPU series per reported domain, sampled roughly once a second.
    assert_eq!(r.cpu_series.len(), r.cpu.len());
    for (name, series) in &r.cpu_series {
        assert!(!series.is_empty(), "{name} series empty");
    }
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let a = short_rubis(PolicyKind::RequestType, 42);
    let b = short_rubis(PolicyKind::RequestType, 42);
    assert_eq!(a.rubis.completed, b.rubis.completed);
    assert_eq!(a.rubis.throughput, b.rubis.throughput);
    assert_eq!(a.total_cpu_percent, b.total_cpu_percent);
    assert_eq!(a.coord.messages_sent, b.coord.messages_sent);
    assert_eq!(a.coord.tunes_applied, b.coord.tunes_applied);
    assert_eq!(a.net.delivered, b.net.delivered);
}

#[test]
fn different_seeds_change_the_run() {
    let a = short_rubis(PolicyKind::None, 1);
    let b = short_rubis(PolicyKind::None, 2);
    // Same workload shape, different arrivals: some observable must move.
    assert!(
        a.rubis.completed != b.rubis.completed
            || a.total_cpu_percent != b.total_cpu_percent
            || a.net.delivered != b.net.delivered,
        "seed change had no observable effect"
    );
}

#[test]
fn coordination_policy_sends_traffic_baseline_does_not() {
    let base = short_rubis(PolicyKind::None, 42);
    let coord = short_rubis(PolicyKind::RequestType, 42);
    assert_eq!(base.coord.messages_sent, 0, "baseline is silent");
    assert_eq!(base.coord.tunes_applied, 0);
    assert!(
        coord.coord.messages_sent > 0,
        "request-type policy coordinates under load"
    );
    assert!(
        coord.coord.bytes_sent >= coord.coord.messages_sent,
        "wire messages are ≥ 1 byte"
    );
    assert!(coord.coord.tunes_applied <= coord.coord.messages_sent);
}

#[test]
fn mplayer_run_reports_every_player() {
    let mut sim = PlatformBuilder::new()
        .seed(5)
        .policy(PolicyKind::None)
        .build_mplayer(MplayerScenario::figure6(256, 256));
    let r = sim.run(Nanos::from_secs(SECS));
    assert_eq!(r.players.len(), 2);
    assert_eq!(r.rubis.completed, 0, "no RUBiS traffic in an mplayer run");
    for p in &r.players {
        assert!(p.frames > 0, "{} decoded nothing", p.name);
        assert!(p.target_fps > 0);
        let expected = p.frames as f64 / SECS as f64;
        assert!(
            (p.achieved_fps - expected).abs() < 1e-6,
            "{}: fps {} != frames/duration {expected}",
            p.name,
            p.achieved_fps
        );
        assert!(r.player(&p.name).is_some());
    }
    assert!(r.player("nonexistent").is_none());
}

#[test]
fn weight_and_thread_knobs_validate_names() {
    let mut sim = PlatformBuilder::new()
        .seed(3)
        .build_rubis(RubisScenario::read_write_mix(4));
    assert!(sim.set_weight_by_name("web", 512));
    assert!(sim.set_weight_by_name("dom0", 384));
    assert!(!sim.set_weight_by_name("no-such-domain", 512));
    assert!(
        !sim.set_flow_threads_by_vm(99, 4),
        "unknown vm index rejected"
    );
}

#[test]
fn power_cap_populates_the_power_report() {
    let mut sim = PlatformBuilder::new()
        .seed(11)
        .power_cap(40.0, Strategy::BiggestConsumer)
        .build_rubis(RubisScenario::read_write_mix(12));
    let r = sim.run(Nanos::from_secs(SECS));
    assert_eq!(r.power.cap_watts, Some(40.0));
    assert!(r.power.mean_watts > 0.0, "power model reports draw");
    assert!(r.power.max_watts >= r.power.mean_watts);
    assert!(
        !r.power.series.is_empty(),
        "per-second watt series recorded"
    );
    // An uncapped run still reports the modelled draw.
    let base = short_rubis(PolicyKind::None, 11);
    assert_eq!(base.power.cap_watts, None);
    assert!(base.power.mean_watts > 0.0);
}

#[test]
fn frozen_energy_accounting_does_not_perturb_the_run() {
    let run = |energy: Option<platform::EnergyConfig>| {
        let mut b = PlatformBuilder::new()
            .seed(7)
            .policy(PolicyKind::RequestType);
        if let Some(cfg) = energy {
            b = b.energy(cfg);
        }
        let mut sim = b.build_rubis(RubisScenario::read_write_mix(12));
        sim.run(Nanos::from_secs(SECS))
    };
    let base = run(None);
    let frozen = run(Some(platform::EnergyConfig::frozen(400.0)));
    // Metering is pure observation: the workload's event sequence is
    // untouched, so application-level results are bit-identical.
    assert_eq!(base.rubis.completed, frozen.rubis.completed);
    assert_eq!(
        base.rubis.throughput.to_bits(),
        frozen.rubis.throughput.to_bits(),
        "frozen energy accounting must not perturb the run"
    );
    assert_eq!(base.coord.messages_sent, frozen.coord.messages_sent);
    // Only the measurement differs: joules appear, knobs never move.
    assert!(!base.energy.enabled);
    assert_eq!(base.energy.total_joules(), 0.0);
    assert!(frozen.energy.enabled);
    assert!(frozen.energy.cpu_joules > 0.0, "package energy metered");
    assert!(frozen.energy.ixp_joules > 0.0, "IXP energy metered");
    assert_eq!(
        frozen.energy.knob_actions, 0,
        "frozen config never moves a knob"
    );
    assert_eq!(frozen.energy.final_dvfs_percent, 100);
    assert_eq!(frozen.energy.final_ways, 16);
    assert_eq!(frozen.energy.final_membw_percent, 100);
    let full_rung = frozen.energy.residency.first().copied().unwrap_or_default();
    assert_eq!(full_rung.0, 100);
    assert!(
        full_rung.1 > 0,
        "all residency at the full-performance rung"
    );
    assert!(frozen.energy.residency.iter().skip(1).all(|&(_, n)| n == 0));
}

#[test]
fn coordinated_energy_controller_descends_under_headroom() {
    let run = |cfg: platform::EnergyConfig| {
        let mut sim = PlatformBuilder::new()
            .seed(7)
            .policy(PolicyKind::RequestType)
            .energy(cfg)
            .build_rubis(RubisScenario::read_write_mix(12));
        sim.run(Nanos::from_secs(30))
    };
    // A generous target leaves headroom everywhere: the hill-climber
    // should walk the lattice down and spend less energy than the
    // frozen accounting baseline over the same run.
    let frozen = run(platform::EnergyConfig::frozen(5_000.0));
    let coord = run(platform::EnergyConfig::coordinated(5_000.0));
    assert!(coord.energy.descents > 0, "controller descended");
    assert!(
        coord.energy.knob_actions > 0,
        "knob moves reached the island"
    );
    assert!(
        coord.energy.final_dvfs_percent < 100
            || coord.energy.final_ways < 16
            || coord.energy.final_membw_percent < 100,
        "some axis left full performance: {:?}",
        (
            coord.energy.final_dvfs_percent,
            coord.energy.final_ways,
            coord.energy.final_membw_percent
        )
    );
    assert!(
        coord.energy.cpu_joules < frozen.energy.cpu_joules,
        "coordinated {} J !< frozen {} J",
        coord.energy.cpu_joules,
        frozen.energy.cpu_joules
    );
    // Residency spread: the run left the full-performance rung.
    let off_nominal: u64 = coord.energy.residency.iter().skip(1).map(|&(_, n)| n).sum();
    assert!(
        off_nominal > 0,
        "residency at a lower rung: {:?}",
        coord.energy.residency
    );
}

#[test]
fn source_counts_sum_to_events_and_fold_onto_islands() {
    let faulty = PlatformBuilder::new()
        .seed(7)
        .policy(PolicyKind::RequestType)
        .fault_profile(FaultProfile::none().with_drop(0.2).with_dup(0.05))
        .reliable_delivery(ReliableConfig::default())
        .build_rubis(RubisScenario::read_write_mix(8));
    let inference = PlatformBuilder::new()
        .seed(7)
        .policy(PolicyKind::InferenceBatch)
        .build_inference(InferenceScenario::mixed_tenants());
    let mut live = std::collections::BTreeSet::new();
    for mut sim in [faulty, inference] {
        let r = sim.run(Nanos::from_secs(5));
        let names: Vec<_> = r.events_by_source.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "queue",
                "sched",
                "ixp",
                "link",
                "coord-mbx",
                "ack-mbx",
                "retx",
                "accel",
                "accel-mbx"
            ],
            "one entry per registry source, in registry order"
        );
        let total: u64 = r.events_by_source.iter().map(|s| s.events).sum();
        assert_eq!(total, r.sim_rate.events);
        let island = |name: &str| -> u64 {
            r.events_by_source
                .iter()
                .filter(|s| s.island == name)
                .map(|s| s.events)
                .sum()
        };
        let i = &r.events_by_island;
        assert_eq!(
            (island("x86"), island("ixp"), island("accel")),
            (i.x86, i.ixp, i.accel)
        );
        live.extend(
            r.events_by_source
                .iter()
                .filter(|s| s.events > 0)
                .map(|s| s.name),
        );
    }
    // Between them the two runs exercise every source, so the fold is
    // checked on live counts, not zeros.
    assert_eq!(live.len(), 9, "sources never dispatched: {live:?}");
}
