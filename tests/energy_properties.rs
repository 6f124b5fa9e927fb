//! Property tests for the energy-under-QoS dimension: target
//! monotonicity of the controller's lattice walk, bit-identical replay
//! of energy-managed platform runs (the E1 coordinated arm), and
//! knob-flapping at the QoS boundary under an active chaos schedule.

use archipelago::coord::{EnergyController, EnergyControllerConfig, KnobPoint};
use archipelago::platform::{ChaosPlan, EnergyConfig, PlatformBuilder, PolicyKind, RubisScenario};
use archipelago::simcore::Nanos;
use simtest::gen::{zip2, zip3, Gen};
use simtest::runner::Config;
use simtest::{check, check_with, st_assert, st_assert_eq};

/// Drives a controller open-loop against a synthetic monotone latency
/// model — each rung of total descent depth adds `per_rung_ms` to a base
/// p99 — until it settles, and returns the final lattice point.
fn converge(target_ms: f64, base_ms: f64, per_rung_ms: f64) -> KnobPoint {
    let mut c = EnergyController::new(EnergyControllerConfig::default().with_target_ms(target_ms));
    for i in 1..=400u64 {
        let p99 = base_ms + c.point().depth() as f64 * per_rung_ms;
        c.observe(Nanos::from_secs(2 * i), p99);
    }
    c.point()
}

/// The depth of the deepest *feasible* point a converged walk stands
/// for. At a marginal operating point the controller flaps between the
/// deepest feasible rung and the first violating one (the oscillation
/// detector bounds the rate, not the band), so a run may end mid-probe
/// one rung too deep; the solution it is probing from is one rung up.
fn feasible_depth(target_ms: f64, base_ms: f64, per_rung_ms: f64) -> u32 {
    let p = converge(target_ms, base_ms, per_rung_ms);
    let p99 = base_ms + p.depth() as f64 * per_rung_ms;
    if p99 > target_ms {
        p.depth().saturating_sub(1)
    } else {
        p.depth()
    }
}

#[test]
fn tighter_qos_target_never_settles_at_lower_power() {
    // Depth is the power-order proxy (deeper = lower power on a monotone
    // ladder): for the same monotone latency response, the solution a
    // tighter target converges to must never be deeper than a looser
    // target's — energy management under a stricter SLA can only give
    // back savings, never conjure more.
    let cases = zip3(
        zip2(Gen::u64_in(50, 2_000), Gen::u64_in(0, 2_000)), // (tight, slack)
        Gen::u64_in(1, 1_000),                               // base p99 ms
        Gen::u64_in(1, 400),                                 // ms per rung
    );
    check(
        "energy_target_monotonicity",
        &cases,
        |&((tight, slack), base, per_rung)| {
            let loose = (tight + slack) as f64;
            let tight = tight as f64;
            let (base, per_rung) = (base as f64, per_rung as f64);
            let d_tight = feasible_depth(tight, base, per_rung);
            let d_loose = feasible_depth(loose, base, per_rung);
            st_assert!(
                d_tight <= d_loose,
                "tighter target {tight} ms settled deeper (depth {d_tight}) than \
                 looser {loose} ms (depth {d_loose}) on base {base} + {per_rung}/rung"
            );
            Ok(())
        },
    );
}

#[test]
fn energy_managed_runs_replay_bit_identically() {
    // The E1 coordinated arm — controller live, SetKnob messages riding
    // the real coordination channel, DVFS scaling the credit scheduler —
    // must replay bit-identically for any seed: joules, residency and
    // knob decisions included.
    let fingerprint = |seed: u64| {
        let mut sim = PlatformBuilder::new()
            .seed(seed)
            .policy(PolicyKind::RequestType)
            .energy(EnergyConfig::coordinated(800.0))
            .build_rubis(RubisScenario::read_write_mix(8));
        let r = sim.run(Nanos::from_secs(20));
        (
            r.rubis.completed,
            r.rubis.throughput.to_bits(),
            r.energy.cpu_joules.to_bits(),
            r.energy.ixp_joules.to_bits(),
            r.energy.residency.clone(),
            r.energy.violations,
            r.energy.knob_actions,
            r.energy.descents,
            r.coord.messages_sent,
        )
    };
    check_with(
        &Config::with_cases(16),
        "energy_replay",
        &Gen::u64_in(0, u64::MAX - 1),
        |&seed| {
            let a = fingerprint(seed);
            st_assert_eq!(a, fingerprint(seed));
            st_assert!(a.6 > 0, "controller never moved a knob in 20 s of headroom");
            Ok(())
        },
    );
}

#[test]
fn knob_flapping_at_the_qos_boundary_cannot_wedge_the_platform() {
    // A target sitting right on the unmanaged tail keeps the controller
    // at the descend → violate → back-off boundary for the whole run,
    // while a seeded chaos schedule perturbs the platform underneath it.
    // The run must terminate, keep completing requests, and the
    // oscillation detector must be what bounds the flapping — not a
    // deadlock.
    let mut sim = PlatformBuilder::new()
        .seed(1301)
        .policy(PolicyKind::RequestType)
        .energy(EnergyConfig::coordinated(300.0))
        .chaos(ChaosPlan::seeded(0xE0_5EED, 12))
        .build_rubis(RubisScenario::read_write_mix(8));
    let r = sim.run(Nanos::from_secs(120));
    assert!(
        sim.chaos_injected() > 0,
        "chaos plan injected nothing in 120 s"
    );
    assert!(
        r.rubis.completed > 0,
        "platform stopped serving at the QoS boundary"
    );
    assert!(
        r.energy.knob_actions > 0,
        "controller never probed the boundary"
    );
    assert!(
        r.energy.violations > 0,
        "target {} ms never violated — not a boundary workload",
        r.energy.p99_target_ms
    );
    assert!(
        r.energy.backoffs > 0,
        "violations without back-offs: controller wedged below target"
    );
}
