//! Property tests for the adversary-defense layer: the per-entity
//! Tune/Trigger policer in `coord::limits`, the oscillation detector's
//! decay-window boundary, and full-platform determinism under strategic
//! tenants plus chaos injection.
//!
//! The `chaos_forced_failure` fixture at the bottom is the CI replay
//! check: ci.sh runs it with `SIMTEST_CHAOS_FORCE_FAIL=1`, captures the
//! `SIMTEST_SEED` and shrunk counterexample from the panic, re-runs with
//! that seed, and asserts the identical shrunk report.

use archipelago::coord::{EntityId, EntityPolicer, OscillationDetector, PolicerConfig};
use archipelago::platform::{AdversarySpec, ChaosPlan, PlatformBuilder, PolicyKind, RubisScenario};
use archipelago::simcore::{Nanos, SimRng};
use simtest::chaos::chaos_check_with;
use simtest::gen::{vec_of, zip2, Gen};
use simtest::runner::Config;
use simtest::{check, st_assert, st_assert_eq};

/// A random tune workload: (inter-arrival ns, raw delta) pairs where the
/// signed delta is `raw - 512`, spanning honest oscillation and monotone
/// inflation alike.
fn tune_sequence() -> Gen<Vec<(u64, u64)>> {
    let step = zip2(Gen::u64_in(0, 100_000_000), Gen::u64_in(0, 1024));
    vec_of(step, 0, 64)
}

#[test]
fn policer_conserves_requests_and_caps_net_displacement() {
    check("policer_conservation", &tune_sequence(), |steps| {
        let cfg = PolicerConfig::default();
        let mut p = EntityPolicer::new(cfg);
        let e = EntityId(7);
        let mut now = Nanos::ZERO;
        let mut attempts = 0u64;
        for &(dt, raw) in steps {
            now += Nanos::from_nanos(dt);
            let delta = raw as i32 - 512;
            attempts += 1;
            // An admitted delta never exceeds the request's magnitude
            // and never flips its sign.
            if let Some(applied) = p.police_tune(now, e, delta) {
                st_assert!(
                    applied.unsigned_abs() <= delta.unsigned_abs()
                        && (applied == 0 || applied.signum() == delta.signum()),
                    "admitted {applied} for requested {delta}"
                );
            }
            let s = p.stats_for(e);
            st_assert!(
                s.net_applied.unsigned_abs() <= cfg.displacement_cap as u64,
                "net displacement {} escaped cap {}",
                s.net_applied,
                cfg.displacement_cap
            );
        }
        let s = p.stats_for(e);
        st_assert_eq!(s.admitted + s.throttled, attempts);
        st_assert!(s.discounted <= s.admitted, "discounted > admitted");
        Ok(())
    });
}

#[test]
fn honest_tenants_are_never_starved_by_a_spammer() {
    // Buckets are per entity: a flat-out tune spammer exhausting its own
    // budget must not cost a slow honest sender a single admission.
    let periods = zip2(
        Gen::u64_in(100_000, 5_000_000),      // spammer: every 0.1–5 ms
        Gen::u64_in(40_000_000, 500_000_000), // honest: every 40–500 ms
    );
    check("no_starvation", &periods, |&(spam_ns, honest_ns)| {
        let mut p = EntityPolicer::new(PolicerConfig::default());
        let (spammer, honest) = (EntityId(1), EntityId(2));
        let end = Nanos::from_secs(10);
        let mut t = Nanos::ZERO;
        while t <= end {
            let _ = p.police_tune(t, spammer, 512);
            t += Nanos::from_nanos(spam_ns);
        }
        let mut t = Nanos::ZERO;
        let mut sign = 1i32;
        while t <= end {
            let _ = p.police_tune(t, honest, sign * 64);
            sign = -sign;
            t += Nanos::from_nanos(honest_ns);
        }
        let hs = p.stats_for(honest);
        st_assert_eq!(hs.throttled, 0);
        st_assert!(
            p.stats_for(spammer).throttled > 0,
            "spammer at {spam_ns} ns period was never throttled"
        );
        Ok(())
    });
}

#[test]
fn same_seed_policer_replay_is_identical() {
    // Drive the policer from a SimRng-derived request stream; the same
    // seed must reproduce the exact same counters and net displacement.
    let run = |seed: u64| {
        let mut rng = SimRng::new(seed);
        let mut p = EntityPolicer::new(PolicerConfig::default());
        let mut now = Nanos::ZERO;
        for _ in 0..2_000 {
            now += Nanos::from_nanos(rng.range(0, 20_000_000));
            let e = EntityId(rng.range(0, 4) as u32);
            if rng.range(0, 4) == 0 {
                let _ = p.police_trigger(now, e);
            } else {
                let _ = p.police_tune(now, e, rng.range(0, 1025) as i32 - 512);
            }
        }
        (0..4).map(|i| p.stats_for(EntityId(i))).collect::<Vec<_>>()
    };
    check("policer_replay", &Gen::u64_in(0, u64::MAX - 1), |&seed| {
        st_assert_eq!(run(seed), run(seed));
        Ok(())
    });
}

#[test]
fn oscillation_detector_decay_window_boundary_is_exact() {
    // Regression guard for the PR-3 latching fix: a flip recorded at T
    // counts through *exactly* T + window (inclusive), and `observe` at
    // exactly front + window must not evict the front flip.
    let w = Nanos::from_secs(1);
    let mut d = OscillationDetector::new(w, 4);
    d.observe(Nanos::ZERO, false);
    let flip_at = Nanos::from_millis(1);
    d.observe(flip_at, true);
    assert_eq!(d.flips_in_window(flip_at + w), 1, "flip lost at T + window");
    assert_eq!(
        d.flips_in_window(flip_at + w + Nanos::from_nanos(1)),
        0,
        "flip outlived T + window"
    );

    // Observe exactly at front + window: eviction is strictly `<`, so the
    // old flip survives alongside the fresh one.
    assert_eq!(d.observe(flip_at + w, false), 2);
    // One nanosecond later the original flip is physically evicted.
    assert_eq!(d.observe(flip_at + w + Nanos::from_nanos(1), true), 2);

    // Trigger-spam at the decay boundary: a burst of 6 flips trips the
    // detector, and the verdict decays exactly one nanosecond after the
    // last flip ages out — not before, and without latching.
    let mut d = OscillationDetector::new(w, 4);
    for i in 0..7u64 {
        d.observe(Nanos::from_millis(10 * i), i % 2 == 0);
    }
    let last_flip = Nanos::from_millis(60);
    assert!(d.is_oscillating(last_flip));
    assert!(
        d.is_oscillating(Nanos::from_millis(10) + w),
        "verdict decayed while 5 flips were still inside the window"
    );
    assert!(
        !d.is_oscillating(Nanos::from_millis(20) + w + Nanos::from_nanos(1)),
        "verdict latched past the decay boundary"
    );
    assert!(!d.is_oscillating(last_flip + w + Nanos::from_nanos(1)));
}

#[test]
fn adversarial_chaotic_platform_runs_are_deterministic() {
    // The full stack under stress: strategic tenants, enabled defenses
    // and an active chaos schedule must still replay bit-identically.
    let run = || {
        let mut sim = PlatformBuilder::new()
            .seed(42)
            .policy(PolicyKind::RequestType)
            .adversaries(vec![
                AdversarySpec::inflate(),
                AdversarySpec::spam(),
                AdversarySpec::free_ride(),
            ])
            .coord_defenses(PolicerConfig::default())
            .chaos(ChaosPlan::seeded(0xC4A0_5EED, 12))
            .build_rubis(RubisScenario::read_write_mix(8));
        let r = sim.run(Nanos::from_secs(5));
        (
            r.rubis.completed,
            r.rubis.throughput.to_bits(),
            r.coord.messages_sent,
            r.coord.tunes_applied,
            r.coord.triggers_applied,
            r.coord.throttled,
            r.coord.discounted,
            r.net.delivered,
            sim.chaos_injected(),
        )
    };
    let first = run();
    assert_eq!(first, run());
    assert!(first.8 > 0, "seeded chaos plan injected nothing in 5 s");
    assert!(
        first.5 + first.6 > 0,
        "defenses neither throttled nor discounted a spamming adversary"
    );
}

/// CI replay fixture — inert unless `SIMTEST_CHAOS_FORCE_FAIL=1`.
///
/// The property fails for any case ≥ 20 paired with a non-empty chaos
/// schedule, so the runner must shrink to the boundary case 20 plus a
/// single minimal perturbation and print a `SIMTEST_SEED=…` replay line.
/// ci.sh re-runs under that seed and asserts the identical shrunk report.
#[test]
fn chaos_forced_failure() {
    if std::env::var("SIMTEST_CHAOS_FORCE_FAIL").as_deref() != Ok("1") {
        return;
    }
    chaos_check_with(
        &Config::with_cases(64),
        "chaos_forced_failure",
        &Gen::u64_in(0, 1000),
        6,
        |v, plan| {
            st_assert!(
                *v < 20 || plan.is_none(),
                "case {v} under chaos ({} perturbations)",
                plan.schedule().len()
            );
            Ok(())
        },
    );
}
