//! Request conservation, end to end: every request a client opens is
//! either answered or still outstanding when the run ends, and every
//! answer is recorded exactly once. Checked for RUBiS and the inference
//! tenants under a faulty coordination channel, a chaos plan, and tight
//! guest queues with a short retransmission timeout, then as a
//! `simtest` property over generated channel fault profiles.

use archipelago::coord::{PolicyKind, ReliableConfig};
use archipelago::platform::{
    ChaosPlan, FaultProfile, InferenceScenario, Jitter, PlatformBuilder, RubisScenario, RunReport,
};
use archipelago::simcore::Nanos;
use simtest::gen::{domain, zip2, Gen};
use simtest::{check_with, st_assert_eq, Config};

const SEEDS: [u64; 3] = [42, 7, 1234];

/// The stress each run is built under.
fn stresses(seed: u64) -> [(&'static str, PlatformBuilder); 3] {
    let base = || PlatformBuilder::new().seed(seed);
    // R2's faulty channel: loss, duplication and exponential jitter.
    let faults = FaultProfile::none()
        .with_drop(0.10)
        .with_dup(0.05)
        .with_jitter(Jitter::Exponential {
            mean: Nanos::from_micros(20),
        });
    [
        (
            "faulty channel",
            base()
                .fault_profile(faults)
                .reliable_delivery(ReliableConfig::default()),
        ),
        ("chaos", base().chaos(ChaosPlan::seeded(seed, 6))),
        (
            "tight queues",
            base().queue_caps(4, 6).rto_initial(Nanos::from_millis(300)),
        ),
    ]
}

fn assert_conserved(what: &str, r: &RunReport) {
    let rubis = &r.rubis;
    assert!(rubis.completed > 0, "{what}: nothing completed");
    assert_eq!(
        rubis.offered,
        rubis.completed + rubis.outstanding,
        "{what}: offered != completed + outstanding"
    );
    assert_eq!(
        rubis.responses.overall().count(),
        rubis.completed,
        "{what}: recorded responses != completed requests"
    );
}

#[test]
fn rubis_requests_are_conserved() {
    for seed in SEEDS {
        for (stress, b) in stresses(seed) {
            let mut sim = b
                .policy(PolicyKind::RequestType)
                .build_rubis(RubisScenario::read_write_mix(24));
            let r = sim.run(Nanos::from_secs(30));
            assert_conserved(&format!("rubis seed {seed}, {stress}"), &r);
        }
    }
}

#[test]
fn inference_requests_are_conserved() {
    for seed in SEEDS {
        for (stress, b) in stresses(seed) {
            let mut sim = b
                .policy(PolicyKind::InferenceBatch)
                .build_inference(InferenceScenario::mixed_tenants());
            let r = sim.run(Nanos::from_secs(10));
            assert_conserved(&format!("inference seed {seed}, {stress}"), &r);
        }
    }
}

/// The same identity as a property: any generated fault profile on the
/// coordination channel (loss, duplication, jitter, reorder) under
/// reliable delivery, any seed. In debug builds each run also holds the
/// master loop's per-iteration horizon sweep under that traffic.
#[test]
fn requests_are_conserved_under_generated_fault_profiles() {
    check_with(
        &Config::with_cases(6),
        "requests_are_conserved_under_generated_fault_profiles",
        &zip2(domain::fault_profile(), Gen::u64_any()),
        |&(profile, seed)| {
            let b = || {
                PlatformBuilder::new()
                    .seed(seed)
                    .fault_profile(profile)
                    .reliable_delivery(ReliableConfig::default())
            };
            let rubis = b()
                .policy(PolicyKind::RequestType)
                .build_rubis(RubisScenario::read_write_mix(12))
                .run(Nanos::from_secs(5));
            let inference = b()
                .policy(PolicyKind::InferenceBatch)
                .build_inference(InferenceScenario::mixed_tenants())
                .run(Nanos::from_secs(2));
            for (what, r) in [("rubis", &rubis.rubis), ("inference", &inference.rubis)] {
                st_assert_eq!(
                    r.offered,
                    r.completed + r.outstanding,
                    "{what}: offered != completed + outstanding"
                );
                st_assert_eq!(
                    r.responses.overall().count(),
                    r.completed,
                    "{what}: recorded responses != completed requests"
                );
            }
            Ok(())
        },
    );
}

/// A second `run` continues the workload instead of restarting or
/// dropping it: each closed-loop client keeps exactly one request chain
/// (no more requests outstanding than clients, and as many completions
/// as one run of the combined length), the sampler keeps one cadence,
/// and open-loop tenants keep arriving.
#[test]
fn a_second_run_continues_the_workload() {
    const CLIENTS: u32 = 24;
    let rubis = || {
        PlatformBuilder::new()
            .seed(42)
            .policy(PolicyKind::RequestType)
            .build_rubis(RubisScenario::read_write_mix(CLIENTS))
    };
    // Twenty 2 s runs: every run boundary falls while some clients think.
    let mut sim = rubis();
    let mut split = None;
    for run in 1..=20 {
        let r = sim.run(Nanos::from_secs(2));
        assert!(
            r.rubis.outstanding <= u64::from(CLIENTS),
            "run {run}: {} requests outstanding from {CLIENTS} clients",
            r.rubis.outstanding
        );
        split = Some(r);
    }
    let split = split.expect("twenty runs");
    let whole = rubis().run(Nanos::from_secs(40));
    let (done, want) = (split.rubis.completed, whole.rubis.completed);
    assert!(
        done.abs_diff(want) * 20 <= want,
        "twenty 2 s runs completed {done} requests, one 40 s run {want}"
    );
    let samples = |r: &RunReport| {
        r.cpu_series
            .iter()
            .map(|(_, s)| s.len())
            .collect::<Vec<_>>()
    };
    assert_eq!(samples(&split), samples(&whole), "samples per domain");

    let mut inf = PlatformBuilder::new()
        .seed(42)
        .build_inference(InferenceScenario::mixed_tenants());
    let first = inf.run(Nanos::from_secs(2)).rubis.offered;
    let both = inf.run(Nanos::from_secs(2)).rubis.offered;
    assert!(
        both - first > first * 3 / 4,
        "tenants offered {first} requests, then {}",
        both - first
    );
}
