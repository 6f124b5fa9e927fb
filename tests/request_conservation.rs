//! Request conservation, end to end: every request a client opens is
//! either answered or still outstanding when the run ends, and every
//! answer is recorded exactly once. Checked for RUBiS and the inference
//! tenants under a faulty coordination channel, a chaos plan, and tight
//! guest queues with a short retransmission timeout.

use archipelago::coord::{PolicyKind, ReliableConfig};
use archipelago::platform::{
    ChaosPlan, FaultProfile, InferenceScenario, Jitter, PlatformBuilder, RubisScenario, RunReport,
};
use archipelago::simcore::Nanos;

const SEEDS: [u64; 3] = [42, 7, 1234];

/// The stress each run is built under.
fn stresses(seed: u64) -> [(&'static str, PlatformBuilder); 3] {
    let base = || PlatformBuilder::new().seed(seed);
    // R2's faulty channel: loss, duplication and exponential jitter.
    let faults = FaultProfile::none()
        .with_drop(0.10)
        .with_dup(0.05)
        .with_jitter(Jitter::Exponential { mean: Nanos::from_micros(20) });
    [
        ("faulty channel", base().fault_profile(faults).reliable_delivery(ReliableConfig::default())),
        ("chaos", base().chaos(ChaosPlan::seeded(seed, 6))),
        ("tight queues", base().queue_caps(4, 6).rto_initial(Nanos::from_millis(300))),
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
