//! Pins the master loop's per-source dispatch counts.
//!
//! The table digests and the benchmark digests hash outcomes and the
//! per-island event totals, so an engine change that moves dispatches
//! from one source to another of the same island passes them. This test
//! runs the benchmark's three single-platform workloads (`rubis_rw`,
//! `coord_storm`, `inference_mix`) at seed 42 for the smoke length of
//! 5 simulated seconds, and checks every `events_by_source` count, so
//! such a change fails here by source name. Between them the three runs
//! dispatch from all nine sources. A change that moves a count on
//! purpose re-records the tables below and says why.

use platform::{
    AdversarySpec, FaultProfile, InferenceScenario, Jitter, Platform, PlatformBuilder,
    PolicerConfig, PolicyKind, ReliableConfig, RubisScenario,
};
use simcore::Nanos;

/// `(source name, dispatched events)` in registry order.
type Counts = [(&'static str, u64); 9];

fn assert_counts(mut sim: Platform, expected: &Counts) {
    let r = sim.run(Nanos::from_secs(5));
    let got: Vec<(&str, u64)> = r
        .events_by_source
        .iter()
        .map(|s| (s.name, s.events))
        .collect();
    assert_eq!(got, expected, "per-source dispatch counts moved");
}

#[test]
fn rubis_rw_dispatch_counts_are_pinned() {
    let sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::RequestType)
        .build_rubis(RubisScenario::read_write_mix(24));
    assert_counts(sim, &RUBIS_RW);
}

#[test]
fn coord_storm_dispatch_counts_are_pinned() {
    let sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::RequestType)
        .fault_profile(
            FaultProfile::none()
                .with_drop(0.10)
                .with_dup(0.05)
                .with_jitter(Jitter::Exponential {
                    mean: Nanos::from_micros(20),
                }),
        )
        .reliable_delivery(ReliableConfig::default())
        .adversaries(vec![
            AdversarySpec::spam(),
            AdversarySpec::inflate(),
            AdversarySpec::spam(),
        ])
        .coord_defenses(PolicerConfig::default())
        .build_rubis(RubisScenario::read_write_mix(24));
    assert_counts(sim, &COORD_STORM);
}

#[test]
fn inference_mix_dispatch_counts_are_pinned() {
    let sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::InferenceBatch)
        .build_inference(InferenceScenario::mixed_tenants());
    assert_counts(sim, &INFERENCE_MIX);
}

const RUBIS_RW: Counts = [
    ("queue", 690),
    ("sched", 2199),
    ("ixp", 939),
    ("link", 243),
    ("coord-mbx", 118),
    ("ack-mbx", 0),
    ("retx", 0),
    ("accel", 0),
    ("accel-mbx", 0),
];

const COORD_STORM: Counts = [
    ("queue", 607),
    ("sched", 1564),
    ("ixp", 512),
    ("link", 136),
    ("coord-mbx", 309),
    ("ack-mbx", 303),
    ("retx", 76),
    ("accel", 0),
    ("accel-mbx", 0),
];

const INFERENCE_MIX: Counts = [
    ("queue", 13539),
    ("sched", 10204),
    ("ixp", 13868),
    ("link", 3468),
    ("coord-mbx", 4),
    ("ack-mbx", 0),
    ("retx", 0),
    ("accel", 8694),
    ("accel-mbx", 4),
];
