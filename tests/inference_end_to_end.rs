//! End-to-end tests of the three-island inference platform: the accel
//! island must be coordinated through the same Tune/Trigger machinery as
//! the original two islands, and the default two-island builds must not
//! know it exists.

use archipelago::coord::PolicyKind;
use archipelago::platform::{InferenceScenario, PlatformBuilder, RubisScenario, RunReport};
use archipelago::simcore::Nanos;

fn inference(policy: PolicyKind, seed: u64, secs: u64) -> RunReport {
    let scen = if policy == PolicyKind::BufferTrigger {
        InferenceScenario::trigger_setup()
    } else {
        InferenceScenario::mixed_tenants()
    };
    let mut sim = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .build_inference(scen);
    sim.run(Nanos::from_secs(secs))
}

#[test]
fn inference_baseline_completes_requests() {
    let r = inference(PolicyKind::None, 1, 20);
    assert!(r.rubis.completed > 2_000, "completed {}", r.rubis.completed);
    assert_eq!(r.accel.tenants.len(), 4);
    for t in &r.accel.tenants {
        assert!(t.submitted > 0, "{} submitted nothing", t.name);
        assert!(t.completed > 0, "{} completed nothing", t.name);
        assert!(t.batches > 0, "{} launched no batches", t.name);
        assert!(
            t.mean_batch >= 1.0,
            "{} batch size {}",
            t.name,
            t.mean_batch
        );
        assert!(
            r.rubis.responses.percentile(&t.name, 0.5) > 0.0,
            "{} has no latency samples",
            t.name
        );
    }
    assert!(r.accel.hbm_high_water > 0);
    // Uncoordinated: not a single coordination message.
    assert_eq!(r.coord.messages_sent, 0);
    assert_eq!(r.coord.tunes_applied, 0);
}

#[test]
fn inference_is_deterministic_per_seed() {
    let a = inference(PolicyKind::InferenceBatch, 42, 15);
    let b = inference(PolicyKind::InferenceBatch, 42, 15);
    assert_eq!(a.rubis.completed, b.rubis.completed);
    assert_eq!(a.coord.messages_sent, b.coord.messages_sent);
    assert_eq!(a.coord.tunes_applied, b.coord.tunes_applied);
    let pair = |r: &RunReport| {
        r.accel
            .tenants
            .iter()
            .map(|t| (t.batches, t.completed))
            .collect::<Vec<_>>()
    };
    assert_eq!(pair(&a), pair(&b));
    let c = inference(PolicyKind::InferenceBatch, 43, 15);
    assert_ne!(a.rubis.completed, c.rubis.completed, "seeds should differ");
}

#[test]
fn batch_tuning_reaches_the_accelerator() {
    let r = inference(PolicyKind::InferenceBatch, 7, 20);
    // One classify-driven Tune per tenant crosses both mailbox lanes and
    // lands on the device via its ResourceManager.
    assert!(
        r.coord.messages_sent >= 4,
        "messages {}",
        r.coord.messages_sent
    );
    assert_eq!(r.coord.tunes_applied, 4, "tunes {}", r.coord.tunes_applied);
    assert_eq!(r.coord.rejected, 0);
}

#[test]
fn coordinated_batching_cuts_interactive_queueing() {
    // The I1 claim in miniature: leaning interactive tenants toward small
    // batches (and up-weighting them) cuts their batch-forming delay.
    let base = inference(PolicyKind::None, 11, 30);
    let coord = inference(PolicyKind::InferenceBatch, 11, 30);
    let q99 = |r: &RunReport, name: &str| {
        r.accel
            .tenant(name)
            .map(|t| t.queue_p99_ms)
            .unwrap_or(f64::MAX)
    };
    let lat_base = q99(&base, "chat") + q99(&base, "vision");
    let lat_coord = q99(&coord, "chat") + q99(&coord, "vision");
    assert!(
        lat_coord < lat_base,
        "interactive queue p99 should shrink: base {lat_base:.2}ms coord {lat_coord:.2}ms"
    );
    // Throughput tenants keep completing work.
    let goodput = |r: &RunReport| {
        r.accel.tenant("rank").map(|t| t.completed).unwrap_or(0)
            + r.accel.tenant("embed").map(|t| t.completed).unwrap_or(0)
    };
    assert!(
        goodput(&coord) as f64 >= goodput(&base) as f64 * 0.95,
        "batch goodput should hold: base {} coord {}",
        goodput(&base),
        goodput(&coord)
    );
}

#[test]
fn queue_alarms_drive_batch_preemptions() {
    let r = inference(PolicyKind::BufferTrigger, 3, 20);
    let alarms: u64 = r.accel.tenants.iter().map(|t| t.alarms).sum();
    let preemptions: u64 = r.accel.tenants.iter().map(|t| t.preemptions).sum();
    assert!(alarms > 0, "no queue alarms fired");
    assert!(r.coord.triggers_applied > 0, "no triggers applied");
    assert!(preemptions > 0, "no batches preempted");
}

#[test]
fn rubis_report_carries_no_accel_block() {
    let mut sim = PlatformBuilder::new()
        .seed(1)
        .build_rubis(RubisScenario::read_write_mix(8));
    let r = sim.run(Nanos::from_secs(5));
    assert!(r.accel.tenants.is_empty());
    assert_eq!(r.accel.hbm_high_water, 0);
    assert_eq!(r.accel.hbm_rejects, 0);
}
