//! Serial vs parallel determinism of the experiment harness: with
//! identical seeds, the merged experiment tables and every experiment's
//! run ledger must be identical whether the (independent) experiment
//! units run on one worker or many.
//! Runs under a short smoke cap — determinism does not depend on the
//! simulated duration.
//!
//! Also the chaos differential: a platform built with an explicit
//! [`ChaosPlan::none()`] must be bit-identical to one that never heard
//! of chaos, across every island type — the chaos hooks must cost
//! nothing (not even an RNG draw) when the schedule is empty.

use bench::RunLedger;
use platform::{
    ChaosPlan, InferenceScenario, IslandEvents, MplayerScenario, PlatformBuilder, PolicyKind,
    RubisScenario, RunReport,
};
use simcore::Nanos;
use simtest::json::Json;

/// Renders the merged tables the way the `experiments` binary persists
/// them: a JSON array of `{slug, csv}` objects, in submission order.
fn render(units: &[bench::UnitOutput]) -> String {
    Json::Arr(
        units
            .iter()
            .flat_map(|(_, tables, _)| tables)
            .map(|(slug, t)| {
                Json::obj(vec![
                    ("slug", Json::Str((*slug).into())),
                    ("csv", Json::Str(t.to_csv())),
                ])
            })
            .collect(),
    )
    .to_string()
}

/// A ledger's deterministic part: per-island events and each fleet's
/// canonical report (wall time excluded).
fn exact(ledger: &RunLedger) -> (IslandEvents, Vec<String>) {
    (ledger.islands, ledger.fleets.iter().map(|f| f.canonical()).collect())
}

#[test]
fn serial_and_parallel_experiments_are_byte_identical() {
    let settings = bench::Runner::new().with_smoke_cap(2);
    let units = bench::select("all").expect("all");
    for seed in [bench::SEED, 7, 1234] {
        let serial_units = bench::run_experiments(&settings, 1, units.clone(), seed);
        let parallel_units = bench::run_experiments(&settings, 4, units.clone(), seed);
        let serial = render(&serial_units);
        assert_eq!(
            serial,
            render(&parallel_units),
            "seed {seed}: parallel run diverged from serial"
        );
        assert!(!serial.is_empty());

        // Per-experiment ledgers are exact under --jobs 4 ...
        let mut merged = RunLedger::default();
        for ((unit, _, s), (punit, _, p)) in serial_units.into_iter().zip(parallel_units) {
            let id = unit.id;
            assert_eq!(id, punit.id, "seed {seed}: submission order");
            assert_eq!(exact(&s), exact(&p), "seed {seed}: {id}'s ledger moved under --jobs 4");
            merged.merge(p);
        }
        // ... and their merge is the whole pass run through one runner.
        let mut whole = settings.fresh();
        for unit in &units {
            unit.tables(&mut whole, seed);
        }
        assert_eq!(exact(&merged), exact(&whole.ledger), "seed {seed}: merged totals");
        assert!(merged.events() > 0 && merged.fleets.len() == 13, "seed {seed}");
    }
}

/// Every counter and float a run reports, flattened to exact bits.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut v = vec![
        r.rubis.completed,
        r.rubis.throughput.to_bits(),
        r.coord.messages_sent,
        r.coord.bytes_sent,
        r.coord.tunes_applied,
        r.coord.triggers_applied,
        r.coord.rejected,
        r.coord.throttled,
        r.coord.discounted,
        r.net.delivered,
        r.net.guest_drops,
        r.total_cpu_percent.to_bits(),
    ];
    for p in &r.players {
        v.push(p.frames);
        v.push(p.achieved_fps.to_bits());
    }
    for t in &r.accel.tenants {
        v.push(t.submitted);
        v.push(t.completed);
        v.push(t.batches);
        v.push(t.preemptions);
    }
    v
}

#[test]
fn chaos_none_is_bit_identical_to_a_chaos_free_build() {
    let dur = Nanos::from_secs(2);
    for seed in [bench::SEED, 7, 1234] {
        let rubis = |chaos: Option<ChaosPlan>| {
            let mut b = PlatformBuilder::new().seed(seed).policy(PolicyKind::RequestType);
            if let Some(plan) = chaos {
                b = b.chaos(plan);
            }
            fingerprint(&b.build_rubis(RubisScenario::read_write_mix(8)).run(dur))
        };
        let mplayer = |chaos: Option<ChaosPlan>| {
            let mut b = PlatformBuilder::new().seed(seed).policy(PolicyKind::BufferTrigger);
            if let Some(plan) = chaos {
                b = b.chaos(plan);
            }
            fingerprint(&b.build_mplayer(MplayerScenario::trigger_setup()).run(dur))
        };
        let inference = |chaos: Option<ChaosPlan>| {
            let mut b = PlatformBuilder::new().seed(seed).policy(PolicyKind::InferenceBatch);
            if let Some(plan) = chaos {
                b = b.chaos(plan);
            }
            fingerprint(&b.build_inference(InferenceScenario::mixed_tenants()).run(dur))
        };
        assert_eq!(
            rubis(None),
            rubis(Some(ChaosPlan::none())),
            "seed {seed}: ChaosPlan::none() perturbed a rubis run"
        );
        assert_eq!(
            mplayer(None),
            mplayer(Some(ChaosPlan::none())),
            "seed {seed}: ChaosPlan::none() perturbed an mplayer run"
        );
        assert_eq!(
            inference(None),
            inference(Some(ChaosPlan::none())),
            "seed {seed}: ChaosPlan::none() perturbed an inference run"
        );
    }
}

// ----------------------------------------------------------------------
// Component conformance: horizon monotonicity per island device
// ----------------------------------------------------------------------

/// Drains a [`Component`] and asserts its contract: after `advance(t)`,
/// `next_event_time()` never reports a time before `t` (a past horizon
/// would wedge or reorder the master loop). Returns the events absorbed
/// so callers can assert the drive did real work.
fn drive_conformant<C: simcore::Component>(name: &str, c: &mut C, max_steps: usize) -> usize {
    use simcore::Component;
    let mut out = Vec::new();
    let mut events = 0;
    for _ in 0..max_steps {
        let Some(t) = Component::next_event_time(c) else { break };
        Component::advance(c, t, &mut out);
        events += out.len();
        out.clear();
        if let Some(t2) = Component::next_event_time(c) {
            assert!(
                t2 >= t,
                "{name}: advance({:?}) left a past horizon {:?}",
                t,
                t2
            );
        }
    }
    events
}

#[test]
fn every_island_component_keeps_a_monotone_horizon() {
    use ixp::{AppTag, Packet};
    use simcore::Component;

    // x86 island: the credit scheduler under a two-domain burst mix.
    let mut sched = xsched::CreditScheduler::new(xsched::SchedConfig::new(2));
    let d0 = sched.create_domain("dom0", 256, 1);
    let d1 = sched.create_domain("dom1", 512, 2);
    for i in 0..40u64 {
        let (dom, demand) = if i % 3 == 0 { (d0, 700) } else { (d1, 300) };
        sched
            .submit(
                Nanos::from_micros(i),
                dom,
                xsched::Burst::user(Nanos::from_micros(demand), i),
                xsched::WakeMode::Boost,
            )
            .expect("known domain");
    }
    assert!(drive_conformant("sched", &mut sched, 10_000) > 0);

    // x86 island: the master event queue.
    let mut q = simcore::EventQueue::new();
    for i in (0..20u64).rev() {
        q.schedule(Nanos::from_micros(i * 3), i);
    }
    assert_eq!(drive_conformant("queue", &mut q, 100), 20);

    // x86 island: the PCIe link's DMA + notification pipeline.
    let mut link = pcie::HostLink::new(pcie::LinkConfig::default());
    for i in 0..20u64 {
        let pkt = Packet::new(i, 1, 1500, AppTag::Http { class_id: 0, write: false });
        link.post_to_host(Nanos::from_micros(i), ixp::FlowId(0), pkt);
    }
    assert!(drive_conformant("link", &mut link, 1_000) > 0);

    // x86 island: a coordination mailbox endpoint.
    let mut mbx = pcie::Mailbox::new(Nanos::from_micros(30));
    for i in 0..10u64 {
        mbx.send(Nanos::from_micros(i * 7), i);
    }
    assert_eq!(drive_conformant("mbx", &mut mbx, 100), 10);

    // x86 island: reliable retransmission timers (unacked messages back
    // off through every retry, then the sender abandons them).
    let mut tx = coord::ReliableSender::new(coord::ReliableConfig::default());
    for i in 0..4u32 {
        tx.send(
            Nanos::from_micros(i as u64),
            coord::CoordMsg::Tune { entity: coord::EntityId(i), delta: 1, target: None },
        );
    }
    drive_conformant("retx", &mut tx, 1_000);
    assert_eq!(Component::next_event_time(&tx), None, "retries exhausted");

    // IXP island: the stage pipeline under wire arrivals.
    let mut island = ixp::IxpIsland::new(ixp::IxpConfig::default());
    let flow = island.register_flow(1);
    for i in 0..30u64 {
        island.rx_from_wire(
            Nanos::from_micros(i * 2),
            Packet::new(i, 1, 1000, AppTag::Http { class_id: 0, write: false }),
        );
    }
    assert!(drive_conformant("ixp", &mut island, 10_000) > 0);
    let _ = flow;

    // Accel island: the batching engine under a submission burst. All
    // submissions land at time zero — the Component contract only covers
    // time-monotonic interleavings of inputs and `advance`.
    let mut isl = accel::AccelIsland::new(accel::AccelConfig::default());
    let t0 = isl.register_tenant(17);
    for i in 0..20u64 {
        isl.submit(
            Nanos::ZERO,
            accel::AccelRequest { id: i, tenant: t0, cost: Nanos::from_micros(300), bytes: 4096 },
        );
    }
    assert!(drive_conformant("accel", &mut isl, 10_000) > 0);
}

// ----------------------------------------------------------------------
// Same-seed replay: two fresh platforms, one observable surface
// ----------------------------------------------------------------------

/// A run's full observable surface: the report fingerprint plus the
/// rendered coordination trace.
fn run_surface(mut sim: platform::Platform, dur: Nanos) -> (Vec<u64>, Vec<String>) {
    let fp = fingerprint(&sim.run(dur));
    let trace = sim
        .coordination_trace()
        .map(|(t, line)| format!("{} {line}", t.as_nanos()))
        .collect();
    (fp, trace)
}

#[test]
fn same_seed_runs_replay_identically() {
    use platform::{FaultProfile, Jitter, ReliableConfig};
    let dur = Nanos::from_secs(2);
    let faulty = FaultProfile::none()
        .with_drop(0.10)
        .with_dup(0.05)
        .with_jitter(Jitter::Exponential { mean: Nanos::from_micros(20) });
    for seed in [bench::SEED, 7, 1234] {
        for faults in [None, Some(faulty)] {
            for chaos in [None, Some(ChaosPlan::seeded(seed, 6))] {
                let builder = |policy| {
                    let mut b = PlatformBuilder::new().seed(seed).policy(policy);
                    if let Some(profile) = faults {
                        b = b.fault_profile(profile).reliable_delivery(ReliableConfig::default());
                    }
                    if let Some(plan) = chaos.clone() {
                        b = b.chaos(plan);
                    }
                    b
                };
                let build_rubis = || {
                    builder(PolicyKind::RequestType).build_rubis(RubisScenario::read_write_mix(8))
                };
                let build_inference = || {
                    builder(PolicyKind::InferenceBatch)
                        .build_inference(InferenceScenario::mixed_tenants())
                };
                let ctx = format!(
                    "seed {seed}, faults {}, chaos {}",
                    faults.is_some(),
                    chaos.is_some()
                );
                let first = run_surface(build_rubis(), dur);
                assert_eq!(first, run_surface(build_rubis(), dur), "rubis replay diverged ({ctx})");
                let first = run_surface(build_inference(), dur);
                assert_eq!(
                    first,
                    run_surface(build_inference(), dur),
                    "inference replay diverged ({ctx})"
                );
            }
        }
    }
}

/// Every name a selection can use: unit ids, aliases, group names and
/// table slugs. A one-table unit's slug is its id, so it counts once.
fn registry_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    let mut groups = Vec::new();
    for e in bench::EXPERIMENTS {
        names.push(e.id);
        names.extend(e.alias);
        names.extend(e.slugs.iter().copied().filter(|&slug| slug != e.id));
        groups.extend(e.groups.iter().copied());
    }
    groups.sort_unstable();
    groups.dedup();
    names.extend(groups);
    names
}

#[test]
fn registry_names_are_unique_and_unknown_names_are_rejected() {
    let names = registry_names();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        assert_ne!(pair[0], pair[1], "`{}` names two things", pair[0]);
    }
    for reserved in ["all", "list"] {
        assert!(!names.contains(&reserved), "`{reserved}` is a command, not a unit");
    }
    for name in names {
        let units = bench::select(name).unwrap_or_else(|| panic!("`{name}` selects nothing"));
        let group = units.iter().all(|e| e.groups.contains(&name));
        assert!(group || units.len() == 1, "`{name}` selects {} units", units.len());
    }
    assert!(bench::select("no_such_experiment").is_none());
}
