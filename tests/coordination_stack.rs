//! Integration of the coordination stack without the full platform:
//! policy → wire codec → mailbox → controller → island managers
//! (weights, BOOST and credit on the credit scheduler, thread knobs on
//! the IXP island).

use archipelago::coord::{
    wire, Action, Controller, CoordMsg, CoordinationPolicy, EntityId, IslandId, IslandKind,
    Observation, RequestTypePolicy, StreamQosPolicy,
};
use archipelago::ixp::{IxpConfig, IxpIsland};
use archipelago::pcie::Mailbox;
use archipelago::simcore::Nanos;
use archipelago::xsched::{Burst, CreditScheduler, SchedConfig, WakeMode};

const X86: IslandId = IslandId(0);
const IXP: IslandId = IslandId(1);

fn registered_controller(web_dom: u32, flow: u32) -> Controller {
    let mut c = Controller::new();
    c.handle(
        Nanos::ZERO,
        CoordMsg::RegisterIsland {
            island: X86,
            kind: IslandKind::GeneralPurpose,
        },
    );
    c.handle(
        Nanos::ZERO,
        CoordMsg::RegisterIsland {
            island: IXP,
            kind: IslandKind::NetworkProcessor,
        },
    );
    c.handle(
        Nanos::ZERO,
        CoordMsg::RegisterEntity {
            entity: EntityId(1),
            island: X86,
            local_key: web_dom as u64,
        },
    );
    c.handle(
        Nanos::ZERO,
        CoordMsg::RegisterEntity {
            entity: EntityId(1),
            island: IXP,
            local_key: flow as u64,
        },
    );
    c
}

#[test]
fn tune_travels_policy_to_scheduler() {
    let mut sched: CreditScheduler = CreditScheduler::new(SchedConfig::new(2));
    let web = sched.create_domain("web", 256, 1);
    let app = sched.create_domain("app", 256, 1);
    let db = sched.create_domain("db", 256, 1);

    let mut controller = Controller::new();
    controller.handle(
        Nanos::ZERO,
        CoordMsg::RegisterIsland {
            island: X86,
            kind: IslandKind::GeneralPurpose,
        },
    );
    for (e, d) in [(1u32, web), (2, app), (3, db)] {
        controller.handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity {
                entity: EntityId(e),
                island: X86,
                local_key: d.0 as u64,
            },
        );
    }

    let mut policy = RequestTypePolicy::new(EntityId(1), EntityId(2), EntityId(3), X86);
    let mut mbx: Mailbox<Vec<u8>> = Mailbox::new(Nanos::from_micros(30));

    // A read request classified on the IXP at t=0.
    let mut msgs = Vec::new();
    policy.observe(
        Nanos::ZERO,
        &Observation::Request {
            class_id: 1,
            write: false,
        },
        &mut msgs,
    );
    assert!(!msgs.is_empty());
    for m in &msgs {
        let mut buf = Vec::new();
        wire::encode(m, &mut buf);
        mbx.send(Nanos::ZERO, buf);
    }
    // Nothing before the channel latency elapses.
    let mut delivered = Vec::new();
    mbx.on_timer(Nanos::from_micros(29), &mut delivered);
    assert!(delivered.is_empty());
    mbx.on_timer(Nanos::from_micros(30), &mut delivered);
    assert_eq!(delivered.len(), msgs.len());

    let mut ctl_weights = Vec::new();
    for bytes in delivered {
        let (msg, _) = wire::decode(&bytes).expect("valid wire message");
        for action in controller.handle(Nanos::from_micros(30), msg) {
            let Action::ApplyTune {
                island,
                local_key,
                delta,
            } = action
            else {
                panic!("expected tunes")
            };
            assert_eq!(island, X86);
            let dom = archipelago::xsched::DomId(local_key as u32);
            let new = sched.weight(dom).expect("domain exists") as i64 + delta as i64;
            let new = new.clamp(1, 65_535) as u32;
            sched.set_weight(dom, new).expect("domain exists");
            ctl_weights.push((local_key, sched.weight(dom).unwrap()));
        }
    }
    // Read regime: web and app rise to 768; db stays at the 256 base.
    assert!(ctl_weights.contains(&(web.0 as u64, 768)));
    assert!(ctl_weights.contains(&(app.0 as u64, 768)));
    assert_eq!(sched.weight(db).unwrap(), 256);
}

#[test]
fn stream_qos_tandem_reaches_both_islands() {
    let mut controller = registered_controller(1, 0);
    let mut policy = StreamQosPolicy::new(X86, 500).with_tandem_ixp(IXP);
    let mut msgs = Vec::new();
    policy.observe(
        Nanos::ZERO,
        &Observation::StreamInfo {
            entity: EntityId(1),
            kbps: 1000,
            fps: 25,
        },
        &mut msgs,
    );
    assert_eq!(msgs.len(), 2);
    let mut islands = Vec::new();
    for m in msgs {
        for a in controller.handle(Nanos::ZERO, m) {
            let Action::ApplyTune { island, .. } = a else {
                panic!("tunes only")
            };
            islands.push(island);
        }
    }
    assert!(islands.contains(&X86));
    assert!(islands.contains(&IXP));
}

#[test]
fn ixp_tune_changes_flow_threads() {
    let mut island = IxpIsland::new(IxpConfig::default());
    let flow = island.register_flow(1);
    let before = island.flow_threads(flow);
    let mut controller = registered_controller(1, flow.0);
    let actions = controller.handle(
        Nanos::ZERO,
        CoordMsg::Tune {
            entity: EntityId(1),
            delta: 2,
            target: Some(IXP),
        },
    );
    for a in actions {
        let Action::ApplyTune {
            island: isl,
            local_key,
            delta,
        } = a
        else {
            panic!("tune")
        };
        assert_eq!(isl, IXP);
        let f = archipelago::ixp::FlowId(local_key as u32);
        island.set_flow_threads(f, (island.flow_threads(f) as i64 + delta as i64) as u32);
    }
    assert_eq!(island.flow_threads(flow), before + 2);
}

#[test]
fn trigger_grants_priority_and_credit() {
    // Four equal-weight domains pile onto one pCPU; the last one in has a
    // tiny burst stuck at the tail of the UNDER queue. A Trigger jumps it
    // to the front; without one it waits out the slices ahead of it.
    let finish_time = |trigger: bool| -> Nanos {
        let mut sched = CreditScheduler::new(SchedConfig::new(1));
        let doms: Vec<_> = (0..3)
            .map(|i| sched.create_domain(&format!("hog{i}"), 256, 1))
            .collect();
        let victim = sched.create_domain("victim", 256, 1);
        for (i, d) in doms.iter().enumerate() {
            sched
                .submit(
                    Nanos::ZERO,
                    *d,
                    Burst::user(Nanos::from_secs(1), i as u64),
                    WakeMode::Plain,
                )
                .unwrap();
        }
        sched
            .submit(
                Nanos::ZERO,
                victim,
                Burst::user(Nanos::from_micros(500), 9),
                WakeMode::Plain,
            )
            .unwrap();
        if trigger {
            let done = sched.trigger(Nanos::from_micros(100), victim).unwrap();
            assert!(done.is_empty(), "nothing completes in the first 100 us");
        }
        let mut evs = Vec::new();
        loop {
            let Some(t) = sched.next_event_time() else {
                panic!("work pending")
            };
            assert!(t < Nanos::from_secs(2), "victim never completed");
            evs.clear();
            sched.on_timer(t, &mut evs);
            for ev in &evs {
                if let archipelago::xsched::SchedEvent::Completed { tag: 9, at, .. } = ev {
                    return *at;
                }
            }
        }
    };
    let plain = finish_time(false);
    let triggered = finish_time(true);
    assert!(
        triggered <= Nanos::from_millis(1),
        "triggered victim preempts immediately: {triggered}"
    );
    assert!(
        plain >= Nanos::from_millis(10),
        "plain victim waits behind the queue: {plain}"
    );
}

#[test]
fn unregistered_entity_is_rejected_not_applied() {
    let mut controller = registered_controller(1, 0);
    let actions = controller.handle(
        Nanos::ZERO,
        CoordMsg::Tune {
            entity: EntityId(99),
            delta: 64,
            target: None,
        },
    );
    assert!(actions.is_empty());
    assert_eq!(controller.stats().rejected, 1);
}

#[test]
fn wire_stream_of_policy_output_decodes() {
    let mut policy = RequestTypePolicy::new(EntityId(1), EntityId(2), EntityId(3), X86);
    let mut buf = Vec::new();
    let mut count = 0;
    let mut msgs = Vec::new();
    for (i, write) in [false, true, false, true, true, false].iter().enumerate() {
        policy.observe(
            Nanos::from_millis(i as u64),
            &Observation::Request {
                class_id: i as u16,
                write: *write,
            },
            &mut msgs,
        );
        for m in msgs.drain(..) {
            wire::encode(&m, &mut buf);
            count += 1;
        }
    }
    let mut off = 0;
    let mut decoded = 0;
    while off < buf.len() {
        let (_, n) = wire::decode(&buf[off..]).expect("self-delimiting stream");
        off += n;
        decoded += 1;
    }
    assert_eq!(decoded, count);
}
