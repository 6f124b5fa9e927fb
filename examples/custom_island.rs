//! Building your own scheduling island against the coordination API.
//!
//! The paper argues Tune/Trigger should be *standard interfaces* exported
//! by system software, so new islands (a GPU runtime, a storage engine, an
//! I/O scheduler) can join coordination without knowing the others'
//! resource abstractions. This example implements a toy I/O-scheduler
//! island whose Tune translation is a poll-interval adjustment — the
//! paper's own example of heterogeneous translation (§3.3) — and drives it
//! through the global controller with wire-encoded messages.
//!
//! ```sh
//! cargo run --release --example custom_island
//! ```

use archipelago::coord::{
    wire, Action, Controller, CoordError, CoordMsg, CoordinationPolicy, EntityId, IslandId,
    IslandKind, Observation, RequestTypePolicy, ResourceManager,
};
use archipelago::simcore::Nanos;

/// A toy I/O-scheduler island: each entity has a poll interval; Tunes make
/// polling more or less aggressive, Triggers force an immediate poll.
struct IoSchedulerIsland {
    id: IslandId,
    poll_us: Vec<(u64, i64)>, // (local_key, poll interval in µs)
    immediate_polls: u32,
}

impl IoSchedulerIsland {
    fn new(id: IslandId) -> Self {
        IoSchedulerIsland {
            id,
            poll_us: Vec::new(),
            immediate_polls: 0,
        }
    }

    fn register(&mut self, local_key: u64, poll_us: i64) {
        self.poll_us.push((local_key, poll_us));
    }

    fn poll_of(&self, local_key: u64) -> Option<i64> {
        self.poll_us
            .iter()
            .find(|(k, _)| *k == local_key)
            .map(|&(_, p)| p)
    }

    fn entry_mut(&mut self, entity: EntityId) -> Result<&mut (u64, i64), CoordError> {
        let key = entity.0 as u64;
        self.poll_us
            .iter_mut()
            .find(|(k, _)| *k == key)
            .ok_or(CoordError::NotMapped {
                entity,
                island: IslandId(9),
            })
    }
}

impl ResourceManager for IoSchedulerIsland {
    fn island(&self) -> IslandId {
        self.id
    }
    fn kind(&self) -> IslandKind {
        IslandKind::Storage
    }
    fn apply_tune(&mut self, _now: Nanos, entity: EntityId, delta: i32) -> Result<(), CoordError> {
        // Translation: positive deltas mean "more resources" — here, a
        // shorter poll interval. 64 tune units halve/double the interval.
        let e = self.entry_mut(entity)?;
        let factor = 2f64.powf(-(delta as f64) / 64.0);
        e.1 = ((e.1 as f64 * factor).round() as i64).clamp(10, 1_000_000);
        Ok(())
    }
    fn apply_trigger(&mut self, _now: Nanos, entity: EntityId) -> Result<(), CoordError> {
        self.entry_mut(entity)?;
        self.immediate_polls += 1;
        Ok(())
    }
}

fn main() {
    let io_island = IslandId(7);
    let mut island = IoSchedulerIsland::new(io_island);
    let mut controller = Controller::new();

    // Initialisation: the island registers with the global controller,
    // then the entities register their island-local identities (§2.3).
    controller.handle(
        Nanos::ZERO,
        CoordMsg::RegisterIsland {
            island: io_island,
            kind: IslandKind::Storage,
        },
    );
    let web = EntityId(1);
    let app = EntityId(2);
    let db = EntityId(3);
    for e in [web, app, db] {
        controller.handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity {
                entity: e,
                island: io_island,
                local_key: e.0 as u64,
            },
        );
        island.register(e.0 as u64, 1_000); // 1 ms poll to start
    }

    // A stock policy produces Tunes from classified requests; we encode
    // them to wire bytes (as the PCI mailbox would carry them), decode at
    // the controller, and apply the resolved actions on our island.
    let mut policy = RequestTypePolicy::new(web, app, db, io_island);
    let observations = [
        Observation::Request {
            class_id: 1,
            write: false,
        },
        Observation::Request {
            class_id: 11,
            write: true,
        },
        Observation::Request {
            class_id: 11,
            write: true,
        },
        Observation::Request {
            class_id: 7,
            write: false,
        },
    ];
    let mut bytes_on_wire = 0usize;
    let mut msgs = Vec::new();
    for (i, obs) in observations.iter().enumerate() {
        let now = Nanos::from_millis(i as u64 * 10);
        policy.observe(now, obs, &mut msgs);
        for msg in msgs.drain(..) {
            let mut buf = Vec::new();
            bytes_on_wire += wire::encode(&msg, &mut buf);
            let (decoded, _) = wire::decode(&buf).expect("round-trip");
            for action in controller.handle(now, decoded) {
                match action {
                    Action::ApplyTune {
                        local_key, delta, ..
                    } => {
                        island
                            .apply_tune(now, EntityId(local_key as u32), delta)
                            .expect("bound entity");
                    }
                    Action::ApplyTrigger { local_key, .. } => {
                        island
                            .apply_trigger(now, EntityId(local_key as u32))
                            .expect("bound entity");
                    }
                    // Energy-knob verbs target the x86 island's DVFS /
                    // cache / membw lattice; an I/O scheduler has none.
                    Action::ApplyKnob { .. } => {}
                }
            }
        }
    }

    println!("I/O-scheduler island after coordination:");
    for e in [web, app, db] {
        println!(
            "  entity{} poll interval: {} us",
            e.0,
            island.poll_of(e.0 as u64).unwrap()
        );
    }
    println!(
        "controller stats: {:?}; {} bytes crossed the wire",
        controller.stats(),
        bytes_on_wire
    );
}
