//! Scaling coordination to many islands with the hierarchical fabric
//! (the paper's §5: "distributed coordination algorithms across multiple
//! island resource managers").
//!
//! Eight zones, each owning four islands with eight entities; Tune
//! traffic with 90% zone locality. A single global controller would
//! serialize all of it; the fabric resolves local messages locally and
//! routes only the cross-zone remainder through the root directory.
//!
//! ```sh
//! cargo run --release --example hierarchy_fabric
//! ```

use archipelago::coord::hierarchy::{HierarchicalController, ZoneId};
use archipelago::coord::{CoordMsg, EntityId, IslandId, IslandKind};
use archipelago::simcore::{Nanos, SimRng};

fn main() {
    let zones = 8u16;
    let islands_per_zone = 4u16;
    let entities_per_island = 8u32;
    let mut fabric = HierarchicalController::new(zones);
    let mut entities: Vec<(ZoneId, EntityId)> = Vec::new();
    for z in 0..zones {
        for i in 0..islands_per_zone {
            let island = IslandId(z * islands_per_zone + i);
            fabric.register_island(ZoneId(z), island, IslandKind::GeneralPurpose);
            for e in 0..entities_per_island {
                let entity = EntityId(island.0 as u32 * entities_per_island + e);
                fabric.register_entity(ZoneId(z), entity, island, e as u64);
                entities.push((ZoneId(z), entity));
            }
        }
    }

    let mut rng = SimRng::new(7);
    let msgs = 200_000u32;
    for i in 0..msgs {
        let origin = ZoneId((i % zones as u32) as u16);
        let want_local = rng.chance(0.9);
        let (_, entity) = loop {
            let pick = entities[rng.below(entities.len() as u64) as usize];
            if (pick.0 == origin) == want_local {
                break pick;
            }
        };
        fabric.handle(
            Nanos::from_micros(i as u64),
            origin,
            CoordMsg::Tune {
                entity,
                delta: 1,
                target: None,
            },
        );
    }

    println!(
        "{} Tunes across {} islands in {} zones (90% zone-local traffic)\n",
        msgs,
        zones * islands_per_zone,
        zones
    );
    println!(
        "{:<6} {:>9} {:>10} {:>10}",
        "zone", "local", "remote-in", "fwd-out"
    );
    for z in 0..zones {
        let l = fabric.load(ZoneId(z));
        println!(
            "{:<6} {:>9} {:>10} {:>10}",
            z, l.local, l.remote_in, l.forwarded_out
        );
    }
    println!(
        "\nroot directory lookups: {} ({:.1}% of traffic; a centralized \
         controller would serialize 100%)",
        fabric.root_lookups(),
        fabric.root_lookups() as f64 * 100.0 / msgs as f64
    );
}
