//! Property tests for the fleet layer's ordering and determinism
//! contracts: `(lamport, source)` tie-breaking, the cross-node envelope
//! codec, and bit-identical same-seed replay of whole sharded fleets
//! across worker counts (the CLI's `--jobs 1` vs `--jobs 4`), with
//! session conservation (offered = admitted + rejected) on every
//! generated fleet.

use archipelago::coord::{wire, CoordMsg, EntityId};
use archipelago::fleet::{sort_envelopes, BusConfig, Envelope, FleetTopology, NodeId};
use archipelago::pcie::FaultProfile;
use archipelago::simcore::Nanos;
use simtest::gen::{domain, vec_of, zip2, zip3, Gen};
use simtest::{check, check_with, st_assert, st_assert_eq, Config};

fn env(lamport: u64, source: u16) -> Envelope {
    Envelope {
        lamport,
        source: NodeId(source),
        msg: CoordMsg::Tune {
            entity: EntityId(source as u32),
            delta: 1,
            target: None,
        },
    }
}

// ----------------------------------------------------------------------
// Tie-breaking: equal lamports order by source id
// ----------------------------------------------------------------------

#[test]
fn equal_lamports_order_by_source_id() {
    // Draw lamports from a deliberately small range so ties are common.
    let input = vec_of(zip2(Gen::u64_in(1, 6), Gen::u16_in(0, 9)), 1, 40);
    check("equal_lamports_order_by_source_id", &input, |pairs| {
        let mut envs: Vec<Envelope> = pairs.iter().map(|&(l, s)| env(l, s)).collect();
        sort_envelopes(&mut envs);
        for w in envs.windows(2) {
            st_assert!(
                w[0].lamport <= w[1].lamport,
                "lamport order violated: {} after {}",
                w[1].lamport,
                w[0].lamport
            );
            if w[0].lamport == w[1].lamport {
                st_assert!(
                    w[0].source.0 <= w[1].source.0,
                    "tie at lamport {} must order by source: {} after {}",
                    w[0].lamport,
                    w[1].source.0,
                    w[0].source.0
                );
            }
        }
        Ok(())
    });
}

#[test]
fn tie_break_is_deterministic_regardless_of_arrival_order() {
    // Three same-lamport envelopes arriving 3, 1, 2 still sort 1, 2, 3 —
    // every observer lands on the same order however the wire skewed it.
    let mut a = vec![env(7, 3), env(7, 1), env(7, 2)];
    let mut b = vec![env(7, 2), env(7, 3), env(7, 1)];
    sort_envelopes(&mut a);
    sort_envelopes(&mut b);
    assert_eq!(a, b);
    let sources: Vec<u16> = a.iter().map(|e| e.source.0).collect();
    assert_eq!(sources, vec![1, 2, 3]);
}

// ----------------------------------------------------------------------
// Envelope codec
// ----------------------------------------------------------------------

#[test]
fn envelope_codec_roundtrips_generated_messages() {
    let input = zip3(
        domain::coord_msgs(),
        zip2(Gen::u32_any(), Gen::u64_any()),
        Gen::u16_any(),
    );
    check(
        "envelope_codec_roundtrips_generated_messages",
        &input,
        |(msgs, (seq0, lamport0), source)| {
            // Encode the whole batch back-to-back into one buffer, the
            // way a bus lane frames consecutive sends.
            let mut buf = Vec::new();
            for (i, msg) in msgs.iter().enumerate() {
                let seq = seq0.wrapping_add(i as u32);
                let lamport = lamport0.wrapping_add(i as u64);
                wire::encode_envelope(seq, lamport, *source, msg, &mut buf);
            }
            // Decode sequentially and compare field-for-field.
            let mut off = 0;
            for (i, msg) in msgs.iter().enumerate() {
                let (seq, lamport, src, decoded, used) =
                    wire::decode_envelope(&buf[off..]).map_err(|e| format!("{e:?}"))?;
                st_assert_eq!(seq, seq0.wrapping_add(i as u32));
                st_assert_eq!(lamport, lamport0.wrapping_add(i as u64));
                st_assert_eq!(src, *source);
                st_assert_eq!(&decoded, msg, "inner message must roundtrip");
                off += used;
            }
            st_assert_eq!(off, buf.len(), "decoding must consume the whole buffer");
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// Whole-fleet determinism: same seed, same bytes, any worker count
// ----------------------------------------------------------------------

fn bus_for(latency: Nanos, loss: f64) -> BusConfig {
    let mut bus = BusConfig::perfect(latency);
    bus.fault = FaultProfile::none().with_drop(loss);
    bus.reliable.ack_timeout = Nanos::from_nanos(latency.as_nanos() * 3);
    bus
}

#[test]
fn same_seed_fleet_replays_bit_identically_across_jobs() {
    // The F2 contract at its sharpest: a lossy, coordinated, depth-2
    // fleet must produce byte-identical canonical reports (and digests)
    // with 1 worker, 4 workers, and on serial replay.
    let cfg = || {
        let mut c = bench::fleet_cfg(42, 6, 2, bus_for(Nanos::from_millis(3), 0.25), true);
        c.window = Nanos::from_millis(2);
        c
    };
    let cx = &mut bench::Runner::new();
    let serial = bench::run_fleet(cx, cfg(), 2, 3, 1);
    let fanned = bench::run_fleet(cx, cfg(), 2, 3, 4);
    let replay = bench::run_fleet(cx, cfg(), 2, 3, 1);
    assert_eq!(serial.canonical(), fanned.canonical(), "jobs=1 vs jobs=4");
    assert_eq!(serial.canonical(), replay.canonical(), "jobs=1 vs replay");
    assert_eq!(serial.digest(), fanned.digest());
    assert!(serial.total_events() > 0, "the fleet must actually run");
}

#[test]
fn generated_topologies_replay_bit_identically_across_jobs() {
    // Sweep the whole topology domain (shard count, depth, rack size,
    // latency, loss) with a few cases — each builds the fleet twice,
    // once serial and once on 4 workers, and compares canonical bytes.
    check_with(
        &Config::with_cases(10),
        "generated_topologies_replay_bit_identically_across_jobs",
        &domain::fleet_topology(),
        |shape| {
            let cfg = || {
                let mut c = bench::fleet_cfg(
                    97,
                    shape.shards,
                    shape.depth,
                    bus_for(shape.latency, shape.loss),
                    true,
                );
                c.topo = FleetTopology::new(shape.shards, shape.depth, shape.rack_size);
                c
            };
            let cx = &mut bench::Runner::new();
            let serial = bench::run_fleet(cx, cfg(), 1, 2, 1);
            let fanned = bench::run_fleet(cx, cfg(), 1, 2, 4);
            st_assert_eq!(
                serial.canonical(),
                fanned.canonical(),
                "canonical report must not depend on the worker count"
            );
            st_assert_eq!(serial.digest(), fanned.digest());
            // Session conservation: every session offered at a shard's
            // door is either admitted or rejected, per shard and fleet-wide.
            for s in &serial.per_shard {
                st_assert_eq!(s.offered, s.admitted + s.rejected, "shard {}", s.shard);
            }
            let (offered, admitted, rejected) = serial.sessions();
            st_assert!(offered > 0, "the fleet must see sessions");
            st_assert_eq!(offered, admitted + rejected, "fleet-wide sessions");
            Ok(())
        },
    );
}
