//! Property-based tests over the core data structures and invariants,
//! running on the hermetic `simtest` harness. The twelve properties (and
//! their invariants) are carried over verbatim from the original proptest
//! suite; on failure each prints a `SIMTEST_SEED` that replays the exact
//! case.

use archipelago::coord::{wire, EntityId, IslandId, Registry, TokenBucket};
use archipelago::ixp::{AppTag, Packet, ThreadPool};
use archipelago::simcore::stats::{OnlineStats, Summary};
use archipelago::simcore::{EventQueue, Nanos, SimRng};
use archipelago::xsched::{Burst, CreditScheduler, SchedConfig, WakeMode};
use simtest::gen::{domain, vec_of, zip2, zip3, Gen};
use simtest::{check, check_with, st_assert, st_assert_eq, Config};

// ----------------------------------------------------------------------
// simcore
// ----------------------------------------------------------------------

#[test]
fn event_queue_pops_in_time_order() {
    let times = vec_of(Gen::u64_in(0, 999_999), 1, 199);
    check("event_queue_pops_in_time_order", &times, |times| {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos(t), i);
        }
        let mut last = None;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                st_assert!(t >= lt, "time order violated: {t:?} after {lt:?}");
                if t == lt {
                    st_assert!(idx > lidx, "FIFO among ties violated");
                }
            }
            st_assert_eq!(Nanos(times[idx]), t, "event carries its scheduled time");
            last = Some((t, idx));
            popped += 1;
        }
        st_assert_eq!(popped, times.len());
        Ok(())
    });
}

/// Arbitrary interleavings of schedule/pop stay in lock-step with a
/// brute-force reference model: `peek_time` always reports the pending
/// minimum, `len` counts exactly the pending entries, and pops come out
/// in (time, FIFO) order.
#[test]
fn event_queue_interleaving_matches_reference_model() {
    let ops = vec_of(zip2(Gen::u64_in(0, 1), Gen::u64_in(0, 999_999)), 1, 300);
    check(
        "event_queue_interleaving_matches_reference_model",
        &ops,
        |ops| {
            let mut q = EventQueue::new();
            let mut model: Vec<Option<u64>> = Vec::new(); // index -> pending time
            let live_min = |model: &[Option<u64>]| {
                model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| t.map(|t| (t, i)))
                    .min()
            };
            for &(op, arg) in ops {
                let min = live_min(&model);
                st_assert_eq!(
                    q.peek_time(),
                    min.map(|(t, _)| Nanos(t)),
                    "peek reports the pending minimum"
                );
                st_assert_eq!(q.len(), model.iter().flatten().count());
                match op {
                    0 => {
                        q.schedule(Nanos(arg), model.len());
                        model.push(Some(arg));
                    }
                    _ => match min {
                        None => st_assert!(q.pop().is_none(), "empty queue has nothing to pop"),
                        Some((t, i)) => {
                            let (pt, pi) = q.pop().expect("model says an entry is pending");
                            st_assert_eq!(
                                (pt, pi),
                                (Nanos(t), i),
                                "pop follows (time, FIFO) order"
                            );
                            model[i] = None;
                        }
                    },
                }
            }
            while let Some((t, i)) = q.pop() {
                let min = live_min(&model);
                st_assert_eq!(Some((t.0, i)), min, "drain order");
                model[i] = None;
            }
            st_assert!(
                model.iter().all(Option::is_none),
                "every pending model entry was drained"
            );
            st_assert!(q.is_empty(), "drained queue is empty");
            Ok(())
        },
    );
}

#[test]
fn event_queue_matches_sorted_vec_reference_across_horizons() {
    // Differential test against a naive sorted-vec model, with offsets
    // drawn from three horizon classes spanning five orders of magnitude:
    // a couple of microseconds, about a millisecond, and up to 100 ms
    // (the platform's RTOs and think times). Pops move `now` forward, so
    // new events interleave with long-pending ones. Ops 3 and 4 arm a
    // timer a fixed delay per class from `now` through the FIFO lane
    // (the RTO pattern): same-class calls fill the lane in order, and a
    // shorter class after a longer one falls back to the heap, as do
    // most of op 5's arbitrary offsets. Op 2 puts the same fixed delay
    // on the heap, so lane and heap entries tie in time and must pop in
    // `seq` order.
    const SPAN: [u64; 3] = [2_048, 1_100_000, 100_000_000];
    const FIXED: [u64; 3] = [1_500, 900_000, 500_000_000];
    let ops = vec_of(
        zip3(
            Gen::u64_in(0, 8),
            Gen::u64_in(0, 2),
            Gen::u64_in(0, u64::MAX / 2),
        ),
        1,
        400,
    );
    check(
        "event_queue_matches_sorted_vec_reference_across_horizons",
        &ops,
        |ops| {
            let mut q = EventQueue::new();
            // Reference model: a flat vec of (time, seq), popped by
            // scanning for its minimum. Each event's payload is its seq.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut seq: u64 = 0;
            let mut now: u64 = 0;
            for &(op, class, raw) in ops {
                let ref_min = model.iter().min().copied();
                st_assert_eq!(
                    q.peek_time(),
                    ref_min.map(|(t, _)| Nanos(t)),
                    "peek reports the reference minimum"
                );
                st_assert_eq!(q.len(), model.len());
                st_assert_eq!(q.is_empty(), model.is_empty());
                match op {
                    0..=5 => {
                        let c = class as usize;
                        let t = match op {
                            2..=4 => now + FIXED[c],
                            _ => now + raw % SPAN[c],
                        };
                        if op < 3 {
                            q.schedule(Nanos(t), seq);
                        } else {
                            q.schedule_fifo(Nanos(t), seq);
                        }
                        model.push((t, seq));
                        seq += 1;
                    }
                    _ => match ref_min {
                        None => st_assert!(q.pop().is_none(), "empty queue has nothing to pop"),
                        Some(m) => {
                            let (t, id) = m;
                            let (pt, pid) = q.pop().expect("reference has a pending entry");
                            st_assert_eq!(
                                (pt, pid),
                                (Nanos(t), id),
                                "pop follows (time, seq) order"
                            );
                            let pos = model.iter().position(|e| *e == m).unwrap();
                            model.swap_remove(pos);
                            now = t;
                        }
                    },
                }
            }
            model.sort();
            for &(t, id) in &model {
                st_assert_eq!(
                    q.pop(),
                    Some((Nanos(t), id)),
                    "drain follows the sorted reference"
                );
            }
            st_assert!(q.pop().is_none(), "both empty after drain");
            st_assert!(q.is_empty(), "drained queue is empty");
            Ok(())
        },
    );
}

#[test]
fn rng_streams_are_reproducible() {
    check("rng_streams_are_reproducible", &Gen::u64_any(), |&seed| {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            st_assert_eq!(a.next_u64(), b.next_u64());
        }
        Ok(())
    });
}

#[test]
fn online_stats_match_naive_computation() {
    let xs = vec_of(Gen::f64_in(-1e6, 1e6), 2, 199);
    check("online_stats_match_naive_computation", &xs, |xs| {
        let mut s = OnlineStats::new();
        for &x in xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        st_assert!(
            (s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "mean drifted: welford {} vs naive {mean}",
            s.mean()
        );
        st_assert!(
            (s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()),
            "variance drifted: welford {} vs naive {var}",
            s.variance()
        );
        Ok(())
    });
}

#[test]
fn summary_min_max_bound_mean() {
    let xs = vec_of(Gen::f64_in(0.0, 1e6), 1, 99);
    check("summary_min_max_bound_mean", &xs, |xs| {
        let mut s = Summary::new();
        for &x in xs {
            s.record(x);
        }
        st_assert!(
            s.min() <= s.mean() + 1e-9,
            "min {} > mean {}",
            s.min(),
            s.mean()
        );
        st_assert!(
            s.mean() <= s.max() + 1e-9,
            "mean {} > max {}",
            s.mean(),
            s.max()
        );
        st_assert_eq!(s.count(), xs.len() as u64);
        Ok(())
    });
}

// ----------------------------------------------------------------------
// coord: wire codec and registry
// ----------------------------------------------------------------------

#[test]
fn wire_codec_roundtrips() {
    check("wire_codec_roundtrips", &domain::coord_msg(), |msg| {
        let mut buf = Vec::new();
        let n = wire::encode(msg, &mut buf);
        st_assert_eq!(n, buf.len());
        st_assert!(n <= 16, "messages stay mailbox-sized: {n} bytes");
        let (decoded, used) = wire::decode(&buf).map_err(|e| format!("decode failed: {e:?}"))?;
        st_assert_eq!(decoded, *msg);
        st_assert_eq!(used, n);
        Ok(())
    });
}

#[test]
fn wire_codec_streams_roundtrip() {
    check(
        "wire_codec_streams_roundtrip",
        &domain::coord_msgs(),
        |msgs| {
            let mut buf = Vec::new();
            for m in msgs {
                wire::encode(m, &mut buf);
            }
            let mut off = 0;
            for m in msgs {
                let (d, n) =
                    wire::decode(&buf[off..]).map_err(|e| format!("decode failed: {e:?}"))?;
                st_assert_eq!(d, *m);
                off += n;
            }
            st_assert_eq!(off, buf.len());
            Ok(())
        },
    );
}

#[test]
fn truncated_wire_messages_never_panic() {
    let input = zip2(domain::coord_msg(), Gen::u64_in(0, 15));
    check(
        "truncated_wire_messages_never_panic",
        &input,
        |(msg, cut)| {
            let mut buf = Vec::new();
            let n = wire::encode(msg, &mut buf);
            let cut = (*cut as usize).min(n.saturating_sub(1));
            // Decoding any strict prefix errors cleanly.
            st_assert!(
                wire::decode(&buf[..cut]).is_err() || cut == 0 && n == 0,
                "decoding a {cut}-byte prefix of a {n}-byte message succeeded"
            );
            Ok(())
        },
    );
}

#[test]
fn framed_wire_prefixes_never_decode() {
    // Every tag — including the tag-6 reliable-delivery frame — rejects
    // every strict prefix of its encoding with a clean error, under both
    // the plain and the framed decoder.
    let input = zip2(
        zip2(domain::coord_msg(), Gen::u32_any()),
        Gen::u64_in(0, 63),
    );
    check(
        "framed_wire_prefixes_never_decode",
        &input,
        |((msg, seq), cut)| {
            let mut plain = Vec::new();
            let n = wire::encode(msg, &mut plain);
            let c = (*cut as usize) % n;
            st_assert!(
                wire::decode(&plain[..c]).is_err(),
                "plain decode of a {c}-byte prefix of a {n}-byte message succeeded"
            );
            st_assert!(
                wire::decode_framed(&plain[..c]).is_err(),
                "framed decode of a {c}-byte plain prefix succeeded"
            );

            let mut framed = Vec::new();
            let fl = wire::encode_framed(*seq, msg, &mut framed);
            let (s, d, used) = wire::decode_framed(&framed)
                .map_err(|e| format!("frame round-trip failed: {e:?}"))?;
            st_assert_eq!(s, *seq);
            st_assert_eq!(d, *msg);
            st_assert_eq!(used, fl);
            // The plain decoder never accepts a frame (tag namespaces stay
            // disjoint), and neither decoder accepts a strict frame prefix.
            st_assert!(
                wire::decode(&framed).is_err(),
                "plain decode accepted a frame"
            );
            let fc = (*cut as usize) % fl;
            st_assert!(
                wire::decode_framed(&framed[..fc]).is_err(),
                "framed decode of a {fc}-byte prefix of a {fl}-byte frame succeeded"
            );
            st_assert!(
                wire::decode(&framed[..fc]).is_err(),
                "plain decode of a {fc}-byte frame prefix succeeded"
            );
            Ok(())
        },
    );
}

#[test]
fn arbitrary_bytes_never_panic_the_wire_decoders() {
    // Decoding untrusted bytes either errors or reports a consumed length
    // within bounds; it never panics.
    let bytes = vec_of(Gen::u64_in(0, 255).map(|b| b as u8), 0, 40);
    check(
        "arbitrary_bytes_never_panic_the_wire_decoders",
        &bytes,
        |bytes| {
            if let Ok((_, used)) = wire::decode(bytes) {
                st_assert!(used <= bytes.len(), "decode used {used} of {}", bytes.len());
            }
            if let Ok((_, _, used)) = wire::decode_framed(bytes) {
                st_assert!(
                    used <= bytes.len(),
                    "decode_framed used {used} of {}",
                    bytes.len()
                );
            }
            if let Ok((_, _, _, _, used)) = wire::decode_envelope(bytes) {
                st_assert!(
                    used <= bytes.len(),
                    "decode_envelope used {used} of {}",
                    bytes.len()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn registry_is_bijective() {
    let bindings = vec_of(
        zip3(Gen::u32_any(), Gen::u16_in(0, 7), Gen::u64_any()),
        1,
        99,
    );
    check("registry_is_bijective", &bindings, |bindings| {
        let mut r = Registry::new();
        let mut accepted = Vec::new();
        for &(e, i, k) in bindings {
            if r.bind(EntityId(e), IslandId(i), k).is_ok() {
                accepted.push((EntityId(e), IslandId(i), k));
            }
        }
        for (e, i, k) in &accepted {
            st_assert_eq!(
                r.local_key(*e, *i)
                    .map_err(|e| format!("accepted binding lost: {e:?}"))?,
                *k
            );
            st_assert_eq!(r.entity_of(*i, *k), Some(*e));
        }
        st_assert_eq!(r.len(), accepted.len());
        Ok(())
    });
}

#[test]
fn registry_range_lookup_matches_a_scan_of_all_bindings() {
    // Few entities and islands, so entities collect several bindings and
    // their key ranges sit next to each other.
    let bindings = vec_of(
        zip3(Gen::u32_in(0, 5), Gen::u16_in(0, 5), Gen::u64_any()),
        0,
        60,
    );
    check(
        "registry_range_lookup_matches_a_scan_of_all_bindings",
        &bindings,
        |bindings| {
            let mut r = Registry::new();
            let mut accepted = Vec::new();
            for &(e, i, k) in bindings {
                if r.bind(EntityId(e), IslandId(i), k).is_ok() && r.len() > accepted.len() {
                    accepted.push((EntityId(e), IslandId(i), k));
                }
            }
            for e in (0..=6).map(EntityId) {
                let mut scan: Vec<(IslandId, u64)> = accepted
                    .iter()
                    .filter(|(be, _, _)| *be == e)
                    .map(|&(_, i, k)| (i, k))
                    .collect();
                scan.sort_by_key(|&(i, _)| i);
                st_assert_eq!(r.bindings_of(e).collect::<Vec<_>>(), scan, "entity {e}");
            }
            Ok(())
        },
    );
}

#[test]
fn token_bucket_respects_long_run_rate() {
    let input = zip3(
        Gen::f64_in(1.0, 1000.0),
        Gen::f64_in(1.0, 100.0),
        Gen::u64_in(100, 1999),
    );
    check(
        "token_bucket_respects_long_run_rate",
        &input,
        |&(rate, burst, attempts)| {
            let mut b = TokenBucket::new(rate, burst);
            let horizon = Nanos::from_secs(10);
            let step = Nanos(horizon.as_nanos() / attempts);
            let mut taken = 0u64;
            let mut t = Nanos::ZERO;
            for _ in 0..attempts {
                if b.try_take(t) {
                    taken += 1;
                }
                t += step;
            }
            let bound = rate * 10.0 + burst + 1.0;
            st_assert!((taken as f64) <= bound, "{taken} > {bound}");
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// ixp: thread pool conservation
// ----------------------------------------------------------------------

#[test]
fn thread_pool_conserves_packets() {
    let input = zip3(
        Gen::u32_in(1, 7),
        Gen::u64_in(100, 9_999),
        vec_of(domain::packet_len(), 1, 199),
    );
    check(
        "thread_pool_conserves_packets",
        &input,
        |(threads, capacity, lens)| {
            let mut pool = ThreadPool::new(*threads, Nanos::ZERO, *capacity);
            let mut in_service = 0u64;
            for (i, &len) in lens.iter().enumerate() {
                let pkt = Packet::new(i as u64, 0, len, AppTag::Plain);
                if pool.offer(pkt).is_some() {
                    in_service += 1;
                }
            }
            // offered = in_service + queued + dropped
            st_assert_eq!(
                lens.len() as u64,
                in_service + pool.queue_len() as u64 + pool.dropped()
            );
            st_assert!(
                pool.queued_bytes() <= *capacity,
                "queue overflowed its byte capacity: {} > {capacity}",
                pool.queued_bytes()
            );
            // Drain: every completion may start a queued packet.
            let mut completed = 0u64;
            while in_service > 0 {
                if pool.finish_one().is_some() {
                    in_service += 1; // a queued packet started
                }
                in_service -= 1;
                completed += 1;
            }
            st_assert_eq!(completed, pool.served());
            st_assert_eq!(completed + pool.dropped(), lens.len() as u64);
            st_assert_eq!(pool.queue_len(), 0);
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// xsched: weight-proportional fairness under saturation
// ----------------------------------------------------------------------

#[test]
fn credit_scheduler_is_weight_proportional() {
    let weights = zip2(domain::weight(), domain::weight());
    check_with(
        &Config::with_cases(16),
        "credit_scheduler_is_weight_proportional",
        &weights,
        |&(wa, wb)| {
            let mut s = CreditScheduler::new(SchedConfig::new(1));
            let a = s.create_domain("a", wa, 1);
            let b = s.create_domain("b", wb, 1);
            s.submit(
                Nanos::ZERO,
                a,
                Burst::user(Nanos::from_secs(30), 1),
                WakeMode::Plain,
            )
            .map_err(|e| format!("submit a: {e:?}"))?;
            s.submit(
                Nanos::ZERO,
                b,
                Burst::user(Nanos::from_secs(30), 2),
                WakeMode::Plain,
            )
            .map_err(|e| format!("submit b: {e:?}"))?;
            let mut evs = Vec::new();
            while let Some(t) = s.next_event_time() {
                if t > Nanos::from_secs(10) {
                    break;
                }
                evs.clear();
                s.on_timer(t, &mut evs);
            }
            let snap = s.usage_snapshot();
            let ua = snap.cpu_percent(a);
            let ub = snap.cpu_percent(b);
            let expect_a = 100.0 * wa as f64 / (wa + wb) as f64;
            st_assert!(
                (ua + ub - 100.0).abs() < 3.0,
                "work conserving: {}",
                ua + ub
            );
            st_assert!(
                (ua - expect_a).abs() < 8.0,
                "a got {ua}% of cpu, expected ~{expect_a}% (weights {wa}:{wb})"
            );
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// harness self-check: a forced failure must print a reproducible seed
// ----------------------------------------------------------------------

/// Not one of the twelve ported properties: verifies the acceptance
/// criterion that a failing property reports a `SIMTEST_SEED` which
/// regenerates the exact counterexample.
#[test]
fn forced_failure_reports_reproducible_seed() {
    let gen = vec_of(Gen::u64_in(0, 99), 1, 20);
    let failing = |v: &Vec<u64>| -> Result<(), String> {
        st_assert!(v.iter().sum::<u64>() < 40, "sum too large: {v:?}");
        Ok(())
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_with(
            &Config::with_cases(200),
            "forced_failure_demo",
            &gen,
            failing,
        );
    }));
    let msg = *result
        .expect_err("the property must fail")
        .downcast::<String>()
        .expect("simtest panics with a String");
    // Extract the reported seed and replay it: the regenerated case must
    // fail the same way.
    let seed: u64 = msg
        .split("SIMTEST_SEED=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no seed in failure message: {msg}"));
    let replayed = gen.sample(&mut SimRng::new(seed));
    assert!(
        failing(&replayed).is_err(),
        "seed {seed} did not reproduce the failing case (got {replayed:?})"
    );
}
