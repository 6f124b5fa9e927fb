//! Composable value generators with greedy shrinking.
//!
//! A [`Gen<T>`] couples a sampling function (driven by [`simcore::SimRng`],
//! so every draw is deterministic in the case seed) with a shrinking
//! function that proposes strictly "smaller" candidates for a failing
//! value. Shrinking operates on values, not on the random stream: given
//! the same failing value, the shrink sequence replays identically, which
//! keeps `SIMTEST_SEED` reproductions exact.

use simcore::{Nanos, SimRng};
use std::rc::Rc;

type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A generator of values of type `T` with optional shrinking.
///
/// Cloning is cheap (reference-counted closures), so generators compose
/// freely: build once, reuse across properties.
///
/// # Example
///
/// ```
/// use simtest::gen::Gen;
/// use simcore::SimRng;
/// let g = Gen::u64_in(10, 20);
/// let mut rng = SimRng::new(1);
/// let v = g.sample(&mut rng);
/// assert!((10..=20).contains(&v));
/// // Shrink candidates stay inside the configured range.
/// assert!(g.shrinks(&v).iter().all(|s| (10..=20).contains(s)));
/// ```
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut SimRng) -> T>,
    shrink: ShrinkFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            sample: Rc::clone(&self.sample),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a sampling function, with no shrinking.
    pub fn new(f: impl Fn(&mut SimRng) -> T + 'static) -> Self {
        Gen {
            sample: Rc::new(f),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// Attaches (replaces) the shrinking function: given a failing value,
    /// return candidate replacements in most-aggressive-first order.
    pub fn with_shrink(mut self, s: impl Fn(&T) -> Vec<T> + 'static) -> Self {
        self.shrink = Rc::new(s);
        self
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut SimRng) -> T {
        (self.sample)(rng)
    }

    /// Shrink candidates for `v` (possibly empty).
    pub fn shrinks(&self, v: &T) -> Vec<T> {
        (self.shrink)(v)
    }

    /// Maps the generated value. Shrinking is lost (the mapping is not
    /// invertible in general); reattach with
    /// [`with_shrink`](Self::with_shrink) if the image type shrinks.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let sample = self.sample;
        Gen::new(move |rng| f(sample(rng)))
    }

    /// Picks uniformly among several generators of the same type. A
    /// failing value is offered every branch's shrink candidates (greedy
    /// shrinking keeps only candidates that still fail, so foreign
    /// branches' suggestions are simply discarded by the runner).
    pub fn one_of(gens: Vec<Gen<T>>) -> Gen<T> {
        assert!(!gens.is_empty(), "one_of needs at least one generator");
        let shrinkers: Vec<Gen<T>> = gens.clone();
        let n = gens.len() as u64;
        Gen::new(move |rng| gens[rng.below(n) as usize].sample(rng))
            .with_shrink(move |v| shrinkers.iter().flat_map(|g| g.shrinks(v)).collect())
    }
}

impl<T: Clone + PartialEq + 'static> Gen<T> {
    /// Always the same value. Shrinks to nothing.
    pub fn just(v: T) -> Gen<T> {
        Gen::new(move |_| v.clone())
    }

    /// Picks uniformly from a fixed list; shrinks toward earlier entries.
    pub fn choice(values: Vec<T>) -> Gen<T> {
        assert!(!values.is_empty(), "choice needs at least one value");
        let n = values.len() as u64;
        let vals = values.clone();
        Gen::new(move |rng| values[rng.below(n) as usize].clone())
            .with_shrink(move |v| vals.iter().take_while(|c| *c != v).cloned().collect())
    }
}

/// Candidates between `lo` and `v` (exclusive), nearest `lo` first:
/// `lo`, then binary steps toward `v`, then `v - 1`.
fn shrink_integer_toward(lo: i128, v: i128) -> Vec<i128> {
    let mut out = Vec::new();
    if v == lo {
        return out;
    }
    out.push(lo);
    let mut gap = v - lo;
    while gap > 1 {
        gap /= 2;
        let cand = v - gap;
        if cand != lo && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

impl Gen<u64> {
    /// Uniform in `[lo, hi]`, shrinking toward `lo`.
    pub fn u64_in(lo: u64, hi: u64) -> Gen<u64> {
        assert!(lo <= hi);
        Gen::new(move |rng| rng.range(lo, hi)).with_shrink(move |&v| {
            shrink_integer_toward(lo as i128, v as i128)
                .into_iter()
                .map(|x| x as u64)
                .collect()
        })
    }

    /// Any `u64`, shrinking toward zero.
    pub fn u64_any() -> Gen<u64> {
        Gen::new(|rng| rng.next_u64()).with_shrink(|&v| {
            shrink_integer_toward(0, v as i128)
                .into_iter()
                .map(|x| x as u64)
                .collect()
        })
    }
}

impl Gen<u32> {
    /// Uniform in `[lo, hi]`, shrinking toward `lo`.
    pub fn u32_in(lo: u32, hi: u32) -> Gen<u32> {
        Gen::u64_in(lo as u64, hi as u64)
            .map(|v| v as u32)
            .with_shrink(move |&v| {
                shrink_integer_toward(lo as i128, v as i128)
                    .into_iter()
                    .map(|x| x as u32)
                    .collect()
            })
    }

    /// Any `u32`, shrinking toward zero.
    pub fn u32_any() -> Gen<u32> {
        Gen::u32_in(0, u32::MAX)
    }
}

impl Gen<u16> {
    /// Uniform in `[lo, hi]`, shrinking toward `lo`.
    pub fn u16_in(lo: u16, hi: u16) -> Gen<u16> {
        Gen::u64_in(lo as u64, hi as u64)
            .map(|v| v as u16)
            .with_shrink(move |&v| {
                shrink_integer_toward(lo as i128, v as i128)
                    .into_iter()
                    .map(|x| x as u16)
                    .collect()
            })
    }

    /// Any `u16`, shrinking toward zero.
    pub fn u16_any() -> Gen<u16> {
        Gen::u16_in(0, u16::MAX)
    }
}

impl Gen<i32> {
    /// Uniform in `[lo, hi]`, shrinking toward the in-range value nearest
    /// zero.
    pub fn i32_in(lo: i32, hi: i32) -> Gen<i32> {
        assert!(lo <= hi);
        let anchor = 0i32.clamp(lo, hi);
        Gen::new(move |rng| {
            (lo as i64 + rng.below((hi as i64 - lo as i64 + 1) as u64) as i64) as i32
        })
        .with_shrink(move |&v| {
            let mut out: Vec<i32> = shrink_integer_toward(anchor as i128, v as i128)
                .into_iter()
                .map(|x| x as i32)
                .collect();
            if v < anchor {
                // shrink_integer_toward walks upward; mirror it.
                out = shrink_integer_toward(-(anchor as i128), -(v as i128))
                    .into_iter()
                    .map(|x| -x as i32)
                    .collect();
            }
            out
        })
    }

    /// Any `i32`, shrinking toward zero.
    pub fn i32_any() -> Gen<i32> {
        Gen::i32_in(i32::MIN + 1, i32::MAX)
    }
}

impl Gen<f64> {
    /// Uniform in `[lo, hi)`, shrinking toward `lo`.
    pub fn f64_in(lo: f64, hi: f64) -> Gen<f64> {
        assert!(lo < hi);
        Gen::new(move |rng| lo + rng.f64() * (hi - lo)).with_shrink(move |&v| {
            let mut out = Vec::new();
            if v > lo {
                out.push(lo);
                let mid = lo + (v - lo) / 2.0;
                if mid > lo && mid < v {
                    out.push(mid);
                }
            }
            out
        })
    }
}

impl Gen<bool> {
    /// Fair coin, shrinking `true` to `false`.
    pub fn bool_any() -> Gen<bool> {
        Gen::new(|rng| rng.chance(0.5)).with_shrink(|&v| if v { vec![false] } else { Vec::new() })
    }
}

impl Gen<Nanos> {
    /// Uniform duration in `[lo, hi]` nanoseconds, shrinking toward `lo`.
    pub fn nanos_in(lo: Nanos, hi: Nanos) -> Gen<Nanos> {
        Gen::u64_in(lo.as_nanos(), hi.as_nanos())
            .map(Nanos)
            .with_shrink(move |v| {
                shrink_integer_toward(lo.as_nanos() as i128, v.as_nanos() as i128)
                    .into_iter()
                    .map(|x| Nanos(x as u64))
                    .collect()
            })
    }
}

/// Pairs two generators; shrinks componentwise (left first).
pub fn zip2<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    let (sa, sb) = (a.clone(), b.clone());
    Gen::new(move |rng| (a.sample(rng), b.sample(rng))).with_shrink(move |(va, vb)| {
        let mut out: Vec<(A, B)> = sa
            .shrinks(va)
            .into_iter()
            .map(|x| (x, vb.clone()))
            .collect();
        out.extend(sb.shrinks(vb).into_iter().map(|y| (va.clone(), y)));
        out
    })
}

/// Triples three generators; shrinks componentwise.
pub fn zip3<A, B, C>(a: Gen<A>, b: Gen<B>, c: Gen<C>) -> Gen<(A, B, C)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
{
    let nested = zip2(a, zip2(b, c));
    let shrinker = nested.clone();
    Gen::new(move |rng| {
        let (a, (b, c)) = nested.sample(rng);
        (a, b, c)
    })
    .with_shrink(move |(a, b, c)| {
        shrinker
            .shrinks(&(a.clone(), (b.clone(), c.clone())))
            .into_iter()
            .map(|(a, (b, c))| (a, b, c))
            .collect()
    })
}

/// Vectors of `elem` with length uniform in `[min_len, max_len]`.
///
/// Shrinking removes chunks from the end, then single elements, then
/// shrinks individual elements in place — always respecting `min_len`.
pub fn vec_of<T: Clone + 'static>(elem: Gen<T>, min_len: usize, max_len: usize) -> Gen<Vec<T>> {
    assert!(min_len <= max_len);
    let sampler = elem.clone();
    Gen::new(move |rng| {
        let n = rng.range(min_len as u64, max_len as u64) as usize;
        (0..n).map(|_| sampler.sample(rng)).collect()
    })
    .with_shrink(move |v: &Vec<T>| {
        let mut out: Vec<Vec<T>> = Vec::new();
        let n = v.len();
        // Drop suffix chunks: halve toward min_len.
        let mut keep = min_len.max(n / 2);
        while keep < n {
            out.push(v[..keep].to_vec());
            keep = keep + (n - keep).div_ceil(2);
            if keep >= n {
                break;
            }
        }
        // Drop single elements (bounded scan keeps shrinking cheap).
        if n > min_len {
            for i in 0..n.min(16) {
                let mut w = v.clone();
                w.remove(i);
                out.push(w);
            }
        }
        // Shrink individual elements in place (first candidate each).
        for i in 0..n.min(16) {
            if let Some(smaller) = elem.shrinks(&v[i]).into_iter().next() {
                let mut w = v.clone();
                w[i] = smaller;
                out.push(w);
            }
        }
        out
    })
}

/// Generators for the archipelago domain vocabulary.
pub mod domain {
    use super::{vec_of, zip2, Gen};
    use coord::{CoordMsg, EntityId, IslandId, IslandKind, KnobAxis};
    use pcie::{FaultProfile, Jitter};
    use simcore::Nanos;

    /// Durations up to ~1 s, shrinking toward zero.
    pub fn nanos() -> Gen<Nanos> {
        Gen::nanos_in(Nanos::ZERO, Nanos::from_secs(1))
    }

    /// Any entity id, shrinking toward `EntityId(0)`.
    pub fn entity_id() -> Gen<EntityId> {
        Gen::u32_any().map(EntityId).with_shrink(|e| {
            Gen::u32_any()
                .shrinks(&e.0)
                .into_iter()
                .map(EntityId)
                .collect()
        })
    }

    /// Any island id, shrinking toward `IslandId(0)`.
    pub fn island_id() -> Gen<IslandId> {
        Gen::u16_any().map(IslandId).with_shrink(|i| {
            Gen::u16_any()
                .shrinks(&i.0)
                .into_iter()
                .map(IslandId)
                .collect()
        })
    }

    /// One of the four island kinds, shrinking toward `GeneralPurpose`.
    pub fn island_kind() -> Gen<IslandKind> {
        Gen::choice(vec![
            IslandKind::GeneralPurpose,
            IslandKind::NetworkProcessor,
            IslandKind::Accelerator,
            IslandKind::Storage,
        ])
    }

    /// One of the three energy-knob axes, shrinking toward `Dvfs`.
    pub fn knob_axis() -> Gen<KnobAxis> {
        Gen::choice(vec![
            KnobAxis::Dvfs,
            KnobAxis::CacheWays,
            KnobAxis::MembwShare,
        ])
    }

    /// `None` or some *addressable* island id; shrinks toward `None`.
    /// `IslandId(u16::MAX)` is excluded: the wire codec reserves that id
    /// as the broadcast/`None` sentinel, so `Some(MAX)` is outside the
    /// encodable domain of an optional target.
    pub fn opt_island() -> Gen<Option<IslandId>> {
        let id = Gen::u16_in(0, u16::MAX - 1).map(IslandId);
        let shrink_id = island_id();
        Gen::one_of(vec![
            Gen::new(|_| None),
            Gen::new(move |rng| Some(id.sample(rng))),
        ])
        .with_shrink(move |v| match v {
            None => Vec::new(),
            Some(i) => {
                let mut out = vec![None];
                out.extend(shrink_id.shrinks(i).into_iter().map(Some));
                out
            }
        })
    }

    /// Realistic wire packet lengths (1..2000 bytes), shrinking toward 1.
    pub fn packet_len() -> Gen<u32> {
        Gen::u32_in(1, 1999)
    }

    /// Xen-style scheduler weights (64..1024), shrinking toward 64.
    pub fn weight() -> Gen<u32> {
        Gen::u32_in(64, 1023)
    }

    /// Any coordination message, mirroring the seed suite's `arb_msg`
    /// strategy. Shrinks every numeric field toward zero and optional
    /// targets toward `None`, keeping the variant fixed.
    pub fn coord_msg() -> Gen<CoordMsg> {
        let reg_island = zip2(island_id(), island_kind())
            .map(|(island, kind)| CoordMsg::RegisterIsland { island, kind });
        let reg_entity = zip2(entity_id(), zip2(island_id(), Gen::u64_any())).map(
            |(entity, (island, local_key))| CoordMsg::RegisterEntity {
                entity,
                island,
                local_key,
            },
        );
        let tune = zip2(entity_id(), zip2(Gen::i32_any(), opt_island())).map(
            |(entity, (delta, target))| CoordMsg::Tune {
                entity,
                delta,
                target,
            },
        );
        let trigger = zip2(entity_id(), opt_island())
            .map(|(entity, target)| CoordMsg::Trigger { entity, target });
        let knob = zip2(
            entity_id(),
            zip2(zip2(knob_axis(), Gen::u32_in(0, 7)), opt_island()),
        )
        .map(|(entity, ((axis, rung), target))| CoordMsg::SetKnob {
            entity,
            axis,
            rung: rung as u8,
            target,
        });
        Gen::one_of(vec![reg_island, reg_entity, tune, trigger, knob]).with_shrink(shrink_msg)
    }

    fn shrink_msg(m: &CoordMsg) -> Vec<CoordMsg> {
        match *m {
            CoordMsg::RegisterIsland { island, kind } => island_id()
                .shrinks(&island)
                .into_iter()
                .map(|island| CoordMsg::RegisterIsland { island, kind })
                .collect(),
            CoordMsg::RegisterEntity {
                entity,
                island,
                local_key,
            } => {
                let mut out: Vec<CoordMsg> = entity_id()
                    .shrinks(&entity)
                    .into_iter()
                    .map(|entity| CoordMsg::RegisterEntity {
                        entity,
                        island,
                        local_key,
                    })
                    .collect();
                out.extend(
                    Gen::u64_any()
                        .shrinks(&local_key)
                        .into_iter()
                        .map(|local_key| CoordMsg::RegisterEntity {
                            entity,
                            island,
                            local_key,
                        }),
                );
                out
            }
            CoordMsg::Tune {
                entity,
                delta,
                target,
            } => {
                let mut out: Vec<CoordMsg> = Gen::i32_any()
                    .shrinks(&delta)
                    .into_iter()
                    .map(|delta| CoordMsg::Tune {
                        entity,
                        delta,
                        target,
                    })
                    .collect();
                out.extend(opt_island().shrinks(&target).into_iter().map(|target| {
                    CoordMsg::Tune {
                        entity,
                        delta,
                        target,
                    }
                }));
                out
            }
            CoordMsg::Trigger { entity, target } => opt_island()
                .shrinks(&target)
                .into_iter()
                .map(|target| CoordMsg::Trigger { entity, target })
                .chain(
                    entity_id()
                        .shrinks(&entity)
                        .into_iter()
                        .map(|entity| CoordMsg::Trigger { entity, target }),
                )
                .collect(),
            CoordMsg::SetKnob {
                entity,
                axis,
                rung,
                target,
            } => {
                let mut out: Vec<CoordMsg> = (0..rung)
                    .map(|rung| CoordMsg::SetKnob {
                        entity,
                        axis,
                        rung,
                        target,
                    })
                    .collect();
                out.extend(opt_island().shrinks(&target).into_iter().map(|target| {
                    CoordMsg::SetKnob {
                        entity,
                        axis,
                        rung,
                        target,
                    }
                }));
                out
            }
        }
    }

    /// Vectors of coordination messages (1..50, like the seed stream
    /// round-trip property).
    pub fn coord_msgs() -> Gen<Vec<CoordMsg>> {
        vec_of(coord_msg(), 1, 49)
    }

    /// Channel fault profiles for the reliability properties: loss up to
    /// 50%, duplication up to 30%, jitter up to ~200 µs, and an optional
    /// reorder window up to 1 ms. Shrinks by zeroing one fault dimension
    /// at a time, toward [`FaultProfile::none()`].
    pub fn fault_profile() -> Gen<FaultProfile> {
        let jitter = Gen::one_of(vec![
            Gen::new(|_| Jitter::None),
            Gen::nanos_in(Nanos(1), Nanos::from_micros(200)).map(|max| Jitter::Uniform { max }),
            Gen::nanos_in(Nanos(1), Nanos::from_micros(50))
                .map(|mean| Jitter::Exponential { mean }),
        ]);
        let reorder = Gen::one_of(vec![
            Gen::new(|_| Nanos::ZERO),
            Gen::nanos_in(Nanos(1), Nanos::from_millis(1)),
        ]);
        zip2(
            zip2(Gen::f64_in(0.0, 0.5), Gen::f64_in(0.0, 0.3)),
            zip2(jitter, reorder),
        )
        .map(|((drop, dup), (jitter, reorder))| {
            FaultProfile::none()
                .with_drop(drop)
                .with_dup(dup)
                .with_jitter(jitter)
                .with_reorder(reorder)
        })
        .with_shrink(|p| {
            let mut out = Vec::new();
            if !p.is_none() {
                out.push(FaultProfile::none());
            }
            if p.drop_prob > 0.0 {
                out.push(FaultProfile {
                    drop_prob: 0.0,
                    ..*p
                });
            }
            if p.dup_prob > 0.0 {
                out.push(FaultProfile {
                    dup_prob: 0.0,
                    ..*p
                });
            }
            if p.jitter != Jitter::None {
                out.push(FaultProfile {
                    jitter: Jitter::None,
                    ..*p
                });
            }
            if p.reorder_window > Nanos::ZERO {
                out.push(FaultProfile {
                    reorder_window: Nanos::ZERO,
                    ..*p
                });
            }
            out
        })
    }

    /// One generated inference tenant: the model ordinal it serves, a
    /// per-request accelerator compute cost, an open-loop arrival rate and
    /// the request's device-memory footprint.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct InferenceTenantMix {
        /// Model catalogue ordinal (0..=3).
        pub model_id: u16,
        /// Per-request compute cost on one execution unit.
        pub cost: Nanos,
        /// Mean arrival rate, requests per second.
        pub rate_per_sec: u32,
        /// Bytes pinned in device memory per request.
        pub bytes: u32,
    }

    impl InferenceTenantMix {
        /// The least-loaded tenant of the domain (the shrink anchor).
        pub fn minimal() -> Self {
            InferenceTenantMix {
                model_id: 0,
                cost: Nanos::from_micros(50),
                rate_per_sec: 1,
                bytes: 512,
            }
        }
    }

    /// Multi-tenant inference mixes for the accelerator properties: 1–6
    /// tenants, compute costs from 50 µs to 5 ms, rates up to 400 req/s
    /// and footprints from 512 B to 64 KiB. Shrinks tenant-count via
    /// `vec_of` and each tenant one dimension at a time toward
    /// [`InferenceTenantMix::minimal`].
    pub fn inference_mix() -> Gen<Vec<InferenceTenantMix>> {
        let tenant = zip2(
            zip2(
                Gen::u16_in(0, 3),
                Gen::nanos_in(Nanos::from_micros(50), Nanos::from_millis(5)),
            ),
            zip2(Gen::u32_in(1, 400), Gen::u32_in(512, 64 * 1024)),
        )
        .map(
            |((model_id, cost), (rate_per_sec, bytes))| InferenceTenantMix {
                model_id,
                cost,
                rate_per_sec,
                bytes,
            },
        )
        .with_shrink(|t| {
            let min = InferenceTenantMix::minimal();
            let mut out = Vec::new();
            if *t != min {
                out.push(min);
            }
            if t.model_id != min.model_id {
                out.push(InferenceTenantMix {
                    model_id: min.model_id,
                    ..*t
                });
            }
            if t.cost != min.cost {
                out.push(InferenceTenantMix {
                    cost: min.cost,
                    ..*t
                });
            }
            if t.rate_per_sec != min.rate_per_sec {
                out.push(InferenceTenantMix {
                    rate_per_sec: min.rate_per_sec,
                    ..*t
                });
            }
            if t.bytes != min.bytes {
                out.push(InferenceTenantMix {
                    bytes: min.bytes,
                    ..*t
                });
            }
            out
        });
        vec_of(tenant, 1, 6)
    }

    /// One generated fleet shape: how many shards, how deep the
    /// coordination tree goes, how shards pack into racks, and how hostile
    /// the cross-node wire is.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FleetShape {
        /// Shard (node) count (1..=16).
        pub shards: u16,
        /// Coordination tree depth (1..=3).
        pub depth: u8,
        /// Shards per rack (1..=shards).
        pub rack_size: u16,
        /// One-way cross-node bus latency.
        pub latency: Nanos,
        /// Per-frame loss probability on the bus.
        pub loss: f64,
    }

    impl FleetShape {
        /// The smallest fleet of the domain (the shrink anchor): one
        /// shard, a flat tree, and a perfect 1 µs wire.
        pub fn minimal() -> Self {
            FleetShape {
                shards: 1,
                depth: 1,
                rack_size: 1,
                latency: Nanos::from_micros(1),
                loss: 0.0,
            }
        }
    }

    /// Fleet topologies for the sharded-world properties: 1–16 shards,
    /// tree depth 1–3, rack sizes that never exceed the shard count,
    /// cross-node latencies from 1 µs to 5 ms and loss up to 40%.
    /// Shrinks one dimension at a time toward [`FleetShape::minimal`].
    pub fn fleet_topology() -> Gen<FleetShape> {
        zip2(
            zip2(Gen::u16_in(1, 16), Gen::u16_in(1, 3)),
            zip2(
                zip2(Gen::u16_in(1, 16), Gen::f64_in(0.0, 0.4)),
                Gen::nanos_in(Nanos::from_micros(1), Nanos::from_millis(5)),
            ),
        )
        .map(
            |((shards, depth), ((rack_raw, loss), latency))| FleetShape {
                shards,
                depth: depth as u8,
                // Fold the raw draw into 1..=shards so every shape is valid.
                rack_size: (rack_raw - 1) % shards + 1,
                latency,
                loss,
            },
        )
        .with_shrink(|t| {
            let min = FleetShape::minimal();
            let mut out = Vec::new();
            if *t != min {
                out.push(min);
            }
            if t.shards > 1 {
                out.push(FleetShape {
                    shards: t.shards / 2,
                    rack_size: t.rack_size.min(t.shards / 2),
                    ..*t
                });
            }
            if t.depth > 1 {
                out.push(FleetShape {
                    depth: t.depth - 1,
                    ..*t
                });
            }
            if t.rack_size > 1 {
                out.push(FleetShape { rack_size: 1, ..*t });
            }
            if t.loss > 0.0 {
                out.push(FleetShape { loss: 0.0, ..*t });
            }
            if t.latency > min.latency {
                out.push(FleetShape {
                    latency: min.latency,
                    ..*t
                });
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_shrink_moves_toward_anchor() {
        let c = shrink_integer_toward(0, 100);
        assert_eq!(c[0], 0);
        assert!(c.windows(2).all(|w| w[0] < w[1]), "{c:?}");
        assert_eq!(*c.last().unwrap(), 99);
        assert!(shrink_integer_toward(5, 5).is_empty());
    }

    #[test]
    fn u64_in_respects_bounds_and_shrinks_within() {
        let g = Gen::u64_in(10, 20);
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let v = g.sample(&mut rng);
            assert!((10..=20).contains(&v));
            assert!(g
                .shrinks(&v)
                .iter()
                .all(|s| (10..=20).contains(s) && *s < v));
        }
    }

    #[test]
    fn i32_shrinks_toward_zero_from_both_sides() {
        let g = Gen::i32_in(-100, 100);
        assert_eq!(g.shrinks(&50)[0], 0);
        assert_eq!(g.shrinks(&-50)[0], 0);
        assert!(g.shrinks(&0).is_empty());
        let g = Gen::i32_in(10, 20);
        assert_eq!(g.shrinks(&15)[0], 10, "anchor clamps into the range");
    }

    #[test]
    fn vec_shrinks_never_violate_min_len() {
        let g = vec_of(Gen::u64_in(0, 9), 2, 10);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            assert!((2..=10).contains(&v.len()));
            for s in g.shrinks(&v) {
                assert!(s.len() >= 2, "shrank below min_len: {s:?}");
            }
        }
    }

    #[test]
    fn choice_shrinks_toward_earlier_entries() {
        let g = Gen::choice(vec!['a', 'b', 'c']);
        assert_eq!(g.shrinks(&'c'), vec!['a', 'b']);
        assert!(g.shrinks(&'a').is_empty());
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let g = vec_of(Gen::u64_any(), 0, 20);
        let a = g.sample(&mut SimRng::new(99));
        let b = g.sample(&mut SimRng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn domain_msgs_cover_every_variant() {
        let g = domain::coord_msg();
        let mut rng = SimRng::new(5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let idx = match g.sample(&mut rng) {
                coord::CoordMsg::RegisterIsland { .. } => 0,
                coord::CoordMsg::RegisterEntity { .. } => 1,
                coord::CoordMsg::Tune { .. } => 2,
                coord::CoordMsg::Trigger { .. } => 3,
                coord::CoordMsg::SetKnob { .. } => 4,
            };
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn inference_mix_respects_domain_bounds_and_shrinks_to_minimal() {
        let g = domain::inference_mix();
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            let mix = g.sample(&mut rng);
            assert!((1..=6).contains(&mix.len()));
            for t in &mix {
                assert!(t.model_id <= 3);
                assert!(t.cost >= Nanos::from_micros(50) && t.cost <= Nanos::from_millis(5));
                assert!((1..=400).contains(&t.rate_per_sec));
                assert!((512..=64 * 1024).contains(&t.bytes));
            }
            for s in g.shrinks(&mix) {
                assert!(!s.is_empty(), "never shrinks to zero tenants");
            }
        }
        let heavy = vec![domain::InferenceTenantMix {
            model_id: 3,
            cost: Nanos::from_millis(4),
            rate_per_sec: 300,
            bytes: 32_768,
        }];
        assert!(
            g.shrinks(&heavy)
                .iter()
                .any(|s| s == &vec![domain::InferenceTenantMix::minimal()]),
            "offers the minimal tenant as a shrink"
        );
    }

    #[test]
    fn fleet_topology_respects_domain_bounds_and_shrinks_to_minimal() {
        let g = domain::fleet_topology();
        let mut rng = SimRng::new(11);
        for _ in 0..200 {
            let t = g.sample(&mut rng);
            assert!((1..=16).contains(&t.shards));
            assert!((1..=3).contains(&t.depth));
            assert!((1..=t.shards).contains(&t.rack_size), "{t:?}");
            assert!(t.latency >= Nanos::from_micros(1) && t.latency <= Nanos::from_millis(5));
            assert!((0.0..=0.4).contains(&t.loss));
            for s in g.shrinks(&t) {
                assert!(s.rack_size >= 1 && s.rack_size <= s.shards, "{s:?}");
            }
        }
        let big = domain::FleetShape {
            shards: 12,
            depth: 3,
            rack_size: 4,
            latency: Nanos::from_millis(2),
            loss: 0.3,
        };
        assert!(
            g.shrinks(&big).contains(&domain::FleetShape::minimal()),
            "offers the minimal fleet as a shrink"
        );
        assert!(g.shrinks(&domain::FleetShape::minimal()).is_empty());
    }

    #[test]
    fn zip_shrinks_componentwise() {
        let g = zip2(Gen::u64_in(0, 10), Gen::u64_in(0, 10));
        let shrinks = g.shrinks(&(4, 6));
        assert!(shrinks.contains(&(0, 6)));
        assert!(shrinks.contains(&(4, 0)));
    }
}
