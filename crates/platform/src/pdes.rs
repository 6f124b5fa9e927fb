//! Conservative barrier-epoch PDES across the platform's scheduling
//! islands.
//!
//! # Partition
//!
//! The nine event sources of [`crate::world::SOURCES`] split into three
//! islands, mirroring the paper's hardware:
//!
//! | island  | sources                                                    |
//! |---------|------------------------------------------------------------|
//! | `x86`   | master queue, credit scheduler, PCIe link (host endpoint), |
//! |         | coordination + ack mailboxes (Dom0/controller endpoints),  |
//! |         | reliable retransmission timers                             |
//! | `ixp`   | the network-processor stage pipeline                       |
//! | `accel` | the batching accelerator and its doorbell lane             |
//!
//! Each island owns a slice of the horizon cache — its components' cached
//! next-event times — and the channels between islands (PCIe mailbox
//! lanes, the link's DMA engine, the accelerator's submission DMA, the
//! wire) all impose a minimum latency on anything crossing.
//!
//! # Epoch = minimum cross-island channel latency
//!
//! That minimum is the classical conservative-synchronization lookahead:
//! between two barriers one epoch apart, nothing an island does can
//! *reach* another island through a channel, so each island's horizon
//! slice can be serviced concurrently. [`Platform::lookahead_plan`]
//! derives the epoch from the live lane configs (mailbox latencies, DMA
//! base latency, submission-DMA latency, wire latency), clamped to at
//! least one nanosecond.
//!
//! # Why dispatch order stays global
//!
//! The committed artifacts are byte-identity invariants, and this model
//! couples islands at *zero* latency in three host-mediated places that
//! bypass the latency-bearing channels:
//!
//! * guest delivery acknowledges IXP flow credit at the delivery
//!   timestamp (`ixp.host_ack` from `deliver_to_guest`/`consume_rx`);
//! * accelerator completions are absorbed into x86 post-processing at
//!   the completion timestamp;
//! * IXP classification drives the coordination policy — and the shared
//!   reliable-sender sequence space — at the classification timestamp.
//!
//! True island run-ahead would have to defer those edges by a channel
//! latency, which changes timing and therefore every committed CSV. So
//! the engine keeps the *dispatch* sequence in global `(time, source
//! index)` order — byte-identity holds by construction, which is exactly
//! the gate — and uses the epoch structure for what it can soundly
//! parallelize today: servicing the per-island horizon slices on scoped
//! worker threads at barriers, plus the barrier-cadence invariant sweep
//! in debug builds. The partition, the epoch derivation, and the barrier
//! bookkeeping are all exercised and reported (`events_by_island`), so a
//! future PR that re-baselines artifacts can widen the parallel region
//! without re-deriving the structure.

use crate::report::{IslandEvents, SourceEvents};
use crate::world::{horizon::NSRC, Platform, SOURCES};
use simcore::{Component, Nanos};

/// Island index of the x86 host (queue, sched, link, mailboxes, retx).
pub(crate) const X86_ISLAND: usize = 0;
/// Island index of the IXP network processor.
pub(crate) const IXP_ISLAND: usize = 1;
/// Island index of the batching accelerator (+ doorbell lane).
pub(crate) const ACCEL_ISLAND: usize = 2;
/// Number of scheduling islands.
pub(crate) const N_ISLANDS: usize = 3;
/// Island names, indexed by the island consts.
const ISLAND_NAMES: [&str; N_ISLANDS] = ["x86", "ixp", "accel"];

/// Epoch barriers between two threaded island-horizon services. Barrier
/// *accounting* happens at every epoch crossing (cheap: a counter and,
/// in debug builds, the invariant sweep), but spawning scoped workers is
/// tens of microseconds of wall clock — with the default 2 µs epoch
/// nearly every dispatch crosses a barrier, so a small stride would cost
/// more than the dispatch loop itself. The service is a deterministic
/// coherence self-heal, not a correctness requirement, so a sparse
/// stride loses nothing.
pub(crate) const SERVICE_INTERVAL: u64 = 4096;

/// The conservative lookahead derivation: every latency-bearing
/// cross-island channel's bound, and their minimum (the epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadPlan {
    /// One-way latency of the IXP→Dom0 coordination mailbox.
    pub coord_mbx: Nanos,
    /// One-way latency of the Dom0→IXP ack mailbox.
    pub ack_mbx: Nanos,
    /// One-way latency of the accelerator's doorbell lane.
    pub accel_mbx: Nanos,
    /// Per-transfer base latency of the PCIe link's DMA engine.
    pub link_dma: Nanos,
    /// Host→accelerator submission DMA latency.
    pub accel_dma: Nanos,
    /// Wire latency between clients and the IXP's receive port.
    pub wire: Nanos,
    /// The conservative epoch: the minimum of every bound above,
    /// clamped to at least 1 ns.
    pub epoch: Nanos,
}

/// Per-run PDES bookkeeping accumulated by the master loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PdesStats {
    /// Events dispatched per source (indexed like [`SOURCES`]); the
    /// island and total counts fold from these.
    pub by_source: [u64; NSRC],
    /// Epoch barriers crossed.
    pub sync_points: u64,
    /// The conservative epoch the run used.
    pub epoch: Nanos,
    /// Island worker threads the run used.
    pub threads: usize,
}

impl PdesStats {
    pub(crate) fn new(epoch: Nanos, threads: usize) -> Self {
        PdesStats {
            by_source: [0; NSRC],
            sync_points: 0,
            epoch,
            threads,
        }
    }

    /// Total events dispatched.
    pub(crate) fn events(&self) -> u64 {
        self.by_source.iter().sum()
    }

    /// The per-source report block, in registry order.
    pub(crate) fn source_events(&self) -> Vec<SourceEvents> {
        SOURCES
            .iter()
            .zip(self.by_source)
            .map(|(spec, events)| SourceEvents {
                name: spec.name,
                island: ISLAND_NAMES[spec.island],
                events,
            })
            .collect()
    }

    /// The report block (deterministic: identical for any thread count).
    pub(crate) fn island_events(&self) -> IslandEvents {
        let mut by_island = [0; N_ISLANDS];
        for (spec, n) in SOURCES.iter().zip(self.by_source) {
            by_island[spec.island] += n;
        }
        IslandEvents {
            x86: by_island[X86_ISLAND],
            ixp: by_island[IXP_ISLAND],
            accel: by_island[ACCEL_ISLAND],
            sync_points: self.sync_points,
            island_threads: self.threads as u64,
            epoch_ns: self.epoch.as_nanos(),
        }
    }
}

/// First multiple of `epoch` strictly after `t`. The loop re-aligns on
/// every crossing, so consecutive barriers are one epoch apart under
/// load and idle stretches are skipped in one step.
pub(crate) fn next_boundary(t: Nanos, epoch: Nanos) -> Nanos {
    let e = epoch.as_nanos().max(1);
    let n = t.as_nanos() / e + 1;
    Nanos::from_nanos(n.saturating_mul(e))
}

impl Platform {
    /// Derives the conservative PDES lookahead from the live channel
    /// configurations. Deterministic and stable across a run: every
    /// latency that feeds it is fixed at build time (the chaos jitter
    /// hook restores the mailbox latency after each per-message
    /// override, and the epoch is not re-derived mid-run).
    pub fn lookahead_plan(&self) -> LookaheadPlan {
        let coord_mbx = self.mbx.latency();
        let ack_mbx = self.ack_mbx.latency();
        let accel_mbx = self.accel_mbx.latency();
        let link_dma = self.link.lookahead();
        let accel_dma = self.accel_dma;
        let wire = self.costs.wire_latency;
        let epoch = coord_mbx
            .min(ack_mbx)
            .min(accel_mbx)
            .min(link_dma)
            .min(accel_dma)
            .min(wire)
            .max(Nanos::from_nanos(1));
        LookaheadPlan { coord_mbx, ack_mbx, accel_mbx, link_dma, accel_dma, wire, epoch }
    }

    /// Services every island's horizon slice concurrently on scoped
    /// worker threads: one worker re-peeks the IXP island, one the
    /// accelerator island (with `threads == 2` the coordinating thread
    /// absorbs it), while the coordinating thread services the x86
    /// slice. Peeks are `&self` reads through each component's
    /// [`Component`] face, and by the cache invariant every value
    /// written back equals the cached one — so this is observably a
    /// no-op in a correct build, deterministic in any build, and a
    /// self-heal for a missed dirty mark in release builds.
    pub(crate) fn service_islands_parallel(&mut self, threads: usize) {
        let Platform {
            q,
            sched,
            ixp,
            link,
            mbx,
            ack_mbx,
            rel_tx,
            accel,
            accel_mbx,
            horizons,
            ..
        } = self;
        let ixp_ref: &ixp::IxpIsland = ixp;
        let accel_ref: Option<&accel::AccelIsland> = accel.as_ref();
        let accel_mbx_ref: &pcie::Mailbox<crate::world::Frame> = accel_mbx;
        let accel_slice = || {
            [
                accel_ref
                    .and_then(Component::next_event_time)
                    .unwrap_or(Nanos::MAX),
                Component::next_event_time(accel_mbx_ref).unwrap_or(Nanos::MAX),
            ]
        };
        let (ixp_h, accel_h, x86_h) = std::thread::scope(|s| {
            let ixp_worker =
                s.spawn(move || Component::next_event_time(ixp_ref).unwrap_or(Nanos::MAX));
            let accel_worker = (threads > 2).then(|| s.spawn(accel_slice));
            let x86_h = [
                Component::next_event_time(&*q).unwrap_or(Nanos::MAX),
                Component::next_event_time(&*sched).unwrap_or(Nanos::MAX),
                Component::next_event_time(&*link).unwrap_or(Nanos::MAX),
                Component::next_event_time(&*mbx).unwrap_or(Nanos::MAX),
                Component::next_event_time(&*ack_mbx).unwrap_or(Nanos::MAX),
                rel_tx
                    .as_ref()
                    .and_then(Component::next_event_time)
                    .unwrap_or(Nanos::MAX),
            ];
            let ixp_h = ixp_worker.join().expect("ixp island worker");
            let accel_h = match accel_worker {
                Some(w) => w.join().expect("accel island worker"),
                None => accel_slice(),
            };
            (ixp_h, accel_h, x86_h)
        });
        // Write-back in global source order (x86 slice interleaves with
        // the others by construction of the bit assignments).
        horizons.set(0, x86_h[0]);
        horizons.set(1, x86_h[1]);
        horizons.set(2, ixp_h);
        horizons.set(3, x86_h[2]);
        horizons.set(4, x86_h[3]);
        horizons.set(5, x86_h[4]);
        horizons.set(6, x86_h[5]);
        horizons.set(7, accel_h[0]);
        horizons.set(8, accel_h[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlatformBuilder, RubisScenario};

    #[test]
    fn next_boundary_is_strictly_ahead_and_aligned() {
        let e = Nanos::from_micros(30);
        assert_eq!(next_boundary(Nanos::ZERO, e), e);
        assert_eq!(next_boundary(Nanos::from_nanos(1), e), e);
        assert_eq!(next_boundary(e, e), e * 2);
        // Idle coalescing: a far-future t lands on the next multiple.
        let t = Nanos::from_secs(3) + Nanos::from_nanos(7);
        let b = next_boundary(t, e);
        assert!(b > t);
        assert_eq!(b.as_nanos() % e.as_nanos(), 0);
        assert!(b - t <= e);
    }

    #[test]
    fn epoch_is_the_minimum_channel_bound() {
        let sim = PlatformBuilder::new()
            .coord_latency(Nanos::from_micros(30))
            .build_rubis(RubisScenario::read_write_mix(4));
        let plan = sim.lookahead_plan();
        let min = plan
            .coord_mbx
            .min(plan.ack_mbx)
            .min(plan.accel_mbx)
            .min(plan.link_dma)
            .min(plan.accel_dma)
            .min(plan.wire);
        assert_eq!(plan.epoch, min);
        assert!(plan.epoch > Nanos::ZERO);
        // The default platform's tightest bound is the PCIe DMA base.
        assert_eq!(plan.epoch, plan.link_dma);
    }

    #[test]
    fn service_islands_matches_the_serial_refresh() {
        for threads in [2, 3, 8] {
            let mut sim = PlatformBuilder::new()
                .seed(11)
                .build_rubis(RubisScenario::read_write_mix(4));
            // Populate real horizons by running a little first.
            sim.run(Nanos::from_millis(50));
            let serial: Vec<Nanos> =
                (0..crate::world::horizon::NSRC).map(|i| sim.fresh_horizon(i)).collect();
            sim.service_islands_parallel(threads);
            for (i, &want) in serial.iter().enumerate() {
                assert_eq!(sim.horizons.get(i), want, "slot {i}, threads {threads}");
            }
        }
    }
}
