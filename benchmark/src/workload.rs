//! The four workloads and the operation each one repeats.
//!
//! One operation builds and runs a complete simulation for one seed: a
//! single platform for `rubis_rw`, `coord_storm` and `inference_mix`, a
//! whole 12-shard fleet for `fleet_lossy`. Every call into the simulator
//! goes through a [`Tracer`] span, which is where the timings come from.

use crate::digest::{fleet_digest, run_digest};
use crate::trace::{process_cpu_ns, Tracer, ROOT};
use coord::PolicyKind;
use fleet::{BusConfig, FleetConfig, FleetState, FleetTopology, ShardPlan, ShardSpec};
use pcie::{FaultProfile, Jitter};
use platform::{
    AdversarySpec, InferenceScenario, PlatformBuilder, PolicerConfig, ReliableConfig,
    RubisScenario, RunReport,
};
use simcore::Nanos;
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::session::SessionLoad;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's RUBiS read-write mix under request-type coordination.
    RubisRw,
    /// `RubisRw` plus a faulty coordination channel, reliable delivery,
    /// strategic tenants and the controller's defenses.
    CoordStorm,
    /// Four open-loop inference tenants on the three-island platform.
    InferenceMix,
    /// A 12-shard fleet coordinated over a lossy cross-node bus.
    FleetLossy,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::RubisRw,
        Workload::CoordStorm,
        Workload::InferenceMix,
        Workload::FleetLossy,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RubisRw => "rubis_rw",
            Workload::CoordStorm => "coord_storm",
            Workload::InferenceMix => "inference_mix",
            Workload::FleetLossy => "fleet_lossy",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fault profile of the coordination channel (R2's combined loss,
    /// duplication and jitter on `coord_storm`, none elsewhere).
    pub fn channel_faults(self) -> FaultProfile {
        match self {
            Workload::CoordStorm => FaultProfile::none()
                .with_drop(0.10)
                .with_dup(0.05)
                .with_jitter(Jitter::Exponential {
                    mean: Nanos::from_micros(20),
                }),
            _ => FaultProfile::none(),
        }
    }
}

/// How much simulated work one operation does, and how long the layer
/// probes run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Simulated seconds of one `rubis_rw` or `coord_storm` run.
    pub rubis_secs: u64,
    /// Simulated seconds of one `inference_mix` run.
    pub inference_secs: u64,
    /// Fleet shards.
    pub shards: u16,
    /// Coordination rounds per fleet run.
    pub slices: u32,
    /// Simulated seconds per round.
    pub slice_secs: u64,
    /// Timed batches per layer probe (the probe reports their median).
    pub probe_batches: usize,
    /// Operations per probe batch.
    pub probe_ops: u64,
}

/// The sizes the benchmark measures. Fleet rounds are 100 simulated
/// seconds, a third of experiment F1's, so that a run yields enough fleet
/// operations for a steady 90th percentile.
pub const FULL: Size = Size {
    rubis_secs: 1000,
    inference_secs: 150,
    shards: 12,
    slices: 4,
    slice_secs: 100,
    probe_batches: 16,
    probe_ops: 4096,
};

/// Sizes small enough for a debug-build test.
pub const SMOKE: Size = Size {
    rubis_secs: 5,
    inference_secs: 5,
    shards: 4,
    slices: 1,
    slice_secs: 5,
    probe_batches: 10,
    probe_ops: 64,
};

/// Deterministic counts from one operation's reports (summed over shards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Dispatched events on the x86 island.
    pub x86: u64,
    /// Dispatched events on the IXP island.
    pub ixp: u64,
    /// Dispatched events on the accelerator island.
    pub accel: u64,
    /// Most scheduling domains in any one run.
    pub domains: u64,
    /// Coordination messages sent.
    pub coord_sent: u64,
    /// Coordination retransmissions.
    pub coord_retx: u64,
    /// Tune and Trigger actions applied.
    pub coord_applied: u64,
    /// Packets delivered into guests.
    pub delivered: u64,
    /// Packets dropped at IXP queues.
    pub ixp_drops: u64,
    /// Accelerator requests accepted.
    pub accel_submitted: u64,
    /// Accelerator requests rejected.
    pub accel_rejected: u64,
    /// Accelerator batches launched.
    pub accel_batches: u64,
    /// Requests carried by those batches.
    pub accel_items: u64,
    /// Response times recorded.
    pub records: u64,
    /// Fleet bus frames first-transmitted.
    pub frames: u64,
    /// Fleet bus envelopes delivered.
    pub bus_delivered: u64,
    /// Fleet bus envelopes delivered a round late.
    pub late: u64,
    /// Sessions offered at fleet admission doors.
    pub offered: u64,
    /// Sessions admitted.
    pub admitted: u64,
}

impl Counts {
    /// All dispatched events.
    pub fn events(&self) -> u64 {
        self.x86 + self.ixp + self.accel
    }

    fn add(&mut self, r: &RunReport) {
        let e = &r.events_by_island;
        self.x86 += e.x86;
        self.ixp += e.ixp;
        self.accel += e.accel;
        self.domains = self.domains.max(r.cpu.len() as u64);
        self.coord_sent += r.coord.messages_sent;
        self.coord_retx += r.coord.retransmits;
        self.coord_applied += r.coord.tunes_applied + r.coord.triggers_applied;
        self.delivered += r.net.delivered;
        self.ixp_drops += r.net.ixp_drops;
        for t in &r.accel.tenants {
            self.accel_submitted += t.submitted;
            self.accel_rejected += t.rejected;
            self.accel_batches += t.batches;
            self.accel_items += (t.mean_batch * t.batches as f64).round() as u64;
        }
        self.records += r.rubis.responses.total();
    }
}

/// One measured operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// Digest of the simulated results.
    pub digest: u64,
    /// Simulated seconds (shard-seconds for the fleet).
    pub sim_secs: f64,
    /// Host time building platforms (and, for the fleet, its state and
    /// per-round specs), in nanoseconds.
    pub setup_ns: u64,
    /// Host time inside `Platform::run`, summed over platforms.
    pub run_ns: u64,
    /// Host time of the whole operation.
    pub wall_ns: u64,
    /// Process CPU time, over all threads, of the work `sim_s_per_s`
    /// divides by: `Platform::run` for a single platform, the whole
    /// operation for the fleet.
    pub cpu_ns: u64,
    /// Deterministic counts.
    pub counts: Counts,
    /// Request-type (or tenant) names the run recorded responses under.
    pub names: Vec<String>,
}

impl Op {
    /// Simulated seconds per second of host CPU time: inside
    /// `Platform::run` for a single platform, over the whole operation,
    /// both threads and its coordination included, for the fleet.
    pub fn sim_s_per_s(&self) -> f64 {
        self.sim_secs / (self.cpu_ns.max(1) as f64 / 1e9)
    }
}

fn single_builder(w: Workload, seed: u64) -> PlatformBuilder {
    let b = PlatformBuilder::new().seed(seed);
    match w {
        Workload::CoordStorm => b
            .policy(PolicyKind::RequestType)
            .fault_profile(w.channel_faults())
            .reliable_delivery(ReliableConfig::default())
            .adversaries(vec![
                AdversarySpec::spam(),
                AdversarySpec::inflate(),
                AdversarySpec::spam(),
            ])
            .coord_defenses(PolicerConfig::default()),
        Workload::InferenceMix => b.policy(PolicyKind::InferenceBatch),
        _ => b.policy(PolicyKind::RequestType),
    }
}

/// The F1 fleet plans: ncpus cycle 3/2/1 and every shard is offered more
/// sessions than its starting cap admits.
fn fleet_plans(shards: u16) -> Vec<ShardPlan> {
    (0..shards)
        .map(|s| ShardPlan {
            shard: s,
            ncpus: [3, 2, 1][s as usize % 3],
            load: SessionLoad {
                arrivals_per_sec: [12.0, 6.0, 8.0][s as usize % 3],
                mean_session_secs: 8.0,
            },
        })
        .collect()
}

/// F1's lossy cross-node bus: 3 ms latency, 25% frame loss, acks time
/// out after three latencies.
pub fn lossy_bus() -> BusConfig {
    let latency = Nanos::from_millis(3);
    BusConfig {
        latency,
        fault: FaultProfile::none().with_drop(0.25),
        reliable: ReliableConfig {
            ack_timeout: Nanos::from_millis(9),
            ..ReliableConfig::default()
        },
    }
}

fn fleet_config(shards: u16, seed: u64) -> FleetConfig {
    FleetConfig {
        topo: FleetTopology::new(shards, 2, 4),
        bus: lossy_bus(),
        coordinated: true,
        base_cap: 48,
        min_cap: 8,
        max_cap: 96,
        gain: 0.5,
        window: Nanos::from_millis(2),
        seed,
    }
}

/// Runs one operation of `w` on `seed`. The fleet spreads its shards over
/// `workers` threads (the calling thread is one of them); its results do
/// not depend on `workers`.
pub fn run_op(w: Workload, size: &Size, seed: u64, workers: usize, t: &mut Tracer) -> Op {
    let (mut op, wall_ns) = t.time("op", ROOT, |t, id| match w {
        Workload::FleetLossy => fleet_op(size, seed, workers, t, id),
        _ => single_op(w, size, seed, t, id),
    });
    op.wall_ns = wall_ns;
    op
}

fn single_op(w: Workload, size: &Size, seed: u64, t: &mut Tracer, parent: u32) -> Op {
    let secs = if w == Workload::InferenceMix {
        size.inference_secs
    } else {
        size.rubis_secs
    };
    let (mut sim, setup_ns) = t.time("platform.build", parent, |_, _| {
        let b = single_builder(w, seed);
        match w {
            Workload::InferenceMix => b.build_inference(InferenceScenario::mixed_tenants()),
            _ => b.build_rubis(RubisScenario::read_write_mix(24)),
        }
    });
    let cpu_start = process_cpu_ns();
    let (report, run_ns) = t.time("platform.run", parent, |_, _| {
        sim.run(Nanos::from_secs(secs))
    });
    let cpu_ns = process_cpu_ns() - cpu_start;
    let mut counts = Counts::default();
    counts.add(&report);
    Op {
        digest: run_digest(&report),
        sim_secs: secs as f64,
        setup_ns,
        run_ns,
        wall_ns: 0,
        cpu_ns,
        counts,
        names: report
            .rubis
            .responses
            .iter()
            .map(|(k, _)| k.to_owned())
            .collect(),
    }
}

/// One shard's slice, as run on a worker.
struct ShardRun {
    report: RunReport,
    build_ns: u64,
    run_ns: u64,
}

/// Builds and runs every spec, pulling the next unclaimed spec from a
/// shared counter on each of `workers` threads, and returns the runs in
/// spec order.
fn run_shards(specs: &[ShardSpec], workers: usize, t: &mut Tracer, parent: u32) -> Vec<ShardRun> {
    let next = AtomicUsize::new(0);
    let work = |t: &mut Tracer| {
        let mut done = Vec::new();
        while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (run, _) = t.time("fleet.shard_run", parent, |t, id| {
                let (mut sim, build_ns) = t.time("platform.build", id, |_, _| spec.build());
                let (report, run_ns) = t.time("platform.run", id, |_, _| sim.run(spec.duration));
                ShardRun {
                    report,
                    build_ns,
                    run_ns,
                }
            });
            done.push((spec.shard, run));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.max(1) as u32)
            .map(|w| {
                let mut wt = t.for_worker(w);
                let work = &work;
                s.spawn(move || (work(&mut wt), wt))
            })
            .collect();
        let mut done = work(t);
        for h in helpers {
            let (theirs, wt) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            done.extend(theirs);
            t.absorb(wt);
        }
        done
    });
    done.sort_by_key(|&(shard, _)| shard);
    done.into_iter().map(|(_, run)| run).collect()
}

fn fleet_op(size: &Size, seed: u64, workers: usize, t: &mut Tracer, parent: u32) -> Op {
    let cpu_start = process_cpu_ns();
    let duration = Nanos::from_secs(size.slice_secs);
    let (mut state, mut setup_ns) = t.time("fleet.new", parent, |_, _| {
        FleetState::new(fleet_config(size.shards, seed), fleet_plans(size.shards))
    });
    let mut run_ns = 0;
    let mut counts = Counts::default();
    let mut names = Vec::new();
    let round_secs = (size.shards as u64 * size.slice_secs) as f64;
    for slice in 0..size.slices {
        let (specs, specs_ns) = t.time("fleet.specs", parent, |_, _| state.specs(slice, duration));
        setup_ns += specs_ns;
        let (runs, _) = t.time("fleet.slice", parent, |t, id| {
            run_shards(&specs, workers, t, id)
        });
        let reports: Vec<RunReport> = runs
            .into_iter()
            .map(|r| {
                setup_ns += r.build_ns;
                run_ns += r.run_ns;
                counts.add(&r.report);
                r.report
            })
            .collect();
        if names.is_empty() {
            names = reports[0]
                .rubis
                .responses
                .iter()
                .map(|(k, _)| k.to_owned())
                .collect();
        }
        t.time("fleet.absorb", parent, |_, _| state.absorb(&reports));
    }
    let (report, _) = t.time("fleet.report", parent, |_, _| state.report());
    for bus in [&report.fleet_bus, &report.rack_bus] {
        counts.frames += bus.frames_sent;
        counts.bus_delivered += bus.delivered;
        counts.late += bus.late;
    }
    let (offered, admitted, _) = report.sessions();
    counts.offered = offered;
    counts.admitted = admitted;
    Op {
        digest: fleet_digest(&report),
        sim_secs: round_secs * size.slices as f64,
        setup_ns,
        run_ns,
        wall_ns: 0,
        cpu_ns: process_cpu_ns() - cpu_start,
        counts,
        names,
    }
}
