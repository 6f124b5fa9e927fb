//! The assembled platform: state, master event loop, and the output pump
//! that chains island events into each other at identical timestamps.

use crate::config::{
    EnergyConfig, HostCosts, InferenceScenario, MplayerScenario, PlatformBuilder, RubisScenario,
};
use crate::report::{
    AccelReport, AccelTenantReport, CoordReport, DomCpu, EnergyReport, NetReport, PlayerReport,
    IslandEvents, PowerReport, RubisReport, RunReport, SimRate, SourceEvents,
};
use accel::{AccelEvent, AccelIsland, TenantId};
use coord::{
    Action, BufferTriggerPolicy, Controller, CoordMsg, CoordinationPolicy, EnergyController,
    EnergyControllerConfig, EntityId, HysteresisPolicy, InferenceBatchPolicy, IslandId,
    IslandKind, KnobAxis, KnobPoint, NullPolicy, Observation, PolicyKind, ReliableReceiver,
    ReliableSender, RequestTypePolicy, ResourceManager, StreamQosPolicy,
};
use ixp::{AppTag, FlowId, IxpConfig, IxpEvent, IxpIsland, Packet};
use metrics::{platform_efficiency, ResponseStats, SessionStats};
use pcie::{HostLink, Mailbox, PcieEvent};
use power::{CpuPowerModel, DomainSample, DvfsState, IxpPowerModel, PowerGovernor};
use simcore::stats::Series;
use crate::inference_path::Infer;
use crate::requests::ClientTable;
use crate::rubis_path::Http;
use crate::trace_event::TraceEvent;
use simcore::trace::TraceBuffer;
use simcore::{Component, EventQueue, Nanos, SimRng, Tracked};
use simtest::chaos::ChaosPlan;
use std::collections::{BTreeMap, VecDeque};
use workloads::adversary::Adversary;
use workloads::inference::InferenceModel;
use workloads::mplayer::{Player, Source};
use workloads::rubis::{RubisModel, Tier};
use xsched::{Burst, CreditScheduler, DomId, SchedConfig, SchedEvent, WakeMode};

/// The x86 island's coordination identity.
pub(crate) const X86: IslandId = IslandId(0);
/// The IXP island's coordination identity.
pub(crate) const IXP: IslandId = IslandId(1);
/// The accelerator island's coordination identity (present only on
/// inference platforms; the default two-island build never registers it).
pub(crate) const ACCEL: IslandId = IslandId(2);

/// The platform-wide entity the energy controller's SetKnob messages
/// address (registered only when the energy dimension is on). Sits well
/// clear of workload VM indices (1..n) and adversary indices (100+).
pub(crate) const ENERGY_ENTITY: EntityId = EntityId(99);

/// DB-partition cache ways powered at each rung of the cache axis
/// (rung 0 = the full 16-way LLC slice).
pub(crate) const WAYS_LADDER: [u32; 5] = [16, 12, 8, 6, 4];
/// Memory-bandwidth partition share (percent) at each rung of the
/// bandwidth axis.
pub(crate) const MEMBW_LADDER: [u32; 5] = [100, 85, 70, 55, 40];
/// Service-time multiplier on DB-tier demand per cache rung: DB-heavy
/// requests are working-set bound, so shrinking their partition misses
/// hard and fast.
const DB_WAYS_FACTOR: [f64; 5] = [1.0, 1.03, 1.08, 1.15, 1.30];
/// Service-time multiplier on DB-tier demand per bandwidth rung.
const DB_MEMBW_FACTOR: [f64; 5] = [1.0, 1.02, 1.06, 1.12, 1.25];
/// Service-time multiplier on web/app-tier demand per bandwidth rung:
/// CPU-heavy request classes barely notice a narrower memory lane (and
/// are untouched by the DB cache partition).
const CPU_MEMBW_FACTOR: [f64; 5] = [1.0, 1.01, 1.02, 1.04, 1.08];
/// Modelled uncore watts per powered cache way.
const WAY_WATTS: f64 = 0.6;
/// Modelled memory-subsystem watts at a 100% bandwidth share.
const MEMBW_WATTS: f64 = 8.0;

/// The measurement sampling period.
const SAMPLE_PERIOD: Nanos = Nanos::from_secs(1);

/// Master-queue events (workload pacing and sampling).
#[derive(Debug)]
pub(crate) enum Ev {
    /// A packet reaches the IXP's wire-side receive port.
    WireArrive(Packet),
    /// A RUBiS client or inference tenant issues its next request.
    ClientSend(u32),
    /// The streaming server emits the next frame of a stream.
    FrameGen(usize),
    /// Dom0's background load resumes after an idle gap.
    BackgroundKick,
    /// A request's retransmission timer fires.
    Rto { req: u64, attempt: u32 },
    /// A guest-accepted inference request finishes its DMA into the
    /// accelerator's submission queue.
    AccelDma { req: u64 },
    /// A strategic tenant's next coordination message is due.
    Adversary(usize),
    /// Periodic measurement sample.
    Sample,
}

/// Context attached to scheduler burst tags.
#[derive(Debug, Clone)]
pub(crate) enum Ctx {
    /// Dom0 messaging-driver service routine finished.
    DriverService,
    /// A tier finished processing a RUBiS request.
    TierDone { req: u64, tier: Tier },
    /// Dom0 bridge hop finished; start `tier` processing of `req`.
    HopDone { req: u64, tier: Tier },
    /// Dom0 response-out bridge finished for `req`.
    RespOut { req: u64 },
    /// A frame decode finished.
    Decode { player: usize },
    /// Dom0 background work chunk finished.
    Background,
    /// An adversarial tenant VM's CPU-hog chunk finished.
    AdvLoad { slot: usize },
    /// Dom0 finished applying a coordination message.
    CoordApply { msg: CoordMsg },
    /// A tenant VM finished post-processing a completed inference batch
    /// item.
    InfPost { req: u64 },
    /// Dom0 finished bridging an inference response toward the IXP.
    InfRespOut { req: u64 },
}

/// The burst contexts awaiting their completion, in a generation-tagged
/// slab: a tag is `generation << 32 | slot`. Freed slots are reused, and
/// the generation bump makes a stale tag miss instead of reaching the
/// slot's next owner. The slab grows only to the most bursts ever in
/// flight at once.
#[derive(Debug, Default)]
pub(crate) struct TagSlab {
    slots: Vec<(u32, Option<Ctx>)>,
    free: Vec<u32>,
}

impl TagSlab {
    pub(crate) fn insert(&mut self, ctx: Ctx) -> u64 {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[index as usize];
        slot.1 = Some(ctx);
        u64::from(slot.0) << 32 | u64::from(index)
    }

    /// The context `tag` was issued for, if it is still pending.
    pub(crate) fn remove(&mut self, tag: u64) -> Option<Ctx> {
        let index = tag as u32;
        let slot = self.slots.get_mut(index as usize)?;
        if slot.0 != (tag >> 32) as u32 {
            return None;
        }
        let ctx = slot.1.take()?;
        slot.0 = slot.0.wrapping_add(1);
        self.free.push(index);
        Some(ctx)
    }
}

/// A wire-encoded coordination message as the mailboxes carry it: by
/// value, so a send allocates nothing and a channel duplicate is a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    len: u8,
    bytes: [u8; Frame::CAPACITY],
}

impl Frame {
    /// The longest encoding: a sequence-numbered frame around a
    /// `RegisterEntity` (5 + 15 bytes).
    const CAPACITY: usize = 20;

    /// Encodes `msg`, framed with its reliable-delivery sequence number
    /// when it has one, through `buf` (the reused encoding buffer).
    fn encode(buf: &mut Vec<u8>, seq: Option<u32>, msg: &CoordMsg) -> Frame {
        buf.clear();
        let len = match seq {
            Some(seq) => coord::wire::encode_framed(seq, msg, buf),
            None => coord::wire::encode(msg, buf),
        };
        let mut bytes = [0; Frame::CAPACITY];
        bytes[..len].copy_from_slice(buf);
        Frame { len: len as u8, bytes }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

#[derive(Debug)]
pub(crate) struct VmSlot {
    pub dom: DomId,
    pub vm_index: u32,
    pub entity: EntityId,
    pub flow: Option<FlowId>,
    pub name: String,
    pub inflight_rx: u32,
    pub hold: VecDeque<Packet>,
    /// Requests queued or in service at this tier (admission control).
    pub pending: u32,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientState {
    pub session_start: Nanos,
    pub done_in_session: u32,
}

#[derive(Debug)]
pub(crate) struct RubisState {
    pub model: RubisModel,
    pub reqs: ClientTable<Http>,
    pub clients: Vec<ClientState>,
    pub web_vm: u32,
    pub app_vm: u32,
    pub db_vm: u32,
}

#[derive(Debug)]
pub(crate) struct InferenceState {
    pub model: InferenceModel,
    pub reqs: ClientTable<Infer>,
    /// Tenant index → guest VM index.
    pub tenant_vms: Vec<u32>,
    /// Tenant index → accelerator-side queue identity.
    pub accel_tenants: Vec<TenantId>,
    /// Per-tenant accelerator queueing delay (batch-forming wait).
    pub queue_delays: ResponseStats,
}

#[derive(Debug)]
pub(crate) struct PlayerState {
    pub player: Player,
    pub vm_index: u32,
    pub rx_accum_bytes: u64,
    pub next_pkt_id: u64,
}

/// Runtime state of the QoS-constrained energy dimension. The
/// controller's commanded point leads `applied` by one coordination
/// channel flight: a SetKnob rides the mailbox and a Dom0 apply burst
/// like any Tune, so knob changes pay (and suffer) the channel.
#[derive(Debug)]
pub(crate) struct EnergyState {
    pub ctl: EnergyController,
    /// Knob rungs actually in force on the x86 island.
    pub applied: KnobPoint,
    /// Response latencies since the last sample — the controller's QoS
    /// signal, reset each sample so decisions track the present, not the
    /// run's whole history.
    pub window: ResponseStats,
    pub cpu_joules: f64,
    pub ixp_joules: f64,
    /// Samples spent at each DVFS rung.
    pub residency: [u64; DvfsState::xeon_ladder().len()],
    /// SetKnob actions applied on the island.
    pub knob_actions: u64,
}

impl EnergyState {
    fn new(cfg: EnergyConfig) -> Self {
        let mut ec = EnergyControllerConfig::default().with_target_ms(cfg.p99_target_ms);
        // A disabled axis gets a one-rung ladder: rung 0 (full
        // performance) is then its only point and the controller never
        // steps it — the E2 single-knob ablations are built from this.
        ec.rungs = [
            if cfg.dvfs { DvfsState::xeon_ladder().len() as u8 } else { 1 },
            if cfg.cache { WAYS_LADDER.len() as u8 } else { 1 },
            if cfg.membw { MEMBW_LADDER.len() as u8 } else { 1 },
        ];
        EnergyState {
            ctl: EnergyController::new(ec),
            applied: KnobPoint::default(),
            window: ResponseStats::new(),
            cpu_joules: 0.0,
            ixp_joules: 0.0,
            residency: [0; DvfsState::xeon_ladder().len()],
            knob_actions: 0,
        }
    }

    /// The controller's QoS signal: the worst per-request-class p99 over
    /// the window, in milliseconds. Classes too rare in the window to
    /// carry their own histogram ride the overall percentile; `None`
    /// (no completions at all) means no signal and no decision.
    fn worst_window_p99(&self) -> Option<f64> {
        if self.window.total() == 0 {
            return None;
        }
        let mut worst = self.window.overall_percentile(0.99);
        for (name, s) in self.window.iter() {
            if s.count() >= 5 {
                worst = worst.max(self.window.percentile(name, 0.99));
            }
        }
        Some(worst)
    }
}

#[derive(Debug, Default)]
pub(crate) struct CoordCounters {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub tunes_applied: u64,
    pub triggers_applied: u64,
}

/// Island index of the x86 host (queue, sched, link, mailboxes, retx).
const X86_ISLAND: usize = 0;
/// Island index of the IXP network processor.
const IXP_ISLAND: usize = 1;
/// Island index of the batching accelerator (+ doorbell lane).
const ACCEL_ISLAND: usize = 2;
/// Island names, indexed by the island consts.
const ISLAND_NAMES: [&str; 3] = ["x86", "ixp", "accel"];

/// One registry entry per event source: what the master loop iterates
/// instead of a hand-written nine-arm match. `island` places the source
/// in the platform's hardware partition (x86 host, IXP, accelerator),
/// which the report's per-island dispatch counts fold by.
struct SourceSpec {
    /// Short stable name (the report's `events_by_source` key).
    name: &'static str,
    /// Island index ([`X86_ISLAND`] etc.).
    island: usize,
    /// The source's cached horizon ([`Tracked::horizon`]).
    horizon: fn(&mut Platform) -> Nanos,
    /// Whether the source's cache is stale or matches a fresh peek
    /// ([`Tracked::is_coherent`]; read by the debug sweep only).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    coherent: fn(&Platform) -> bool,
    /// Dispatches this source's due event at `t` (consumes the head and
    /// absorbs whatever it produces).
    dispatch: fn(&mut Platform, Nanos),
}

/// The registry entry for the [`Tracked`] field `$field`.
macro_rules! source {
    ($field:ident, $name:literal, $island:ident, $dispatch:ident) => {
        SourceSpec {
            name: $name,
            island: $island,
            horizon: |p| p.$field.horizon(),
            coherent: |p| p.$field.is_coherent(),
            dispatch: Platform::$dispatch,
        }
    };
}

/// Number of event sources.
const NSRC: usize = 9;

/// The platform's event sources. The dispatch order at equal timestamps
/// is the array order (lowest index wins) — changing this table's order
/// changes committed artifacts.
const SOURCES: [SourceSpec; NSRC] = [
    source!(q, "queue", X86_ISLAND, dispatch_queue),
    source!(sched, "sched", X86_ISLAND, dispatch_sched),
    source!(ixp, "ixp", IXP_ISLAND, dispatch_ixp),
    source!(link, "link", X86_ISLAND, dispatch_link),
    source!(mbx, "coord-mbx", X86_ISLAND, dispatch_coord_mbx),
    source!(ack_mbx, "ack-mbx", X86_ISLAND, dispatch_ack_mbx),
    source!(rel_tx, "retx", X86_ISLAND, dispatch_retx),
    source!(accel, "accel", ACCEL_ISLAND, dispatch_accel),
    source!(accel_mbx, "accel-mbx", ACCEL_ISLAND, dispatch_accel_mbx),
];

/// Events the master loop dispatched per source, indexed like
/// [`SOURCES`]; the island and total counts fold from these.
#[derive(Debug, Clone, Copy, Default)]
struct DispatchCounts([u64; NSRC]);

impl DispatchCounts {
    /// Total events dispatched.
    fn events(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The per-source report block, in registry order.
    fn source_events(&self) -> Vec<SourceEvents> {
        SOURCES
            .iter()
            .zip(self.0)
            .map(|(spec, events)| SourceEvents {
                name: spec.name,
                island: ISLAND_NAMES[spec.island],
                events,
            })
            .collect()
    }

    /// The per-island report block.
    fn island_events(&self) -> IslandEvents {
        let mut by_island = [0; ISLAND_NAMES.len()];
        for (spec, n) in SOURCES.iter().zip(self.0) {
            by_island[spec.island] += n;
        }
        IslandEvents {
            x86: by_island[X86_ISLAND],
            ixp: by_island[IXP_ISLAND],
            accel: by_island[ACCEL_ISLAND],
        }
    }
}

/// The fully wired two-island platform. Construct with
/// [`PlatformBuilder`], then call [`run`](Self::run).
///
/// The nine event sources of `SOURCES` are [`Tracked`] fields: each
/// caches its own horizon, and any `&mut` use of one (a submit, a
/// schedule, a send) marks that cache stale, so the master loop re-peeks
/// exactly the sources something touched.
pub struct Platform {
    pub(crate) now: Nanos,
    pub(crate) rng: SimRng,
    pub(crate) sched: Tracked<CreditScheduler>,
    pub(crate) ixp: Tracked<IxpIsland>,
    pub(crate) link: Tracked<HostLink>,
    pub(crate) mbx: Tracked<Mailbox<Frame>>,
    /// Reverse channel (Dom0 → IXP) carrying reliable-delivery acks; it
    /// shares the forward channel's latency and fault profile and stays
    /// silent unless reliable delivery is enabled.
    pub(crate) ack_mbx: Tracked<Mailbox<Frame>>,
    pub(crate) rel_tx: Tracked<Option<ReliableSender>>,
    pub(crate) rel_rx: Option<ReliableReceiver>,
    pub(crate) degraded_suppressed: u64,
    /// Chaos schedule consulted at the loop's hook points. The default
    /// [`ChaosPlan::none()`] makes every hook an early-return with zero
    /// state change, keeping chaos-off runs byte-identical.
    pub(crate) chaos: ChaosPlan,
    /// Baseline coordination-channel latency, kept so the chaos jitter
    /// hook can restore it after a per-message override.
    pub(crate) coord_latency: Nanos,
    /// Strategic tenants emitting through the real coordination channel.
    pub(crate) adversaries: Vec<Adversary>,
    /// Count of chaos-forced Triggers (also rotates the victim queue).
    pub(crate) chaos_triggers: u64,
    pub(crate) controller: Controller,
    pub(crate) policy: Box<dyn CoordinationPolicy>,
    pub(crate) q: Tracked<EventQueue<Ev>>,
    pub(crate) tags: TagSlab,
    pub(crate) dom0: DomId,
    pub(crate) vms: Vec<VmSlot>,
    pub(crate) rubis: Option<RubisState>,
    /// The optional third island: a batching inference accelerator.
    /// `None` on every rubis/mplayer platform, keeping the default
    /// two-island build byte-identical.
    pub(crate) accel: Tracked<Option<AccelIsland>>,
    /// Doorbell lane carrying wire-encoded coordination verbs from Dom0
    /// to the accelerator (its own mailbox, with its own fault stream).
    pub(crate) accel_mbx: Tracked<Mailbox<Frame>>,
    pub(crate) inf: Option<InferenceState>,
    /// Host→accelerator DMA latency for one inference request.
    pub(crate) accel_dma: Nanos,
    pub(crate) players: Vec<PlayerState>,
    pub(crate) dom0_hog: f64,
    pub(crate) hog_chunk: Nanos,
    pub(crate) overrate: f64,
    pub(crate) costs: HostCosts,
    pub(crate) driver_pending: bool,
    /// Coordination messages awaiting their Dom0 apply burst. Applications
    /// are strictly serialized: weight deltas do not commute once clamping
    /// is involved, so out-of-order application across Dom0's VCPUs would
    /// make weights drift.
    pub(crate) coord_pending: VecDeque<CoordMsg>,
    pub(crate) coord_inflight: bool,
    // measurement
    pub(crate) responses: ResponseStats,
    pub(crate) sessions: SessionStats,
    pub(crate) coord: CoordCounters,
    pub(crate) cpu_series: BTreeMap<DomId, Series>,
    pub(crate) buffer_series: Series,
    pub(crate) cpu_prev: BTreeMap<DomId, Nanos>,
    pub(crate) monitored_flow: Option<FlowId>,
    pub(crate) delivered: u64,
    pub(crate) guest_drops: u64,
    pub(crate) trace: TraceBuffer<TraceEvent>,
    pub(crate) power_gov: Option<PowerGovernor>,
    /// QoS-constrained energy dimension (`None` keeps the build
    /// byte-identical to the seed baseline).
    pub(crate) energy: Option<EnergyState>,
    pub(crate) cpu_power: CpuPowerModel,
    pub(crate) ixp_power: IxpPowerModel,
    pub(crate) power_series: Series,
    pub(crate) delivered_prev: u64,
    pub(crate) ncpus: u32,
    // Reusable dispatch buffers: each `on_timer` arm of the master loop
    // takes its buffer, appends into it, drains it, and puts it back, so
    // steady-state dispatch allocates nothing. Re-entrant absorb paths
    // (e.g. link → tx_from_host → absorb_ixp) use the by-value input
    // methods and never touch these.
    pub(crate) scratch_sched: Vec<SchedEvent>,
    pub(crate) scratch_ixp: Vec<IxpEvent>,
    pub(crate) scratch_link: Vec<PcieEvent>,
    pub(crate) scratch_mbx: Vec<Frame>,
    pub(crate) scratch_ack: Vec<Frame>,
    pub(crate) scratch_retx: Vec<(u32, CoordMsg)>,
    pub(crate) scratch_accel: Vec<AccelEvent>,
    pub(crate) scratch_accel_mbx: Vec<Frame>,
    pub(crate) scratch_ev: Vec<(Nanos, Ev)>,
    /// Policy output awaiting [`send_coord`](Self::send_coord).
    pub(crate) scratch_coord: Vec<CoordMsg>,
    pub(crate) scratch_actions: Vec<Action>,
    pub(crate) scratch_take: Vec<(FlowId, Packet)>,
    /// Encoding buffer every [`Frame`] is built in.
    pub(crate) scratch_wire: Vec<u8>,
    /// Whether [`run`](Self::run) has started the sampler and the
    /// workload's sources.
    pub(crate) started: bool,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("now", &self.now)
            .field("policy", &self.policy.name())
            .field("vms", &self.vms.len())
            .field("players", &self.players.len())
            .finish_non_exhaustive()
    }
}

impl Platform {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn base(b: &PlatformBuilder, ixp_cfg: IxpConfig) -> Platform {
        let mut sched_cfg = SchedConfig::new(b.ncpus);
        sched_cfg.precise_accounting = b.precise_accounting;
        let sched = CreditScheduler::new(sched_cfg);
        let mut controller = Controller::new();
        if let Some(cfg) = b.defenses {
            controller.set_defenses(cfg);
        }
        controller.handle(
            Nanos::ZERO,
            CoordMsg::RegisterIsland { island: X86, kind: IslandKind::GeneralPurpose },
        );
        controller.handle(
            Nanos::ZERO,
            CoordMsg::RegisterIsland { island: IXP, kind: IslandKind::NetworkProcessor },
        );
        let energy = b.energy.map(|cfg| {
            controller.handle(
                Nanos::ZERO,
                CoordMsg::RegisterEntity { entity: ENERGY_ENTITY, island: X86, local_key: 0 },
            );
            EnergyState::new(cfg)
        });
        let mut mbx = Mailbox::new(b.coord_latency);
        let mut ack_mbx = Mailbox::new(b.coord_latency);
        let mut accel_mbx = Mailbox::new(b.coord_latency);
        if !b.fault_profile.is_none() {
            // Fault RNG streams are derived straight from the seed — never
            // forked from the platform RNG, which would shift every draw
            // the workload makes and break fault-free byte-identity.
            mbx.set_faults(b.fault_profile, SimRng::new(b.effective_seed() ^ 0xFA17_0001));
            ack_mbx.set_faults(b.fault_profile, SimRng::new(b.effective_seed() ^ 0xFA17_0002));
            accel_mbx.set_faults(b.fault_profile, SimRng::new(b.effective_seed() ^ 0xFA17_0003));
        }
        Platform {
            now: Nanos::ZERO,
            rng: SimRng::new(b.effective_seed()),
            sched: Tracked::new(sched),
            ixp: Tracked::new(IxpIsland::new(ixp_cfg)),
            link: Tracked::new(HostLink::new(b.link_config())),
            mbx: Tracked::new(mbx),
            ack_mbx: Tracked::new(ack_mbx),
            rel_tx: Tracked::new(b.reliable.map(ReliableSender::new)),
            rel_rx: b.reliable.map(|_| ReliableReceiver::new()),
            degraded_suppressed: 0,
            chaos: b.chaos.clone(),
            coord_latency: b.coord_latency,
            adversaries: Vec::new(),
            chaos_triggers: 0,
            controller,
            policy: Box::new(NullPolicy),
            q: Tracked::new(EventQueue::new()),
            tags: TagSlab::default(),
            dom0: DomId::DOM0,
            vms: Vec::new(),
            rubis: None,
            accel: Tracked::new(None),
            accel_mbx: Tracked::new(accel_mbx),
            inf: None,
            accel_dma: Nanos::from_micros(20),
            players: Vec::new(),
            dom0_hog: 0.0,
            hog_chunk: Nanos::from_millis(20),
            overrate: 1.0,
            costs: b.costs,
            driver_pending: false,
            coord_pending: VecDeque::new(),
            coord_inflight: false,
            responses: ResponseStats::new(),
            sessions: SessionStats::new(),
            coord: CoordCounters::default(),
            cpu_series: BTreeMap::new(),
            buffer_series: Series::new(),
            cpu_prev: BTreeMap::new(),
            monitored_flow: None,
            delivered: 0,
            guest_drops: 0,
            trace: TraceBuffer::new(512),
            power_gov: b
                .power_cap
                .clone()
                .map(|(w, s)| PowerGovernor::new(w, s)),
            energy,
            cpu_power: CpuPowerModel::default(),
            ixp_power: IxpPowerModel::default(),
            power_series: Series::new(),
            delivered_prev: 0,
            ncpus: b.ncpus,
            scratch_sched: Vec::new(),
            scratch_ixp: Vec::new(),
            scratch_link: Vec::new(),
            scratch_mbx: Vec::new(),
            scratch_ack: Vec::new(),
            scratch_retx: Vec::new(),
            scratch_accel: Vec::new(),
            scratch_accel_mbx: Vec::new(),
            scratch_ev: Vec::new(),
            scratch_coord: Vec::new(),
            scratch_actions: Vec::new(),
            scratch_take: Vec::new(),
            scratch_wire: Vec::new(),
            started: false,
        }
    }

    fn add_vm(&mut self, name: &str, weight: u32, vm_index: u32, with_flow: bool) -> usize {
        let dom = self.sched.create_domain(name, weight, 1);
        let entity = EntityId(vm_index);
        let flow = with_flow.then(|| self.ixp.register_flow(vm_index));
        self.controller.handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity { entity, island: X86, local_key: dom.0 as u64 },
        );
        if let Some(f) = flow {
            self.controller.handle(
                Nanos::ZERO,
                CoordMsg::RegisterEntity { entity, island: IXP, local_key: f.0 as u64 },
            );
        }
        self.vms.push(VmSlot {
            dom,
            vm_index,
            entity,
            flow,
            name: name.to_owned(),
            inflight_rx: 0,
            hold: VecDeque::new(),
            pending: 0,
        });
        self.vms.len() - 1
    }

    /// Gives each configured adversarial tenant its own guest VM (default
    /// weight, no network flow) and binds the strategy to that VM's
    /// coordination entity. VM indices start at 100 to stay clear of any
    /// workload's numbering. With no adversaries configured this is a
    /// no-op, so default builds are untouched.
    fn attach_adversaries(&mut self, b: &PlatformBuilder) {
        for (i, spec) in b.adversaries.iter().enumerate() {
            let vm_index = 100 + i as u32;
            let slot = self.add_vm(&format!("adv{}", i + 1), 256, vm_index, false);
            let entity = self.vms[slot].entity;
            self.adversaries
                .push(Adversary::new(entity, Some(X86), spec.strategy, Nanos::ZERO));
        }
    }

    pub(crate) fn new_rubis(b: PlatformBuilder, scenario: RubisScenario) -> Platform {
        let mut ixp_cfg = b.ixp_overrides.clone().unwrap_or_default();
        ixp_cfg.dpi = true;
        let mut b = b;
        // Guest-side queues are small for request/response traffic: the
        // web VM's netfront ring and accept queue hold only a handful of
        // outstanding requests (the paper's overloaded 256 MB VMs), so a
        // starved tier drops and clients retransmit.
        if b.costs.guest_rx_cap == HostCosts::default().guest_rx_cap {
            b.costs.guest_rx_cap = scenario.rx_window;
            b.costs.guest_hold_cap = scenario.rx_window;
        }
        let mut p = Platform::base(&b, ixp_cfg);
        // Dom0 first (one VCPU per pCPU, unpinned, default weight).
        p.dom0 = p.sched.create_domain("dom0", 256, b.ncpus);
        p.add_vm("web", 256, 1, true);
        p.add_vm("app", 256, 2, true);
        p.add_vm("db", 256, 3, true);
        p.policy = match b.policy {
            PolicyKind::RequestType => {
                let mut pol = RequestTypePolicy::new(EntityId(1), EntityId(2), EntityId(3), X86);
                if let Some((hi, lo)) = b.policy_weights {
                    pol = pol.with_weights(hi, lo);
                }
                Box::new(pol)
            }
            PolicyKind::RequestTypeHysteresis => Box::new(HysteresisPolicy::new(
                EntityId(1),
                EntityId(2),
                EntityId(3),
                X86,
            )),
            PolicyKind::BufferTrigger => Box::new(BufferTriggerPolicy::new(X86)),
            PolicyKind::StreamQos => Box::new(StreamQosPolicy::new(X86, 500)),
            PolicyKind::InferenceBatch | PolicyKind::None => Box::new(NullPolicy),
        };
        let model = RubisModel::new(scenario.rubis_config(), b.effective_seed().wrapping_mul(0x9E37));
        let clients = (0..scenario.clients)
            .map(|_| ClientState { session_start: Nanos::ZERO, done_in_session: 0 })
            .collect();
        p.rubis = Some(RubisState {
            model,
            reqs: ClientTable::default(),
            clients,
            web_vm: 1,
            app_vm: 2,
            db_vm: 3,
        });
        p.attach_adversaries(&b);
        p
    }

    pub(crate) fn new_mplayer(b: PlatformBuilder, scenario: MplayerScenario) -> Platform {
        let mut ixp_cfg = b.ixp_overrides.clone().unwrap_or_default();
        ixp_cfg.buffer_threshold = scenario.buffer_threshold;
        let mut p = Platform::base(&b, ixp_cfg);
        p.dom0 = p
            .sched
            .create_domain("dom0", 256, scenario.dom0_vcpus.max(1));
        p.dom0_hog = scenario.dom0_hog.max(0.0);
        p.overrate = scenario.overrate.max(0.1);
        for (i, spec) in scenario.players.iter().enumerate() {
            let vm_index = (i + 1) as u32;
            let name = format!("dom{vm_index}");
            let network = spec.source == Source::Network;
            let slot = p.add_vm(&name, spec.weight, vm_index, network);
            if network && p.monitored_flow.is_none() {
                p.monitored_flow = p.vms[slot].flow;
            }
            p.players.push(PlayerState {
                player: Player::new(spec.stream, spec.source, Nanos::ZERO),
                vm_index,
                rx_accum_bytes: 0,
                next_pkt_id: (i as u64 + 1) << 48,
            });
        }
        p.policy = match b.policy {
            PolicyKind::StreamQos => Box::new(StreamQosPolicy::new(X86, 500).with_tandem_ixp(IXP)),
            PolicyKind::BufferTrigger => {
                let mut pol = BufferTriggerPolicy::new(X86);
                if let Some(rate) = b.trigger_rate {
                    pol = pol.with_rate_limit(rate, (rate * 2.0).max(1.0));
                }
                Box::new(pol)
            }
            PolicyKind::RequestType
            | PolicyKind::RequestTypeHysteresis
            | PolicyKind::InferenceBatch
            | PolicyKind::None => Box::new(NullPolicy),
        };
        p.attach_adversaries(&b);
        p
    }

    pub(crate) fn new_inference(b: PlatformBuilder, scenario: InferenceScenario) -> Platform {
        let mut ixp_cfg = b.ixp_overrides.clone().unwrap_or_default();
        // DPI on: the IXP classifies inference requests so the policy can
        // see each tenant's SLA class at the network edge.
        ixp_cfg.dpi = true;
        let mut p = Platform::base(&b, ixp_cfg);
        p.dom0 = p.sched.create_domain("dom0", 256, b.ncpus);
        p.accel_dma = scenario.dma_latency;
        let mut acc = AccelIsland::with_island(scenario.accel.clone(), ACCEL);
        p.controller.handle(
            Nanos::ZERO,
            CoordMsg::RegisterIsland { island: ACCEL, kind: IslandKind::Accelerator },
        );
        let model = InferenceModel::new(scenario.inference.clone(), b.effective_seed());
        let mut tenant_vms = Vec::new();
        let mut accel_tenants = Vec::new();
        for (i, spec) in scenario.inference.tenants.iter().enumerate() {
            let vm_index = (i + 1) as u32;
            let slot = p.add_vm(spec.name, 256, vm_index, true);
            let entity = p.vms[slot].entity;
            let tenant = acc.register_tenant(vm_index);
            // Monitor only interactive tenants' queues: their alarm sits
            // at `depth` requests' worth of the model's input bytes.
            if let Some(depth) = scenario.interactive_alarm_depth {
                let m = model.model_of(i);
                if m.latency_sensitive {
                    acc.set_queue_alarm(tenant, Some(depth as u64 * m.input_bytes as u64));
                }
            }
            // Third binding: the same platform entity is a submission
            // queue on the accelerator island.
            p.controller.handle(
                Nanos::ZERO,
                CoordMsg::RegisterEntity {
                    entity,
                    island: ACCEL,
                    local_key: tenant.0 as u64,
                },
            );
            tenant_vms.push(vm_index);
            accel_tenants.push(tenant);
        }
        *p.accel = Some(acc);
        p.policy = match b.policy {
            PolicyKind::InferenceBatch => Box::new(InferenceBatchPolicy::new(ACCEL)),
            PolicyKind::BufferTrigger => {
                let mut pol = BufferTriggerPolicy::new(ACCEL);
                if let Some(rate) = b.trigger_rate {
                    pol = pol.with_rate_limit(rate, (rate * 2.0).max(1.0));
                }
                Box::new(pol)
            }
            PolicyKind::RequestType
            | PolicyKind::RequestTypeHysteresis
            | PolicyKind::StreamQos
            | PolicyKind::None => Box::new(NullPolicy),
        };
        p.inf = Some(InferenceState {
            model,
            reqs: ClientTable::default(),
            tenant_vms,
            accel_tenants,
            queue_delays: ResponseStats::new(),
        });
        p.attach_adversaries(&b);
        p
    }

    // ------------------------------------------------------------------
    // VM helpers
    // ------------------------------------------------------------------

    pub(crate) fn slot_by_vm(&self, vm_index: u32) -> Option<usize> {
        self.vms.iter().position(|v| v.vm_index == vm_index)
    }

    pub(crate) fn dom_of_vm(&self, vm_index: u32) -> Option<DomId> {
        self.slot_by_vm(vm_index).map(|i| self.vms[i].dom)
    }

    /// Submits a burst to a domain and absorbs any catch-up completions.
    pub(crate) fn submit(&mut self, dom: DomId, burst: Burst, wake: WakeMode) {
        let now = self.now;
        let evs = self
            .sched
            .submit(now, dom, burst, wake)
            .expect("domain exists");
        self.absorb_sched(evs);
    }

    /// Sets the IXP dequeue-thread count for the flow registered to a
    /// guest VM index (the Figure 6 "tandem" knob).
    pub fn set_flow_threads_by_vm(&mut self, vm_index: u32, threads: u32) -> bool {
        let Some(flow) = self.ixp.flow_of_vm(vm_index) else {
            return false;
        };
        self.ixp.set_flow_threads(flow, threads);
        true
    }

    /// The most recent coordination decisions applied on the x86 island
    /// (bounded history; useful when debugging a policy), rendered to
    /// text lazily — the hot path records compact [`TraceEvent`] values.
    pub fn coordination_trace(&self) -> impl Iterator<Item = (Nanos, String)> + '_ {
        self.trace.iter().map(|&(t, e)| (t, e.to_string()))
    }

    /// The same bounded history as [`coordination_trace`](Self::coordination_trace),
    /// as the structured values the hot path actually records.
    pub fn coordination_trace_events(&self) -> impl Iterator<Item = &(Nanos, TraceEvent)> {
        self.trace.iter()
    }

    /// Diagnostic: one-line scheduler state summary.
    pub fn diag_line(&self) -> String {
        let mut out = String::new();
        let mut doms = vec![(self.dom0, "dom0".to_string())];
        for v in &self.vms {
            doms.push((v.dom, v.name.clone()));
        }
        for (d, name) in doms {
            out.push_str(&format!(
                "{}[{:?} {:?} c{:?}] ",
                name,
                self.sched.run_state(d),
                self.sched.priority(d),
                self.sched.credits_all(d),
            ));
        }
        out
    }

    /// Diagnostic: credits of each VCPU of a named domain.
    pub fn credits_of(&self, name: &str) -> Vec<i32> {
        if name == "dom0" {
            return self.sched.credits_all(self.dom0);
        }
        self.vms
            .iter()
            .find(|v| v.name == name)
            .map(|v| self.sched.credits_all(v.dom))
            .unwrap_or_default()
    }

    /// Overrides a domain's scheduling weight by name ("web", "dom1", …).
    /// Returns `false` if no such domain exists. Used by experiments that
    /// evaluate static weight assignments.
    pub fn set_weight_by_name(&mut self, name: &str, weight: u32) -> bool {
        if name == "dom0" {
            return self.sched.set_weight(self.dom0, weight).is_ok();
        }
        let Some(slot) = self.vms.iter().position(|v| v.name == name) else {
            return false;
        };
        self.sched.set_weight(self.vms[slot].dom, weight).is_ok()
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs the simulation for `duration` and returns the measurements.
    ///
    /// The workload's sources and the sampler start on the first call
    /// only. Their self-rescheduling chains (client think times, tenant
    /// arrivals, stream frames, adversary emissions, samples) stay queued
    /// past the end of a run, so a later call continues the same clients,
    /// players, hogs and sample cadence from where the last one stopped. Each iteration gathers the
    /// sources' cached horizons — all O(1) reads unless a source was
    /// touched: the queues keep a live head and the scheduler memoises
    /// its horizon — and dispatches the earliest source through the
    /// `SOURCES` registry.
    pub fn run(&mut self, duration: Nanos) -> RunReport {
        let wall_start = std::time::Instant::now();
        let t_end = self.now + duration;
        if !self.started {
            self.started = true;
            self.q.schedule(self.now + SAMPLE_PERIOD, Ev::Sample);
            self.start_workload();
        }
        let counts = self.run_loop(t_end);
        self.now = t_end;
        let mut evs = std::mem::take(&mut self.scratch_sched);
        self.sched.on_timer(t_end, &mut evs);
        self.absorb_sched_drain(&mut evs);
        self.scratch_sched = evs;
        let wall_micros = wall_start.elapsed().as_micros() as u64;
        self.build_report(duration, counts, wall_micros)
    }

    /// The master event loop.
    ///
    /// The loop's invariants:
    /// * every cached horizon not marked stale equals a from-scratch
    ///   recompute (checked on every iteration in debug builds);
    /// * the earliest horizon is dispatched next, lowest source index
    ///   breaking timestamp ties (the [`SOURCES`] order);
    /// * no source advances past another source's horizon.
    fn run_loop(&mut self, t_end: Nanos) -> DispatchCounts {
        let mut counts = DispatchCounts::default();
        loop {
            // Only sources borrowed mutably since their last peek
            // re-peek; [`Nanos::MAX`] = idle.
            let (mut t, mut src) = (Nanos::MAX, NSRC);
            for (i, spec) in SOURCES.iter().enumerate() {
                let h = (spec.horizon)(self);
                if h < t {
                    (t, src) = (h, i);
                }
            }
            #[cfg(debug_assertions)]
            self.debug_check_horizons();
            if src == NSRC || t > t_end {
                break;
            }
            self.now = t;
            counts.0[src] += 1;
            (SOURCES[src].dispatch)(self, t);
        }
        counts
    }

    /// Debug-build invariant sweep: every source's cached horizon must be
    /// stale or equal a from-scratch recompute. [`Tracked`] makes a
    /// mutation that skips the stale mark impossible through `&mut`, so
    /// this trips only on a peek that reads interior-mutable state or on
    /// a corrupted cache.
    #[cfg(debug_assertions)]
    fn debug_check_horizons(&self) {
        for spec in &SOURCES {
            assert!((spec.coherent)(self), "stale cached horizon for source `{}`", spec.name);
        }
    }

    // ------------------------------------------------------------------
    // Source dispatch (one method per [`SOURCES`] registry entry)
    // ------------------------------------------------------------------

    /// Master-queue head: workload pacing and sampling events.
    fn dispatch_queue(&mut self, t: Nanos) {
        let mut evs = std::mem::take(&mut self.scratch_ev);
        Component::advance(&mut *self.q, t, &mut evs);
        for (_, ev) in evs.drain(..) {
            if let Some(d) = self.chaos.delay_event() {
                // Chaos: push this timer fire out by a bounded delay
                // instead of dispatching it. The schedule is finite, so
                // the event always runs eventually.
                self.q.schedule(t + d, ev);
            } else {
                self.handle_ev(ev);
            }
        }
        self.scratch_ev = evs;
    }

    /// Credit-scheduler timer: ticks, slice rotation, completions.
    fn dispatch_sched(&mut self, t: Nanos) {
        let mut evs = std::mem::take(&mut self.scratch_sched);
        Component::advance(&mut *self.sched, t, &mut evs);
        self.absorb_sched_drain(&mut evs);
        self.scratch_sched = evs;
    }

    /// IXP stage pipeline: classification, delivery, alarms, wire tx.
    fn dispatch_ixp(&mut self, t: Nanos) {
        let mut evs = std::mem::take(&mut self.scratch_ixp);
        Component::advance(&mut *self.ixp, t, &mut evs);
        self.absorb_ixp_drain(&mut evs);
        self.scratch_ixp = evs;
    }

    /// PCIe link: DMA completions and moderated host notifications.
    fn dispatch_link(&mut self, t: Nanos) {
        let mut evs = std::mem::take(&mut self.scratch_link);
        Component::advance(&mut *self.link, t, &mut evs);
        self.absorb_link_drain(&mut evs);
        self.scratch_link = evs;
    }

    /// Forward coordination mailbox: frames arriving at Dom0.
    fn dispatch_coord_mbx(&mut self, t: Nanos) {
        let mut msgs = std::mem::take(&mut self.scratch_mbx);
        Component::advance(&mut *self.mbx, t, &mut msgs);
        for m in msgs.drain(..) {
            self.handle_coord_delivery(m.as_bytes());
        }
        self.scratch_mbx = msgs;
    }

    /// Reverse mailbox: reliable-delivery acks arriving at the sender.
    fn dispatch_ack_mbx(&mut self, t: Nanos) {
        let mut msgs = std::mem::take(&mut self.scratch_ack);
        Component::advance(&mut *self.ack_mbx, t, &mut msgs);
        for m in msgs.drain(..) {
            self.handle_ack_delivery(m.as_bytes());
        }
        self.scratch_ack = msgs;
    }

    /// Reliable sender's retransmission deadlines.
    fn dispatch_retx(&mut self, _t: Nanos) {
        self.pump_retransmits();
    }

    /// Accelerator batch engine: completions, alarms, chaos Triggers.
    fn dispatch_accel(&mut self, t: Nanos) {
        let mut evs = std::mem::take(&mut self.scratch_accel);
        Component::advance(&mut *self.accel, t, &mut evs);
        if self.chaos.force_trigger() {
            // Chaos: preempt a tenant queue at this batch boundary, as a
            // hostile Trigger would.
            self.chaos_force_trigger();
        }
        self.absorb_accel_drain(&mut evs);
        self.scratch_accel = evs;
    }

    /// Accelerator doorbell lane: coordination verbs reaching the device.
    fn dispatch_accel_mbx(&mut self, t: Nanos) {
        let mut msgs = std::mem::take(&mut self.scratch_accel_mbx);
        Component::advance(&mut *self.accel_mbx, t, &mut msgs);
        for m in msgs.drain(..) {
            self.handle_accel_delivery(m.as_bytes());
        }
        self.scratch_accel_mbx = msgs;
    }

    fn start_workload(&mut self) {
        if let Some(r) = self.rubis.as_ref() {
            let n = r.clients.len();
            for c in 0..n as u32 {
                // Stagger initial arrivals across the first think time.
                let jitter = Nanos::from_micros(self.rng.range(0, 100_000));
                self.q.schedule(self.now + jitter, Ev::ClientSend(c));
            }
        }
        if let Some(inf) = self.inf.as_mut() {
            // Each tenant's first arrival lands one inter-arrival gap in,
            // so sources start desynchronized.
            for t in 0..inf.tenant_vms.len() as u32 {
                let gap = inf.model.next_gap(t as usize);
                self.q.schedule(self.now + gap, Ev::ClientSend(t));
            }
        }
        for i in 0..self.players.len() {
            match self.players[i].player.source() {
                Source::Network => {
                    // RTSP setup packet first, then paced frames.
                    let spec = self.players[i].player.spec();
                    let vm = self.players[i].vm_index;
                    let id = self.players[i].next_pkt_id;
                    self.players[i].next_pkt_id += 1;
                    let setup = spec.setup_packet(id, vm);
                    self.q.schedule(self.now + self.costs.wire_latency, Ev::WireArrive(setup));
                    self.q
                        .schedule(self.now + Nanos::from_millis(50), Ev::FrameGen(i));
                }
                Source::LocalDisk => {
                    self.submit_decode(i);
                }
            }
        }
        let streams = self.dom0_hog.ceil() as u32;
        for _ in 0..streams {
            self.submit_background();
        }
        // Adversaries: arm each emission clock (fixed arithmetic schedule,
        // no RNG draws — zero adversaries leaves every stream untouched)
        // and start the per-VM CPU hog.
        for i in 0..self.adversaries.len() {
            let a = &self.adversaries[i];
            if let (0, Some(t)) = (a.sent(), a.next_at()) {
                self.q.schedule(t, Ev::Adversary(i));
            }
            if let Some(slot) = self.slot_by_vm(self.adversaries[i].entity().0) {
                self.submit_adv_load(slot);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle_ev(&mut self, ev: Ev) {
        match ev {
            Ev::WireArrive(pkt) => {
                let now = self.now;
                let evs = self.ixp.rx_from_wire(now, pkt);
                self.absorb_ixp(evs);
            }
            Ev::ClientSend(client) => {
                if self.inf.is_some() {
                    self.inference_send(client)
                } else {
                    self.client_send(client)
                }
            }
            Ev::FrameGen(i) => self.frame_gen(i),
            Ev::BackgroundKick => self.submit_background(),
            Ev::Rto { req, attempt } => {
                if self.inf.is_some() {
                    self.inference_rto(req, attempt)
                } else {
                    self.client_rto(req, attempt)
                }
            }
            Ev::AccelDma { req } => self.accel_dma_done(req),
            Ev::Adversary(i) => self.adversary_act(i),
            Ev::Sample => self.take_sample(),
        }
    }

    /// An adversary's emission clock fired: forward its message through
    /// the real coordination channel (so it competes with honest traffic
    /// and meets the controller's defenses) and rearm the clock.
    fn adversary_act(&mut self, i: usize) {
        let now = self.now;
        let Some(a) = self.adversaries.get_mut(i) else { return };
        let Some(msg) = a.emit(now) else { return };
        let next = a.next_at();
        self.scratch_coord.push(msg);
        self.send_coord();
        if let Some(t) = next {
            self.q.schedule(t, Ev::Adversary(i));
        }
    }

    /// One CPU-hog chunk on an adversary VM; the completion context
    /// resubmits, so the VM consumes whatever share its weight buys for
    /// the whole run.
    fn submit_adv_load(&mut self, slot: usize) {
        let chunk = self.hog_chunk;
        let dom = self.vms[slot].dom;
        let tag = self.tags.insert(Ctx::AdvLoad { slot });
        // A CPU-bound guest gets no I/O boost; its share is bought purely
        // by weight — exactly the knob the inflater strategy games.
        self.submit(dom, Burst::user(chunk, tag), WakeMode::Plain);
    }

    /// Chaos hook: preempt one accelerator tenant queue as a hostile
    /// Trigger would, rotating the victim across successive firings.
    fn chaos_force_trigger(&mut self) {
        let now = self.now;
        let Some(inf) = self.inf.as_ref() else { return };
        if inf.accel_tenants.is_empty() {
            return;
        }
        let idx = (self.chaos_triggers as usize) % inf.accel_tenants.len();
        self.chaos_triggers += 1;
        let tenant = inf.accel_tenants[idx];
        let Some(acc) = self.accel.as_mut() else { return };
        let mgr: &mut dyn ResourceManager = acc;
        let _ = mgr.apply_trigger(now, EntityId(tenant.0));
    }

    /// Perturbations the chaos plan has injected so far (0 for
    /// [`ChaosPlan::none()`], which is the default).
    pub fn chaos_injected(&self) -> u64 {
        self.chaos.injected()
    }

    pub(crate) fn absorb_sched(&mut self, mut evs: Vec<SchedEvent>) {
        self.absorb_sched_drain(&mut evs);
    }

    fn absorb_sched_drain(&mut self, evs: &mut Vec<SchedEvent>) {
        for ev in evs.drain(..) {
            let SchedEvent::Completed { tag, .. } = ev;
            let Some(ctx) = self.tags.remove(tag) else { continue };
            self.handle_ctx(ctx);
        }
    }

    fn handle_ctx(&mut self, ctx: Ctx) {
        match ctx {
            Ctx::DriverService => {
                self.driver_pending = false;
                let now = self.now;
                let mut pkts = std::mem::take(&mut self.scratch_take);
                self.link.host_take_into(now, usize::MAX, &mut pkts);
                for (flow, pkt) in pkts.drain(..) {
                    self.deliver_to_guest(flow, pkt);
                }
                self.scratch_take = pkts;
            }
            Ctx::TierDone { req, tier } => self.rubis_tier_done(req, tier),
            Ctx::HopDone { req, tier } => self.rubis_hop_done(req, tier),
            Ctx::RespOut { req } => self.rubis_resp_out(req),
            Ctx::Decode { player } => self.decode_done(player),
            Ctx::Background => {
                // Per-stream duty cycle: a hog of e.g. 1.5 runs two
                // streams at 75% duty each.
                let streams = self.dom0_hog.ceil().max(1.0);
                let duty = (self.dom0_hog / streams).clamp(0.0, 1.0);
                if duty >= 1.0 {
                    self.submit_background();
                } else if duty > 0.0 {
                    let gap = self.hog_chunk * ((1.0 - duty) / duty);
                    self.q.schedule(self.now + gap, Ev::BackgroundKick);
                }
            }
            Ctx::AdvLoad { slot } => self.submit_adv_load(slot),
            Ctx::CoordApply { msg } => {
                self.coord_inflight = false;
                self.apply_coord_msg(msg);
                self.pump_coord_applies();
            }
            Ctx::InfPost { req } => self.inference_post_done(req),
            Ctx::InfRespOut { req } => self.inference_resp_out(req),
        }
    }

    pub(crate) fn absorb_ixp(&mut self, mut evs: Vec<IxpEvent>) {
        self.absorb_ixp_drain(&mut evs);
    }

    fn absorb_ixp_drain(&mut self, evs: &mut Vec<IxpEvent>) {
        for ev in evs.drain(..) {
            match ev {
                IxpEvent::Classified { flow, pkt, .. } => self.on_classified(flow, pkt),
                IxpEvent::DeliverToHost { flow, pkt, .. } => {
                    let now = self.now;
                    self.link.post_to_host(now, flow, pkt);
                }
                IxpEvent::BufferAlarm { flow, bytes, .. } => self.on_buffer_alarm(flow, bytes),
                IxpEvent::TransmitToWire { pkt, .. } => self.on_wire_tx(pkt),
            }
        }
    }

    fn absorb_link_drain(&mut self, evs: &mut Vec<PcieEvent>) {
        for ev in evs.drain(..) {
            match ev {
                PcieEvent::HostNotify { pending, .. } => {
                    if !self.driver_pending {
                        self.driver_pending = true;
                        let cost = self.costs.driver_base
                            + self.costs.driver_per_desc * pending as u64;
                        let tag = self.tags.insert(Ctx::DriverService);
                        let dom0 = self.dom0;
                        self.submit(dom0, Burst::system(cost, tag), WakeMode::Boost);
                    }
                }
                PcieEvent::TxArrived { pkt, .. } => {
                    let now = self.now;
                    let evs = self.ixp.tx_from_host(now, pkt);
                    self.absorb_ixp(evs);
                }
            }
        }
    }

    fn on_classified(&mut self, flow: FlowId, pkt: Packet) {
        let obs = match pkt.app {
            AppTag::Http { class_id, write } => Some(Observation::Request { class_id, write }),
            AppTag::RtspSetup { kbps, fps } => {
                let entity = self
                    .ixp
                    .vm_of_flow(flow)
                    .and_then(|vm| self.slot_by_vm(vm))
                    .map(|i| self.vms[i].entity);
                entity.map(|entity| Observation::StreamInfo { entity, kbps, fps })
            }
            AppTag::Inference { latency_sensitive, .. } => {
                let entity = self
                    .ixp
                    .vm_of_flow(flow)
                    .and_then(|vm| self.slot_by_vm(vm))
                    .map(|i| self.vms[i].entity);
                entity.map(|entity| Observation::InferenceArrival { entity, latency_sensitive })
            }
            _ => None,
        };
        if let Some(obs) = obs {
            self.observe(obs);
        }
    }

    /// Feeds the coordination policy one observation and sends what it
    /// emits.
    fn observe(&mut self, obs: Observation) {
        let now = self.now;
        self.policy.observe(now, &obs, &mut self.scratch_coord);
        self.send_coord();
    }

    fn on_buffer_alarm(&mut self, flow: FlowId, bytes: u64) {
        let Some(entity) = self
            .ixp
            .vm_of_flow(flow)
            .and_then(|vm| self.slot_by_vm(vm))
            .map(|i| self.vms[i].entity)
        else {
            return;
        };
        self.observe(Observation::BufferLevel { entity, bytes, crossed: true });
    }

    /// Puts every message queued in `scratch_coord` on the coordination
    /// channel, draining it.
    fn send_coord(&mut self) {
        let now = self.now;
        let mut msgs = std::mem::take(&mut self.scratch_coord);
        for m in msgs.drain(..) {
            let seq = match self.rel_tx.as_mut() {
                Some(tx) => {
                    if tx.is_degraded() && tx.pending_len() > 0 {
                        // Degraded fallback: don't pile new tunes onto a
                        // channel that is demonstrably not delivering. The
                        // still-pending retransmissions double as probes;
                        // their ack ends degraded mode.
                        self.degraded_suppressed += 1;
                        self.trace.record(now, TraceEvent::DegradedSuppressed { msg: m });
                        continue;
                    }
                    Some(tx.send(now, m))
                }
                None => None,
            };
            let frame = Frame::encode(&mut self.scratch_wire, seq, &m);
            self.coord.messages_sent += 1;
            self.coord.bytes_sent += u64::from(frame.len);
            match self.chaos.coord_jitter() {
                Some(extra) => {
                    // Chaos: this message rides a congested channel. The
                    // override applies to this send only.
                    self.mbx.set_latency(self.coord_latency + extra);
                    self.mbx.send(now, frame);
                    self.mbx.set_latency(self.coord_latency);
                }
                None => self.mbx.send(now, frame),
            }
        }
        self.scratch_coord = msgs;
    }

    /// Fires due retransmission deadlines: re-sends under-cap messages and
    /// traces give-ups and degraded-mode entry.
    fn pump_retransmits(&mut self) {
        let now = self.now;
        let Some(tx) = self.rel_tx.as_mut() else { return };
        let was_degraded = tx.is_degraded();
        let gave_up_before = tx.stats().gave_up;
        let mut retx = std::mem::take(&mut self.scratch_retx);
        Component::advance(tx, now, &mut retx);
        let entered_degraded = !was_degraded && tx.is_degraded();
        let gave_up = tx.stats().gave_up - gave_up_before;
        for (seq, msg) in retx.drain(..) {
            let frame = Frame::encode(&mut self.scratch_wire, Some(seq), &msg);
            self.coord.bytes_sent += u64::from(frame.len);
            self.trace.record(now, TraceEvent::Retransmit { seq });
            self.mbx.send(now, frame);
        }
        self.scratch_retx = retx;
        if gave_up > 0 {
            self.trace.record(now, TraceEvent::GaveUp { count: gave_up });
        }
        if entered_degraded {
            self.trace.record(now, TraceEvent::EnteredDegraded);
        }
    }

    fn handle_coord_delivery(&mut self, bytes: &[u8]) {
        let msg = if coord::wire::is_framed(bytes) {
            let Ok((seq, msg, _)) = coord::wire::decode_framed(bytes) else {
                return;
            };
            // Ack every copy — the sender may be retransmitting because a
            // previous ack was lost — but process each sequence once.
            let now = self.now;
            let ack = Frame::encode(&mut self.scratch_wire, None, &CoordMsg::Ack { seq });
            self.ack_mbx.send(now, ack);
            if let Some(rx) = self.rel_rx.as_mut() {
                if !rx.accept(seq) {
                    self.trace.record(now, TraceEvent::SuppressedDuplicate { seq });
                    return;
                }
            }
            msg
        } else {
            let Ok((msg, _)) = coord::wire::decode(bytes) else {
                return;
            };
            msg
        };
        if msg.is_urgent() {
            // Triggers are interrupt-like: applied in interrupt context,
            // not through a scheduled Dom0 burst.
            self.apply_coord_msg(msg);
        } else {
            self.coord_pending.push_back(msg);
            self.pump_coord_applies();
        }
    }

    fn handle_ack_delivery(&mut self, bytes: &[u8]) {
        let Ok((CoordMsg::Ack { seq }, _)) = coord::wire::decode(bytes) else {
            return;
        };
        let now = self.now;
        let Some(tx) = self.rel_tx.as_mut() else { return };
        let was_degraded = tx.is_degraded();
        tx.on_ack(now, seq);
        if was_degraded {
            self.trace.record(now, TraceEvent::DegradedOver { seq });
        }
    }

    /// Absorbs accelerator events: completions feed the x86 post-process
    /// path, queue alarms feed the coordination policy.
    fn absorb_accel_drain(&mut self, evs: &mut Vec<AccelEvent>) {
        for ev in evs.drain(..) {
            match ev {
                AccelEvent::Completed { id, tenant, batch_size, queued, .. } => {
                    self.inference_completed(id, tenant, batch_size, queued);
                }
                AccelEvent::QueueAlarm { tenant, queued_bytes, .. } => {
                    self.on_accel_alarm(tenant, queued_bytes);
                }
            }
        }
    }

    /// Applies a coordination verb arriving over the accelerator's
    /// doorbell lane, through the island's [`ResourceManager`] contract.
    // collapsible_match would hoist the side-effecting apply_* calls into
    // match guards, which hides the mutation inside pattern dispatch.
    #[allow(clippy::collapsible_match)]
    fn handle_accel_delivery(&mut self, bytes: &[u8]) {
        let Ok((msg, _)) = coord::wire::decode(bytes) else { return };
        let now = self.now;
        let Some(acc) = self.accel.as_mut() else { return };
        let mgr: &mut dyn ResourceManager = acc;
        match msg {
            CoordMsg::Tune { entity, delta, .. } => {
                if mgr.apply_tune(now, entity, delta).is_ok() {
                    self.coord.tunes_applied += 1;
                    self.trace.record(now, TraceEvent::AccelTune { entity, delta });
                }
            }
            CoordMsg::Trigger { entity, .. } => {
                if mgr.apply_trigger(now, entity).is_ok() {
                    self.coord.triggers_applied += 1;
                    self.trace.record(now, TraceEvent::AccelTrigger { entity });
                }
            }
            _ => {}
        }
    }

    /// A tenant's device-side queue crossed its occupancy threshold; give
    /// the policy the same buffer-level view the IXP monitor produces.
    fn on_accel_alarm(&mut self, tenant: TenantId, queued_bytes: u64) {
        let Some(inf) = self.inf.as_ref() else { return };
        let Some(idx) = inf.accel_tenants.iter().position(|t| *t == tenant) else {
            return;
        };
        let Some(slot) = self.slot_by_vm(inf.tenant_vms[idx]) else { return };
        let entity = self.vms[slot].entity;
        self.observe(Observation::BufferLevel { entity, bytes: queued_bytes, crossed: true });
    }

    /// Keeps exactly one Dom0 coordination-apply burst in flight so Tune
    /// deltas land in channel order.
    fn pump_coord_applies(&mut self) {
        if self.coord_inflight {
            return;
        }
        let Some(msg) = self.coord_pending.pop_front() else { return };
        self.coord_inflight = true;
        let cost = self.costs.coord_apply;
        let tag = self.tags.insert(Ctx::CoordApply { msg });
        let dom0 = self.dom0;
        self.submit(dom0, Burst::system(cost, tag), WakeMode::Boost);
    }

    fn apply_coord_msg(&mut self, msg: CoordMsg) {
        let now = self.now;
        let mut actions = std::mem::take(&mut self.scratch_actions);
        self.controller.handle_into(now, msg, &mut actions);
        for a in actions.drain(..) {
            self.apply_action(a);
        }
        self.scratch_actions = actions;
    }

    fn apply_action(&mut self, action: Action) {
        match action {
            Action::ApplyTune { island, local_key, delta } if island == X86 => {
                let dom = DomId(local_key as u32);
                if let Ok(w) = self.sched.weight(dom) {
                    let new = (w as i64 + delta as i64).clamp(1, 65_535) as u32;
                    let _ = self.sched.set_weight(dom, new);
                    self.coord.tunes_applied += 1;
                    let now = self.now;
                    self.trace.record(now, TraceEvent::Tune { dom, from: w, to: new });
                }
            }
            Action::ApplyTune { island, local_key, delta } if island == IXP => {
                let flow = FlowId(local_key as u32);
                let cur = self.ixp.flow_threads(flow) as i64;
                let new = (cur + delta as i64).clamp(1, 16) as u32;
                self.ixp.set_flow_threads(flow, new);
                self.coord.tunes_applied += 1;
            }
            Action::ApplyTune { island, local_key, delta } if island == ACCEL => {
                // The accelerator is behind its own doorbell lane: Dom0
                // re-encodes the verb and the device applies it on
                // delivery, so accel coordination pays channel latency
                // (and suffers channel faults) like any other island.
                self.send_to_accel(CoordMsg::Tune {
                    entity: EntityId(local_key as u32),
                    delta,
                    target: Some(ACCEL),
                });
            }
            Action::ApplyTrigger { island, local_key } if island == ACCEL => {
                self.send_to_accel(CoordMsg::Trigger {
                    entity: EntityId(local_key as u32),
                    target: Some(ACCEL),
                });
            }
            Action::ApplyKnob { island, axis, rung, .. } if island == X86 => {
                self.apply_knob(axis, rung);
            }
            Action::ApplyTrigger { island, local_key } if island == X86 => {
                let dom = DomId(local_key as u32);
                let now = self.now;
                if let Ok(evs) = self.sched.boost_front(now, dom) {
                    self.absorb_sched(evs);
                    // §3.3: the x86 island translates the preemptive
                    // request into a credit adjustment as well as the
                    // runqueue promotion.
                    let _ = self.sched.grant_credit(dom, 100);
                    self.coord.triggers_applied += 1;
                    self.trace.record(now, TraceEvent::Trigger { dom });
                }
            }
            _ => {}
        }
    }

    /// Re-encodes a resolved verb onto the accelerator's doorbell lane.
    fn send_to_accel(&mut self, msg: CoordMsg) {
        let frame = Frame::encode(&mut self.scratch_wire, None, &msg);
        self.coord.bytes_sent += u64::from(frame.len);
        let now = self.now;
        self.accel_mbx.send(now, frame);
    }

    /// Moves one axis of the x86 island's energy lattice to `rung`
    /// (clamped to the ladder). The DVFS axis retimes the credit
    /// scheduler's service rates through its exact-rational speed; the
    /// cache and bandwidth axes change the service-time factors the
    /// request path reads — and all three move the power model's
    /// operating point for subsequent samples.
    fn apply_knob(&mut self, axis: KnobAxis, rung: u8) {
        let now = self.now;
        let Some(e) = self.energy.as_mut() else { return };
        let freq = match axis {
            KnobAxis::Dvfs => {
                let ladder = DvfsState::xeon_ladder();
                let rung = rung.min(ladder.len() as u8 - 1);
                e.applied.dvfs = rung;
                let (num, den) = ladder[rung as usize].speed();
                self.sched.set_speed(num, den);
                num as u32
            }
            KnobAxis::CacheWays => {
                e.applied.ways = rung.min(WAYS_LADDER.len() as u8 - 1);
                WAYS_LADDER[e.applied.ways as usize]
            }
            KnobAxis::MembwShare => {
                e.applied.membw = rung.min(MEMBW_LADDER.len() as u8 - 1);
                MEMBW_LADDER[e.applied.membw as usize]
            }
        };
        e.knob_actions += 1;
        self.trace.record(now, TraceEvent::Knob { axis, value: freq });
    }

    /// Scales a tier's CPU demand by the applied cache/bandwidth rungs:
    /// fewer DB-partition ways or a narrower bandwidth share stretch
    /// service times, DB-heavy work far more than CPU-heavy web/app
    /// work. Identity when the energy dimension is off or every factor
    /// axis sits at rung 0, so baseline runs are byte-identical.
    pub(crate) fn energy_scaled(&self, tier: Tier, demand: Nanos) -> Nanos {
        let Some(e) = self.energy.as_ref() else { return demand };
        let f = match tier {
            Tier::Db => {
                DB_WAYS_FACTOR[e.applied.ways as usize]
                    * DB_MEMBW_FACTOR[e.applied.membw as usize]
            }
            Tier::Web | Tier::App => CPU_MEMBW_FACTOR[e.applied.membw as usize],
        };
        if f == 1.0 {
            demand
        } else {
            Nanos((demand.as_nanos() as f64 * f) as u64)
        }
    }

    // ------------------------------------------------------------------
    // Guest delivery with receive-window backpressure
    // ------------------------------------------------------------------

    fn deliver_to_guest(&mut self, flow: FlowId, pkt: Packet) {
        let Some(vm) = self.ixp.vm_of_flow(flow) else { return };
        let Some(slot) = self.slot_by_vm(vm) else { return };
        if self.vms[slot].inflight_rx < self.costs.guest_rx_cap {
            self.vms[slot].inflight_rx += 1;
            self.delivered += 1;
            let now = self.now;
            let evs = self.ixp.host_ack(now, flow, 1);
            self.absorb_ixp(evs);
            self.route_into_guest(vm, pkt);
        } else if (self.vms[slot].hold.len() as u32) < self.costs.guest_hold_cap {
            self.vms[slot].hold.push_back(pkt);
        } else {
            // Netfront/accept-queue overflow: the packet is lost and the
            // client will retransmit after its timeout.
            self.guest_drops += 1;
        }
    }

    /// Releases `n` units of a guest's receive window, pulling held
    /// packets through.
    pub(crate) fn consume_rx(&mut self, vm: u32, n: u32) {
        let Some(slot) = self.slot_by_vm(vm) else { return };
        let flow = self.vms[slot].flow;
        for _ in 0..n {
            if self.vms[slot].inflight_rx > 0 {
                self.vms[slot].inflight_rx -= 1;
            }
        }
        while self.vms[slot].inflight_rx < self.costs.guest_rx_cap {
            let Some(pkt) = self.vms[slot].hold.pop_front() else { break };
            self.vms[slot].inflight_rx += 1;
            self.delivered += 1;
            if let Some(f) = flow {
                let now = self.now;
                let evs = self.ixp.host_ack(now, f, 1);
                self.absorb_ixp(evs);
            }
            self.route_into_guest(vm, pkt);
        }
    }

    fn route_into_guest(&mut self, vm: u32, pkt: Packet) {
        match pkt.app {
            AppTag::Http { .. } => self.rubis_request_arrived(vm, pkt.id),
            AppTag::Inference { .. } => self.inference_request_arrived(vm, pkt.id),
            AppTag::InferenceResponse { .. } => {
                // Responses leave through the IXP; one arriving at a guest
                // is a routing artifact. Release the window unit.
                self.consume_rx(vm, 1);
            }
            AppTag::Rtp { .. } | AppTag::UdpBulk => self.media_data_arrived(vm, pkt),
            AppTag::RtspSetup { .. } => {
                // Session setup costs the guest a negligible burst; the
                // interesting side effect (policy) already happened at
                // classification. Release the window unit immediately.
                self.consume_rx(vm, 1);
            }
            AppTag::HttpResponse { .. } | AppTag::Plain => {
                self.consume_rx(vm, 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    fn take_sample(&mut self) {
        let now = self.now;
        let snap = self.sched.usage_snapshot();
        let mut samples: Vec<DomainSample> = Vec::new();
        let mut total_pct = 0.0;
        for (dom, usage) in snap.iter() {
            let cum = usage.running();
            let prev = self.cpu_prev.get(&dom).copied().unwrap_or(Nanos::ZERO);
            let pct = (cum.saturating_sub(prev)) / SAMPLE_PERIOD * 100.0;
            self.cpu_series.entry(dom).or_default().push(now, pct);
            self.cpu_prev.insert(dom, cum);
            total_pct += pct;
            if self.power_gov.is_none() {
                continue; // the governor is the samples' only reader
            }
            let name = if dom == self.dom0 {
                "dom0".to_owned()
            } else {
                self.vms
                    .iter()
                    .find(|v| v.dom == dom)
                    .map(|v| v.name.clone())
                    .unwrap_or_else(|| dom.to_string())
            };
            samples.push(DomainSample { name, cpu_percent: pct });
        }
        // Modelled platform power: CPU package + network processor. With
        // the energy dimension on, the package term follows the applied
        // DVFS point and gains the uncore terms the knobs control
        // (powered cache ways, bandwidth-share interface); energy-off
        // runs keep the original affine model bit-for-bit.
        let util = (total_pct / 100.0 / self.ncpus as f64).clamp(0.0, 1.0);
        let window_pkts = self.delivered.saturating_sub(self.delivered_prev);
        self.delivered_prev = self.delivered;
        let kpps = window_pkts as f64 / SAMPLE_PERIOD.as_secs_f64() / 1000.0;
        let cpu_w = match self.energy.as_ref() {
            Some(e) => {
                let p = DvfsState::xeon_ladder()[e.applied.dvfs as usize];
                self.cpu_power.watts_at(util, p)
                    + WAY_WATTS * WAYS_LADDER[e.applied.ways as usize] as f64
                    + MEMBW_WATTS * MEMBW_LADDER[e.applied.membw as usize] as f64 / 100.0
            }
            None => self.cpu_power.watts(util),
        };
        let ixp_w = self.ixp_power.watts(kpps);
        let watts = cpu_w + ixp_w;
        self.power_series.push(now, watts);
        // Drive the energy controller off the window's worst per-class
        // p99. Its knob move (if any) is a SetKnob on the real
        // coordination channel, not a direct poke at the scheduler.
        let mut knob_msg = None;
        if let Some(e) = self.energy.as_mut() {
            let secs = SAMPLE_PERIOD.as_secs_f64();
            e.cpu_joules += cpu_w * secs;
            e.ixp_joules += ixp_w * secs;
            e.residency[e.applied.dvfs as usize] += 1;
            let worst = e.worst_window_p99();
            e.window = ResponseStats::new();
            if let Some(p99) = worst {
                if let Some(s) = e.ctl.observe(now, p99) {
                    knob_msg = Some(CoordMsg::SetKnob {
                        entity: ENERGY_ENTITY,
                        axis: s.axis,
                        rung: s.rung,
                        target: Some(X86),
                    });
                }
            }
        }
        if let Some(m) = knob_msg {
            self.scratch_coord.push(m);
            self.send_coord();
        }
        if let Some(gov) = self.power_gov.as_mut() {
            let actions = gov.sample(now, watts, &samples);
            for a in actions {
                let dom = if a.name == "dom0" {
                    Some(self.dom0)
                } else {
                    self.vms.iter().find(|v| v.name == a.name).map(|v| v.dom)
                };
                if let Some(d) = dom {
                    let _ = self.sched.set_cap(d, a.cap_percent);
                }
            }
        }
        if let Some(flow) = self.monitored_flow {
            self.buffer_series
                .push(now, self.ixp.flow_queue_bytes(flow) as f64);
        }
        self.q.schedule(now + SAMPLE_PERIOD, Ev::Sample);
    }

    fn build_report(
        &mut self,
        duration: Nanos,
        counts: DispatchCounts,
        wall_micros: u64,
    ) -> RunReport {
        let events = counts.events();
        let snap = self.sched.usage_snapshot();
        let mut cpu = Vec::new();
        let mut total = 0.0;
        let mut names: Vec<(DomId, String)> =
            vec![(self.dom0, "dom0".to_owned())];
        for v in &self.vms {
            names.push((v.dom, v.name.clone()));
        }
        for (dom, name) in &names {
            let pct = snap.cpu_percent(*dom);
            total += pct;
            cpu.push(DomCpu {
                name: name.clone(),
                percent: pct,
                user: snap.user_percent(*dom),
                system: snap.system_percent(*dom),
                steal: snap.steal_percent(*dom),
            });
        }
        let throughput = self.sessions.throughput(duration);
        let (offered, outstanding) = match (&self.rubis, &self.inf) {
            (Some(r), _) => r.reqs.counts(),
            (_, Some(inf)) => inf.reqs.counts(),
            _ => (0, 0),
        };
        let rubis = RubisReport {
            responses: std::mem::take(&mut self.responses),
            completed: self.sessions.requests(),
            offered,
            outstanding,
            throughput,
            sessions: self.sessions.sessions(),
            avg_session_secs: self.sessions.avg_session_secs(),
        };
        let players = self
            .players
            .iter()
            .map(|p| PlayerReport {
                name: format!("dom{}", p.vm_index),
                target_fps: p.player.spec().fps,
                achieved_fps: p.player.achieved_fps(self.now),
                frames: p.player.frames_decoded(),
            })
            .collect();
        let cpu_series = names
            .iter()
            .map(|(dom, name)| {
                (
                    name.clone(),
                    self.cpu_series.get(dom).cloned().unwrap_or_default(),
                )
            })
            .collect();
        let flow_drops: u64 = self
            .vms
            .iter()
            .filter_map(|v| v.flow)
            .filter_map(|f| self.ixp.flow_stats(f))
            .map(|s| s.dropped)
            .sum();
        let efficiency = if self.rubis.is_some() {
            platform_efficiency(throughput, total)
        } else {
            0.0
        };
        let accel = match (self.accel.as_ref(), self.inf.as_ref()) {
            (Some(acc), Some(inf)) => {
                let tenants = inf
                    .accel_tenants
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let s = acc.stats(*t).copied().unwrap_or_default();
                        let name = inf.model.config().tenants[i].name.to_owned();
                        let queue_p99_ms = inf.queue_delays.percentile(&name, 0.99);
                        AccelTenantReport {
                            name,
                            latency_sensitive: inf.model.model_of(i).latency_sensitive,
                            submitted: s.submitted,
                            completed: s.completed,
                            rejected: s.rejected,
                            batches: s.batches,
                            mean_batch: if s.batches > 0 {
                                s.batch_items as f64 / s.batches as f64
                            } else {
                                0.0
                            },
                            queue_p99_ms,
                            preemptions: s.preemptions,
                            alarms: s.alarms,
                        }
                    })
                    .collect();
                AccelReport {
                    tenants,
                    hbm_high_water: acc.hbm_high_water(),
                    hbm_rejects: acc.hbm_rejects(),
                }
            }
            _ => AccelReport::default(),
        };
        let power = PowerReport {
            cap_watts: self.power_gov.as_ref().map(|g| g.cap_watts()),
            mean_watts: self.power_series.mean(),
            max_watts: self.power_series.max_value().unwrap_or(0.0),
            cap_actions: self.power_gov.as_ref().map(|g| g.actions_applied()).unwrap_or(0),
            series: std::mem::take(&mut self.power_series),
        };
        let energy = match self.energy.as_mut() {
            Some(e) => {
                let ladder = DvfsState::xeon_ladder();
                EnergyReport {
                    enabled: true,
                    p99_target_ms: e.ctl.p99_target_ms(),
                    cpu_joules: std::mem::take(&mut e.cpu_joules),
                    ixp_joules: std::mem::take(&mut e.ixp_joules),
                    residency: std::mem::take(&mut e.residency)
                        .iter()
                        .enumerate()
                        .map(|(i, &n)| (ladder[i].freq_percent, n))
                        .collect(),
                    violations: e.ctl.violations(),
                    backoffs: e.ctl.backoffs(),
                    descents: e.ctl.descents(),
                    freezes: e.ctl.freezes(),
                    knob_actions: e.knob_actions,
                    final_dvfs_percent: ladder[e.applied.dvfs as usize].freq_percent,
                    final_ways: WAYS_LADDER[e.applied.ways as usize],
                    final_membw_percent: MEMBW_LADDER[e.applied.membw as usize],
                }
            }
            None => EnergyReport::default(),
        };
        RunReport {
            duration,
            policy: self.policy.name().to_owned(),
            rubis,
            players,
            cpu,
            total_cpu_percent: total,
            efficiency,
            coord: {
                let tx = self.rel_tx.as_ref();
                let stats = tx.map(|t| t.stats()).unwrap_or_default();
                CoordReport {
                    messages_sent: self.coord.messages_sent,
                    bytes_sent: self.coord.bytes_sent,
                    tunes_applied: self.coord.tunes_applied,
                    triggers_applied: self.coord.triggers_applied,
                    rejected: self.controller.stats().rejected,
                    throttled: self.controller.stats().throttled,
                    discounted: self.controller.stats().discounted,
                    channel_drops: self.mbx.dropped() + self.ack_mbx.dropped(),
                    channel_dups: self.mbx.duplicated() + self.ack_mbx.duplicated(),
                    retransmits: stats.retransmits,
                    acked: stats.acked,
                    gave_up: stats.gave_up,
                    dup_suppressed: self
                        .rel_rx
                        .as_ref()
                        .map_or(0, |rx| rx.dup_suppressed()),
                    degraded_entries: stats.degraded_entries,
                    degraded_secs: tx
                        .map_or(0.0, |t| t.degraded_time(self.now).as_secs_f64()),
                    degraded_suppressed: self.degraded_suppressed,
                }
            },
            net: NetReport {
                ixp_drops: flow_drops,
                link_drops: self.link.stats().ring_full_drops,
                unroutable: self.ixp.unroutable(),
                delivered: self.delivered,
                guest_drops: self.guest_drops,
            },
            cpu_series,
            buffer_series: std::mem::take(&mut self.buffer_series),
            accel,
            power,
            energy,
            sim_rate: SimRate {
                events,
                wall_micros,
                events_per_sec: if wall_micros > 0 {
                    events as f64 * 1e6 / wall_micros as f64
                } else {
                    0.0
                },
            },
            events_by_island: counts.island_events(),
            events_by_source: counts.source_events(),
        }
    }

    // ------------------------------------------------------------------
    // Dom0 background load
    // ------------------------------------------------------------------

    fn submit_background(&mut self) {
        let chunk = self.hog_chunk;
        let tag = self.tags.insert(Ctx::Background);
        let dom0 = self.dom0;
        // Dom0's background load is event-driven (interrupt handlers,
        // backend processing): its wakes are event-channel wakes and
        // boost like any other I/O work.
        self.submit(dom0, Burst::system(chunk, tag), WakeMode::Boost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_slab_reuses_slots_and_ignores_stale_tags() {
        let mut slab = TagSlab::default();
        let a = slab.insert(Ctx::Background);
        let b = slab.insert(Ctx::DriverService);
        assert!(matches!(slab.remove(a), Some(Ctx::Background)));
        assert!(slab.remove(a).is_none(), "a tag completes once");
        // The freed slot is reused under a new generation: the stale tag
        // must not reach the slot's new owner.
        let c = slab.insert(Ctx::RespOut { req: 9 });
        assert_eq!(c as u32, a as u32);
        assert_ne!(c, a);
        assert!(slab.remove(a).is_none());
        assert!(matches!(slab.remove(c), Some(Ctx::RespOut { req: 9 })));
        assert!(matches!(slab.remove(b), Some(Ctx::DriverService)));
        assert!(slab.remove(u64::MAX).is_none(), "unknown slot");
        assert_eq!(slab.slots.len(), 2, "grows only to the bursts in flight");
    }

    /// A request the web tier drops at its admission cap gives back its
    /// receive-window unit, so every unit the web VM holds belongs to a
    /// request queued or in service there.
    #[test]
    fn web_tier_admission_drops_release_their_rx_window_unit() {
        use crate::config::RubisScenario;
        let mut sim = PlatformBuilder::new()
            .seed(11)
            .queue_caps(8, 2)
            .build_rubis(RubisScenario::read_write_mix(24));
        let report = sim.run(Nanos::from_secs(120));
        assert!(report.net.guest_drops > 0, "the tier cap never dropped a request");
        let web = &sim.vms[sim.slot_by_vm(1).expect("web VM")];
        assert_eq!(web.inflight_rx, web.pending, "leaked receive-window units");
    }

    /// The per-iteration debug sweep catches a cached horizon that
    /// disagrees with its source, and names the source.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale cached horizon for source `queue`")]
    fn debug_sweep_trips_on_a_corrupted_horizon_cache() {
        use crate::config::RubisScenario;
        let mut sim = PlatformBuilder::new().seed(3).build_rubis(RubisScenario::read_write_mix(4));
        sim.run(Nanos::from_millis(50));
        // Corrupt the master queue's cache without touching the queue.
        assert_ne!(sim.q.horizon(), Nanos::ZERO, "queue has pending events");
        sim.q.corrupt_cache_for_test(Nanos::ZERO);
        let t_end = sim.now + Nanos::from_millis(50);
        sim.run_loop(t_end);
    }
}
