//! Results of a platform run.

use metrics::ResponseStats;
use simcore::stats::Series;
use simcore::Nanos;

/// RUBiS application-level results (empty/zero for MPlayer runs).
#[derive(Debug, Clone, Default)]
pub struct RubisReport {
    /// Per-request-type response-time summaries (milliseconds).
    pub responses: ResponseStats,
    /// Completed requests.
    pub completed: u64,
    /// Requests opened by clients (RUBiS or inference).
    pub offered: u64,
    /// Opened requests still unanswered when the run ended.
    pub outstanding: u64,
    /// Requests per second over the run.
    pub throughput: f64,
    /// User sessions completed.
    pub sessions: u64,
    /// Mean completed-session duration in seconds.
    pub avg_session_secs: f64,
}

/// One MPlayer instance's results.
#[derive(Debug, Clone)]
pub struct PlayerReport {
    /// Domain name ("dom1", ...).
    pub name: String,
    /// The stream's nominal frame rate.
    pub target_fps: u32,
    /// Achieved decoded frames/sec over the run.
    pub achieved_fps: f64,
    /// Total frames decoded.
    pub frames: u64,
}

/// One inference tenant's accelerator-side accounting.
#[derive(Debug, Clone, Default)]
pub struct AccelTenantReport {
    /// Tenant name ("chat", "rank", ...).
    pub name: String,
    /// `true` when the tenant's model carries an interactive latency SLA.
    pub latency_sensitive: bool,
    /// Requests accepted into the tenant's submission queue.
    pub submitted: u64,
    /// Requests completed by the accelerator.
    pub completed: u64,
    /// Requests rejected synchronously (device-memory exhaustion).
    pub rejected: u64,
    /// Batches launched for the tenant.
    pub batches: u64,
    /// Mean items per launched batch.
    pub mean_batch: f64,
    /// p99 batch-forming queue delay in milliseconds.
    pub queue_p99_ms: f64,
    /// Batches launched early by a coordination Trigger.
    pub preemptions: u64,
    /// Queue-occupancy alarms raised for the tenant.
    pub alarms: u64,
}

/// Accelerator-island results (empty for the default two-island builds).
#[derive(Debug, Clone, Default)]
pub struct AccelReport {
    /// Per-tenant accounting, in tenant order.
    pub tenants: Vec<AccelTenantReport>,
    /// Peak device-memory occupancy in bytes.
    pub hbm_high_water: u64,
    /// Submissions rejected for want of device memory.
    pub hbm_rejects: u64,
}

impl AccelReport {
    /// The tenant report for a name, if any.
    pub fn tenant(&self, name: &str) -> Option<&AccelTenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// Per-domain CPU accounting over the whole run.
#[derive(Debug, Clone)]
pub struct DomCpu {
    /// Domain name.
    pub name: String,
    /// CPU consumption as a percentage of one pCPU.
    pub percent: f64,
    /// User-mode share of `percent`.
    pub user: f64,
    /// System-mode share of `percent`.
    pub system: f64,
    /// Runnable-wait ("steal") percentage.
    pub steal: f64,
}

/// Coordination-channel accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordReport {
    /// Messages put on the channel by the IXP-side policy.
    pub messages_sent: u64,
    /// Encoded bytes put on the channel.
    pub bytes_sent: u64,
    /// Tune actions applied on a remote island.
    pub tunes_applied: u64,
    /// Trigger actions applied on a remote island.
    pub triggers_applied: u64,
    /// Messages the controller rejected.
    pub rejected: u64,
    /// Messages the controller's defenses refused outright (rate-limit
    /// exhausted); zero unless defenses are enabled.
    pub throttled: u64,
    /// Tune messages the defenses admitted at a reputation-reduced delta;
    /// zero unless defenses are enabled.
    pub discounted: u64,
    /// Message copies dropped in the channel by fault injection (both
    /// directions, acks included).
    pub channel_drops: u64,
    /// Duplicate copies injected by the channel (both directions).
    pub channel_dups: u64,
    /// Retransmissions performed by the reliable-delivery layer.
    pub retransmits: u64,
    /// Messages acknowledged end-to-end.
    pub acked: u64,
    /// Messages the sender abandoned after exhausting its retry cap.
    pub gave_up: u64,
    /// Duplicate deliveries suppressed by the receiver.
    pub dup_suppressed: u64,
    /// Times the sender entered degraded mode.
    pub degraded_entries: u64,
    /// Total simulated seconds spent in degraded mode.
    pub degraded_secs: f64,
    /// Policy messages suppressed because the sender was degraded.
    pub degraded_suppressed: u64,
}

/// Network-path loss/drop accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetReport {
    /// Packets dropped on IXP DRAM queue overflow.
    pub ixp_drops: u64,
    /// Descriptors dropped because the host ring was full.
    pub link_drops: u64,
    /// Packets with no registered flow.
    pub unroutable: u64,
    /// Packets delivered into guests.
    pub delivered: u64,
    /// Packets dropped at the guest receive queue (netfront overflow).
    pub guest_drops: u64,
}

/// Power accounting (populated when a power cap is configured; the
/// modelled draw is reported for every run).
#[derive(Debug, Clone, Default)]
pub struct PowerReport {
    /// Configured cap in watts, if any.
    pub cap_watts: Option<f64>,
    /// Mean modelled platform power over the run.
    pub mean_watts: f64,
    /// Peak modelled platform power.
    pub max_watts: f64,
    /// Cap adjustments the governor issued.
    pub cap_actions: u64,
    /// Modelled watts sampled once per second.
    pub series: Series,
}

/// QoS-constrained energy accounting (populated when the platform is
/// built with [`PlatformBuilder::energy`](crate::PlatformBuilder::energy);
/// all-zero otherwise).
#[derive(Debug, Clone, Default)]
pub struct EnergyReport {
    /// `true` when the energy dimension was modelled for this run.
    pub enabled: bool,
    /// The controller's per-tenant p99 target in milliseconds.
    pub p99_target_ms: f64,
    /// Modelled x86-island energy (package + uncore) in joules.
    pub cpu_joules: f64,
    /// Modelled IXP-island energy in joules.
    pub ixp_joules: f64,
    /// Operating-point residency: `(dvfs frequency percent, samples
    /// spent at that rung)`, full-performance rung first.
    pub residency: Vec<(u32, u64)>,
    /// Samples on which the worst per-tenant p99 exceeded the target.
    pub violations: u64,
    /// Controller back-offs (knob re-raised after a violation).
    pub backoffs: u64,
    /// Controller descents (knob lowered under QoS headroom).
    pub descents: u64,
    /// Times the oscillation detector froze the controller.
    pub freezes: u64,
    /// SetKnob actions applied on the x86 island.
    pub knob_actions: u64,
    /// Final DVFS operating point as a frequency percent.
    pub final_dvfs_percent: u32,
    /// Final DB cache-partition way count.
    pub final_ways: u32,
    /// Final memory-bandwidth share percent.
    pub final_membw_percent: u32,
}

impl EnergyReport {
    /// Total modelled platform energy over the run in joules.
    pub fn total_joules(&self) -> f64 {
        self.cpu_joules + self.ixp_joules
    }
}

/// Per-island master-loop accounting: how many dispatched events each
/// of the platform's hardware islands absorbed.
///
/// Unlike [`SimRate`] these counts are fully deterministic — they depend
/// only on the seed and configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IslandEvents {
    /// Events dispatched to the x86 host island (master queue, credit
    /// scheduler, PCIe link, coordination + ack mailboxes, reliable
    /// retransmission timers).
    pub x86: u64,
    /// Events dispatched to the IXP network-processor island.
    pub ixp: u64,
    /// Events dispatched to the accelerator island (batch engine and its
    /// doorbell lane); 0 on two-island platforms.
    pub accel: u64,
}

impl IslandEvents {
    /// Folds another run's per-island counts into this one (fleet report
    /// aggregation: shard counts sum).
    pub fn accumulate(&mut self, other: &IslandEvents) {
        self.x86 += other.x86;
        self.ixp += other.ixp;
        self.accel += other.accel;
    }
}

/// Deterministic dispatch count of one master-loop event source (one
/// entry of the platform's source registry: `queue`, `sched`, `ixp`,
/// `link`, `coord-mbx`, `ack-mbx`, `retx`, `accel`, `accel-mbx`).
///
/// The counts sum to [`SimRate::events`] and fold by `island` onto
/// [`IslandEvents`]. They are diagnostics: no digest or CSV reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceEvents {
    /// The source's registry name.
    pub name: &'static str,
    /// The scheduling island the source belongs to: `x86`, `ixp` or
    /// `accel`.
    pub island: &'static str,
    /// Events the master loop dispatched to this source.
    pub events: u64,
}

/// Simulator throughput over one run (wall-clock instrumentation).
///
/// These fields describe the *simulator*, not the simulated system: they
/// vary run to run with host load and are deliberately excluded from the
/// deterministic experiment tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRate {
    /// Master-loop events dispatched.
    pub events: u64,
    /// Wall-clock time spent inside [`Platform::run`](crate::Platform::run)
    /// in microseconds.
    pub wall_micros: u64,
    /// Dispatch rate in events per wall-clock second.
    pub events_per_sec: f64,
}

/// Everything measured over one [`Platform::run`](crate::Platform::run).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated run length.
    pub duration: Nanos,
    /// Active coordination policy name.
    pub policy: String,
    /// RUBiS results (zeroed for MPlayer scenarios).
    pub rubis: RubisReport,
    /// MPlayer results (empty for RUBiS scenarios).
    pub players: Vec<PlayerReport>,
    /// Whole-run CPU accounting per domain (Dom0 first).
    pub cpu: Vec<DomCpu>,
    /// Sum of per-domain CPU percentages.
    pub total_cpu_percent: f64,
    /// The paper's platform-efficiency metric (RUBiS only; 0 otherwise).
    pub efficiency: f64,
    /// Coordination accounting.
    pub coord: CoordReport,
    /// Network accounting.
    pub net: NetReport,
    /// Per-domain CPU% time series (sampled each second).
    pub cpu_series: Vec<(String, Series)>,
    /// Monitored IXP buffer occupancy series in bytes.
    pub buffer_series: Series,
    /// Accelerator-island results (empty unless the platform was built
    /// with [`build_inference`](crate::PlatformBuilder::build_inference)).
    pub accel: AccelReport,
    /// Modelled platform power.
    pub power: PowerReport,
    /// QoS-constrained energy accounting (zeroed unless the platform was
    /// built with [`PlatformBuilder::energy`](crate::PlatformBuilder::energy)).
    pub energy: EnergyReport,
    /// Simulator throughput (events dispatched, wall time, events/sec).
    pub sim_rate: SimRate,
    /// Deterministic per-island event counts.
    pub events_by_island: IslandEvents,
    /// Deterministic per-source event counts, in registry order.
    pub events_by_source: Vec<SourceEvents>,
}

impl RunReport {
    /// CPU percentage of a domain by name (0 if absent).
    pub fn cpu_percent(&self, name: &str) -> f64 {
        self.cpu
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.percent)
            .unwrap_or(0.0)
    }

    /// The player report for a domain name, if any.
    pub fn player(&self, name: &str) -> Option<&PlayerReport> {
        self.players.iter().find(|p| p.name == name)
    }
}
