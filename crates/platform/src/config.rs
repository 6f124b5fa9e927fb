//! Scenario configuration and the platform builder.

use crate::world::Platform;
use accel::AccelConfig;
use coord::{PolicerConfig, PolicyKind, ReliableConfig};
use ixp::IxpConfig;
use pcie::{FaultProfile, LinkConfig, NotifyMode};
use power::Strategy;
use simcore::Nanos;
use simtest::chaos::ChaosPlan;
use workloads::adversary::AdversarySpec;
use workloads::inference::{InferenceConfig, TenantSpec};
use workloads::mplayer::{Source, StreamSpec};
use workloads::rubis::{Mix, RubisConfig};

/// Host-side CPU costs of the data and control paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HostCosts {
    /// Dom0 messaging-driver service routine base cost per notification.
    pub driver_base: Nanos,
    /// Additional driver cost per drained descriptor.
    pub driver_per_desc: Nanos,
    /// Dom0 bridge cost per inter-VM hop.
    pub bridge: Nanos,
    /// Dom0 cost to emit a response toward the IXP.
    pub resp_bridge: Nanos,
    /// Dom0 cost to apply one coordination Tune.
    pub coord_apply: Nanos,
    /// One-way wire latency between external client and the IXP.
    pub wire_latency: Nanos,
    /// Per-guest receive window (packets in flight into the guest).
    pub guest_rx_cap: u32,
    /// Dom0-side per-guest hold queue bound; packets beyond it are
    /// dropped (netfront/accept-queue overflow), recovered by client
    /// retransmission.
    pub guest_hold_cap: u32,
    /// Client initial retransmission timeout (doubles per attempt).
    pub rto_initial: Nanos,
    /// Per-tier admission bound: requests a tier may have queued or in
    /// service before its connector backlog overflows and the request is
    /// dropped (Tomcat/MySQL accept-queue analogue).
    pub tier_q_cap: u32,
}

impl Default for HostCosts {
    fn default() -> Self {
        HostCosts {
            driver_base: Nanos::from_micros(120),
            driver_per_desc: Nanos::from_micros(25),
            bridge: Nanos::from_micros(350),
            resp_bridge: Nanos::from_micros(350),
            coord_apply: Nanos::from_micros(30),
            wire_latency: Nanos::from_micros(100),
            guest_rx_cap: 64,
            guest_hold_cap: 64,
            rto_initial: Nanos::from_millis(500),
            tier_q_cap: 10,
        }
    }
}

/// A RUBiS experiment scenario (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RubisScenario {
    /// Concurrent closed-loop clients.
    pub clients: u32,
    /// Request mix.
    pub mix: Mix,
    /// Mean think time between requests of a session.
    pub think_mean: Nanos,
    /// Requests per session.
    pub session_len: u32,
    /// Guest receive queue depth (requests a tier can have pending
    /// before overflow drops begin).
    pub rx_window: u32,
    /// Service-demand multiplier applied to the request catalogue.
    pub demand_scale: f64,
}

impl RubisScenario {
    /// The paper's bid/browse/sell (read-write) workload.
    pub fn read_write_mix(clients: u32) -> Self {
        RubisScenario {
            clients,
            mix: Mix::ReadWrite,
            think_mean: Nanos::from_millis(250),
            session_len: 12,
            rx_window: 8,
            demand_scale: 2.5,
        }
    }

    /// The paper's browsing (read-only) workload.
    pub fn browsing_mix(clients: u32) -> Self {
        RubisScenario {
            mix: Mix::Browsing,
            ..Self::read_write_mix(clients)
        }
    }

    pub(crate) fn rubis_config(&self) -> RubisConfig {
        RubisConfig {
            clients: self.clients,
            mix: self.mix,
            think_mean: self.think_mean,
            session_len: self.session_len,
            demand_scale: self.demand_scale,
            ..RubisConfig::default()
        }
    }
}

/// One MPlayer guest in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayerSpec {
    /// Stream characteristics.
    pub stream: StreamSpec,
    /// Network (through the IXP) or local-disk playback.
    pub source: Source,
    /// Initial Xen weight of the guest.
    pub weight: u32,
}

impl PlayerSpec {
    /// A network-streamed player with the default weight 256.
    pub fn network(stream: StreamSpec) -> Self {
        PlayerSpec {
            stream,
            source: Source::Network,
            weight: 256,
        }
    }

    /// A local-disk player with the default weight 256.
    pub fn local(stream: StreamSpec) -> Self {
        PlayerSpec {
            stream,
            source: Source::LocalDisk,
            weight: 256,
        }
    }

    /// Overrides the initial weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// An MPlayer experiment scenario (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MplayerScenario {
    /// The guests and their streams.
    pub players: Vec<PlayerSpec>,
    /// Dom0 elastic background demand as a fraction of one CPU (the
    /// relaying/housekeeping load that makes weights matter; 1.0 = a full
    /// core's worth whenever it can get it).
    pub dom0_hog: f64,
    /// Number of Dom0 VCPUs (1 concentrates Dom0's credit inflow on a
    /// single competing stream, as when its load is one busy backend).
    pub dom0_vcpus: u32,
    /// IXP buffer-monitor threshold in bytes (Figure 7 uses 128 KiB).
    pub buffer_threshold: Option<u64>,
    /// Stream delivery pacing relative to nominal (1.05 = server pushes
    /// 5% faster than the frame rate, letting a boosted decoder catch up
    /// beyond nominal fps as in Figures 6–7).
    pub overrate: f64,
}

impl MplayerScenario {
    /// Figure 7 / Table 3's trigger setup: Domain-1 decodes a demanding
    /// network stream whose IXP queue is monitored at 128 KiB; Domain-2
    /// plays from its local disk (no IXP resources) and measures the
    /// interference cost of the triggers.
    pub fn trigger_setup() -> Self {
        MplayerScenario {
            players: vec![
                PlayerSpec::network(StreamSpec { kbps: 480, fps: 27 }),
                PlayerSpec::local(StreamSpec { kbps: 300, fps: 80 }),
            ],
            dom0_hog: 1.0,
            dom0_vcpus: 1,
            buffer_threshold: Some(128 * 1024),
            overrate: 1.05,
        }
    }

    /// Figure 6's two-guest setup with the given initial weights.
    pub fn figure6(w1: u32, w2: u32) -> Self {
        MplayerScenario {
            players: vec![
                PlayerSpec::network(StreamSpec::low()).with_weight(w1),
                PlayerSpec::network(StreamSpec::high()).with_weight(w2),
            ],
            dom0_hog: 1.0,
            dom0_vcpus: 1,
            buffer_threshold: None,
            overrate: 1.05,
        }
    }
}

/// An inference-serving scenario for the three-island platform: tenant
/// VMs submitting to a batching accelerator behind the IXP.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceScenario {
    /// The open-loop tenant sources (one guest VM each).
    pub inference: InferenceConfig,
    /// Accelerator island configuration.
    pub accel: AccelConfig,
    /// Host→accelerator DMA latency per request.
    pub dma_latency: Nanos,
    /// When set, arm a queue alarm on each *latency-sensitive* tenant at
    /// this many requests' worth of its model's input bytes. Batch
    /// tenants stay unmonitored and pay the preemption cost (the
    /// Figure 7 pattern).
    pub interactive_alarm_depth: Option<u32>,
}

impl InferenceScenario {
    /// Experiment I1's mixed-SLA colocation: two interactive tenants
    /// (chat, vision) sharing the accelerator with two batch tenants
    /// (rank, embed) at rates that keep the two execution units busy.
    pub fn mixed_tenants() -> Self {
        InferenceScenario {
            inference: InferenceConfig {
                tenants: vec![
                    TenantSpec { name: "chat", model_id: 0, rate_per_sec: 260.0 },
                    TenantSpec { name: "vision", model_id: 1, rate_per_sec: 120.0 },
                    TenantSpec { name: "rank", model_id: 2, rate_per_sec: 220.0 },
                    TenantSpec { name: "embed", model_id: 3, rate_per_sec: 90.0 },
                ],
                cost_jitter: 0.2,
            },
            accel: AccelConfig::default(),
            dma_latency: Nanos::from_micros(20),
            interactive_alarm_depth: None,
        }
    }

    /// Experiment I2's trigger setup: each *interactive* tenant's device
    /// queue is monitored at three requests' depth, so occupancy
    /// crossings raise alarms that the BufferTrigger policy converts
    /// into batch preemptions. Batch tenants are unmonitored and absorb
    /// the preemption cost.
    pub fn trigger_setup() -> Self {
        let mut s = Self::mixed_tenants();
        // Push the units toward saturation so queues actually form:
        // preemptions then displace real batch work, making the
        // colocated cost measurable rather than theoretical.
        for t in &mut s.inference.tenants {
            t.rate_per_sec *= 1.3;
        }
        s.interactive_alarm_depth = Some(3);
        s
    }
}

/// Configuration of the QoS-constrained energy dimension (DESIGN.md
/// §2.15): which knob axes the [`coord::EnergyController`] may walk on
/// the x86 island, and the per-tenant p99 response-time target the walk
/// must respect. Constructed through [`EnergyConfig::coordinated`], the
/// single-axis ablation constructors, or [`EnergyConfig::frozen`]
/// (energy metering with every axis pinned at full performance — the
/// accounting baseline the experiments compare against).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Per-tenant p99 response-time target in milliseconds.
    pub p99_target_ms: f64,
    /// Allow descent of the DVFS frequency/voltage ladder.
    pub dvfs: bool,
    /// Allow shrinking the DB cache-partition way count.
    pub cache: bool,
    /// Allow shrinking the memory-bandwidth partition share.
    pub membw: bool,
}

impl EnergyConfig {
    /// All three knob axes available to the controller (experiment E1's
    /// coordinated arm).
    pub fn coordinated(p99_target_ms: f64) -> Self {
        EnergyConfig { p99_target_ms, dvfs: true, cache: true, membw: true }
    }

    /// DVFS ladder only (experiment E2 ablation).
    pub fn dvfs_only(p99_target_ms: f64) -> Self {
        EnergyConfig { p99_target_ms, dvfs: true, cache: false, membw: false }
    }

    /// Cache-way partition only (experiment E2 ablation).
    pub fn cache_only(p99_target_ms: f64) -> Self {
        EnergyConfig { p99_target_ms, dvfs: false, cache: true, membw: false }
    }

    /// Memory-bandwidth share only (experiment E2 ablation).
    pub fn membw_only(p99_target_ms: f64) -> Self {
        EnergyConfig { p99_target_ms, dvfs: false, cache: false, membw: true }
    }

    /// Energy accounting with no knob movement: every axis stays at full
    /// performance. Both E1 baselines (uncapped and uncoordinated power
    /// capping) run with this so all arms share one power model.
    pub fn frozen(p99_target_ms: f64) -> Self {
        EnergyConfig { p99_target_ms, dvfs: false, cache: false, membw: false }
    }
}

/// Builder for a [`Platform`]. Collects the island- and channel-level
/// knobs shared by all scenarios; `build_rubis` / `build_mplayer` /
/// `build_inference` assemble a runnable simulation.
///
/// # Example
///
/// ```
/// use platform::{PlatformBuilder, RubisScenario};
/// use coord::PolicyKind;
/// use simcore::Nanos;
///
/// let mut sim = PlatformBuilder::new()
///     .seed(1)
///     .policy(PolicyKind::RequestTypeHysteresis)
///     .coord_latency(Nanos::from_micros(1)) // QPI-class channel
///     .build_rubis(RubisScenario::read_write_mix(24));
/// let report = sim.run(Nanos::from_secs(5));
/// assert!(report.rubis.completed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    pub(crate) seed: u64,
    pub(crate) ncpus: u32,
    pub(crate) policy: PolicyKind,
    pub(crate) coord_latency: Nanos,
    pub(crate) notify: NotifyMode,
    pub(crate) sample_period: Nanos,
    pub(crate) costs: HostCosts,
    pub(crate) ixp_overrides: Option<IxpConfig>,
    pub(crate) policy_weights: Option<(i32, i32)>,
    pub(crate) trigger_rate: Option<f64>,
    pub(crate) power_cap: Option<(f64, Strategy)>,
    pub(crate) energy: Option<EnergyConfig>,
    pub(crate) precise_accounting: bool,
    pub(crate) fault_profile: FaultProfile,
    pub(crate) reliable: Option<ReliableConfig>,
    pub(crate) chaos: ChaosPlan,
    pub(crate) defenses: Option<PolicerConfig>,
    pub(crate) adversaries: Vec<AdversarySpec>,
    pub(crate) shard: u16,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlatformBuilder {
    /// Defaults matching the paper's prototype: 2 pCPUs, 30 µs PCIe
    /// mailbox, 100 µs interrupt moderation, no coordination.
    pub fn new() -> Self {
        PlatformBuilder {
            seed: 1,
            ncpus: 2,
            policy: PolicyKind::None,
            coord_latency: Nanos::from_micros(30),
            notify: NotifyMode::Interrupt {
                period: Nanos::from_micros(100),
            },
            sample_period: Nanos::from_secs(1),
            costs: HostCosts::default(),
            ixp_overrides: None,
            policy_weights: None,
            trigger_rate: None,
            power_cap: None,
            energy: None,
            precise_accounting: true,
            fault_profile: FaultProfile::none(),
            reliable: None,
            chaos: ChaosPlan::none(),
            defenses: None,
            adversaries: Vec::new(),
            shard: 0,
        }
    }

    /// Marks this platform as fleet shard `shard_id`. Every RNG stream is
    /// derived from `seed ^ shard_id`, so N shards built from one fleet
    /// seed draw disjoint streams yet each replays bit-identically from
    /// `(seed, shard_id)` alone. Shard 0 is the identity: a `.shard(0)`
    /// platform is byte-identical to one that never called this.
    pub fn shard(mut self, shard_id: u16) -> Self {
        self.shard = shard_id;
        self
    }

    /// The seed every stream actually derives from (`seed ^ shard`,
    /// independent of the order `seed`/`shard` were set in).
    pub(crate) fn effective_seed(&self) -> u64 {
        self.seed ^ self.shard as u64
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of physical CPUs on the x86 island.
    ///
    /// # Panics
    /// Panics if `ncpus == 0`.
    pub fn ncpus(mut self, ncpus: u32) -> Self {
        assert!(ncpus > 0, "need at least one pcpu");
        self.ncpus = ncpus;
        self
    }

    /// Selects the coordination policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the one-way coordination-channel latency (ablation A1).
    pub fn coord_latency(mut self, latency: Nanos) -> Self {
        self.coord_latency = latency;
        self
    }

    /// Sets the host notification mode for the messaging driver
    /// (ablation A3).
    pub fn notify_mode(mut self, notify: NotifyMode) -> Self {
        self.notify = notify;
        self
    }

    /// Sets the time-series sampling period.
    pub fn sample_period(mut self, period: Nanos) -> Self {
        self.sample_period = period;
        self
    }

    /// Replaces the IXP island configuration wholesale (ablation A4).
    pub fn ixp_config(mut self, cfg: IxpConfig) -> Self {
        self.ixp_overrides = Some(cfg);
        self
    }

    /// Overrides the request-type policy's high/low regime weights.
    pub fn policy_weights(mut self, hi: i32, lo: i32) -> Self {
        self.policy_weights = Some((hi, lo));
        self
    }

    /// Rate-limits Trigger emission (triggers/second; ablation A5).
    pub fn trigger_rate_limit(mut self, per_sec: f64) -> Self {
        self.trigger_rate = Some(per_sec);
        self
    }

    /// Selects the credit-accounting mode: `true` (default) debits actual
    /// consumption; `false` reproduces Xen 3.x's tick-sampled debits,
    /// which sub-tick workloads can dodge (ablation A6).
    pub fn precise_accounting(mut self, precise: bool) -> Self {
        self.precise_accounting = precise;
        self
    }

    /// Enables platform-level power capping (the paper's §1 second use
    /// case): a governor samples modelled platform power each second and
    /// adjusts per-domain CPU caps to stay under `cap_watts`, choosing
    /// victims per `strategy`.
    pub fn power_cap(mut self, cap_watts: f64, strategy: Strategy) -> Self {
        self.power_cap = Some((cap_watts, strategy));
        self
    }

    /// Enables the QoS-constrained energy dimension: the x86 island gets
    /// a modelled DVFS/cache/bandwidth operating point, joules are
    /// metered per island, and a [`coord::EnergyController`] walks the
    /// knob lattice downward in power while per-tenant p99 stays under
    /// `cfg.p99_target_ms` (axes per `cfg`). Off by default: a build
    /// without this call is byte-identical to the seed baseline.
    pub fn energy(mut self, cfg: EnergyConfig) -> Self {
        self.energy = Some(cfg);
        self
    }

    /// Overrides the guest receive window and tier admission cap.
    pub fn queue_caps(mut self, rx_window: u32, tier_q_cap: u32) -> Self {
        self.costs.guest_rx_cap = rx_window;
        self.costs.guest_hold_cap = rx_window;
        self.costs.tier_q_cap = tier_q_cap;
        self
    }

    /// Overrides the client initial retransmission timeout.
    pub fn rto_initial(mut self, rto: Nanos) -> Self {
        self.costs.rto_initial = rto;
        self
    }

    /// Injects channel faults into both coordination directions
    /// (experiments R1/R2). The default, [`FaultProfile::none()`], leaves
    /// the channel perfect and the run byte-identical to one built without
    /// this call.
    pub fn fault_profile(mut self, profile: FaultProfile) -> Self {
        self.fault_profile = profile;
        self
    }

    /// Enables ack-based reliable delivery for coordination messages:
    /// sequence-numbered frames, retransmission with exponential backoff,
    /// duplicate suppression, and degraded-mode send suppression.
    pub fn reliable_delivery(mut self, cfg: ReliableConfig) -> Self {
        self.reliable = Some(cfg);
        self
    }

    /// Installs a chaos plan the master event loop consults at its three
    /// perturbation hook points (delayed event dispatch, forced Trigger
    /// preemption at accelerator batch boundaries, coordination-send
    /// jitter bursts). The default, [`ChaosPlan::none()`], is a
    /// constant-time no-op at every hook, so a chaos-off build stays
    /// byte-identical to one built without this call.
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Enables the controller-side adversary defenses (per-entity Tune
    /// rate limiting and reputation-weighted delta discounting).
    pub fn coord_defenses(mut self, cfg: PolicerConfig) -> Self {
        self.defenses = Some(cfg);
        self
    }

    /// Adds strategic tenants (experiment A1): each spec becomes one
    /// extra guest VM that hogs CPU and plays its strategy against the
    /// coordination channel. Adversarial messages traverse the real
    /// mailbox and are policed by [`coord_defenses`](Self::coord_defenses)
    /// when enabled.
    pub fn adversaries(mut self, specs: Vec<AdversarySpec>) -> Self {
        self.adversaries = specs;
        self
    }

    pub(crate) fn link_config(&self) -> LinkConfig {
        LinkConfig {
            notify: self.notify,
            ..LinkConfig::default()
        }
    }

    /// Assembles a RUBiS platform: Dom0 plus web/app/db guest VMs behind
    /// the IXP with DPI classification enabled.
    pub fn build_rubis(self, scenario: RubisScenario) -> Platform {
        Platform::new_rubis(self, scenario)
    }

    /// Assembles an MPlayer platform: Dom0 plus one guest per player.
    pub fn build_mplayer(self, scenario: MplayerScenario) -> Platform {
        Platform::new_mplayer(self, scenario)
    }

    /// Assembles a three-island inference platform: Dom0 plus one guest
    /// per tenant, with a batching accelerator as the third coordinated
    /// island. The default two-island builds never construct it.
    pub fn build_inference(self, scenario: InferenceScenario) -> Platform {
        Platform::new_inference(self, scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let b = PlatformBuilder::new();
        assert_eq!(b.ncpus, 2);
        assert_eq!(b.policy, PolicyKind::None);
        assert_eq!(b.coord_latency, Nanos::from_micros(30));
    }

    #[test]
    fn scenario_constructors() {
        let s = RubisScenario::read_write_mix(24);
        assert_eq!(s.clients, 24);
        assert_eq!(s.mix, Mix::ReadWrite);
        let b = RubisScenario::browsing_mix(8);
        assert_eq!(b.mix, Mix::Browsing);
        let m = MplayerScenario::figure6(384, 512);
        assert_eq!(m.players[0].weight, 384);
        assert_eq!(m.players[1].weight, 512);
        assert_eq!(m.players[1].stream, StreamSpec::high());
    }

    #[test]
    fn energy_config_constructors() {
        let c = EnergyConfig::coordinated(400.0);
        assert!(c.dvfs && c.cache && c.membw);
        assert_eq!(c.p99_target_ms, 400.0);
        let d = EnergyConfig::dvfs_only(400.0);
        assert!(d.dvfs && !d.cache && !d.membw);
        let f = EnergyConfig::frozen(400.0);
        assert!(!f.dvfs && !f.cache && !f.membw);
        let b = PlatformBuilder::new();
        assert!(b.energy.is_none(), "energy is off by default");
        assert_eq!(b.energy(c).energy, Some(c));
    }

    #[test]
    #[should_panic(expected = "pcpu")]
    fn zero_cpus_rejected() {
        let _ = PlatformBuilder::new().ncpus(0);
    }
}
