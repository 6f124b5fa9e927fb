//! # bench — the experiment harness
//!
//! The paper's evaluation (§3) and the ablations and extensions DESIGN.md
//! calls out, as the experiment units of one registry, [`EXPERIMENTS`].
//! Each unit builds its platforms through the public API, runs them
//! deterministically, and renders paper-style [`Table`]s; the
//! `experiments` binary prints them and writes CSVs under `results/`.
//!
//! Reproduction targets are *shapes*, not absolute numbers — see
//! EXPERIMENTS.md for the measured-vs-paper comparison and the analysis of
//! where (and why) magnitudes diverge.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pool;
pub mod summary;

use coord::PolicyKind;
use fleet::{BusConfig, FleetConfig, FleetReport, FleetState, FleetTopology, ShardPlan};
use metrics::Table;
use pcie::NotifyMode;
use platform::{
    AdversarySpec, EnergyConfig, FaultProfile, InferenceScenario, Jitter, MplayerScenario,
    Platform, PlatformBuilder, PolicerConfig, PowerStrategy, ReliableConfig, RubisScenario,
    RunReport,
};
use simcore::Nanos;
use workloads::session::SessionLoad;

/// Default deterministic seed for headline runs.
pub const SEED: u64 = 42;

/// Simulated-seconds cap of `experiments --smoke` (the tables
/// `results/DIGESTS` pins).
pub const SMOKE_CAP_SECS: u64 = 5;

/// Simulated duration of RUBiS runs.
pub const RUBIS_SECS: u64 = 300;

/// Simulated duration of the Figure 7 trigger run.
pub const TRIGGER_SECS: u64 = 180;

/// Simulated duration of the inference (accelerator island) runs.
pub const INFER_SECS: u64 = 120;

// ----------------------------------------------------------------------
// Run plumbing: settings in, run totals out
// ----------------------------------------------------------------------

/// What a set of [`Platform`] runs cost: simulator wall time, the
/// deterministic per-island dispatch counts, and every fleet report.
/// Each experiment unit fills its own ledger; the caller merges them in
/// submission order, so the totals are exact under any `--jobs`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLedger {
    /// Wall microseconds spent inside `Platform::run`, summed over runs.
    pub wall_micros: u64,
    /// Events dispatched per island, summed over runs (fleet shards
    /// included).
    pub islands: platform::IslandEvents,
    /// Every fleet run's report, in execution order.
    pub fleets: Vec<FleetReport>,
}

impl RunLedger {
    /// Events dispatched across every run (the islands' sum).
    pub fn events(&self) -> u64 {
        self.islands.x86 + self.islands.ixp + self.islands.accel
    }

    fn book(&mut self, r: &RunReport) {
        self.wall_micros += r.sim_rate.wall_micros;
        self.islands.accumulate(&r.events_by_island);
    }

    /// Folds `other` into this ledger; `other`'s fleets follow this one's.
    pub fn merge(&mut self, other: RunLedger) {
        self.wall_micros += other.wall_micros;
        self.islands.accumulate(&other.islands);
        self.fleets.extend(other.fleets);
    }
}

/// The harness's run context: the two settings every experiment reads
/// (smoke cap and fleet shard count) and the [`RunLedger`] its runs fill.
#[derive(Debug, Clone)]
pub struct Runner {
    smoke_cap_secs: u64,
    shards: u16,
    /// Totals of the runs made through this runner.
    pub ledger: RunLedger,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            smoke_cap_secs: u64::MAX,
            shards: 12,
            ledger: RunLedger::default(),
        }
    }
}

impl Runner {
    /// Full-length runs on the default 12-shard fleet, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps every simulated run at `secs` (at least 1) simulated
    /// seconds. Smoke mode for CI and the determinism tests: the tables
    /// lose statistical meaning but keep their exact shape and
    /// determinism.
    pub fn with_smoke_cap(mut self, secs: u64) -> Self {
        self.smoke_cap_secs = secs.max(1);
        self
    }

    /// Sets the fleet experiments' shard count, clamped to 2..=64
    /// (rebalancing needs a pair, and the ncpus/load cycles repeat every
    /// 3 shards).
    pub fn with_shards(mut self, n: u16) -> Self {
        self.shards = n.clamp(2, 64);
        self
    }

    /// The effective smoke cap in simulated seconds; `None` for full runs.
    pub fn smoke_cap_secs(&self) -> Option<u64> {
        (self.smoke_cap_secs != u64::MAX).then_some(self.smoke_cap_secs)
    }

    /// The fleet experiments' shard count (default 12).
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The same settings with an empty ledger.
    pub fn fresh(&self) -> Self {
        Runner {
            ledger: RunLedger::default(),
            ..*self
        }
    }

    fn capped(&self, secs: u64) -> Nanos {
        Nanos::from_secs(secs.min(self.smoke_cap_secs))
    }

    /// Runs `sim` for `secs` simulated seconds (smoke-capped) and books
    /// the report into the ledger.
    pub fn run(&mut self, sim: &mut Platform, secs: u64) -> RunReport {
        let r = sim.run(self.capped(secs));
        self.ledger.book(&r);
        r
    }
}

fn run_rubis(cx: &mut Runner, policy: PolicyKind, scenario: RubisScenario, seed: u64) -> RunReport {
    let mut sim = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .build_rubis(scenario);
    cx.run(&mut sim, RUBIS_SECS)
}

fn run_rubis_faulty(
    cx: &mut Runner,
    policy: PolicyKind,
    scenario: RubisScenario,
    seed: u64,
    profile: FaultProfile,
    reliable: Option<ReliableConfig>,
) -> RunReport {
    let mut b = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .fault_profile(profile);
    if let Some(cfg) = reliable {
        b = b.reliable_delivery(cfg);
    }
    let mut sim = b.build_rubis(scenario);
    cx.run(&mut sim, RUBIS_SECS)
}

/// Unweighted average of the per-request-type mean response times — the
/// single-number summary the reliability sweeps compare across variants.
fn mean_response_ms(r: &RunReport) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for (_, s) in r.rubis.responses.iter() {
        sum += s.mean();
        n += 1;
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.1}")
}

fn yesno(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

// ----------------------------------------------------------------------
// §3.1 RUBiS — Figure 2, Table 1, Figure 4, Table 2, Figure 5
// ----------------------------------------------------------------------

/// The §3.1 RUBiS unit: the uncoordinated and coord-ixp-dom0 runs of the
/// read-write mix, and of the browsing mix for Figure 4's footnote, each
/// made once and rendered as Figure 2, Table 1, Figure 4 (both mixes),
/// Table 2, Figure 5 and the coordination overhead; plus the read-write
/// hysteresis run, which ablation A2 compares with the read-write pair.
pub fn rubis(cx: &mut Runner, seed: u64) -> Vec<Table> {
    let pair = |cx: &mut Runner, scenario: fn(u32) -> RubisScenario, clients| {
        [PolicyKind::None, PolicyKind::RequestType]
            .map(|policy| run_rubis(cx, policy, scenario(clients), seed))
    };
    let [base, coord] = pair(cx, RubisScenario::read_write_mix, 24);
    // Moderate load: the browsing mix is web-heavy, and the paper's point
    // is that without read/write transitions the coordination regime is
    // always right — best visible when the web tier is not pinned at
    // saturation.
    let [browse_base, browse_coord] = pair(cx, RubisScenario::browsing_mix, 12);
    let hysteresis = run_rubis(
        cx,
        PolicyKind::RequestTypeHysteresis,
        RubisScenario::read_write_mix(24),
        seed,
    );
    vec![
        fig2(&base),
        table1(&base, &coord),
        fig4(&base, &coord),
        fig4_browsing(&browse_base, &browse_coord),
        table2(&base, &coord),
        fig5(&base, &coord),
        overhead(&coord),
        ablation_a2(&base, &coord, &hysteresis),
    ]
}

/// Figure 2: variation in minimum–maximum response latencies under the
/// bid/browse/sell mix with no coordination.
pub fn fig2(r: &RunReport) -> Table {
    let mut t = Table::new(
        "Figure 2 — RUBiS min-max response latencies, no coordination (ms)",
        &["Request Type", "min", "max", "mean", "sd", "p95", "p99"],
    );
    for (name, s) in r.rubis.responses.iter() {
        t.row_owned(vec![
            name.to_owned(),
            fmt(s.min()),
            fmt(s.max()),
            fmt(s.mean()),
            fmt(s.std_dev()),
            fmt(r.rubis.responses.percentile(name, 0.95)),
            fmt(r.rubis.responses.percentile(name, 0.99)),
        ]);
    }
    t
}

/// Table 1: per-type average response times, baseline vs coordinated.
pub fn table1(base: &RunReport, coord: &RunReport) -> Table {
    let mut t = Table::new(
        "Table 1 — RUBiS average request response times (ms)",
        &["Request Type", "Base", "coord-ixp-dom0", "change %"],
    );
    for (name, s) in base.rubis.responses.iter() {
        let c = coord
            .rubis
            .responses
            .summary(name)
            .map(|c| c.mean())
            .unwrap_or(0.0);
        let pct = if s.mean() > 0.0 {
            (c / s.mean() - 1.0) * 100.0
        } else {
            0.0
        };
        t.row_owned(vec![
            name.to_owned(),
            fmt(s.mean()),
            fmt(c),
            format!("{pct:+.1}"),
        ]);
    }
    t
}

/// Figure 4: min–max response times with and without coordination
/// (read-write mix). The paper's headline: coordination alleviates peak
/// latencies and reduces per-type standard deviation.
pub fn fig4(base: &RunReport, coord: &RunReport) -> Table {
    let mut t = Table::new(
        "Figure 4 — RUBiS min-max response times, base vs coordinated (ms)",
        &[
            "Request Type",
            "min B",
            "max B",
            "sd B",
            "min C",
            "max C",
            "sd C",
        ],
    );
    for (name, s) in base.rubis.responses.iter() {
        let c = coord.rubis.responses.summary(name);
        let (cmin, cmax, csd) = c
            .map(|c| (c.min(), c.max(), c.std_dev()))
            .unwrap_or_default();
        t.row_owned(vec![
            name.to_owned(),
            fmt(s.min()),
            fmt(s.max()),
            fmt(s.std_dev()),
            fmt(cmin),
            fmt(cmax),
            fmt(csd),
        ]);
    }
    t
}

/// Figure 4's footnote experiment: under the pure browsing mix (no
/// read-write transitions) coordination should win for every type.
pub fn fig4_browsing(base: &RunReport, coord: &RunReport) -> Table {
    let mut t = Table::new(
        "Figure 4 (browsing-only mix) — mean/max response times (ms)",
        &["Request Type", "mean B", "max B", "mean C", "max C"],
    );
    for (name, s) in base.rubis.responses.iter() {
        let c = coord.rubis.responses.summary(name);
        let (cm, cx) = c.map(|c| (c.mean(), c.max())).unwrap_or_default();
        t.row_owned(vec![
            name.to_owned(),
            fmt(s.mean()),
            fmt(s.max()),
            fmt(cm),
            fmt(cx),
        ]);
    }
    t
}

/// Table 2: RUBiS throughput results.
pub fn table2(base: &RunReport, coord: &RunReport) -> Table {
    let mut t = Table::new(
        "Table 2 — RUBiS throughput results",
        &["Metric", "Base", "coord-ixp-dom0"],
    );
    t.row_owned(vec![
        "Throughput (req/s)".into(),
        fmt(base.rubis.throughput),
        fmt(coord.rubis.throughput),
    ]);
    t.row_owned(vec![
        "Sessions completed".into(),
        base.rubis.sessions.to_string(),
        coord.rubis.sessions.to_string(),
    ]);
    t.row_owned(vec![
        "Avg session time (s)".into(),
        fmt(base.rubis.avg_session_secs),
        fmt(coord.rubis.avg_session_secs),
    ]);
    t.row_owned(vec![
        "Platform efficiency".into(),
        format!("{:.2}", base.efficiency),
        format!("{:.2}", coord.efficiency),
    ]);
    t.row_owned(vec![
        "Dropped packets".into(),
        base.net.guest_drops.to_string(),
        coord.net.guest_drops.to_string(),
    ]);
    t.row_owned(vec![
        "Coordination msgs".into(),
        base.coord.messages_sent.to_string(),
        coord.coord.messages_sent.to_string(),
    ]);
    t
}

/// Figure 5: RUBiS CPU utilization per component (percent of one pCPU),
/// baseline vs coordinated, with the user/system split of §3.1.
pub fn fig5(base: &RunReport, coord: &RunReport) -> Table {
    let mut t = Table::new(
        "Figure 5 — RUBiS CPU utilization (% of one pCPU)",
        &[
            "Domain",
            "base",
            "base usr",
            "base sys",
            "coord",
            "coord usr",
            "coord sys",
        ],
    );
    for d in &base.cpu {
        let c = coord.cpu.iter().find(|c| c.name == d.name);
        let (cp, cu, cs) = c.map(|c| (c.percent, c.user, c.system)).unwrap_or_default();
        t.row_owned(vec![
            d.name.clone(),
            fmt(d.percent),
            fmt(d.user),
            fmt(d.system),
            fmt(cp),
            fmt(cu),
            fmt(cs),
        ]);
    }
    t.row_owned(vec![
        "TOTAL".into(),
        fmt(base.total_cpu_percent),
        String::new(),
        String::new(),
        fmt(coord.total_cpu_percent),
        String::new(),
        String::new(),
    ]);
    t
}

// ----------------------------------------------------------------------
// Figure 6 — MPlayer video-stream quality of service
// ----------------------------------------------------------------------

/// Figure 6: achieved frame rates under the paper's three weight
/// configurations (256-256, 384-512, 384-640 with tandem IXP threads).
pub fn fig6(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 6 — MPlayer video-stream QoS (frames/s; targets: dom1=20, dom2=25)",
        &["Weights", "Dom1 fps", "meets", "Dom2 fps", "meets"],
    );
    for (label, w1, w2, tandem) in [
        ("256-256", 256, 256, false),
        ("384-512", 384, 512, false),
        ("384-640", 384, 640, true),
    ] {
        let scen = MplayerScenario::figure6(w1, w2);
        let mut sim = PlatformBuilder::new().seed(seed).build_mplayer(scen);
        if tandem {
            // The paper's third configuration also raises the IXP threads
            // servicing Domain-2's receive queue in tandem.
            sim.set_flow_threads_by_vm(2, 4);
        }
        let r = cx.run(&mut sim, RUBIS_SECS);
        let d1 = r.player("dom1").expect("dom1 report");
        let d2 = r.player("dom2").expect("dom2 report");
        t.row_owned(vec![
            label.to_owned(),
            fmt(d1.achieved_fps),
            yesno(d1.achieved_fps >= d1.target_fps as f64),
            fmt(d2.achieved_fps),
            yesno(d2.achieved_fps >= d2.target_fps as f64),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// Figure 7 — trigger coordination time series
// ----------------------------------------------------------------------

/// The Figure 7 unit: the uncoordinated and buffer-trigger runs of the
/// MPlayer trigger setup, made once and rendered as Figure 7's series and
/// summary and Table 3.
pub fn fig7(cx: &mut Runner, seed: u64) -> Vec<Table> {
    let [base, coord] = [PolicyKind::None, PolicyKind::BufferTrigger].map(|policy| {
        let mut sim = PlatformBuilder::new()
            .seed(seed)
            .policy(policy)
            .build_mplayer(MplayerScenario::trigger_setup());
        cx.run(&mut sim, TRIGGER_SECS)
    });
    vec![
        fig7_series(&base, &coord),
        fig7_summary(&base, &coord),
        table3(&base, &coord),
    ]
}

/// Figure 7: the trigger run's time series — boosted domain CPU
/// utilization and IXP buffer occupancy, sampled once per second.
pub fn fig7_series(base: &RunReport, coord: &RunReport) -> Table {
    let mut series = Table::new(
        "Figure 7 — boosted domain CPU% and IXP buffer occupancy over time",
        &[
            "t (s)",
            "no-coord cpu%",
            "coord cpu%",
            "coord buffer (bytes)",
        ],
    );
    let pick = |r: &RunReport| {
        r.cpu_series
            .iter()
            .find(|(n, _)| n == "dom1")
            .map(|(_, s)| s.points().to_vec())
            .unwrap_or_default()
    };
    let coord_cpu = pick(coord);
    let base_cpu = pick(base);
    let buffer = coord.buffer_series.points();
    for (i, (t, v)) in coord_cpu.iter().enumerate() {
        if i % 10 != 0 {
            continue; // print every 10th sample; the CSV keeps them all
        }
        let b = base_cpu.get(i).map(|&(_, v)| v).unwrap_or(0.0);
        let buf = buffer.get(i).map(|&(_, v)| v).unwrap_or(0.0);
        series.row_owned(vec![
            format!("{:.0}", t.as_secs_f64()),
            fmt(b),
            fmt(*v),
            format!("{buf:.0}"),
        ]);
    }
    series
}

/// Figure 7's summary: frame rates, triggers applied and IXP buffer
/// occupancy with and without the buffer trigger.
pub fn fig7_summary(base: &RunReport, coord: &RunReport) -> Table {
    let mut summary = Table::new(
        "Figure 7 — summary",
        &["Metric", "no-coord", "coord-trigger"],
    );
    let fps = |r: &RunReport| r.player("dom1").map(|p| p.achieved_fps).unwrap_or(0.0);
    summary.row_owned(vec![
        "Dom1 frames/s".into(),
        format!("{:.1}", fps(base)),
        format!("{:.1}", fps(coord)),
    ]);
    summary.row_owned(vec![
        "Triggers applied".into(),
        base.coord.triggers_applied.to_string(),
        coord.coord.triggers_applied.to_string(),
    ]);
    summary.row_owned(vec![
        "Mean IXP buffer (bytes)".into(),
        format!("{:.0}", base.buffer_series.mean()),
        format!("{:.0}", coord.buffer_series.mean()),
    ]);
    summary.row_owned(vec![
        "Max IXP buffer (bytes)".into(),
        format!("{:.0}", base.buffer_series.max_value().unwrap_or(0.0)),
        format!("{:.0}", coord.buffer_series.max_value().unwrap_or(0.0)),
    ]);
    summary
}

// ----------------------------------------------------------------------
// Table 3 — trigger interference
// ----------------------------------------------------------------------

/// Table 3: trigger interference — the boosted network player gains,
/// the colocated local-disk player pays.
pub fn table3(base: &RunReport, coord: &RunReport) -> Table {
    let mut t = Table::new(
        "Table 3 — MPlayer trigger interference (frames/s)",
        &["Guest Domain", "Baseline", "With Co-ord", "% change"],
    );
    for name in ["dom1", "dom2"] {
        let b = base.player(name).map(|p| p.achieved_fps).unwrap_or(0.0);
        let c = coord.player(name).map(|p| p.achieved_fps).unwrap_or(0.0);
        let pct = if b > 0.0 { (c / b - 1.0) * 100.0 } else { 0.0 };
        t.row_owned(vec![
            name.to_owned(),
            format!("{b:.1}"),
            format!("{c:.1}"),
            format!("{pct:+.2}"),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// Ablations
// ----------------------------------------------------------------------

/// A1: coordination-channel latency sweep (PCIe mailbox vs QPI/HTX-class
/// integration, §3.3 "Hardware considerations").
pub fn ablation_a1(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "A1 — coordination channel latency vs response-time damage",
        &[
            "one-way latency",
            "mean (ms)",
            "sd (ms)",
            "max (ms)",
            "drops",
        ],
    );
    for us in [1u64, 30, 300, 3_000, 30_000] {
        let mut sim = PlatformBuilder::new()
            .seed(seed)
            .policy(PolicyKind::RequestType)
            .coord_latency(Nanos::from_micros(us))
            .build_rubis(RubisScenario::read_write_mix(24));
        let r = cx.run(&mut sim, RUBIS_SECS);
        let o = r.rubis.responses.overall().clone();
        t.row_owned(vec![
            format!("{us} us"),
            fmt(o.mean()),
            fmt(o.std_dev()),
            fmt(o.max()),
            r.net.guest_drops.to_string(),
        ]);
    }
    t
}

/// A2: per-request regime switching vs the hysteresis extension the paper
/// defers to future work, from the `rubis` unit's read-write runs.
pub fn ablation_a2(base: &RunReport, coord: &RunReport, hysteresis: &RunReport) -> Table {
    let mut t = Table::new(
        "A2 — per-request coordination vs hysteresis damping",
        &["Policy", "X (req/s)", "mean", "sd", "max", "msgs", "drops"],
    );
    for (label, r) in [
        ("none", base),
        ("per-request", coord),
        ("hysteresis", hysteresis),
    ] {
        let o = r.rubis.responses.overall().clone();
        t.row_owned(vec![
            label.into(),
            fmt(r.rubis.throughput),
            fmt(o.mean()),
            fmt(o.std_dev()),
            fmt(o.max()),
            r.coord.messages_sent.to_string(),
            r.net.guest_drops.to_string(),
        ]);
    }
    t
}

/// A3: messaging-driver notification policy — interrupt moderation period
/// sweep vs Dom0 polling.
pub fn ablation_a3(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "A3 — host notification policy vs response times",
        &["Notify mode", "mean (ms)", "sd (ms)", "max (ms)"],
    );
    let mut modes: Vec<(String, NotifyMode)> = vec![];
    for us in [20u64, 100, 500, 2_000] {
        modes.push((
            format!("irq {us} us"),
            NotifyMode::Interrupt {
                period: Nanos::from_micros(us),
            },
        ));
    }
    for us in [100u64, 1_000] {
        modes.push((
            format!("poll {us} us"),
            NotifyMode::Poll {
                period: Nanos::from_micros(us),
            },
        ));
    }
    for (label, mode) in modes {
        let mut sim = PlatformBuilder::new()
            .seed(seed)
            .policy(PolicyKind::RequestType)
            .notify_mode(mode)
            .build_rubis(RubisScenario::read_write_mix(24));
        let r = cx.run(&mut sim, RUBIS_SECS);
        let o = r.rubis.responses.overall().clone();
        t.row_owned(vec![label, fmt(o.mean()), fmt(o.std_dev()), fmt(o.max())]);
    }
    t
}

/// A4: IXP per-flow dequeue-thread assignment vs delivered throughput
/// (the §2.1 claim that thread tuning controls per-VM ingress bandwidth).
pub fn ablation_a4(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "A4 — IXP flow threads vs delivered ingress bandwidth",
        &[
            "threads",
            "delivered pkts",
            "fps dom1",
            "IXP buffer mean (bytes)",
        ],
    );
    for threads in [1u32, 2, 4, 8] {
        let ixp_cfg = ixp::IxpConfig {
            flow_threads: threads,
            // Slow per-flow polling exposes the knob: each thread serves
            // roughly one packet per poll interval, so per-flow bandwidth
            // ≈ threads / poll.
            flow_poll: Nanos::from_millis(30),
            ..ixp::IxpConfig::default()
        };
        let mut sim = PlatformBuilder::new()
            .seed(seed)
            .ixp_config(ixp_cfg)
            .build_mplayer(MplayerScenario::trigger_setup());
        let r = cx.run(&mut sim, 60);
        t.row_owned(vec![
            threads.to_string(),
            r.net.delivered.to_string(),
            r.player("dom1")
                .map(|p| fmt(p.achieved_fps))
                .unwrap_or_default(),
            format!("{:.0}", r.buffer_series.mean()),
        ]);
    }
    t
}

/// A5: trigger rate limiting — the interference/gain trade-off of Table 3.
pub fn ablation_a5(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "A5 — trigger rate limit vs gain and interference",
        &["max triggers/s", "triggers", "dom1 fps", "dom2 fps"],
    );
    for rate in [0.5f64, 2.0, 10.0, 1e9] {
        let mut sim = PlatformBuilder::new()
            .seed(seed)
            .policy(PolicyKind::BufferTrigger)
            .trigger_rate_limit(rate)
            .build_mplayer(MplayerScenario::trigger_setup());
        let r = cx.run(&mut sim, TRIGGER_SECS);
        let label = if rate > 1e6 {
            "unlimited".into()
        } else {
            format!("{rate}")
        };
        t.row_owned(vec![
            label,
            r.coord.triggers_applied.to_string(),
            r.player("dom1")
                .map(|p| fmt(p.achieved_fps))
                .unwrap_or_default(),
            r.player("dom2")
                .map(|p| fmt(p.achieved_fps))
                .unwrap_or_default(),
        ]);
    }
    t
}

/// A6: credit-accounting fidelity — precise consumption-based debits vs
/// Xen 3.x's tick-sampled debits (which deterministic sub-tick workloads
/// dodge). Shows how much of the coordination story depends on the
/// accounting substrate.
pub fn ablation_a6(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "A6 — credit accounting mode vs RUBiS outcomes",
        &[
            "Accounting",
            "Policy",
            "X (req/s)",
            "mean (ms)",
            "sd (ms)",
            "drops",
        ],
    );
    for (acct_label, precise) in [("precise", true), ("tick-sampled", false)] {
        for (pol_label, policy) in [
            ("none", PolicyKind::None),
            ("coord", PolicyKind::RequestType),
        ] {
            let mut sim = PlatformBuilder::new()
                .seed(seed)
                .policy(policy)
                .precise_accounting(precise)
                .build_rubis(RubisScenario::read_write_mix(24));
            let r = cx.run(&mut sim, RUBIS_SECS);
            let o = r.rubis.responses.overall().clone();
            t.row_owned(vec![
                acct_label.into(),
                pol_label.into(),
                fmt(r.rubis.throughput),
                fmt(o.mean()),
                fmt(o.std_dev()),
                r.net.guest_drops.to_string(),
            ]);
        }
    }
    t
}

/// P1 (extension, paper §1 use case 2 + §5): platform-level power capping
/// under the two victim strategies. At the same watt budget, the
/// application-aware priority order (cap the elastic Dom0 background load
/// first) preserves stream QoS, while per-tile biggest-consumer capping
/// destroys the high-rate stream's frame rate — and, because the elastic
/// background absorbs the freed cycles, saves almost no power.
pub fn extension_p1(cx: &mut Runner, seed: u64) -> Table {
    let mut t = Table::new(
        "P1 — platform power capping: coordinated vs per-tile victim choice",
        &[
            "Config",
            "mean W",
            "max W",
            "dom1 fps",
            "dom2 fps",
            "cap actions",
        ],
    );
    let mut run = |label: &str, cap: Option<(f64, PowerStrategy)>| {
        let mut b = PlatformBuilder::new().seed(seed);
        if let Some((w, s)) = cap {
            b = b.power_cap(w, s);
        }
        let mut sim = b.build_mplayer(MplayerScenario::figure6(384, 512));
        let r = cx.run(&mut sim, 120);
        t.row_owned(vec![
            label.into(),
            format!("{:.1}", r.power.mean_watts),
            format!("{:.1}", r.power.max_watts),
            r.player("dom1")
                .map(|p| fmt(p.achieved_fps))
                .unwrap_or_default(),
            r.player("dom2")
                .map(|p| fmt(p.achieved_fps))
                .unwrap_or_default(),
            r.power.cap_actions.to_string(),
        ]);
    };
    run("uncapped", None);
    run(
        "cap 105W, biggest-consumer",
        Some((105.0, PowerStrategy::BiggestConsumer)),
    );
    run(
        "cap 105W, coordinated priority",
        Some((
            105.0,
            PowerStrategy::Priority(vec!["dom0".into(), "dom1".into(), "dom2".into()]),
        )),
    );
    run(
        "cap 100W, biggest-consumer",
        Some((100.0, PowerStrategy::BiggestConsumer)),
    );
    run(
        "cap 100W, coordinated priority",
        Some((
            100.0,
            PowerStrategy::Priority(vec!["dom0".into(), "dom1".into(), "dom2".into()]),
        )),
    );
    t
}

/// S1 (extension, paper §5): coordination-fabric scalability — a single
/// global controller vs the two-level zone fabric, at increasing island
/// counts and 90%-local traffic.
pub fn extension_s1(seed: u64) -> Table {
    use coord::hierarchy::{HierarchicalController, ZoneId};
    use coord::{CoordMsg, EntityId, IslandId, IslandKind};
    let mut t = Table::new(
        "S1 — coordination fabric scalability (100k tunes, 90% zone-local)",
        &[
            "zones",
            "islands",
            "root lookups",
            "max zone load",
            "centralized load",
        ],
    );
    for zones in [1u16, 2, 4, 8, 16] {
        let islands_per_zone = 4u16;
        let entities_per_island = 8u32;
        let mut h = HierarchicalController::new(zones);
        let mut all_entities: Vec<(ZoneId, EntityId)> = Vec::new();
        for z in 0..zones {
            for i in 0..islands_per_zone {
                let island = IslandId(z * islands_per_zone + i);
                h.register_island(ZoneId(z), island, IslandKind::GeneralPurpose);
                for e in 0..entities_per_island {
                    let entity = EntityId((island.0 as u32) * entities_per_island + e);
                    h.register_entity(ZoneId(z), entity, island, e as u64);
                    all_entities.push((ZoneId(z), entity));
                }
            }
        }
        let mut rng = simcore::SimRng::new(seed);
        let n_msgs = 100_000u32;
        for i in 0..n_msgs {
            let origin = ZoneId((i % zones as u32) as u16);
            // 90% of traffic targets entities in the origin zone (with a
            // single zone everything is local by construction).
            let local = zones == 1 || rng.chance(0.9);
            let (_, entity) = loop {
                let pick = all_entities[rng.below(all_entities.len() as u64) as usize];
                if (pick.0 == origin) == local {
                    break pick;
                }
            };
            h.handle(
                Nanos::ZERO,
                origin,
                CoordMsg::Tune {
                    entity,
                    delta: 1,
                    target: None,
                },
            );
        }
        let max_zone_load = (0..zones)
            .map(|z| {
                let l = h.load(ZoneId(z));
                l.local + l.remote_in
            })
            .max()
            .unwrap_or(0);
        t.row_owned(vec![
            zones.to_string(),
            (zones * islands_per_zone).to_string(),
            h.root_lookups().to_string(),
            max_zone_load.to_string(),
            n_msgs.to_string(),
        ]);
    }
    t
}

/// Coordination overhead counters from a coordinated RUBiS run.
pub fn overhead(r: &RunReport) -> Table {
    let mut t = Table::new(
        "Coordination overhead (coordinated RUBiS run)",
        &["Metric", "Value"],
    );
    t.row_owned(vec![
        "Messages sent".into(),
        r.coord.messages_sent.to_string(),
    ]);
    t.row_owned(vec!["Wire bytes".into(), r.coord.bytes_sent.to_string()]);
    t.row_owned(vec![
        "Tunes applied".into(),
        r.coord.tunes_applied.to_string(),
    ]);
    t.row_owned(vec![
        "Msgs per request".into(),
        format!(
            "{:.2}",
            r.coord.messages_sent as f64 / r.rubis.completed.max(1) as f64
        ),
    ]);
    t
}

// ----------------------------------------------------------------------
// R1 / R2 — coordination under an unreliable channel
// ----------------------------------------------------------------------

/// R1: coordination benefit vs. message-loss rate. Table-1-style deltas
/// (mean RUBiS response time vs. the uncoordinated baseline) as the
/// coordination channel's drop probability sweeps 0 → 20%.
///
/// The expected shape: the baseline sends no coordination traffic, so it
/// is loss-invariant by construction; fire-and-forget coordination decays
/// toward (or past) the baseline as tunes are silently lost and the
/// policy's view of the communicated weights drifts from reality; ack/
/// retry recovers most of the lossless benefit at the cost of retransmit
/// traffic.
///
/// Response means under RUBiS are heavy-tailed (σ ≈ half the mean), so a
/// single run's mean moves several percent with the fault draws alone;
/// every cell averages `R1_SEEDS` independent seeds to isolate the loss
/// effect from that noise. Counter columns are per-run means.
pub fn reliability_r1(cx: &mut Runner, seed: u64) -> Table {
    const R1_SEEDS: u64 = 5;
    let scenario = RubisScenario::read_write_mix(24);
    let mut t = Table::new(
        "R1 — coordination benefit vs message-loss rate (RUBiS mean ms)",
        &[
            "loss %",
            "Base",
            "f&f",
            "ack/retry",
            "f&f change %",
            "ack change %",
            "drops",
            "retransmits",
            "gave up",
            "degraded s",
        ],
    );
    let n = R1_SEEDS as f64;
    // The baseline sends no coordination traffic, so it never draws from
    // the fault stream: one run per seed serves every loss rate.
    let mut b = 0.0;
    for s in seed..seed + R1_SEEDS {
        let none = FaultProfile::none();
        b += mean_response_ms(&run_rubis_faulty(
            cx,
            PolicyKind::None,
            scenario,
            s,
            none,
            None,
        ));
    }
    let b = b / n;
    for loss in [0.0, 0.05, 0.10, 0.20] {
        let profile = FaultProfile::none().with_drop(loss);
        let (mut f, mut a) = (0.0, 0.0);
        let (mut drops, mut retx, mut gave_up, mut degraded) = (0u64, 0u64, 0u64, 0.0f64);
        for s in seed..seed + R1_SEEDS {
            let ff = run_rubis_faulty(cx, PolicyKind::RequestType, scenario, s, profile, None);
            let ack = run_rubis_faulty(
                cx,
                PolicyKind::RequestType,
                scenario,
                s,
                profile,
                Some(ReliableConfig::default()),
            );
            f += mean_response_ms(&ff);
            a += mean_response_ms(&ack);
            drops += ff.coord.channel_drops + ack.coord.channel_drops;
            retx += ack.coord.retransmits;
            gave_up += ack.coord.gave_up;
            degraded += ack.coord.degraded_secs;
        }
        let (f, a) = (f / n, a / n);
        let pct = |v: f64| {
            if b > 0.0 {
                format!("{:+.1}", (v / b - 1.0) * 100.0)
            } else {
                "0.0".into()
            }
        };
        t.row_owned(vec![
            format!("{:.0}", loss * 100.0),
            fmt(b),
            fmt(f),
            fmt(a),
            pct(f),
            pct(a),
            (drops / R1_SEEDS).to_string(),
            (retx / R1_SEEDS).to_string(),
            (gave_up / R1_SEEDS).to_string(),
            fmt(degraded / n),
        ]);
    }
    t
}

/// R2: ack/retry vs. fire-and-forget under combined loss, jitter, and
/// duplication — the full fault profile rather than R1's pure loss — with
/// the delivery-layer counters that explain the difference.
pub fn reliability_r2(cx: &mut Runner, seed: u64) -> Table {
    let scenario = RubisScenario::read_write_mix(24);
    let faults = FaultProfile::none()
        .with_drop(0.10)
        .with_dup(0.05)
        .with_jitter(Jitter::Exponential {
            mean: Nanos::from_micros(20),
        });
    let mut t = Table::new(
        "R2 — delivery strategy under loss + jitter + duplication (RUBiS)",
        &[
            "Variant",
            "mean ms",
            "msgs",
            "drops",
            "dups",
            "retransmits",
            "acked",
            "gave up",
            "dup suppressed",
            "degraded s",
        ],
    );
    let variants: [(&str, FaultProfile, Option<ReliableConfig>); 3] = [
        ("f&f, clean channel", FaultProfile::none(), None),
        ("f&f, faulty channel", faults, None),
        (
            "ack/retry, faulty channel",
            faults,
            Some(ReliableConfig::default()),
        ),
    ];
    for (name, profile, reliable) in variants {
        let r = run_rubis_faulty(
            cx,
            PolicyKind::RequestType,
            scenario,
            seed,
            profile,
            reliable,
        );
        t.row_owned(vec![
            name.to_owned(),
            fmt(mean_response_ms(&r)),
            r.coord.messages_sent.to_string(),
            r.coord.channel_drops.to_string(),
            r.coord.channel_dups.to_string(),
            r.coord.retransmits.to_string(),
            r.coord.acked.to_string(),
            r.coord.gave_up.to_string(),
            r.coord.dup_suppressed.to_string(),
            fmt(r.coord.degraded_secs),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// Adversarial tenants — price of anarchy
// ----------------------------------------------------------------------

fn run_rubis_adversarial(
    cx: &mut Runner,
    policy: PolicyKind,
    scenario: RubisScenario,
    seed: u64,
    advs: &[AdversarySpec],
    defenses: Option<PolicerConfig>,
) -> RunReport {
    let mut b = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .adversaries(advs.to_vec());
    if let Some(cfg) = defenses {
        b = b.coord_defenses(cfg);
    }
    let mut sim = b.build_rubis(scenario);
    cx.run(&mut sim, RUBIS_SECS)
}

/// The strategy mix for `n` adversarial tenants: inflater, spammer,
/// free-rider, repeating.
fn adversary_mix(n: usize) -> Vec<AdversarySpec> {
    (0..n)
        .map(|i| match i % 3 {
            0 => AdversarySpec::inflate(),
            1 => AdversarySpec::spam(),
            _ => AdversarySpec::free_ride(),
        })
        .collect()
}

/// A1 (adversarial): price-of-anarchy sweep. Each row adds strategic
/// tenants (inflater / Trigger-spammer / free-rider mix) to the RUBiS
/// platform and compares five worlds on mean response time:
///
/// * **honest** — coordinated, zero extra tenants (computed once;
///   repeated per row so the CSV is self-contained);
/// * **honest+load** — the same tenant population behaving honestly:
///   every extra tenant runs its CPU load but games nothing. This is the
///   cooperative counterfactual of the same game, and the baseline the
///   recovery metric uses — a tenant's fair-share consumption is
///   legitimate, so only the damage its *strategic behavior* adds on top
///   counts as the gap;
/// * **non-coop** — no coordination policy at all, adversaries present:
///   the non-cooperative equilibrium;
/// * **coord** — the request-type policy running undefended while the
///   adversaries game the same Tune/Trigger channel;
/// * **coord+def** — the same policy with [`PolicerConfig`] defenses
///   (per-entity rate limits + reputation-weighted discounting).
///
/// The *price of anarchy* column is `non-coop / honest+load` — worst
/// equilibrium over cooperative outcome for the same set of players —
/// and *recovered %* is [`summary::gap_recovered`] × 100 over
/// (honest+load, coord, coord+def): the share of the gap the gaming
/// opens (within coordinated runs) that the defenses claw back.
/// Adversarial congestion is heavy-tailed, so every cell averages
/// `A1_SEEDS` independent seeds; counter columns are per-run means from
/// the defended runs.
pub fn anarchy_a1(cx: &mut Runner, seed: u64) -> Table {
    const A1_SEEDS: u64 = 3;
    let scenario = RubisScenario::read_write_mix(24);
    let mut t = Table::new(
        "A1 — price of anarchy vs strategic tenants (RUBiS mean ms)",
        &[
            "adversaries",
            "honest",
            "honest+load",
            "non-coop",
            "coord",
            "coord+def",
            "PoA",
            "recovered %",
            "throttled",
            "discounted",
        ],
    );
    let honest: f64 = (seed..seed + A1_SEEDS)
        .map(|s| mean_response_ms(&run_rubis(cx, PolicyKind::RequestType, scenario, s)))
        .sum::<f64>()
        / A1_SEEDS as f64;
    for n in [0usize, 1, 2, 4] {
        let advs = adversary_mix(n);
        // The cooperative counterfactual: same tenant count, all honest
        // (free-riders consume CPU but send nothing).
        let well_behaved: Vec<AdversarySpec> = (0..n).map(|_| AdversarySpec::free_ride()).collect();
        let (mut load, mut nc, mut co, mut de) = (0.0, 0.0, 0.0, 0.0);
        let (mut throttled, mut discounted) = (0u64, 0u64);
        for s in seed..seed + A1_SEEDS {
            load += mean_response_ms(&run_rubis_adversarial(
                cx,
                PolicyKind::RequestType,
                scenario,
                s,
                &well_behaved,
                None,
            ));
            let noncoop = run_rubis_adversarial(cx, PolicyKind::None, scenario, s, &advs, None);
            let coord =
                run_rubis_adversarial(cx, PolicyKind::RequestType, scenario, s, &advs, None);
            let defended = run_rubis_adversarial(
                cx,
                PolicyKind::RequestType,
                scenario,
                s,
                &advs,
                Some(PolicerConfig::default()),
            );
            nc += mean_response_ms(&noncoop);
            co += mean_response_ms(&coord);
            de += mean_response_ms(&defended);
            throttled += defended.coord.throttled;
            discounted += defended.coord.discounted;
        }
        let k = A1_SEEDS as f64;
        let (load, nc, co, de) = (load / k, nc / k, co / k, de / k);
        let poa = if load > 0.0 { nc / load } else { 0.0 };
        let recovered = summary::gap_recovered(load, co, de);
        t.row_owned(vec![
            n.to_string(),
            fmt(honest),
            fmt(load),
            fmt(nc),
            fmt(co),
            fmt(de),
            format!("{poa:.2}"),
            format!("{:.1}", recovered * 100.0),
            (throttled / A1_SEEDS).to_string(),
            (discounted / A1_SEEDS).to_string(),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// Inference — the third scheduling island
// ----------------------------------------------------------------------

fn run_inference(
    cx: &mut Runner,
    policy: PolicyKind,
    scenario: InferenceScenario,
    seed: u64,
) -> RunReport {
    let mut sim = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .build_inference(scenario);
    cx.run(&mut sim, INFER_SECS)
}

/// I1: coordinated vs uncoordinated batch tuning under a mixed-SLA tenant
/// population. The InferenceBatch policy leans interactive tenants toward
/// small batches and larger queue weights (and batch tenants the other
/// way); the claim is the Figure 4 shape transplanted to the third
/// island — latency-tenant p99 drops without giving up batch goodput.
pub fn inference_i1(cx: &mut Runner, seed: u64) -> Table {
    let scenario = InferenceScenario::mixed_tenants();
    let base = run_inference(cx, PolicyKind::None, scenario.clone(), seed);
    let coord = run_inference(cx, PolicyKind::InferenceBatch, scenario, seed);
    let mut t = Table::new(
        "I1 — coordinated batch tuning on the accelerator island",
        &[
            "tenant",
            "class",
            "Base p99 ms",
            "Coord p99 ms",
            "p99 change %",
            "Base goodput/s",
            "Coord goodput/s",
            "Base mean batch",
            "Coord mean batch",
        ],
    );
    let secs = |r: &RunReport| r.duration.as_secs_f64().max(1e-9);
    for tb in &base.accel.tenants {
        let Some(tc) = coord.accel.tenant(&tb.name) else {
            continue;
        };
        let p99b = base.rubis.responses.percentile(&tb.name, 0.99);
        let p99c = coord.rubis.responses.percentile(&tb.name, 0.99);
        let pct = if p99b > 0.0 {
            (p99c / p99b - 1.0) * 100.0
        } else {
            0.0
        };
        t.row_owned(vec![
            tb.name.clone(),
            if tb.latency_sensitive {
                "latency".into()
            } else {
                "throughput".into()
            },
            format!("{p99b:.1}"),
            format!("{p99c:.1}"),
            format!("{pct:+.1}"),
            format!("{:.1}", tb.completed as f64 / secs(&base)),
            format!("{:.1}", tc.completed as f64 / secs(&coord)),
            format!("{:.2}", tb.mean_batch),
            format!("{:.2}", tc.mean_batch),
        ]);
    }
    t
}

/// I2: trigger-based batch preemption (the Figure 7 / Table 3 analogue on
/// the accelerator). A device-queue occupancy alarm on the interactive
/// tenant raises a Trigger that preempts the forming batch; the gain is
/// the alarmed tenant's tail, the cost is the colocated batch tenants'
/// batch efficiency.
pub fn inference_i2(cx: &mut Runner, seed: u64) -> Table {
    let scenario = InferenceScenario::trigger_setup();
    let base = run_inference(cx, PolicyKind::None, scenario.clone(), seed);
    let coord = run_inference(cx, PolicyKind::BufferTrigger, scenario, seed);
    let mut t = Table::new(
        "I2 — trigger-based batch preemption vs colocated cost",
        &["Metric", "no-coord", "coord-trigger", "% change"],
    );
    let pct = |b: f64, c: f64| {
        if b.abs() > 1e-12 {
            format!("{:+.2}", (c / b - 1.0) * 100.0)
        } else {
            "0.00".into()
        }
    };
    for tb in &base.accel.tenants {
        let Some(tc) = coord.accel.tenant(&tb.name) else {
            continue;
        };
        let (qb, qc) = (tb.queue_p99_ms, tc.queue_p99_ms);
        t.row_owned(vec![
            format!("{} queue p99 ms", tb.name),
            format!("{qb:.2}"),
            format!("{qc:.2}"),
            pct(qb, qc),
        ]);
        let (bb, bc) = (tb.mean_batch, tc.mean_batch);
        t.row_owned(vec![
            format!("{} mean batch", tb.name),
            format!("{bb:.2}"),
            format!("{bc:.2}"),
            pct(bb, bc),
        ]);
    }
    let preempt = |r: &RunReport| r.accel.tenants.iter().map(|t| t.preemptions).sum::<u64>();
    let alarms = |r: &RunReport| r.accel.tenants.iter().map(|t| t.alarms).sum::<u64>();
    t.row_owned(vec![
        "Queue alarms".into(),
        alarms(&base).to_string(),
        alarms(&coord).to_string(),
        String::new(),
    ]);
    t.row_owned(vec![
        "Triggers applied".into(),
        base.coord.triggers_applied.to_string(),
        coord.coord.triggers_applied.to_string(),
        String::new(),
    ]);
    t.row_owned(vec![
        "Batches preempted".into(),
        preempt(&base).to_string(),
        preempt(&coord).to_string(),
        String::new(),
    ]);
    t
}

// ----------------------------------------------------------------------
// E1 / E2 — energy under QoS (the coordinated energy dimension)
// ----------------------------------------------------------------------

/// Seeds averaged per energy cell. Joules integrate utilisation over the
/// whole run, so they are steadier than response means, but the p99
/// constraint check still inherits the arrival draws' tail noise.
const E_SEEDS: u64 = 3;

/// The iso-QoS constraint every energy arm is held to (worst per-tenant
/// p99, milliseconds). Sub-second, but far enough above the unmanaged
/// tail that the controller has rungs to walk: the knob ladder is coarse
/// (one DVFS step stretches service times ~18%, and queueing amplifies
/// it), so a target hugging the baseline p99 leaves no safe rung and the
/// controller correctly refuses to move.
const E_TARGET_MS: f64 = 800.0;

/// Client population for the energy runs. Lighter than the Table-1 mix
/// on purpose: the energy question is only interesting when the platform
/// has QoS headroom to trade — at saturation the controller (correctly)
/// refuses to move and every arm collapses onto the baseline.
const E_CLIENTS: u32 = 8;

/// Worst per-request-type p99 in milliseconds — the whole-run analogue
/// of the signal the energy controller samples per decision window.
/// Types with fewer than five completions are skipped (a p99 over three
/// samples is noise, and the controller ignores them too).
fn worst_p99_ms(r: &RunReport) -> f64 {
    let mut worst = r.rubis.responses.overall_percentile(0.99);
    for (name, s) in r.rubis.responses.iter() {
        if s.count() >= 5 {
            worst = worst.max(r.rubis.responses.percentile(name, 0.99));
        }
    }
    worst
}

/// One energy arm: RUBiS under the RequestType policy with the given
/// energy dimension and (optionally) a power cap on top.
fn run_rubis_energy(
    cx: &mut Runner,
    scenario: RubisScenario,
    seed: u64,
    energy: EnergyConfig,
    cap: Option<(f64, PowerStrategy)>,
) -> RunReport {
    let mut b = PlatformBuilder::new()
        .seed(seed)
        .policy(PolicyKind::RequestType)
        .energy(energy);
    if let Some((w, s)) = cap {
        b = b.power_cap(w, s);
    }
    let mut sim = b.build_rubis(scenario);
    cx.run(&mut sim, RUBIS_SECS)
}

/// Seed-averaged accounting for one energy arm. `p99_ms` is the *worst*
/// seed's worst per-type p99 — the iso-QoS claim has to hold on every
/// seed, not on average.
struct EnergyArm {
    joules: f64,
    mean_watts: f64,
    p99_ms: f64,
    violations: u64,
    knob_actions: u64,
    descents: u64,
    backoffs: u64,
    final_dvfs: u32,
    final_ways: u32,
    final_membw: u32,
}

fn energy_arm(
    cx: &mut Runner,
    scenario: RubisScenario,
    seed: u64,
    energy: EnergyConfig,
    cap: Option<(f64, PowerStrategy)>,
) -> EnergyArm {
    let mut a = EnergyArm {
        joules: 0.0,
        mean_watts: 0.0,
        p99_ms: 0.0,
        violations: 0,
        knob_actions: 0,
        descents: 0,
        backoffs: 0,
        final_dvfs: 0,
        final_ways: 0,
        final_membw: 0,
    };
    for s in seed..seed + E_SEEDS {
        let r = run_rubis_energy(cx, scenario, s, energy, cap.clone());
        let secs = r.duration.as_secs_f64().max(1e-9);
        a.joules += r.energy.total_joules();
        a.mean_watts += r.energy.total_joules() / secs;
        a.p99_ms = a.p99_ms.max(worst_p99_ms(&r));
        a.violations += r.energy.violations;
        a.knob_actions += r.energy.knob_actions;
        a.descents += r.energy.descents;
        a.backoffs += r.energy.backoffs;
        if s == seed {
            // Final operating points are reported from the first seed;
            // they are a qualitative "where did the walk settle" signal,
            // not an average.
            a.final_dvfs = r.energy.final_dvfs_percent;
            a.final_ways = r.energy.final_ways;
            a.final_membw = r.energy.final_membw_percent;
        }
    }
    let k = E_SEEDS as f64;
    a.joules /= k;
    a.mean_watts /= k;
    a
}

/// E1: energy saved at iso-p99 — the QoS-constrained coordinated energy
/// controller vs uncoordinated power capping.
///
/// All three arms meter energy through the *same* power model (the two
/// baselines use [`EnergyConfig::frozen`], which enables the metering and
/// the uncore terms but pins every knob at full performance), so the
/// joules columns are directly comparable. The capping arm reacts to
/// *watts* with per-domain CPU caps and no QoS feedback: it only saves
/// energy by throttling whoever is biggest, and pays for it in tail
/// latency. The coordinated arm walks the DVFS/cache/bandwidth lattice
/// downward only while the worst per-tenant p99 holds under the target,
/// backing off on violations — energy falls *and* the constraint holds.
pub fn energy_e1(cx: &mut Runner, seed: u64) -> Table {
    let scenario = RubisScenario::read_write_mix(E_CLIENTS);
    let mut t = Table::new(
        "E1 — energy under a p99 QoS target: coordinated knobs vs uncoordinated capping",
        &[
            "Config",
            "joules",
            "mean W",
            "worst p99 ms",
            "p99 under target",
            "violations",
            "knob actions",
        ],
    );
    let mut row = |label: &str, a: EnergyArm| {
        t.row_owned(vec![
            label.into(),
            fmt(a.joules),
            fmt(a.mean_watts),
            fmt(a.p99_ms),
            yesno(a.p99_ms <= E_TARGET_MS),
            (a.violations / E_SEEDS).to_string(),
            (a.knob_actions / E_SEEDS).to_string(),
        ]);
    };
    row(
        "no management",
        energy_arm(cx, scenario, seed, EnergyConfig::frozen(E_TARGET_MS), None),
    );
    // Two capping arms bracket the coordinated one: a mild cap that
    // happens to hold the tail but barely saves energy, and a cap sized
    // to the coordinated arm's power draw that — lacking any QoS
    // feedback — blows the tail out by an order of magnitude.
    row(
        "uncoordinated cap 105W",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::frozen(E_TARGET_MS),
            Some((105.0, PowerStrategy::BiggestConsumer)),
        ),
    );
    row(
        "uncoordinated cap 90W",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::frozen(E_TARGET_MS),
            Some((90.0, PowerStrategy::BiggestConsumer)),
        ),
    );
    row(
        "coordinated energy",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::coordinated(E_TARGET_MS),
            None,
        ),
    );
    t
}

/// E2: the three-knob ablation — each knob alone vs all three
/// coordinated, at the same QoS target.
///
/// A disabled axis is a one-rung ladder the controller can never step,
/// so each single-knob arm is the same controller walking a shorter
/// lattice. The claim is superadditivity in reach, not in rate: DVFS
/// alone strands the uncore power the cache/bandwidth knobs reclaim (and
/// vice versa), so the coordinated walk settles at lower power than any
/// single axis can reach — under the same p99 constraint.
pub fn energy_e2(cx: &mut Runner, seed: u64) -> Table {
    let scenario = RubisScenario::read_write_mix(E_CLIENTS);
    let mut t = Table::new(
        "E2 — knob ablation at iso-QoS: each axis alone vs coordinated",
        &[
            "Config",
            "joules",
            "saved %",
            "worst p99 ms",
            "descents",
            "backoffs",
            "final dvfs %",
            "final ways",
            "final membw %",
        ],
    );
    let frozen = energy_arm(cx, scenario, seed, EnergyConfig::frozen(E_TARGET_MS), None);
    let baseline_joules = frozen.joules;
    let mut row = |label: &str, a: EnergyArm| {
        let saved = if baseline_joules > 0.0 {
            (1.0 - a.joules / baseline_joules) * 100.0
        } else {
            0.0
        };
        t.row_owned(vec![
            label.into(),
            fmt(a.joules),
            format!("{saved:.1}"),
            fmt(a.p99_ms),
            (a.descents / E_SEEDS).to_string(),
            (a.backoffs / E_SEEDS).to_string(),
            a.final_dvfs.to_string(),
            a.final_ways.to_string(),
            a.final_membw.to_string(),
        ]);
    };
    row("frozen (all knobs pinned)", frozen);
    row(
        "dvfs only",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::dvfs_only(E_TARGET_MS),
            None,
        ),
    );
    row(
        "cache ways only",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::cache_only(E_TARGET_MS),
            None,
        ),
    );
    row(
        "membw share only",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::membw_only(E_TARGET_MS),
            None,
        ),
    );
    row(
        "coordinated (all three)",
        energy_arm(
            cx,
            scenario,
            seed,
            EnergyConfig::coordinated(E_TARGET_MS),
            None,
        ),
    );
    t
}

// ----------------------------------------------------------------------
// F1 / F2 — fleet-scale sharded worlds
// ----------------------------------------------------------------------

/// Simulated seconds per fleet slice (smoke-capped like every run).
/// Sized with [`F1_SLICES`] so the full F1 sweep — one baseline plus
/// nine coordinated fleets — dispatches over 100M island events at the
/// default 12-shard fleet (~740 events per shard-second).
const F1_SLICE_SECS: u64 = 300;

/// Coordination rounds (slices) per fleet run. The first slice runs on
/// uniform caps for both arms, so the coordinated arm's benefit has to
/// materialise — and be measured — over the remaining rounds.
const F1_SLICES: u32 = 4;

/// The heterogeneous fleet the F-experiments run: ncpus cycle 3/2/1 and
/// every shard's open-loop offered load exceeds the base admission cap
/// (erlangs 96/48/64 against a cap of 48), so uniform caps melt the weak
/// shards and cap-rebalancing has real work to do.
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

/// Fleet configuration shared by the F-experiments: admission caps start
/// uniform at 48 concurrent sessions per shard (clamped to 8..=96), a
/// rebalance corrects half the pressure imbalance per round, and every
/// coordination round waits 2 ms for envelopes before acting.
pub fn fleet_cfg(
    seed: u64,
    shards: u16,
    depth: u8,
    bus: BusConfig,
    coordinated: bool,
) -> FleetConfig {
    FleetConfig {
        topo: FleetTopology::new(shards, depth, 4),
        bus,
        coordinated,
        base_cap: 48,
        min_cap: 8,
        max_cap: 96,
        gain: 0.5,
        window: Nanos::from_millis(2),
        seed,
    }
}

/// Runs one fleet: `slices` coordination rounds of `slice_secs` simulated
/// seconds (smoke-capped), each round fanning the shard builds across
/// `jobs` scoped pool threads and merging reports in shard order. The
/// shard runs and the fleet report are booked into `cx`'s ledger on the
/// calling thread. The returned report is a pure function of `(cfg,
/// slices, slice_secs)` — `jobs` must not affect a byte of it, which is
/// exactly what F2 and the ci.sh byte-compare assert.
pub fn run_fleet(
    cx: &mut Runner,
    cfg: FleetConfig,
    slices: u32,
    slice_secs: u64,
    jobs: usize,
) -> FleetReport {
    let mut state = FleetState::new(cfg, fleet_plans(cfg.topo.shards));
    for slice in 0..slices {
        let specs = state.specs(slice, cx.capped(slice_secs));
        let reports = pool::parallel_map(jobs, specs, |spec| spec.build().run(spec.duration));
        for r in &reports {
            cx.ledger.book(r);
        }
        state.absorb(&reports);
    }
    let r = state.report();
    cx.ledger.fleets.push(r.clone());
    r
}

/// The three cross-node bus conditions F1 sweeps. The coordination
/// window is 2 ms, so `fast` envelopes land in their own round, `slow`
/// ones land one round stale, and `lossy` adds 25% frame loss on top —
/// first transmissions that die wait out a 3×-latency retransmit timer
/// and arrive several rounds stale, if at all.
fn f1_buses(base_latency: Nanos) -> Vec<(&'static str, BusConfig)> {
    let reliable = |latency: Nanos| ReliableConfig {
        ack_timeout: Nanos::from_nanos(latency.as_nanos() * 3),
        ..ReliableConfig::default()
    };
    let fast = BusConfig {
        latency: base_latency,
        fault: FaultProfile::none(),
        reliable: reliable(base_latency),
    };
    let slow_lat = Nanos::from_nanos(base_latency.as_nanos() * 30);
    let slow = BusConfig {
        latency: slow_lat,
        fault: FaultProfile::none(),
        reliable: reliable(slow_lat),
    };
    let lossy = BusConfig {
        latency: slow_lat,
        fault: FaultProfile::none().with_drop(0.25),
        reliable: reliable(slow_lat),
    };
    vec![
        ("fast 100us", fast),
        ("slow 3ms", slow),
        ("lossy 3ms/25%", lossy),
    ]
}

/// F1: fleet-scale coordination benefit vs tree depth × cross-node bus
/// quality. One uncoordinated baseline (caps pinned at 48 — bus-
/// invariant by construction, repeated per bus block so the CSV is
/// self-contained) against coordinated fleets at depth 1 (flat, all
/// rebalancing over the cross-node bus), 2 (racks rebalance locally over
/// 8×-faster intra-rack lanes) and 3 (node-group pre-balance under the
/// racks). The expected shape: coordination beats the baseline
/// everywhere the envelopes arrive, the flat tree degrades hardest as
/// the cross-node bus slows and loses frames, and deeper trees hold
/// most of their benefit because rack-local rebalancing never leaves
/// the building.
pub fn fleet_f1(cx: &mut Runner, seed: u64) -> Table {
    let shards = cx.shards();
    let jobs = pool::default_jobs();
    let mut t = Table::new(
        "F1 — fleet coordination benefit vs tree depth x cross-node bus",
        &[
            "bus",
            "depth",
            "arm",
            "events",
            "offered",
            "adm %",
            "X (req/s)",
            "mean ms",
            "vs base %",
            "late %",
            "tunes l0/l1/l2",
            "drops",
        ],
    );
    let base = run_fleet(
        cx,
        fleet_cfg(
            seed,
            shards,
            1,
            BusConfig::perfect(Nanos::from_micros(100)),
            false,
        ),
        F1_SLICES,
        F1_SLICE_SECS,
        jobs,
    );
    let mut row = |bus: &str, depth: &str, arm: &str, r: &FleetReport| {
        let (offered, admitted, _) = r.sessions();
        let adm = if offered > 0 {
            admitted as f64 * 100.0 / offered as f64
        } else {
            0.0
        };
        let vs = if base.mean_ms() > 0.0 {
            (r.mean_ms() / base.mean_ms() - 1.0) * 100.0
        } else {
            0.0
        };
        let delivered = r.fleet_bus.delivered + r.rack_bus.delivered;
        let late = r.fleet_bus.late + r.rack_bus.late;
        let late_pct = if delivered > 0 {
            late as f64 * 100.0 / delivered as f64
        } else {
            0.0
        };
        t.row_owned(vec![
            bus.to_owned(),
            depth.to_owned(),
            arm.to_owned(),
            r.total_events().to_string(),
            offered.to_string(),
            fmt(adm),
            fmt(r.throughput()),
            fmt(r.mean_ms()),
            format!("{vs:+.1}"),
            fmt(late_pct),
            format!("{}/{}/{}", r.tunes[0], r.tunes[1], r.tunes[2]),
            (r.fleet_bus.channel_drops
                + r.rack_bus.channel_drops
                + r.fleet_bus.partition_drops
                + r.rack_bus.partition_drops)
                .to_string(),
        ]);
    };
    for (bus_label, bus) in f1_buses(Nanos::from_micros(100)) {
        row(bus_label, "-", "base", &base);
        for depth in 1..=3u8 {
            let r = run_fleet(
                cx,
                fleet_cfg(seed, shards, depth, bus, true),
                F1_SLICES,
                F1_SLICE_SECS,
                jobs,
            );
            row(bus_label, &depth.to_string(), "coord", &r);
        }
    }
    t
}

/// F2: shard determinism. The same lossy depth-2 fleet runs with the
/// shard pool on 1 worker, on 4 workers, and once more on 1 worker (the
/// replay); every run must land on the same [`FleetReport::digest`] —
/// same events, same sessions, same bus counters, bit for bit. The
/// digest is over [`FleetReport::canonical`], which excludes every
/// wall-clock and host-configuration field.
pub fn fleet_f2(cx: &mut Runner, seed: u64) -> Table {
    let shards = cx.shards().min(6);
    let bus = f1_buses(Nanos::from_micros(100))
        .pop()
        .expect("bus sweep is non-empty")
        .1;
    let cfg = fleet_cfg(seed, shards, 2, bus, true);
    let mut t = Table::new(
        "F2 — N-shard replay bit-identity across thread counts",
        &[
            "run",
            "shards",
            "depth",
            "events",
            "completed",
            "digest",
            "matches jobs=1",
        ],
    );
    let runs = [("jobs=1", 1usize), ("jobs=4", 4), ("replay jobs=1", 1)];
    let mut first: Option<u64> = None;
    for (label, jobs) in runs {
        let r = run_fleet(cx, cfg, 2, 20, jobs);
        let digest = r.digest();
        let reference = *first.get_or_insert(digest);
        let completed: u64 = r.per_shard.iter().map(|s| s.completed).sum();
        t.row_owned(vec![
            label.to_owned(),
            r.shards.to_string(),
            r.depth.to_string(),
            r.total_events().to_string(),
            completed.to_string(),
            format!("{digest:016x}"),
            yesno(digest == reference),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// Experiment registry
// ----------------------------------------------------------------------

/// One independently runnable experiment unit: a row of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The unit's id, as the `experiments` binary and the
    /// `per_experiment` block of `BENCH_experiments.json` name it.
    pub id: &'static str,
    /// A short selection name for the unit.
    pub alias: Option<&'static str>,
    /// The selection groups the unit belongs to.
    pub groups: &'static [&'static str],
    /// The slugs (CSV file stems) of the tables `run` returns, in order.
    pub slugs: &'static [&'static str],
    /// Runs the unit through the runner with a seed.
    pub run: fn(&mut Runner, u64) -> Vec<Table>,
}

impl Experiment {
    /// Runs the unit and pairs each table with its slug.
    pub fn tables(&self, cx: &mut Runner, seed: u64) -> Vec<(&'static str, Table)> {
        let tables = (self.run)(cx, seed);
        assert_eq!(
            tables.len(),
            self.slugs.len(),
            "{}: one table per slug",
            self.id
        );
        self.slugs.iter().copied().zip(tables).collect()
    }
}

/// A registry row for a unit that renders one table, whose slug is the
/// unit's id.
macro_rules! one {
    ($id:literal, $alias:expr, $groups:expr, $table:expr) => {
        Experiment {
            id: $id,
            alias: $alias,
            groups: $groups,
            slugs: &[$id],
            run: |cx, seed| vec![$table(cx, seed)],
        }
    };
}

/// Every experiment unit, in paper order: the one list the `experiments`
/// binary, the benches and the tests select from. A unit that renders
/// several tables (`rubis`, `fig7`) runs its simulations once for all of
/// them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "rubis",
        alias: None,
        groups: &["ablations"],
        slugs: &[
            "fig2",
            "table1",
            "fig4",
            "fig4_browsing",
            "table2",
            "fig5",
            "overhead",
            "a2_hysteresis",
        ],
        run: rubis,
    },
    one!("fig6", None, &[], fig6),
    Experiment {
        id: "fig7",
        alias: None,
        groups: &[],
        slugs: &["fig7_series", "fig7_summary", "table3"],
        run: fig7,
    },
    one!("a1_channel_latency", None, &["ablations"], ablation_a1),
    one!("a3_notification", None, &["ablations"], ablation_a3),
    one!("a4_ixp_threads", None, &["ablations"], ablation_a4),
    one!("a5_trigger_rate", None, &["ablations"], ablation_a5),
    one!("a6_accounting_mode", None, &["ablations"], ablation_a6),
    one!("a1_price_of_anarchy", Some("a1"), &[], anarchy_a1),
    one!("p1_power_capping", None, &["extensions"], extension_p1),
    one!("s1_fabric_scalability", None, &["extensions"], |_, seed| {
        extension_s1(seed)
    }),
    one!("r1_loss_sweep", None, &[], reliability_r1),
    one!("r2_reliability", None, &[], reliability_r2),
    one!(
        "i1_inference_batching",
        Some("i1"),
        &["inference"],
        inference_i1
    ),
    one!(
        "i2_batch_preemption",
        Some("i2"),
        &["inference"],
        inference_i2
    ),
    one!("e1_energy_qos", Some("e1"), &["energy"], energy_e1),
    one!("e2_energy_ablation", Some("e2"), &["energy"], energy_e2),
    one!("f1_fleet_scale", Some("f1"), &["fleet"], fleet_f1),
    one!("f2_fleet_determinism", Some("f2"), &["fleet"], fleet_f2),
];

/// The units a selection name resolves to, in registry order: every unit
/// for `all`, else each unit whose id, alias, group or one of whose table
/// slugs is `name`. `None` when nothing answers to it.
pub fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    let units: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| {
            name == "all"
                || e.id == name
                || e.alias == Some(name)
                || e.groups.contains(&name)
                || e.slugs.contains(&name)
        })
        .collect();
    (!units.is_empty()).then_some(units)
}

/// One experiment unit's output: the unit, its `(slug, table)` pairs and
/// the ledger of the runs it made.
pub type UnitOutput = (&'static Experiment, Vec<(&'static str, Table)>, RunLedger);

/// Runs the given experiment units on up to `jobs` workers, each with
/// `settings` and a fresh ledger, and returns them in submission order —
/// tables and ledgers alike identical to a serial run with the same seed.
pub fn run_experiments(
    settings: &Runner,
    jobs: usize,
    units: Vec<&'static Experiment>,
    seed: u64,
) -> Vec<UnitOutput> {
    pool::parallel_map(jobs, units, |unit| {
        let mut cx = settings.fresh();
        let tables = unit.tables(&mut cx, seed);
        (unit, tables, cx.ledger)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a table's CSV into rows of cells, headers dropped.
    fn csv_rows(t: &Table) -> Vec<Vec<String>> {
        t.to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect()
    }

    fn num(cell: &str) -> f64 {
        cell.parse::<f64>()
            .unwrap_or_else(|_| panic!("cell '{cell}' is not numeric"))
    }

    #[test]
    fn fmt_renders_one_decimal() {
        assert_eq!(fmt(3.15159), "3.2");
        assert_eq!(fmt(0.0), "0.0");
        assert_eq!(fmt(99.95), "100.0");
    }

    #[test]
    fn yesno_renders_verdicts() {
        assert_eq!(yesno(true), "yes");
        assert_eq!(yesno(false), "NO");
    }

    #[test]
    fn fig2_rows_have_ordered_summary_statistics() {
        let mut cx = Runner::new();
        let r = run_rubis(
            &mut cx,
            PolicyKind::None,
            RubisScenario::read_write_mix(24),
            SEED,
        );
        let t = fig2(&r);
        assert!(!t.is_empty(), "fig2 reports at least one request type");
        for row in csv_rows(&t) {
            assert_eq!(row.len(), 7, "type,min,max,mean,sd,p95,p99");
            let (min, max, mean, sd) = (num(&row[1]), num(&row[2]), num(&row[3]), num(&row[4]));
            let (p95, p99) = (num(&row[5]), num(&row[6]));
            assert!(min <= mean + 0.05 && mean <= max + 0.05, "{row:?}");
            assert!(sd >= 0.0, "{row:?}");
            // The percentiles come from a log-bucketed histogram, so they
            // report bucket upper edges and may exceed the exact max; only
            // their ordering is guaranteed.
            assert!(p95 <= p99 + 0.05 && p99 > 0.0, "{row:?}");
        }
    }

    #[test]
    fn table3_change_column_matches_its_inputs() {
        let t = fig7(&mut Runner::new(), SEED).remove(2);
        let rows = csv_rows(&t);
        assert_eq!(rows.len(), 2, "one row per guest domain");
        for row in rows {
            let (base, coord, pct) = (num(&row[1]), num(&row[2]), num(&row[3]));
            assert!(base > 0.0, "baseline fps must be positive: {row:?}");
            let expect = (coord / base - 1.0) * 100.0;
            // Both inputs are printed at one decimal, so recomputing from
            // the rendered cells carries rounding of its own.
            assert!(
                (pct - expect).abs() < 0.5,
                "% change {pct} inconsistent with {base} -> {coord} ({expect:.2})"
            );
        }
    }
}
