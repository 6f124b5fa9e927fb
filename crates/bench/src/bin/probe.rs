//! Calibration probe: quick, detailed looks at the headline scenarios.
//!
//! Usage: `probe [all|rubis|inference|static|mplayer|trigger|energy|fleet]`
//!
//! * `rubis` — baseline vs coordinated read-write mix with per-type stats
//! * `inference` — the benchmark's `inference_mix` platform (four mixed
//!   tenants, `InferenceBatch`, seed 42, 150 s) with per-tenant stats
//! * `static` — static weight assignments (sanity-checks the scheduler's
//!   sensitivity outside the coordination loop)
//! * `mplayer` — the three Figure 6 weight configurations
//! * `trigger` — Figure 7 / Table 3 buffer-trigger runs
//! * `energy` — the E1 arms (frozen metering vs coordinated knob walk)
//!   with joules, knob residency and the controller counters
//! * `fleet` — a small sharded fleet, uncoordinated vs depth-2
//!   coordinated, with per-shard event/coordination counters

use bench::summary;
use coord::PolicyKind;
use fleet::BusConfig;
use platform::{EnergyConfig, InferenceScenario, MplayerScenario, PlatformBuilder, RubisScenario};
use simcore::Nanos;

fn rubis(policy: PolicyKind, label: &str) {
    rubis_w(policy, label, None)
}

fn rubis_w(policy: PolicyKind, label: &str, weights: Option<(u32, u32, u32)>) {
    let mut sim = PlatformBuilder::new()
        .seed(42)
        .policy(policy)
        .build_rubis(RubisScenario::read_write_mix(24));
    if let Some((w, a, d)) = weights {
        sim.set_weight_by_name("web", w);
        sim.set_weight_by_name("app", a);
        sim.set_weight_by_name("db", d);
    }
    let r = sim.run(Nanos::from_secs(60));
    println!(
        "== RUBiS {label} (sim rate {:.0} events/s)",
        r.sim_rate.events_per_sec
    );
    println!(
        "  throughput {:.1} req/s  sessions {}  avg-session {:.1}s  efficiency {:.1}",
        r.rubis.throughput, r.rubis.sessions, r.rubis.avg_session_secs, r.efficiency
    );
    summary::print_cpu(&r, true);
    summary::print_islands(&r);
    summary::print_sources(&r);
    println!(
        "  coord: sent {} tunes {} trig {}  net: drops {} link {} deliv {}",
        r.coord.messages_sent,
        r.coord.tunes_applied,
        r.coord.triggers_applied,
        r.net.ixp_drops,
        r.net.link_drops,
        r.net.delivered
    );
    println!("  guest_drops {}", r.net.guest_drops);
    summary::print_responses(&r);
}

fn inference() {
    let mut sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::InferenceBatch)
        .build_inference(InferenceScenario::mixed_tenants());
    let r = sim.run(Nanos::from_secs(150));
    println!(
        "== inference mixed tenants (sim rate {:.0} events/s)",
        r.sim_rate.events_per_sec
    );
    summary::print_cpu(&r, false);
    summary::print_islands(&r);
    summary::print_sources(&r);
    for t in summary::accel_tenants(&r) {
        println!(
            "  {:12} p99 {:7.1} ms  goodput {:6.1}/s  batch {:4.1}  queue p99 {:6.1} ms",
            t.name, t.p99_ms, t.goodput, t.mean_batch, t.queue_p99_ms
        );
    }
}

fn mplayer(w1: u32, w2: u32) {
    let mut sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::None)
        .build_mplayer(MplayerScenario::figure6(w1, w2));
    let r = sim.run(Nanos::from_secs(60));
    println!("== MPlayer weights {w1}-{w2}");
    summary::print_players(&r);
    summary::print_cpu(&r, false);
    println!("  drops {} delivered {}", r.net.ixp_drops, r.net.delivered);
}

fn energy(cfg: EnergyConfig, label: &str) {
    let mut sim = PlatformBuilder::new()
        .seed(42)
        .policy(PolicyKind::RequestType)
        .energy(cfg)
        .build_rubis(RubisScenario::read_write_mix(8));
    let r = sim.run(Nanos::from_secs(300));
    println!("== energy {label}");
    println!(
        "  throughput {:.1} req/s  worst p99 {:.1} ms",
        r.rubis.throughput,
        r.rubis.responses.overall_percentile(0.99)
    );
    summary::print_energy(&r);
}

fn fleet_probe(coordinated: bool) {
    let cfg = bench::fleet_cfg(
        42,
        6,
        2,
        BusConfig::perfect(Nanos::from_micros(100)),
        coordinated,
    );
    let r = bench::run_fleet(&mut bench::Runner::new(), cfg, 3, 20, 1);
    println!(
        "== fleet {} (6 shards, depth 2)",
        if coordinated {
            "coordinated"
        } else {
            "uncoordinated"
        }
    );
    summary::print_fleet(&r);
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "all" || which == "rubis" {
        rubis(PolicyKind::None, "baseline");
        rubis(PolicyKind::RequestType, "coordinated");
    }
    if which == "inference" {
        inference();
    }
    if which == "static" {
        rubis_w(
            PolicyKind::None,
            "static 256/512/512",
            Some((256, 512, 512)),
        );
        rubis_w(
            PolicyKind::None,
            "static 512/512/160",
            Some((512, 512, 160)),
        );
        rubis_w(PolicyKind::None, "static 64/64/64", Some((64, 64, 64)));
    }
    if which == "all" || which == "mplayer" {
        mplayer(256, 256);
        mplayer(384, 512);
        mplayer(384, 640);
    }
    if which == "fleet" {
        fleet_probe(false);
        fleet_probe(true);
    }
    if which == "energy" {
        energy(EnergyConfig::frozen(800.0), "frozen (metering only)");
        energy(
            EnergyConfig::coordinated(800.0),
            "coordinated, target 800 ms",
        );
    }
    if which == "trigger" {
        for policy in [PolicyKind::None, PolicyKind::BufferTrigger] {
            let mut sim = PlatformBuilder::new()
                .seed(42)
                .policy(policy)
                .build_mplayer(MplayerScenario::trigger_setup());
            let r = sim.run(Nanos::from_secs(180));
            println!("== trigger policy={:?}", policy);
            summary::print_players(&r);
            let late: Vec<f64> = r
                .buffer_series
                .points()
                .iter()
                .filter(|(t, _)| t.as_millis() > 60_000)
                .map(|&(_, v)| v)
                .collect();
            let late_mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
            println!(
                "  triggers {} buffer max {:.0} late-mean {:.0} drops {}",
                r.coord.triggers_applied,
                r.buffer_series.max_value().unwrap_or(0.0),
                late_mean,
                r.net.ixp_drops
            );
        }
    }
}
