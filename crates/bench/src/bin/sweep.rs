//! Calibration sweep: multi-seed comparison of baseline vs coordinated
//! RUBiS over a configuration grid. Used to choose (and to re-validate)
//! the shipped scenario defaults; edit the `grid` to explore.
//!
//! Accepts `--jobs N`; the per-seed runs fan out across the job pool and
//! the averages are merged in submission order, so the printed grid is
//! identical at any worker count.

use bench::pool;
use bench::summary::RubisOut;
use coord::PolicyKind;
use platform::{PlatformBuilder, RubisScenario};
use simcore::Nanos;

#[derive(Clone, Copy)]
struct Cfg {
    hi: i32,
    lo: i32,
    rxw: u32,
    cap: u32,
    clients: u32,
    think_ms: u64,
    scale: f64,
    rto_ms: u64,
}

fn run(policy: PolicyKind, c: Cfg, seed: u64) -> RubisOut {
    let mut scen = RubisScenario::read_write_mix(c.clients);
    scen.think_mean = Nanos::from_millis(c.think_ms);
    scen.demand_scale = c.scale;
    let mut sim = PlatformBuilder::new()
        .seed(seed)
        .policy(policy)
        .policy_weights(c.hi, c.lo)
        .queue_caps(c.rxw, c.cap)
        .rto_initial(Nanos::from_millis(c.rto_ms))
        .build_rubis(scen);
    RubisOut::of(&sim.run(Nanos::from_secs(60)))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = pool::take_jobs_flag(&mut args).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(2);
    });
    println!(
        "{:>4} {:>4} {:>3} {:>3} {:>3} {:>4} {:>4} | {:>5} {:>6} {:>6} {:>7} {:>5} | {:>5} {:>6} {:>6} {:>7} {:>5} | ratio",
        "hi", "lo", "rxw", "cap", "N", "thnk", "scl", "Xb", "meanB", "sdB", "maxB", "dropB",
        "Xc", "meanC", "sdC", "maxC", "dropC"
    );
    let grid = [
        Cfg { hi: 512, lo: 256, rxw: 8, cap: 10, clients: 24, think_ms: 250, scale: 2.5, rto_ms: 500 },
    ];
    // Average over seeds to beat run-to-run noise; the (policy, seed)
    // pairs are independent simulations, so they all run concurrently.
    let seeds = [42u64, 7, 99, 1234, 5, 6, 777, 2020];
    for c in grid {
        let runs: Vec<(PolicyKind, u64)> = [PolicyKind::None, PolicyKind::RequestType]
            .into_iter()
            .flat_map(|p| seeds.iter().map(move |&s| (p, s)))
            .collect();
        let outs = pool::parallel_map(jobs, runs, |(p, s)| run(p, c, s));
        let (base_outs, coord_outs) = outs.split_at(seeds.len());
        let b = RubisOut::average(base_outs);
        let co = RubisOut::average(coord_outs);
        println!(
            "{:>4} {:>4} {:>3} {:>3} {:>3} {:>4} {:>4.1} | {:>5.1} {:>6.0} {:>6.0} {:>7.0} {:>5} | {:>5.1} {:>6.0} {:>6.0} {:>7.0} {:>5} | X{:+.0}% m{:+.0}% sd{:+.0}%",
            c.hi, c.lo, c.rxw, c.cap, c.clients, c.think_ms, c.scale,
            b.throughput, b.mean, b.sd, b.max, b.drops,
            co.throughput, co.mean, co.sd, co.max, co.drops,
            (co.throughput / b.throughput - 1.0) * 100.0,
            (co.mean / b.mean - 1.0) * 100.0,
            (co.sd / b.sd - 1.0) * 100.0,
        );
    }
}
