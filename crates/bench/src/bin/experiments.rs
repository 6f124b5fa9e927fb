//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations, printing paper-style tables and writing CSVs to `results/`.
//!
//! Usage: `experiments [--jobs N] [--shards N] [--smoke[=SECS]]
//! [--seed S] [SELECTION]`
//!
//! * `SELECTION` — `all` (default), an experiment id (`experiments list`
//!   prints them), or one of the groups `fig4`, `fig7`, `ablations`,
//!   `extensions`, `fleet`.
//! * `--jobs N` — fan independent experiments across N worker threads
//!   (default: `ARCH_JOBS` or the machine's available parallelism).
//!   Output is byte-identical to `--jobs 1`.
//! * `--shards N` — shard count for the fleet experiments (default 12,
//!   clamped to 2..=64). Output for any fixed N is byte-identical across
//!   `--jobs` values; ci.sh asserts this on a 2-shard fleet.
//! * `--smoke[=SECS]` — cap every simulated run (default 5 simulated
//!   seconds): a fast CI pass that keeps table shapes but not statistics.
//! * `--seed S` — override the default deterministic seed.
//!
//! Besides the per-table CSVs this writes `results/BENCH_experiments.json`
//! with the simulator-throughput block (events dispatched, wall µs,
//! events/sec) and the deterministic per-island dispatch totals for the
//! whole pass.

use metrics::Table;
use simtest::json::Json;
use std::fs;
use std::time::Instant;

fn emit(slug: &str, table: &Table) {
    println!("{table}");
    if fs::create_dir_all("results").is_ok() {
        let path = format!("results/{slug}.csv");
        if let Err(e) = fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}

fn selection(which: &str) -> Option<Vec<&'static str>> {
    let ids = bench::experiment_ids();
    match which {
        "all" => Some(ids.to_vec()),
        "fig4" => Some(vec!["fig4", "fig4_browsing"]),
        "ablations" => Some(
            ids.iter()
                .copied()
                .filter(|id| id.starts_with("a") && id.chars().nth(1).is_some_and(|c| c.is_ascii_digit()))
                .collect(),
        ),
        "extensions" => Some(vec!["p1_power_capping", "s1_fabric_scalability"]),
        "inference" => Some(vec!["i1_inference_batching", "i2_batch_preemption"]),
        "i1" => Some(vec!["i1_inference_batching"]),
        "i2" => Some(vec!["i2_batch_preemption"]),
        "a1" => Some(vec!["a1_price_of_anarchy"]),
        "energy" => Some(vec!["e1_energy_qos", "e2_energy_ablation"]),
        "e1" => Some(vec!["e1_energy_qos"]),
        "e2" => Some(vec!["e2_energy_ablation"]),
        "fleet" => Some(vec!["f1_fleet_scale", "f2_fleet_determinism"]),
        "f1" => Some(vec!["f1_fleet_scale"]),
        "f2" => Some(vec!["f2_fleet_determinism"]),
        id if ids.contains(&id) => Some(vec![ids[ids.iter().position(|x| *x == id).unwrap()]]),
        _ => None,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = bench::pool::take_jobs_flag(&mut args);
    if let Some(shards) = bench::pool::take_shards_flag(&mut args) {
        bench::set_fleet_shards(shards);
    }
    let mut seed = bench::SEED;
    let mut smoke: Option<u64> = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--smoke" {
            smoke = Some(5);
        } else if let Some(v) = a.strip_prefix("--smoke=") {
            smoke = Some(v.parse().unwrap_or(5));
        } else if a == "--seed" {
            seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed);
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().unwrap_or(seed);
        } else {
            rest.push(a);
        }
    }
    if let Some(secs) = smoke {
        bench::set_smoke_cap_secs(secs);
    }
    let which = rest.first().map(String::as_str).unwrap_or("all");
    if which == "list" {
        println!(
            "available: all ablations extensions {}",
            bench::experiment_ids().join(" ")
        );
        return;
    }
    let Some(ids) = selection(which) else {
        eprintln!("unknown experiment '{which}' (try `experiments list`)");
        std::process::exit(2);
    };

    let t0 = Instant::now();
    bench::reset_sim_rate_totals();
    let tables = bench::run_experiments(jobs, ids.clone(), seed);
    let wall = t0.elapsed();
    for (slug, table) in &tables {
        emit(slug, table);
    }

    let (events, run_micros) = bench::sim_rate_totals();
    let rate = if run_micros > 0 {
        events as f64 * 1e6 / run_micros as f64
    } else {
        0.0
    };
    println!(
        "{} experiment table(s) regenerated in {:.2?} (jobs={jobs}); CSVs under results/",
        tables.len(),
        wall
    );
    println!(
        "sim rate: {events} events in {:.2} s of simulator time ({rate:.0} events/s)",
        run_micros as f64 / 1e6
    );
    let islands = bench::island_totals();
    println!(
        "islands: x86 {} ixp {} accel {}",
        islands.x86, islands.ixp, islands.accel
    );
    let fleet = bench::fleet_totals();
    if fleet.runs > 0 {
        println!(
            "fleet: {} run(s), {} shard slices, {} events, sessions {}/{} admitted, \
             bus {}/{} delivered ({} late), tunes {}/{}/{}",
            fleet.runs,
            fleet.shard_slices,
            fleet.events,
            fleet.admitted,
            fleet.offered,
            fleet.frames_sent,
            fleet.delivered,
            fleet.late,
            fleet.tunes[0],
            fleet.tunes[1],
            fleet.tunes[2],
        );
    }

    let report = Json::obj(vec![
        ("schema", Json::Str("bench-experiments-v1".into())),
        ("selection", Json::Str(which.into())),
        ("jobs", Json::Num(jobs as f64)),
        ("seed", Json::Num(seed as f64)),
        (
            "smoke_cap_secs",
            smoke.map(|s| Json::Num(s as f64)).unwrap_or(Json::Null),
        ),
        (
            "experiments",
            Json::Arr(ids.iter().map(|id| Json::Str((*id).into())).collect()),
        ),
        (
            "tables",
            Json::Arr(
                tables
                    .iter()
                    .map(|(slug, _)| Json::Str(slug.clone()))
                    .collect(),
            ),
        ),
        (
            "sim_rate",
            Json::obj(vec![
                ("events", Json::Num(events as f64)),
                ("run_wall_micros", Json::Num(run_micros as f64)),
                ("events_per_sec", Json::Num(rate)),
            ]),
        ),
        (
            "events_by_island",
            Json::obj(vec![
                ("x86", Json::Num(islands.x86 as f64)),
                ("ixp", Json::Num(islands.ixp as f64)),
                ("accel", Json::Num(islands.accel as f64)),
            ]),
        ),
        (
            "fleet",
            Json::obj(vec![
                ("runs", Json::Num(fleet.runs as f64)),
                ("shards", Json::Num(bench::fleet_shards() as f64)),
                ("shard_slices", Json::Num(fleet.shard_slices as f64)),
                ("events", Json::Num(fleet.events as f64)),
                (
                    "per_shard_events",
                    Json::Arr(
                        fleet
                            .per_shard_events
                            .iter()
                            .map(|&e| Json::Num(e as f64))
                            .collect(),
                    ),
                ),
                (
                    "sessions",
                    Json::obj(vec![
                        ("offered", Json::Num(fleet.offered as f64)),
                        ("admitted", Json::Num(fleet.admitted as f64)),
                        ("rejected", Json::Num(fleet.rejected as f64)),
                    ]),
                ),
                (
                    "bus",
                    Json::obj(vec![
                        ("frames_sent", Json::Num(fleet.frames_sent as f64)),
                        ("delivered", Json::Num(fleet.delivered as f64)),
                        ("reordered", Json::Num(fleet.reordered as f64)),
                        ("late", Json::Num(fleet.late as f64)),
                    ]),
                ),
                (
                    "tunes_by_level",
                    Json::Arr(
                        fleet.tunes.iter().map(|&t| Json::Num(t as f64)).collect(),
                    ),
                ),
            ]),
        ),
        ("wall_micros", Json::Num(wall.as_micros() as f64)),
    ]);
    if fs::create_dir_all("results").is_ok() {
        let path = "results/BENCH_experiments.json";
        match fs::write(path, report.to_string()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}
