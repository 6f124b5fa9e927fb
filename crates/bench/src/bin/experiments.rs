//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations, printing paper-style tables and writing CSVs to `results/`.
//!
//! Usage: `experiments [--jobs N] [--shards N] [--smoke[=SECS]]
//! [--seed S] [SELECTION]`
//!
//! * `SELECTION` — `all` (default), or a name from the registry
//!   `bench::EXPERIMENTS`: a unit's id, its alias (`a1` is the price of
//!   anarchy, not the channel-latency ablation), one of the groups
//!   `ablations` (A1–A6), `extensions`, `inference`, `energy`, `fleet`,
//!   or one of its tables' slugs. A unit always writes all of its
//!   tables: `fig4`, like any slug of the `rubis` unit, writes the six
//!   §3.1 RUBiS tables, and `fig7` writes `fig7_series` and
//!   `fig7_summary`. `experiments list` prints every unit with its
//!   alias, groups and tables.
//! * `--jobs N` — fan independent experiments across N worker threads
//!   (default: `ARCH_JOBS` or the machine's available parallelism).
//!   Output is byte-identical to `--jobs 1`.
//! * `--shards N` — shard count for the fleet experiments (default 12,
//!   clamped to 2..=64). Output for any fixed N is byte-identical across
//!   `--jobs` values; ci.sh asserts this on a 2-shard fleet.
//! * `--smoke[=SECS]` — cap every simulated run (default 5 simulated
//!   seconds, at least 1): a fast CI pass that keeps table shapes but not
//!   statistics.
//! * `--seed S` — override the default deterministic seed.
//!
//! A flag value that does not parse, or a second `SELECTION`, exits 2.
//!
//! Besides the per-table CSVs this writes `results/BENCH_experiments.json`
//! with the simulator-throughput block (events dispatched, wall µs,
//! events/sec), the deterministic per-island dispatch totals, the fleet
//! totals and one `{id, events, run_wall_micros}` entry per experiment.
//! Every experiment returns its own run ledger; the totals are their
//! merge in submission order, so they are exact under any `--jobs`.

use bench::{pool, RunLedger, Runner};
use fleet::{BusStats, FleetReport};
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

/// Prints every registry unit with the names that select it.
fn list() {
    println!("select `all`, or a unit by its id, alias, group or one of its tables:");
    println!("{:<22} {:<6} {:<11} tables", "id", "alias", "groups");
    for e in bench::EXPERIMENTS {
        let groups = if e.groups.is_empty() {
            "-".into()
        } else {
            e.groups.join(",")
        };
        println!(
            "{:<22} {:<6} {:<11} {}",
            e.id,
            e.alias.unwrap_or("-"),
            groups,
            e.slugs.join(" ")
        );
    }
}

/// The parsed command line.
struct Cli {
    jobs: usize,
    runner: Runner,
    seed: u64,
    which: String,
}

fn parse_args(mut args: Vec<String>) -> Result<Cli, String> {
    let jobs = pool::take_jobs_flag(&mut args)?;
    let mut runner = Runner::new();
    if let Some(n) = pool::take_flag(&mut args, "--shards")? {
        runner = runner.with_shards(n);
    }
    let seed = pool::take_flag(&mut args, "--seed")?.unwrap_or(bench::SEED);
    let mut which: Option<String> = None;
    for a in args {
        if a == "--smoke" {
            runner = runner.with_smoke_cap(bench::SMOKE_CAP_SECS);
        } else if let Some(v) = a.strip_prefix("--smoke=") {
            let secs = v
                .parse()
                .map_err(|_| format!("--smoke: cannot parse '{v}'"))?;
            runner = runner.with_smoke_cap(secs);
        } else if let Some(first) = &which {
            return Err(format!("one selection at a time, got '{first}' and '{a}'"));
        } else {
            which = Some(a);
        }
    }
    Ok(Cli {
        jobs,
        runner,
        seed,
        which: which.unwrap_or_else(|| "all".into()),
    })
}

/// Sums `f` over every fleet report.
fn sum(fleets: &[FleetReport], f: impl Fn(&FleetReport) -> u64) -> u64 {
    fleets.iter().map(f).sum()
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn main() {
    let cli = parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let (jobs, which) = (cli.jobs, cli.which.as_str());
    if which == "list" {
        list();
        return;
    }
    let Some(selected) = bench::select(which) else {
        eprintln!("unknown experiment '{which}' (try `experiments list`)");
        std::process::exit(2);
    };
    let ids: Vec<Json> = selected.iter().map(|e| Json::Str(e.id.into())).collect();

    let t0 = Instant::now();
    let units = bench::run_experiments(&cli.runner, jobs, selected, cli.seed);
    let wall = t0.elapsed();
    let mut total = RunLedger::default();
    let mut slugs = Vec::new();
    let mut per_experiment = Vec::new();
    for (unit, tables, ledger) in units {
        for (slug, table) in &tables {
            emit(slug, table);
            slugs.push(Json::Str((*slug).into()));
        }
        per_experiment.push(Json::obj(vec![
            ("id", Json::Str(unit.id.into())),
            ("events", num(ledger.events())),
            ("run_wall_micros", num(ledger.wall_micros)),
        ]));
        total.merge(ledger);
    }

    let (events, run_micros, islands) = (total.events(), total.wall_micros, total.islands);
    let rate = if run_micros > 0 {
        events as f64 * 1e6 / run_micros as f64
    } else {
        0.0
    };
    println!(
        "{} experiment table(s) regenerated in {:.2?} (jobs={jobs}); CSVs under results/",
        slugs.len(),
        wall
    );
    println!(
        "sim rate: {events} events in {:.2} s of simulator time ({rate:.0} events/s)",
        run_micros as f64 / 1e6
    );
    println!(
        "islands: x86 {} ixp {} accel {}",
        islands.x86, islands.ixp, islands.accel
    );

    let fleets = &total.fleets;
    let (offered, admitted, rejected) = fleets
        .iter()
        .map(FleetReport::sessions)
        .fold((0, 0, 0), |(o, a, r), s| (o + s.0, a + s.1, r + s.2));
    let bus = |f: fn(&BusStats) -> u64| sum(fleets, |r| f(&r.fleet_bus) + f(&r.rack_bus));
    let (sent, delivered, late) = (
        bus(|b| b.frames_sent),
        bus(|b| b.delivered),
        bus(|b| b.late),
    );
    let tunes: [u64; 3] = std::array::from_fn(|level| sum(fleets, |r| r.tunes[level]));
    let mut per_shard_events: Vec<u64> = Vec::new();
    for s in fleets.iter().flat_map(|r| &r.per_shard) {
        let i = s.shard as usize;
        if per_shard_events.len() <= i {
            per_shard_events.resize(i + 1, 0);
        }
        per_shard_events[i] += s.events;
    }
    let shard_slices = sum(fleets, |r| r.shards as u64 * r.slices as u64);
    let fleet_events = sum(fleets, FleetReport::total_events);
    if !fleets.is_empty() {
        println!(
            "fleet: {} run(s), {shard_slices} shard slices, {fleet_events} events, \
             sessions {admitted}/{offered} admitted, bus {sent}/{delivered} delivered \
             ({late} late), tunes {}/{}/{}",
            fleets.len(),
            tunes[0],
            tunes[1],
            tunes[2],
        );
    }

    let report = Json::obj(vec![
        ("schema", Json::Str("bench-experiments-v1".into())),
        ("selection", Json::Str(which.into())),
        ("jobs", num(jobs as u64)),
        ("seed", num(cli.seed)),
        (
            "smoke_cap_secs",
            cli.runner.smoke_cap_secs().map_or(Json::Null, num),
        ),
        ("experiments", Json::Arr(ids)),
        ("tables", Json::Arr(slugs)),
        (
            "sim_rate",
            Json::obj(vec![
                ("events", num(events)),
                ("run_wall_micros", num(run_micros)),
                ("events_per_sec", Json::Num(rate)),
            ]),
        ),
        (
            "events_by_island",
            Json::obj(vec![
                ("x86", num(islands.x86)),
                ("ixp", num(islands.ixp)),
                ("accel", num(islands.accel)),
            ]),
        ),
        (
            "fleet",
            Json::obj(vec![
                ("runs", num(fleets.len() as u64)),
                ("shards", num(cli.runner.shards() as u64)),
                ("shard_slices", num(shard_slices)),
                ("events", num(fleet_events)),
                (
                    "per_shard_events",
                    Json::Arr(per_shard_events.into_iter().map(num).collect()),
                ),
                (
                    "sessions",
                    Json::obj(vec![
                        ("offered", num(offered)),
                        ("admitted", num(admitted)),
                        ("rejected", num(rejected)),
                    ]),
                ),
                (
                    "bus",
                    Json::obj(vec![
                        ("frames_sent", num(sent)),
                        ("delivered", num(delivered)),
                        ("reordered", num(bus(|b| b.reordered))),
                        ("late", num(late)),
                    ]),
                ),
                (
                    "tunes_by_level",
                    Json::Arr(tunes.into_iter().map(num).collect()),
                ),
            ]),
        ),
        ("per_experiment", Json::Arr(per_experiment)),
        ("wall_micros", num(wall.as_micros() as u64)),
    ]);
    if fs::create_dir_all("results").is_ok() {
        let path = "results/BENCH_experiments.json";
        match fs::write(path, report.to_string()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<super::Cli, String> {
        parse_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_parse_into_the_runner_settings() {
        let cli = parse(&[
            "--seed",
            "7",
            "--shards=3",
            "--smoke",
            "--jobs",
            "2",
            "fig2",
        ])
        .unwrap();
        assert_eq!((cli.jobs, cli.seed, cli.which.as_str()), (2, 7, "fig2"));
        assert_eq!(
            (cli.runner.shards(), cli.runner.smoke_cap_secs()),
            (3, Some(5))
        );
        let cli = parse(&[]).unwrap();
        assert_eq!((cli.seed, cli.which.as_str()), (bench::SEED, "all"));
        assert_eq!(
            (cli.runner.shards(), cli.runner.smoke_cap_secs()),
            (12, None)
        );
        assert_eq!(
            parse(&["--shards", "100"]).unwrap().runner.shards(),
            64,
            "clamped"
        );
    }

    #[test]
    fn malformed_flags_and_extra_selections_are_rejected() {
        for bad in [
            &["--seed", "x7"][..],
            &["--seed=x7"],
            &["--shards", "abc"],
            &["--smoke=zz"],
            &["--jobs=many"],
            &["fig2", "--seed"],
            &["fig2", "table1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn smoke_cap_is_recorded_as_applied() {
        assert_eq!(
            parse(&["--smoke=0"]).unwrap().runner.smoke_cap_secs(),
            Some(1)
        );
        assert_eq!(
            parse(&["--smoke=3"]).unwrap().runner.smoke_cap_secs(),
            Some(3)
        );
    }

    /// The ids of the units a selection name resolves to.
    fn ids(name: &str) -> Vec<&'static str> {
        bench::select(name)
            .unwrap_or_default()
            .iter()
            .map(|e| e.id)
            .collect()
    }

    #[test]
    fn ablations_are_a1_to_a6_and_a1_is_the_price_of_anarchy() {
        // A2 renders from the `rubis` unit's read-write runs.
        assert_eq!(
            ids("ablations"),
            [
                "rubis",
                "a1_channel_latency",
                "a3_notification",
                "a4_ixp_threads",
                "a5_trigger_rate",
                "a6_accounting_mode",
            ]
        );
        // ci.sh and EXPERIMENTS.md run `experiments a1`.
        assert_eq!(ids("a1"), ["a1_price_of_anarchy"]);
    }

    #[test]
    fn a_table_slug_selects_its_whole_unit() {
        assert_eq!(ids("fig4"), ["rubis"]);
        assert_eq!(ids("fig7_summary"), ["fig7"]);
        assert_eq!(ids("fig7"), ["fig7"]);
        assert_eq!(ids("table3"), ["fig7"]);
        assert_eq!(ids("overhead"), ["rubis"]);
        assert_eq!(ids("a2_hysteresis"), ["rubis"]);
        assert!(ids("a7").is_empty());
    }

    #[test]
    fn all_writes_the_tables_results_digests_pins_in_order() {
        let pinned: Vec<&str> = include_str!("../../../../results/DIGESTS")
            .lines()
            .map(|line| line.split_whitespace().next().expect("slug column"))
            .collect();
        let all = bench::select("all").expect("all");
        let slugs: Vec<&str> = all.iter().flat_map(|e| e.slugs).copied().collect();
        assert_eq!(slugs, pinned);
    }
}
