//! The benchmark command.
//!
//! ```sh
//! # one workload, as BENCHMARK.json's command runs it
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload rubis_rw --seed 42 --seconds 25 --trace 0
//! # every workload, measured and traced, each in its own child process
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml
//! # regenerate benchmark/digests.txt after an intentional model change
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --print-digests
//! ```

use archipelago_benchmark::run::{self, Outcome, Pins, WORKERS};
use archipelago_benchmark::trace::Tracer;
use archipelago_benchmark::workload::{run_op, Workload, FULL};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--print-digests]\nworkloads: rubis_rw coord_storm inference_mix fleet_lossy";

/// Seeds `0..PINNED_SEEDS` are pinned in `digests.txt` for every workload.
const PINNED_SEEDS: u64 = 64;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        trace: false,
        print_digests: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            a.print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

/// Where result and span files go: `<target dir>/benchmark/`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark")
}

fn write_file(name: &str, contents: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }
}

fn run_one(w: Workload, a: &Args) -> ExitCode {
    let pins = Pins::builtin();
    let (kind, o): (&str, Outcome) = if a.trace {
        ("traced", run::trace(w, &FULL, a.seed, a.seconds, &pins))
    } else {
        ("measured", run::measure(w, &FULL, a.seed, a.seconds, &pins))
    };
    println!(
        "{} ({kind}), base seed {}, {} s",
        w.name(),
        a.seed,
        a.seconds
    );
    for note in &o.notes {
        println!("  {note}");
    }
    for (name, unit, value) in &o.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("  {:<32} {:>16} count", "ops", o.attempted);
    println!("  {:<32} {:>16} count", "ops_failed", o.failed);
    let json = run::result_json(&o);
    write_file(&format!("{}.{kind}.json", w.name()), &format!("{json}\n"));
    if let Some(t) = &o.trace {
        write_file(&format!("{}.trace.json", w.name()), &t.to_json());
    }
    println!("{json}");
    ExitCode::SUCCESS
}

/// Runs every workload, measured then traced, each in a child process of
/// this binary so one workload's crash cannot take the others down.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args([
                    "--seed",
                    &a.seed.to_string(),
                    "--seconds",
                    &a.seconds.to_string(),
                ])
                .output();
            match out {
                Ok(out) if out.status.success() => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    print!("{text}");
                    ok &= text
                        .lines()
                        .last()
                        .is_some_and(|l| l.contains("\"correct\": true"));
                }
                Ok(out) => {
                    print!("{}", String::from_utf8_lossy(&out.stdout));
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    println!(
                        "{} (trace {trace}): child exited with {}; all of its ops count as failed",
                        w.name(),
                        out.status
                    );
                    ok = false;
                }
                Err(e) => {
                    println!("{} (trace {trace}): could not start child: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    println!(
        "all workloads {}",
        if ok { "correct" } else { "NOT correct" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_digests(only: Option<Workload>) {
    println!("# workload seed digest: FNV-1a 64 of each operation's simulated results");
    println!("# regenerate: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --print-digests");
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for seed in 0..PINNED_SEEDS {
            let op = run_op(w, &FULL, seed, WORKERS, &mut Tracer::off());
            println!("{} {seed} {:016x}", w.name(), op.digest);
        }
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.print_digests {
        print_digests(a.workload);
        return ExitCode::SUCCESS;
    }
    match a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}
