//! Pins every table `experiments --smoke all` writes at the default seed.
//!
//! `results/DIGESTS` holds one `<table> <digest>` line per table, in the
//! order the suite emits them; the digest is the 16-hex-digit FNV-1a 64
//! of the table's CSV bytes. Any change to a policy constant, a model or
//! a table's formatting moves at least one line, so it fails here rather
//! than silently reshaping a committed result. A deliberate change
//! replaces the file with the lines this test prints, and the diff shows
//! exactly which tables moved.

use simcore::digest::fnv1a;

const COMMITTED: &str = include_str!("../results/DIGESTS");

#[test]
fn smoke_tables_match_their_committed_digests() {
    // `experiments --smoke all`. The worker count never changes a table.
    let runner = bench::Runner::new().with_smoke_cap(bench::SMOKE_CAP_SECS);
    let all = bench::select("all").expect("all");
    let units = bench::run_experiments(&runner, 2, all, bench::SEED);
    let actual: Vec<String> = units
        .iter()
        .flat_map(|(_, tables, _)| tables)
        .map(|(slug, table)| format!("{slug} {:016x}", fnv1a(table.to_csv().as_bytes())))
        .collect();
    let committed: Vec<&str> = COMMITTED.lines().collect();
    if actual != committed {
        let moved: Vec<&str> = actual
            .iter()
            .map(String::as_str)
            .filter(|line| !committed.contains(line))
            .collect();
        panic!(
            "smoke table digests differ from results/DIGESTS.\n\
             changed or new lines:\n{}\n\
             replacement results/DIGESTS:\n{}\n",
            moved.join("\n"),
            actual.join("\n")
        );
    }
}
