//! One benchmark per paper experiment unit: each sample regenerates the
//! unit's tables end-to-end (workload generation, both baseline and
//! coordinated runs, and the statistics), so `cargo bench` doubles as a
//! reproduction pass.
//!
//! These are whole-system benches (tens to hundreds of milliseconds per
//! sample); the sample count is kept small.

use simtest::BenchSuite;
use std::hint::black_box;

fn main() {
    let mut suite = BenchSuite::new("paper_artifacts");
    let n = 10; // samples per unit (criterion used sample_size(10))

    let s = bench::SEED;
    let cx = &mut bench::Runner::new();
    for (kind, id) in [
        ("paper", "rubis"),
        ("paper", "fig6"),
        ("paper", "fig7"),
        ("ablations", "a1_channel_latency"),
        ("ablations", "a5_trigger_rate"),
        ("extensions", "p1_power_capping"),
        ("extensions", "s1_fabric_scalability"),
    ] {
        let Some(&[unit]) = bench::select(id).as_deref() else {
            panic!("`{id}` is not one registered unit");
        };
        suite.bench_n(&format!("{kind}/{id}"), n, || black_box(unit.tables(cx, s)));
    }

    suite.finish();
}
