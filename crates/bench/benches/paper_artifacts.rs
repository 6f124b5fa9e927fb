//! One benchmark per paper artifact: each sample regenerates the
//! corresponding table or figure end-to-end (workload generation, both
//! baseline and coordinated runs, and the statistics), so `cargo bench`
//! doubles as a full reproduction pass.
//!
//! These are whole-system benches (tens to hundreds of milliseconds per
//! sample); the sample count is kept small.

use simtest::BenchSuite;
use std::hint::black_box;

fn main() {
    let mut suite = BenchSuite::new("paper_artifacts");
    let n = 10; // samples per artifact (criterion used sample_size(10))

    let s = bench::SEED;
    let cx = &mut bench::Runner::new();
    suite.bench_n("paper/fig2_rubis_baseline_minmax", n, || black_box(bench::fig2(cx, s)));
    suite.bench_n("paper/table1_avg_response", n, || black_box(bench::table1(cx, s)));
    suite.bench_n("paper/fig4_minmax_coordination", n, || black_box(bench::fig4(cx, s)));
    suite.bench_n("paper/table2_throughput", n, || black_box(bench::table2(cx, s)));
    suite.bench_n("paper/fig5_cpu_utilization", n, || black_box(bench::fig5(cx, s)));
    suite.bench_n("paper/fig6_mplayer_qos", n, || black_box(bench::fig6(cx, s)));
    suite.bench_n("paper/fig7_trigger_series", n, || black_box(bench::fig7(cx, s)));
    suite.bench_n("paper/table3_trigger_interference", n, || black_box(bench::table3(cx, s)));

    suite.bench_n("ablations/a1_channel_latency", n, || black_box(bench::ablation_a1(cx, s)));
    suite.bench_n("ablations/a2_hysteresis", n, || black_box(bench::ablation_a2(cx, s)));
    suite.bench_n("ablations/a5_trigger_rate", n, || black_box(bench::ablation_a5(cx, s)));

    suite.bench_n("extensions/p1_power_capping", n, || black_box(bench::extension_p1(cx, s)));
    suite.bench_n("extensions/s1_fabric_scalability", n, || black_box(bench::extension_s1(s)));

    suite.finish();
}
