//! Every workload at smoke size in the debug build: the metric names the
//! benchmark emits match `BENCHMARK.json`, the smoke digests are pinned,
//! and neither tracing nor the fleet's worker count changes a digest.

use archipelago_benchmark::run::{self, Pins, END_TO_END, PER_LAYER};
use archipelago_benchmark::trace::Tracer;
use archipelago_benchmark::workload::{run_op, Workload, SMOKE};

/// `(workload, seed, digest)` of smoke-size operations.
const SMOKE_DIGESTS: [(&str, u64, u64); 8] = [
    ("rubis_rw", 42, 0xef47_5b17_ef68_6575),
    ("rubis_rw", 43, 0x09a9_4700_4cf5_0b9a),
    ("coord_storm", 42, 0xa914_852d_6015_f5fc),
    ("coord_storm", 43, 0x3c62_4833_e878_5571),
    ("inference_mix", 42, 0xf063_787e_2bc1_3bdf),
    ("inference_mix", 43, 0xe046_5f40_730e_b123),
    ("fleet_lossy", 42, 0x74ce_8a61_4ec2_471d),
    ("fleet_lossy", 43, 0xfee6_3604_e78b_caa4),
];

fn smoke_digest(w: Workload, seed: u64, workers: usize, t: &mut Tracer) -> u64 {
    run_op(w, &SMOKE, seed, workers, t).digest
}

#[test]
fn smoke_digests_match_the_pinned_values() {
    for (name, seed, pinned) in SMOKE_DIGESTS {
        let w = Workload::parse(name).expect("pinned workload exists");
        let digest = smoke_digest(w, seed, 2, &mut Tracer::off());
        assert_eq!(digest, pinned, "{name} seed {seed}: got {digest:#018x}");
    }
}

#[test]
fn tracing_and_worker_count_leave_digests_unchanged() {
    for w in Workload::ALL {
        let untraced = smoke_digest(w, 42, 2, &mut Tracer::off());
        let mut t = Tracer::on(0);
        assert_eq!(
            smoke_digest(w, 42, 2, &mut t),
            untraced,
            "{}: tracing changed the digest",
            w.name()
        );
        assert!(
            t.spans.iter().any(|s| s.name == "platform.run"),
            "{}: no run span",
            w.name()
        );
    }
    let one = smoke_digest(Workload::FleetLossy, 42, 1, &mut Tracer::off());
    let two = smoke_digest(Workload::FleetLossy, 42, 2, &mut Tracer::off());
    assert_eq!(one, two, "fleet digest depends on the worker count");
}

/// `(name, unit)` pairs of one array of `BENCHMARK.json`, which this
/// repository writes with one object per line.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} array"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |line: &str, f: &str| {
        let at = line.find(&format!("\"{f}\": \""))? + f.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_owned())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
        .collect()
}

fn emitted(o: &run::Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|&(n, u, _)| (n.to_owned(), u.to_owned()))
        .collect()
}

fn registry(r: &[(&str, &str)]) -> Vec<(String, String)> {
    r.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_by_every_workload() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(declared(&json, "end_to_end"), registry(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), registry(&PER_LAYER));
    let valid = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!(END_TO_END.iter().chain(&PER_LAYER).all(|(n, _)| valid(n)));

    // Smoke digests differ from the full-size pins, so check replay only.
    let pins = Pins::parse("");
    for w in Workload::ALL {
        let m = run::measure(w, &SMOKE, 42, 0.0, &pins);
        assert_eq!(
            (m.failed, emitted(&m)),
            (0, registry(&END_TO_END)),
            "{}",
            w.name()
        );
        assert!(
            m.metrics.iter().all(|&(_, _, v)| v > 0.0),
            "{}: {:?}",
            w.name(),
            m.metrics
        );
        let t = run::trace(w, &SMOKE, 42, 0.0, &pins);
        assert_eq!(
            (t.failed, emitted(&t)),
            (0, registry(&PER_LAYER)),
            "{}",
            w.name()
        );
        assert!(run::result_json(&t).starts_with("{\"correct\": true, "));
    }
}
