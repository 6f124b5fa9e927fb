#!/usr/bin/env bash
# Offline CI pass: format check, release build, full test suite, and a
# bench smoke run that executes every benchmark body once and verifies
# the JSON reports.
set -euo pipefail
cd "$(dirname "$0")/.."

# The smoke passes below overwrite the tracked results/ files (the
# full-run tables and the rate baseline) with smoke data. Snapshot them
# now and put them back however the script exits, so committing after a
# CI run never commits smoke tables.
tracked_results=$(mktemp -d)
{ git ls-files results 2>/dev/null || true; } | while read -r f; do
    if [ -f "$f" ]; then cp -p "$f" "$tracked_results/"; fi
done
restore_results() {
    cp -pR "$tracked_results"/. results/
    rm -rf "$tracked_results"
}
trap restore_results EXIT

# Checks every table the last experiments pass wrote against a pinned
# digest file: one `<table> <FNV-1a hex>` line per table, in run order.
check_table_digests() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
pins, label = sys.argv[1:3]
def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
tables = json.load(open("results/BENCH_experiments.json"))["tables"]
pinned = [line.split() for line in open(pins)]
if [slug for slug, _ in pinned] != tables:
    sys.exit(f"{pins} names other tables than the {label} pass wrote")
for slug, digest in pinned:
    if f"{fnv1a(open(f'results/{slug}.csv', 'rb').read()):016x}" != digest:
        sys.exit(f"results/{slug}.csv differs from its digest in {pins}")
print(f"    ok: {len(pinned)} release {label} tables match {pins}")
EOF
}

echo "==> cargo fmt --all -- --check"
# Formats workspace members only; the benchmark package is not one.
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --offline --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> benchmark smoke tests and a digest-checked run of every workload"
# Every operation's digest must match benchmark/digests.txt, so a
# performance change that moves any simulated result fails here. The four
# workloads cover the RUBiS host path, the faulty coordination channel,
# the accelerator and the fleet.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in rubis_rw coord_storm inference_mix fleet_lossy; do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 2 --trace 0 | tail -n1)
    python3 - "$workload" "$result" <<'EOF'
import json, sys
workload, line = sys.argv[1:3]
r = json.loads(line)
if r.get("correct") is not True:
    sys.exit(f"benchmark {workload} run is not correct: {line}")
print(f"    ok: {r['attempted']} {workload} operations, every digest pinned")
EOF
done

echo "==> every pinned benchmark digest (--print-digests vs benchmark/digests.txt)"
# The 2 s runs above reach only the first few seeds of each workload.
# This replays all pinned operations (4 workloads x 64 seeds, about two
# minutes) and fails on any digest that moved.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --print-digests \
    | diff -u benchmark/digests.txt - \
    || { echo "benchmark digests differ from benchmark/digests.txt" >&2; exit 1; }
echo "    ok: every pinned benchmark digest reproduced"

echo "==> bench smoke pass (SIMTEST_BENCH_MODE=smoke)"
SIMTEST_BENCH_MODE=smoke cargo bench --offline -p bench

echo "==> verifying bench reports parse"
for suite in micro scheduler ixp_pipeline paper_artifacts queue; do
    report="results/bench_${suite}.json"
    [ -s "$report" ] || { echo "missing or empty $report" >&2; exit 1; }
    python3 -m json.tool "$report" > /dev/null \
        || { echo "$report is not valid JSON" >&2; exit 1; }
    echo "    ok: $report"
done

# The rate gate below compares with the committed baseline, recorded by
# `experiments --smoke --jobs 2 all`. It sums per-run wall time across
# worker threads, so on a host with fewer cores than jobs the threads
# contend and the measured rate halves. Keep the parallel-merge path
# exercised only where the machine can back it.
smoke_jobs=2
[ "$(nproc)" -lt 2 ] && smoke_jobs=1
# One smoke pass takes about half a second, and single passes on one host
# spread about as widely as the gate's tolerance. The gate reads the
# median rate of three passes; the checks after it read the last pass.
echo "==> experiments smoke pass x3 (--smoke --jobs $smoke_jobs)"
baseline=$(mktemp)
git show HEAD:results/BENCH_experiments.json > "$baseline" 2>/dev/null || true
report="results/BENCH_experiments.json"
rates=()
for pass in 1 2 3; do
    ./target/release/experiments --smoke --jobs "$smoke_jobs" all > /dev/null
    [ -s "$report" ] || { echo "missing or empty $report" >&2; exit 1; }
    python3 -m json.tool "$report" > /dev/null \
        || { echo "$report is not valid JSON" >&2; exit 1; }
    rates+=("$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["sim_rate"]["events_per_sec"])' "$report")")
    echo "    pass $pass: ${rates[-1]%.*} events/s"
done
python3 - "$report" "$baseline" "${rates[@]}" <<'EOF'
import json, os, statistics, sys
r = json.load(open(sys.argv[1]))
sr = r["sim_rate"]
rate = statistics.median(float(x) for x in sys.argv[3:])
print(f"    experiments: {len(r['tables'])} tables, wall {r['wall_micros']/1e6:.2f} s, "
      f"{int(sr['events'])} events, median {rate:.0f} events/s over "
      f"{len(sys.argv) - 3} passes")
base = sys.argv[2]
# Regression gate against the committed baseline rate. ARCH_RATE_TOLERANCE
# is the allowed fractional slowdown before CI fails (default 0.25, i.e.
# fail below 75% of baseline; warn below 90%). Set it to "skip" to run
# warn-only on machines whose throughput is not comparable to the one
# that produced the committed baseline. The gate is skipped automatically
# when no baseline exists (fresh clone, offline git). A baseline recorded
# under another smoke cap runs a different mix of simulations, so its
# rate says nothing about this one: that fails whatever the tolerance.
# So does a baseline whose units or per-unit event counts differ from
# this run's.
tol_raw = os.environ.get("ARCH_RATE_TOLERANCE", "0.25")
rerecord = ("re-record results/BENCH_experiments.json with "
            "`experiments --smoke --jobs 2 all`")
if os.path.isfile(base) and os.path.getsize(base) > 0:
    baseline = json.load(open(base))
    if baseline.get("smoke_cap_secs") != r.get("smoke_cap_secs"):
        sys.exit(f"committed baseline has smoke_cap_secs="
                 f"{baseline.get('smoke_cap_secs')}, this run "
                 f"{r.get('smoke_cap_secs')}: {rerecord}")
    mix = lambda rep: [(p["id"], p["events"]) for p in rep.get("per_experiment", [])]
    if mix(baseline) != mix(r):
        sys.exit(f"committed baseline ran another simulation mix "
                 f"(per_experiment ids or events differ from this run's): "
                 f"{rerecord}")
    b = baseline.get("sim_rate", {})
    if b.get("events_per_sec", 0) > 0:
        ratio = rate / b["events_per_sec"]
        print(f"    rate vs committed baseline: {ratio:.2f}x "
              f"(baseline {b['events_per_sec']:.0f} events/s)")
        if ratio < 0.90:
            print(f"    warning: event rate {1 - ratio:.0%} below the "
                  f"committed baseline", file=sys.stderr)
        if tol_raw.lower() != "skip":
            try:
                tol = float(tol_raw)
            except ValueError:
                sys.exit(f"ARCH_RATE_TOLERANCE must be a fraction or "
                         f"'skip', got {tol_raw!r}")
            if ratio < 1.0 - tol:
                sys.exit(f"event rate regressed {1 - ratio:.0%} vs the "
                         f"committed baseline (tolerance {tol:.0%}; set "
                         f"ARCH_RATE_TOLERANCE to loosen or 'skip' to "
                         f"disable)")
else:
    print("    no committed baseline rate; gate skipped")
EOF
rm -f "$baseline"
python3 - "$report" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
events = int(r["sim_rate"]["events"])
isl = r["events_by_island"]
if events != isl["x86"] + isl["ixp"] + isl["accel"]:
    sys.exit(f"BENCH_experiments.json: sim_rate.events {events} != x86+ixp+accel {isl}")
per = r["per_experiment"]
if [p["id"] for p in per] != r["experiments"]:
    sys.exit("BENCH_experiments.json: per_experiment ids differ from the selection")
if events != sum(p["events"] for p in per):
    sys.exit(f"BENCH_experiments.json: sim_rate.events {events} != sum of per_experiment events")
fleet = r["fleet"]
if fleet["events"] != sum(fleet["per_shard_events"]):
    sys.exit("BENCH_experiments.json: fleet.events != sum of per_shard_events")
s = fleet["sessions"]
if s["offered"] != s["admitted"] + s["rejected"]:
    sys.exit(f"BENCH_experiments.json: fleet sessions not conserved {s}")
print(f"    ok: {events} events = islands = sum over {len(per)} experiments; "
      f"fleet shards and sessions conserved")
EOF
# results/DIGESTS pins the smoke tables. tests/table_digests.rs checks the
# debug build against it and this checks the release pass, so the two
# builds agree (the master loop's horizon sweep is debug-only).
check_table_digests results/DIGESTS smoke

# The shape checks below read the tables the smoke pass above wrote.
echo "==> accel smoke checks (i1/i2 inference tables)"
python3 - <<'EOF'
import csv, sys

rows = list(csv.DictReader(open("results/i1_inference_batching.csv")))
tenants = [r["tenant"] for r in rows]
if tenants != ["chat", "vision", "rank", "embed"]:
    sys.exit(f"i1_inference_batching.csv: unexpected tenant rows {tenants}")
for r in rows:
    if r["class"] not in ("latency", "throughput"):
        sys.exit(f"i1_inference_batching.csv: bad class for {r['tenant']}")
    for col in ("Base p99 ms", "Coord p99 ms", "Base goodput/s", "Coord goodput/s"):
        if float(r[col]) <= 0.0:
            sys.exit(f"i1_inference_batching.csv: {r['tenant']} has no {col}")
    for col in ("Base mean batch", "Coord mean batch"):
        if float(r[col]) < 1.0:
            sys.exit(f"i1_inference_batching.csv: {r['tenant']} {col} below 1")

rows = list(csv.DictReader(open("results/i2_batch_preemption.csv")))
bym = {r["Metric"]: r for r in rows}
for t in ("chat", "vision", "rank", "embed"):
    for m in (f"{t} queue p99 ms", f"{t} mean batch"):
        if m not in bym:
            sys.exit(f"i2_batch_preemption.csv: missing row '{m}'")
triggers = bym.get("Triggers applied")
preempts = bym.get("Batches preempted")
if triggers is None or preempts is None:
    sys.exit("i2_batch_preemption.csv: missing trigger summary rows")
if int(triggers["no-coord"]) != 0:
    sys.exit("i2_batch_preemption.csv: uncoordinated run applied triggers")
if int(triggers["coord-trigger"]) == 0 or int(preempts["coord-trigger"]) == 0:
    sys.exit("i2_batch_preemption.csv: coordinated run never preempted a batch")
print("    ok: i1_inference_batching.csv and i2_batch_preemption.csv shapes verified")
EOF

echo "==> fault-injection smoke checks (r1/r2 reliability tables)"
python3 - <<'EOF'
import csv, json, sys

tables = json.load(open("results/BENCH_experiments.json"))["tables"]
for slug in ("r1_loss_sweep", "r2_reliability"):
    if slug not in tables:
        sys.exit(f"{slug} missing from BENCH_experiments.json tables")

rows = list(csv.DictReader(open("results/r1_loss_sweep.csv")))
if [r["loss %"] for r in rows] != ["0", "5", "10", "20"]:
    sys.exit("r1_loss_sweep.csv: unexpected loss sweep rows")
clean = rows[0]
if int(clean["drops"]) != 0 or int(clean["retransmits"]) != 0:
    sys.exit("r1_loss_sweep.csv: loss=0 row reports drops or retransmits")
if len({r["Base"] for r in rows}) != 1:
    sys.exit("r1_loss_sweep.csv: uncoordinated Base column is not loss-invariant")
if not any(int(r["drops"]) > 0 for r in rows[1:]):
    sys.exit("r1_loss_sweep.csv: no drops recorded under nonzero loss")
if not any(int(r["retransmits"]) > 0 for r in rows[1:]):
    sys.exit("r1_loss_sweep.csv: no retransmissions recorded under nonzero loss")

rows = list(csv.DictReader(open("results/r2_reliability.csv")))
byv = {r["Variant"]: r for r in rows}
faulty_ff = byv.get("f&f, faulty channel")
faulty_ack = byv.get("ack/retry, faulty channel")
if faulty_ff is None or faulty_ack is None:
    sys.exit("r2_reliability.csv: expected variants missing")
if int(faulty_ff["drops"]) == 0:
    sys.exit("r2_reliability.csv: faulty channel recorded no drops")
if int(faulty_ack["retransmits"]) == 0 or int(faulty_ack["acked"]) == 0:
    sys.exit("r2_reliability.csv: reliable variant never retransmitted/acked")
print("    ok: r1_loss_sweep.csv and r2_reliability.csv shapes verified")
EOF

echo "==> adversarial-tenant smoke checks (a1 price-of-anarchy table)"
python3 - <<'EOF'
import csv, sys

rows = list(csv.DictReader(open("results/a1_price_of_anarchy.csv")))
if [r["adversaries"] for r in rows] != ["0", "1", "2", "4"]:
    sys.exit("a1_price_of_anarchy.csv: unexpected adversary-count rows")
cols = list(rows[0].keys())
expect = ["adversaries", "honest", "honest+load", "non-coop", "coord",
          "coord+def", "PoA", "recovered %", "throttled", "discounted"]
if cols != expect:
    sys.exit(f"a1_price_of_anarchy.csv: unexpected columns {cols}")
if len({r["honest"] for r in rows}) != 1:
    sys.exit("a1_price_of_anarchy.csv: honest baseline is not row-invariant")
for r in rows:
    for col in ("honest", "honest+load", "non-coop", "coord", "coord+def"):
        if float(r[col]) <= 0.0:
            sys.exit(f"a1_price_of_anarchy.csv: n={r['adversaries']} "
                     f"has nonpositive {col}")
print("    ok: a1_price_of_anarchy.csv shape verified")
EOF

echo "==> energy-controller smoke checks (e1/e2 energy tables)"
python3 - <<'EOF'
import csv, sys

rows = list(csv.DictReader(open("results/e1_energy_qos.csv")))
cols = list(rows[0].keys())
expect = ["Config", "joules", "mean W", "worst p99 ms", "p99 under target",
          "violations", "knob actions"]
if cols != expect:
    sys.exit(f"e1_energy_qos.csv: unexpected columns {cols}")
configs = [r["Config"] for r in rows]
if configs != ["no management", "uncoordinated cap 105W",
               "uncoordinated cap 90W", "coordinated energy"]:
    sys.exit(f"e1_energy_qos.csv: unexpected config rows {configs}")
by = {r["Config"]: r for r in rows}
for r in rows:
    if float(r["joules"]) <= 0.0:
        sys.exit(f"e1_energy_qos.csv: {r['Config']} metered no energy")
if int(by["no management"]["knob actions"]) != 0:
    sys.exit("e1_energy_qos.csv: frozen baseline moved a knob")
if int(by["coordinated energy"]["knob actions"]) == 0:
    sys.exit("e1_energy_qos.csv: coordinated run never moved a knob")

rows = list(csv.DictReader(open("results/e2_energy_ablation.csv")))
configs = [r["Config"] for r in rows]
if configs != ["frozen (all knobs pinned)", "dvfs only", "cache ways only",
               "membw share only", "coordinated (all three)"]:
    sys.exit(f"e2_energy_ablation.csv: unexpected config rows {configs}")
by = {r["Config"]: r for r in rows}
frozen = by["frozen (all knobs pinned)"]
if float(frozen["saved %"]) != 0.0 or int(frozen["descents"]) != 0:
    sys.exit("e2_energy_ablation.csv: frozen baseline descended")
if int(by["coordinated (all three)"]["descents"]) == 0:
    sys.exit("e2_energy_ablation.csv: coordinated run never descended")
# Single-axis arms must leave the other two axes at full performance.
if by["dvfs only"]["final ways"] != "16" or by["dvfs only"]["final membw %"] != "100":
    sys.exit("e2_energy_ablation.csv: dvfs-only arm moved a non-dvfs knob")
if by["cache ways only"]["final dvfs %"] != "100" or by["cache ways only"]["final membw %"] != "100":
    sys.exit("e2_energy_ablation.csv: cache-only arm moved a non-cache knob")
if by["membw share only"]["final dvfs %"] != "100" or by["membw share only"]["final ways"] != "16":
    sys.exit("e2_energy_ablation.csv: membw-only arm moved a non-membw knob")
print("    ok: e1_energy_qos.csv and e2_energy_ablation.csv shapes verified")
EOF

echo "==> fleet smoke checks (f1/f2 fleet tables and report)"
python3 - <<'EOF'
import csv, json, sys

rows = list(csv.DictReader(open("results/f1_fleet_scale.csv")))
cols = list(rows[0].keys())
expect = ["bus", "depth", "arm", "events", "offered", "adm %", "X (req/s)",
          "mean ms", "vs base %", "late %", "tunes l0/l1/l2", "drops"]
if cols != expect:
    sys.exit(f"f1_fleet_scale.csv: unexpected columns {cols}")
buses = ["fast 100us", "slow 3ms", "lossy 3ms/25%"]
if [r["bus"] for r in rows] != [b for b in buses for _ in range(4)]:
    sys.exit(f"f1_fleet_scale.csv: unexpected bus blocks {[r['bus'] for r in rows]}")
if [r["depth"] for r in rows] != ["-", "1", "2", "3"] * 3:
    sys.exit("f1_fleet_scale.csv: each bus block must sweep depths -,1,2,3")
base_rows = [r for r in rows if r["arm"] == "base"]
if len({r["events"] for r in base_rows}) != 1:
    sys.exit("f1_fleet_scale.csv: uncoordinated base must be bus-invariant")
for r in rows:
    if r["arm"] == "coord" and float(r["vs base %"]) >= 0.0:
        sys.exit(f"f1_fleet_scale.csv: no coordination benefit on "
                 f"{r['bus']} depth {r['depth']} ({r['vs base %']}%)")
    if int(r["events"]) <= 0:
        sys.exit(f"f1_fleet_scale.csv: empty run on {r['bus']} depth {r['depth']}")
if not any(int(r["drops"]) > 0 for r in rows if r["bus"].startswith("lossy")):
    sys.exit("f1_fleet_scale.csv: lossy bus recorded no channel drops")

rows = list(csv.DictReader(open("results/f2_fleet_determinism.csv")))
if [r["run"] for r in rows] != ["jobs=1", "jobs=4", "replay jobs=1"]:
    sys.exit(f"f2_fleet_determinism.csv: unexpected runs {[r['run'] for r in rows]}")
if len({r["digest"] for r in rows}) != 1:
    sys.exit("f2_fleet_determinism.csv: digests diverged across thread counts")
if any(r["matches jobs=1"] != "yes" for r in rows):
    sys.exit("f2_fleet_determinism.csv: replay mismatch flagged")

fleet = json.load(open("results/BENCH_experiments.json"))["fleet"]
if fleet["runs"] <= 0 or fleet["events"] <= 0:
    sys.exit("BENCH_experiments.json: fleet block recorded no runs/events")
if len(fleet["per_shard_events"]) != int(fleet["shards"]):
    sys.exit("BENCH_experiments.json: per_shard_events width != shard count")
print("    ok: f1_fleet_scale.csv, f2_fleet_determinism.csv and fleet report verified")
EOF

echo "==> fleet shard byte-identity (2 shards, --jobs 1 vs 4)"
# ARCH_JOBS drives the *inner* shard fan-out (pool::default_jobs) while
# --jobs fans whole experiments; vary both so the scoped-thread shard
# merge itself is exercised, not just the outer experiment order.
fleet_tmp=$(mktemp -d)
ARCH_JOBS=1 ./target/release/experiments --smoke --shards 2 --jobs 1 fleet > /dev/null
cp results/f1_fleet_scale.csv results/f2_fleet_determinism.csv "$fleet_tmp/"
ARCH_JOBS=4 ./target/release/experiments --smoke --shards 2 --jobs 4 fleet > /dev/null
for csv in f1_fleet_scale f2_fleet_determinism; do
    cmp "results/${csv}.csv" "$fleet_tmp/${csv}.csv" || {
        echo "${csv}.csv differs between --jobs 1 and --jobs 4" >&2
        exit 1
    }
done
echo "    ok: 2-shard fleet CSVs byte-identical across worker counts"
rm -rf "$fleet_tmp"

echo "==> full-length tables (--jobs $smoke_jobs all) vs results/DIGESTS.full"
# The smoke passes above cut every run short; this one runs each table at
# full length (about half a minute on two cores) and pins it, so a change
# that moves only the long-run results still fails here.
./target/release/experiments --jobs "$smoke_jobs" all > /dev/null
check_table_digests results/DIGESTS.full full

echo "==> chaos shrink replay check (SIMTEST_SEED reproducibility)"
chaos_log=$(mktemp)
SIMTEST_CHAOS_FORCE_FAIL=1 cargo test -q --offline \
    --test adversary_properties chaos_forced_failure > "$chaos_log" 2>&1 || true
seed=$(grep -o 'SIMTEST_SEED=[0-9]*' "$chaos_log" | head -n1 | cut -d= -f2)
shrunk=$(grep 'shrunk counterexample' "$chaos_log" | head -n1)
[ -n "$seed" ] && [ -n "$shrunk" ] || {
    echo "chaos_forced_failure produced no shrink report" >&2
    cat "$chaos_log" >&2
    exit 1
}
replay_log=$(mktemp)
SIMTEST_SEED="$seed" SIMTEST_CHAOS_FORCE_FAIL=1 cargo test -q --offline \
    --test adversary_properties chaos_forced_failure > "$replay_log" 2>&1 || true
replayed=$(grep 'shrunk counterexample' "$replay_log" | head -n1)
if [ "$shrunk" != "$replayed" ]; then
    echo "chaos replay diverged from the recorded shrink report:" >&2
    echo "  first:  $shrunk" >&2
    echo "  replay: $replayed" >&2
    exit 1
fi
echo "    ok: SIMTEST_SEED=$seed replays the identical shrunk counterexample"
rm -f "$chaos_log" "$replay_log"

echo "CI pass complete."
