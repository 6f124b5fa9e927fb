#!/usr/bin/env bash
# Interleaved A/B comparison of two built benchmark binaries on one workload.
#
#   benchmark/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS] [SECONDS]
#
# Runs PAIRS parent/change pairs (default and minimum 10), alternating which
# side runs first; both sides of a pair share one base seed and each pair
# uses a new one. SECONDS defaults to BENCHMARK.json's run_seconds. For every
# end-to-end metric it prints each side's median and quartiles, the share of
# pairs the change won (ties count for neither) and a verdict:
#
#   gain          the change won at least 9/10 of the pairs and the medians
#                 differ by more than the parent's interquartile range
#   unresolved    the parent's own spread is wider than the metric's bound
#   regression    the change's median is worse by more than the bound
#   within bound  anything else
#
# Build each commit's binary once, e.g.
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
# and pass the two `benchmark` executables. Run from the repository root.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi

exec python3 - "$(dirname "$0")/../BENCHMARK.json" "$@" <<'PY'
import json, statistics, subprocess, sys

spec_path, parent, change, workload = sys.argv[1:5]
spec = json.load(open(spec_path))
pairs = max(10, int(sys.argv[5])) if len(sys.argv) > 5 else 10
seconds = sys.argv[6] if len(sys.argv) > 6 else str(spec["run_seconds"])
metrics = spec["end_to_end"]


def run(binary, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{binary}: run on seed {seed} was not correct: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


runs = {"parent": [], "change": []}
for i in range(pairs):
    seed = 1000 + 17 * i
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    for side in order:
        runs[side].append(run(parent if side == "parent" else change, seed))
    print(f"pair {i + 1}/{pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)

print(f"workload {workload}: {pairs} pairs, {seconds} s per run")
print(f"{'metric':<14} {'side':<7} {'q1':>12} {'median':>12} {'q3':>12}   wins   verdict")
for m in metrics:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
    pmed, cmed = statistics.median(p), statistics.median(c)
    gain = (cmed - pmed) if higher else (pmed - cmed)
    if wins >= 0.9 * pairs and gain > pq[2] - pq[0]:
        verdict = "gain"
    elif (pq[2] - pq[0]) / pmed > bound:
        verdict = "unresolved"
    elif -gain > bound * pmed:
        verdict = "regression"
    else:
        verdict = "within bound"
    print(f"{name:<14} {'parent':<7} {pq[0]:>12.6g} {pmed:>12.6g} {pq[2]:>12.6g}")
    print(f"{'':<14} {'change':<7} {cq[0]:>12.6g} {cmed:>12.6g} {cq[2]:>12.6g}   {wins}/{pairs}  {verdict}")
PY
