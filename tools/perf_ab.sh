#!/usr/bin/env bash
# Interleaved A/B timing of the end-to-end benchmark: the working tree (the
# "change") against a base ref, in alternating pairs so slow drifts of a
# shared machine hit both sides alike.
#
# Usage: tools/perf_ab.sh <base-ref> <workload> [seed] [pairs]
#
#   base-ref  any git revision, e.g. HEAD~1 or main
#   workload  a workload name from BENCHMARK.json, e.g. kv_live_migration
#   seed      perfbench seed (default 1)
#   pairs     number of pairs (default 10)
#
# The base ref is exported with `git archive` into the gitignored
# .bench_build/ab-base-<sha>/ (reused by later calls). Each side builds
# perfbench from its own sources into its own CARGO_TARGET_DIR, and is run
# once untimed first so the pairs never time a build. Pair i runs the base
# first when i is odd and the change first when i is even; each run is
# `perfbench/run.py --seconds <run_seconds> --trace 0`, with run_seconds
# taken from BENCHMARK.json.
#
# Prints every pair's end-to-end metrics, each side's median and quartiles,
# and for each metric the change's win fraction (ties count for neither)
# and whether the gain rule holds: wins in at least 9/10 of the pairs and a
# median better than the base's by more than the base's interquartile
# range. Exits non-zero when any run is not `"correct": true` or fails.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
  echo "usage: $0 <base-ref> <workload> [seed] [pairs]" >&2
  exit 2
fi
base_ref="$1"
workload="$2"
seed="${3:-1}"
pairs="${4:-10}"

root="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$root" rev-parse --verify "${base_ref}^{commit}")"
out="$root/.bench_build"
base_tree="$out/ab-base-$base_sha"
if [ ! -f "$base_tree/perfbench/run.py" ]; then
  rm -rf "$base_tree"
  mkdir -p "$base_tree"
  git -C "$root" archive "$base_sha" | tar -x -C "$base_tree"
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"
log="$out/ab-$workload-seed$seed.jsonl"
: > "$log"

# run_side <side> <seconds> [record]: one perfbench run of that side's tree;
# with `record`, appends {"side", "result"} to the log. Fails unless the
# run prints a result with "correct": true.
run_side() {
  local side="$1" secs="$2" tree target result status=0
  if [ "$side" = base ]; then
    tree="$base_tree" target="$out/ab-target-base-$base_sha"
  else
    tree="$root" target="$out/ab-target-change"
  fi
  result="$(cd "$tree" && CARGO_TARGET_DIR="$target" \
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$secs" \
    --trace 0 2>>"$out/ab-$side.stderr" | tail -n 1)" || status=$?
  if [ -z "$result" ]; then
    echo "FAIL: $side run printed no result, exit $status (see $out/ab-$side.stderr)" >&2
    return 1
  fi
  if [ "${3:-}" = record ]; then
    printf '{"side": "%s", "result": %s}\n' "$side" "$result" >> "$log"
  fi
  python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' \
    "$result" || { echo "FAIL: $side run not correct: $result" >&2; return 1; }
}

echo "perf_ab: $workload seed $seed, $pairs pairs of ${seconds} s runs;" \
  "base $base_sha vs the working tree" >&2
run_side base 0.1  # builds; untimed
run_side change 0.1
for ((i = 1; i <= pairs; ++i)); do
  if ((i % 2 == 1)); then
    run_side base "$seconds" record
    run_side change "$seconds" record
  else
    run_side change "$seconds" record
    run_side base "$seconds" record
  fi
done

python3 - "$log" "$root/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
base = [r["result"]["metrics"] for r in runs if r["side"] == "base"]
change = [r["result"]["metrics"] for r in runs if r["side"] == "change"]
names = [n for n in better if n in base[0]]

for i, (b, c) in enumerate(zip(base, change), 1):
    row = "  ".join(f"{n}={b[n]['value']:.6g}/{c[n]['value']:.6g}" for n in names)
    print(f"pair {i:2d} ({'base' if i % 2 else 'change'} first) base/change: {row}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


for n in names:
    bv = [m[n]["value"] for m in base]
    cv = [m[n]["value"] for m in change]
    bq, cq = quartiles(bv), quartiles(cv)
    sign = 1.0 if better[n] == "lower" else -1.0
    wins = sum(1 for x, y in zip(bv, cv) if sign * (x - y) > 0)
    gain = sign * (bq[1] - cq[1])
    holds = wins >= 0.9 * len(bv) and gain > bq[2] - bq[0]
    unit = base[0][n]["unit"]
    print(f"{n} ({unit}, {better[n]} is better): "
          f"base median {bq[1]:.6g} [q1 {bq[0]:.6g}, q3 {bq[2]:.6g}]  "
          f"change median {cq[1]:.6g} [q1 {cq[0]:.6g}, q3 {cq[2]:.6g}]  "
          f"ratio {cq[1] / bq[1]:.4f}  change wins {wins}/{len(bv)}  "
          f"gain rule {'holds' if holds else 'does not hold'}")
EOF
