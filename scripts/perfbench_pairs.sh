#!/usr/bin/env bash
# Compares two checkouts on one perfbench workload: N alternating
# parent/change runs of perfbench/run.py, then the median and interquartile
# range (IQR) of every end-to-end metric per side.
#
# Usage: scripts/perfbench_pairs.sh PARENT_DIR CHANGE_DIR N WORKLOAD [run.py args...]
#   e.g. scripts/perfbench_pairs.sh ../parent . 10 songs-absorb --seconds 45
#
# Each checkout builds into its own .bench_build (CARGO_TARGET_DIR is
# unset for the runs, so the two trees never share a build). Every run's
# result line is kept under $PAIRS_OUT (default: a fresh temp directory),
# one JSON object a line in parent.jsonl / change.jsonl. Exits non-zero
# when a run prints no result or fails its output checks.
set -euo pipefail

if [[ $# -lt 4 ]]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR N WORKLOAD [run.py args...]" >&2
  exit 2
fi
parent="$1"
change="$2"
runs="$3"
workload="$4"
shift 4

for dir in "$parent" "$change"; do
  if [[ ! -f "$dir/perfbench/run.py" ]]; then
    echo "error: '$dir' has no perfbench/run.py" >&2
    exit 2
  fi
done
if ! [[ $runs =~ ^[1-9][0-9]*$ ]]; then
  echo "error: N must be a positive integer, got '$runs'" >&2
  exit 2
fi

out="${PAIRS_OUT:-$(mktemp -d -t perfbench-pairs.XXXXXX)}"
mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

status=0
run_one() {  # side dir [run.py args...]
  local side="$1" dir="$2" line
  shift 2
  if ! line="$(cd "$dir" && env -u CARGO_TARGET_DIR python3 perfbench/run.py \
                 --workload "$workload" "$@" | tail -n 1)"; then
    status=1
  fi
  if [[ $line != \{* ]]; then
    echo "error: $side run printed no result line" >&2
    status=1
    return
  fi
  echo "$line" >> "$out/$side.jsonl"
}

declare -A dirs=([parent]="$parent" [change]="$change")
# Odd pairs run the parent first, even pairs the change, so neither side
# always runs on the host state the other left behind.
for ((i = 1; i <= runs; i++)); do
  if ((i % 2 == 1)); then
    order=(parent change)
  else
    order=(change parent)
  fi
  for side in "${order[@]}"; do
    echo "pair $i/$runs: $side" >&2
    run_one "$side" "${dirs[$side]}" "$@"
  done
done

python3 - "$out" "$change/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

out, benchmark = sys.argv[1], sys.argv[2]
with open(benchmark) as f:
    metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def load(side):
    with open("%s/%s.jsonl" % (out, side)) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r.get("metrics", {})]


def summary(vals):
    if not vals:
        return None, None
    if len(vals) == 1:
        return vals[0], 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return statistics.median(vals), q3 - q1


sides = {side: load(side) for side in ("parent", "change")}
for side, results in sides.items():
    bad = sum(1 for r in results if not r.get("correct") or r.get("failed"))
    print("%s: %d runs, %d with failed checks or operations"
          % (side, len(results), bad))
# "won": pairs in which the change read strictly better (ties count for
# neither side); "-" when a failed run left the sides unpaired.
print("%-20s %14s %12s %14s %12s %8s %6s" % (
    "metric", "parent median", "parent IQR", "change median", "change IQR",
    "ratio", "won"))
for name, better in metrics:
    pv = values(sides["parent"], name)
    cv = values(sides["change"], name)
    pm, piqr = summary(pv)
    cm, ciqr = summary(cv)
    if pm is None or cm is None:
        print("%-20s %s" % (name, "missing"))
        continue
    ratio = cm / pm if pm else float("nan")
    won = "-"
    if len(pv) == len(cv):
        sign = 1 if better == "higher" else -1
        won = "%d/%d" % (sum(1 for p, c in zip(pv, cv)
                             if sign * (c - p) > 0), len(pv))
    print("%-20s %14.6g %12.4g %14.6g %12.4g %8.3f %6s"
          % (name, pm, piqr, cm, ciqr, ratio, won))
print("results: %s" % out)
EOF
exit "$status"
