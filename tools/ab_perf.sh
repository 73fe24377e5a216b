#!/usr/bin/env bash
# Paired A/B performance runs of the benchmark in perfbench/.
#
#   tools/ab_perf.sh BASE_REV [workload ...]
#
# Side A is BASE_REV, exported with `git archive`; side B is the working
# tree as it stands (tracked and untracked, not ignored, files). Both are
# copied into a scratch directory and build their own perfbench binary.
# For each workload (default: every workload in BENCHMARK.json) the script
# runs PAIRS pairs of `perfbench/run.py`, alternating which side goes first
# (A B, B A, A B, ...), then prints one table per workload: for each metric,
# each side's median and quartiles, the median of the per-pair B/A ratios
# with a bootstrap 95% interval, the pairs B won and lost, and a verdict.
#
# Verdicts follow the paired-run rule of the choosing-metrics method:
#   gain         B wins >= 90% of pairs and the medians differ by more than
#                A's interquartile range, and B failed no more runs than A
#                ("gain?" otherwise);
#   regression   B's median is worse than A's by more than the metric's bound
#                in BENCHMARK.json (end-to-end metrics only);
#   worse        the mirror of gain (per-layer metrics, which have no bound);
#   unresolved   A's own spread is wider than the bound and B did not beat
#                every A run;
#   same         every run of both sides read the same value (exact counts);
#   -            none of the above.
#
# Environment: PAIRS (default 10), RUN_SECONDS (30), SEED (1), TRACE (0 or 1),
# AB_DIR (scratch directory; default a new one under ${TMPDIR:-/tmp}).
# Every run's JSON result is kept in $AB_DIR/runs.jsonl. A run that exits
# nonzero (a failed check) is counted, and its pair is left out of the table.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 BASE_REV [workload ...]" >&2
  exit 2
fi
base_rev="$1"; shift
repo="$(cd "$(dirname "$0")/.." && pwd)"
pairs="${PAIRS:-10}"
run_s="${RUN_SECONDS:-30}"
seed="${SEED:-1}"
trace="${TRACE:-0}"
for v in "$pairs" "$run_s" "$seed" "$trace"; do
  case "$v" in ''|*[!0-9]*) echo "PAIRS, RUN_SECONDS, SEED and TRACE must be integers" >&2; exit 2;; esac
done
if [ "$pairs" -lt 1 ] || [ "$run_s" -lt 1 ] || [ "$trace" -gt 1 ]; then
  echo "need PAIRS >= 1, RUN_SECONDS >= 1 and TRACE 0 or 1" >&2
  exit 2
fi
git -C "$repo" rev-parse --verify --quiet "$base_rev^{commit}" >/dev/null ||
  { echo "unknown revision: $base_rev" >&2; exit 2; }

if [ $# -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json,sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$repo/BENCHMARK.json")
else
  workloads=("$@")
fi

ab_dir="${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab_perf.XXXXXX")}"
mkdir -p "$ab_dir"
echo "ab_perf: A=$base_rev B=working tree, $pairs pairs x ${run_s}s, seed $seed, trace $trace" >&2
echo "ab_perf: scratch and logs in $ab_dir" >&2

# --- the two trees ------------------------------------------------------------
rm -rf "$ab_dir/A" "$ab_dir/B"
mkdir -p "$ab_dir/A" "$ab_dir/B"
git -C "$repo" archive "$base_rev" | tar -x -C "$ab_dir/A"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
   tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$ab_dir/B"

jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4
for side in A B; do
  tree="$ab_dir/$side"
  # The same build directory perfbench/run.py uses, so its own build step
  # finds the binary up to date and every timed run starts from a warm tree.
  if ! { cmake -S "$tree/perfbench" -B "$tree/.bench_build/perfbench" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$tree/.bench_build/perfbench" -j "$jobs"; } >"$ab_dir/build_$side.log" 2>&1; then
    echo "ab_perf: build of side $side failed; see $ab_dir/build_$side.log" >&2
    exit 1
  fi
done

# --- alternating runs -----------------------------------------------------------
runs="$ab_dir/runs.jsonl"
: >"$runs"
run_one() {  # side workload pair
  local side="$1" workload="$2" pair="$3" out rc=0
  out="$(python3 "$ab_dir/$side/perfbench/run.py" --workload "$workload" --seed "$seed" \
           --seconds "$run_s" --trace "$trace" 2>>"$ab_dir/run_$side.log" | tail -n 1)" || rc=$?
  python3 -c 'import json,sys
side, workload, pair, rc, line = sys.argv[1:6]
try:
    result = json.loads(line)
except ValueError:
    result = {}
print(json.dumps({"side": side, "workload": workload, "pair": int(pair), "rc": int(rc),
                  "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}))' \
    "$side" "$workload" "$pair" "$rc" "$out" >>"$runs"
  echo "ab_perf: $workload pair $pair side $side rc=$rc" >&2
}
for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(A B); else order=(B A); fi
    for side in "${order[@]}"; do run_one "$side" "$workload" "$i"; done
  done
done

# --- summary ------------------------------------------------------------------------
python3 - "$repo/BENCHMARK.json" "$runs" <<'PY'
import json
import random
import statistics
import sys

bench = json.load(open(sys.argv[1]))
spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
runs = [json.loads(line) for line in open(sys.argv[2])]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def ratio_interval(ratios, resamples=2000):
    """Median per-pair ratio and its bootstrap 95% interval (pairs resampled
    with replacement; a fixed seed keeps the table reproducible)."""
    rng = random.Random(1)
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(resamples))
    return statistics.median(ratios), meds[int(0.025 * resamples)], meds[int(0.975 * resamples) - 1]


def fmt(x):
    return f"{x:.0f}" if float(x).is_integer() or abs(x) >= 1e5 else f"{x:.4g}"


for workload in dict.fromkeys(r["workload"] for r in runs):
    wr = [r for r in runs if r["workload"] == workload]
    npairs = len({r["pair"] for r in wr})
    failed = {s: sum(1 for r in wr if r["side"] == s and r["rc"] != 0) for s in "AB"}
    print(f"\n{workload}: {npairs} pairs; failed runs A={failed['A']} B={failed['B']}")
    print("| metric | A median [q1, q3] | B median [q1, q3] | B/A per pair [95% CI] | B won | B lost | verdict |")
    print("|---|---|---|---|---|---|---|")
    # A failed run (a check or the determinism digest did not hold) gives
    # no usable reading, so its pair is left out; and B gets no "gain" on a
    # workload where it failed more runs than A.
    pairs = {}
    for r in wr:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"] if r["rc"] == 0 else {}
    may_gain = failed["B"] <= failed["A"]
    names = [n for n in spec if any(n in r["metrics"] for r in wr)]
    for name in names:
        both = [(p["A"][name], p["B"][name]) for p in pairs.values()
                if name in p.get("A", {}) and name in p.get("B", {})]
        if not both:
            continue
        a = [x for x, _ in both]
        b = [y for _, y in both]
        lower = spec[name]["better"] == "lower"
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        won = sum(1 for x, y in both if better(y, x))
        lost = sum(1 for x, y in both if better(x, y))
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        gain = (am - bm) if lower else (bm - am)  # > 0: B is better
        iqr = a3 - a1
        bound = spec[name].get("bound")
        if len(set(a + b)) == 1:
            verdict = "same"
        elif won >= 0.9 * len(both) and gain > iqr:
            verdict = "gain" if may_gain else "gain? (B failed more runs)"
        elif bound is not None and am != 0 and -gain / abs(am) > bound:
            verdict = "regression"
        elif bound is None and lost >= 0.9 * len(both) and -gain > iqr:
            verdict = "worse"
        elif (bound is not None and am != 0 and iqr / abs(am) > bound and
              not all(better(y, x) for y in b for x in a)):
            verdict = "unresolved"
        else:
            verdict = "-"
        if all(x != 0 for x in a):
            r, lo, hi = ratio_interval([y / x for x, y in both])
            ratio = f"{r:.3f} [{lo:.3f}, {hi:.3f}]"
        else:
            ratio = "-"
        print(f"| {name} | {fmt(am)} [{fmt(a1)}, {fmt(a3)}] | {fmt(bm)} [{fmt(b1)}, {fmt(b3)}] "
              f"| {ratio} | {won} | {lost} | {verdict} |")
PY
