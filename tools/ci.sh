#!/usr/bin/env bash
# CI entry point: build and run the full test suite twice — once plain,
# once under ASan+UBSan (ROCELAB_SANITIZE=ON). Fails on the first error.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# Pinned hashes of the behavioural contract, shared with the ctest "golden"
# gates (tools/CMakeLists.txt).
declare -A golden
while read -r name hash; do
  case "$name" in ''|'#'*) continue ;; esac
  golden[$name]="$hash"
done <"$repo/tools/golden.txt"
for name in gray_soak fig_corruption fig_irn_bakeoff fig_atomics; do
  [ -n "${golden[$name]:-}" ] || { echo "tools/golden.txt has no hash for $name" >&2; exit 1; }
done

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S "$repo" "$@"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure
}

echo "=== plain build ==="
run_suite "$repo/build"

echo "=== PDES scaling sweep (plain build only) ==="
# The golden.perf_gate ctest above already asserted the determinism digest
# twice in-process plus its four noop guards. This stage adds what ctest
# leaves out, the wall-clock half: it sweeps the pod-partitioned PDES core
# at shards {1,2,4} on a 4-podset fabric (the pinned digest is only
# defined for the classic 2-podset workload, and 4 shards need 4 podsets)
# and records throughput at the repo root. Each shard count runs twice and
# must be rerun-byte-identical; the per-count events/sec land in
# BENCH_simcore.json under "shard_scaling". The speedup gate (>= 2.5x at 4
# shards vs 1) only arms on boxes with >= 4 cores — on fewer cores the
# sweep still proves determinism, but a parallelism ratio would measure the
# scheduler, not the core. Skipped in the sanitizer pass — instrumented
# numbers are noise.
scale_gate=()
if [ "$jobs" -ge 4 ]; then scale_gate=(--scale-min 2.5); fi
"$repo/build/bench/perf_gate" --ms 10 \
  --scaling 1,2,4 --scaling-podsets 4 --scaling-ms 4 "${scale_gate[@]}" \
  --json "$repo/BENCH_simcore.json"

echo "=== scenario smoke (plain build only) ==="
# End-to-end check of the experiment plane: every runner answers
# --list-knobs, a short scenario run honours --knob overrides, and the
# emitted BENCH_<name>.json parses with the expected schema version.
"$repo/build/bench/fig_deadlock" --list-knobs
smoke_dir="$(mktemp -d)"
"$repo/build/bench/fig_deadlock" --run_ms=30 --drain_ms=60 \
  --json "$smoke_dir/BENCH_fig_deadlock.json"
python3 - "$smoke_dir/BENCH_fig_deadlock.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["bench"] == "fig_deadlock"
assert doc["cases"], "no cases emitted"
assert all(c["pass"] for c in doc["checks"]), doc["checks"]
print("BENCH json OK:", sys.argv[1])
PY
rm -rf "$smoke_dir"

echo "=== check gate (plain build only) ==="
# Scenarios whose checks gate the repo's headline claims. run_scenario
# exits non-zero when any check fails, so a regression (e.g. go-back-0
# quietly completing messages under §4.1 loss again) fails CI here.
# fig_livelock: the go-back-0 livelock must reproduce (0 messages) while
# go-back-N stays fast on the same loss pattern.
"$repo/build/bench/fig_livelock" --duration_ms=30
# fig_self_heal: localizer-driven cost-out must restore victim goodput and
# beat the CM-reconnect baseline on time-to-mitigate; keep its BENCH json
# at the repo root next to BENCH_simcore.json.
"$repo/build/bench/fig_self_heal" --json "$repo/BENCH_fig_self_heal.json"
python3 - "$repo/BENCH_fig_self_heal.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["bench"] == "fig_self_heal"
assert doc["cases"], "no cases emitted"
assert all(c["pass"] for c in doc["checks"]), doc["checks"]
print("BENCH json OK:", sys.argv[1])
PY
# fig_incident_manager: the fleet incident manager must hold goodput at
# the SLA floor under the mixed-fault soak (ranked drain, §6.2 drift
# rollback, blast budget), and its seeded chaos journal must replay to the
# golden hash. The golden.fig_incident_manager ctest above ran it; here its
# BENCH json is validated and kept at the repo root.
cp "$repo/build/tools/BENCH_fig_incident_manager.json" "$repo/BENCH_fig_incident_manager.json"
python3 - "$repo/BENCH_fig_incident_manager.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["bench"] == "fig_incident_manager"
assert doc["cases"], "no cases emitted"
assert all(c["pass"] for c in doc["checks"]), doc["checks"]
print("BENCH json OK:", sys.argv[1])
PY

# fig_corruption: the §5.2 data-integrity plane. Delivered-corrupt frames
# must complete torn data in the no-integrity arm (counted by the
# auditor's kDataIntegrity invariant), never complete in the ICRC arms,
# and the incident manager's cable replacement must restore the SLA floor.
# The seeded chaos journal (kCableReplace/kCableReplaced included) must
# replay to the golden hash, at 1 shard and 2.
"$repo/build/bench/fig_corruption" \
  --expect_journal="${golden[fig_corruption]}" \
  --json "$repo/BENCH_fig_corruption.json"
python3 - "$repo/BENCH_fig_corruption.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["bench"] == "fig_corruption"
assert doc["cases"], "no cases emitted"
assert all(c["pass"] for c in doc["checks"]), doc["checks"]
print("BENCH json OK:", sys.argv[1])
PY

# fig_irn_bakeoff: the lossy-fabric bake-off (recovery-engine seam). With
# PFC off, IRN-style selective repeat must hold >= 0.8x of the PFC+go-back-N
# clean baseline at the fig_livelock loss point while go-back-0 collapses,
# the IRN arm must stay PFC-silent on every axis (pause storm included),
# and the integer-counter journal must be byte-identical across reruns and
# shards {1,2}, replaying to the golden hash.
"$repo/build/bench/fig_irn_bakeoff" \
  --expect_journal="${golden[fig_irn_bakeoff]}" \
  --json "$repo/BENCH_fig_irn_bakeoff.json"
python3 - "$repo/BENCH_fig_irn_bakeoff.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["bench"] == "fig_irn_bakeoff"
assert doc["cases"], "no cases emitted"
assert all(c["pass"] for c in doc["checks"]), doc["checks"]
print("BENCH json OK:", sys.argv[1])
PY

# fig_atomics: the atomic-verbs plane (CAS/FAA + responder replay guard).
# The lock-table workload must execute exactly-once on both transport arms
# under every fault axis — counter word == completed increments, server
# executions == client completions, all locks free after the drain — with
# the replay guard demonstrably hit (dup_requests > 0) on the lossy axes.
# The roster-determined contract journal must be byte-identical across
# reruns and shards {1,2}, replaying to the golden hash.
"$repo/build/bench/fig_atomics" \
  --expect_journal="${golden[fig_atomics]}" \
  --json "$repo/BENCH_fig_atomics.json"
python3 - "$repo/BENCH_fig_atomics.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["bench"] == "fig_atomics"
assert doc["cases"], "no cases emitted"
assert all(c["pass"] for c in doc["checks"]), doc["checks"]
print("BENCH json OK:", sys.argv[1])
PY

echo "=== sanitizer build (ASan+UBSan) ==="
run_suite "$repo/build-asan" -DROCELAB_SANITIZE=ON

echo "=== corruption plane soak (ASan build) ==="
# The fig_corruption schedule again under ASan+UBSan: the delivered-corrupt
# path (escaped-FCS stamping, ICRC drop + NAK resend, cable pull and timed
# re-splice) is exactly the kind of ownership-juggling code sanitizers
# catch. Journal timestamps are scan times, so the golden hash is
# build-flavour stable.
"$repo/build-asan/bench/fig_corruption" \
  --expect_journal="${golden[fig_corruption]}"

echo "=== lossy-fabric bake-off (ASan build) ==="
# The bake-off again under ASan+UBSan: the selective-repeat data path (OOO
# buffer ownership, SACK-bitmap walks, per-packet timer maps) is new code;
# the journal is integer counters only, so the golden hash is build-flavour
# stable.
"$repo/build-asan/bench/fig_irn_bakeoff" \
  --expect_journal="${golden[fig_irn_bakeoff]}"

echo "=== atomic verbs under fire (ASan build) ==="
# fig_atomics again under ASan+UBSan: the atomic request/ACK path (replay
# table ownership, re-issue timers, per-QP atomic queues) is new code; the
# contract journal is roster-determined integers, so the golden hash is
# build-flavour stable.
"$repo/build-asan/bench/fig_atomics" \
  --expect_journal="${golden[fig_atomics]}"

echo "=== sharded soak (ASan build) ==="
# The seeded gray-fault schedule (lossy link, one-way + flow blackholes,
# per-QP campaign, drop filter) on the 2-shard PDES core. The 1-shard soak
# already ran under ASan as the golden.gray_soak ctest. The journal is
# keyed by scheduled injection times, so it must replay to the same golden
# hash regardless of shard count, with ASan watching the cross-shard
# channel handoff and the control-lane drain.
"$repo/build-asan/tools/gray_soak" --seed 2016 --ms 30 --shards 2 \
  --expect-journal "${golden[gray_soak]}"

echo "=== thread sanitizer (PDES shard tests) ==="
# TSan build of the test suite, running the PDES determinism/lookahead
# tests plus the simulator-core tests: the parallel-window barrier, the
# SPSC channels, and the horizon publication are the only intentionally
# concurrent code in the repo, so this is where a data race would live.
# The Corruption suite rides along for the kDeliverCorrupt cross-shard
# message kind (receiver-side counter bumps happen on the peer's shard),
# and the Recovery suites for the selective-repeat engine state touched
# from sharded runs (the mini bake-off runs at shards 2 in-test). The
# Atomic suites ride along for the lock-table workload's per-client state,
# which is mutated from shard-local callbacks in sharded runs.
run_suite_tsan() {
  cmake -B "$repo/build-tsan" -S "$repo" -DROCELAB_SANITIZE=thread
  cmake --build "$repo/build-tsan" -j "$jobs" --target rocelab_tests
  ctest --test-dir "$repo/build-tsan" --output-on-failure \
    -R 'Pdes|Simulator|Corruption|Recovery|Atomic'
}
run_suite_tsan

echo "CI OK"
