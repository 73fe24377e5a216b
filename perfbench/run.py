#!/usr/bin/env python3
"""rocelab benchmark entry point.

Builds the benchmark driver (the rocelab library plus perfbench/driver.cpp)
from source into .bench_build/perfbench, runs one workload and prints the
result as the last line of standard output:

    python3 perfbench/run.py --workload clos_lossless --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: phase times and model counts from the driver, plus the host time
per simulated link frame of each simulator layer, from program-counter
samples taken while the simulation runs and resolved against the driver's
symbol table. The heaviest sampled functions go to standard error. Host
times are at reference speed (see reference_seconds() in driver.cpp).
"""

import argparse
import bisect
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("clos_lossless", "fig7_mid", "locktable_lossy")
RUN_TIMEOUT_S = 170

# Simulator layers, named after the source modules, and the classes whose
# code runs in each. A sampled function belongs to the last of these names
# in its demangled symbol outside parentheses, so a closure thunk such as
# InlineCallback::Ops<EgressPort::try_send()::{lambda}>::invoke counts for
# the link layer that wrote the closure, not for the event core that calls it.
LAYERS = {
    "event_core": "Simulator ShardGroup InlineCallback",
    "link": "EgressPort CrossShardChannel Node LinkImpairment",
    "switch": "Switch Mmu MacTable ArpTable",
    "nic": "Host RdmaNic DcqcnRp TimelyRp MttCache LossRecoveryEngine GoBackNEngine "
           "GoBack0Engine SelectiveRepeatEngine",
    "app": "RdmaDemux RdmaStreamSource RdmaEchoServer RdmaIncastClient RdmaPingmesh "
           "LockTableWorkload TrafficSet",
    "packet": "Packet PacketPool PacketPoolDeleter five_tuple_hash acquire_pooled_packet "
              "is_roce_message_start",
}
LAYER_OF = {cls: layer for layer, names in LAYERS.items() for cls in names.split()}
OTHER = "other"  # libc, the allocator, the kernel, unattributed std code


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def strip_parens(name):
    out, depth = [], 0
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def layer_of(symbol):
    layer = OTHER
    for token in re.findall(r"[A-Za-z_]\w*", strip_parens(symbol)):
        layer = LAYER_OF.get(token, layer)
    return layer


def symbol_table():
    """Sorted (start, end, demangled name) of the driver's functions."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", DRIVER], check=True,
                         capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            start = int(parts[0], 16)
            syms.append((start, start + int(parts[1], 16), parts[3]))
    syms.sort()
    return syms


def layer_metrics(profile, run_ns_per_frame):
    """Split the run's host ns per simulated link frame by simulator layer."""
    syms = symbol_table()
    starts = [s[0] for s in syms]
    per_layer = {layer: 0 for layer in list(LAYERS) + [OTHER]}
    per_symbol = {}
    for pc_hex, n in profile["samples"].items():
        pc = int(pc_hex, 16)
        i = bisect.bisect_right(starts, pc) - 1
        name = syms[i][2] if pc and i >= 0 and pc < syms[i][1] else "[outside the executable]"
        per_layer[layer_of(name)] += n
        per_symbol[name] = per_symbol.get(name, 0) + n
    total = sum(per_layer.values())
    if total == 0 or profile["dropped"]:
        raise RuntimeError(f"bad CPU profile: {total} samples, {profile['dropped']} dropped")
    print(f"{total} CPU samples; heaviest functions:", file=sys.stderr)
    for name, n in sorted(per_symbol.items(), key=lambda kv: -kv[1])[:15]:
        print(f"{100.0 * n / total:5.1f}%  {layer_of(name):10s}  {name[:150]}", file=sys.stderr)
    return {f"{layer}_ns_per_frame": {"value": run_ns_per_frame * n / total, "unit": "ns"}
            for layer, n in per_layer.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    proc = subprocess.run([DRIVER, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: driver exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    profile = result.pop("profile", None)
    if profile is not None:
        metrics = result["metrics"]
        metrics.update(layer_metrics(profile, metrics["run_ns_per_frame"]["value"]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
