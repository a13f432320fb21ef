#!/usr/bin/env python3
"""The benchmark's own tests (tiny sizes, about a minute after the build).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that every workload, untraced and traced, prints exactly the
metrics BENCHMARK.json declares (end-to-end for --trace 0, per-layer for
--trace 1) with every output check passing, on a tuning seed and on the
hold-out seed; and that deliberately corrupted outputs (one pinned
digest, one warm daemon payload) are caught as failures.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TUNING_SEED = 1
HOLDOUT_SEED = 90001  # never used while sizing the workloads


def run(workload, seed, trace, inject=""):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    if inject:
        command += ["--inject", inject]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, f"{workload}: exit {out.returncode}\n{out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in (TUNING_SEED, HOLDOUT_SEED):
            for trace in (0, 1):
                result, stderr = run(workload, seed, trace)
                label = f"{workload} seed={seed} trace={trace}"
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(got))
                    extra = sorted(set(got) - set(declared[trace]))
                    failures.append(f"{label}: metrics differ from "
                                    f"BENCHMARK.json (missing {missing}, "
                                    f"extra {extra})")
                if not (result["correct"] and result["failed"] == 0
                        and result["attempted"] >= 1):
                    failures.append(f"{label}: checks failed\n{stderr}")
                print(f"ok  {label}: {result['attempted']} checked",
                      flush=True)

    # Negative case: a corrupted pinned digest and a mismatched warm
    # payload must both be counted as failed operations.
    result, stderr = run("daemon", TUNING_SEED, 0, inject="digest,warm")
    if result["correct"] or result["failed"] < 2:
        failures.append("injected faults were not detected: "
                        f"{result['failed']} failed\n{stderr}")
    elif "canary" not in stderr or "warm reply mismatch" not in stderr:
        failures.append(f"injected faults reported wrongly:\n{stderr}")
    else:
        print(f"ok  injected faults: {result['failed']} of "
              f"{result['attempted']} failed", flush=True)

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
