"""Check that the traced run's exact counts repeat: two traced runs, same seed, same counts.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Runs ``run.py --trace 1`` twice per workload (default: all three) and
compares every count-valued metric (calls, errors, the per-Gibbs-point and
per-state ratios, flops, bytes, traced tasks).  It also checks the layer
split each workload was chosen for.  Exits 1 on any mismatch, so a later
change can make claims on these counts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = {"count", "ratio", "flop", "B"}


def traced(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its correctness gates")
    return result["metrics"]


def split_violations(workload: str, m: dict) -> list[str]:
    """The layer split each workload is chosen for; see workloads.py."""
    fock_calls = sum(v["value"] for k, v in m.items() if k.startswith("fock.") and k.endswith(".calls"))
    fock_self = sum(v["value"] for k, v in m.items() if k.startswith("fock.") and k.endswith(".self_s"))
    bad = []
    if workload == "bound" and m["symplectic.spectral_decomposition.calls"]["value"] != 0:
        bad.append("bound makes spectral_decomposition calls")
    if workload in ("sweep", "bound") and fock_calls != 0:
        bad.append(f"{workload} makes {fock_calls} fock calls")
    if workload == "oracle" and not fock_self > 0.5 * m["trace.task_s"]["value"]:
        bad.append(f"oracle fock self time {fock_self:.3f} s is not above half the task time")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=["sweep", "bound", "oracle"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        first, second = (traced(workload, args.seed, args.seconds) for _ in range(2))
        exact = sorted(k for k, v in first.items() if v["unit"] in EXACT_UNITS)
        diffs = [k for k in exact if first[k]["value"] != second[k]["value"]]
        bad = split_violations(workload, first)
        print(f"{workload}: {len(exact)} exact counts, {len(diffs)} differ"
              + "".join(f"\n  differs: {k} {first[k]['value']} vs {second[k]['value']}" for k in diffs)
              + "".join(f"\n  split: {b}" for b in bad))
        status |= bool(diffs or bad)
    return status


if __name__ == "__main__":
    sys.exit(main())
