"""gaussnorm benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload sweep|bound|oracle --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload runs in its own worker process (``worker.py``), one
closed-loop client with one BLAS thread.  With ``--trace 0`` the last line of
standard output is the JSON result with the end-to-end metrics; ``setup_s``
is the median over SETUP_RUNS worker launches of the time from launch to the
first timed task.  With ``--trace 1`` it holds the per-module metrics of one
traced pass, plus import times measured in fresh interpreters.  The line
before it is a JSON record with the run's provenance and the loop's other
figures (the tail, its percentile, wall-clock times), also written to
``.perfbench/`` with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sweep", "bound", "oracle")
SETUP_RUNS = 5   # worker launches whose set-up is timed; setup_s is their median
IMPORT_RUNS = 3  # fresh interpreters per import-time figure; the median is reported
DEADLINE_S = 170.0  # whole run, below the 180 s a run may take
IMPORTS = {"import.gaussnorm_s": "gaussnorm", "import.gaussnorm_cli_s": "gaussnorm.cli"}


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0.0:
        raise BenchError("run exceeded its time budget")
    return left


def launch(args, mode: str, deadline: float, spans: str | None = None) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (launch to ``ready``) and, unless mode is setup, its result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining(deadline), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode} before finishing")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def import_time(module: str, deadline: float) -> float:
    """Seconds to import ``module`` from src/ in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            f"import {module} as m; dt = time.perf_counter() - t; "
            "assert m.__file__.startswith(sys.argv[1]); print(repr(dt))")
    proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT, env=pinned_env(),
                          capture_output=True, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"importing {module} failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "gaussnorm", "__init__.py")):
        print(f"error: no gaussnorm sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        if args.trace:
            imports = {name: statistics.median(import_time(module, deadline) for _ in range(IMPORT_RUNS))
                       for name, module in IMPORTS.items()}
            _, result = launch(args, "trace", deadline, spans=stem + "-spans.json")
            for name, value in imports.items():
                result["metrics"][name] = {"value": value, "unit": "s"}
        else:
            # set-up launches before and after the timed one, so they see more of the host's stretches
            before = (SETUP_RUNS - 1) // 2
            setups = [launch(args, "setup", deadline)[0] for _ in range(before)]
            setup_s, result = launch(args, "run", deadline)
            setups.append(setup_s)
            setups += [launch(args, "setup", deadline)[0] for _ in range(SETUP_RUNS - 1 - before)]
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            result["setup_samples_s"] = setups
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {key: value for key, value in result.items() if key != "metrics"}
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": result["metrics"]}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(result["metrics"].items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
