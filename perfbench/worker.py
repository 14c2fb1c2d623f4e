"""One workload process: set up, warm up, then time tasks in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|run|trace

The worker prints ``ready`` once set-up (imports, input generation and one
untimed warm-up task) is done and the first timed task is about to start;
``run.py`` times set-up up to that line.  Mode ``setup`` stops there.  Mode
``run`` then times tasks back to back for S seconds, with the workload's
yardstick timed between them, and prints one JSON object with the
end-to-end figures.  Mode ``trace`` runs the same untraced
loop, then one pass over the task pool with every traced function wrapped
(see ``tracing.py``), and prints the per-layer figures instead.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, fixed before numpy is imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_TAIL_BEYOND = 10
# figures of the untraced loop that a traced run reports as per-layer metrics
LOOP_FIGURES = {"task_tail_ys": "yardstick", "task_p50_ms": "ms", "task_tail_ms": "ms",
                "tasks_per_s": "1/s", "yardstick_p50_ms": "ms"}


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least MIN_TAIL_BEYOND samples above it: (value, percentile, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - MIN_TAIL_BEYOND  # samples at or below the reported value
    return ordered[k - 1], 100.0 * k / n, MIN_TAIL_BEYOND


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_tasks(workload, indices, tracer=None) -> dict:
    """Run tasks back to back, a yardstick before each and after the last.

    A failed task is counted, and timed apart from the others.  ``scaled``
    and ``failed_scaled`` hold (pool entry, task time over the mean of the
    yardsticks on either side) for each task that passed or failed.
    """
    times, failed_times, errors, scaled, failed_scaled = [], [], [], [], []
    yards = [timed(workload.yardstick)]
    attempted = 0
    start = time.perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            workload.task(i)
        except Exception as exc:  # a failed task is a measured outcome; keep going
            errors.append(f"task {i}: {type(exc).__name__}: {exc}")
            dt, kept, kept_scaled = time.perf_counter() - t0, failed_times, failed_scaled
        else:
            dt, kept, kept_scaled = time.perf_counter() - t0, times, scaled
        yards.append(timed(workload.yardstick))
        kept.append(dt)
        kept_scaled.append((i % len(workload.pool), 2.0 * dt / (yards[-2] + yards[-1])))
        attempted += 1
    wall_s = time.perf_counter() - start - sum(yards[1:])  # loop time without the yardsticks
    return {"times": times, "failed_times": failed_times, "errors": errors, "scaled": scaled,
            "failed_scaled": failed_scaled, "yards": yards, "attempted": attempted, "wall_s": wall_s}


def until(seconds: float):
    """Task indices 0, 1, 2, ... until ``seconds`` have passed; at least one."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield i
        i += 1


def task_times(loop: dict) -> list[float]:
    # latency is over the tasks that passed, unless none did
    return loop["times"] or loop["failed_times"]


def task_scaled(loop: dict) -> list[tuple[int, float]]:
    return loop["scaled"] or loop["failed_scaled"]


def pool_median(scaled: list[tuple[int, float]]) -> float:
    """Median over pool entries of each entry's median; the same mix of tasks whatever the seed's order."""
    by_entry: dict[int, list[float]] = {}
    for entry, value in scaled:
        by_entry.setdefault(entry, []).append(value)
    return statistics.median(statistics.median(values) for values in by_entry.values())


def end_to_end(loop: dict) -> tuple[dict, dict]:
    """End-to-end metrics (setup_s is added by run.py) and the loop's other figures.

    The tail is among the other figures: at the highest percentile with ten
    tasks beyond it, it is set by slow-downs shorter than a task, which the
    yardsticks around the task do not see, so it is reported but not bounded.
    """
    scaled = task_scaled(loop)
    tail_ys, percentile, beyond = tail([value for _, value in scaled])
    metrics = {
        "task_p50_ys": (pool_median(scaled), "yardstick"),
        "success_frac": (len(loop["times"]) / loop["attempted"], "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    times = task_times(loop)
    figures = {
        "task_tail_ys": tail_ys,
        "task_p50_ms": 1e3 * statistics.median(times),
        "task_tail_ms": 1e3 * tail(times)[0],
        "tasks_per_s": len(loop["times"]) / loop["wall_s"],
        "yardstick_p50_ms": 1e3 * statistics.median(loop["yards"]),
        "tail_percentile": percentile,
        "tail_tasks_beyond": beyond,
        "tasks_timed": len(loop["times"]),
    }
    return metrics, figures


def traced_pass(workload) -> tuple[Tracer, dict]:
    """One pass over the task pool with tracing on; the counts repeat exactly for a seed."""
    tracer = Tracer()
    tracer.install()
    try:
        loop = run_tasks(workload, range(workload.trace_tasks), tracer)
    finally:
        tracer.uninstall()
    return tracer, loop


def per_layer(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    functions = tracer.per_function()
    metrics = {}
    for name, (calls, total_s, self_s) in functions.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total_s, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for module, count in tracer.errors.items():
        metrics[f"{module}.errors"] = (count, "count")

    def calls(name):
        return functions[name][0]

    def ratio(num, den):
        return calls(num) / calls(den) if calls(den) else 0.0

    metrics["symplectic.spectral_decomposition.per_gibbs_point"] = (
        ratio("symplectic.spectral_decomposition", "states.gibbs_state"), "ratio")
    metrics["symplectic.symplectic_spectrum.per_state"] = (
        ratio("symplectic.symplectic_spectrum", "states.validate_state"), "ratio")
    metrics["fock.apply_kraus.flops"] = (tracer.counters["fock.apply_kraus.flops"], "flop")
    metrics["fock.attenuator_kraus.bytes"] = (tracer.counters["fock.attenuator_kraus.bytes"], "B")
    traced_times = task_times(traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(v for _, v in task_scaled(traced))
        / statistics.median(v for _, v in task_scaled(untraced)) - 1.0,
        "frac")
    metrics["trace.tasks"] = (len(traced_times), "count")
    metrics["trace.task_s"] = (sum(traced_times), "s")
    _, figures = end_to_end(untraced)
    for name, unit in LOOP_FIGURES.items():
        metrics[f"loop.{name}"] = (figures[name], unit)
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def provenance(seed: int, digest: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "inputs_sha256": digest,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_imported": "scipy" in sys.modules,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--spans", default=None, help="write the traced spans here as JSON")
    args = parser.parse_args(argv)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        import gaussnorm

        if not os.path.abspath(gaussnorm.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"gaussnorm imported from {gaussnorm.__file__}, not from {SRC}")
        warmup_error = None
        try:
            workload.task(0)
        except Exception as exc:  # reported; the timed loop counts failures
            warmup_error = f"{type(exc).__name__}: {exc}"
        print("ready", flush=True)
        if args.mode == "setup":
            return 0

        loop = run_tasks(workload, until(args.seconds))
        metrics, figures = end_to_end(loop)
        out = {
            "attempted": loop["attempted"],
            "failed": len(loop["errors"]),
            "errors": loop["errors"][:5] + ([f"warm-up: {warmup_error}"] if warmup_error else []),
            "loop": figures,
        }
        if args.mode == "trace":
            tracer, traced = traced_pass(workload)
            metrics = per_layer(tracer, traced, loop)
            out["attempted"] += traced["attempted"]
            out["failed"] += len(traced["errors"])
            out["errors"] += traced["errors"][:5]
            out["spans"] = len(tracer.spans)
            if args.spans:
                tracer.dump(args.spans)
        out["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        out["provenance"] = provenance(args.seed, workload.digest)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
