"""The three closed-loop workloads and their correctness gates.

Each workload builds its inputs from the seed with the numpy-only generator
in ``inputs``, keeps a pool of tasks, and runs task ``i`` as pool entry
``i % len(pool)``.  A task either returns normally or raises ``GateFailure``
(or whatever the library raised); the worker counts both kinds of failure.
Every reference a gate compares against is computed here, at set-up, from the
generated inputs, so a fast wrong path cannot pass.

Why these three:

* ``sweep`` certifies the p->p norm through ``gaussnorm converge`` and
  ``gaussnorm scaling`` at s = 16.  The Gibbs pipeline dominates
  (``spectral_decomposition``, ``matrix_cot``), with config parsing, the CSV
  rebuild and the atomic write on the path.
* ``bound`` checks the upper-bound inequality on batches of 100 two-mode
  states.  Many tiny matrices, so per-call overhead in ``symplectic_spectrum``
  and ``check_psd_hermitian`` dominates; no Gibbs state, no Fock code, no
  scipy import.  A change that batches or adds per-call set-up shows here.
* ``oracle`` runs ``gaussnorm oracle`` over tau, N and p.  Dense Fock-space
  arithmetic (``apply_kraus``, ``attenuator_kraus``) dominates and almost no
  covariance code runs.  N >= 2 is left out: its doubling check runs at
  n_max = 320 and takes about ten seconds a task.

Each workload also has a yardstick: a fixed numpy job of the same kind as its
hot path, built from a fixed seed and never from ``gaussnorm``.  The worker
times it next to every task and reports task times in yardsticks, so that a
stretch in which a shared host runs all code slower moves both and cancels,
while a change to the library moves only the task.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import inputs


YARDSTICK_SEED = 20170707


def _spd(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class GateFailure(Exception):
    """A task's output disagreed with the benchmark's own reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


def _run_cli(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


class Sweep:
    name = "sweep"
    S = 16
    P_CYCLE = (1.5, 2.0, 3.0)
    POOL = 6
    BETA_START, BETA_STOP, POINTS = 1e-1, 1e-5, 17
    CSV_HEADER = "beta,tr_in,tr_out,ratio,target,rel_error"

    def __init__(self, seed: int, workdir: str):
        import gaussnorm.cli

        self._cli = gaussnorm.cli  # looked up per call, so tracing sees cli.main
        rng = np.random.default_rng(seed)
        n = 2 * self.S
        betas = np.geomspace(self.BETA_START, self.BETA_STOP, self.POINTS)
        self.pool, arrays = [], [betas]
        for i in range(self.POOL):
            p = self.P_CYCLE[i % len(self.P_CYCLE)]
            abs_det = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            k = inputs.well_conditioned_k(rng, n, abs_det)
            mu = inputs.cp_threshold_mu(k)
            l = rng.standard_normal(n)
            e = rng.uniform(0.5, 2.0, size=self.S)  # symplectic spectrum of epsilon
            eps = inputs.williamson(rng, e, max_squeeze=1.5)
            config = os.path.join(workdir, f"sweep-{i}.json")
            csv = os.path.join(workdir, f"sweep-{i}.csv")
            doc = {
                "channel": {"name": f"sweep-{i}", "s": self.S, "K": k.ravel().tolist(),
                            "l": l.tolist(), "mu": mu.ravel().tolist()},
                "sweep": {"epsilon": eps.ravel().tolist(), "p": p, "q": 1.0,
                          "beta_start": self.BETA_START, "beta_stop": self.BETA_STOP,
                          "points": self.POINTS, "output_path": csv},
            }
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            d_in = 0.5 / np.tanh(np.outer(betas, e))  # Gibbs spectrum coth(beta e_j) / 2
            self.pool.append({
                "config": config,
                "csv": csv,
                "target": math.exp((1.0 - p) * inputs.log_abs_det(k)),
                "tr_in": np.exp(-np.sum(inputs.log_f_p(d_in, p), axis=1)),
                "slope": self.S * (p - 1.0) / p,
            })
            arrays += [k, mu, l, eps, e, [p]]
        self.digest = inputs.digest(arrays)
        self.trace_tasks = self.POOL
        yard_rng = np.random.default_rng(YARDSTICK_SEED)
        self._yard = _spd(yard_rng, n) @ yard_rng.standard_normal((n, n))

    def yardstick(self) -> float:
        """Matrix functions through a general eigendecomposition at the workload's size, 2s = 32."""
        a, acc = self._yard, 0.0
        for _ in range(6):
            w, v = np.linalg.eig(a)
            fw = np.array([complex(math.tanh(lam.real / 64.0)) for lam in w])
            acc += float((v @ np.diag(fw) @ np.linalg.inv(v)).real[0, 0])
        return acc

    def task(self, i: int) -> None:
        ref = self.pool[i % self.POOL]
        code_c, _ = _run_cli(self._cli.main, ["converge", ref["config"]])
        code_s, text = _run_cli(self._cli.main, ["scaling", ref["config"]])
        self.check(ref, code_c, code_s, text)

    def check(self, ref, code_c: int, code_s: int, text: str) -> None:
        _require(code_c == 0 and code_s == 0, f"exit codes {code_c}, {code_s}")
        with open(ref["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == self.CSV_HEADER, f"CSV header {lines[0]!r}")
        _require(len(lines) == 1 + self.POINTS, f"{len(lines) - 1} CSV rows")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        _require(rows.shape[1] == 6, "CSV column count")
        _require(bool(np.all(np.abs(rows[:, 4] / ref["target"] - 1.0) <= 1e-12)), "target column")
        _require(bool(np.all(np.abs(rows[:, 1] / ref["tr_in"] - 1.0) <= 1e-9)), "tr_in column")
        _require(rows[-1, 5] <= 1e-2, f"final rel_error {rows[-1, 5]}")
        slope = verdict = None
        for line in text.splitlines():
            words = line.split()
            if line.startswith("scaling "):
                slope = float(words[words.index("fitted") + 2])
            elif line.startswith("divergence "):
                verdict = words[words.index("verdict") + 2]
        _require(slope is not None and abs(slope / ref["slope"] - 1.0) <= 0.02, f"scaling slope {slope}")
        _require(verdict == "diverges", f"divergence verdict {verdict}")


class Bound:
    name = "bound"
    S = 2
    BATCH = 100
    P_CYCLE = (1.5, 2.0, 4.0, math.inf)
    POOL = 12

    def __init__(self, seed: int, workdir: str):
        import gaussnorm

        self._gn = gaussnorm
        self.space = gaussnorm.standard_form(self.S)
        rng = np.random.default_rng(seed)
        n = 2 * self.S
        self.pool, arrays = [], []
        for i in range(self.POOL):
            p = self.P_CYCLE[i % len(self.P_CYCLE)]
            abs_det = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            k = inputs.well_conditioned_k(rng, n, abs_det)
            mu = inputs.cp_threshold_mu(k)
            l = rng.standard_normal(n)
            pairs, norms = [], []
            for _ in range(self.BATCH):
                d = rng.uniform(0.5, 6.0, size=self.S)
                cov = inputs.williamson(rng, d, max_squeeze=2.0)
                mean = rng.standard_normal(n)
                pairs.append((mean, cov))
                norms.append(inputs.schatten_norm_ref(d, p))
                arrays += [mean, cov, d]
            self.pool.append({"K": k, "l": l, "mu": mu, "p": p, "pairs": pairs,
                              "norms": np.array(norms)})
            arrays += [k, mu, l, [p]]
        self.digest = inputs.digest(arrays)
        self.trace_tasks = self.POOL
        self._yard = _spd(np.random.default_rng(YARDSTICK_SEED), 2 * self.S)

    def yardstick(self) -> float:
        """Many tiny eigensolves, 4 x 4 as here: per-call overhead, like the task."""
        a, acc = self._yard, 0.0
        for _ in range(300):
            acc += float(np.linalg.eigvalsh(a)[0])
        return acc

    def task(self, i: int) -> None:
        gn, ref = self._gn, self.pool[i % self.POOL]
        channel = gn.validate_channel(ref["K"], ref["l"], ref["mu"], self.space)
        states = [gn.validate_state(mean, cov, self.space) for mean, cov in ref["pairs"]]
        oks, worst = gn.upper_bound_check(channel, states, ref["p"])
        norms = [gn.schatten_norm(state, ref["p"]) for state in states]
        _require(len(oks) == self.BATCH and all(oks), "upper bound violated")
        _require(worst >= 0.0, f"worst margin {worst}")
        _require(bool(np.all(np.abs(np.array(norms) / ref["norms"] - 1.0) <= 1e-9)),
                 "schatten_norm against the generated spectrum")


class Oracle:
    name = "oracle"
    TAUS = (0.3, 0.5, 0.9)
    NS = (0.5, 1.0)
    PS = (1.5, 2.0, 3.0)
    ROWS = 6

    def __init__(self, seed: int, workdir: str):
        import gaussnorm.cli

        self._cli = gaussnorm.cli
        grid = [(t, n, p) for t in self.TAUS for n in self.NS for p in self.PS]
        order = np.random.default_rng(seed).permutation(len(grid))
        self.pool = [grid[j] for j in order]
        self.digest = inputs.digest([np.array(self.pool)])
        self.trace_tasks = len(self.pool)
        yard_rng = np.random.default_rng(YARDSTICK_SEED)
        self._yard = yard_rng.standard_normal((161, 161)) + 1j * yard_rng.standard_normal((161, 161))
        self._yard_h = np.ascontiguousarray(self._yard.conj().T)
        # preallocated, so the yardstick leaves the allocator and peak_rss_mb as they were
        self._yard_out = (np.empty_like(self._yard), np.empty_like(self._yard))

    def yardstick(self) -> float:
        """Complex products at the doubling check's Fock dimension, 161, and a scalar Python loop."""
        a, ah, (ab, abh), acc = self._yard, self._yard_h, self._yard_out, 0.0
        for _ in range(2):
            np.matmul(a, a, out=ab)
            np.matmul(ab, ah, out=abh)
            acc += float(abh[0, 0].real)
        for n in range(1, 1000):
            acc += math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n // 2 + 1) - math.lgamma(n - n // 2 + 1)) - n)
        return acc

    def task(self, i: int) -> None:
        tau, N, p = self.pool[i % len(self.pool)]
        code, text = _run_cli(self._cli.main, ["oracle", "--tau", repr(tau), "--N", repr(N), "--p", repr(p)])
        _require(code == 0, f"exit code {code}")
        verdicts = [line.split()[-1] for line in text.splitlines()[1:] if line.strip()]
        _require(verdicts == ["yes"] * self.ROWS, f"oracle rows {verdicts}")


WORKLOADS = {cls.name: cls for cls in (Sweep, Bound, Oracle)}
