"""Span tracing around the library's public functions, from outside the library.

Each traced function is replaced, in every ``gaussnorm`` module namespace that
binds it, by one wrapper that records a span: name, start, end, parent span
and task id.  Spans stay in memory until the run ends.  Nothing under
``src/`` changes; only modules the workload already imported are wrapped, so
tracing never pulls in a module (``bound`` never imports scipy).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> (attribute, span label); the cli commands are labelled by subcommand
LAYERS = {
    "symplectic": ["spectral_decomposition", "apply_spectral_function", "matrix_cot",
                   "symplectic_spectrum", "check_psd_hermitian"],
    "states": ["validate_state", "gibbs_state", "tr_rho_p", "schatten_norm", "power_cov",
               "char_function", "power_char_function"],
    "channels": ["validate_channel", "apply_channel", "norm_pp", "ratio_sequence",
                 "upper_bound_check", "scaling_exponent", "divergence_exponent"],
    "fock": ["thermal_state_fock", "attenuator_kraus", "apply_kraus", "tr_power_fock",
             "matrix_power_fock", "covariance_from_fock", "weyl_operator", "char_function_fock",
             "doubling_check"],
    "config": ["load_config"],
    "cli": ["main", ("cmd_converge", "converge"), ("cmd_scaling", "scaling"),
            ("cmd_oracle", "oracle")],
}

COMPLEX_BYTES = 16


def _entries():
    for module, funcs in LAYERS.items():
        for entry in funcs:
            attr, label = entry if isinstance(entry, tuple) else (entry, entry)
            yield module, attr, f"{module}.{label}"


SPAN_NAMES = [name for _, _, name in _entries()]


def _kraus_flops(args, result) -> int:
    # A rho A^dag per Kraus operator: two dense complex matmuls (8 real flops per
    # multiply-add) and one complex accumulate (2 flops per entry)
    kraus, rho = args
    dim = rho.matrix.shape[0]
    return len(kraus) * (2 * 8 * dim**3 + 2 * dim**2)


def _kraus_bytes(args, result) -> int:
    return sum(op.matrix.size for op in result) * COMPLEX_BYTES


# span name -> (counter name, function of (args, result) giving the amount)
SHAPE_COUNTERS = {
    "fock.apply_kraus": ("fock.apply_kraus.flops", _kraus_flops),
    "fock.attenuator_kraus": ("fock.attenuator_kraus.bytes", _kraus_bytes),
}


class Tracer:
    """Records spans for calls into the traced functions while installed."""

    def __init__(self):
        self.names = SPAN_NAMES
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans: list = []  # [name index, start, end, parent span index or -1, task id]
        self.errors = {module: 0 for module in LAYERS}
        self.counters = {counter: 0 for counter, _ in SHAPE_COUNTERS.values()}
        self.task = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, module: str, name: str, fn):
        index = self._index[name]
        counter = SHAPE_COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = [index, start, end, parent, self.task]
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "gaussnorm" or key.startswith("gaussnorm."))]
        for module, attr, name in _entries():
            mod = sys.modules.get(f"gaussnorm.{module}")
            if mod is None:
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(module, name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def per_function(self) -> dict:
        """calls, total_s and self_s per span name; self time excludes child spans."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            calls[index] += 1
            total[index] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.names)
        for span, (index, start, end, _, _) in enumerate(self.spans):
            self_s[index] += end - start - child[span]
        return {name: (calls[i], total[i], self_s[i]) for i, name in enumerate(self.names)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "task"],
                       "spans": self.spans}, fh, separators=(",", ":"))
