"""Command-line surface: check, norm, converge, scaling, oracle.

Exit codes are a stable contract: 0 success, 1 domain or validation failure,
2 parse or IO failure.  The converge subcommand writes its CSV atomically
(temp file plus rename) with the fixed header
``beta,tr_in,tr_out,ratio,target,rel_error`` and full round-trip precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import fock
from .channels import (
    apply_channel,
    cp_branches,
    divergence_exponent,
    norm_pp,
    ratio_sequence,
    scaling_exponent,
    validate_channel,
)
from .config import SweepSpec, load_config
from .errors import ConfigError, GaussNormError
from .states import char_function, power_char_function, tr_rho_p, validate_state
from .symplectic import check_finite, standard_form

CSV_HEADER = "beta,tr_in,tr_out,ratio,target,rel_error"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse exponent {text!r}")
    if not value >= 1.0:
        raise ConfigError(f"exponent must be >= 1, got {value}")
    return value


def cmd_check(args) -> int:
    spec, sweep = load_config(args.config)
    space = spec.space()
    name = spec.name or args.config
    K, l, mu = spec.matrices()
    status = EXIT_OK
    for label, (ok, lam_min) in zip("+-", cp_branches(K, mu, space)):
        print(f"{name}: CP branch {label}: lambda_min = {_fmt(lam_min)} -> {'ok' if ok else 'VIOLATED'}")
        if not ok:
            status = EXIT_INVALID
    if status == EXIT_OK:
        check_finite(l, "l", sum(l.tolist()))  # what validate_channel checks beyond the branches
        print(f"{name}: channel valid")
    if sweep is not None:
        sweep.family(space)  # raises on a bad epsilon
        print(f"{name}: sweep valid (p={sweep.p}, {sweep.points} points)")
    return status


def cmd_norm(args) -> int:
    spec, _ = load_config(args.config)
    channel = spec.to_channel()
    p = _parse_p(args.p)
    value = norm_pp(channel, p)
    print(f"det_K = {_fmt(channel.det_K())}")
    print(f"norm_pp(p={args.p}) = {_fmt(value)}")
    return EXIT_OK


def _resolve_sweep(args, sweep: SweepSpec | None) -> tuple[SweepSpec, np.ndarray]:
    """The config's sweep (or the defaults) with the given options applied, and its beta grid."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SweepSpec)
             if getattr(args, f.name, None) is not None}
    if "p" in given:
        given["p"] = _parse_p(given["p"])
    sweep = dataclasses.replace(sweep or SweepSpec(), **given)
    return sweep, np.geomspace(sweep.beta_start, sweep.beta_stop, sweep.points)


def cmd_converge(args) -> int:
    spec, sweep = load_config(args.config)
    channel = spec.to_channel()
    sweep, betas = _resolve_sweep(args, sweep)
    report = ratio_sequence(channel, sweep.family(spec.space()), sweep.p, betas)
    lines = [CSV_HEADER]
    for beta, log_in, log_out, ratio, rel in zip(
        report.betas, report.log_tr_in, report.log_tr_out, report.ratios, report.relative_errors
    ):
        row = (beta, math.exp(log_in), math.exp(log_out), ratio, report.target, rel)
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(sweep.output_path, "\n".join(lines) + "\n")
    print(f"wrote {len(report.betas)} rows to {sweep.output_path} (target {_fmt(report.target)}, "
          f"final rel_error {_fmt(report.relative_errors[-1])})")
    return EXIT_OK


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gaussnorm-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc


def cmd_scaling(args) -> int:
    spec, sweep = load_config(args.config)
    sweep, betas = _resolve_sweep(args, sweep)
    p, family = sweep.p, sweep.family(spec.space())
    fit = scaling_exponent(family, p, betas)
    print(f"scaling p={p}: fitted = {_fmt(fit.slope)} expected = {_fmt(fit.expected)} "
          f"residual = {_fmt(fit.residual)}")
    if sweep.q is not None:
        q = float(sweep.q)
        dfit = divergence_exponent(spec.to_channel(), family, q, p, betas)
        print(f"divergence q={q} p={p}: fitted = {_fmt(dfit.slope)} "
              f"expected = {_fmt(dfit.expected)} verdict = {dfit.verdict}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    # tau, N, the cutoff and p = inf are fock's to refuse: the first build checks all four
    # before any power or char function, and the closed forms come after the doubling check
    tau, N, p = args.tau, args.N, _parse_p(args.p)
    n_max = args.n_max if args.n_max is not None else fock.default_n_max(N)
    z = (1.0, 0.0)

    # one thermal state per cutoff, stored as 1x1 photon-number blocks, as are its output and
    # its power; each state's one spectrum serves all of its rows, and char_function_fock(rho, z)
    # reads W(z) only on the diagonals rho's blocks hold (here the main one)
    def build(n):
        rho = fock.thermal_state_fock(N, n)
        out = fock.attenuate(tau, rho)
        tr_out = fock.tr_power_fock(out, p)
        cov = fock.covariance_from_fock(out)[1]
        rho_p = fock.matrix_power_fock(rho, p)
        cfs = [fock.char_function_fock(r, z) for r in (rho, rho_p)]
        return np.concatenate([[tr_out, rho_p.trace()], cfs, cov.ravel()])

    tr_out, tr_in, cf, power_cf, *cov = fock.doubling_check(build, n_max)
    oracle_cov = np.reshape(cov, (2, 2)).real
    space = standard_form(1)
    state = validate_state([0.0, 0.0], (N + 0.5) * np.eye(2), space)
    # mu from the K passed, not from tau: fl(sqrt(tau))^2 can fall below tau, and the channel
    # K = sqrt(tau) I, mu = (1 - tau)/2 I is then non-CP by one rounding
    k = math.sqrt(tau)
    channel = validate_channel(k * np.eye(2), np.zeros(2), ((1.0 - k * k) / 2.0) * np.eye(2), space)
    out_state = apply_channel(channel, state)
    rows = [
        ("tr_rho_p", tr_rho_p(state, p), float(tr_in.real)),
        ("tr_rho_p after channel", tr_rho_p(out_state, p), float(tr_out.real)),
        ("output symplectic eigenvalue", float(out_state.spectrum[0]),
         math.sqrt(np.linalg.det(oracle_cov))),
        ("output covariance entries", 0.0, float(np.max(np.abs(oracle_cov - out_state.cov)))),
        ("char function at z=(1,0)", char_function(state, z), complex(cf)),
        ("power char function at z=(1,0)", power_char_function(state, p, z), complex(power_cf)),
    ]

    def show(v):
        return f"{v.real:.10g}{v.imag:+.3g}j" if isinstance(v, complex) else f"{v:.12g}"

    print(f"{'quantity':34s} {'closed form':>22s} {'oracle':>22s} {'abs diff':>12s} pass")
    passed = [abs(closed - oracle) <= 1e-8 for _, closed, oracle in rows]
    for (label, closed, oracle), ok in zip(rows, passed):
        print(f"{label:34s} {show(closed):>22s} {show(oracle):>22s} "
              f"{abs(closed - oracle):12.3e} {'yes' if ok else 'NO'}")
    return EXIT_OK if all(passed) else EXIT_INVALID


@functools.cache  # argparse's help formatter queries the terminal size per argument
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussnorm",
        description="Gaussian-channel Schatten norms: validity checks, norm formula, "
                    "convergence sweeps, scaling fits, and Fock-oracle certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate channel (and sweep) specs in a config file")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_norm = sub.add_parser("norm", help="print |det K|^(1/p - 1)")
    p_norm.add_argument("config")
    p_norm.add_argument("--p", default="2", help="exponent in [1, inf]; accepts 'inf'")
    p_norm.set_defaults(func=cmd_norm)

    p_conv = sub.add_parser("converge", help="beta sweep of Tr Phi[rho]^p / Tr rho^p, CSV output")
    p_conv.add_argument("config")
    p_conv.add_argument("--p", default=None)
    p_conv.add_argument("--beta-start", type=float, default=None)
    p_conv.add_argument("--beta-stop", type=float, default=None)
    p_conv.add_argument("--points", type=int, default=None)
    p_conv.add_argument("--out", dest="output_path", default=None)
    p_conv.set_defaults(func=cmd_converge)

    p_scal = sub.add_parser("scaling", help="fit ||rho_beta||_p scaling exponents")
    p_scal.add_argument("config")
    p_scal.add_argument("--p", default=None)
    p_scal.add_argument("--q", type=float, default=None)
    p_scal.add_argument("--beta-start", type=float, default=None)
    p_scal.add_argument("--beta-stop", type=float, default=None)
    p_scal.add_argument("--points", type=int, default=None)
    p_scal.set_defaults(func=cmd_scaling)

    p_orac = sub.add_parser("oracle", help="closed form vs truncated Fock oracle, pass/fail table")
    p_orac.add_argument("--tau", type=float, default=0.5)
    p_orac.add_argument("--N", type=float, default=1.0)
    p_orac.add_argument("--p", default="2", help="exponent in [1, inf)")
    p_orac.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_orac.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GaussNormError as exc:  # uncertainty and CP violations carry lambda_min
        lam = getattr(exc, "lambda_min", None)
        detail = "" if lam is None else f" (lambda_min = {_fmt(lam)})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return EXIT_INVALID
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
