"""Bosonic Gaussian channels: validation, covariance action, and the p->p norm.

A channel is the triple (K, l, mu) acting on Weyl operators as
W(z) -> W(Kz) exp(i l^T z - z^T mu z / 2), complete-positivity being the pair
of matrix inequalities mu +- (i/2)(Delta - K^T Delta K) >= 0.  States
transform as alpha' = K^T alpha K + mu and m' = K^T m + l.

For invertible K the p->p norm is |det K|^(1/p - 1), attained in the
beta -> 0 limit on Gibbs states; the estimators here certify that limit,
the upper-bound inequality on sampled Gaussian inputs, and the beta-scaling
exponents behind the q < p unboundedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotCPError,
    NumericalOverflowError,
    QNotLessThanPError,
    SingularKError,
)
from .states import (
    GaussianState,
    GibbsFamily,
    _check_p,
    _log_schatten_norm,
    _log_tr_rho_p,
    gibbs_state,
    validate_state,
)
from .symplectic import SymplecticSpace, check_finite, check_psd_branches, check_symmetric

D_OVERFLOW_CAP = 1e12  # largest symplectic eigenvalue allowed in sweeps


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Gaussian channel triple (K, l, mu); construct via :func:`validate_channel`."""

    space: SymplecticSpace
    K: np.ndarray
    l: np.ndarray
    mu: np.ndarray

    def det_K(self) -> float:
        return float(np.linalg.det(self.K))


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-beta norm-power ratios against the theorem target |det K|^(1-p).

    log_tr_in and log_tr_out are log Tr rho_beta^p and log Tr Phi[rho_beta]^p.
    """

    betas: np.ndarray
    ratios: np.ndarray
    target: float
    relative_errors: np.ndarray
    log_tr_in: np.ndarray
    log_tr_out: np.ndarray


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of a log-log scaling law, with fit residual."""

    slope: float
    residual: float
    expected: float


@dataclass(frozen=True)
class DivergenceFit:
    """Fitted exponent of ||Phi[rho_beta]||_q / ||rho_beta||_p and the verdict."""

    slope: float
    residual: float
    expected: float
    verdict: str  # "diverges" or "bounded"


def cp_branches(K: np.ndarray, mu: np.ndarray, space: SymplecticSpace) -> list[tuple[bool, float]]:
    """(ok, lambda_min) of mu +- (i/2)(Delta - K^T Delta K) >= 0, + branch first.

    K and mu are 2s x 2s float arrays; K must be finite, mu finite and symmetric.
    """
    check_finite(K, "K", np.linalg.norm(K))
    check_symmetric(mu, "mu")
    return check_psd_branches(mu, space.delta - K.T @ space.delta @ K)


def validate_channel(K, l, mu, space: SymplecticSpace) -> GaussianChannel:
    """Check dimensions, finiteness, symmetry of mu, and complete positivity; build the channel."""
    K = np.array(K, dtype=float)
    l = np.array(l, dtype=float).reshape(-1)
    mu = np.array(mu, dtype=float)
    n = space.dim
    if K.shape != (n, n) or mu.shape != (n, n) or l.shape != (n,):
        raise DimensionMismatchError(
            f"expected K and mu ({n}, {n}) and l ({n},); got {K.shape}, {mu.shape}, {l.shape}"
        )
    check_finite(l, "l", sum(l.tolist()))
    for sign, (ok, lam_min) in zip((1, -1), cp_branches(K, mu, space)):
        if not ok:
            raise NotCPError(
                f"complete positivity fails on the {'+' if sign > 0 else '-'} branch: "
                f"lambda_min = {lam_min:.6e}",
                lambda_min=lam_min,
                sign=sign,
            )
    return GaussianChannel(space=space, K=K, l=l, mu=mu)


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Transform a state: cov' = K^T cov K + mu, mean' = K^T mean + l."""
    if state.space.dim != channel.space.dim:
        raise DimensionMismatchError("channel and state live on different spaces")
    cov = channel.K.T @ state.cov @ channel.K + channel.mu
    mean = channel.K.T @ state.mean + channel.l
    # output validity is guaranteed mathematically; validate_state asserts it numerically
    return validate_state(mean, 0.5 * (cov + cov.T), channel.space)


def _abs_det_K(channel: GaussianChannel) -> float:
    # numpy's rank tolerance is relative to the largest singular value: no absolute scale
    with np.errstate(over="ignore", under="ignore"):
        det = channel.det_K()
    if np.linalg.matrix_rank(channel.K) < channel.space.dim:
        raise SingularKError(f"theorem requires invertible K; |det K| = {abs(det):.3e}")
    if not 0.0 < abs(det) < math.inf:
        log_det = np.linalg.slogdet(channel.K)[1]
        raise NumericalOverflowError(f"|det K| is outside the double range: log|det K| = {log_det:.6g}")
    return abs(det)


def norm_pp(channel: GaussianChannel, p: float) -> float:
    """The p->p norm |det K|^(1/p - 1) for invertible K; p may be math.inf."""
    abs_det = _abs_det_K(channel)
    _check_p(p, allow_inf=True)
    if p == math.inf:
        return 1.0 / abs_det
    return abs_det ** (1.0 / p - 1.0)


def _gibbs_spectra(family: GibbsFamily, betas: np.ndarray, cap: float) -> np.ndarray:
    """Gibbs spectra coth(beta e_j)/2, one row per beta, refused above the overflow cap."""
    ds = 0.5 / np.tanh(np.outer(betas, family.spectrum))
    if np.any(ds > cap):
        raise NumericalOverflowError(
            f"symplectic eigenvalue {ds.max():.3e} exceeds cap {cap:.1e}; shrink the beta range"
        )
    return ds


def _check_betas(betas, descending: bool = False) -> np.ndarray:
    """A non-empty 1-D grid of finite positive inverse temperatures, optionally strictly descending."""
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) == 0 or not np.all((betas > 0.0) & np.isfinite(betas)):
        raise ValueError("betas must be a non-empty 1-D list of finite positive reals")
    if descending and np.any(np.diff(betas) >= 0.0):
        raise ValueError("betas must be strictly descending")
    return betas


def _loglog_fit(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float]:
    coeffs, diag = np.polynomial.polynomial.polyfit(log_x, log_y, 1, full=True)
    ss = float(diag[0][0]) if len(diag[0]) else 0.0
    return float(coeffs[1]), math.sqrt(ss / len(log_x))


def ratio_sequence(
    channel: GaussianChannel,
    family: GibbsFamily,
    p: float,
    betas,
    overflow_cap: float = D_OVERFLOW_CAP,
) -> ConvergenceReport:
    """Tr Phi[rho_beta]^p / Tr rho_beta^p along a descending beta grid.

    The target is |det K|^(1-p), refused with NumericalOverflowError outside
    the double range; relative errors are reported per point.
    """
    betas = _check_betas(betas, descending=True)
    _check_p(p)
    abs_det = _abs_det_K(channel)
    try:
        target = abs_det ** (1.0 - p)
    except OverflowError:
        target = math.inf
    if not np.finfo(float).tiny <= target < math.inf:
        raise NumericalOverflowError(f"target |det K|^(1-p) is outside the double range: "
                                     f"(1-p) log|det K| = {(1.0 - p) * math.log(abs_det):.6g}")
    _gibbs_spectra(family, betas, overflow_cap)
    log_in, log_out, ratios = [], [], []
    for rho in (gibbs_state(family, beta) for beta in betas):
        out = apply_channel(channel, rho)
        li = _log_tr_rho_p(rho.spectrum, p)
        lo = _log_tr_rho_p(out.spectrum, p)
        log_in.append(li)
        log_out.append(lo)
        ratios.append(math.exp(lo - li))
    ratios = np.array(ratios)
    rel = np.abs(ratios / target - 1.0)
    return ConvergenceReport(
        betas=betas, ratios=ratios, target=target, relative_errors=rel,
        log_tr_in=np.array(log_in), log_tr_out=np.array(log_out),
    )


def upper_bound_check(
    channel: GaussianChannel,
    states: list[GaussianState],
    p: float,
    slack: float = 1e-10,
) -> tuple[list[bool], float]:
    """Check ||Phi[rho]||_p <= |det K|^(1/p-1) ||rho||_p (1 + slack) per state.

    Returns the per-state verdicts and the worst margin
    min_i (1 + slack - ||Phi[rho_i]||_p / (norm * ||rho_i||_p)); nonnegative
    margins mean the bound held.  Ratios come from log norms, so norms may underflow.
    """
    log_bound = math.log(norm_pp(channel, p))
    oks, worst = [], np.inf
    for state in states:
        out = apply_channel(channel, state)
        log_ratio = _log_schatten_norm(out.spectrum, p) - _log_schatten_norm(state.spectrum, p)
        ratio = math.exp(log_ratio - log_bound)
        margin = 1.0 + slack - ratio
        worst = min(worst, margin)
        oks.append(ratio <= 1.0 + slack)
    return oks, float(worst)


def scaling_exponent(family: GibbsFamily, p: float, betas) -> ScalingFit:
    """Fit log ||rho_beta||_p against log beta; the law is beta^(s (p-1)/p).

    Reads the Gibbs spectra coth(beta e_j)/2 from the family; builds no state.
    """
    betas = _check_betas(betas)
    _check_p(p)
    if betas.max() / betas.min() < 99.0:
        raise ValueError("beta grid must span at least two decades")
    log_norms = [_log_tr_rho_p(ds, p) / p for ds in _gibbs_spectra(family, betas, D_OVERFLOW_CAP)]
    slope, resid = _loglog_fit(np.log(betas), np.array(log_norms))
    expected = family.space.s * (p - 1.0) / p
    return ScalingFit(slope=slope, residual=resid, expected=expected)


def divergence_exponent(
    channel: GaussianChannel,
    family: GibbsFamily,
    q: float,
    p: float,
    betas,
    slope_threshold: float = 1e-3,
) -> DivergenceFit:
    """Fit the exponent of ||Phi[rho_beta]||_q / ||rho_beta||_p; expected s(1/p - 1/q).

    Verdict "diverges" requires a fitted slope below -slope_threshold and the
    ratio increasing monotonically over the last decade of the descending sweep.
    """
    if not (1.0 <= q < p):
        raise QNotLessThanPError(f"need 1 <= q < p, got q={q}, p={p}")
    _check_p(p)
    betas = _check_betas(betas, descending=True)
    _abs_det_K(channel)
    _gibbs_spectra(family, betas, D_OVERFLOW_CAP)
    log_ratio = []
    for rho in (gibbs_state(family, beta) for beta in betas):
        out = apply_channel(channel, rho)
        log_ratio.append(_log_tr_rho_p(out.spectrum, q) / q - _log_tr_rho_p(rho.spectrum, p) / p)
    log_ratio = np.array(log_ratio)
    slope, resid = _loglog_fit(np.log(betas), log_ratio)
    expected = family.space.s * (1.0 / p - 1.0 / q)
    last_decade = betas <= 10.0 * betas[-1] * (1.0 + 1e-9)
    monotone = bool(np.all(np.diff(log_ratio[last_decade]) > 0.0))
    verdict = "diverges" if (slope < -slope_threshold and monotone) else "bounded"
    return DivergenceFit(slope=slope, residual=resid, expected=expected, verdict=verdict)


def compose(first: GaussianChannel, second: GaussianChannel) -> GaussianChannel:
    """Channel equal to applying ``first`` then ``second``.

    Covariance composition gives K = K1 K2, l = K2^T l1 + l2,
    mu = K2^T mu1 K2 + mu2.
    """
    if first.space.dim != second.space.dim:
        raise DimensionMismatchError("channels live on different spaces")
    K = first.K @ second.K
    l = second.K.T @ first.l + second.l
    mu = second.K.T @ first.mu @ second.K + second.mu
    return validate_channel(K, l, 0.5 * (mu + mu.T), first.space)
