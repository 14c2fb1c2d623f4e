"""Bosonic Gaussian channels: validation, covariance action, and the p->p norm.

A channel is the triple (K, l, mu) acting on Weyl operators as
W(z) -> W(Kz) exp(i l^T z - z^T mu z / 2), complete-positivity being the pair
of matrix inequalities mu +- (i/2)(Delta - K^T Delta K) >= 0.  States
transform as alpha' = K^T alpha K + mu and m' = K^T m + l, one output rule
for apply_channel, upper_bound_check and compose.

For invertible K the p->p norm is |det K|^(1/p - 1), attained in the
beta -> 0 limit on Gibbs states; the estimators here certify that limit,
the upper-bound inequality on sampled Gaussian inputs, and the beta-scaling
exponents behind the q < p unboundedness.  Each checks its outputs as one
(B, 2s, 2s) stack; a sweep reads its Gibbs inputs' spectra coth(beta e_j)/2 from the family,
as gibbs_state does, and forms its outputs K^T alpha(beta) K + mu in one real product on the
K-folded basis K^T S, and upper_bound_check solves its inputs' spectra in the same stack as its outputs.
At p in {1, 2, 3, 4} the sweeps solve no output spectrum: log Tr Phi[rho_beta]^p comes from
real determinants, certified by a real and a complex batched Cholesky of the outputs; at q = 1,
where every Gaussian channel preserves trace, those two Choleskys are all divergence_exponent does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotCPError,
    NumericalOverflowError,
    QNotLessThanPError,
    SingularKError,
)
from .states import (
    GaussianState,
    GibbsFamily,
    _basis_covs,
    _check_p,
    _checked_spectra,
    _gibbs_spectra,
    _log_schatten_norm,
    _log_tr_rho_p,
    _log_tr_rho_p_covs,
    validate_state,
)
from .symplectic import PSD_SLACK, SymplecticSpace, check_finite, check_psd_hermitian, check_symmetric, real_array

DIVERGENCE_SLOPE = 1e-3  # a divergence verdict needs a fitted slope below -DIVERGENCE_SLOPE
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Gaussian channel triple (K, l, mu); construct via :func:`validate_channel`."""

    space: SymplecticSpace
    K: np.ndarray
    l: np.ndarray
    mu: np.ndarray

    def det_K(self) -> float:
        """det K as a double: +-inf or 0 where it leaves the range (log|det K| does not)."""
        with np.errstate(over="ignore", under="ignore"):
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


def cp_check(K: np.ndarray, mu: np.ndarray, space: SymplecticSpace) -> tuple[bool, float]:
    """(ok, lambda_min) of mu +- (i/2)(Delta - K^T Delta K) >= 0: one verdict for both signs.

    K and mu are 2s x 2s float arrays; K must be finite, mu finite and symmetric.
    F enters by its antisymmetric part, and the slack PSD_SLACK * max |H_ij| gains the
    rounding floor n^2 eps max (|K|^T |Delta K|)_ij, so an F that cancels to rounding
    (Gaussian unitaries, attenuators near tau = 1) passes; a K for which that maximum
    overflows is refused by name.
    """
    k = float(abs(K).max())
    check_finite(K, "K", k)
    check_symmetric(mu, "mu")
    dk = space.delta @ K  # exact: Delta is a signed permutation
    # (|K|^T |Delta K|)_ij sums the sizes of the terms of (K^T Delta K)_ij; formed on
    # K / max |K_ij|, it is inf only where those terms leave the double range
    span = k * k * float(((abs(K.T) / (k or 1.0)) @ (abs(dk) / (k or 1.0))).max())
    if not math.isfinite(span):
        raise DomainError("K^T Delta K leaves the double range: max (|K|^T |Delta K|)_ij overflows")
    f = space.delta - K.T @ dk
    h = mu + 0.5j * (0.5 * f - 0.5 * f.T)  # (f - f^T)/2 can overflow where f does not
    # rounding K^T Delta K, F's antisymmetric part and a symplectic K moves each entry of F
    # by about (n/2 + 3) eps span and lambda_min by n/2 times that: under n^2 eps span
    return check_psd_hermitian(h, tol=PSD_SLACK * abs(h).max() + space.dim ** 2 * EPS * span)


def validate_channel(K, l, mu, space: SymplecticSpace) -> GaussianChannel:
    """Check that K, l and mu are real, dimensions, finiteness, symmetry of mu, and complete positivity;
    build the channel."""
    K = real_array(K, "K")
    l = real_array(l, "l").reshape(-1)
    mu = real_array(mu, "mu")
    n = space.dim
    if K.shape != (n, n) or mu.shape != (n, n) or l.shape != (n,):
        raise DimensionMismatchError(
            f"expected K and mu ({n}, {n}) and l ({n},); got {K.shape}, {mu.shape}, {l.shape}"
        )
    check_finite(l, "l", sum(l.tolist()))
    ok, lam_min = cp_check(K, mu, space)
    if not ok:
        raise NotCPError(
            f"complete positivity fails on the + branch: lambda_min = {lam_min:.6e}",
            lambda_min=lam_min,
        )
    return GaussianChannel(space=space, K=K, l=l, mu=mu)


def _output_rule(channel: GaussianChannel, means: np.ndarray, covs: np.ndarray) -> tuple:
    """(m^T K + l, K^T alpha K + mu) for a mean and covariance, or (B, 2s) rows and a (B, 2s, 2s) stack;
    not validated: an output out of the double range holds inf or NaN, which the callers refuse by name."""
    if covs.shape[-1] != channel.space.dim:
        raise DimensionMismatchError("channel and state live on different spaces")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = 0.5 * (channel.K.T @ covs @ channel.K + channel.mu)  # halved first: cov + cov^T can overflow
        return means @ channel.K + channel.l, cov + cov.swapaxes(-1, -2)


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Transform a state: cov' = K^T cov K + mu, mean' = K^T mean + l."""
    # output validity is guaranteed mathematically; validate_state asserts it numerically
    return validate_state(*_output_rule(channel, state.mean, state.cov), channel.space)


def _log_abs_det_K(channel: GaussianChannel) -> float:
    """log|det K| for invertible K, from slogdet: finite wherever |det K| over- or underflows."""
    log_det = float(np.linalg.slogdet(channel.K)[1])
    # numpy's rank tolerance is relative to the largest singular value: no absolute scale
    if np.linalg.matrix_rank(channel.K) < channel.space.dim:
        raise SingularKError(f"theorem requires invertible K; log|det K| = {log_det:.6g}")
    return log_det


def _det_power(log_det: float, exponent: float, name: str, label: str) -> float:
    """|det K|^exponent = exp(exponent log|det K|), refused outside the normal double range."""
    log_value = exponent * log_det
    if not math.log(np.finfo(float).tiny) <= log_value <= math.log(np.finfo(float).max):
        raise NumericalOverflowError(f"{name} |det K|^({label}) is outside the double range: "
                                     f"({label}) log|det K| = {log_value:.6g}")
    return math.exp(log_value)


def _norm_exponent(p: float) -> float:
    """The exponent 1/p - 1 of |det K| in the p->p norm, -1 at p = inf."""
    _check_p(p, allow_inf=True)
    return 1.0 / p - 1.0


def norm_pp(channel: GaussianChannel, p: float) -> float:
    """The p->p norm |det K|^(1/p - 1) for invertible K; p may be math.inf.

    Taken as exp((1/p-1) log|det K|), so |det K| itself may leave the double
    range; a norm outside the normal double range raises NumericalOverflowError.
    """
    return _det_power(_log_abs_det_K(channel), _norm_exponent(p), "norm", "1/p-1")


def _sweep_outputs(channel: GaussianChannel, family: GibbsFamily,
                   betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, outputs): the Gibbs spectra d = coth(beta e_j)/2 read from the family, and their
    channel outputs M diag(x, x) M^T + mu, x = e d, on the folded basis M = K^T S; not validated."""
    if family.space.dim != channel.space.dim:
        raise DimensionMismatchError("channel and family live on different spaces")
    spectra_in = _gibbs_spectra(family, betas)
    # outputs that leave the double range hold inf or NaN, which the callers refuse by name
    with np.errstate(over="ignore", invalid="ignore"):
        return spectra_in, _basis_covs(channel.K.T @ family.basis, family.spectrum * spectra_in, channel.mu)


def _check_betas(betas, descending: bool = False) -> np.ndarray:
    """A non-empty 1-D grid of finite positive inverse temperatures, optionally strictly descending."""
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) == 0 or not np.all((betas > 0.0) & np.isfinite(betas)):
        raise DomainError("betas must be a non-empty 1-D list of finite positive reals")
    if descending and np.any(np.diff(betas) >= 0.0):
        raise DomainError("betas must be strictly descending")
    return betas


def _loglog_fit(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float]:
    coeffs, diag = np.polynomial.polynomial.polyfit(log_x, log_y, 1, full=True)
    ss = float(diag[0][0]) if len(diag[0]) else 0.0
    return float(coeffs[1]), math.sqrt(ss / len(log_x))


def ratio_sequence(channel: GaussianChannel, family: GibbsFamily, p: float, betas) -> ConvergenceReport:
    """Tr Phi[rho_beta]^p / Tr rho_beta^p along a descending beta grid.

    The target is |det K|^(1-p), refused with NumericalOverflowError outside
    the double range; relative errors |expm1(log_tr_out - log_tr_in - (1-p) log|det K|)|
    are reported per point.
    """
    betas = _check_betas(betas, descending=True)
    _check_p(p)
    log_det = _log_abs_det_K(channel)
    target = _det_power(log_det, 1.0 - p, "target", "1-p")
    spectra_in, covs_out = _sweep_outputs(channel, family, betas)
    log_in = _log_tr_rho_p(spectra_in, p)
    log_out = _log_tr_rho_p_covs(covs_out, channel.space, p)
    ratios = np.exp(log_out - log_in)
    rel = np.abs(np.expm1(log_out - log_in - (1.0 - p) * log_det))
    return ConvergenceReport(
        betas=betas, ratios=ratios, target=target, relative_errors=rel,
        log_tr_in=log_in, log_tr_out=log_out,
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
    margins mean the bound held.  Ratios come from log norms and (1/p-1) log|det K|,
    so norms and the bound may leave the double range.  The inputs that carry no
    spectrum yet are solved with the outputs in one stack, which fills their caches.
    A slack that is not finite or is <= -1 (a bound (1 + slack) times the norm <= 0) is
    refused before anything is solved; one in (-1, 0) makes the bound stricter.
    """
    if not (math.isfinite(slack) and slack > -1.0):
        raise DomainError(f"slack must be finite and > -1, got {slack}")
    log_bound = _norm_exponent(p) * _log_abs_det_K(channel)
    if not states:
        return [], math.inf
    if any(space.dim != channel.space.dim for space in {state.space for state in states}):
        raise DimensionMismatchError("channel and state live on different spaces")
    covs = np.array([state.cov for state in states])
    means, covs_out = _output_rule(channel, np.array([state.mean for state in states]), covs)
    check_finite(means, "mean", float(abs(means).max()))
    # the inputs without a cached spectrum ride in the outputs' stack and fill their caches
    todo = [i for i, state in enumerate(states) if "spectrum" not in vars(state)]
    spectra = _checked_spectra(np.concatenate((covs_out, covs[todo])), channel.space)
    for i, spectrum in zip(todo, spectra[len(states):]):
        object.__setattr__(states[i], "spectrum", spectrum)  # fills the cached property
    log_in = _log_schatten_norm(np.array([state.spectrum for state in states]), p)
    ratios = np.exp(_log_schatten_norm(spectra[:len(states)], p) - log_in - log_bound)
    return (ratios <= 1.0 + slack).tolist(), float((1.0 + slack - ratios).min())


def scaling_exponent(family: GibbsFamily, p: float, betas) -> ScalingFit:
    """Fit log ||rho_beta||_p against log beta; the law is beta^(s (p-1)/p).

    Reads the Gibbs spectra coth(beta e_j)/2 from the family; builds no state.
    """
    betas = _check_betas(betas)
    _check_p(p)
    if betas.max() < 99.0 * betas.min():  # a ratio of the two would overflow on a wide grid
        raise DomainError("beta grid must span at least two decades")
    log_norms = _log_tr_rho_p(_gibbs_spectra(family, betas), p) / p
    slope, resid = _loglog_fit(np.log(betas), log_norms)
    expected = family.space.s * (p - 1.0) / p
    return ScalingFit(slope=slope, residual=resid, expected=expected)


def check_q(q: float, p: float) -> None:
    """Reject a divergence exponent q outside [1, p), NaN included."""
    if not (1.0 <= q < p):
        raise QNotLessThanPError(f"need 1 <= q < p, got q={q}, p={p}")


def divergence_exponent(channel: GaussianChannel, family: GibbsFamily, q: float, p: float,
                        betas) -> DivergenceFit:
    """Fit the exponent of ||Phi[rho_beta]||_q / ||rho_beta||_p; expected s(1/p - 1/q).

    Verdict "diverges" requires a fitted slope below -DIVERGENCE_SLOPE and the
    ratio increasing monotonically over the last decade of the descending sweep.
    At q = 1, log ||Phi[rho_beta]||_1 = 0 for every output that is a state.
    """
    check_q(q, p)
    _check_p(p)
    betas = _check_betas(betas, descending=True)
    _log_abs_det_K(channel)
    spectra_in, covs_out = _sweep_outputs(channel, family, betas)
    log_out = _log_tr_rho_p_covs(covs_out, channel.space, q) / q
    log_ratio = log_out - _log_tr_rho_p(spectra_in, p) / p
    slope, resid = _loglog_fit(np.log(betas), log_ratio)
    expected = family.space.s * (1.0 / p - 1.0 / q)
    last_decade = betas <= 10.0 * betas[-1] * (1.0 + 1e-9)
    monotone = bool(np.all(np.diff(log_ratio[last_decade]) > 0.0))
    verdict = "diverges" if (slope < -DIVERGENCE_SLOPE and monotone) else "bounded"
    return DivergenceFit(slope=slope, residual=resid, expected=expected, verdict=verdict)


def compose(first: GaussianChannel, second: GaussianChannel) -> GaussianChannel:
    """Channel equal to applying ``first`` then ``second``.

    Covariance composition gives K = K1 K2, and (l, mu) = (K2^T l1 + l2, K2^T mu1 K2 + mu2),
    ``second``'s output rule applied to ``first``'s (l, mu).
    """
    if first.space.dim != second.space.dim:
        raise DimensionMismatchError("channels live on different spaces")
    return validate_channel(first.K @ second.K, *_output_rule(second, first.l, first.mu), first.space)
