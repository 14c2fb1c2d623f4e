"""Gaussian states, their characteristic functions and Schatten-power closed forms.

A Gaussian density operator is determined by its mean vector m and covariance
matrix alpha through Tr rho W(z) = exp(i m^T z - z^T alpha z / 2), with the
uncertainty constraint alpha + (i/2) Delta >= 0.  Powers of a Gaussian state
stay Gaussian up to normalization; the scalar spectral functions

    f_p(d) = (d + 1/2)^p - (d - 1/2)^p
    g_p(d) = [(d + 1/2)^p + (d - 1/2)^p] / (2 d [(d + 1/2)^p - (d - 1/2)^p])

turn the symplectic spectrum {d_j} of alpha into Tr rho^p = prod_j 1/f_p(d_j)
and into the covariance alpha g_p(abs(Delta^-1 alpha)) of the normalized
power state.  Gibbs states of quadratic Hamiltonians R eps R^T are Gaussian
with covariance (Delta/2) cot(beta eps Delta).
Both covariances are read from the Williamson basis of a positive definite
x = L L^T, the eigenvectors U of i L^T Delta^-1 L = U diag(+-e_j) U^H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    SingularEpsilonError,
    UncertaintyViolatedError,
)
from .symplectic import (
    TOL_SPEC,
    SymplecticSpace,
    _williamson_form,
    check_finite,
    check_psd_branches,
    check_symmetric,
    symplectic_spectrum,
)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of a Gaussian density operator.

    Construct through :func:`validate_state`, which enforces the uncertainty
    constraint; the fields themselves are not re-checked.
    """

    space: SymplecticSpace
    mean: np.ndarray
    cov: np.ndarray

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Symplectic spectrum {d_j} of the covariance, computed on first use."""
        return symplectic_spectrum(self.cov, self.space)


@dataclass(frozen=True, eq=False)
class GibbsFamily:
    """Family of Gibbs states of the quadratic Hamiltonian R epsilon R^T.

    epsilon must be real symmetric positive definite; checked on construction,
    where its Williamson basis is built once for every beta: ``eigenvalues``
    lam = +-e_j ascending, and ``basis`` W = L^-T U with W^H epsilon W = I.
    """

    space: SymplecticSpace
    epsilon: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eps = np.array(self.epsilon, dtype=float)
        if eps.shape != (self.space.dim, self.space.dim):
            raise DimensionMismatchError(
                f"epsilon shape {eps.shape} does not match 2s = {self.space.dim}"
            )
        check_symmetric(eps, "epsilon")
        chol, h = _williamson_form(eps, self.space, SingularEpsilonError, "epsilon")
        lam, u = np.linalg.eigh(h)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "basis", np.linalg.solve(chol.T, u))

    @property
    def spectrum(self) -> np.ndarray:
        """Symplectic spectrum {e_j} of epsilon, ascending: the positive eigenvalues."""
        return self.eigenvalues[self.space.s:]


def _check_p(p: float, allow_inf: bool = False) -> None:
    """Reject exponents outside [1, inf) (or [1, inf] with ``allow_inf``), NaN included."""
    if not (1.0 <= p < math.inf or (allow_inf and p == math.inf)):
        upper = "inf]" if allow_inf else "inf)"
        raise DomainError(f"exponent must lie in [1, {upper}, got {p}")


def _checked_d(d: float) -> float:
    # absolute slack TOL_SPEC * max(1, d) mirrors the spectrum tolerance
    if not math.isfinite(d) or d < 0.5 - TOL_SPEC * max(1.0, abs(d)):
        raise DomainError(f"symplectic eigenvalue must be finite and >= 1/2, got {d}")
    return max(float(d), 0.5)


def _power_terms(d: float, p: float) -> tuple[float, float]:
    # (r^p, 1 - r^p) with r = (d - 1/2)/(d + 1/2), stable at both domain edges:
    # direct subtraction below r = 1/2, log1p/expm1 above (r -> 1 as d -> inf)
    num = d - 0.5
    if num <= 0.0:
        return 0.0, 1.0
    den = d + 0.5
    r = num / den
    if r < 0.5:
        rp = r**p
        return rp, 1.0 - rp
    log_rp = p * math.log1p(-1.0 / den)
    return math.exp(log_rp), -math.expm1(log_rp)


def _log_f_p(d: float, p: float) -> float:
    _, one_minus_rp = _power_terms(d, p)
    return p * math.log(d + 0.5) + math.log(one_minus_rp)


def f_p(d: float, p: float) -> float:
    """(d + 1/2)^p - (d - 1/2)^p, evaluated in cancellation-free form.

    Saturates to float inf when the true value exceeds double range.
    """
    _check_p(p)
    d = _checked_d(d)
    _, one_minus_rp = _power_terms(d, p)
    try:
        return (d + 0.5) ** p * one_minus_rp
    except OverflowError:
        return math.inf


def g_p(d: float, p: float) -> float:
    """[(d+1/2)^p + (d-1/2)^p] / (2 d [(d+1/2)^p - (d-1/2)^p]).

    d * g_p(d) is the symplectic eigenvalue of the normalized p-th power of a
    single-mode thermal state with symplectic eigenvalue d; g_p(1/2) = 1 by
    continuity and g_p(d) -> 1/p as d -> infinity.
    """
    _check_p(p)
    d = _checked_d(d)
    rp, one_minus_rp = _power_terms(d, p)
    return (1.0 + rp) / (2.0 * d * one_minus_rp)


def validate_state(mean, cov, space: SymplecticSpace) -> GaussianState:
    """Validate (mean, cov) against the uncertainty constraint and build the state.

    Refuses non-finite entries (the spectrum refuses those of cov), then reads
    the state's spectrum once: for alpha > 0, alpha + (i/2) Delta >= 0 exactly
    when d_min >= 1/2.  Only at the boundary (d_min within TOL_SPEC of 1/2, or
    no Cholesky factor) do the branches alpha +- (i/2) Delta >= 0 run and
    decide; a violation reports its lambda_min on the exception.
    """
    mean = np.array(mean, dtype=float).reshape(-1)
    cov = np.array(cov, dtype=float)
    n = space.dim
    if mean.shape != (n,) or cov.shape != (n, n):
        raise DimensionMismatchError(
            f"expected mean ({n},) and cov ({n}, {n}), got {mean.shape} and {cov.shape}"
        )
    check_finite(mean, "mean", sum(mean.tolist()))
    state = GaussianState(space=space, mean=mean, cov=cov)
    try:
        d_min = float(state.spectrum[0])
    except DomainError:
        # a non-finite covariance is refused as such, never taken for a failed Cholesky
        check_finite(cov, "covariance matrix", float(abs(cov).max()))
        d_min = math.nan
    if not d_min >= 0.5 + TOL_SPEC * d_min:
        for ok, lam_min in check_psd_branches(cov, space.delta):
            if not ok:
                raise UncertaintyViolatedError(
                    f"uncertainty constraint violated: lambda_min = {lam_min:.6e}",
                    lambda_min=lam_min,
                )
    return state


def char_function(state: GaussianState, z) -> complex:
    """Quantum characteristic function exp(i m^T z - z^T alpha z / 2)."""
    z = np.asarray(z, dtype=float).reshape(-1)
    return complex(np.exp(1j * state.mean @ z - 0.5 * z @ state.cov @ z))


def _log_tr_rho_p(spectrum: np.ndarray, p: float) -> float:
    _check_p(p)
    return -sum(_log_f_p(_checked_d(d), p) for d in spectrum)


def _log_schatten_norm(spectrum: np.ndarray, p: float) -> float:
    _check_p(p, allow_inf=True)
    if p == math.inf:
        return -sum(math.log(d + 0.5) for d in spectrum)
    return _log_tr_rho_p(spectrum, p) / p


def tr_rho_p(state: GaussianState, p: float) -> float:
    """Tr rho^p = prod_j 1/f_p(d_j) over the symplectic spectrum, independent of the mean."""
    return math.exp(_log_tr_rho_p(state.spectrum, p))


def schatten_norm(state: GaussianState, p: float) -> float:
    """(Tr rho^p)^(1/p) for finite p; the largest eigenvalue prod_j (d_j + 1/2)^-1 at p = inf."""
    return math.exp(_log_schatten_norm(state.spectrum, p))


def power_cov(state: GaussianState, p: float) -> np.ndarray:
    """Covariance alpha g_p(abs(Delta^-1 alpha)) = L Re(U diag(g_p(|lam|)) U^H) L^T
    of the normalized p-th power state, from one eigensolve of its Williamson form."""
    chol, h = _williamson_form(state.cov, state.space, DomainError, "covariance matrix")
    lam, u = np.linalg.eigh(h)
    m = chol @ ((u * [g_p(abs(x), p) for x in lam]) @ u.conj().T).real @ chol.T
    return 0.5 * (m + m.T)


def power_char_function(state: GaussianState, p: float, z) -> complex:
    """Tr rho^p W(z): the closed-form characteristic function of the unnormalized power."""
    z = np.asarray(z, dtype=float).reshape(-1)
    cov_p = power_cov(state, p)
    return tr_rho_p(state, p) * complex(
        np.exp(1j * state.mean @ z - 0.5 * z @ cov_p @ z)
    )


def gibbs_state(family: GibbsFamily, beta: float) -> GaussianState:
    """Gibbs state at inverse temperature beta: mean 0, alpha = (Delta/2) cot(beta eps Delta).

    alpha = Re(W diag(lam coth(beta lam)/2) W^H) on the family's Williamson
    basis, one product per beta; validate_state runs at every beta.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"inverse temperature must be positive and finite, got {beta}")
    lam, w = family.eigenvalues, family.basis
    alpha = ((w * (0.5 * lam / np.tanh(beta * lam))) @ w.conj().T).real
    return validate_state(np.zeros(family.space.dim), 0.5 * (alpha + alpha.T), family.space)


def gibbs_asymptotic(family: GibbsFamily, beta: float) -> np.ndarray:
    """High-temperature comparator (2 beta epsilon)^-1 for the Gibbs covariance."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"inverse temperature must be positive and finite, got {beta}")
    try:
        inv = np.linalg.inv(2.0 * beta * family.epsilon)
    except np.linalg.LinAlgError as exc:
        raise SingularEpsilonError("epsilon is singular") from exc
    return 0.5 * (inv + inv.T)
