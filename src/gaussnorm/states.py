"""Gaussian states, their characteristic functions and Schatten-power closed forms.

A Gaussian density operator is determined by its mean vector m and covariance
matrix alpha through Tr rho W(z) = exp(i m^T z - z^T alpha z / 2) (one kernel
for a state and its power), with the uncertainty constraint alpha + (i/2) Delta
>= 0.  Powers of a Gaussian state stay Gaussian up to normalization; the spectral
functions

    f_p(d) = (d + 1/2)^p - (d - 1/2)^p
    g_p(d) = [(d + 1/2)^p + (d - 1/2)^p] / (2 d [(d + 1/2)^p - (d - 1/2)^p])

turn the symplectic spectrum {d_j} of alpha into Tr rho^p = prod_j 1/f_p(d_j)
and into the covariance alpha g_p(abs(Delta^-1 alpha)) of the normalized
power state.  Gibbs states of quadratic Hamiltonians R eps R^T are Gaussian
with covariance (Delta/2) cot(beta eps Delta).
Both covariances are read from the Williamson basis of a positive definite
x = L L^T, the eigenvectors U of i L^T Delta^-1 L = U diag(+-e_j) U^H; the
-e_j columns of W = L^-T U are the conjugates of the +e_j columns, so a Gibbs
family keeps the real basis S = sqrt(2) [Re W_+, Im W_+].  At one mode that form
is det(L) (-i Delta): a state's spectrum is d = L_00 L_11 and its power
covariance g_p(d) alpha, with no solve.  At two modes the spectrum is read off L
and L^T Delta L in closed form, with no solve either; the power covariance, which
needs the eigenvectors, keeps its eigh there.
validate_state certifies the constraint with one complex Cholesky factor of
alpha + (i/2) Delta, keeps the symmetric part it factored and solves no
spectrum; a state solves its own on first use through symplectic_spectrum,
unless upper_bound_check's stack has filled it or gibbs_state has set it.
Batches of covariances (sampled inputs, a beta grid)
are (B, 2s, 2s) stacks: one batched spectrum and verdict, or that Cholesky
certificate, and one array evaluation of log f_p each; a stack with a member
that has no Cholesky factor is refused whole.  At p in {1, 2, 3, 4} a stack's
log Tr rho^p needs no spectrum: f_p(d) = p d^(p even) prod_t (d^2 + t^2) with
t = cot(pi k/p)/2, and det(alpha + t Delta) = prod_j (d_j^2 + t^2), so a real
Cholesky of alpha and at most one LU give it; that Cholesky and the complex one
certify the stack, and a stack either fails on goes to the spectra.  The sweeps'
stack kernels allocate each stack-sized temporary once: a call's peak is one real
and two complex (B, 2s, 2s) stacks, and none is formed twice.  One
state's spectrum takes the same form of log f_p a float at a time.  gibbs_state
and the sweeps read one Gibbs spectrum, coth(beta e_j)/2, from the family: a
Gibbs state carries it exactly, and no Gibbs state is eigensolved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NumericalOverflowError,
    SingularEpsilonError,
    UncertaintyViolatedError,
)
from .symplectic import (
    TOL_SPEC,
    SymplecticSpace,
    _williamson_form,
    check_finite,
    check_psd_pair,
    check_symmetric,
    real_array,
    symplectic_spectrum,
)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of a Gaussian density operator.

    Construct through :func:`validate_state`, which enforces the uncertainty
    constraint and stores a symmetric covariance; the fields themselves are not
    re-checked.
    """

    space: SymplecticSpace
    mean: np.ndarray
    cov: np.ndarray

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Symplectic spectrum {d_j}: solved on first use or by upper_bound_check, or set by gibbs_state."""
        return symplectic_spectrum(self.cov, self.space)


@dataclass(frozen=True, eq=False)
class GibbsFamily:
    """Family of Gibbs states of the quadratic Hamiltonian R epsilon R^T.

    epsilon must be real symmetric positive definite; checked on construction,
    where its Williamson basis is built once for every beta: the ``spectrum``
    e_j of epsilon, ascending, and the real ``basis`` S = sqrt(2) [Re W_+, Im W_+]
    with S^T epsilon S = I, W_+ = L^-T U_+ the columns of the +e_j.
    """

    space: SymplecticSpace
    epsilon: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eps = real_array(self.epsilon, "epsilon")
        if eps.shape != (self.space.dim, self.space.dim):
            raise DimensionMismatchError(
                f"epsilon shape {eps.shape} does not match 2s = {self.space.dim}"
            )
        check_symmetric(eps, "epsilon")
        chol, h = _williamson_form(eps, self.space, SingularEpsilonError, "epsilon")
        lam, u = np.linalg.eigh(h)
        w = np.linalg.solve(chol.T, u[:, self.space.s:])
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "spectrum", lam[self.space.s:])
        object.__setattr__(self, "basis", math.sqrt(2.0) * np.hstack((w.real, w.imag)))


def _check_p(p: float, allow_inf: bool = False) -> None:
    """Reject exponents outside [1, inf) (or [1, inf] with ``allow_inf``), NaN included."""
    if not (1.0 <= p < math.inf or (allow_inf and p == math.inf)):
        upper = "inf]" if allow_inf else "inf)"
        raise DomainError(f"exponent must lie in [1, {upper}, got {p}")


def _checked_eigenvalue(d: float) -> float:
    """d, read as 1/2 within TOL_SPEC * max(1, |d|) below it; NaN, inf and smaller d are refused."""
    if not (math.isfinite(d) and d >= 0.5 - TOL_SPEC * max(1.0, abs(d))):
        raise DomainError(f"symplectic eigenvalue must be finite and >= 1/2, got {d}")
    return max(d, 0.5)


def _checked_eigenvalues(d) -> np.ndarray:
    """The array twin of _checked_eigenvalue: refuses or reads as 1/2 each entry of d alike."""
    d = np.asarray(d, dtype=float)
    # the domain test is monotone in d, so the extremes decide it for every entry
    _checked_eigenvalue(float(d.min()))
    _checked_eigenvalue(float(d.max()))
    return np.maximum(d, 0.5)


def _power_terms(d, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, d + 1/2, 1 - r^p) elementwise over symplectic eigenvalues d, r = (d - 1/2)/(d + 1/2).

    Refuses NaN, inf and d below 1/2 by more than TOL_SPEC * max(1, |d|); d
    within that slack is read as 1/2.  1 - r^p = -expm1(p log1p(-1/(d + 1/2)))
    over the whole domain: log1p(-1) = -inf gives exactly 1 at d = 1/2, and
    only underflow of r^p passes silently.
    """
    d = _checked_eigenvalues(d)
    den = d + 0.5
    with np.errstate(divide="ignore", under="ignore"):
        return d, den, -np.expm1(p * np.log1p(-1.0 / den))


def _log_f_p(d, p: float) -> np.ndarray:
    # log f_p(d) = p log(d + 1/2) + log(1 - r^p), elementwise
    _, den, one_minus_rp = _power_terms(d, p)
    return p * np.log(den) + np.log(one_minus_rp)


def _power_term(d: float, p: float) -> tuple[float, float]:
    """(d + 1/2, 1 - r^p) for one float d in math arithmetic: the domain test and form
    of _power_terms, without an array's fixed cost."""
    den = _checked_eigenvalue(d) + 0.5
    # math.log1p(-1) raises where numpy's gives -inf; 1 - r^p is exactly 1 there
    return den, (-math.expm1(p * math.log1p(-1.0 / den)) if den > 1.0 else 1.0)


def _sum_log_f_p(spectrum: np.ndarray, p: float) -> float:
    # sum_j log f_p(d_j) over one spectrum, a float at a time: the one-state twin of
    # _log_f_p(...).sum(axis=-1), which stacks keep
    total = 0.0
    for d in spectrum.tolist():
        den, one_minus_rp = _power_term(d, p)
        total += p * math.log(den) + math.log(one_minus_rp)
    return total


def f_p(d: float, p: float) -> float:
    """(d + 1/2)^p - (d - 1/2)^p = (d + 1/2)^p (1 - r^p), evaluated in cancellation-free form.

    Where (d + 1/2)^p overflows, f_p is (h (1 - r^p)) h with h = (d + 1/2)^(p/2),
    which stays finite wherever f_p ~ p d^(p-1) does, to a few ulps; float inf
    comes back only when f_p itself leaves double range.
    """
    _check_p(p)
    den, one_minus_rp = _power_term(float(d), p)
    try:
        return den**p * one_minus_rp
    except OverflowError:
        pass
    try:
        half = den ** (0.5 * p)
    except OverflowError:
        return math.inf
    return half * one_minus_rp * half


def g_p(d, p: float):
    """[(d+1/2)^p + (d-1/2)^p] / (2 d [(d+1/2)^p - (d-1/2)^p]), elementwise over an array d.

    d * g_p(d) is the symplectic eigenvalue of the normalized p-th power of a
    single-mode thermal state with symplectic eigenvalue d; g_p(1/2) = 1 by
    continuity and g_p(d) -> 1/p as d -> infinity.
    """
    _check_p(p)
    d, _, one_minus_rp = _power_terms(d, p)
    # 1 + r^p = 2 - (1 - r^p), with no cancellation since r^p < 1; halved last, as 2d can overflow
    return 0.5 * ((2.0 - one_minus_rp) / (d * one_minus_rp))


def _checked_spectra(covs: np.ndarray, space: SymplecticSpace) -> np.ndarray:
    """Symplectic spectra (B, s) of covariances (B, 2s, 2s), each held to uncertainty.

    The stacks' verdict (sweep outputs whose spectra are used, and upper_bound_check's
    outputs with its inputs): one batched symplectic_spectrum refuses non-finite and
    asymmetric matrices, each on its own scale.  For alpha > 0 the constraint holds exactly
    when d_min >= 1/2; only members within TOL_SPEC of 1/2 go to _certify_uncertainty.  A
    stack with a member that has no Cholesky factor goes there whole: its first violator
    is refused with its lambda_min, and without one the stack is refused as not positive
    definite, as that member's own spectrum is.
    """
    try:
        spectra = symplectic_spectrum(covs, space)
    except DomainError:
        # a non-finite covariance is refused as such, never taken for a failed Cholesky
        check_finite(covs, "covariance matrix", float(abs(covs).max()))
        _certify_uncertainty(covs, space)
        raise
    near = spectra[:, 0] < 0.5 + TOL_SPEC * spectra[:, 0]
    if near.any():
        _certify_uncertainty(covs[near], space)
    return spectra


def _certify_uncertainty(covs: np.ndarray, space: SymplecticSpace) -> None:
    """Refuse any finite symmetric covariance of (..., 2s, 2s) violating alpha + (i/2) Delta >= 0.

    A complex Cholesky factor of H = alpha + (i/2) Delta certifies lambda_min(H) >=
    -c n eps ||H||, far inside check_psd_pair's slack, and H > 0 implies alpha > 0; only
    where the one batched factorization fails does check_psd_pair decide each member, in
    order, and the first violator is refused with its lambda_min.
    """
    try:
        np.linalg.cholesky(covs + space._half_i_delta)
    except np.linalg.LinAlgError:
        for cov in covs.reshape(-1, space.dim, space.dim):
            ok, lam_min = check_psd_pair(cov, space.delta)
            if not ok:
                raise UncertaintyViolatedError(f"uncertainty constraint violated: lambda_min = {lam_min:.6e}",
                                               lambda_min=lam_min)


def validate_state(mean, cov, space: SymplecticSpace) -> GaussianState:
    """Validate (mean, cov) against the uncertainty constraint and build the state.

    Refuses a complex or non-finite mean, and a complex, non-finite or asymmetric covariance.  The
    state keeps the symmetric part of cov, which _certify_uncertainty judges
    and every later spectrum reads.
    """
    mean = real_array(mean, "mean").reshape(-1)
    cov = real_array(cov, "covariance matrix")
    n = space.dim
    if mean.shape != (n,) or cov.shape != (n, n):
        raise DimensionMismatchError(
            f"expected mean ({n},) and cov ({n}, {n}), got {mean.shape} and {cov.shape}"
        )
    check_finite(mean, "mean", sum(mean.tolist()))
    # Cholesky reads one triangle: an asymmetric cov is replaced by its symmetric part, the
    # matrix check_psd_pair judges, so no verdict or spectrum depends on which triangle is read
    if check_symmetric(cov, "covariance matrix"):
        cov = cov + 0.5 * (cov.T - cov)
    _certify_uncertainty(cov, space)
    return GaussianState(space=space, mean=mean, cov=cov)


def _char(mean: np.ndarray, cov: np.ndarray, z) -> complex:
    """exp(i m^T z - z^T alpha z / 2) at z, 2s finite reals: 0j where exp(-z^T alpha z / 2) underflows."""
    z = real_array(z, "z").reshape(-1)
    if z.shape != mean.shape:
        raise DimensionMismatchError(f"z must have {len(mean)} entries, got {len(z)}")
    check_finite(z, "z", sum(z.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * z @ cov @ z
        if half < math.inf and np.exp(-half) == 0.0:
            return 0j
        phase = 1j * mean @ z
    if not (math.isfinite(half) and cmath.isfinite(phase)):
        raise NumericalOverflowError(f"characteristic function exponent is not finite: "
                                     f"m^T z = {phase.imag:.3e}, z^T alpha z / 2 = {half:.3e}")
    return complex(np.exp(phase - half))


def char_function(state: GaussianState, z) -> complex:
    """Quantum characteristic function exp(i m^T z - z^T alpha z / 2)."""
    return _char(state.mean, state.cov, z)


def _log_tr_rho_p(spectra: np.ndarray, p: float):
    # log Tr rho^p over the last axis: one value per spectrum of a stack
    _check_p(p)
    return -_log_f_p(spectra, p).sum(axis=-1)


# f_p(d) = p d^(p even) prod_t (d^2 + t^2), t = cot(pi k/p)/2 for 0 < k < p/2: at the integer p
# with at most one t, f_1 = 1, f_2 = 2d, f_3 = 3(d^2 + 1/12) and f_4 = 4d(d^2 + 1/4)
_DET_SHIFTS = {1.0: (), 2.0: (), 3.0: (0.5 / math.sqrt(3.0),), 4.0: (0.5,)}


def _log_tr_rho_p_covs(covs: np.ndarray, space: SymplecticSpace, p: float) -> np.ndarray:
    """log Tr rho^p (B,) of a (B, 2s, 2s) stack of symmetric covariances, each held to uncertainty.

    At p in {1, 2, 3, 4} no spectrum is solved.  det(alpha + t Delta) = prod_j (d_j^2 + t^2)
    for every covariance, so log Tr rho^p = -[s log p + (p even) sum log L_jj + sum_t log
    det(alpha + t Delta)], with alpha = L L^T: one real Cholesky, at most one LU.  That real
    Cholesky and the complex one of alpha + (i/2) Delta certify the stack; a non-finite stack
    is refused by name.  Any other p, and a stack either factorization fails on, goes to
    _checked_spectra, which decides every refusal.
    """
    if p in _DET_SHIFTS:
        # max(max, -min) is NaN or inf exactly where max |alpha_ij| is, with no |alpha| stack
        check_finite(covs, "covariance matrix", float(max(covs.max(), -covs.min())))
        log_f = np.full(len(covs), space.s * math.log(p))
        try:
            chol = np.linalg.cholesky(covs)
            if p % 2 == 0:
                log_f += np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
            del chol  # so that beside the stack only the complex certificate's pair is alive
            half = covs + space._half_i_delta
            np.linalg.cholesky(half)
        except np.linalg.LinAlgError:
            pass
        else:
            for t in _DET_SHIFTS[p]:
                log_f += np.linalg.slogdet(np.add(covs, t * space.delta, out=half.real)).logabsdet
            return -log_f
    return _log_tr_rho_p(_checked_spectra(covs, space), p)


def _log_schatten_norm(spectra: np.ndarray, p: float):
    _check_p(p, allow_inf=True)
    if p == math.inf:
        return -np.log(_checked_eigenvalues(spectra) + 0.5).sum(axis=-1)
    return -_log_f_p(spectra, p).sum(axis=-1) / p


def tr_rho_p(state: GaussianState, p: float) -> float:
    """Tr rho^p = prod_j 1/f_p(d_j) over the symplectic spectrum, independent of the mean."""
    _check_p(p)
    return math.exp(-_sum_log_f_p(state.spectrum, p))


def schatten_norm(state: GaussianState, p: float) -> float:
    """(Tr rho^p)^(1/p) for finite p; the largest eigenvalue prod_j (d_j + 1/2)^-1 at p = inf."""
    _check_p(p, allow_inf=True)
    if p == math.inf:
        log_max = 0.0
        for d in state.spectrum.tolist():
            log_max -= math.log(_checked_eigenvalue(d) + 0.5)
        return math.exp(log_max)
    return math.exp(-_sum_log_f_p(state.spectrum, p) / p)


def power_cov(state: GaussianState, p: float) -> np.ndarray:
    """Covariance alpha g_p(abs(Delta^-1 alpha)) = L Re(U diag(g_p(|lam|)) U^H) L^T
    of the normalized p-th power state, from one eigensolve of its Williamson form.

    At one mode the form is det(L) (-i Delta), so abs(Delta^-1 alpha) = d I and the
    covariance is g_p(d) alpha, on the state's one spectrum: no factor and no eigensolve.
    """
    if state.space.s == 1:
        return g_p(state.spectrum, p)[0] * state.cov
    chol, h = _williamson_form(state.cov, state.space, DomainError, "covariance matrix")
    lam, u = np.linalg.eigh(h)
    m = 0.5 * (chol @ ((u * g_p(abs(lam), p)) @ u.conj().T).real @ chol.T)  # halved first: m + m^T can overflow
    return m + m.T


def power_char_function(state: GaussianState, p: float, z) -> complex:
    """Tr rho^p W(z): the closed-form characteristic function of the unnormalized power."""
    return tr_rho_p(state, p) * _char(state.mean, power_cov(state, p), z)


def _basis_covs(basis: np.ndarray, x: np.ndarray, shift=0.0) -> np.ndarray:
    """basis diag(x_b, x_b) basis^T + shift, symmetrised, per row x_b of x (B, s): a (B, 2s, 2s) stack."""
    # two stack-sized buffers, c/2 + c^T/2 (halved before the sum, which then cannot overflow) in the first
    buf = basis * np.concatenate((x, x), axis=-1)[:, None, :]
    covs = buf @ basis.T
    covs += shift
    covs *= 0.5
    return np.add(covs, covs.swapaxes(-1, -2), out=buf)


def _gibbs_spectra(family: GibbsFamily, betas: np.ndarray) -> np.ndarray:
    """Gibbs spectra coth(beta e_j)/2, one row per beta (descending); a grid on which
    beta e_j underflows, so that coth(beta e_j)/2 is not finite, is refused."""
    with np.errstate(divide="ignore", over="ignore"):
        ds = 0.5 / np.tanh(np.outer(betas, family.spectrum))
    if not np.all(np.isfinite(ds)):
        raise NumericalOverflowError(f"Gibbs spectrum coth(beta e_j)/2 is not finite at "
                                     f"beta = {betas.min():.3e}; raise the smallest beta")
    return ds


def _gibbs_covs(family: GibbsFamily, spectra: np.ndarray) -> np.ndarray:
    """Gibbs covariances alpha = S diag(x, x) S^T, x = e d, one per row d of _gibbs_spectra, as a
    (B, 2s, 2s) stack on the family's real Williamson basis; not validated."""
    # where e d overflows the stack holds inf or NaN, which the callers' checks refuse
    with np.errstate(over="ignore", invalid="ignore"):
        return _basis_covs(family.basis, family.spectrum * spectra)


def gibbs_state(family: GibbsFamily, beta: float) -> GaussianState:
    """Gibbs state at inverse temperature beta: mean 0, alpha = (Delta/2) cot(beta eps Delta).

    alpha = S diag(x, x) S^T, x_j = e_j d_j on the family's real Williamson basis (the one-beta case of
    _gibbs_covs); validate_state runs on it, and its spectrum is the family's exact d_j = coth(beta e_j)/2.
    """
    if not 0.0 < beta < math.inf:
        raise DomainError(f"inverse temperature must be positive and finite, got {beta}")
    spectra = _gibbs_spectra(family, np.array([beta]))
    state = validate_state(np.zeros(family.space.dim), _gibbs_covs(family, spectra)[0], family.space)
    object.__setattr__(state, "spectrum", spectra[0, ::-1])  # fills the cached property; the row descends
    return state


def gibbs_asymptotic(family: GibbsFamily, beta: float) -> np.ndarray:
    """High-temperature comparator (2 beta epsilon)^-1 = S S^T/(2 beta): S^T epsilon S = I on the
    family's Williamson basis gives epsilon^-1 = S S^T; a comparator with a non-finite entry is refused."""
    if not 0.0 < beta < math.inf:
        raise DomainError(f"inverse temperature must be positive and finite, got {beta}")
    with np.errstate(over="ignore", invalid="ignore"):  # 0.5/beta = inf at beta = 1e-310, and inf * 0 = NaN
        comparator = (0.5 / beta) * (family.basis @ family.basis.T)
    if not np.isfinite(comparator).all():
        raise NumericalOverflowError(f"Gibbs comparator (2 beta epsilon)^-1 is not finite at beta = {beta:.3e}")
    return comparator
