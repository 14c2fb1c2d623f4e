"""Single-mode truncated Fock-space oracle.

Brute-force counterpart of the closed forms: states, Weyl operators, Schatten
powers and the attenuator channel are realized as dense complex matrices on
the basis {|0>, ..., |n_max>}.  Every quantity computed here is independent
of the covariance-matrix machinery, so agreement between the two is a real
check, not a tautology.

The attenuator is applied banded (:func:`attenuate`): its Kraus operator A_j
lives on the j-th superdiagonal, so A_j rho A_j^dag is a scaled, shifted block
of rho.  The dense Kraus family (:func:`attenuator_kraus`, :func:`apply_kraus`)
is kept as the reference the banded path is tested against.

Truncation error is controlled by a doubling protocol: recompute the final
scalar (or small array) at 2 * n_max and require agreement within ten times
the tail bound; see :func:`doubling_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .errors import (
    DimensionMismatchError,
    NotDensityOperatorError,
    TailTooLargeError,
    TruncationInsufficientError,
)

TAIL_BOUND = 1e-12
HERM_TOL = 1e-12
EIG_CLAMP = 1e-15
MAX_DEFAULT_N_MAX = 640


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Dense complex matrix on the Fock basis {|0>, ..., |n_max>}."""

    n_max: int
    matrix: np.ndarray


def ladder_operators(n_max: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Annihilation and creation matrices; a|n> = sqrt(n)|n-1>, truncated."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)
    return (
        TruncatedOperator(n_max=n_max, matrix=a),
        TruncatedOperator(n_max=n_max, matrix=a.conj().T),
    )


def quadratures(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """q = (a + a^dag)/sqrt(2), p = i (a^dag - a)/sqrt(2); [q, p] = i below the cutoff."""
    a, a_dag = ladder_operators(n_max)
    q = (a.matrix + a_dag.matrix) / math.sqrt(2.0)
    p = 1j * (a_dag.matrix - a.matrix) / math.sqrt(2.0)
    return q, p


def weyl_operator(z, n_max: int) -> TruncatedOperator:
    """exp(i (x q + y p)) for z = (x, y); unitary up to truncation error.

    The matrix is exact only well below the cutoff; certify convergence of any
    derived scalar with :func:`doubling_check`.
    """
    x, y = np.asarray(z, dtype=float).reshape(2)
    q, p = quadratures(n_max)
    return TruncatedOperator(n_max=n_max, matrix=expm(1j * (x * q + y * p)))


def thermal_state_fock(N: float, n_max: int, tail_bound: float = TAIL_BOUND) -> TruncatedOperator:
    """Thermal state, diagonal p_n = N^n / (N+1)^(n+1); not renormalized.

    The neglected tail (N/(N+1))^(n_max+1) must stay below ``tail_bound``.
    """
    if N < 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {N}")
    tail = (N / (N + 1.0)) ** (n_max + 1) if N > 0.0 else 0.0
    if tail >= tail_bound:
        raise TailTooLargeError(
            f"truncation tail {tail:.3e} >= {tail_bound:.1e}; raise n_max above "
            f"{math.ceil(-math.log(tail_bound) / math.log1p(1.0 / N)) if N > 0 else n_max}"
        )
    ns = np.arange(n_max + 1)
    pn = np.exp(ns * math.log(N) - (ns + 1) * math.log(N + 1.0)) if N > 0.0 else np.eye(n_max + 1)[0]
    return TruncatedOperator(n_max=n_max, matrix=np.diag(pn.astype(complex)))


def default_n_max(N: float) -> int:
    """Cutoff heuristic at the default tail bound: 80 covers N <= 1, 160 covers N <= 3.

    Above N = 3 it is the smallest n >= 160 with (n+1)(N+1) r^(n+1) <= TAIL_BOUND,
    r = N/(N+1).  That bounds the neglected share of the mean photon number,
    sum_{k>n} k p_k = (n+1+N) r^(n+1), which the covariance checks see; the
    bare population tail r^(n+1) is too loose there.  The search stops at
    MAX_DEFAULT_N_MAX (reached near N = 17), so a large N costs no more than a
    doubling check at 1280; past it the tail guard or the doubling check
    names the cutoff to pass.
    """
    if N <= 1.0:
        return 80
    if N <= 3.0:
        return 160
    r = N / (N + 1.0)
    for n in range(160, MAX_DEFAULT_N_MAX):
        if (n + 1) * (N + 1.0) * r ** (n + 1) <= TAIL_BOUND:
            return n
    return MAX_DEFAULT_N_MAX


def _density_spectrum(rho: TruncatedOperator, tail_bound: float, vectors: bool = False):
    """Eigenvalues (ascending) and, if asked, eigenvectors of a checked density operator.

    Hermitian within 1e-12, trace within the tail bound of 1, eigenvalues >= -1e-12;
    the one decomposition serves both the check and the caller.
    """
    m = rho.matrix
    if np.linalg.norm(m - m.conj().T) > HERM_TOL * max(np.linalg.norm(m), 1e-300):
        raise NotDensityOperatorError("matrix is not Hermitian within 1e-12")
    if abs(np.trace(m).real - 1.0) > tail_bound:
        raise NotDensityOperatorError(f"trace {np.trace(m).real!r} deviates from 1 beyond the tail bound")
    lam, u = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    if lam[0] < -HERM_TOL:
        raise NotDensityOperatorError(f"negative eigenvalue {float(lam[0]):.3e}")
    return lam, u


def assert_density_operator(rho: TruncatedOperator, tail_bound: float = TAIL_BOUND) -> None:
    """Hermitian within 1e-12, trace within the tail bound of 1, eigenvalues >= -1e-12."""
    _density_spectrum(rho, tail_bound)


def tr_power_fock(rho: TruncatedOperator, p: float) -> float:
    """Tr rho^p by Hermitian diagonalization, tiny eigenvalues clamped to zero."""
    lam, _ = _density_spectrum(rho, TAIL_BOUND)
    lam = np.where(lam < EIG_CLAMP, 0.0, lam)
    return float(np.sum(lam**p))


def matrix_power_fock(rho: TruncatedOperator, p: float, normalize: bool = False) -> TruncatedOperator:
    """rho^p via Hermitian eigendecomposition; optionally normalized to unit trace."""
    lam, u = _density_spectrum(rho, TAIL_BOUND, vectors=True)
    lam = np.where(lam < EIG_CLAMP, 0.0, lam)
    powered = (u * lam**p) @ u.conj().T
    if normalize:
        powered = powered / np.trace(powered).real
    return TruncatedOperator(n_max=rho.n_max, matrix=powered)


def char_function_fock(rho: TruncatedOperator, z, n_max: int) -> complex:
    """Tr(rho W(z)) on the truncated space."""
    if rho.n_max != n_max:
        raise DimensionMismatchError(f"rho lives at n_max={rho.n_max}, requested {n_max}")
    w = weyl_operator(z, n_max)
    return complex(np.trace(rho.matrix @ w.matrix))


def attenuator_amplitudes(tau: float, n_max: int) -> np.ndarray:
    """Table amp[j, n] = <n-j| A_j |n> = sqrt(C(n, j)) tau^((n-j)/2) (1-tau)^(j/2).

    A_j is the binomial Kraus operator of the attenuation channel K = sqrt(tau) I
    that removes j photons; amp[j, n] = 0 for n < j, and for j >= 1 at tau = 1.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"transmissivity must be in (0, 1], got {tau}")
    dim = n_max + 1
    log_fact = gammaln(np.arange(1.0, dim + 1))  # log m! for m = 0..n_max
    j = np.arange(dim)[:, None]
    kept = np.arange(dim)[None, :] - j
    # j log(1 - tau), spelled out at tau = 1 so that 0 * (-inf) never forms
    loss = np.full(dim, -math.inf)
    loss[0] = 0.0
    if tau < 1.0:
        loss[1:] = np.arange(1, dim) * math.log1p(-tau)
    log_amp = 0.5 * (
        log_fact[None, :] - log_fact[j] - log_fact[np.maximum(kept, 0)]
        + kept * math.log(tau) + loss[:, None]
    )
    return np.exp(np.where(kept >= 0, log_amp, -math.inf))


def attenuator_kraus(tau: float, n_max: int) -> list[TruncatedOperator]:
    """Binomial Kraus family of the attenuation channel K = sqrt(tau) I, as dense matrices.

    A_j carries row j of :func:`attenuator_amplitudes` on its j-th superdiagonal;
    identically zero operators (j >= 1 at tau = 1) are dropped.  The reference
    for :func:`attenuate`, which applies the same channel without forming them.
    """
    amp = attenuator_amplitudes(tau, n_max)
    return [
        TruncatedOperator(n_max=n_max, matrix=np.diag(row[j:].astype(complex), k=j))
        for j, row in enumerate(amp)
        if row.any()
    ]


def apply_kraus(kraus: list[TruncatedOperator], rho: TruncatedOperator) -> TruncatedOperator:
    """sum_j A_j rho A_j^dag."""
    if any(op.n_max != rho.n_max for op in kraus):
        raise DimensionMismatchError("Kraus operators and state have different cutoffs")
    out = np.zeros_like(rho.matrix)
    for op in kraus:
        out = out + op.matrix @ rho.matrix @ op.matrix.conj().T
    return TruncatedOperator(n_max=rho.n_max, matrix=out)


def attenuate(tau: float, rho: TruncatedOperator) -> TruncatedOperator:
    """Attenuation channel K = sqrt(tau) I applied banded: sum_j A_j rho A_j^dag in O(n^3).

    (A_j rho A_j^dag)[m, n] = amp[j, m+j] rho[m+j, n+j] amp[j, n+j], so each
    term is rho's lower-right block scaled by an outer product and shifted up
    and left by j.  Same channel as ``apply_kraus(attenuator_kraus(tau, n), rho)``.
    """
    amp = attenuator_amplitudes(tau, rho.n_max)
    m = rho.matrix
    dim = rho.n_max + 1
    out = np.zeros_like(m)
    for j in range(dim):
        a = amp[j, j:]
        out[: dim - j, : dim - j] += np.outer(a, a) * m[j:, j:]
    return TruncatedOperator(n_max=rho.n_max, matrix=out)


def covariance_from_fock(rho: TruncatedOperator) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments: m_j = Tr rho R_j, alpha = Tr rho {R - m, R - m}/2.

    Subject to truncation error near the cutoff; certify with
    :func:`doubling_check` on a builder that regenerates rho at 2 n_max.
    """
    assert_density_operator(rho)
    q, p = quadratures(rho.n_max)
    rho_t = rho.matrix.T  # Tr(rho X) = sum(rho^T * X), no dense rho @ X product
    mean = np.array([np.sum(rho_t * q).real, np.sum(rho_t * p).real])
    qc, pc = q - mean[0] * np.eye(rho.n_max + 1), p - mean[1] * np.eye(rho.n_max + 1)
    cov = np.empty((2, 2))
    for i, a in enumerate((qc, pc)):
        for k, b in enumerate((qc, pc)):
            cov[i, k] = 0.5 * np.sum(rho_t * (a @ b + b @ a)).real
    return mean, cov


def doubling_check(
    build: Callable[[int], object],
    n_max: int,
    tail_bound: float = TAIL_BOUND,
):
    """Evaluate ``build`` at n_max and 2 n_max; demand agreement within 10x the tail bound.

    ``build`` must map a cutoff to a scalar or an ndarray (the final quantity of
    interest, not a raw truncated matrix).  Returns the 2 n_max value, raising
    TruncationInsufficientError with a suggested cutoff on disagreement.
    """
    coarse = np.asarray(build(n_max))
    fine = np.asarray(build(2 * n_max))
    diff = float(np.max(np.abs(coarse - fine)))
    if diff > 10.0 * tail_bound:
        raise TruncationInsufficientError(
            f"doubling n_max={n_max} moved the result by {diff:.3e} > "
            f"10 * {tail_bound:.1e}; retry with n_max >= {2 * n_max}",
            suggested_n_max=2 * n_max,
        )
    return fine if fine.ndim else fine.item()
