"""Single-mode truncated Fock-space oracle.

Brute-force counterpart of the closed forms on the basis {|0>, ..., |n_max>}:
a :class:`TruncatedOperator` is a dense complex matrix, its cutoff read from
its shape.  Nothing is imported from ``states``, ``channels`` or
``symplectic``, so agreement with the covariance code is a real check.

Weyl operators come from their exact Laguerre matrix elements (Cahill &
Glauber, Phys. Rev. 177, 1857 (1969)), one diagonal at a time by a three-term
recurrence (:func:`weyl_operator`); moments from rho's diagonals 0, +-1 and
+-2 (:func:`covariance_from_fock`).  The attenuator's Kraus operator A_j lives
on the j-th superdiagonal, so one table B[j, m] = <m|A_j|m+j> holds the
channel by diagonal (:func:`attenuator_amplitudes`), and :func:`attenuate`
maps each nonzero diagonal of rho to the same diagonal.  The dense Kraus
family (:func:`attenuator_kraus`, :func:`apply_kraus`) is its reference, kept
in the package only while ``perfbench`` traces both names.

Every spectrum comes with a density check (finite, Hermitian, unit trace, no
negative eigenvalue).  A diagonal operator (a thermal state, its powers, its
attenuated output) is checked on its diagonal and takes its spectrum from it,
since its eigenbasis is the Fock basis; only other operators reach a dense
Hermitian eigensolve.  Truncation error is controlled by recomputing the final
scalar or small array at 2 * n_max (:func:`doubling_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotDensityOperatorError,
    TailTooLargeError,
    TruncationInsufficientError,
)

TAIL_BOUND = 1e-12
HERM_TOL = 1e-12
EIG_CLAMP = 1e-15
MAX_DEFAULT_N_MAX = 640
MAX_WEYL_R = 1400.0  # e^(-r/2) stays a normal double


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Dense complex matrix on the Fock basis {|0>, ..., |n_max>}."""

    matrix: np.ndarray

    @property
    def n_max(self) -> int:
        return self.matrix.shape[0] - 1

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, after the density check; computed on first use."""
        return np.sort(_density_spectrum(self)[0])


def _log_factorials(dim: int) -> np.ndarray:
    """log m! for m = 0, ..., dim - 1."""
    return np.array([math.lgamma(m + 1.0) for m in range(dim)])


def weyl_operator(z, n_max: int) -> TruncatedOperator:
    """exp(i (x q + y p)) for z = (x, y): the displacement D(alpha), alpha = (-y + i x)/sqrt(2).

    Exact matrix elements, truncated: with r = |alpha|^2,
    <n+k|D|n> = alpha^k e^(-r/2) sqrt(n!/(n+k)!) L_n^(k)(r) and
    <n|D|n+k> = (-alpha*)^k e^(-r/2) sqrt(n!/(n+k)!) L_n^(k)(r).
    Each diagonal k runs the normalised Laguerre recurrence in n from
    e^(-r/2) |alpha|^k / sqrt(k!); the phases are applied afterwards.  The
    truncated matrix is unitary only well below the cutoff; certify
    convergence of any derived scalar with :func:`doubling_check`.  n_max < 1,
    a non-finite z, or r > MAX_WEYL_R where e^(-r/2) leaves the normal
    double range, raises DomainError.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    x, y = np.asarray(z, dtype=float).reshape(2)
    dim = n_max + 1
    alpha = complex(-y, x) / math.sqrt(2.0)
    modulus = abs(alpha)
    r = modulus * modulus  # inf, not OverflowError, for a huge z
    if not r <= MAX_WEYL_R:
        raise DomainError(f"|alpha|^2 = (x^2 + y^2)/2 must be finite and <= {MAX_WEYL_R}, got {r}")
    if r == 0.0:
        return TruncatedOperator(np.eye(dim, dtype=complex))
    k = np.arange(dim, dtype=float)
    # g[n, k] = e^(-r/2) |alpha|^k sqrt(n!/(n+k)!) L_n^(k)(r), filled for n + k <= n_max;
    # at n = 0 the g[n - 1] term carries the factor sqrt(0)
    g = np.zeros((dim, dim))
    g[0] = np.exp(-0.5 * r + k * math.log(modulus) - 0.5 * _log_factorials(dim))
    for n in range(n_max):
        kk = k[: n_max - n]
        g[n + 1, : n_max - n] = (
            (2 * n + 1 + kk - r) * g[n, : n_max - n] - np.sqrt(n * (n + kk)) * g[n - 1, : n_max - n]
        ) / np.sqrt((n + 1) * (n + 1 + kk))
    # phase[n_max + d] multiplies the elements with row - column = d
    d = np.arange(-n_max, dim)
    phase = np.exp(1j * math.atan2(alpha.imag, alpha.real) * d)
    phase[:n_max][d[:n_max] % 2 == 1] *= -1.0  # (-alpha*)^k = (-1)^k (alpha/|alpha|)^-k |alpha|^k
    row, col = np.arange(dim)[:, None], np.arange(dim)[None, :]
    return TruncatedOperator(g[np.minimum(row, col), np.abs(row - col)] * phase[n_max + row - col])


def thermal_state_fock(N: float, n_max: int) -> TruncatedOperator:
    """Thermal state, diagonal p_n = N^n / (N+1)^(n+1); not renormalized.

    The neglected tail (N/(N+1))^(n_max+1) must stay below TAIL_BOUND; N must be
    finite and n_max >= 1.
    """
    if not (math.isfinite(N) and N >= 0.0):
        raise DomainError(f"mean photon number must be finite and >= 0, got {N}")
    if n_max < 1:
        raise DomainError(f"Fock cutoff must be >= 1, got {n_max}")
    tail = (N / (N + 1.0)) ** (n_max + 1) if N > 0.0 else 0.0
    if tail >= TAIL_BOUND:
        raise TailTooLargeError(
            f"truncation tail {tail:.3e} >= {TAIL_BOUND:.1e}; raise n_max above "
            f"{math.ceil(-math.log(TAIL_BOUND) / math.log1p(1.0 / N)) if N > 0 else n_max}"
        )
    ns = np.arange(n_max + 1)
    pn = np.exp(ns * math.log(N) - (ns + 1) * math.log(N + 1.0)) if N > 0.0 else np.eye(n_max + 1)[0]
    return TruncatedOperator(np.diag(pn.astype(complex)))


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


def _density_spectrum(rho: TruncatedOperator, vectors: bool = False):
    """Eigenvalues and, if asked, eigenvectors of a checked density operator.

    Finite, Hermitian within 1e-12 (Frobenius, relative), trace within TAIL_BOUND
    of 1, eigenvalues >= -1e-12; every test fails on NaN, and the one
    decomposition serves both the check and the caller.  A diagonal operator's
    eigenbasis is the Fock basis: it is checked on its diagonal alone (m - m^H
    is 2i Im diag there), its eigenvalues are its real diagonal in Fock order and
    its eigenvectors come back as None.  Any other operator's are ascending.
    """
    m = rho.matrix
    diag = np.diagonal(m)
    diagonal = np.count_nonzero(m) == np.count_nonzero(diag)
    if diagonal:
        size, residual = np.linalg.norm(diag), 2.0 * np.linalg.norm(diag.imag)
    else:
        size, residual = np.linalg.norm(m), np.linalg.norm(m - m.conj().T)
    if not np.isfinite(size):
        raise NotDensityOperatorError(f"matrix is not finite: Frobenius norm {float(size)}")
    if not residual <= HERM_TOL * max(size, 1e-300):
        raise NotDensityOperatorError("matrix is not Hermitian within 1e-12")
    trace = diag.sum().real
    if not abs(trace - 1.0) <= TAIL_BOUND:
        raise NotDensityOperatorError(f"trace {trace!r} deviates from 1 beyond the tail bound")
    if diagonal:
        lam, u = diag.real, None
    else:
        lam, u = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    if not -HERM_TOL <= lam.min():
        raise NotDensityOperatorError(f"negative eigenvalue {float(lam.min()):.3e}")
    return lam, u


def _check_p(p: float) -> None:
    """Reject exponents outside [1, inf), NaN included."""
    if not 1.0 <= p < math.inf:
        raise DomainError(f"exponent must lie in [1, inf), got {p}")


def tr_power_fock(rho: TruncatedOperator, p: float) -> float:
    """Tr rho^p from rho's checked spectrum, tiny eigenvalues clamped to zero; p in [1, inf)."""
    _check_p(p)
    lam = np.where(rho.spectrum < EIG_CLAMP, 0.0, rho.spectrum)
    return float(np.sum(lam**p))


def matrix_power_fock(rho: TruncatedOperator, p: float) -> TruncatedOperator:
    """rho^p, p in [1, inf), on rho's eigenbasis (the Fock basis if rho is diagonal); not normalized."""
    _check_p(p)
    lam, u = _density_spectrum(rho, vectors=True)
    lam = np.where(lam < EIG_CLAMP, 0.0, lam)
    return TruncatedOperator(np.diag((lam**p).astype(complex)) if u is None else (u * lam**p) @ u.conj().T)


def char_function_fock(rho: TruncatedOperator, w: TruncatedOperator) -> complex:
    """Tr(rho W) on the truncated space, for a Weyl operator W from :func:`weyl_operator`."""
    if rho.n_max != w.n_max:
        raise DimensionMismatchError(f"rho lives at n_max={rho.n_max}, W at n_max={w.n_max}")
    return complex(np.sum(rho.matrix.T * w.matrix))  # Tr(rho W), no dense product


def attenuator_amplitudes(tau: float, n_max: int) -> np.ndarray:
    """Table B[j, m] = <m| A_j |m+j> = sqrt(C(m+j, j)) tau^(m/2) (1-tau)^(j/2), by diagonal.

    A_j is the binomial Kraus operator of the attenuation channel K = sqrt(tau) I
    that removes j photons; row j is its j-th superdiagonal, B[j, m] = 0 where
    m + j > n_max, and for j >= 1 at tau = 1.
    """
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"transmissivity must be in (0, 1], got {tau}")
    dim = n_max + 1
    log_fact = _log_factorials(dim)
    j = np.arange(dim)[:, None]
    kept = np.arange(dim)[None, :]
    total = j + kept  # photons before the loss
    # j log(1 - tau), spelled out at tau = 1 so that 0 * (-inf) never forms
    loss = np.full(dim, -math.inf)
    loss[0] = 0.0
    if tau < 1.0:
        loss[1:] = np.arange(1, dim) * math.log1p(-tau)
    log_amp = 0.5 * (
        log_fact[np.minimum(total, n_max)] - log_fact[j] - log_fact[kept]
        + kept * math.log(tau) + loss[:, None]
    )
    return np.exp(np.where(total <= n_max, log_amp, -math.inf))


def attenuator_kraus(tau: float, n_max: int) -> list[TruncatedOperator]:
    """Binomial Kraus family of the attenuation channel K = sqrt(tau) I, as dense matrices.

    A_j carries row j of :func:`attenuator_amplitudes` on its j-th superdiagonal;
    identically zero operators (j >= 1 at tau = 1) are dropped.  The reference
    for :func:`attenuate`, which applies the same channel without forming them.
    """
    return [
        TruncatedOperator(np.diag(row[: n_max + 1 - j].astype(complex), k=j))
        for j, row in enumerate(attenuator_amplitudes(tau, n_max))
        if row.any()
    ]


def apply_kraus(kraus: list[TruncatedOperator], rho: TruncatedOperator) -> TruncatedOperator:
    """sum_j A_j rho A_j^dag."""
    if any(op.n_max != rho.n_max for op in kraus):
        raise DimensionMismatchError("Kraus operators and state have different cutoffs")
    out = np.zeros_like(rho.matrix)
    for op in kraus:
        out = out + op.matrix @ rho.matrix @ op.matrix.conj().T
    return TruncatedOperator(out)


def attenuate(tau: float, rho: TruncatedOperator) -> TruncatedOperator:
    """Attenuation channel K = sqrt(tau) I, sum_j A_j rho A_j^dag, one diagonal of rho at a time.

    A_j keeps n - m, so with the amplitude table B output diagonal k is out_k[m] =
    sum_j B[j, m] B[j, m+|k|] rho_k[m+j], summed over j in order as the Kraus sum is: O(n^2)
    per nonzero diagonal of rho.  Same channel as ``apply_kraus(attenuator_kraus(tau, n), rho)``.
    """
    dim = rho.n_max + 1
    b = attenuator_amplitudes(tau, rho.n_max)
    m = rho.matrix
    out = np.zeros_like(m)
    padded = np.zeros(2 * dim - 1, dtype=m.dtype)
    hankel = np.lib.stride_tricks.sliding_window_view(padded, dim)  # [j, i] = padded[i + j]
    for k in np.unique(np.diff(np.nonzero(m), axis=0)):  # rho's nonzero diagonals, col - row
        size = dim - abs(k)
        padded[:size] = np.diagonal(m, k)
        padded[size:] = 0.0
        terms = hankel[:size, :size] * (b[:size, :size] * b[:size, abs(k) :])
        np.fill_diagonal(out[max(-k, 0) :, max(k, 0) :], terms.sum(axis=0))
    return TruncatedOperator(out)


def covariance_from_fock(rho: TruncatedOperator) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments: m_j = Tr rho R_j, alpha = Tr rho {R - m, R - m}/2.

    q = (a + a^dag)/sqrt(2) and p = i (a^dag - a)/sqrt(2) with the truncated
    ladder matrices, so every product the moments need lives on diagonals
    0, +-1, +-2 (a a^dag carries 0 in its last entry) and only those diagonals
    of rho are read.  Subject to truncation error near the cutoff; certify
    with :func:`doubling_check` on a builder that regenerates rho at 2 n_max.
    rho must pass the density check (:attr:`TruncatedOperator.spectrum`).
    """
    rho.spectrum  # the density check; tr_power_fock reuses the cached eigenvalues
    m = rho.matrix
    n = np.arange(1.0, rho.n_max + 1)
    # Tr(rho X) = sum_ij rho[i, j] X[j, i]; a has sqrt(n) at [n-1, n], a a at [n-2, n]
    a = np.diagonal(m, -1) @ np.sqrt(n)
    a_dag = np.diagonal(m, 1) @ np.sqrt(n)
    root_pairs = np.sqrt(n[1:] * n[:-1])
    aa = np.diagonal(m, -2) @ root_pairs
    aa_dag = np.diagonal(m, 2) @ root_pairs
    # diagonal of a a^dag + a^dag a: 2n + 1 below the cutoff, n_max at it
    sym = np.diagonal(m) @ np.append(2.0 * np.arange(rho.n_max) + 1.0, rho.n_max)
    mean = np.array([(a + a_dag).real, (1j * (a_dag - a)).real]) / math.sqrt(2.0)
    # Tr rho (R_i R_k + R_k R_i)/2, then centre: the identity carries Tr rho, not 1
    raw = 0.5 * np.array([
        [(sym + aa + aa_dag).real, (1j * (aa_dag - aa)).real],
        [(1j * (aa_dag - aa)).real, (sym - aa - aa_dag).real],
    ])
    cov = raw - (2.0 - np.trace(m).real) * np.outer(mean, mean)
    return mean, cov


def doubling_check(build: Callable[[int], object], n_max: int):
    """Evaluate ``build`` at n_max and 2 n_max; demand agreement within 10x TAIL_BOUND.

    ``build`` must map a cutoff to a scalar or an ndarray (the final quantity of
    interest, not a raw truncated matrix).  Returns the 2 n_max value, raising
    TruncationInsufficientError with a suggested cutoff on disagreement, DomainError if not finite.
    """
    coarse = np.asarray(build(n_max))
    fine = np.asarray(build(2 * n_max))
    for n, value in ((n_max, coarse), (2 * n_max, fine)):
        if not np.all(np.isfinite(value)):
            raise DomainError(f"the quantity built at n_max={n} is not finite: {value}")
    diff = float(np.max(np.abs(coarse - fine)))
    if diff > 10.0 * TAIL_BOUND:
        raise TruncationInsufficientError(
            f"doubling n_max={n_max} moved the result by {diff:.3e} > "
            f"10 * {TAIL_BOUND:.1e}; retry with n_max >= {2 * n_max}",
            suggested_n_max=2 * n_max,
        )
    return fine if fine.ndim else fine.item()
