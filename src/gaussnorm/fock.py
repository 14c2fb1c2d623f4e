"""Single-mode truncated Fock-space oracle.

Brute-force counterpart of the closed forms on the basis {|0>, ..., |n_max>}.
A :class:`TruncatedOperator` is a stack of photon-number blocks on its
diagonal, in Fock order, its cutoff read from the stack's shape; its builder
sets the layout.  A phase-covariant operator (a thermal state, its powers, its
attenuated output: Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)) is n_max + 1
blocks of 1x1, any other one dense block.  Nothing is imported from
``states``, ``channels`` or ``symplectic``, so agreement with the covariance
code is a real check.

Weyl operators W(z) come from their exact Laguerre matrix elements (Cahill &
Glauber, Phys. Rev. 177, 1857 (1969)), one diagonal at a time by one
three-term recurrence.  :func:`char_function_fock` takes Tr(rho W(z)) from the
diagonals rho's blocks hold (only the main one for 1x1 blocks), each against
the matching diagonal of W(z), and never forms W; the dense
:func:`weyl_operator` is its reference.  Moments come from rho's diagonals 0,
+-1 and +-2 (:func:`covariance_from_fock`).  The attenuator's Kraus operator
A_j lives on the j-th superdiagonal, so one upper-triangular table
C[m, i] = <m|A_(i-m)|i>, the matrix sum_j A_j, holds the channel
(:func:`attenuator_amplitudes`), and :func:`attenuate` maps each diagonal of
rho to the same diagonal, in the same layout, by one BLAS product with a
product of two slices of C (C * C, the transfer matrix, for the main one).
The dense Kraus family (:func:`attenuator_kraus`, :func:`apply_kraus`) is its
reference, kept in the package only while ``perfbench`` traces both names.

Every spectrum comes with a density check (finite, Hermitian, unit trace, no
negative eigenvalue) over all blocks at once, and one batched Hermitian
eigensolve serves the check and the caller; on 1x1 blocks it returns the
diagonal itself.  Truncation error is controlled by recomputing the final
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
    """Operator on the Fock basis {|0>, ..., |n_max>} as a (B, b, b) complex stack of blocks.

    The blocks sit on the diagonal in photon-number order, B * b = n_max + 1.
    A phase-covariant operator is (n_max + 1, 1, 1), any other one dense block
    (1, n_max + 1, n_max + 1); the builder chooses, and nothing reads the
    layout back from the entries.  A real stack is stored as complex; any
    other shape, B or b = 0 included, raises DomainError.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or 0 in blocks.shape:
            raise DomainError(f"blocks must be a (B, b, b) stack with B, b >= 1, got shape {blocks.shape}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_max(self) -> int:
        count, size, _ = self.blocks.shape
        return count * size - 1

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, assembled from the blocks (for tests and the dense references)."""
        count, size, _ = self.blocks.shape
        dense = np.zeros((count, size, count, size), dtype=self.blocks.dtype)
        index = np.arange(count)
        dense[index, :, index, :] = self.blocks
        return dense.reshape(count * size, count * size)

    def trace(self) -> complex:
        """Sum of the block traces, in Fock order."""
        return _diagonal(self.blocks, 0).sum()

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, after the density check; computed on first use."""
        return np.sort(_density_spectrum(self)[0].reshape(-1))


def _diagonal(blocks: np.ndarray, k: int) -> np.ndarray:
    """Diagonal k (column - row) in Fock order: a writable view, or zeros where no block holds it.

    Exact at k = 0 for any stack, and at every k for one block or 1x1 blocks.
    """
    count, size, _ = blocks.shape
    if abs(k) >= size:
        return np.zeros(count * size - abs(k), dtype=blocks.dtype)
    lo, hi = max(-k, 0), max(k, 0)
    return np.einsum("ijj->ij", blocks[:, lo : size - hi, hi : size - lo]).reshape(-1)


def _dot(diagonal: np.ndarray, weights) -> complex:
    """diagonal @ weights for real weights, summed in index order whatever the layout.

    BLAS sums two contiguous vectors in SIMD lanes and a strided pair in index
    order; 1x1 blocks' diagonals are contiguous and a dense block's strided, so
    the weights go in strided and every layout gets the same bits.
    """
    strided = np.zeros(2 * len(weights), dtype=complex)[::2]
    strided[:] = weights
    return diagonal @ strided


def _log_factorials(ms) -> np.ndarray:
    """log m! for each m in ms."""
    return np.array([math.lgamma(m + 1.0) for m in ms])


def _weyl_start(z, n_max: int, d: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """r = |alpha|^2 for z = (x, y), alpha = (-y + i x)/sqrt(2), and for each offset d = row - column
    of W the phase of its elements and g[0, |d|] = e^(-r/2) |alpha|^|d| / sqrt(|d|!).

    n_max < 1, a z that is not two reals, or r beyond MAX_WEYL_R (NaN and inf
    included), where e^(-r/2) leaves the normal double range, raises DomainError.
    """
    _check_cutoff(n_max)
    try:
        if np.iscomplexobj(z):  # casting would drop the imaginary parts with only a warning
            raise TypeError
        x, y = np.asarray(z, dtype=float).reshape(2)
    except (TypeError, ValueError):
        raise DomainError(f"z must be two finite reals (x, y), got {z!r}") from None
    alpha = complex(-y, x) / math.sqrt(2.0)
    modulus = abs(alpha)
    r = modulus * modulus  # inf, not OverflowError, for a huge z
    if not r <= MAX_WEYL_R:
        raise DomainError(f"|alpha|^2 = (x^2 + y^2)/2 must be finite and <= {MAX_WEYL_R}, got {r}")
    k = np.abs(d)
    if r == 0.0:  # W(0) = I, and log(0) is never taken
        return r, np.ones(len(d), dtype=complex), (k == 0).astype(float)
    phase = np.exp(1j * math.atan2(alpha.imag, alpha.real) * d)
    phase[(d < 0) & (d % 2 == 1)] *= -1.0  # (-alpha*)^k = (-1)^k (alpha/|alpha|)^-k |alpha|^k
    return r, phase, np.exp(-0.5 * r + k * math.log(modulus) - 0.5 * _log_factorials(k))


def _weyl_diagonal(g0: float, r: float, k: int, size: int) -> list[float]:
    """g[n, k] = e^(-r/2) |alpha|^k sqrt(n!/(n+k)!) L_n^(k)(r) for n < size, from g[0, k] = g0.

    A scalar loop: one diagonal is too short to pay numpy's per-call cost.
    """
    g0, k = float(g0), int(k)
    g, previous = [g0], 0.0  # g[n - 1] at n = 0 carries the factor sqrt(0)
    for n in range(size - 1):
        g.append(((2 * n + 1 + k - r) * g[n] - math.sqrt(n * (n + k)) * previous)
                 / math.sqrt((n + 1) * (n + 1 + k)))
        previous = g[n]
    return g


def weyl_operator(z, n_max: int) -> TruncatedOperator:
    """exp(i (x q + y p)) for z = (x, y): the displacement D(alpha), alpha = (-y + i x)/sqrt(2).

    Exact matrix elements, truncated: with r = |alpha|^2,
    <n+k|D|n> = alpha^k e^(-r/2) sqrt(n!/(n+k)!) L_n^(k)(r) and
    <n|D|n+k> = (-alpha*)^k e^(-r/2) sqrt(n!/(n+k)!) L_n^(k)(r).
    Each diagonal k runs the normalised Laguerre recurrence in n from
    e^(-r/2) |alpha|^k / sqrt(k!); the phases are applied afterwards.  The
    truncated matrix is unitary only well below the cutoff; certify
    convergence of any derived scalar with :func:`doubling_check`.  n_max < 1,
    a z that is not two finite reals, or r > MAX_WEYL_R where e^(-r/2) leaves
    the normal double range, raises DomainError.  The dense reference for
    :func:`char_function_fock`, which reads the same diagonals without it.
    """
    dim = n_max + 1
    # phase[n_max + d] multiplies the elements with row - column = d
    r, phase, g0 = _weyl_start(z, n_max, np.arange(-n_max, dim))
    g = np.zeros((dim, dim))  # g[n, k], filled for n + k <= n_max
    for k in range(dim):
        g[: dim - k, k] = _weyl_diagonal(g0[n_max + k], r, k, dim - k)
    row, col = np.arange(dim)[:, None], np.arange(dim)[None, :]
    return TruncatedOperator((g[np.minimum(row, col), np.abs(row - col)] * phase[n_max + row - col])[None])


def thermal_state_fock(N: float, n_max: int) -> TruncatedOperator:
    """Thermal state, diagonal p_n = N^n / (N+1)^(n+1); not renormalized.

    The neglected tail (N/(N+1))^(n_max+1) must stay below TAIL_BOUND; N must be
    finite and n_max >= 1.
    """
    if not (math.isfinite(N) and N >= 0.0):
        raise DomainError(f"mean photon number must be finite and >= 0, got {N}")
    _check_cutoff(n_max)
    tail = (N / (N + 1.0)) ** (n_max + 1) if N > 0.0 else 0.0
    if tail >= TAIL_BOUND:
        raise TailTooLargeError(
            f"truncation tail {tail:.3e} >= {TAIL_BOUND:.1e}; raise n_max above "
            f"{math.ceil(-math.log(TAIL_BOUND) / math.log1p(1.0 / N)) if N > 0 else n_max}"
        )
    ns = np.arange(n_max + 1)
    pn = np.exp(ns * math.log(N) - (ns + 1) * math.log(N + 1.0)) if N > 0.0 else (ns == 0) * 1.0
    return TruncatedOperator(pn.astype(complex).reshape(-1, 1, 1))


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
    """Eigenvalues (B, b) and, if asked, eigenvectors (B, b, b) of a checked density operator.

    Finite, Hermitian within 1e-12 (Frobenius over all blocks, relative), trace
    within TAIL_BOUND of 1, eigenvalues >= -1e-12; every test fails on NaN, and
    one batched decomposition serves both the check and the caller.  On a 1x1
    block LAPACK returns the real part and the eigenvector 1 exactly, so 1x1
    blocks give their real diagonal in Fock order; a larger block's are ascending.
    """
    blocks = rho.blocks
    size = np.linalg.norm(blocks)
    if not np.isfinite(size):
        raise NotDensityOperatorError(f"matrix is not finite: Frobenius norm {float(size)}")
    if not np.linalg.norm(blocks - blocks.conj().swapaxes(-1, -2)) <= HERM_TOL * max(size, 1e-300):
        raise NotDensityOperatorError("matrix is not Hermitian within 1e-12")
    trace = rho.trace().real
    if not abs(trace - 1.0) <= TAIL_BOUND:
        raise NotDensityOperatorError(f"trace {trace!r} deviates from 1 beyond the tail bound")
    lam, u = np.linalg.eigh(blocks) if vectors else (np.linalg.eigvalsh(blocks), None)
    if not -HERM_TOL <= lam.min():
        raise NotDensityOperatorError(f"negative eigenvalue {float(lam.min()):.3e}")
    return lam, u


def _check_cutoff(n_max: int) -> None:
    """Reject Fock cutoffs below 1."""
    if n_max < 1:
        raise DomainError(f"Fock cutoff must be >= 1, got {n_max}")


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
    """rho^p, p in [1, inf), block by block on rho's eigenbasis, in rho's layout; not normalized."""
    _check_p(p)
    lam, u = _density_spectrum(rho, vectors=True)
    lam = np.where(lam < EIG_CLAMP, 0.0, lam)
    return TruncatedOperator((u * lam[..., None, :] ** p) @ u.conj().swapaxes(-1, -2))


def char_function_fock(rho: TruncatedOperator, z) -> complex:
    """Tr(rho W(z)) on rho's truncated space, W(z) as in :func:`weyl_operator`, never formed.

    Tr(rho W) = sum_k sum_n rho[n, n+k] W[n+k, n]: each diagonal k (column - row)
    that rho's blocks hold meets W's diagonal with row - column = k, so it costs
    one Laguerre recurrence of n_max + 1 - |k| terms, and 1x1 blocks cost one
    in all.  z is checked as :func:`weyl_operator` checks it.
    """
    offsets = np.arange(1 - rho.blocks.shape[-1], rho.blocks.shape[-1])  # 0 alone for 1x1 blocks
    r, phase, g0 = _weyl_start(z, rho.n_max, offsets)
    dim = rho.n_max + 1
    return complex(sum(
        ph * _dot(_diagonal(rho.blocks, k), _weyl_diagonal(g, r, abs(k), dim - abs(k)))
        for k, ph, g in zip(offsets, phase, g0)
    ))


def attenuator_amplitudes(tau: float, n_max: int) -> np.ndarray:
    """Table C[m, i] = <m| A_(i-m) |i> = sqrt(binom(i, m) tau^m (1-tau)^(i-m)): the matrix sum_j A_j.

    A_j is the binomial Kraus operator of the attenuation channel K = sqrt(tau) I
    that removes j photons, and C's j-th superdiagonal; C is zero below its
    diagonal, and above it at tau = 1.  C * C is the transfer matrix T of a
    diagonal input, out = T @ p, whose columns sum to 1.
    """
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"transmissivity must be in (0, 1], got {tau}")
    _check_cutoff(n_max)
    dim = n_max + 1

    def toeplitz(values: np.ndarray, below) -> np.ndarray:
        """[m, i] = values[i - m], or below where m > i: a view of one padded vector, row stride -1."""
        padded = np.concatenate((np.full(n_max, below, dtype=values.dtype), values))
        step = padded.itemsize
        return np.ndarray((dim, dim), padded.dtype, padded, n_max * step, (-step, step))

    # 0.5 (f[i] - f[i - m] - f[m] + m log tau + (i - m) log(1 - tau)) in that order, from halved terms:
    # the binomial is exactly 0 on the diagonal and in row 0, so m log tau and i log(1 - tau) never round
    # against a log factorial near tau = 1 or 0.  The loss starts at i - m = 1: no 0 * (-inf) at tau = 1.
    half_fact = 0.5 * _log_factorials(range(dim))
    half_loss = 0.5 * np.arange(1, dim) * (math.log1p(-tau) if tau < 1.0 else -math.inf)
    amp = half_fact - toeplitz(half_fact, 0.0)
    amp -= half_fact[:, None]
    amp += (0.5 * np.arange(dim) * math.log(tau))[:, None]
    amp += toeplitz(np.append(0.0, half_loss), 0.0)
    # in place and only where the table is defined: exp(-inf) would take numpy's slow scalar path
    np.exp(amp, out=amp, where=toeplitz(np.ones(dim, dtype=bool), False))
    np.copyto(amp, 0.0, where=toeplitz(np.zeros(dim, dtype=bool), True))
    return amp


def attenuator_kraus(tau: float, n_max: int) -> list[TruncatedOperator]:
    """Binomial Kraus family of the attenuation channel K = sqrt(tau) I, as dense matrices.

    A_j is the j-th superdiagonal of :func:`attenuator_amplitudes`; identically
    zero operators (j >= 1 at tau = 1) are dropped.  The reference for
    :func:`attenuate`, which applies the same channel without forming them.
    """
    amp = attenuator_amplitudes(tau, n_max)
    rows = (np.diagonal(amp, j) for j in range(n_max + 1))
    return [TruncatedOperator(np.diag(row, k=j)[None]) for j, row in enumerate(rows) if row.any()]


def apply_kraus(kraus: list[TruncatedOperator], rho: TruncatedOperator) -> TruncatedOperator:
    """sum_j A_j rho A_j^dag."""
    if any(op.n_max != rho.n_max for op in kraus):
        raise DimensionMismatchError("Kraus operators and state have different cutoffs")
    m = rho.matrix
    out = np.zeros_like(m)
    for op in kraus:
        a = op.matrix
        out = out + a @ m @ a.conj().T
    return TruncatedOperator(out[None])


def attenuate(tau: float, rho: TruncatedOperator) -> TruncatedOperator:
    """Attenuation channel K = sqrt(tau) I, sum_j A_j rho A_j^dag, one diagonal of rho at a time.

    A_j keeps n - m, so with the amplitude table C output diagonal k is
    out_k[m] = sum_i C[m, i] C[m+|k|, i+|k|] rho_k[i]: one elementwise product of two
    slices of C and one BLAS product per diagonal rho's blocks hold, O(n^2) each, with
    the real and imaginary parts as two columns.  At k = 0 the product is C * C.  The
    output keeps rho's layout.  Same channel as ``apply_kraus(attenuator_kraus(tau, n), rho)``.
    """
    dim = rho.n_max + 1
    amp = attenuator_amplitudes(tau, rho.n_max)
    blocks = rho.blocks
    out = np.zeros_like(blocks)
    # a contiguous copy of each diagonal, so that BLAS sums it the same way in every layout
    column = np.zeros(dim, dtype=complex)
    pairs = column.view(float).reshape(dim, 2)
    # k = 0 last, so that its product C * C can overwrite the table instead of taking new memory
    for k in sorted(range(1 - blocks.shape[-1], blocks.shape[-1]), key=abs, reverse=True):
        size = dim - abs(k)
        column[:size] = _diagonal(blocks, k)
        transfer = np.multiply(amp[:size, :size], amp[abs(k) :, abs(k) :], out=amp if k == 0 else None)
        _diagonal(out, k)[:] = (transfer @ pairs[:size]).view(complex).reshape(-1)
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
    blocks = rho.blocks
    n = np.arange(1.0, rho.n_max + 1)
    # Tr(rho X) = sum_ij rho[i, j] X[j, i]; a has sqrt(n) at [n-1, n], a a at [n-2, n]
    a = _dot(_diagonal(blocks, -1), np.sqrt(n))
    a_dag = _dot(_diagonal(blocks, 1), np.sqrt(n))
    root_pairs = np.sqrt(n[1:] * n[:-1])
    aa = _dot(_diagonal(blocks, -2), root_pairs)
    aa_dag = _dot(_diagonal(blocks, 2), root_pairs)
    # diagonal of a a^dag + a^dag a: 2n + 1 below the cutoff, n_max at it
    sym = _dot(_diagonal(blocks, 0), np.append(2.0 * np.arange(rho.n_max) + 1.0, rho.n_max))
    mean = np.array([(a + a_dag).real, (1j * (a_dag - a)).real]) / math.sqrt(2.0)
    # Tr rho (R_i R_k + R_k R_i)/2, then centre: the identity carries Tr rho, not 1
    raw = 0.5 * np.array([
        [(sym + aa + aa_dag).real, (1j * (aa_dag - aa)).real],
        [(1j * (aa_dag - aa)).real, (sym - aa - aa_dag).real],
    ])
    cov = raw - (2.0 - rho.trace().real) * np.outer(mean, mean)
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
