"""Symplectic-space conventions, the Williamson basis and matrix-function kernels.

Conventions used throughout the package:

* mode ordering (q1, p1, q2, p2, ...), so the commutation form is the
  block-diagonal Delta = diag([[0, 1], [-1, 0]], ...) with Delta^2 = -I and
  det Delta = 1;
* [q, p] = i, vacuum covariance (1/2) I, symplectic eigenvalues d_j >= 1/2;
* a symmetric positive definite x = L L^T (Cholesky), covariance or Gibbs
  Hamiltonian, has the Hermitian Williamson form i L^T Delta^-1 L with
  eigenvalues +-d_j; spectra (symplectic_spectrum is the one entry point), Gibbs
  states and power states are read from it, for one matrix or a batched stack;
* general matrix functions (matrix_abs, matrix_cot) go through a complex
  eigendecomposition kernel with a conditioning cap and a real-projection
  guard; no library path calls them and the package does not export them:
  they are the tests' independent reference for the Williamson path.

Symmetry, Hermiticity and PSD tolerances scale with max |x_ij|, which, unlike
a norm summed over entries, cannot overflow for finite x; in a stack each
matrix is held to its own max |x_ij|.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    ImagResidualError,
    NonDiagonalizableError,
    NotHermitianError,
    NotSymmetricError,
    SpectralPoleError,
    SpectrumNotImaginaryError,
)

# Default tolerances; calibrated for double precision and 2s <= ~40.
TOL_SYM = 1e-10        # relative, symmetry checks
TOL_HERM = 1e-10       # relative, Hermiticity checks
TOL_SPEC = 1e-8        # relative, spectrum checks (imaginary spectrum, d >= 1/2 slack)
TOL_IMAG = 1e-9        # relative, imaginary residual of real-projected matrix functions
TOL_RECONSTRUCT = 1e-7  # relative, eigendecomposition reconstruction residual
COND_CAP = 1e8         # eigenvector conditioning cap
PSD_SLACK = 1e-10      # relative PSD slack: lambda_min >= -PSD_SLACK * max |H_ij|


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """Mode count s and the 2s x 2s commutation form Delta."""

    s: int
    delta: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.s

    @property
    def delta_inv(self) -> np.ndarray:
        # Delta^2 = -I in this basis, so the inverse is -Delta.
        return -self.delta

    @cached_property
    def _half_i_delta(self) -> np.ndarray:
        # (i/2) Delta, built on first use and shared by every state of the space: read-only
        h = 0.5j * self.delta
        h.flags.writeable = False
        return h


def standard_form(s: int) -> SymplecticSpace:
    """Build the standard s-mode symplectic space, ordering (q1, p1, q2, p2, ...)."""
    if s < 1:
        raise DomainError(f"mode count must be a positive integer, got {s}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    delta = np.kron(np.eye(s), block)
    return SymplecticSpace(s=int(s), delta=delta)


def spectral_decomposition(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose a real square matrix as (w, V, V^-1), A = V diag(w) V^-1.

    Raises NonDiagonalizableError when the eigenvector condition number
    exceeds COND_CAP or the reconstruction residual is out of tolerance.
    """
    a = np.asarray(a, dtype=float)
    w, v = np.linalg.eig(a)
    cond = float(np.linalg.cond(v))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise NonDiagonalizableError(
            f"eigenvector condition estimate {cond:.3e} exceeds cap {COND_CAP:.1e}"
        )
    v_inv = np.linalg.inv(v)
    recon = (v * w) @ v_inv
    scale = np.linalg.norm(a)
    resid = np.linalg.norm(recon - a)
    if resid > TOL_RECONSTRUCT * max(scale, 1e-300):
        raise NonDiagonalizableError(
            f"reconstruction residual {resid:.3e} exceeds {TOL_RECONSTRUCT:.1e} * ||A||"
        )
    return w, v, v_inv


def _spectral_function(dec: tuple, f: Callable[[complex], complex]) -> np.ndarray:
    # Re(V f(Lambda) V^-1) from a decomposition (w, V, V^-1)
    w, v, v_inv = dec
    fw = np.array([f(lam) for lam in w], dtype=complex)
    if not np.all(np.isfinite(fw)):
        raise SpectralPoleError("scalar function returned a non-finite value on the spectrum")
    m = (v * fw) @ v_inv
    scale = np.linalg.norm(m)
    if np.linalg.norm(m.imag) > TOL_IMAG * scale:
        raise ImagResidualError(
            f"imaginary residual {np.linalg.norm(m.imag):.3e} exceeds "
            f"{TOL_IMAG:.1e} * ||result|| = {TOL_IMAG * scale:.3e}"
        )
    return m.real


def apply_spectral_function(a: np.ndarray, f: Callable[[complex], complex]) -> np.ndarray:
    """Evaluate the matrix function f(A) = Re(V f(Lambda) V^-1) for real A.

    The scalar ``f`` is applied to each eigenvalue; a non-finite value raises
    SpectralPoleError.  The imaginary residual of V f(Lambda) V^-1 must stay
    below TOL_IMAG relative to the result norm, else ImagResidualError.
    """
    return _spectral_function(spectral_decomposition(a), f)


def _imaginary_function(a: np.ndarray, f: Callable[[complex], complex]) -> np.ndarray:
    # f(A) for a real matrix whose spectrum must be purely imaginary
    dec = spectral_decomposition(a)
    w = dec[0]
    bad = np.abs(w.real) > TOL_SPEC * np.abs(w)
    if np.any(bad):
        worst = w[bad][np.argmax(np.abs(w[bad].real))]
        raise SpectrumNotImaginaryError(
            f"eigenvalue {worst} has real part beyond {TOL_SPEC:.1e} * |lambda|"
        )
    return _spectral_function(dec, f)


def matrix_abs(a: np.ndarray) -> np.ndarray:
    """abs(A) for a real matrix with purely imaginary spectrum +-i d_j.

    Intended for A = Delta^-1 alpha with symmetric alpha; the result has the
    moduli d_j as eigenvalues on the same eigenvectors.
    """
    return _imaginary_function(a, abs)


def _williamson_form(x: np.ndarray, space: SymplecticSpace, error: type, what: str) -> tuple:
    # (L, H): x = L L^T (Cholesky) and Hermitian H = i L^T Delta^-1 L, with eigenvalues
    # +-d_j, the symplectic spectrum of x, per matrix of a stack; a failed Cholesky of
    # any matrix raises ``error`` naming ``what``
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} must be positive definite") from exc
    return chol, -1j * (chol.swapaxes(-1, -2) @ space.delta @ chol)  # Delta^-1 = -Delta


def symplectic_spectrum(alpha: np.ndarray, space: SymplecticSpace) -> np.ndarray:
    """Symplectic spectrum {d_j} of a positive definite covariance, ascending: the one spectrum kernel.

    ``alpha`` may be a stack (..., 2s, 2s); the spectra come back as (..., s).
    Refuses a wrong shape, and non-finite or asymmetric matrices, before the
    Williamson kernel runs; a failed Cholesky factorization of any matrix
    raises DomainError.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-2:] != (space.dim, space.dim):
        raise DomainError(f"expected shape (..., {space.dim}, {space.dim}), got {alpha.shape}")
    check_symmetric(alpha, "covariance matrix")
    # each +-d_j pair of the Williamson form's eigenvalues averaged into one d_j, halved first: no overflow
    w = np.linalg.eigvalsh(_williamson_form(alpha, space, DomainError, "covariance matrix")[1])
    w *= 0.5
    return w[..., space.s:] - w[..., space.s - 1::-1]


def _cot(z: complex) -> complex:
    # cot has poles at real integer multiples of pi (z = 0 included)
    nearest = math.pi * round(z.real / math.pi)
    if abs(z - nearest) < 1e-13:
        raise SpectralPoleError(f"cot evaluated within 1e-13 of a pole at {nearest}")
    return 1.0 / cmath.tan(z)


def matrix_cot(x: np.ndarray) -> np.ndarray:
    """cot(X) for a real matrix with purely imaginary spectrum.

    On the spectrum +-i t this is -+i coth(t); the result is real.  The
    Gibbs covariance (Delta/2) cot(beta eps Delta) it gives is the reference
    for ``gibbs_state``, which reads it from the family's Williamson basis.
    """
    return _imaginary_function(x, _cot)


def check_finite(x: np.ndarray, what: str, total: float) -> None:
    """Refuse NaN or inf entries in ``x``, given a sum or norm ``total`` of them.

    A finite total proves every entry finite; only a non-finite one (finite
    entries can overflow too) costs an elementwise test.
    """
    if not math.isfinite(total) and not np.isfinite(x).all():
        raise DomainError(f"{what} must be finite")


def check_symmetric(x: np.ndarray, what: str) -> float:
    """Refuse a real matrix with non-finite entries or asymmetry beyond TOL_SYM * max |x_ij|.

    For a stack (..., n, n) each matrix is held to its own max |x_ij|.  Returns the
    largest asymmetry max |x_ij - x_ji| it admitted, 0.0 when every matrix is exactly symmetric.
    An exactly symmetric finite input is answered by an exact pre-test (x == x^T and every
    entry finite) before any tolerance is formed; NaN, inf and any asymmetry, rounding-sized
    too, take the tolerance path after it.
    """
    # x - x^T is exactly zero here, so the tolerance path would return 0.0 too
    if (x == x.swapaxes(-1, -2)).all() and np.isfinite(x).all():
        return 0.0
    # per-matrix maxima over rows of n^2 entries, compared as floats: on one small
    # matrix this costs about what the two full reductions of a single check do
    n = x.shape[-1]
    scale = abs(x).reshape(-1, n * n).max(axis=1).tolist()
    check_finite(x, what, sum(scale))
    asym = abs(x - x.swapaxes(-1, -2)).reshape(-1, n * n).max(axis=1).tolist()
    if any(map(operator.gt, asym, [TOL_SYM * m for m in scale])):
        raise NotSymmetricError(f"{what} is not symmetric within tolerance")
    return max(asym)


def check_psd_pair(x: np.ndarray, f: np.ndarray) -> tuple[bool, float]:
    """(ok, lambda_min) of X + (i/2) F >= 0, which is also the verdict on X - (i/2) F >= 0.

    For real X and F, X - (i/2) F is exactly the complex conjugate of
    H = X + (i/2) F: same spectrum, same max |H_ij|, same Hermiticity residual.
    One check of H, with slack PSD_SLACK * max |H_ij|, answers both.
    """
    h = x + 0.5j * f
    return check_psd_hermitian(h, tol=PSD_SLACK * abs(h).max())


def check_psd_hermitian(h: np.ndarray, tol: float) -> tuple[bool, float]:
    """Check lambda_min(H) >= -tol for complex Hermitian H; returns (ok, lambda_min)."""
    h = np.asarray(h, dtype=complex)
    skew = h.conj().T - h
    if abs(skew).max() > TOL_HERM * abs(h).max():
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    # h + (h^H - h)/2, not (h + h^H)/2: the sum can overflow where H's entries
    # do not, and halving h first rounds a subnormal diagonal entry to zero
    lam_min = float(np.linalg.eigvalsh(h + 0.5 * skew).min())
    return lam_min >= -tol, lam_min
