"""Test helpers: random valid states and channels, dense Fock references.

Imported by the suites as ``from sampling import ...``; not part of the
installed package, so its scipy use (``expm``) is a test dependency only.
The generators mirror the structure of what they sample:

* symplectic matrices as exp(Delta G) with symmetric G;
* covariances in Williamson form S^T diag(d_1, d_1, ..., d_s, d_s) S;
* channels with K = Q1 diag(sigma) Q2 rescaled to a target |det K| and
  mu = c I + (PSD noise), c just above the complete-positivity threshold.

The ladder and quadrature matrices are the dense operators the banded Fock
code (moments from five diagonals, Weyl operators from Laguerre elements)
is checked against, and the scalar power terms are the per-eigenvalue
reference for the array kernel behind f_p, g_p and Tr rho^p.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from gaussnorm.channels import GaussianChannel, validate_channel
from gaussnorm.fock import TruncatedOperator
from gaussnorm.states import GaussianState, validate_state
from gaussnorm.symplectic import SymplecticSpace, standard_form


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.T)


def random_spd(rng: np.random.Generator, n: int, spectrum=(0.5, 2.0)) -> np.ndarray:
    """Symmetric positive definite matrix with eigenvalues drawn in ``spectrum``."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(spectrum[0], spectrum[1], size=n)
    return (q * lam) @ q.T


def random_symplectic(rng: np.random.Generator, space: SymplecticSpace, scale: float = 0.5) -> np.ndarray:
    """exp(Delta G) for symmetric G; satisfies S^T Delta S = Delta exactly in theory."""
    g = random_symmetric(rng, space.dim, scale=scale)
    return expm(space.delta @ g)


def random_passive_symplectic(rng: np.random.Generator, space: SymplecticSpace) -> np.ndarray:
    """Orthogonal symplectic exp(Delta G), G = A (x) I + B (x) J with A symmetric, B antisymmetric.

    G commutes with Delta = I (x) J, so Delta G is antisymmetric: a passive (beam-splitter
    and phase-shifter) transformation, which squeezes nothing.
    """
    b = rng.standard_normal((space.s, space.s))
    g = np.kron(random_symmetric(rng, space.s), np.eye(2)) + np.kron(b - b.T, [[0.0, 1.0], [-1.0, 0.0]])
    return expm(space.delta @ g)


def random_covariance(
    rng: np.random.Generator,
    space: SymplecticSpace,
    d_range=(0.5, 5.0),
    scale: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Valid covariance with known symplectic spectrum; returns (alpha, sorted d_j)."""
    ds = np.sort(rng.uniform(d_range[0], d_range[1], size=space.s))
    diag = np.repeat(ds, 2)
    s_mat = random_symplectic(rng, space, scale=scale)
    alpha = s_mat.T @ np.diag(diag) @ s_mat
    return 0.5 * (alpha + alpha.T), ds


def squeezed_one_mode(rng: np.random.Generator, log10_scale=(-150.0, 150.0), max_squeeze: float = 20.0) -> np.ndarray:
    """One-mode c d R diag(e^r, e^-r) R^T, symmetrised: a random angle, d in [1/2, 50], |r| <= max_squeeze
    and log10 c drawn in ``log10_scale``; at large squeezes rounding can leave it with no Cholesky factor."""
    c = 10.0 ** rng.uniform(*log10_scale)
    d = rng.uniform(0.5, 50.0)
    r = rng.uniform(-max_squeeze, max_squeeze)
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    alpha = (rot * (c * d * np.exp([r, -r]))) @ rot.T
    return 0.5 * (alpha + alpha.T)


def squeezed_two_mode(rng: np.random.Generator, d1: float, d2: float, max_squeeze: float,
                      scale: float = 1.0) -> np.ndarray:
    """Two-mode c O1 Z O2 diag(d1, d1, d2, d2) O2^T Z O1^T, symmetrised: passive O1, O2 and
    Z = diag(e^(r1/2), e^(-r1/2), e^(r2/2), e^(-r2/2)) with |r_j| <= max_squeeze, so each mode is
    squeezed by up to e^+-max_squeeze, as in squeezed_one_mode; c = ``scale``."""
    space = standard_form(2)
    z = np.exp(np.repeat(rng.uniform(-max_squeeze, max_squeeze, 2), 2) * [0.5, -0.5, 0.5, -0.5])
    sym = (random_passive_symplectic(rng, space) * z) @ random_passive_symplectic(rng, space)
    alpha = scale * ((sym * [d1, d1, d2, d2]) @ sym.T)
    return 0.5 * (alpha + alpha.T)


def random_state(
    rng: np.random.Generator,
    space: SymplecticSpace,
    d_range=(0.5, 5.0),
    mean_scale: float = 1.0,
) -> GaussianState:
    alpha, _ = random_covariance(rng, space, d_range=d_range)
    mean = mean_scale * rng.standard_normal(space.dim)
    return validate_state(mean, alpha, space)


def random_invertible_k(
    rng: np.random.Generator,
    space: SymplecticSpace,
    abs_det: float,
    sigma_range=(0.9, 1.11),
    allow_reflection: bool = True,
) -> np.ndarray:
    """Well-conditioned K with |det K| = abs_det, random orientation."""
    n = space.dim
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = rng.uniform(sigma_range[0], sigma_range[1], size=n)
    k = (q1 * sigma) @ q2
    det = np.linalg.det(k)
    k = k * (abs_det / abs(det)) ** (1.0 / n)
    if allow_reflection and rng.random() < 0.5:
        k = k @ np.diag([-1.0] + [1.0] * (n - 1))
    return k


def cp_threshold_mu(space: SymplecticSpace, K: np.ndarray) -> float:
    """Smallest c such that mu = c I satisfies complete positivity for this K."""
    d_form = space.delta - K.T @ space.delta @ K
    if np.allclose(d_form, 0.0):
        return 0.0
    return 0.5 * float(np.max(np.abs(np.linalg.eigvalsh(1j * d_form))))


def random_channel(
    rng: np.random.Generator,
    space: SymplecticSpace,
    abs_det: float | None = None,
    mu_slack: float = 0.1,
    noise_scale: float = 0.0,
    shift_scale: float = 0.0,
) -> GaussianChannel:
    """Valid channel with well-conditioned K and mu near the CP threshold.

    ``mu_slack`` scales c above the threshold; ``noise_scale`` adds a random
    PSD component to mu; ``shift_scale`` draws a nonzero displacement l.
    """
    if abs_det is None:
        abs_det = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    k = random_invertible_k(rng, space, abs_det)
    c = cp_threshold_mu(space, k) * (1.0 + mu_slack * rng.random())
    mu = c * np.eye(space.dim)
    if noise_scale > 0.0:
        w = rng.standard_normal((space.dim, space.dim))
        mu = mu + noise_scale * (w @ w.T) / space.dim
    l = shift_scale * rng.standard_normal(space.dim)
    return validate_channel(k, l, 0.5 * (mu + mu.T), space)


def ladder_operators(n_max: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Annihilation and creation matrices; a|n> = sqrt(n)|n-1>, truncated."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)
    return (
        TruncatedOperator(a[None]),
        TruncatedOperator(a.conj().T[None]),
    )


def quadratures(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """q = (a + a^dag)/sqrt(2), p = i (a^dag - a)/sqrt(2); [q, p] = i below the cutoff."""
    a, a_dag = ladder_operators(n_max)
    q = (a.matrix + a_dag.matrix) / math.sqrt(2.0)
    p = 1j * (a_dag.matrix - a.matrix) / math.sqrt(2.0)
    return q, p


def power_terms_ref(d: float, p: float) -> tuple[float, float]:
    """(r^p, 1 - r^p), r = (d - 1/2)/(d + 1/2), one eigenvalue d >= 1/2 at a time.

    Direct subtraction below r = 1/2, log1p/expm1 above (r -> 1 as d -> inf).
    """
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


def log_f_p_ref(d: float, p: float) -> float:
    """log f_p(d) = p log(d + 1/2) + log(1 - r^p) for one eigenvalue, d >= 1/2."""
    _, one_minus_rp = power_terms_ref(d, p)
    return p * math.log(d + 0.5) + math.log(one_minus_rp)
