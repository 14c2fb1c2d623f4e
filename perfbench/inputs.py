"""Numpy-only input generator for the benchmark workloads.

Nothing here imports ``gaussnorm``: the inputs, their digest and the set-up
time they cost stay fixed whatever the library does.  Conventions match the
library's (mode ordering q1, p1, q2, p2, ..., Delta = diag([[0, 1], [-1, 0]]),
vacuum covariance I/2), so every generated object carries the exact reference
values the correctness gates compare against.
"""

from __future__ import annotations

import hashlib

import numpy as np


def delta(s: int) -> np.ndarray:
    """Commutation form in (q1, p1, ..., qs, ps) ordering."""
    return np.kron(np.eye(s), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _haar_unitary(rng: np.random.Generator, s: int) -> np.ndarray:
    z = (rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _orthogonal_symplectic(rng: np.random.Generator, s: int) -> np.ndarray:
    # U = X + iY acts on (q..., p...) as [[X, -Y], [Y, X]]; interleave to (q1, p1, ...)
    u = _haar_unitary(rng, s)
    x, y = u.real, u.imag
    block = np.block([[x, -y], [y, x]])
    order = np.ravel(np.column_stack([np.arange(s), s + np.arange(s)]))
    return block[np.ix_(order, order)]


def symplectic(rng: np.random.Generator, s: int, max_squeeze: float) -> np.ndarray:
    """Bloch-Messiah form O1 diag(r1, 1/r1, ..., rs, 1/rs) O2 with 1 <= r_j <= max_squeeze."""
    r = np.exp(rng.uniform(0.0, np.log(max_squeeze), size=s))
    squeeze = np.ravel(np.column_stack([r, 1.0 / r]))
    return (_orthogonal_symplectic(rng, s) * squeeze) @ _orthogonal_symplectic(rng, s)


def williamson(rng: np.random.Generator, d: np.ndarray, max_squeeze: float) -> np.ndarray:
    """Symmetric S^T diag(d1, d1, ..., ds, ds) S: symplectic spectrum exactly d."""
    s_mat = symplectic(rng, len(d), max_squeeze)
    m = (s_mat.T * np.repeat(d, 2)) @ s_mat
    return 0.5 * (m + m.T)


def well_conditioned_k(rng: np.random.Generator, n: int, abs_det: float) -> np.ndarray:
    """K = Q1 diag(sigma) Q2 with sigma in [0.9, 1.11], rescaled to |det K| = abs_det."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = rng.uniform(0.9, 1.11, size=n)
    sigma *= (abs_det / np.prod(sigma)) ** (1.0 / n)
    return (q1 * sigma) @ q2


def cp_threshold_mu(k: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """mu = |i D| / 2 + margin I with D = Delta - K^T Delta K.

    |i D| / 2 is the smallest mu in the PSD order for which both branches
    mu +- (i/2) D are PSD (each has zero modes), so ``margin`` is exactly the
    smallest eigenvalue left on either branch.
    """
    dl = delta(k.shape[0] // 2)
    d_form = dl - k.T @ dl @ k
    lam, v = np.linalg.eigh(d_form.T @ d_form)  # (iD)^2 = D^T D for antisymmetric D
    mu = 0.5 * (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T
    mu = mu + margin * np.eye(k.shape[0])
    return 0.5 * (mu + mu.T)


def log_abs_det(k: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(k)
    if sign == 0.0:
        raise ValueError("singular K")
    return float(logdet)


def log_f_p(d: np.ndarray, p: float) -> np.ndarray:
    """log[(d + 1/2)^p - (d - 1/2)^p] for d > 1/2, without cancellation."""
    d = np.asarray(d, dtype=float)
    log_r = np.log((d - 0.5) / (d + 0.5))
    return p * np.log(d + 0.5) + np.log(-np.expm1(p * log_r))


def schatten_norm_ref(d: np.ndarray, p: float) -> float:
    """||rho||_p from the symplectic spectrum d: prod_j f_p(d_j)^(-1/p), or prod_j (d_j + 1/2)^-1 at p = inf."""
    if np.isinf(p):
        return float(np.exp(-np.sum(np.log(np.asarray(d) + 0.5))))
    return float(np.exp(-np.sum(log_f_p(d, p)) / p))


def digest(arrays) -> str:
    """sha256 over the raw bytes of a sequence of arrays and scalars, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
