"""Symplectic space construction and the matrix-function kernels."""

import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussnorm
from gaussnorm import (
    check_psd_hermitian,
    standard_form,
    symplectic_spectrum,
)
from gaussnorm.errors import (
    DomainError,
    ImagResidualError,
    NonDiagonalizableError,
    NotHermitianError,
    NotSymmetricError,
    SpectralPoleError,
    SpectrumNotImaginaryError,
)
from sampling import random_channel, random_covariance, random_spd, random_symplectic
from gaussnorm.symplectic import (
    PSD_SLACK,
    TOL_RECONSTRUCT,
    TOL_SPEC,
    TOL_SYM,
    apply_spectral_function,
    check_finite,
    check_psd_pair,
    check_symmetric,
    matrix_abs,
    matrix_cot,
    spectral_decomposition,
)


BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestStandardForm:
    def test_single_mode(self):
        space = standard_form(1)
        np.testing.assert_array_equal(space.delta, BLOCK)

    def test_two_modes_block_diagonal(self):
        space = standard_form(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = BLOCK
        expected[2:, 2:] = BLOCK
        np.testing.assert_array_equal(space.delta, expected)

    def test_delta_squared_is_minus_identity(self):
        space = standard_form(1)
        np.testing.assert_array_equal(space.delta @ space.delta, -np.eye(2))

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            standard_form(0)

    @given(st.integers(min_value=1, max_value=8))
    def test_invariants_any_mode_count(self, s):
        space = standard_form(s)
        assert space.delta.shape == (2 * s, 2 * s)
        np.testing.assert_array_equal(space.delta.T, -space.delta)
        np.testing.assert_array_equal(space.delta @ space.delta, -np.eye(2 * s))
        assert np.linalg.det(space.delta) == pytest.approx(1.0)
        np.testing.assert_array_equal(space.delta_inv, -space.delta)

    @pytest.mark.parametrize("s", [1, 3, 16])
    def test_half_i_delta_shared_and_read_only(self, s):
        space = standard_form(s)
        h = space._half_i_delta
        assert space._half_i_delta is h
        assert h.dtype == np.complex128 and h.tobytes() == (0.5j * space.delta).tobytes()
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 1] = 0.0


class TestApplySpectralFunction:
    def test_identity_matrix_squared(self):
        out = apply_spectral_function(np.eye(2), lambda x: x**2)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-14)

    def test_abs_of_delta(self):
        space = standard_form(1)
        out = apply_spectral_function(space.delta, abs)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-14)

    def test_diagonal_squared(self):
        out = apply_spectral_function(np.diag([2.0, 3.0]), lambda x: x**2)
        np.testing.assert_allclose(out, np.diag([4.0, 9.0]), atol=1e-13)

    def test_identity_function_returns_input(self):
        rng = np.random.default_rng(7)
        for s in (1, 2, 3):
            space = standard_form(s)
            alpha, _ = random_covariance(rng, space)
            a = space.delta_inv @ alpha
            out = apply_spectral_function(a, lambda x: x)
            assert np.linalg.norm(out - a) <= TOL_RECONSTRUCT * np.linalg.norm(a)

    def test_defective_matrix_rejected(self):
        # Jordan block: not diagonalizable
        with pytest.raises(NonDiagonalizableError):
            apply_spectral_function(np.array([[1.0, 1.0], [0.0, 1.0]]), abs)

    def test_pole_rejected(self):
        with pytest.raises(SpectralPoleError):
            apply_spectral_function(np.eye(2), lambda x: float("inf"))

    def test_imaginary_result_rejected(self):
        # a constant-imaginary scalar function makes the real projection invalid
        with pytest.raises(ImagResidualError):
            apply_spectral_function(np.eye(2), lambda x: 1j)


def test_nonsymmetric_kernels_not_exported():
    # no library path calls them: they are the tests' independent reference, in gaussnorm.symplectic
    for name in ("spectral_decomposition", "apply_spectral_function", "matrix_abs", "matrix_cot"):
        assert name not in gaussnorm.__all__ and not hasattr(gaussnorm, name)
        assert callable(getattr(gaussnorm.symplectic, name))


class TestSpectralDecomposition:
    def test_wrong_decomposition_rejected(self, monkeypatch):
        # an eigenbasis with condition 1 whose eigenvalues do not reconstruct A
        monkeypatch.setattr(np.linalg, "eig", lambda a: (np.array([5.0, 7.0]), np.eye(2)))
        with pytest.raises(NonDiagonalizableError, match="^reconstruction residual .* exceeds"):
            spectral_decomposition(np.diag([2.0, 3.0]))


class TestMatrixAbs:
    def test_vacuum_covariance(self):
        space = standard_form(1)
        a = space.delta_inv @ (0.5 * np.eye(2))
        np.testing.assert_allclose(matrix_abs(a), 0.5 * np.eye(2), atol=1e-14)

    def test_scalar_covariance(self):
        space = standard_form(1)
        a = space.delta_inv @ (1.5 * np.eye(2))
        np.testing.assert_allclose(matrix_abs(a), 1.5 * np.eye(2), atol=1e-14)

    def test_moduli_match_symplectic_spectrum(self):
        rng = np.random.default_rng(11)
        for s in (1, 2, 3):
            space = standard_form(s)
            alpha, planted = random_covariance(rng, space, d_range=(0.6, 4.0))
            a = space.delta_inv @ alpha
            moduli = np.sort(np.linalg.eigvals(matrix_abs(a)).real)
            np.testing.assert_allclose(moduli, np.repeat(planted, 2), rtol=1e-9)

    def test_square_identity(self):
        # abs(A)^2 = -A^2 whenever the spectrum is +-i d
        rng = np.random.default_rng(13)
        for s in (1, 2, 3):
            space = standard_form(s)
            alpha, _ = random_covariance(rng, space)
            a = space.delta_inv @ alpha
            lhs = matrix_abs(a) @ matrix_abs(a)
            rhs = -a @ a
            assert np.linalg.norm(lhs - rhs) <= TOL_RECONSTRUCT * np.linalg.norm(rhs)

    def test_real_spectrum_rejected(self):
        with pytest.raises(SpectrumNotImaginaryError):
            matrix_abs(np.diag([1.0, 2.0]))


class TestSymplecticSpectrum:
    def test_vacuum(self):
        space = standard_form(1)
        np.testing.assert_allclose(symplectic_spectrum(0.5 * np.eye(2), space), [0.5])

    def test_diagonal_two_by_two(self):
        # char. polynomial of Delta^-1 diag(a, b) gives lambda^2 = -a b
        space = standard_form(1)
        a, b = 1.0, 0.3
        got = symplectic_spectrum(np.diag([a, b]), space)
        np.testing.assert_allclose(got, [np.sqrt(a * b)], rtol=1e-12)

    def test_two_mode_vacuum(self):
        space = standard_form(2)
        np.testing.assert_allclose(symplectic_spectrum(0.5 * np.eye(4), space), [0.5, 0.5])

    def test_planted_williamson_spectrum(self):
        rng = np.random.default_rng(3)
        for s in (1, 2, 3):
            space = standard_form(s)
            alpha, planted = random_covariance(rng, space, d_range=(0.5, 6.0))
            got = symplectic_spectrum(alpha, space)
            np.testing.assert_allclose(got, planted, rtol=1e-8)

    def test_invariant_under_symplectic_conjugation(self):
        rng = np.random.default_rng(5)
        for s in (1, 2, 3):
            space = standard_form(s)
            alpha, _ = random_covariance(rng, space)
            base = symplectic_spectrum(alpha, space)
            for _ in range(5):
                s_mat = random_symplectic(rng, space)
                conj = s_mat.T @ alpha @ s_mat
                got = symplectic_spectrum(0.5 * (conj + conj.T), space)
                np.testing.assert_allclose(got, base, rtol=10 * TOL_SPEC)

    def test_spectrum_refuses_non_positive_definite(self):
        # Delta^-1 (-alpha) has the same moduli as Delta^-1 alpha; only a
        # positive definite alpha is a covariance with a symplectic spectrum
        space = standard_form(1)
        for alpha in (-0.5 * np.eye(2), np.diag([1.0, -1.0]), np.diag([1e200, -1e200])):
            with pytest.raises(DomainError, match="positive definite"):
                symplectic_spectrum(alpha, space)


class TestMatrixCot:
    def test_scalar_reduction(self):
        # cot(beta Delta) = -coth(beta) Delta via Delta^2 = -I
        space = standard_form(1)
        beta = 0.7
        got = matrix_cot(beta * space.delta)
        np.testing.assert_allclose(got, -space.delta / np.tanh(beta), rtol=1e-12)

    def test_scalar_value_beta_one(self):
        space = standard_form(1)
        got = matrix_cot(space.delta)
        np.testing.assert_allclose(got, -np.cosh(1.0) / np.sinh(1.0) * space.delta, rtol=1e-12)

    def test_against_laurent_series(self):
        # cot X = X^-1 - X/3 - X^3/45 - 2 X^5/945 - X^7/4725 - 2 X^9/93555 ...
        space = standard_form(1)
        beta = 0.01
        x = beta * np.diag([2.0, 2.0]) @ space.delta
        got = matrix_cot(x)
        coeffs = [1.0 / 3.0, 1.0 / 45.0, 2.0 / 945.0, 1.0 / 4725.0, 2.0 / 93555.0]
        series = np.linalg.inv(x)
        power = x.copy()
        for c in coeffs:
            series = series - c * power
            power = power @ x @ x
        np.testing.assert_allclose(got, series, rtol=1e-12)

    def test_gibbs_covariance_symmetric(self):
        rng = np.random.default_rng(17)
        for s in (1, 2, 3):
            space = standard_form(s)
            for beta in (1e-4, 1e-2, 1.0, 10.0):
                eps = random_spd(rng, space.dim, spectrum=(0.5, 2.0))
                alpha = 0.5 * space.delta @ matrix_cot(beta * eps @ space.delta)
                assert np.linalg.norm(alpha - alpha.T) <= TOL_SYM * np.linalg.norm(alpha) * 10

    def test_real_spectrum_rejected(self):
        with pytest.raises(SpectrumNotImaginaryError):
            matrix_cot(np.diag([1.0, 2.0]))

    def test_pole_guard(self):
        space = standard_form(1)
        with pytest.raises(SpectralPoleError):
            matrix_cot(1e-14 * space.delta)


class TestCheckPsdHermitian:
    def test_identity(self):
        ok, lam = check_psd_hermitian(np.eye(3), tol=0.0)
        assert ok and lam == pytest.approx(1.0)

    def test_vacuum_saturates(self):
        space = standard_form(1)
        h = 0.5 * np.eye(2) + 0.5j * space.delta
        ok, lam = check_psd_hermitian(h, tol=1e-10)
        assert ok
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_uncertainty_violation_detected(self):
        space = standard_form(1)
        h = 0.4 * np.eye(2) + 0.5j * space.delta
        ok, lam = check_psd_hermitian(h, tol=1e-10)
        assert not ok
        assert lam == pytest.approx(-0.1, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            check_psd_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]), tol=0.0)
        # ||H|| overflows; a tolerance scaled by it would pass any matrix
        with pytest.raises(NotHermitianError):
            check_psd_hermitian(np.array([[1e200, 1e200], [0.0, 1e200]], dtype=complex), tol=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6))
    def test_diagonal_matrices(self, diag):
        ok, lam = check_psd_hermitian(np.diag(diag), tol=0.0)
        assert lam == pytest.approx(min(diag), rel=1e-12, abs=1e-12)
        assert ok == (min(diag) >= 0.0)

    def test_branches_match_two_call_reference(self):
        # X - (i/2) F is exactly conj(X + (i/2) F) for real X and F, so one check of the
        # + branch gives both verdicts, bit for bit: CP branches of random channels with K
        # scaled by 1e-3, 1 and 1e3, and uncertainty branches at d_min = 1/2 + k eps
        rng = np.random.default_rng(1707)
        pairs = []
        for s in (1, 2, 16, 40):
            space = standard_form(s)
            for scale in (1e-3, 1.0, 1e3):
                channel = random_channel(rng, space, noise_scale=0.2)
                k = scale * channel.K
                pairs.append((channel.mu, space.delta - k.T @ space.delta @ k))
            for k in (0.0, 1.0, -1.0, 1e3, -1e3, 1e8, -1e8):
                d = np.sort(rng.uniform(0.5, 5.0, size=s))
                d[0] = 0.5 + k * np.finfo(float).eps
                s_mat = random_symplectic(rng, space)
                alpha = s_mat.T @ np.diag(np.repeat(d, 2)) @ s_mat
                pairs.append((0.5 * (alpha + alpha.T), space.delta))
        for x, f in pairs:
            reference = [check_psd_hermitian(h, tol=PSD_SLACK * abs(h).max())
                         for h in (x + 0.5j * f, x - 0.5j * f)]
            assert all(check_psd_pair(x, f) == branch for branch in reference)


def _check_symmetric_ref(x, what):
    # check_symmetric as it was before its exact pre-test, verbatim: the reference it must match
    n = x.shape[-1]
    scale = abs(x).reshape(-1, n * n).max(axis=1).tolist()
    check_finite(x, what, sum(scale))
    asym = abs(x - x.swapaxes(-1, -2)).reshape(-1, n * n).max(axis=1).tolist()
    if any(map(operator.gt, asym, [TOL_SYM * m for m in scale])):
        raise NotSymmetricError(f"{what} is not symmetric within tolerance")
    return max(asym)


def _outcome(check, x):
    # the return value, or the exception's class and message; a numpy warning counts as one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "returned", check(x.copy(), "covariance matrix")
        except Exception as exc:  # every outcome is compared, whatever it is
            return type(exc), str(exc)


CASES = ["symmetric", "asym 0.5", "asym 0.99", "asym 1.01", "signed zero", "subnormal", "huge",
         "huge asym 0.99", "huge asym 1.01", "nan one", "nan both", "inf both", "-inf both",
         "inf one"]


class TestCheckSymmetric:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([None, 1, 2, 5, 8]),
           st.sampled_from(CASES), st.integers(0, 7), st.booleans())
    def test_matches_tolerance_path(self, seed, s, batch, case, member, diagonal):
        # single matrices and stacks with one member altered: exactly symmetric, asymmetric at
        # 0.5, 0.99 and 1.01 TOL_SYM max|x_ij|, +-0.0 pairs, subnormal or near-1e308 entries,
        # NaN in one triangle or both, +-inf in both or one; the pre-test changes no outcome
        rng = np.random.default_rng(seed)
        n = 2 * s
        a = rng.standard_normal((batch or 1, n, n))
        x = a + a.swapaxes(-1, -2)
        m = member % len(x)
        k = int(rng.integers(n))
        i, j = k, (k + 1) % n  # an off-diagonal pair; NaN and inf may sit on the diagonal instead
        if case == "subnormal":
            x *= 1e-310
        elif case.startswith("huge"):
            x = x / abs(x).max() * 1.7e308
        if "asym" in case:
            x[m, i, j] += float(case.split()[-1]) * TOL_SYM * abs(x[m]).max()
        elif case == "signed zero":
            x[m, 0, 1], x[m, 1, 0] = 0.0, -0.0
            x[m, -1, 0], x[m, 0, -1] = -0.0, 0.0
        elif case.startswith("nan"):
            j = i if diagonal else j
            x[m, i, j] = np.nan
            if case == "nan both":
                x[m, j, i] = np.nan
        elif case.startswith(("inf", "-inf")):
            j = i if diagonal else j
            x[m, i, j] = float(case.split()[0])
            if case.endswith("both"):
                x[m, j, i] = x[m, i, j]
        x = x[0] if batch is None else x
        got, ref = _outcome(check_symmetric, x), _outcome(_check_symmetric_ref, x)
        assert got == ref
        if got[0] == "returned":
            assert np.signbit(got[1]) == np.signbit(ref[1])
