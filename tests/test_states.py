"""Gaussian states, spectral functions, Schatten powers, Gibbs families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussnorm import (
    GaussianState,
    GibbsFamily,
    char_function,
    f_p,
    g_p,
    gibbs_asymptotic,
    gibbs_state,
    matrix_cot,
    power_char_function,
    power_cov,
    schatten_norm,
    standard_form,
    symplectic_spectrum,
    tr_rho_p,
    validate_state,
)
from gaussnorm.errors import (
    DimensionMismatchError,
    DomainError,
    NotSymmetricError,
    SingularEpsilonError,
    UncertaintyViolatedError,
)
from sampling import random_covariance, random_spd, random_state, random_symplectic
from gaussnorm.states import _power_terms
from gaussnorm.symplectic import check_psd_branches


def thermal_state(d, s=1):
    space = standard_form(s)
    return validate_state(np.zeros(2 * s), d * np.eye(2 * s), space)


def thermal_tr_power_series(N, p, terms=400):
    """Independent oracle: sum_n (N^n / (N+1)^(n+1))^p by direct summation."""
    n = np.arange(terms)
    return float(np.sum((N**n / (N + 1.0) ** (n + 1)) ** p))


class TestValidateState:
    def test_vacuum_valid(self):
        state = thermal_state(0.5)
        np.testing.assert_array_equal(state.cov, 0.5 * np.eye(2))

    def test_below_vacuum_rejected(self):
        space = standard_form(1)
        with pytest.raises(UncertaintyViolatedError) as err:
            validate_state([0, 0], 0.4 * np.eye(2), space)
        assert err.value.lambda_min == pytest.approx(-0.1, abs=1e-12)

    def test_squeezed_diagonal_boundary(self):
        # d = sqrt(1.0 * 0.3) ~ 0.5477 >= 1/2, so valid despite the 0.3 entry
        space = standard_form(1)
        state = validate_state([1.0, -2.0], np.diag([1.0, 0.3]), space)
        d = symplectic_spectrum(state.cov, space)[0]
        assert d == pytest.approx(math.sqrt(0.3), rel=1e-12)

    def test_dimension_mismatch(self):
        space = standard_form(2)
        with pytest.raises(DimensionMismatchError):
            validate_state([0, 0], 0.5 * np.eye(2), space)

    def test_asymmetric_rejected(self):
        space = standard_form(1)
        with pytest.raises(NotSymmetricError):
            validate_state([0, 0], np.array([[1.0, 0.2], [0.1, 1.0]]), space)
        # ||cov|| overflows; a tolerance scaled by it would pass any asymmetry
        with pytest.raises(NotSymmetricError):
            validate_state([0, 0], np.array([[1e200, 1e200], [0.0, 1e200]]), space)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, bad):
        space = standard_form(1)
        with pytest.raises(DomainError, match="^mean must be finite"):
            validate_state([0.0, bad], np.eye(2), space)
        with pytest.raises(DomainError, match="^covariance matrix must be finite"):
            validate_state([0.0, 0.0], np.array([[1.0, 0.0], [0.0, bad]]), space)
        with pytest.raises(DomainError, match="^covariance matrix must be finite"):
            symplectic_spectrum(np.array([[bad, 0.0], [0.0, 1.0]]), space)

    def test_squeezed_state_spectrum_not_refused(self):
        # condition number 4.3e10: Delta^-1 alpha's nonsymmetric eigenvalues
        # carry real parts beyond TOL_SPEC, the Hermitian route does not
        rng = np.random.default_rng(0)
        space = standard_form(4)
        for _ in range(6):
            alpha, planted = random_covariance(rng, space, scale=3.0)
        state = validate_state(np.zeros(8), alpha, space)
        np.testing.assert_allclose(state.spectrum, planted, rtol=1e-6)
        assert tr_rho_p(state, 2.0) == pytest.approx(1.0 / np.prod(2.0 * planted), rel=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from([0.3, 1.0, 2.0, 3.0]),
        st.sampled_from([0.0, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e6, -1e6, 1e8, -1e8]),
    )
    def test_uncertainty_verdict_matches_psd_branches(self, seed, s, scale, k):
        # d_min = 1/2 + k eps straddles the spectrum fast path's TOL_SPEC margin
        rng = np.random.default_rng(seed)
        space = standard_form(s)
        d = np.sort(rng.uniform(0.5, 5.0, size=s))
        d[0] = 0.5 + k * np.finfo(float).eps
        s_mat = random_symplectic(rng, space, scale=scale)
        alpha = s_mat.T @ np.diag(np.repeat(d, 2)) @ s_mat
        alpha = 0.5 * (alpha + alpha.T)
        branches = check_psd_branches(alpha, space.delta)
        try:
            validate_state(np.zeros(2 * s), alpha, space)
        except UncertaintyViolatedError as err:
            failing = [lam for ok, lam in branches if not ok]
            assert failing and err.lambda_min == failing[0]
        else:
            assert all(ok for ok, _ in branches)

    def test_large_finite_entries_accepted(self):
        # the Frobenius norm and the mean's sum overflow; the entries do not
        with np.errstate(over="ignore"):
            state = validate_state([1e308, 1e308], 1e200 * np.eye(2), standard_form(1))
        assert state.cov[0, 0] == 1e200 and state.mean[0] == 1e308

    def test_overflowing_norm_keeps_psd_slack_finite(self):
        # ||cov +- (i/2) Delta|| overflows; a slack scaled by it would pass any matrix
        with np.errstate(over="ignore"), pytest.raises(UncertaintyViolatedError) as err:
            validate_state([0.0, 0.0], np.diag([1e200, -1e200]), standard_form(1))
        assert err.value.lambda_min == -1e200


class TestCharFunction:
    def test_vacuum_gaussian(self):
        state = thermal_state(0.5)
        for z in ([1.0, 0.0], [0.3, -0.7], [2.0, 2.0]):
            expected = math.exp(-(z[0] ** 2 + z[1] ** 2) / 4.0)
            assert char_function(state, z) == pytest.approx(expected, rel=1e-14)

    def test_normalization_at_zero(self):
        rng = np.random.default_rng(23)
        for s in (1, 2, 3):
            state = random_state(rng, standard_form(s))
            assert char_function(state, np.zeros(2 * s)) == 1.0 + 0.0j

    def test_displaced_vacuum_value(self):
        space = standard_form(1)
        state = validate_state([1.0, 0.0], 0.5 * np.eye(2), space)
        assert char_function(state, [0.0, 1.0]) == pytest.approx(
            math.exp(-0.25), rel=1e-14
        )
        assert char_function(state, [1.0, 0.0]) == pytest.approx(
            np.exp(1j) * math.exp(-0.25), rel=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_modulus_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, standard_form(int(rng.integers(1, 4))))
        z = 3.0 * rng.standard_normal(state.space.dim)
        assert abs(char_function(state, z)) <= 1.0 + 1e-12


class TestSpectralFunctionScalars:
    def test_f2_is_2d(self):
        assert f_p(3.0, 2.0) == pytest.approx(6.0, rel=1e-14)

    def test_f3_at_three_halves(self):
        assert f_p(1.5, 3.0) == pytest.approx(7.0, rel=1e-14)

    @pytest.mark.parametrize("p", [1.5, 2.0, 7.0])
    def test_f_at_pure_point(self, p):
        assert f_p(0.5, p) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 1e6), st.floats(1.0, 64.0))
    def test_f_positive_and_f1_unit(self, d, p):
        assert f_p(d, p) > 0.0
        assert f_p(d, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_f_large_d_asymptotics(self):
        # f_p(d) ~ p d^(p-1)
        for p in (1.5, 2.0, 4.0):
            d = 1e9
            assert f_p(d, p) == pytest.approx(p * d ** (p - 1.0), rel=1e-6)

    def test_g1_identity(self):
        for d in (0.5, 1.0, 3.0, 100.0):
            assert g_p(d, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_g2_thermal_value(self):
        assert g_p(1.5, 2.0) == pytest.approx(5.0 / 9.0, rel=1e-14)
        assert 1.5 * g_p(1.5, 2.0) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_g_continuity_at_pure_point(self):
        for p in (1.5, 2.0, 7.0):
            assert g_p(0.5, p) == 1.0

    def test_g_limit_inverse_p(self):
        # high-temperature limit: d g_p(d) ~ d / p, i.e. g_p -> 1/p
        for p in (1.5, 2.0, 4.0):
            assert p * g_p(1e9, p) == pytest.approx(1.0, rel=1e-6)

    def test_g_matches_coth_form(self):
        # d g_p(d) = coth(p theta / 2)/2 with e^theta = (d+1/2)/(d-1/2)
        for d, p in [(0.8, 1.5), (1.5, 2.0), (4.0, 3.0)]:
            theta = math.log((d + 0.5) / (d - 0.5))
            assert d * g_p(d, p) == pytest.approx(0.5 / math.tanh(p * theta / 2.0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_p(0.4, 2.0)
        with pytest.raises(DomainError):
            g_p(0.4, 2.0)
        with pytest.raises(DomainError):
            f_p(1.0, 0.5)
        with pytest.raises(DomainError):
            g_p(1.0, 0.9)
        for d in (math.nan, math.inf, -math.inf):
            for fn in (f_p, g_p):
                with pytest.raises(DomainError, match="finite and >= 1/2"):
                    fn(d, 2.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.5])
    def test_bad_exponent_rejected_everywhere(self, p):
        state = thermal_state(1.5)
        for call in (lambda: f_p(1.0, p), lambda: g_p(1.0, p), lambda: tr_rho_p(state, p)):
            with pytest.raises(DomainError):
                call()
        if p != math.inf:
            with pytest.raises(DomainError):
                schatten_norm(state, p)

    def test_power_terms_consistency(self):
        # both branches agree near the r = 1/2 crossover (d = 1.5)
        for d in (1.49, 1.5, 1.51):
            rp, one_minus = _power_terms(d, 2.5)
            assert rp + one_minus == pytest.approx(1.0, rel=1e-14)
            r = (d - 0.5) / (d + 0.5)
            assert rp == pytest.approx(r**2.5, rel=1e-12)


class TestTrRhoP:
    def test_vacuum_any_p(self):
        state = thermal_state(0.5)
        for p in (1.0, 1.5, 2.0, 7.0):
            assert tr_rho_p(state, p) == pytest.approx(1.0, rel=1e-12)

    def test_thermal_geometric_series(self):
        state = thermal_state(1.5)  # N = 1
        assert tr_rho_p(state, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert tr_rho_p(state, 3.0) == pytest.approx(1.0 / 7.0, rel=1e-12)
        for p in (1.5, 2.0, 3.0, 4.5):
            assert tr_rho_p(state, p) == pytest.approx(
                thermal_tr_power_series(1.0, p), rel=1e-12
            )

    def test_matches_determinant_form(self):
        # same value through det f_p(abs(Delta^-1 alpha)) instead of the spectrum product
        from gaussnorm import apply_spectral_function

        rng = np.random.default_rng(29)
        for s in (1, 2, 3):
            space = standard_form(s)
            state = random_state(rng, space)
            p = float(rng.uniform(1.0, 5.0))
            f_mat = apply_spectral_function(
                space.delta_inv @ state.cov, lambda lam: f_p(abs(lam), p)
            )
            det_form = np.linalg.det(f_mat) ** (-0.5)
            assert tr_rho_p(state, p) == pytest.approx(det_form, rel=1e-9)

    def test_normalization_many_random_states(self):
        # Tr rho = 1 across 10^4 random valid states
        rng = np.random.default_rng(31)
        counts = {1: 6000, 2: 3000, 3: 1000}
        for s, count in counts.items():
            space = standard_form(s)
            for _ in range(count):
                alpha, _ = random_covariance(rng, space)
                state = GaussianState(space=space, mean=np.zeros(2 * s), cov=alpha)
                assert abs(tr_rho_p(state, 1.0) - 1.0) <= 1e-12

    def test_purity_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            s = int(rng.integers(1, 4))
            state = random_state(rng, standard_form(s), d_range=(0.5, 8.0))
            p = float(rng.uniform(1.0, 8.0))
            assert tr_rho_p(state, p) <= 1.0 + 1e-12

    def test_purity_equality_iff_pure(self):
        pure = thermal_state(0.5, s=2)
        assert tr_rho_p(pure, 3.0) == pytest.approx(1.0, rel=1e-12)
        mixed = thermal_state(0.5 + 1e-6, s=1)
        assert tr_rho_p(mixed, 3.0) < 1.0

    def test_mean_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            s = int(rng.integers(1, 4))
            space = standard_form(s)
            alpha, _ = random_covariance(rng, space)
            p = float(rng.uniform(1.0, 6.0))
            base = tr_rho_p(validate_state(np.zeros(2 * s), alpha, space), p)
            moved = tr_rho_p(validate_state(rng.standard_normal(2 * s), alpha, space), p)
            assert moved == pytest.approx(base, rel=1e-12)


class TestSchattenNorm:
    def test_vacuum_infinity(self):
        assert schatten_norm(thermal_state(0.5), math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_thermal_infinity(self):
        # largest thermal eigenvalue 1/(N+1) at N = 1
        assert schatten_norm(thermal_state(1.5), math.inf) == pytest.approx(0.5, rel=1e-12)

    def test_trace_norm_is_one(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            state = random_state(rng, standard_form(int(rng.integers(1, 4))))
            assert schatten_norm(state, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_limit_consistency(self):
        # ||rho||_p decreases monotonically to ||rho||_inf along p = 2, 4, ..., 256
        rng = np.random.default_rng(47)
        for _ in range(20):
            s = int(rng.integers(1, 4))
            state = random_state(rng, standard_form(s), d_range=(0.5, 5.0))
            norms = [schatten_norm(state, float(p)) for p in (2, 4, 8, 16, 32, 64, 128, 256)]
            inf_norm = schatten_norm(state, math.inf)
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-12
            assert norms[-1] == pytest.approx(inf_norm, abs=1e-6)
            assert norms[-1] >= inf_norm - 1e-12


class TestPowerCharFunction:
    def test_reduces_to_tr_rho_p_at_zero(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            s = int(rng.integers(1, 4))
            state = random_state(rng, standard_form(s))
            p = float(rng.uniform(1.0, 5.0))
            assert power_char_function(state, p, np.zeros(2 * s)) == pytest.approx(
                tr_rho_p(state, p), rel=1e-12
            )

    def test_p_one_reduces_to_char_function(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            s = int(rng.integers(1, 4))
            state = random_state(rng, standard_form(s))
            z = rng.standard_normal(2 * s)
            assert power_char_function(state, 1.0, z) == pytest.approx(
                char_function(state, z), rel=1e-10
            )

    def test_thermal_p2_closed_value(self):
        # (1/3) exp(-(1/2)(5/6)) from d g_2(d) = 5/6 at d = 3/2
        state = thermal_state(1.5)
        expected = (1.0 / 3.0) * math.exp(-0.5 * 5.0 / 6.0)
        assert power_char_function(state, 2.0, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_power_cov_spectrum(self):
        # covariance of the normalized power state has spectrum d_j g_p(d_j)
        rng = np.random.default_rng(61)
        space = standard_form(2)
        state = random_state(rng, space, d_range=(0.6, 4.0))
        p = 2.5
        ds = symplectic_spectrum(state.cov, space)
        got = symplectic_spectrum(power_cov(state, p), space)
        expected = np.sort([d * g_p(d, p) for d in ds])
        np.testing.assert_allclose(got, expected, rtol=1e-9)


class TestGibbs:
    def test_identity_hamiltonian_single_mode(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        state = gibbs_state(family, 1.0)
        np.testing.assert_allclose(state.cov, 0.5 / np.tanh(1.0) * np.eye(2), rtol=1e-12)
        np.testing.assert_array_equal(state.mean, np.zeros(2))

    def test_ground_state_limit(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        state = gibbs_state(family, 50.0)
        np.testing.assert_allclose(state.cov, 0.5 * np.eye(2), rtol=1e-12)

    def test_high_temperature_laurent(self):
        # coth(beta)/2 = 1/(2 beta) + beta/6 + O(beta^3)
        family = GibbsFamily(standard_form(1), np.eye(2))
        beta = 1e-3
        state = gibbs_state(family, beta)
        expected = 1.0 / (2.0 * beta) + beta / 6.0
        assert state.cov[0, 0] == pytest.approx(expected, rel=1e-9)
        asym = gibbs_asymptotic(family, beta)
        rel = np.linalg.norm(state.cov - asym) / np.linalg.norm(state.cov)
        assert rel == pytest.approx(beta**2 / 3.0, rel=1e-2)

    def test_validity_across_beta_range(self):
        rng = np.random.default_rng(67)
        for s in (1, 2, 3):
            space = standard_form(s)
            for beta in (1e-4, 1e-2, 1.0, 10.0):
                eps = random_spd(rng, space.dim, spectrum=(0.5, 2.0))
                family = GibbsFamily(space, eps)
                state = gibbs_state(family, beta)  # validate_state runs inside
                assert symplectic_spectrum(state.cov, space).min() >= 0.5 - 1e-8

    def test_asymptotic_examples(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        np.testing.assert_allclose(gibbs_asymptotic(family, 0.5), np.eye(2), rtol=1e-14)
        family2 = GibbsFamily(standard_form(1), np.diag([2.0, 2.0]))
        np.testing.assert_allclose(gibbs_asymptotic(family2, 0.25), np.eye(2), rtol=1e-14)

    def test_bad_epsilon_rejected(self):
        space = standard_form(1)
        with pytest.raises(SingularEpsilonError):
            GibbsFamily(space, np.diag([1.0, 0.0]))
        with pytest.raises(NotSymmetricError):
            GibbsFamily(space, np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, bad):
        with pytest.raises(DomainError, match="^epsilon must be finite"):
            GibbsFamily(standard_form(1), np.array([[1.0, 0.0], [0.0, bad]]))

    def test_bad_beta_rejected(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                gibbs_state(family, beta)
            with pytest.raises(ValueError):
                gibbs_asymptotic(family, beta)


def williamson_epsilon(rng, e):
    """Hamiltonian matrix S^T diag(e_1, e_1, e_2, e_2, ...) S with symplectic spectrum e."""
    space = standard_form(len(e))
    s_mat = random_symplectic(rng, space, scale=0.3 / math.sqrt(space.s))
    eps = s_mat.T @ np.diag(np.repeat(e, 2)) @ s_mat
    return 0.5 * (eps + eps.T)


class TestGibbsFamilyPipeline:
    @pytest.mark.parametrize("s", [1, 4, 16, 40])
    def test_family_path_matches_direct_cot(self, s):
        # one decomposition of eps Delta per family against one of beta eps Delta per beta
        rng = np.random.default_rng(300 + s)
        e = rng.uniform(0.5, 2.0, size=s)
        if s > 1:
            e[1] = e[0] * (1.0 + 1e-9)  # near-degenerate pair
        space = standard_form(s)
        family = GibbsFamily(space, williamson_epsilon(rng, e))
        # eps Delta has eigenvalues +-i e_j; the input spectrum is coth(beta e_j)/2
        lam = family.decomposition.eigenvalues
        e_dec = lam.imag[lam.imag > 0]
        for beta in (1e-5, 1e-3, 1e-1, 1.0):
            direct = 0.5 * space.delta @ matrix_cot(beta * family.epsilon @ space.delta)
            direct = 0.5 * (direct + direct.T)
            got = gibbs_state(family, beta)
            assert np.linalg.norm(got.cov - direct) <= 1e-12 * np.linalg.norm(direct)
            np.testing.assert_allclose(got.spectrum, np.sort(0.5 / np.tanh(beta * e_dec)), rtol=1e-12)

    def test_decomposition_cached_per_family(self):
        family = GibbsFamily(standard_form(2), np.eye(4))
        dec = family.decomposition
        assert family.decomposition is dec
        np.testing.assert_allclose(
            dec.right_eigenvectors @ dec.inverse_eigenvectors, np.eye(4), atol=1e-14
        )
        np.testing.assert_allclose(np.sort(np.abs(dec.eigenvalues)), np.ones(4), rtol=1e-14)

    def test_spectrum_cached_per_state(self):
        state = validate_state(np.zeros(2), 1.5 * np.eye(2), standard_form(1))
        assert state.spectrum is state.spectrum
        np.testing.assert_allclose(state.spectrum, [1.5], rtol=1e-14)
