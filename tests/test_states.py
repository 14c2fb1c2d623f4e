"""Gaussian states, spectral functions, Schatten powers, Gibbs families."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussnorm import (
    GaussianState,
    GibbsFamily,
    apply_spectral_function,
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
from sampling import (
    log_f_p_ref,
    power_terms_ref,
    random_covariance,
    random_spd,
    random_state,
    random_symplectic,
)
from gaussnorm.states import _checked_spectra, _log_f_p, _power_terms
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 20),
        st.lists(st.sampled_from([0.0, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e8, -1e8]), min_size=1),
    )
    def test_stacked_verdict_matches_per_state(self, seed, s, batch, ks):
        # members with d_min = 1/2 + k eps and squeezed up to a failed Cholesky:
        # the stack's spectra and verdict are those of validate_state, member by member
        rng = np.random.default_rng(seed)
        space = standard_form(s)
        covs = []
        for i in range(batch):
            d = np.sort(rng.uniform(0.5, 5.0, size=s))
            d[0] = 0.5 + ks[i % len(ks)] * np.finfo(float).eps
            s_mat = random_symplectic(rng, space, scale=float(rng.choice([0.3, 1.0, 3.0])))
            alpha = s_mat.T @ np.diag(np.repeat(d, 2)) @ s_mat
            covs.append(0.5 * (alpha + alpha.T))
        covs = np.array(covs)
        spectra, lam_mins = [], []
        for cov in covs:
            try:
                state = validate_state(np.zeros(2 * s), cov, space)
            except UncertaintyViolatedError as err:
                lam_mins.append(err.lambda_min)
                continue
            try:
                spectra.append(state.spectrum)
            except DomainError:  # valid, but too squeezed for a Cholesky factor
                spectra.append(np.full(s, math.nan))
        if lam_mins:
            with pytest.raises(UncertaintyViolatedError) as err:
                _checked_spectra(covs, space)
            assert err.value.lambda_min == lam_mins[0]
        else:
            np.testing.assert_allclose(_checked_spectra(covs, space), spectra, rtol=1e-14)

    def test_stacked_verdict_one_violating_member(self):
        # below vacuum, or not even positive definite (no Cholesky factor), amid valid members
        rng = np.random.default_rng(5)
        space = standard_form(2)
        valid = [random_covariance(rng, space)[0] for _ in range(6)]
        for bad in (0.4 * np.eye(4), np.diag([1.0, -1.0, 1.0, 1.0]), np.diag([1e200, -1e200, 1.0, 1.0])):
            with np.errstate(over="ignore"), pytest.raises(UncertaintyViolatedError) as single:
                validate_state(np.zeros(4), bad, space)
            with np.errstate(over="ignore"), pytest.raises(UncertaintyViolatedError) as stacked:
                _checked_spectra(np.array(valid[:3] + [bad] + valid[3:]), space)
            assert stacked.value.lambda_min == single.value.lambda_min

    def test_stacked_tolerance_per_matrix(self):
        # next to a 1e200-scale member, a unit-scale member's asymmetry is still refused
        space = standard_form(1)
        lopsided = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(NotSymmetricError):
            validate_state([0, 0], lopsided, space)
        with pytest.raises(NotSymmetricError):
            _checked_spectra(np.array([1e200 * np.eye(2), lopsided]), space)
        spectra = _checked_spectra(np.array([1e200 * np.eye(2), 0.5 * (lopsided + lopsided.T)]), space)
        # single mode: d = sqrt(det alpha)
        np.testing.assert_allclose(spectra[:, 0], [1e200, math.sqrt(1.0 - 0.15**2)], rtol=1e-14)

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

    def test_spectrum_near_top_of_double_range(self):
        # the Williamson eigenvalues are +-1e308; averaging a pair as 0.5 * (d - (-d)) overflowed to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = validate_state([0.0, 0.0], 1e308 * np.eye(2), standard_form(1))
            np.testing.assert_array_equal(state.spectrum, [1e308])
            assert schatten_norm(state, 2.0) == pytest.approx(math.sqrt(0.5e-308), rel=1e-14)


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
        # the one log1p/expm1 form of 1 - r^p agrees with direct subtraction around d = 1.5,
        # where r = 1/2 and direct subtraction loses no digits
        d = np.array([1.49, 1.5, 1.51])
        _, den, one_minus = _power_terms(d, 2.5)
        np.testing.assert_array_equal(den, d + 0.5)
        r = (d - 0.5) / (d + 0.5)
        np.testing.assert_allclose(one_minus, 1.0 - r**2.5, rtol=1e-14)

    def test_log_kernel_matches_scalar_reference(self):
        # the array kernel against the per-eigenvalue scalar form it replaced, at the
        # domain edge, across the r = 1/2 crossover and out to d = 1e300, which the sweeps'
        # Gibbs spectra may reach; only underflow of r^p may pass silently.  Beyond
        # |log f_p| = 1 the bound grows with the value: an ulp of log f_p = 3e4 is 3.6e-12.
        ds = np.concatenate([[0.5, 0.5 + 1e-15, 0.5 + 1e-9, 1.5 - 1e-12, 1.5 + 1e-12],
                             np.geomspace(0.5, 1e300, 400)])
        for p in (1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 40.0, 1e3):
            with np.errstate(all="raise", under="ignore"):
                got = _log_f_p(ds, p)
                _, _, one_minus = _power_terms(ds, p)
            ref = np.array([log_f_p_ref(d, p) for d in ds])
            assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref))), p
            np.testing.assert_allclose(one_minus, [power_terms_ref(d, p)[1] for d in ds],
                                       rtol=0, atol=2e-15)
        # a stack refuses NaN, inf and d < 1/2 by name, wherever they sit
        for bad in (math.nan, math.inf, -math.inf, 0.4, -1e9):
            stack = np.array([[0.7, 3.0], [bad, 2.0]])
            with pytest.raises(DomainError, match="finite and >= 1/2"):
                _log_f_p(stack, 2.0)

    def test_power_terms_against_decimal_reference(self):
        # 1 - r^p = -expm1(p log1p(-1/(d + 1/2))) on the whole domain, to 5e-16 relative of an
        # 80-digit decimal reference: d = 1/2 exactly, just above it, around d = 3/2, 400 points
        # on [1/2, 3/2] and 4000 geometric points out to 1e15; the reference forms r from d's exact value
        ds = np.concatenate([[0.5, 0.5 + 1e-15, 0.5 + 1e-9, 1.5 - 1e-12, 1.5, 1.5 + 1e-12],
                             np.linspace(0.5, 1.5, 400), np.geomspace(0.5, 1e15, 4000)])
        with localcontext() as ctx:
            ctx.prec = 80
            half = Decimal("0.5")
            log_r = [((Decimal(d) - half) / (Decimal(d) + half)).ln() if d > 0.5 else None
                     for d in ds.tolist()]
            for p in (1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 7.3, 40.0, 1e3):
                with np.errstate(all="raise", under="ignore"):
                    _, _, one_minus = _power_terms(ds, p)
                worst = max(
                    abs(Decimal(got) / (1 - (lr * Decimal(p)).exp()) - 1) if lr is not None
                    else abs(Decimal(got) - 1)
                    for got, lr in zip(one_minus.tolist(), log_r)
                )
                assert worst <= Decimal("5e-16"), (p, worst)


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
        # the family's Williamson basis against one decomposition of beta eps Delta per beta
        rng = np.random.default_rng(300 + s)
        e = rng.uniform(0.5, 2.0, size=s)
        if s > 1:
            e[1] = e[0] * (1.0 + 1e-9)  # near-degenerate pair
        space = standard_form(s)
        family = GibbsFamily(space, williamson_epsilon(rng, e))
        # the family's spectrum is {e_j}; the input spectrum is coth(beta e_j)/2
        e_dec = family.spectrum
        np.testing.assert_allclose(e_dec, np.sort(e), rtol=1e-12)
        for beta in (1e-5, 1e-3, 1e-1, 1.0):
            direct = 0.5 * space.delta @ matrix_cot(beta * family.epsilon @ space.delta)
            direct = 0.5 * (direct + direct.T)
            got = gibbs_state(family, beta)
            assert np.linalg.norm(got.cov - direct) <= 1e-12 * np.linalg.norm(direct)
            np.testing.assert_allclose(got.spectrum, np.sort(0.5 / np.tanh(beta * e_dec)), rtol=1e-12)

    def test_decomposition_cached_per_family(self, monkeypatch):
        # one eigh per family, on construction; none per beta; W^H eps W = I
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
        eps = random_spd(np.random.default_rng(71), 4)
        family = GibbsFamily(standard_form(2), eps)
        for beta in (1e-3, 1e-1, 1.0):
            gibbs_state(family, beta)
        assert len(calls) == 1
        w = family.basis
        np.testing.assert_allclose(w.conj().T @ eps @ w, np.eye(4), atol=1e-13)
        np.testing.assert_allclose(family.eigenvalues, np.concatenate([-family.spectrum[::-1],
                                                                       family.spectrum]), rtol=1e-13)

    @pytest.mark.parametrize("r", [10.0, 12.0, 17.0])
    def test_axis_squeezed_epsilon(self, r):
        # cond(eps) = e^(4r) up to 3.4e29; the Williamson basis is exact on the axes
        eps = np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)])
        state = gibbs_state(GibbsFamily(standard_form(1), eps), 1e-2)
        np.testing.assert_allclose(state.spectrum, [0.5 / math.tanh(1e-2)], rtol=1e-12)

    @pytest.mark.parametrize("s", [1, 4, 16, 40])
    def test_power_cov_matches_general_eigendecomposition(self, s):
        # alpha g_p(abs(Delta^-1 alpha)) through the nonsymmetric kernel as the reference
        rng = np.random.default_rng(400 + s)
        space = standard_form(s)
        state = random_state(rng, space, d_range=(0.6, 4.0))
        for p in (1.5, 2.5):
            got = power_cov(state, p)
            g_mat = apply_spectral_function(space.delta_inv @ state.cov, lambda lam: g_p(abs(lam), p))
            ref = state.cov @ g_mat
            ref = 0.5 * (ref + ref.T)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            expected = np.sort([d * g_p(d, p) for d in state.spectrum])
            np.testing.assert_allclose(symplectic_spectrum(got, space), expected, rtol=1e-9)

    def test_spectrum_cached_per_state(self):
        state = validate_state(np.zeros(2), 1.5 * np.eye(2), standard_form(1))
        assert state.spectrum is state.spectrum
        np.testing.assert_allclose(state.spectrum, [1.5], rtol=1e-14)
