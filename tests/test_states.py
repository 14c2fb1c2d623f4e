"""Gaussian states, spectral functions, Schatten powers, Gibbs families."""

import math
import warnings
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussnorm import (
    GaussianState,
    GibbsFamily,
    char_function,
    f_p,
    g_p,
    gibbs_asymptotic,
    gibbs_state,
    power_char_function,
    power_cov,
    schatten_norm,
    standard_form,
    symplectic_spectrum,
    tr_rho_p,
    upper_bound_check,
    validate_channel,
    validate_state,
)
from gaussnorm.errors import (
    DimensionMismatchError,
    DomainError,
    NotSymmetricError,
    NumericalOverflowError,
    SingularEpsilonError,
    UncertaintyViolatedError,
)
from sampling import (
    log_f_p_ref,
    power_terms_ref,
    random_covariance,
    random_spd,
    random_state,
    random_passive_symplectic,
    random_symplectic,
)
from gaussnorm.states import (
    _checked_spectra,
    _gibbs_covs,
    _gibbs_spectra,
    _log_f_p,
    _log_schatten_norm,
    _log_tr_rho_p,
    _power_term,
    _power_terms,
    _sum_log_f_p,
)
from gaussnorm.symplectic import apply_spectral_function, check_psd_pair, matrix_cot


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
        ok, lam = check_psd_pair(alpha, space.delta)
        try:
            validate_state(np.zeros(2 * s), alpha, space)
        except UncertaintyViolatedError as err:
            assert not ok and err.lambda_min == lam
        else:
            assert ok

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3]),
        st.floats(-10.0, 10.0),
        st.sampled_from([1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6]),
    )
    def test_verdict_is_check_psd_pair(self, seed, s, delta, squeeze, scale):
        # one mode planted at d = (1 + delta)/2, the others at 1/2 + [0, scale); S = O1 Z O2 with
        # passive O1, O2 and one squeeze at r = squeeze, the rest within it.  The complex Cholesky of
        # alpha + (i/2) Delta accepts only where check_psd_pair does, and every refusal carries its
        # lambda_min; the accepted state solves its spectrum on first use
        rng = np.random.default_rng(seed)
        space = standard_form(s)
        d = 0.5 + scale * rng.uniform(0.0, 1.0, s)
        d[rng.integers(s)] = 0.5 * (1.0 + delta)
        r = squeeze * rng.uniform(-1.0, 1.0, s)
        r[rng.integers(s)] = squeeze
        z = np.diag(np.exp(np.repeat(r, 2) * np.tile([1.0, -1.0], s)))
        sym = random_passive_symplectic(rng, space) @ z @ random_passive_symplectic(rng, space)
        cov = sym.T @ np.diag(np.repeat(d, 2)) @ sym
        cov = 0.5 * (cov + cov.T)
        ok, lam_min = check_psd_pair(cov, space.delta)
        try:
            state = validate_state(np.zeros(2 * s), cov, space)
        except UncertaintyViolatedError as err:
            assert not ok and err.lambda_min == lam_min
            return
        assert ok and "spectrum" not in vars(state)
        try:
            expected = symplectic_spectrum(cov, space)
        except DomainError:  # accepted within check_psd_pair's slack, with no Cholesky factor
            with pytest.raises(DomainError, match="^covariance matrix must be positive definite$"):
                state.spectrum
        else:
            np.testing.assert_array_equal(state.spectrum, expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_verdict_on_the_hermitian_part(self, seed):
        # d_min = (1 + 1e-12)/2, plus an upper-triangle asymmetry 0.99 TOL_SYM max|alpha_ij| that
        # pushes lambda_min of the Hermitian part below check_psd_pair's slack; Cholesky reads the
        # lower triangle alone, which still factors, so the verdict must factor the Hermitian part
        rng = np.random.default_rng(seed)
        space = standard_form(3)
        d = np.array([0.5 * (1.0 + 1e-12), 0.9, 1.3])
        z = np.diag(np.exp(np.repeat(rng.uniform(-1.0, 1.0, 3), 2) * np.tile([1.0, -1.0], 3)))
        sym = random_passive_symplectic(rng, space) @ z @ random_passive_symplectic(rng, space)
        cov = sym.T @ np.diag(np.repeat(d, 2)) @ sym
        cov = 0.5 * (cov + cov.T)
        null = np.linalg.eigh(cov + 0.5j * space.delta)[1][:, 0]
        cov += np.triu(-np.sign(np.outer(null.conj(), null).real), 1) * 0.99e-10 * abs(cov).max()
        np.linalg.cholesky(cov + 0.5j * space.delta)
        ok, lam_min = check_psd_pair(cov, space.delta)
        assert not ok
        with pytest.raises(UncertaintyViolatedError) as err:
            validate_state(np.zeros(6), cov, space)
        assert err.value.lambda_min == lam_min

    @pytest.mark.parametrize("seed", range(4))
    def test_spectrum_independent_of_the_triangle_holding_an_asymmetry(self, seed):
        # an admitted asymmetry of 0.99 TOL_SYM max|alpha_ij| in the upper or in the lower triangle:
        # the state keeps the symmetric part, so both give one spectrum (a spectrum of one triangle
        # moved them apart by up to 3e-7 relative on these seeds)
        rng = np.random.default_rng(seed)
        space = standard_form(3)
        d = np.array([0.5000005, 0.9, 1.3])
        z = np.diag(np.exp(np.repeat(rng.uniform(-2.5, 2.5, 3), 2) * np.tile([1.0, -1.0], 3)))
        sym = random_passive_symplectic(rng, space) @ z @ random_passive_symplectic(rng, space)
        cov = sym.T @ np.diag(np.repeat(d, 2)) @ sym
        cov = 0.5 * (cov + cov.T)
        upper = np.triu(rng.choice([-1.0, 1.0], (6, 6)), 1) * 0.99e-10 * abs(cov).max()
        spectra = [validate_state(np.zeros(6), cov + a, space).spectrum for a in (upper, upper.T)]
        np.testing.assert_allclose(spectra[0], spectra[1], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(spectra[0], d, rtol=1e-6)

    def test_accepted_without_cholesky_factor_fails_lazily(self):
        # the pure squeezed vacuum R(0.3) diag(e^36, e^-36) R^T / 2: its float covariance has no
        # Cholesky factor (det <= 0 after rounding), but lambda_min = 0 is inside check_psd_pair's
        # slack, so it validates; its spectrum is refused by name on first use, with no numpy warning
        c, sn = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -sn], [sn, c]])
        cov = rot @ np.diag([math.exp(36.0), math.exp(-36.0)]) @ rot.T / 2
        space = standard_form(1)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        assert check_psd_pair(cov, space.delta)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            identity = validate_channel(np.eye(2), np.zeros(2), np.zeros((2, 2)), space)
            for read in (lambda state: state.spectrum, lambda state: schatten_norm(state, 2.0),
                         lambda state: tr_rho_p(state, 2.0),
                         lambda state: upper_bound_check(identity, [state], 2.0)):
                state = validate_state(np.zeros(2), cov, space)
                with pytest.raises(DomainError, match="^covariance matrix must be positive definite$"):
                    read(state)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 20),
        st.lists(st.sampled_from([0.0, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e8, -1e8]), min_size=1),
    )
    # the first member validates but has no Cholesky factor, and no member violates
    @example(632, 4, 3, [0.0, 1.0])
    def test_stacked_verdict_matches_per_state(self, seed, s, batch, ks):
        # members with d_min = 1/2 + k eps and squeezed up to a failed Cholesky:
        # the stack's spectra and verdict are those of validate_state, member by member,
        # and a valid member without a factor is refused by name, as its spectrum is
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
        spectra, lam_mins, factorless = [], [], False
        for cov in covs:
            try:
                state = validate_state(np.zeros(2 * s), cov, space)
            except UncertaintyViolatedError as err:
                lam_mins.append(err.lambda_min)
                continue
            try:
                spectra.append(state.spectrum)
            except DomainError:  # valid, but too squeezed for a Cholesky factor
                factorless = True
        if lam_mins:
            with pytest.raises(UncertaintyViolatedError) as err:
                _checked_spectra(covs, space)
            assert err.value.lambda_min == lam_mins[0]
        elif factorless:
            with pytest.raises(DomainError, match="^covariance matrix must be positive definite$"):
                _checked_spectra(covs, space)
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

    def test_forms_out_of_range(self):
        # mean (1e300, 0) at z = (1e10, 0): m^T z overflows, but exp(-z^T alpha z / 2) = exp(-5e19) is 0;
        # the r = 345 squeezed vacuum rotated by 0.3: z^T alpha z along its squeezed axis is not finite
        # in doubles, though |chi| is about 1 there
        space = standard_form(1)
        far = validate_state([1e300, 0.0], np.eye(2), space)
        c, sn = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -sn], [sn, c]])
        squeezed = validate_state([0.0, 0.0], rot @ np.diag([math.exp(690.0), math.exp(-690.0)]) @ rot.T / 2,
                                  space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repr(char_function(far, [1e10, 0.0])) == "0j"
            assert repr(power_char_function(far, 2.0, [1e10, 0.0])) == "0j"
            for chi in (lambda z: char_function(far, z), lambda z: power_char_function(far, 2.0, z)):
                for bad in (math.nan, math.inf):
                    with pytest.raises(DomainError, match="^z must be finite$"):
                        chi([bad, 0.0])
                with pytest.raises(DimensionMismatchError, match="^z must have 2 entries, got 3$"):
                    chi([1.0, 0.0, 0.0])
            with pytest.raises(NumericalOverflowError, match="^characteristic function exponent is not"):
                char_function(squeezed, 1e10 * rot[:, 1])


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
        # the one-state kernel (math, a float at a time) is held to the same bounds
        for p in (1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 40.0, 1e3):
            with np.errstate(all="raise", under="ignore"):
                got = _log_f_p(ds, p)
                _, _, one_minus = _power_terms(ds, p)
            one = np.array([_sum_log_f_p(np.array([d]), p) for d in ds])
            one_minus_one = [_power_term(d, p)[1] for d in ds.tolist()]
            ref = np.array([log_f_p_ref(d, p) for d in ds])
            ref_one_minus = [power_terms_ref(d, p)[1] for d in ds]
            for kernel in (got, one):
                assert np.all(np.abs(kernel - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref))), p
            np.testing.assert_allclose(one_minus, ref_one_minus, rtol=0, atol=2e-15)
            np.testing.assert_allclose(one_minus_one, ref_one_minus, rtol=0, atol=2e-15)
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
                one_minus_one = [_power_term(d, p)[1] for d in ds.tolist()]  # the one-state kernel
                worst = max(
                    abs(Decimal(got) / (1 - (lr * Decimal(p)).exp()) - 1) if lr is not None
                    else abs(Decimal(got) - 1)
                    for kernel in (one_minus.tolist(), one_minus_one)
                    for got, lr in zip(kernel, log_r)
                )
                assert worst <= Decimal("5e-16"), (p, worst)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.4, -1e9])
    def test_one_state_kernel_refuses_by_name(self, bad):
        # the same domain test and message as the array kernel's
        with pytest.raises(DomainError, match="finite and >= 1/2") as one:
            f_p(bad, 2.0)
        with pytest.raises(DomainError) as stack:
            _power_terms(np.array([bad]), 2.0)
        assert str(one.value) == str(stack.value)

    def test_one_state_kernel_reads_slack_as_half(self):
        # d = 1/2 - 1e-9 lies within TOL_SPEC of 1/2 and is read as 1/2, as in a stack
        d = 0.5 - 1e-9
        for p in (1.0, 1.5, 2.0, 40.0):
            assert _power_term(d, p) == (1.0, 1.0)
            assert f_p(d, p) == 1.0
            assert _sum_log_f_p(np.array([d, d]), p) == 0.0
            assert _log_f_p(np.array([d]), p)[0] == 0.0

    def test_f_p_past_the_overflow_of_its_leading_power(self):
        # (d + 1/2)^p overflows while f_p ~ p d^(p-1) does not: against an 800-digit reference,
        # f_p keeps a few ulps there, and gives inf only once f_p itself leaves double range
        with mpmath.workdps(800):
            for d, p in [(1e160, 2.0), (1e200, 1.6), (1e300, 1.03), (1e100, 3.0)]:
                exact = (mpmath.mpf(d) + 0.5) ** p - (mpmath.mpf(d) - 0.5) ** p
                got = f_p(d, p)
                assert abs(mpmath.mpf(got) / exact - 1) <= 4 * np.finfo(float).eps, (d, p, got)
        assert f_p(1e100, 3.0) == 3.0000000000000002e200  # the direct product, kept where finite
        assert f_p(1e300, 2.5) == math.inf  # 2.5e450


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

    def test_infinity_refuses_spectrum_below_half(self):
        # p = inf applies the kernels' domain test too: a state built around validate_state with
        # d = 0.1 is refused by both twins with p = 2's text, not read as a largest eigenvalue 1/0.6
        state = GaussianState(space=standard_form(1), mean=np.zeros(2), cov=0.1 * np.eye(2))
        message = "^symplectic eigenvalue must be finite and >= 1/2, got 0.1"
        for p in (2.0, math.inf):
            with pytest.raises(DomainError, match=message):
                schatten_norm(state, p)
            with pytest.raises(DomainError, match=message):
                _log_schatten_norm(np.array([[0.7], [0.1]]), p)
        # within TOL_SPEC below 1/2 it reads as the vacuum, as at finite p
        assert _log_schatten_norm(np.array([[0.5 - 1e-12]]), math.inf)[0] == 0.0

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

    @pytest.mark.parametrize("s", [1, 2, 4, 16, 40])
    def test_one_state_matches_stack(self, s):
        # the scalar twin against the stack kernel on the same spectrum: 4 eps relative, times the
        # size of the terms summed, max(1, sum_j log(d_j + 1/2)) (p times that for Tr rho^p), which
        # is max(1, |log value|) at p = inf.  Near p = 1 the terms p log(d + 1/2) and log(1 - r^p)
        # cancel, and at s = 40 either kernel is up to 10 eps off a 60-digit log Tr rho^p of size
        # 1e-8.  Below the normal range a value has no relative precision, so logs are compared
        rng = np.random.default_rng(53 + s)
        space = standard_form(s)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for _ in range(20):
            state = random_state(rng, space, d_range=(0.5, 6.0))
            spectrum = state.spectrum
            terms = max(1.0, float(np.log(spectrum + 0.5).sum()))
            for p in (1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 40.0, math.inf):
                cases = [(schatten_norm(state, p), _log_schatten_norm(spectrum[None], p)[0], terms)]
                if p < math.inf:
                    log_tr = _log_tr_rho_p(spectrum[None], p)[0]
                    cases.append((tr_rho_p(state, p), log_tr, p * terms))
                    assert abs(-_sum_log_f_p(spectrum, p) - log_tr) <= 4 * eps * p * terms, p
                for got, log_stack, scale in cases:
                    want = math.exp(log_stack)
                    if want >= tiny:
                        assert abs(got / want - 1) <= 4 * eps * scale, p
                    else:
                        assert got < tiny, p


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

    def test_huge_state_power_cov(self):
        # g_p(d) halves after its division, where 2d overflowed and g_p read 0 at d = 1e308
        state = validate_state(np.zeros(2), 1e308 * np.eye(2), standard_form(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = power_cov(state, 2.0)
        np.testing.assert_allclose(got, 5e307 * np.eye(2), rtol=1e-14, atol=0.0)


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

    @pytest.mark.parametrize("s", [1, 2, 4, 16, 40])
    def test_asymptotic_matches_inverse(self, s):
        # S S^T / (2 beta) from the family's basis against a second factorization of epsilon
        rng = np.random.default_rng(500 + s)
        space = standard_form(s)
        for _ in range(5):
            eps = random_spd(rng, space.dim)
            family = GibbsFamily(space, eps)
            for beta in (1e-3, 1.0, 1e3):
                got = gibbs_asymptotic(family, beta)
                ref = np.linalg.inv(2.0 * beta * eps)
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
                np.testing.assert_array_equal(got, got.T)

    def test_asymptotic_solves_nothing(self, monkeypatch):
        # epsilon is factorized once, by the family: the comparator calls no np.linalg routine
        family = GibbsFamily(standard_form(2), random_spd(np.random.default_rng(73), 4))

        def refuse(*args, **kwargs):
            raise AssertionError("gibbs_asymptotic called np.linalg")
        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        assert np.isfinite(gibbs_asymptotic(family, 1e-3)).all()

    @pytest.mark.parametrize("eps, beta", [
        (np.diag([1e-300, 1e300]), 1e-10),  # inf and NaN entries from inv(2 beta eps)
        (np.diag([1e-300, 1e300]), 1e-30),  # 2 beta eps underflowed: "epsilon is singular"
        (np.eye(2), 1e-310),                # 0.5/beta is inf and inf * 0 is NaN
    ])
    def test_asymptotic_overflow_refused(self, eps, beta):
        family = GibbsFamily(standard_form(1), eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflowError, match=f"not finite at beta = {beta:.3e}$"):
                gibbs_asymptotic(family, beta)

    def test_asymptotic_subnormal_comparator(self):
        # inv(2 beta eps) overflowed 2 beta to inf and returned NaN; (2 beta)^-1 = 5e-309 is subnormal
        family = GibbsFamily(standard_form(1), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gibbs_asymptotic(family, 1e308)
        np.testing.assert_allclose(got, 5e-309 * np.eye(2), rtol=1e-14, atol=0.0)

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
            # the family's row coth(beta e_j)/2 descends; the state's spectrum is that row, ascending
            np.testing.assert_array_equal(got.spectrum, _gibbs_spectra(family, np.array([beta]))[0, ::-1])

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

    @pytest.mark.parametrize("r", [10.0, 12.0, 17.0])
    def test_axis_squeezed_epsilon(self, r):
        # cond(eps) = e^(4r) up to 3.4e29; the Williamson basis is exact on the axes
        eps = np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)])
        family = GibbsFamily(standard_form(1), eps)
        state = gibbs_state(family, 1e-2)
        np.testing.assert_array_equal(state.spectrum, _gibbs_spectra(family, np.array([1e-2]))[0, ::-1])
        np.testing.assert_allclose(state.spectrum, [0.5 / math.tanh(1e-2)], rtol=1e-12)

    def test_gibbs_state_solves_no_eigenproblem(self, monkeypatch):
        # the state carries the family's spectrum: with every eigensolver refusing, its spectrum,
        # tr_rho_p and schatten_norm are the ones a state built with them gives
        rng = np.random.default_rng(73)
        family = GibbsFamily(standard_form(4), williamson_epsilon(rng, rng.uniform(0.5, 2.0, 4)))
        betas = (1.0, 1e-2, 1e-4)

        def values(state):
            return ([tr_rho_p(state, p) for p in (1.5, 2.0, 3.0)]
                    + [schatten_norm(state, p) for p in (1.5, 2.0, 3.0, math.inf)])
        before = [values(gibbs_state(family, beta)) for beta in betas]

        def refuse(*args, **kwargs):
            raise AssertionError("a Gibbs state ran an eigensolve")
        for name in ("eigvalsh", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for beta, want in zip(betas, before):
            state = gibbs_state(family, beta)
            np.testing.assert_array_equal(state.spectrum, _gibbs_spectra(family, np.array([beta]))[0, ::-1])
            assert values(state) == want

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


class TestGibbsPowerIdentity:
    """The normalized p-th power of rho_beta is rho_(p beta): g_p, power_cov and the family basis checked
    against each other, with no Fock code; Tr rho_beta^p = prod_j (2 sinh beta e_j)^p / (2 sinh p beta e_j)."""

    @pytest.mark.parametrize("s", [1, 4, 16])
    def test_power_state_is_gibbs_at_p_beta(self, s):
        # worst seen: 1.8e-15 (covariance, Frobenius) and 3.5 s p eps (Tr rho^p, against 30-digit mpmath)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(500 + s)
        family = GibbsFamily(standard_form(s), williamson_epsilon(rng, rng.uniform(0.5, 2.0, s)))
        for p in (1.5, 2.0, 3.0):
            for beta in (1.0, 1e-2, 1e-4):
                state = gibbs_state(family, beta)
                want = _gibbs_covs(family, _gibbs_spectra(family, np.array([p * beta])))[0]
                assert np.linalg.norm(power_cov(state, p) - want) <= 1e-14 * np.linalg.norm(want), (p, beta)
                with mpmath.workdps(30):
                    closed = mpmath.fprod((2 * mpmath.sinh(beta * e)) ** p / (2 * mpmath.sinh(p * beta * e))
                                          for e in map(mpmath.mpf, family.spectrum.tolist()))
                assert abs(tr_rho_p(state, p) / float(closed) - 1.0) <= 8 * s * p * eps, (p, beta)
