"""Gaussian channel validation, covariance action, norms and sweep estimators."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussnorm
from gaussnorm import (
    GibbsFamily,
    apply_channel,
    compose,
    divergence_exponent,
    gibbs_state,
    norm_pp,
    ratio_sequence,
    scaling_exponent,
    schatten_norm,
    standard_form,
    symplectic_spectrum,
    tr_rho_p,
    upper_bound_check,
    validate_channel,
    validate_state,
)
from gaussnorm.channels import _gibbs_spectra, cp_branches
from gaussnorm.errors import (
    DimensionMismatchError,
    DomainError,
    NotCPError,
    NumericalOverflowError,
    QNotLessThanPError,
    SingularKError,
)
from gaussnorm.states import _gibbs_covs, _log_tr_rho_p
from sampling import random_channel, random_passive_symplectic, random_spd, random_state


def attenuator(tau, s=1):
    space = standard_form(s)
    n = 2 * s
    return validate_channel(
        math.sqrt(tau) * np.eye(n), np.zeros(n), ((1.0 - tau) / 2.0) * np.eye(n), space
    )


def identity_channel(s=1):
    space = standard_form(s)
    n = 2 * s
    return validate_channel(np.eye(n), np.zeros(n), np.zeros((n, n)), space)


def thermal_state(d, s=1):
    space = standard_form(s)
    return validate_state(np.zeros(2 * s), d * np.eye(2 * s), space)


class TestValidateChannel:
    def test_identity_channel_valid(self):
        channel = identity_channel()
        assert channel.det_K() == pytest.approx(1.0)

    def test_attenuator_saturates_cp(self):
        # eigenvalues of mu +- (i/2)(1-tau) Delta are {0, 1-tau}
        channel = attenuator(0.5)
        branches = cp_branches(channel.K, channel.mu, channel.space)
        assert len(branches) == 2
        for ok, lam in branches:
            assert ok
            assert lam == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_noise_rejected(self):
        space = standard_form(1)
        with pytest.raises(NotCPError) as err:
            validate_channel(
                math.sqrt(0.5) * np.eye(2), np.zeros(2), 0.1 * np.eye(2), space
            )
        assert err.value.lambda_min == pytest.approx(-0.15, abs=1e-12)

    def test_noise_near_top_of_double_range_accepted(self):
        # a CP channel: each CP branch is 1e308 I + (i/4) Delta, whose symmetrisation
        # 0.5 * (H + H^H) overflowed to inf and gave lambda_min = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            channel = validate_channel(math.sqrt(0.5) * np.eye(2), np.zeros(2), 1e308 * np.eye(2),
                                       standard_form(1))
            for ok, lam in cp_branches(channel.K, channel.mu, channel.space):
                assert ok and lam == pytest.approx(1e308, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["K", "l", "mu"])
    def test_non_finite_rejected_by_name(self, name, bad):
        space = standard_form(1)
        args = {"K": math.sqrt(0.5) * np.eye(2), "l": np.zeros(2), "mu": 0.25 * np.eye(2)}
        args[name] = np.array(args[name])
        args[name].flat[-1] = bad
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            validate_channel(args["K"], args["l"], args["mu"], space)

    def test_random_channels_construct(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            s = int(rng.integers(1, 4))
            random_channel(rng, standard_form(s), noise_scale=0.2, shift_scale=1.0)


class TestApplyChannel:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(73)
        state = random_state(rng, standard_form(2))
        out = apply_channel(identity_channel(2), state)
        np.testing.assert_allclose(out.cov, state.cov, rtol=1e-14)
        np.testing.assert_allclose(out.mean, state.mean, rtol=1e-14)

    def test_vacuum_fixed_point(self):
        out = apply_channel(attenuator(0.5), thermal_state(0.5))
        np.testing.assert_allclose(out.cov, 0.5 * np.eye(2), atol=1e-15)

    def test_thermal_attenuation(self):
        out = apply_channel(attenuator(0.5), thermal_state(1.5))
        np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-15)

    def test_mean_rule(self):
        space = standard_form(1)
        channel = validate_channel(
            math.sqrt(0.5) * np.eye(2), np.array([0.3, -0.4]), 0.25 * np.eye(2), space
        )
        state = validate_state([1.0, 2.0], 1.5 * np.eye(2), space)
        out = apply_channel(channel, state)
        np.testing.assert_allclose(
            out.mean, math.sqrt(0.5) * np.array([1.0, 2.0]) + np.array([0.3, -0.4]),
            rtol=1e-14,
        )

    def test_cp_implies_output_validity(self):
        # 10^3 random (channel, state) pairs; validate_state runs inside apply_channel
        rng = np.random.default_rng(79)
        for _ in range(1000):
            s = int(rng.integers(1, 4))
            space = standard_form(s)
            channel = random_channel(rng, space, noise_scale=0.3, shift_scale=1.0)
            state = random_state(rng, space, d_range=(0.5, 6.0))
            apply_channel(channel, state)

    def test_composition_covariance(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            s = int(rng.integers(1, 4))
            space = standard_form(s)
            first = random_channel(rng, space, noise_scale=0.2, shift_scale=0.5)
            second = random_channel(rng, space, noise_scale=0.2, shift_scale=0.5)
            state = random_state(rng, space)
            sequential = apply_channel(second, apply_channel(first, state))
            composed = apply_channel(compose(first, second), state)
            np.testing.assert_allclose(sequential.cov, composed.cov, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(sequential.mean, composed.mean, rtol=1e-12, atol=1e-12)


class TestNormPP:
    def test_identity_any_p(self):
        channel = identity_channel()
        for p in (1.0, 2.0, 7.5, math.inf):
            assert norm_pp(channel, p) == pytest.approx(1.0, rel=1e-12)

    def test_attenuator_p2(self):
        assert norm_pp(attenuator(0.5), 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_attenuator_p_inf(self):
        assert norm_pp(attenuator(0.5), math.inf) == pytest.approx(2.0, rel=1e-12)

    def test_p_one_always_unit(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            s = int(rng.integers(1, 4))
            channel = random_channel(rng, standard_form(s))
            assert norm_pp(channel, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_singular_k_refused(self):
        space = standard_form(1)
        channel = validate_channel(
            np.diag([1.0, 0.0]), np.zeros(2), np.eye(2), space
        )
        with pytest.raises(SingularKError, match="requires invertible K"):
            norm_pp(channel, 2.0)

    def test_determinant_overflow_in_log_space(self):
        # s = 200 amplifier: |det K| = 40^200 overflows a double, but the norm
        # exp(-(1/2) log|det K|) = 40^-100 ~ 1e-160 does not; at p = inf the norm
        # exp(-log|det K|) ~ 1e-320 is outside the double range and refused
        s = 200
        channel = validate_channel(
            math.sqrt(40.0) * np.eye(2 * s), np.zeros(2 * s), 20.0 * np.eye(2 * s), standard_form(s)
        )
        log_det = np.linalg.slogdet(channel.K)[1]
        assert norm_pp(channel, 2.0) == pytest.approx(math.exp(-0.5 * log_det), rel=1e-12)
        assert norm_pp(channel, 2.0) == pytest.approx(40.0**-100, rel=1e-12)
        assert norm_pp(channel, 1.0) == 1.0
        with pytest.raises(NumericalOverflowError, match=r"\(1/p-1\) log\|det K\| = -737\.7"):
            norm_pp(channel, math.inf)

    @pytest.mark.parametrize("p", [math.nan, -math.inf, 0.5])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(DomainError):
            norm_pp(attenuator(0.5), p)


class TestRatioSequence:
    def test_identity_channel_all_ones(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        report = ratio_sequence(identity_channel(), family, 2.0, [1e-2, 1e-3, 1e-4])
        np.testing.assert_allclose(report.ratios, 1.0, rtol=1e-12)
        assert report.target == pytest.approx(1.0)

    def test_attenuator_closed_form_chain(self):
        # single mode, eps = I: r(beta) = f_2(d)/f_2(d') = d / (tau d + (1-tau)/2)
        family = GibbsFamily(standard_form(1), np.eye(2))
        channel = attenuator(0.5)
        betas = [1e-3, 1e-4, 1e-5]
        report = ratio_sequence(channel, family, 2.0, betas)
        for beta, ratio in zip(betas, report.ratios):
            d = 0.5 / math.tanh(beta)
            expected = d / (0.5 * d + 0.25)
            assert ratio == pytest.approx(expected, rel=1e-12)
        assert report.target == pytest.approx(2.0, rel=1e-12)
        # relative error tightens like 1/(2d): 1e-3 at beta = 1e-3, 1e-5 at beta = 1e-5
        assert report.relative_errors[0] <= 1e-3
        assert report.relative_errors[-1] <= 1e-5

    def test_ratio_bounded_by_target(self):
        rng = np.random.default_rng(97)
        betas = np.geomspace(1e-1, 1e-5, 17)
        for s in (1, 2):
            space = standard_form(s)
            family = GibbsFamily(space, np.eye(2 * s))
            for _ in range(5):
                channel = random_channel(rng, space, mu_slack=0.05)
                for p in (1.5, 2.0, 4.0):
                    report = ratio_sequence(channel, family, p, betas)
                    assert np.all(report.ratios <= report.target * (1.0 + 1e-9))

    @pytest.mark.parametrize("s", [1, 4, 16])
    def test_large_gibbs_spectrum_values(self, s):
        # eps = c SPD with c down to 1e-13 puts coth(beta e_j)/2 near 1e18 on the default
        # grid; no absolute scale refuses it, and the three sweeps return their certified values
        rng = np.random.default_rng(233 + s)
        space = standard_form(s)
        channel = random_channel(rng, space)
        betas = np.geomspace(1e-1, 1e-5, 17)
        for c in (1e-9, 1e-13):
            family = GibbsFamily(space, c * random_spd(rng, 2 * s))
            report = ratio_sequence(channel, family, 2.0, betas)
            assert report.relative_errors[-1] <= 1e-11
            fit = scaling_exponent(family, 2.0, betas)
            assert abs(fit.slope - fit.expected) <= 1e-12
            div = divergence_exponent(channel, family, 1.0, 2.0, betas)
            assert abs(div.slope - div.expected) <= 1e-12 and div.verdict == "diverges"

    def test_non_finite_gibbs_spectrum_refused(self):
        # beta = 1e-320 is subnormal and coth(beta)/2 overflows to inf: each sweep and
        # gibbs_state refuse it by name, with no numpy warning on the way
        family = GibbsFamily(standard_form(1), np.eye(2))
        betas = [1e-2, 1e-320]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep in (lambda: ratio_sequence(attenuator(0.5), family, 2.0, betas),
                          lambda: divergence_exponent(attenuator(0.5), family, 1.0, 2.0, betas),
                          lambda: scaling_exponent(family, 2.0, betas)):
                with pytest.raises(NumericalOverflowError, match=r"not finite at beta = 1\.000e-320"):
                    sweep()
            with pytest.raises(DomainError, match="covariance matrix must be finite"):
                gibbs_state(family, betas[-1])

    def test_target_overflow_refused(self):
        # s = 40, 50% attenuator at p = 30: |det K|^(1-p) = 2^1160 is beyond a double
        s = 40
        family = GibbsFamily(standard_form(s), np.eye(2 * s))
        with pytest.raises(NumericalOverflowError, match=r"\(1-p\) log\|det K\| = 804\.0"):
            ratio_sequence(attenuator(0.5, s=s), family, 30.0, [1e-3, 1e-4, 1e-5])

    def test_tiny_determinant_not_singular(self):
        # s = 40, 50% attenuator: |det K| = 2^-40 = 9.1e-13, condition number 1
        s = 40
        channel = attenuator(0.5, s=s)
        family = GibbsFamily(standard_form(s), np.eye(2 * s))
        betas = np.array([1e-3, 1e-4, 1e-5])
        report = ratio_sequence(channel, family, 2.0, betas)
        assert report.target == pytest.approx(2.0**40, rel=1e-12)
        # per mode f_2(d)/f_2(d') = d / (d/2 + 1/4), d = coth(beta)/2: the chain above, to the s-th power
        d = 0.5 / np.tanh(betas)
        np.testing.assert_allclose(report.ratios / report.target, (d / (d + 0.5)) ** s, rtol=1e-10)

    def test_requires_descending_betas(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(ValueError):
            ratio_sequence(attenuator(0.5), family, 2.0, [1e-5, 1e-3])

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
    def test_bad_exponent_rejected(self, p):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(DomainError):
            ratio_sequence(attenuator(0.5), family, p, [1e-2, 1e-3])

    def test_log_traces_reported(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        betas = [1e-2, 1e-3, 1e-4]
        report = ratio_sequence(attenuator(0.5), family, 2.0, betas)
        for beta, log_in, log_out, ratio in zip(
            betas, report.log_tr_in, report.log_tr_out, report.ratios
        ):
            assert log_in == pytest.approx(math.log(tr_rho_p(gibbs_state(family, beta), 2.0)), rel=1e-13)
            assert math.exp(log_out - log_in) == ratio

    def test_log_tr_in_read_from_family(self):
        # the inputs' log Tr rho_beta^p is the kernel on coth(beta e_j)/2, bit for bit
        space = standard_form(2)
        family = GibbsFamily(space, np.diag([0.7, 0.7, 1.9, 1.9]))
        betas = np.geomspace(1e-1, 1e-5, 17)
        report = ratio_sequence(attenuator(0.5, s=2), family, 1.5, betas)
        closed = _log_tr_rho_p(0.5 / np.tanh(np.outer(betas, family.spectrum)), 1.5)
        assert np.array_equal(report.log_tr_in, closed)


class TestUpperBoundCheck:
    def test_identity_channel_saturates(self):
        rng = np.random.default_rng(101)
        states = [random_state(rng, standard_form(1)) for _ in range(5)]
        oks, worst = upper_bound_check(identity_channel(), states, 2.0)
        assert all(oks)
        assert worst == pytest.approx(1e-10, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_norms_below_double_range(self, p):
        # s = 300 thermal state, d = 200.5: both Schatten norms underflow to 0,
        # their ratio is exactly 1
        oks, worst = upper_bound_check(identity_channel(s=300), [thermal_state(200.5, s=300)], p)
        assert oks == [True]
        assert worst == pytest.approx(1e-10, abs=1e-14)

    @pytest.mark.parametrize("d", [0.5, 1.5, 1e3])
    def test_bound_below_double_range(self, d):
        # s = 200 amplifier (K = sqrt(40) I, mu = 20 I) at p = inf: the bound
        # exp(-log|det K|) = 40^-200 ~ 1e-321 is outside the double range, its log is not;
        # per mode d -> 40 d + 20, so the ratio is (40 (d + 1/2) / (40 d + 20.5))^200
        s = 200
        amplifier = validate_channel(
            math.sqrt(40.0) * np.eye(2 * s), np.zeros(2 * s), 20.0 * np.eye(2 * s), standard_form(s)
        )
        oks, worst = upper_bound_check(amplifier, [thermal_state(d, s=s)], math.inf)
        assert oks == [True]
        ratio = (40.0 * (d + 0.5) / (40.0 * d + 20.5)) ** s
        assert worst == pytest.approx(1.0 + 1e-10 - ratio, rel=1e-12)

    def test_vacuum_through_attenuator(self):
        oks, _ = upper_bound_check(attenuator(0.5), [thermal_state(0.5)], 2.0)
        assert oks == [True]
        out = apply_channel(attenuator(0.5), thermal_state(0.5))
        assert schatten_norm(out, 2.0) == pytest.approx(schatten_norm(thermal_state(0.5), 2.0))

    def test_thermal_ratio_value(self):
        # ||Phi[rho]||_2 / ||rho||_2 = sqrt((1/2)/(1/3)) ~ 1.2247 <= sqrt(2)
        channel = attenuator(0.5)
        state = thermal_state(1.5)
        out = apply_channel(channel, state)
        ratio = schatten_norm(out, 2.0) / schatten_norm(state, 2.0)
        assert ratio == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert ratio <= norm_pp(channel, 2.0)

    def test_empty_and_foreign_states(self):
        assert upper_bound_check(attenuator(0.5), [], 2.0) == ([], math.inf)
        with pytest.raises(DimensionMismatchError):
            upper_bound_check(attenuator(0.5), [thermal_state(1.5), thermal_state(1.5, s=2)], 2.0)

    def test_overflowing_output_mean_refused(self):
        # K^T m overflows a double: the batch refuses it by name, as apply_channel does
        space = standard_form(1)
        amplifier = validate_channel(2.0 * np.eye(2), np.zeros(2), 1.5 * np.eye(2), space)
        state = validate_state([1e308, 0.0], np.eye(2), space)
        for call in (lambda: apply_channel(amplifier, state),
                     lambda: upper_bound_check(amplifier, [thermal_state(1.5), state], 2.0)):
            with np.errstate(over="ignore"), pytest.raises(DomainError, match="^mean must be finite"):
                call()

    def test_no_violations_random(self):
        rng = np.random.default_rng(103)
        for s in (1, 2):
            space = standard_form(s)
            channel = random_channel(rng, space, noise_scale=0.2)
            states = [random_state(rng, space, d_range=(0.5, 6.0)) for _ in range(50)]
            for p in (1.0, 1.7, 2.0, 5.0, math.inf):
                oks, worst = upper_bound_check(channel, states, p)
                assert all(oks), f"violation at p={p}, worst margin {worst}"


class TestScalingExponent:
    def test_single_mode_p2(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        fit = scaling_exponent(family, 2.0, np.geomspace(1e-1, 1e-5, 17))
        assert fit.expected == pytest.approx(0.5)
        assert fit.slope == pytest.approx(0.5, rel=0.02)

    def test_two_modes_p2(self):
        family = GibbsFamily(standard_form(2), np.eye(4))
        fit = scaling_exponent(family, 2.0, np.geomspace(1e-1, 1e-5, 17))
        assert fit.slope == pytest.approx(1.0, rel=0.02)

    def test_p_one_flat(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        fit = scaling_exponent(family, 1.0, np.geomspace(1e-1, 1e-5, 17))
        assert fit.expected == 0.0
        assert abs(fit.slope) <= 1e-10

    def test_narrow_grid_rejected(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(ValueError):
            scaling_exponent(family, 2.0, np.geomspace(1e-2, 1e-3, 5))

    def test_negative_beta_rejected_as_such(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(ValueError, match="positive"):
            scaling_exponent(family, 2.0, [1e-1, 1e-3, -1e-5])

    def test_nan_exponent_rejected(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(DomainError):
            scaling_exponent(family, math.nan, np.geomspace(1e-1, 1e-5, 17))


class TestDivergenceExponent:
    def test_attenuator_q1_p2(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        fit = divergence_exponent(attenuator(0.5), family, 1.0, 2.0, np.geomspace(1e-1, 1e-5, 17))
        assert fit.expected == pytest.approx(-0.5)
        assert fit.slope == pytest.approx(-0.5, rel=0.02)
        assert fit.verdict == "diverges"

    def test_fractional_exponents(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        fit = divergence_exponent(attenuator(0.5), family, 1.5, 3.0, np.geomspace(1e-1, 1e-5, 17))
        assert fit.expected == pytest.approx(1.0 / 3.0 - 2.0 / 3.0)
        assert fit.slope == pytest.approx(-1.0 / 3.0, rel=0.02)
        assert fit.verdict == "diverges"

    def test_q_not_less_than_p_rejected(self):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(QNotLessThanPError):
            divergence_exponent(attenuator(0.5), family, 2.0, 2.0, [1e-2, 1e-3])

    @pytest.mark.parametrize("betas", [
        [[1e-1, 1e-2], [1e-3, 1e-4]],   # 2-D
        [],                             # empty
        [1e-1, 1e-3, -1e-5],            # not positive
        [math.inf, 1e-3],               # not finite
        [1e-1, math.nan],
    ])
    def test_bad_grid_rejected(self, betas):
        family = GibbsFamily(standard_form(1), np.eye(2))
        with pytest.raises(ValueError, match="betas must be a non-empty 1-D list"):
            divergence_exponent(attenuator(0.5), family, 1.0, 2.0, betas)


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every gaussnorm namespace that binds it; return the call counter."""
    original = getattr(module, name)
    counter = {"calls": 0}

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for key, ns in list(sys.modules.items()):
        if key == "gaussnorm" or key.startswith("gaussnorm."):
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, counted)
    return counter


class TestOncePerFamilyPipeline:
    def test_one_decomposition_per_family_one_spectrum_per_state(self, monkeypatch):
        counts = {name: _count_calls(monkeypatch, module, name) for module, name in (
            (gaussnorm.symplectic, "spectral_decomposition"),
            (gaussnorm.symplectic, "symplectic_spectrum"),
            (gaussnorm.symplectic, "check_psd_hermitian"),
            (gaussnorm.symplectic, "check_symmetric"),
            (gaussnorm.states, "validate_state"),
            (gaussnorm.states, "gibbs_state"),
        )}
        space = standard_form(2)
        family = GibbsFamily(space, np.diag([1.0, 1.0, 1.7, 1.7]))
        channel = attenuator(0.5, s=2)
        betas = np.geomspace(1e-1, 1e-5, 17)
        ratio_sequence(channel, family, 2.0, betas)
        scaling_exponent(family, 2.0, betas)
        divergence_exponent(channel, family, 1.0, 2.0, betas)
        # the family's Williamson basis replaces the general eigendecomposition
        assert counts["spectral_decomposition"]["calls"] == 0
        # the beta grid is one (17, 4, 4) stack: no Gibbs state, no per-state validation
        assert counts["gibbs_state"]["calls"] == 0
        assert counts["validate_state"]["calls"] == 0
        # one spectrum per sweep, of the channel outputs, in ratio_sequence and
        # divergence_exponent; every sweep reads the inputs' coth(beta e_j)/2 from the family
        assert counts["symplectic_spectrum"]["calls"] == 2
        # one symmetry and finiteness test per output stack, plus epsilon's and the channel's mu
        assert counts["check_symmetric"]["calls"] == 2 + 2
        # only the attenuator's two CP branches; every state is decided by its spectrum
        assert counts["check_psd_hermitian"]["calls"] == 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.sampled_from([None, 0.0, 1e-15, 1e-12, 1e-9, 1e-6]), st.floats(0.0, 1.5))
    def test_gibbs_spectrum_is_closed_form(self, seed, s, split, squeeze):
        # the invariant the sweeps rely on instead of an eigensolve of the Gibbs stack: its
        # spectrum is coth(beta e_j)/2.  eps = S^T diag(e_j) S with S = O1 Z O2 (Bloch-Messiah:
        # passive O1, O2, squeezes |r_j| <= squeeze), so cond(eps) <= e^(4 squeeze) e_max/e_min
        # <= 4e3; e_j are split apart by 0 up to 1e-6 relative, or drawn in [0.3, 3]
        rng = np.random.default_rng(seed)
        space = standard_form(s)
        e = rng.uniform(0.3, 3.0, s) if split is None else 1.3 * (1.0 + split * np.arange(s))
        r = squeeze * rng.uniform(-1.0, 1.0, s)
        z = np.diag(np.exp(np.repeat(r, 2) * np.tile([1.0, -1.0], s)))
        sym = random_passive_symplectic(rng, space) @ z @ random_passive_symplectic(rng, space)
        eps = sym.T @ np.diag(np.repeat(e, 2)) @ sym
        family = GibbsFamily(space, 0.5 * (eps + eps.T))
        betas = np.geomspace(10.0, 1e-5, 13)
        closed = np.sort(_gibbs_spectra(family, betas), axis=-1)
        np.testing.assert_allclose(symplectic_spectrum(_gibbs_covs(family, betas), space),
                                   closed, rtol=1e-12, atol=0.0)

    def test_upper_bound_check_one_stack(self, monkeypatch):
        space = standard_form(2)
        rng = np.random.default_rng(11)
        channel = random_channel(rng, space)
        states = [random_state(rng, space) for _ in range(100)]
        counts = {name: _count_calls(monkeypatch, module, name) for module, name in (
            (gaussnorm.channels, "apply_channel"),
            (gaussnorm.symplectic, "symplectic_spectrum"),
            (gaussnorm.symplectic, "check_psd_hermitian"),
        )}
        oks, _ = upper_bound_check(channel, states, 2.0)
        assert len(oks) == 100 and all(oks)
        # the inputs' spectra are cached on the states; the outputs are one stack
        assert counts["apply_channel"]["calls"] == 0
        assert counts["symplectic_spectrum"]["calls"] == 1
        assert counts["check_psd_hermitian"]["calls"] == 0


class TestDeterminantScaling:
    def test_covariance_determinant_ratio(self):
        # det(K^T alpha K + mu)/det(alpha) -> (det K)^2 as beta -> 0; a hot
        # family (small epsilon) keeps the mu correction below the 0.1% gate
        rng = np.random.default_rng(107)
        beta = 1e-4
        for s in (1, 2, 3):
            space = standard_form(s)
            family = GibbsFamily(space, 0.05 * np.eye(2 * s))
            rho = gibbs_state(family, beta)
            for abs_det in (0.1, 0.5, 2.0, 10.0):
                channel = random_channel(rng, space, abs_det=abs_det, mu_slack=0.1)
                out = apply_channel(channel, rho)
                ratio = np.linalg.det(out.cov) / np.linalg.det(rho.cov)
                assert ratio == pytest.approx(channel.det_K() ** 2, rel=1e-3)
