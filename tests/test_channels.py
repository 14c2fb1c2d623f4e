"""Gaussian channel validation, covariance action, norms and sweep estimators."""

import math
import sys
import tracemalloc
import warnings

import mpmath
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
from gaussnorm.channels import (
    DIVERGENCE_SLOPE,
    EPS,
    GaussianChannel,
    _loglog_fit,
    _output_rule,
    _sweep_outputs,
    cp_check,
)
from gaussnorm.errors import (
    DimensionMismatchError,
    DomainError,
    GaussNormError,
    NotCPError,
    NumericalOverflowError,
    QNotLessThanPError,
    SingularKError,
    UncertaintyViolatedError,
)
from gaussnorm.states import (
    _basis_covs,
    _certify_uncertainty,
    _checked_spectra,
    _gibbs_covs,
    _gibbs_spectra,
    _log_tr_rho_p,
    _log_tr_rho_p_covs,
)
from gaussnorm.symplectic import check_psd_pair
from sampling import (
    cp_threshold_mu,
    random_channel,
    random_covariance,
    random_invertible_k,
    random_passive_symplectic,
    random_spd,
    random_state,
    random_symplectic,
)


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


def rotation(theta):
    """Single-mode phase rotation: a Gaussian unitary, CP with mu = 0."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def beam_splitter(t):
    """Two-mode beam splitter of transmissivity t^2, ordering (q1, p1, q2, p2)."""
    r = math.sqrt(1.0 - t * t)
    return np.kron(np.array([[t, r], [-r, t]]), np.eye(2))


def symplectic_k(seed, scale):
    return random_symplectic(np.random.default_rng(seed), standard_form(2), scale=scale)


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
        ok, lam = cp_check(channel.K, channel.mu, channel.space)
        assert ok
        assert lam == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("name", ["K", "l", "mu"])
    def test_complex_input_refused(self, name, as_list):
        # a complex K, l or mu, ndarray or list, is refused by name: never cast with a ComplexWarning
        args = {"K": np.eye(2), "l": np.zeros(2), "mu": np.eye(2)}
        args[name] = args[name].astype(complex)
        args[name].flat[1] += 0.2j
        if as_list:
            args[name] = args[name].tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} must be real$"):
                validate_channel(args["K"], args["l"], args["mu"], standard_form(1))

    def test_insufficient_noise_rejected(self):
        space = standard_form(1)
        with pytest.raises(NotCPError) as err:
            validate_channel(
                math.sqrt(0.5) * np.eye(2), np.zeros(2), 0.1 * np.eye(2), space
            )
        assert err.value.lambda_min == pytest.approx(-0.15, abs=1e-12)

    def test_one_eigensolve_per_cp_check(self, monkeypatch):
        # the - branch is the complex conjugate of the + branch: one eigvalsh answers both
        calls, original = [], np.linalg.eigvalsh

        def counted(h, *args, **kwargs):
            calls.append(h.shape)
            return original(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        validate_channel(math.sqrt(0.5) * np.eye(4), np.zeros(4), 0.25 * np.eye(4), standard_form(2))
        assert calls == [(4, 4)]

    def test_noise_near_top_of_double_range_accepted(self):
        # a CP channel: each CP branch is 1e308 I + (i/4) Delta, whose symmetrisation
        # 0.5 * (H + H^H) overflowed to inf and gave lambda_min = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            channel = validate_channel(math.sqrt(0.5) * np.eye(2), np.zeros(2), 1e308 * np.eye(2),
                                       standard_form(1))
            ok, lam = cp_check(channel.K, channel.mu, channel.space)
            assert ok and lam == pytest.approx(1e308, rel=1e-14)

    @pytest.mark.parametrize("K, mu, valid", [
        *[pytest.param(rotation(theta), np.zeros((2, 2)), True, id=f"rotation-{theta}")
          for theta in (0.1, 0.3, 1.0, 2.0)],
        pytest.param(beam_splitter(0.6), np.zeros((4, 4)), True, id="beam-splitter-0.6"),
        *[pytest.param(symplectic_k(seed, scale), np.zeros((4, 4)), True, id=f"symplectic-{seed}-{scale}")
          for seed in (0, 1, 2) for scale in (0.3, 1.0, 3.0, 10.0)],
        *[pytest.param(math.sqrt(tau) * np.eye(2), (1.0 - tau) / 2.0 * np.eye(2), True, id=f"attenuator-{tau!r}")
          for tau in (0.9999993, 1.0 - 1e-9, 1.0 - 1e-15)],
        pytest.param(math.sqrt(0.5) * np.eye(2), 0.1 * np.eye(2), False, id="short-by-0.15"),
        pytest.param(math.sqrt(0.5) * np.eye(2), (0.25 - 1e-8) * np.eye(2), False, id="short-by-1e-8"),
        # K^T Delta K has no cancellation here, so a tiny negative mu stays refused
        pytest.param(np.diag([1e3, 1e-3]), np.diag([0.0, -1e-5]), False, id="squeezer-negative-mu"),
        # a squeezer off the axes: |K|^T |Delta K| reaches 1e8, its rounding floor only 9e-8
        pytest.param(rotation(math.pi / 4) @ np.diag([1e4, 1e-4]), np.zeros((2, 2)), True,
                     id="rotated-squeezer"),
        pytest.param(rotation(math.pi / 4) @ np.diag([1e4, 1e-4]), -1e-3 * np.eye(2), False,
                     id="rotated-squeezer-negative-mu"),
        pytest.param(symplectic_k(1, 10.0), -1e-3 * np.eye(4), False, id="symplectic-1-10-negative-mu"),
    ])
    def test_cp_verdict_at_the_rounding_floor(self, K, mu, valid):
        # Delta - K^T Delta K cancels to rounding for Gaussian unitaries (mu = 0) and for
        # attenuators near tau = 1, where fl(sqrt(tau))^2 < tau; such channels are CP,
        # while mu short of the attenuator's threshold by 0.15 or 1e-8 is not
        space = standard_form(K.shape[0] // 2)
        ok, lam = cp_check(K, mu, space)
        assert ok == valid
        if valid:
            channel = validate_channel(K, np.zeros(space.dim), mu, space)
            # and followed by the attenuator at tau = 1/2, as compose(rotation, attenuator(0.5)) is
            for ch in (channel, compose(channel, attenuator(0.5, space.s))):
                assert norm_pp(ch, 2.0) == pytest.approx(abs(np.linalg.det(ch.K)) ** -0.5, rel=1e-12)
        else:
            with pytest.raises(NotCPError) as err:
                validate_channel(K, np.zeros(space.dim), mu, space)
            assert err.value.lambda_min == lam < 0.0

    @pytest.mark.parametrize("K", [
        pytest.param(rotation(math.pi / 4) @ np.diag([1.5e154, 1 / 1.5e154]), id="rotated-squeezer-1.5e154"),
        pytest.param(1e160 * np.eye(2), id="1e160-I"),
    ])
    def test_overflowing_k_refused_by_name(self, K):
        # |K|^T |Delta K| leaves the double range: K^T Delta K may still cancel to a finite
        # value, but its rounding bounds nothing, so the channel is refused, without warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^K\^T Delta K leaves the double range"):
                validate_channel(K, np.zeros(2), -1e300 * np.eye(2), standard_form(1))

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

    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_huge_state_through_identity(self, scale):
        # K^T alpha K + mu is halved before its symmetric sum, which overflowed to inf
        channel = identity_channel()
        state = validate_state(np.zeros(2), scale * np.eye(2), standard_form(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_channel(channel, state)
            oks, worst = upper_bound_check(channel, [state], 2.0)
        np.testing.assert_array_equal(out.cov, state.cov)
        np.testing.assert_allclose(out.spectrum, [scale], rtol=1e-15)
        assert oks == [True] and worst >= 0.0

    def test_compose_huge_noise(self):
        # the composed mu = K2^T mu1 K2 + mu2 is halved before its symmetric sum
        space = standard_form(1)
        noisy = validate_channel(np.eye(2), np.zeros(2), 1.7e308 * np.eye(2), space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            composed = compose(identity_channel(), noisy)
        np.testing.assert_array_equal(composed.mu, noisy.mu)

    @pytest.mark.parametrize("mean, cov, message", [
        ([1e200, 0.0], np.eye(2), "mean must be finite"),
        ([0.0, 0.0], 1e10 * np.eye(2), "covariance matrix must be finite"),
    ])
    def test_overflowing_output_refused_by_name(self, mean, cov, message):
        # K = 1e152 I with mu = 1e304 I is CP, and its output of this state leaves the double range:
        # refused by name, with no numpy warning on the way; so is the channel composed with itself
        space = standard_form(1)
        channel = validate_channel(1e152 * np.eye(2), np.zeros(2), 1e304 * np.eye(2), space)
        state = validate_state(mean, cov, space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                apply_channel(channel, state)
            with pytest.raises(DomainError, match=f"^{message}$"):
                upper_bound_check(channel, [state], 2.0)
            with pytest.raises(DomainError, match="^mu must be finite$"):
                compose(channel, channel)


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
    def test_family_on_other_space_refused(self):
        family = GibbsFamily(standard_form(2), np.eye(4))
        with pytest.raises(DimensionMismatchError, match="^channel and family live on different spaces$"):
            ratio_sequence(attenuator(0.5), family, 2.0, [1e-1, 1e-2])

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
        # gibbs_state read the one Gibbs spectrum and refuse it by name, with no numpy
        # warning on the way
        family = GibbsFamily(standard_form(1), np.eye(2))
        betas = [1e-2, 1e-320]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep in (lambda: ratio_sequence(attenuator(0.5), family, 2.0, betas),
                          lambda: divergence_exponent(attenuator(0.5), family, 1.0, 2.0, betas),
                          lambda: scaling_exponent(family, 2.0, betas),
                          lambda: gibbs_state(family, betas[-1])):
                with pytest.raises(NumericalOverflowError, match=r"not finite at beta = 1\.000e-320"):
                    sweep()

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
            # the state carries the family's spectrum: worst 4.4e-16 over s in {1, 2, 4, 16},
            # p in {1.5, 2, 3} and 17 betas
            assert log_in == pytest.approx(math.log(tr_rho_p(gibbs_state(family, beta), 2.0)), rel=5e-16)
            assert np.exp(log_out - log_in) == ratio  # the exp ratio_sequence applies

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

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf, -1.0, -2.0])
    def test_nonsense_slack_refused(self, monkeypatch, slack):
        # NaN read as a false violation, inf as a pass, and slack <= -1 failed every state: each is
        # refused by name before any solve, with or without states
        def refuse(*args, **kwargs):
            raise AssertionError("upper_bound_check solved before refusing its slack")

        channel, states = attenuator(0.5), [thermal_state(1.5)]
        for name in ("slogdet", "matrix_rank", "cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for batch in (states, []):
            with pytest.raises(DomainError, match=f"^slack must be finite and > -1, got {slack}$"):
                upper_bound_check(channel, batch, 2.0, slack=slack)

    def test_negative_slack_is_stricter(self):
        # slack in (-1, 0) shrinks the bound: the identity channel's ratio 1 then fails it by -slack
        states = [thermal_state(1.5), thermal_state(0.5)]
        assert upper_bound_check(identity_channel(), states, 2.0, slack=-0.5) == ([False, False], -0.5)
        assert upper_bound_check(identity_channel(), states, 2.0, slack=-1e-12)[0] == [False, False]

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
    def test_family_on_other_space_refused(self):
        family = GibbsFamily(standard_form(2), np.eye(4))
        with pytest.raises(DimensionMismatchError, match="^channel and family live on different spaces$"):
            divergence_exponent(attenuator(0.5), family, 1.0, 2.0, [1e-1, 1e-2, 1e-3])

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
    """Wrap ``module.name`` in every gaussnorm namespace that binds it (``np.linalg`` itself for
    its functions); return the call counter, with the shape of each call's first argument."""
    original = getattr(module, name)
    counter = {"calls": 0, "shapes": []}

    def counted(*args, **kwargs):
        counter["calls"] += 1
        counter["shapes"].append(np.shape(args[0]))
        return original(*args, **kwargs)

    if module is np.linalg:
        monkeypatch.setattr(module, name, counted)
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
        # at the integer p = 2 and q = 1 the outputs are read from determinants, and every sweep
        # reads the inputs' coth(beta e_j)/2 from the family: no spectrum at all
        assert counts["symplectic_spectrum"]["shapes"] == []
        ratio_sequence(channel, family, 1.5, betas)
        # off the integer p, one spectrum stack, of ratio_sequence's channel outputs
        assert counts["symplectic_spectrum"]["shapes"] == [(17, 4, 4)]
        # one symmetry and finiteness test for that stack, plus epsilon's and the channel's mu;
        # the determinant route's outputs are symmetric by construction and tested for
        # finiteness alone
        assert counts["check_symmetric"]["calls"] == 1 + 2
        # only the attenuator's one CP eigensolve; every state is decided by its spectrum
        assert counts["check_psd_hermitian"]["calls"] == 1

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
        spectra = _gibbs_spectra(family, betas)
        np.testing.assert_allclose(symplectic_spectrum(_gibbs_covs(family, spectra), space),
                                   np.sort(spectra, axis=-1), rtol=1e-12, atol=0.0)

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
        # validate_state solves no spectrum: the inputs' spectra and the outputs' are one stack
        assert counts["apply_channel"]["calls"] == 0
        assert counts["symplectic_spectrum"]["calls"] == 1
        assert counts["check_psd_hermitian"]["calls"] == 0

    def test_validate_state_one_cholesky_no_spectrum(self, monkeypatch):
        space = standard_form(2)
        cov, _ = random_covariance(np.random.default_rng(12), space, d_range=(0.6, 5.0))
        counts = {name: _count_calls(monkeypatch, module, name) for module, name in (
            (np.linalg, "cholesky"),
            (np.linalg, "eigvalsh"),
            (gaussnorm.symplectic, "symplectic_spectrum"),
        )}
        state = validate_state(np.zeros(4), cov, space)
        # an interior state is certified by the complex Cholesky of alpha + (i/2) Delta alone
        assert counts["cholesky"]["shapes"] == [(4, 4)]
        assert counts["eigvalsh"]["calls"] == 0
        assert counts["symplectic_spectrum"]["calls"] == 0
        assert "spectrum" not in vars(state)

    def test_upper_bound_check_solves_each_input_once(self, monkeypatch):
        space = standard_form(2)
        rng = np.random.default_rng(13)
        channel = random_channel(rng, space)
        states = [random_state(rng, space) for _ in range(100)]
        expected = [symplectic_spectrum(state.cov, space) for state in states]
        for state in states[:30]:
            state.spectrum  # these carry their spectrum into the check
        calls = _count_calls(monkeypatch, gaussnorm.symplectic, "symplectic_spectrum")
        upper_bound_check(channel, states, 2.0)
        # 100 outputs and the 70 inputs without a spectrum, in one stack
        assert calls["shapes"] == [(170, 4, 4)]
        for state, spectrum in zip(states, expected):
            np.testing.assert_array_equal(state.spectrum, spectrum)
        for state in states:
            schatten_norm(state, 2.0)
        upper_bound_check(channel, states, math.inf)
        # schatten_norm reads the filled caches; a second check stacks its outputs only
        assert calls["shapes"] == [(170, 4, 4), (100, 4, 4)]

    @pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
    def test_upper_bound_check_cached_and_fresh_inputs_agree(self, p):
        # inputs solved in the check's stack and inputs that carry their spectrum already give
        # the same bits, equal to a reference built from the outputs' and inputs' spectra
        space = standard_form(2)
        rng = np.random.default_rng(17)
        channel = random_channel(rng, space)
        pairs = [(state.mean, state.cov) for state in (random_state(rng, space) for _ in range(40))]
        results = []
        for cached in (0, 1, 13, 40):
            states = [validate_state(mean, cov, space) for mean, cov in pairs]
            for state in states[:cached]:
                state.spectrum
            results.append(upper_bound_check(channel, states, p))
            if cached == 0:
                solved = [state.spectrum for state in states]
        assert all(result == results[0] for result in results)
        for state, spectrum in zip(states, solved):
            assert state.spectrum.tobytes() == spectrum.tobytes()
        log_in = gaussnorm.states._log_schatten_norm(np.array(solved), p)
        means_in, covs_in = (np.array(part) for part in zip(*pairs))
        covs_out = _output_rule(channel, means_in, covs_in)[1]
        log_out = gaussnorm.states._log_schatten_norm(symplectic_spectrum(covs_out, space), p)
        ratios = np.exp(log_out - log_in - gaussnorm.channels._norm_exponent(p)
                        * gaussnorm.channels._log_abs_det_K(channel))
        assert results[0] == ((ratios <= 1.0 + 1e-10).tolist(), float((1.0 + 1e-10 - ratios).min()))

    def test_upper_bound_check_input_without_factor_fails_lazily(self):
        # the r = 18 squeezed vacuum validates but has no Cholesky factor: among solved inputs,
        # cached or not, the check refuses the stack by name, as that state's spectrum would
        c, sn = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -sn], [sn, c]])
        squeezed = rot @ np.diag([math.exp(36.0), math.exp(-36.0)]) @ rot.T / 2
        space = standard_form(1)
        identity = validate_channel(np.eye(2), np.zeros(2), np.zeros((2, 2)), space)
        for cached in (0, 2):
            states = [validate_state(np.zeros(2), cov, space)
                      for cov in (np.eye(2), 2.0 * np.eye(2), squeezed, 3.0 * np.eye(2))]
            for state in states[:cached]:
                state.spectrum
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="^covariance matrix must be positive definite$"):
                    upper_bound_check(identity, states, 2.0)

    def test_output_without_factor_refused_by_name(self):
        # the Gaussian unitary K = diag(e^12, e^-12) R^T squeezes the r = 6 input and every
        # Gibbs state of eps = R diag(e^-12, e^12) R^T to an r = 12 output with no Cholesky
        # factor: each route, q = 1's determinant route too, refuses it as not positive
        # definite, never as a NaN spectrum
        c, sn = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -sn], [sn, c]])
        space = standard_form(1)
        channel = validate_channel(np.diag([math.exp(12.0), math.exp(-12.0)]) @ rot.T,
                                   np.zeros(2), np.zeros((2, 2)), space)
        state = validate_state(np.zeros(2), rot @ np.diag([math.exp(12.0), math.exp(-12.0)]) @ rot.T / 2,
                               space)
        family = GibbsFamily(space, rot @ np.diag([math.exp(-12.0), math.exp(12.0)]) @ rot.T)
        betas = np.geomspace(1e-1, 1e-5, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (lambda: upper_bound_check(channel, [state], 2.0),
                          lambda: upper_bound_check(channel, [state], math.inf),
                          lambda: ratio_sequence(channel, family, 2.0, betas),
                          lambda: divergence_exponent(channel, family, 1.0, 2.0, betas),
                          lambda: divergence_exponent(channel, family, 1.5, 2.0, betas),
                          lambda: apply_channel(channel, state).spectrum):
                with pytest.raises(DomainError, match="^covariance matrix must be positive definite$"):
                    route()

    def test_divergence_solves_output_spectra_only_off_q_one(self, monkeypatch):
        family = GibbsFamily(standard_form(2), np.diag([1.0, 1.0, 1.7, 1.7]))
        channel = attenuator(0.5, s=2)
        betas = np.geomspace(1e-1, 1e-5, 17)
        calls = {name: _count_calls(monkeypatch, np.linalg, name) for name in ("eigvalsh", "cholesky")}
        spectra = _count_calls(monkeypatch, gaussnorm.symplectic, "symplectic_spectrum")
        divergence_exponent(channel, family, 1.0, 2.0, betas)
        # q = 1: ||Phi[rho_beta]||_1 = 1, and the real and complex batched Choleskys of the
        # determinant route certify the outputs
        assert spectra["shapes"] == []
        assert calls["eigvalsh"]["shapes"] == []
        assert calls["cholesky"]["shapes"] == [(17, 4, 4), (17, 4, 4)]
        divergence_exponent(channel, family, 1.5, 2.0, betas)
        # q = 1.5: the 17 output spectra in one stack, which at two modes runs no eigensolve
        assert spectra["shapes"] == [(17, 4, 4)]
        assert calls["eigvalsh"]["shapes"] == []


def _sweep_case(seed, s, scale, negative, squeeze):
    """A family eps = scale * S^T diag(e_j) S with S = O1 Z O2 (passive O1, O2, squeezes |r_j| <=
    squeeze) and a channel with well-conditioned K, det K < 0 when ``negative``, mu = c I above
    the CP threshold."""
    rng = np.random.default_rng(seed)
    space = standard_form(s)
    e = rng.uniform(0.3, 3.0, s)
    r = squeeze * rng.uniform(-1.0, 1.0, s)
    z = np.diag(np.exp(np.repeat(r, 2) * np.tile([1.0, -1.0], s)))
    sym = random_passive_symplectic(rng, space) @ z @ random_passive_symplectic(rng, space)
    eps = scale * (sym.T @ np.diag(np.repeat(e, 2)) @ sym)
    family = GibbsFamily(space, 0.5 * (eps + eps.T))
    k = random_invertible_k(rng, space, float(np.exp(rng.uniform(-2.0, 2.0))), allow_reflection=False)
    if negative:
        k = k @ np.diag([-1.0] + [1.0] * (2 * s - 1))
    mu = cp_threshold_mu(space, k) * (1.0 + 0.1 * rng.random()) * np.eye(2 * s)
    return space, family, validate_channel(k, np.zeros(2 * s), mu, space)


SWEEP_CASES = dict(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 8),
                   scale=st.sampled_from([1e-13, 1e-9, 1e-3, 1.0, 1e3]), negative=st.booleans(),
                   squeeze=st.floats(0.0, 1.0))
BETAS = np.geomspace(1e-1, 1e-5, 17)


def _max_rel(got, ref):
    # the largest entry error of each member, against that member's largest entry
    n = ref.shape[-1]
    return float((abs(got - ref).reshape(-1, n * n).max(axis=1)
                  / abs(ref).reshape(-1, n * n).max(axis=1)).max())


class TestRealFoldedSweep:
    @settings(max_examples=100, deadline=None)
    @given(**SWEEP_CASES)
    def test_real_basis_is_the_complex_williamson_sum(self, seed, s, scale, negative, squeeze):
        # alpha(beta) = Re(W diag(lam coth(beta lam)/2) W^H) over all 2s columns of W = L^-T U,
        # rebuilt here, against S diag(x, x) S^T on the +e_j columns alone
        space, family, _ = _sweep_case(seed, s, scale, negative, squeeze)
        chol = np.linalg.cholesky(family.epsilon)
        lam, u = np.linalg.eigh(-1j * (chol.T @ space.delta @ chol))
        w = np.linalg.solve(chol.T, u)
        x = 0.5 * lam / np.tanh(np.multiply.outer(BETAS, lam))
        ref = ((w * x[:, None, :]) @ w.conj().T).real
        assert family.basis.dtype == np.float64
        assert _max_rel(_gibbs_covs(family, _gibbs_spectra(family, BETAS)), ref) <= 1e-13
        gram = family.basis.T @ family.epsilon @ family.basis
        assert abs(gram - np.eye(2 * s)).max() <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(**SWEEP_CASES)
    def test_folded_stack_is_the_channel_output(self, seed, s, scale, negative, squeeze):
        _, family, channel = _sweep_case(seed, s, scale, negative, squeeze)
        assert (np.linalg.det(channel.K) < 0.0) == negative
        spectra_in, covs = _sweep_outputs(channel, family, BETAS)
        np.testing.assert_array_equal(spectra_in, _gibbs_spectra(family, BETAS))
        gibbs_covs = _gibbs_covs(family, _gibbs_spectra(family, BETAS))
        assert _max_rel(covs, _output_rule(channel, np.zeros(2 * s), gibbs_covs)[1]) <= 1e-13

    @pytest.mark.parametrize("s", [1, 3, 16])
    @pytest.mark.parametrize("member", [None, math.inf, math.nan])
    @pytest.mark.parametrize("matrix_shift", [False, True])
    def test_basis_covs_is_the_symmetrised_product(self, s, member, matrix_shift):
        # bit for bit the expression it forms in place, 0.5 (c + c^T) with c = (S diag) S^T + shift,
        # on finite stacks and on stacks with an inf or NaN member, under the sweeps' errstate
        rng = np.random.default_rng(s)
        basis = rng.standard_normal((2 * s, 2 * s))
        x = np.exp(rng.uniform(-3.0, 3.0, (17, s)))
        if member is not None:
            x[5, 0] = member
            x[11] = member
        shift = random_spd(rng, 2 * s) if matrix_shift else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            c = (basis * np.concatenate((x, x), axis=-1)[:, None, :]) @ basis.T + shift
            expected = 0.5 * (c + c.swapaxes(-1, -2))
            got = _basis_covs(basis, x, shift)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert np.isfinite(got).all() == (member is None)

    @settings(max_examples=100, deadline=None)
    @given(**SWEEP_CASES, p=st.sampled_from([1.5, 2.0, 3.0]))
    def test_q_one_is_minus_the_scaling_law(self, seed, s, scale, negative, squeeze, p):
        # log ||Phi[rho_beta]||_1 = 0, so the fit is the scaling fit negated, bit for bit; the
        # verdict is the one the outputs' spectra give
        space, family, channel = _sweep_case(seed, s, scale, negative, squeeze)
        fit = divergence_exponent(channel, family, 1.0, p, BETAS)
        law = scaling_exponent(family, p, BETAS)
        assert fit.slope == -law.slope and fit.residual == law.residual
        spectra_in, covs = _sweep_outputs(channel, family, BETAS)
        log_ratio = (_log_tr_rho_p(_checked_spectra(covs, space), 1.0)
                     - _log_tr_rho_p(spectra_in, p) / p)
        slope = _loglog_fit(np.log(BETAS), log_ratio)[0]
        assert abs(slope - fit.slope) <= 1e-12 * abs(fit.slope)
        monotone = bool(np.all(np.diff(log_ratio[BETAS <= 10.0 * BETAS[-1] * (1.0 + 1e-9)]) > 0.0))
        verdict = "diverges" if slope < -DIVERGENCE_SLOPE and monotone else "bounded"
        assert fit.verdict == verdict

    @settings(max_examples=100, deadline=None)
    @given(**SWEEP_CASES, member=st.integers(0, 16), delta=st.sampled_from([1e-3, 0.1, 0.5]))
    def test_certificate_refuses_one_violating_member(self, seed, s, scale, negative, squeeze,
                                                      member, delta):
        # a member with d_min = (1 - delta)/2, squeezed, amid valid channel outputs: the stack is
        # refused with check_psd_pair's lambda_min for it, as the spectrum route refuses it
        space, family, channel = _sweep_case(seed, s, scale, negative, squeeze)
        covs = _sweep_outputs(channel, family, BETAS)[1]
        _certify_uncertainty(covs, space)
        rng = np.random.default_rng(seed)
        d = 0.5 + rng.uniform(0.0, 2.0, s)
        d[0] = 0.5 * (1.0 - delta)
        sym = random_symplectic(rng, space, scale=squeeze)
        bad = sym.T @ np.diag(np.repeat(d, 2)) @ sym
        covs[member] = 0.5 * (bad + bad.T)
        ok, lam_min = check_psd_pair(covs[member], space.delta)
        assert not ok
        for route in (_certify_uncertainty, _checked_spectra):
            with pytest.raises(UncertaintyViolatedError) as err:
                route(covs, space)
            assert err.value.lambda_min == lam_min

    def test_violating_channel_refused_alike_at_every_q(self):
        # mu below the CP threshold, built around validate_channel: the near-vacuum outputs at
        # large beta violate uncertainty, and q = 1 refuses the first of them as q = 1.5 does
        space, family, channel = _sweep_case(3, 2, 1.0, True, 0.5)
        broken = GaussianChannel(space=space, K=channel.K, l=channel.l, mu=0.0 * channel.mu)
        betas = np.geomspace(1e1, 1e-5, 19)
        covs = _sweep_outputs(broken, family, betas)[1]
        verdicts = [check_psd_pair(cov, space.delta) for cov in covs]
        first = next(lam for ok, lam in verdicts if not ok)
        for q in (1.0, 1.5):
            with pytest.raises(UncertaintyViolatedError) as err:
                divergence_exponent(broken, family, q, 2.0, betas)
            assert err.value.lambda_min == first

    def test_non_finite_outputs_refused_by_name(self):
        # K^T alpha K overflows for K = 1e152 I (mu = 1e304 I keeps the channel CP): both routes
        # refuse the output stack as not finite, never as a failed factorization, and with no
        # numpy warning on the way
        space = standard_form(1)
        channel = validate_channel(1e152 * np.eye(2), np.zeros(2), 1e304 * np.eye(2), space)
        family = GibbsFamily(space, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep in (lambda: ratio_sequence(channel, family, 1.5, BETAS),
                          lambda: ratio_sequence(channel, family, 2.0, BETAS),
                          lambda: divergence_exponent(channel, family, 1.0, 2.0, BETAS),
                          lambda: divergence_exponent(channel, family, 1.5, 2.0, BETAS)):
                with pytest.raises(DomainError, match="^covariance matrix must be finite$"):
                    sweep()

    def test_finite_outputs_whose_sum_overflows(self):
        # mu = 1e307 I: every output entry is finite but their sum is not; q = 1 tests finiteness
        # on the largest entry and ends like q = 1.5, with no numpy warning
        space = standard_form(1)
        channel = validate_channel(np.eye(2), np.zeros(2), 1e307 * np.eye(2), space)
        family = GibbsFamily(space, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in (1.0, 1.5):
                assert divergence_exponent(channel, family, q, 2.0, BETAS).verdict == "diverges"


def _squeezed_stack(seed, s, squeeze, members):
    """(space, covs): covariances S^T diag(d, d) S with S = O1 Z O2 (passive O1, O2, squeezes
    |r_j| <= squeeze) and d_j - 1/2 log-uniform in [1e-9, 1e6 - 1/2]."""
    rng = np.random.default_rng(seed)
    space = standard_form(s)
    covs = []
    for _ in range(members):
        d = 0.5 + np.exp(rng.uniform(math.log(1e-9), math.log(1e6 - 0.5), s))
        r = squeeze * rng.uniform(-1.0, 1.0, s)
        z = np.diag(np.exp(np.repeat(r, 2) * np.tile([1.0, -1.0], s)))
        sym = random_passive_symplectic(rng, space) @ z @ random_passive_symplectic(rng, space)
        cov = sym.T @ np.diag(np.repeat(d, 2)) @ sym
        covs.append(0.5 * (cov + cov.T))
    return space, np.array(covs)


def _log_tr_ulp(covs, log_tr):
    # one ulp of log Tr rho^p per member, widened by the conditioning both routes inherit:
    # rounding alpha by eps ||alpha|| moves log det alpha by up to 2s eps cond(alpha)
    return EPS * (np.maximum(1.0, abs(log_tr)) + covs.shape[-1] * np.linalg.cond(covs))


def _spectrum_route(covs, space, p):
    return _log_tr_rho_p(_checked_spectra(covs, space), p)


def _refusal(route):
    with pytest.raises(GaussNormError) as err:
        route()
    return type(err.value), str(err.value), getattr(err.value, "lambda_min", None)


def _log_tr_mp(cov, p):
    """-sum_j log f_p(d_j) at 40 digits, d_j read from the eigenvalues +-i d_j of Delta alpha."""
    space = standard_form(len(cov) // 2)
    with mpmath.workdps(40):
        eigs = mpmath.eig(mpmath.matrix((space.delta @ cov).tolist()), left=False, right=False)
        ds = sorted(abs(mpmath.im(lam)) for lam in eigs)[::2]
        return float(-sum(mpmath.log((d + 0.5) ** p - (d - 0.5) ** p) for d in ds))


class TestDeterminantRoute:
    """log Tr rho^p of an output stack from real determinants at p in {1, 2, 3, 4}."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 16), squeeze=st.floats(0.0, 3.0),
           p=st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    def test_agrees_with_spectrum_route(self, seed, s, squeeze, p):
        # where the spectrum route can tell d_min from 1/2 both routes agree to a few ulps of
        # their common error scale; where it cannot, both refuse with its message
        space, covs = _squeezed_stack(seed, s, squeeze, 17)
        try:
            expected = _spectrum_route(covs, space, p)
        except GaussNormError:
            assert _refusal(lambda: _log_tr_rho_p_covs(covs, space, p)) == _refusal(
                lambda: _spectrum_route(covs, space, p))
            return
        got = _log_tr_rho_p_covs(covs, space, p)
        assert (abs(got - expected) <= 8.0 * _log_tr_ulp(covs, expected)).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 2), squeeze=st.floats(0.0, 3.0))
    def test_agrees_with_mpmath(self, seed, s, squeeze):
        # against the 40-digit spectrum of the same float matrices, the determinant route's
        # error is of the order of the spectrum route's
        space, covs = _squeezed_stack(seed, s, squeeze, 4)
        for p in (1.0, 2.0, 3.0, 4.0):
            try:
                by_spectra = _spectrum_route(covs, space, p)
            except GaussNormError:  # both routes refuse alike: test_agrees_with_spectrum_route
                continue
            exact = np.array([_log_tr_mp(cov, p) for cov in covs])
            ulp = _log_tr_ulp(covs, exact)
            assert (abs(_log_tr_rho_p_covs(covs, space, p) - exact) <= 4.0 * ulp).all()
            assert (abs(by_spectra - exact) <= 8.0 * ulp).all()

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_refusals_match_spectrum_route(self, p):
        # a member below the uncertainty bound, one with no Cholesky factor (the r = 18 squeezed
        # vacuum) and non-finite members: the same error type, message and lambda_min as the
        # spectrum route, with no numpy warning
        space, covs = _squeezed_stack(5, 1, 1.0, 6)
        c, sn = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -sn], [sn, c]])
        bad = {"violating": 0.45 * rot @ np.diag([4.0, 0.25]) @ rot.T,
               "no factor": rot @ np.diag([math.exp(36.0), math.exp(-36.0)]) @ rot.T / 2,
               "nan": np.full((2, 2), math.nan),
               "inf": np.diag([math.inf, 1.0])}
        expected = {"violating": UncertaintyViolatedError, "no factor": DomainError,
                    "nan": DomainError, "inf": DomainError}
        for name, member in bad.items():
            stack = covs.copy()
            stack[3] = member
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                refusal = _refusal(lambda: _log_tr_rho_p_covs(stack, space, p))
                assert refusal == _refusal(lambda: _spectrum_route(stack, space, p))
            assert refusal[0] is expected[name], name

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_member_refused_by_name(self, p, bad):
        # an off-diagonal NaN, +inf or -inf pair: max |alpha_ij| is not finite, and neither is
        # max(max alpha_ij, -min alpha_ij).  The -inf pair at (0, 3) passes both Choleskys with
        # NaN in the factor, so a finiteness test of max alpha_ij alone would return a NaN log Tr
        space, covs = _squeezed_stack(7, 2, 1.0, 17)
        covs[9, 0, 3] = covs[9, 3, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^covariance matrix must be finite$"):
                _log_tr_rho_p_covs(covs, space, p)

    def test_peak_allocation_within_three_stacks(self):
        # at s = 16 on 17 betas, the peak of one estimator call is one real (B, 2s, 2s) stack (the
        # outputs) and two complex ones (the certificate's input and its factor); the 32 KiB slack
        # covers the (B, s) spectra and the (2s, 2s) matrices, which take 4 KiB here.  A real
        # factor alive beside the complex pair adds a real stack, 136 KiB
        _, family, channel = _sweep_case(11, 16, 1.0, False, 0.5)
        real_stack = len(BETAS) * 32 * 32 * 8
        bound = 5 * real_stack + 32 * 1024
        calls = {f"ratio_sequence p={p}": (lambda p=p: ratio_sequence(channel, family, p, BETAS))
                 for p in (1.0, 2.0, 3.0, 4.0)}
        calls["divergence_exponent q=1"] = lambda: divergence_exponent(channel, family, 1.0, 2.0, BETAS)
        for name, call in calls.items():
            call()  # caches of the space and the family are built on first use
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"{name}: peak {peak} B > {bound} B"

    @settings(max_examples=50, deadline=None)
    @given(**SWEEP_CASES, p=st.sampled_from([2.0, 3.0, 4.0]))
    def test_no_eigensolve_at_integer_p(self, seed, s, scale, negative, squeeze, p):
        # the sweeps at integer p and q = 1 read every output from factorizations alone
        _, family, channel = _sweep_case(seed, s, scale, negative, squeeze)

        def refuse(*args, **kwargs):
            raise AssertionError("an output spectrum was solved")

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(np.linalg, "eigvalsh", refuse)
            ratio_sequence(channel, family, p, BETAS)
            for q in range(1, int(p)):
                divergence_exponent(channel, family, float(q), p, BETAS)

    @pytest.mark.parametrize("s", [1, 2, 16])
    def test_off_integer_p_solves_one_spectrum_stack(self, monkeypatch, s):
        space, covs = _squeezed_stack(s, s, 1.0, 17)
        calls = _count_calls(monkeypatch, gaussnorm.symplectic, "symplectic_spectrum")
        got = _log_tr_rho_p_covs(covs, space, 1.5)
        assert calls["shapes"] == [(17, 2 * s, 2 * s)]
        assert got.tobytes() == _spectrum_route(covs, space, 1.5).tobytes()


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
