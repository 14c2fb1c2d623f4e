"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gaussnorm import (
    GibbsFamily,
    divergence_exponent,
    g_p,
    gibbs_asymptotic,
    gibbs_state,
    power_char_function,
    ratio_sequence,
    scaling_exponent,
    standard_form,
    tr_rho_p,
    upper_bound_check,
    validate_channel,
    validate_state,
)
from gaussnorm import fock
from sampling import random_channel, random_spd, random_state


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def thermal_gaussian(N, s=1):
    space = standard_form(s)
    return validate_state(np.zeros(2 * s), (N + 0.5) * np.eye(2 * s), space)


def attenuator(tau, s=1):
    space = standard_form(s)
    n = 2 * s
    return validate_channel(
        math.sqrt(tau) * np.eye(n), np.zeros(n), ((1.0 - tau) / 2.0) * np.eye(n), space
    )


def test_criterion_1_tr_rho_p_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for N in (0.5, 1.0, 2.0, 3.0):
        state = thermal_gaussian(N)
        for p in (1.5, 2.0, 3.0, 4.5):
            oracle = fock.doubling_check(
                lambda n, N=N, p=p: fock.tr_power_fock(fock.thermal_state_fock(N, n), p),
                fock.default_n_max(N),
            )
            worst = max(worst, abs(tr_rho_p(state, p) - oracle))
    anchor2 = abs(tr_rho_p(thermal_gaussian(1.0), 2.0) - 1.0 / 3.0)
    anchor3 = abs(tr_rho_p(thermal_gaussian(1.0), 3.0) - 1.0 / 7.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and anchor2 <= 1e-12 and anchor3 <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"Tr rho^p closed form vs Fock oracle: worst |diff| = {worst:.3e}, "
                   f"anchors 1/3 and 1/7 hit, {elapsed:.2f} s")


def test_criterion_2_g_p_certification():
    start = time.perf_counter()
    d = 1.5

    def oracle_power_eigenvalue(n):
        squared = fock.matrix_power_fock(fock.thermal_state_fock(1.0, n), 2.0).matrix
        _, cov = fock.covariance_from_fock(fock.TruncatedOperator(squared / np.trace(squared).real))
        return math.sqrt(np.linalg.det(cov))

    oracle_d2 = fock.doubling_check(oracle_power_eigenvalue, 80)
    eig_diff = abs(oracle_d2 - d * g_p(d, 2.0))
    anchor_diff = abs(d * g_p(d, 2.0) - 5.0 / 6.0)

    state = thermal_gaussian(1.0)
    n_max = 80
    rho_sq = fock.matrix_power_fock(fock.thermal_state_fock(1.0, n_max), 2.0)
    worst_grid = 0.0
    for x in np.linspace(-2.0, 2.0, 5):
        for y in np.linspace(-2.0, 2.0, 5):
            oracle_cf = fock.char_function_fock(rho_sq, [x, y])
            closed = power_char_function(state, 2.0, [x, y])
            worst_grid = max(worst_grid, abs(oracle_cf - closed))
    elapsed = time.perf_counter() - start
    ok = eig_diff <= 1e-8 and anchor_diff <= 1e-12 and worst_grid <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"g_p certified: oracle power eigenvalue vs d*g_2(d) diff = {eig_diff:.3e} "
                   f"(value 5/6), power CF grid worst = {worst_grid:.3e}, {elapsed:.2f} s")


def test_criterion_3_theorem_achievability():
    start = time.perf_counter()
    family = GibbsFamily(standard_form(1), np.eye(2))
    channel = attenuator(0.5)
    report = ratio_sequence(channel, family, 2.0, [1e-3, 1e-5])
    ok_coarse = report.relative_errors[0] <= 1e-3
    ok_fine = report.relative_errors[1] <= 1e-5

    rng = np.random.default_rng(2024)
    combos = [(s, p) for s in (1, 2, 3) for p in (1.5, 2.0, 4.0)]
    worst_rand = 0.0
    for i in range(20):
        s, p = combos[i % len(combos)]
        space = standard_form(s)
        abs_det = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        chan = random_channel(rng, space, abs_det=abs_det, mu_slack=0.05, shift_scale=0.5)
        fam = GibbsFamily(space, np.eye(2 * s))
        rep = ratio_sequence(chan, fam, p, np.geomspace(1e-1, 1e-5, 17))
        worst_rand = max(worst_rand, float(rep.relative_errors[-1]))
    elapsed = time.perf_counter() - start
    ok = ok_coarse and ok_fine and worst_rand <= 1e-3 and elapsed < 60.0
    _report(3, ok, f"ratio -> |det K|^(1-p): attenuator rel err {report.relative_errors[0]:.3e} "
                   f"(beta 1e-3), {report.relative_errors[1]:.3e} (beta 1e-5); "
                   f"20 random K worst {worst_rand:.3e} at beta 1e-5, {elapsed:.2f} s")


def test_criterion_4_upper_bound():
    rng = np.random.default_rng(4096)
    channels = [
        (attenuator(0.5), 2.0),
        (attenuator(0.3), 1.5),
        (random_channel(rng, standard_form(1), noise_scale=0.2, shift_scale=1.0), 4.0),
        (random_channel(rng, standard_form(2), noise_scale=0.2), 2.0),
        (random_channel(rng, standard_form(2)), math.inf),
    ]
    violations = 0
    worst_margin = math.inf
    for channel, p in channels:
        space = channel.space
        states = [random_state(rng, space, d_range=(0.5, 6.0)) for _ in range(200)]
        oks, margin = upper_bound_check(channel, states, p, slack=1e-10)
        violations += sum(not ok for ok in oks)
        worst_margin = min(worst_margin, margin)
    ok = violations == 0
    _report(4, ok, f"||Phi[rho]||_p <= |det K|^(1/p-1) ||rho||_p over "
                   f"{200 * len(channels)} states: {violations} violations, "
                   f"worst margin {worst_margin:.3e}")


def test_criterion_5_kraus_covariance_equivalence():
    worst_cov = 0.0
    for tau in (0.3, 0.5, 0.9):
        for N in (0.5, 1.0, 2.0):
            def build(n, tau=tau, N=N):
                out = fock.attenuate(tau, fock.thermal_state_fock(N, n))
                return fock.covariance_from_fock(out)[1]
            oracle_cov = fock.doubling_check(build, fock.default_n_max(N))
            expected = (tau * (N + 0.5) + (1.0 - tau) / 2.0) * np.eye(2)
            worst_cov = max(worst_cov, float(np.max(np.abs(oracle_cov - expected))))

    # mean rule on displaced vacuum: oracle mean -Delta w, then K^T m under attenuation
    space = standard_form(1)
    w_vec = np.array([1.0, 0.0])
    expected_mean = -space.delta @ w_vec

    def displaced(n):
        vac = fock.thermal_state_fock(0.0, n)
        wop = fock.weyl_operator(w_vec, n)
        return fock.TruncatedOperator(wop.matrix @ vac.matrix @ wop.matrix.conj().T)

    mean0 = fock.doubling_check(lambda n: fock.covariance_from_fock(displaced(n))[0], 60)
    tau = 0.5
    mean1 = fock.doubling_check(
        lambda n: fock.covariance_from_fock(fock.attenuate(tau, displaced(n)))[0],
        60,
    )
    mean_err = max(
        float(np.max(np.abs(mean0 - expected_mean))),
        float(np.max(np.abs(mean1 - math.sqrt(tau) * expected_mean))),
    )
    ok = worst_cov <= 1e-8 and mean_err <= 1e-8
    _report(5, ok, f"Kraus oracle vs covariance rule: worst cov diff {worst_cov:.3e}, "
                   f"displaced-vacuum mean rule diff {mean_err:.3e}")


def test_criterion_6_scaling_laws():
    betas = np.geomspace(1e-1, 1e-5, 17)
    results = []
    for s, p in ((1, 2.0), (2, 2.0), (1, 3.0)):
        family = GibbsFamily(standard_form(s), np.eye(2 * s))
        fit = scaling_exponent(family, p, betas)
        results.append((s, p, fit.slope, fit.expected))
    scaling_ok = all(abs(slope - expected) <= 0.02 * expected for _, _, slope, expected in results)

    family = GibbsFamily(standard_form(1), np.eye(2))
    dfit = divergence_exponent(attenuator(0.5), family, 1.0, 2.0, betas)
    div_ok = abs(dfit.slope - (-0.5)) <= 0.02 * 0.5 and dfit.verdict == "diverges"
    ok = scaling_ok and div_ok
    shown = ", ".join(f"(s={s}, p={p}) {slope:.4f}/{expected:.2f}" for s, p, slope, expected in results)
    _report(6, ok, f"scaling exponents {shown}; divergence slope {dfit.slope:.4f} "
                   f"vs -0.5, verdict {dfit.verdict}")


def test_criterion_7_gibbs_asymptotics():
    beta = 1e-3
    rng = np.random.default_rng(7777)
    worst = 0.0
    matrices = [np.eye(2)] + [random_spd(rng, 2 * s, spectrum=(0.5, 2.0))
                              for s in (1, 1, 1, 2, 2, 2, 3, 3, 3, 3)]
    for eps in matrices:
        space = standard_form(eps.shape[0] // 2)
        family = GibbsFamily(space, eps)
        alpha = gibbs_state(family, beta).cov
        comparator = gibbs_asymptotic(family, beta)
        worst = max(worst, np.linalg.norm(alpha - comparator) / np.linalg.norm(alpha))
    ok = worst <= 1e-5
    _report(7, ok, f"||alpha_beta - (2 beta eps)^-1|| / ||alpha_beta|| worst = {worst:.3e} "
                   f"at beta = 1e-3 over identity + 10 random eps")


def test_criterion_8_property_suites_present():
    # the module invariants live in the sibling test files; spot-check that the
    # suite actually carries them so `pytest` runs every property entry
    here = Path(__file__).parent
    required = {
        "test_symplectic.py": [
            "test_square_identity",                 # matrix_abs squared = -(...)^2
            "test_invariant_under_symplectic_conjugation",
            "test_gibbs_covariance_symmetric",
            "test_identity_function_returns_input",
        ],
        "test_states.py": [
            "test_normalization_many_random_states",
            "test_purity_bound",
            "test_mean_invariance",
            "test_limit_consistency",
            "test_validity_across_beta_range",
        ],
        "test_channels.py": [
            "test_cp_implies_output_validity",
            "test_p_one_always_unit",
            "test_ratio_bounded_by_target",
            "test_composition_covariance",
            "test_covariance_determinant_ratio",
        ],
        "test_fock.py": [
            "test_insufficient_truncation_detected",
            "test_agreement_with_closed_form",
            "test_kraus_output_matches_covariance_rule",
            "test_grid_agreement_with_char_function",
        ],
        "test_cli.py": [
            "test_parse_serialize_parse_identity",
            "test_csv_deterministic",
        ],
    }
    missing = []
    for filename, names in required.items():
        text = (here / filename).read_text()
        missing.extend(f"{filename}:{name}" for name in names if f"def {name}" not in text)
    ok = not missing
    _report(8, ok, "module invariant suites all present in the test tree"
            if ok else f"missing property tests: {missing}")
