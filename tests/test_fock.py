"""Truncated Fock-space oracle: internal consistency and closed-form agreement."""

import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from gaussnorm import (
    char_function,
    power_char_function,
    standard_form,
    tr_rho_p,
    validate_state,
)
from gaussnorm import fock
from gaussnorm.errors import (
    DomainError,
    NotDensityOperatorError,
    TailTooLargeError,
    TruncationInsufficientError,
)
from gaussnorm.fock import (
    EIG_CLAMP,
    TruncatedOperator,
    apply_kraus,
    attenuate,
    attenuator_amplitudes,
    attenuator_kraus,
    char_function_fock,
    covariance_from_fock,
    default_n_max,
    doubling_check,
    matrix_power_fock,
    thermal_state_fock,
    tr_power_fock,
    weyl_operator,
)
from sampling import ladder_operators, quadratures


def thermal_gaussian(N, s=1):
    space = standard_form(s)
    return validate_state(np.zeros(2 * s), (N + 0.5) * np.eye(2 * s), space)


def test_oracle_imports_no_covariance_code():
    # the oracle is a real check only while it shares no code with the closed forms
    tree = ast.parse(Path(fock.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert parts.isdisjoint({"states", "channels", "symplectic"}), sorted(parts)


class TestLadderOperators:
    def test_smallest_truncation(self):
        a, _ = ladder_operators(1)
        np.testing.assert_array_equal(a.matrix, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_number_operator(self):
        a, a_dag = ladder_operators(2)
        np.testing.assert_allclose(a_dag.matrix @ a.matrix, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_ccr_on_interior_block(self):
        n_max = 12
        q, p = quadratures(n_max)
        comm = q @ p - p @ q
        np.testing.assert_allclose(
            comm[:n_max, :n_max], 1j * np.eye(n_max + 1)[:n_max, :n_max], atol=1e-13
        )


class TestWeylOperator:
    def test_zero_displacement_is_identity(self):
        w = weyl_operator([0.0, 0.0], 20)
        np.testing.assert_array_equal(w.matrix, np.eye(21))

    @pytest.mark.parametrize("z", [(1.0, 0.0), (0.7, -0.3), (2.0, 2.0)])
    @pytest.mark.parametrize("n_max", [80, 160])
    def test_weyl_matches_expm_interior(self, n_max, z):
        # reference: the matrix exponential of the truncated generator, exact
        # only away from the cutoff
        q, p = quadratures(n_max)
        dense = expm(1j * (z[0] * q + z[1] * p))
        keep = n_max // 2
        w = weyl_operator(z, n_max).matrix
        np.testing.assert_allclose(w[:keep, :keep], dense[:keep, :keep], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("z", [(1.0, 0.0), (0.7, -0.3), (2.0, 2.0), (-1.5, 0.4)])
    def test_weyl_matches_laguerre(self, z):
        # <m|D|n> = alpha^(m-n) e^(-r/2) sqrt(n!/m!) L_n^(m-n)(r) for m >= n,
        # (-alpha*)^(n-m) with m and n swapped above the diagonal
        n_max = 60
        alpha = complex(-z[1], z[0]) / math.sqrt(2.0)
        r = abs(alpha) ** 2
        m, n = np.meshgrid(np.arange(n_max + 1), np.arange(n_max + 1), indexing="ij")
        low, high = np.minimum(m, n), np.maximum(m, n)
        k = high - low
        modulus = np.exp(-0.5 * r + 0.5 * (gammaln(low + 1.0) - gammaln(high + 1.0)))
        factor = np.where(m >= n, alpha**k, (-alpha.conjugate()) ** k)
        expected = factor * modulus * eval_genlaguerre(low, k, r)
        got = weyl_operator(z, n_max).matrix
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("z", [(60.0, 0.0), (1e200, 0.0), (math.nan, 0.0), (0.0, math.inf)])
    def test_unrepresentable_displacement_rejected(self, z):
        # e^(-|alpha|^2/2) would underflow to a silent zero matrix, or be NaN
        with pytest.raises(ValueError, match="alpha"):
            weyl_operator(z, 10)

    def test_vacuum_expectation_matches_char_function(self):
        vac = thermal_gaussian(0.0)
        for z in ([0.5, 0.0], [1.0, -1.0], [2.0, 2.0]):
            got = doubling_check(lambda n, z=z: weyl_operator(z, n).matrix[0, 0], 60)
            assert got == pytest.approx(char_function(vac, z), abs=1e-8)

    def test_unitary_on_interior_block(self):
        n_max, keep = 60, 30
        w = weyl_operator([0.7, -0.3], n_max)
        prod = w.matrix @ weyl_operator([-0.7, 0.3], n_max).matrix
        np.testing.assert_allclose(prod[:keep, :keep], np.eye(n_max + 1)[:keep, :keep], atol=1e-10)


class TestThermalStateFock:
    def test_vacuum_projector(self):
        rho = thermal_state_fock(0.0, 10)
        expected = np.zeros((11, 11))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho.matrix.real, expected)

    def test_geometric_populations(self):
        rho = thermal_state_fock(1.0, 40)
        assert rho.matrix[0, 0].real == pytest.approx(0.5, rel=1e-14)
        assert rho.matrix[1, 1].real == pytest.approx(0.25, rel=1e-14)

    def test_tail_bound_documented_case(self):
        rho = thermal_state_fock(1.0, 80)
        tail = 1.0 - np.trace(rho.matrix).real
        assert tail == pytest.approx(2.0**-81, rel=1e-10)
        assert tail < 1e-12

    def test_tail_too_large_raises(self):
        with pytest.raises(TailTooLargeError):
            thermal_state_fock(3.0, 30)

    @pytest.mark.parametrize("N", [-1.0, math.nan, math.inf])
    def test_photon_number_outside_domain_rejected(self, N):
        # NaN once gave the vacuum and inf a NaN matrix with invalid-value warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="mean photon number"):
                thermal_state_fock(N, 10)

    def test_default_n_max(self):
        assert default_n_max(0.5) == 80
        assert default_n_max(3.0) == 160
        # above N = 3 the cutoff grows with the photon-number-weighted tail
        assert default_n_max(5.0) > 160
        assert default_n_max(6.0) > default_n_max(5.0)
        for N in (5.0, 6.0):
            n, r = default_n_max(N), N / (N + 1.0)
            assert (n + 1) * (N + 1.0) * r ** (n + 1) <= 1e-12 < n * (N + 1.0) * r**n


class TestTrPowerFock:
    def test_vacuum_any_p(self):
        rho = thermal_state_fock(0.0, 10)
        for p in (1.0, 1.5, 2.0, 7.0):
            assert tr_power_fock(rho, p) == pytest.approx(1.0, rel=1e-14)

    def test_thermal_geometric_series(self):
        rho = thermal_state_fock(1.0, 80)
        assert tr_power_fock(rho, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert tr_power_fock(rho, 3.0) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_not_density_operator_rejected(self):
        nan = math.nan
        for matrix, message in (
            (np.diag([2.0, 0.0, 0.0]), "trace"),
            (np.array([[0.5, 0.1, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]), "not Hermitian"),
            (np.diag([1.5, -0.5, 0.0]), "negative eigenvalue"),
            (np.diag([0.5 + 1e-6j, 0.5, 0.0]), "not Hermitian"),
            (np.diag([nan, 0.5, 0.5]), "not finite"),
            (np.diag([math.inf, 0.5, 0.5]), "not finite"),
            (np.array([[0.5, nan, 0.0], [nan, 0.5, 0.0], [0.0, 0.0, 0.0]]), "not finite"),
        ):
            # as one dense block, and a diagonal matrix also as 1x1 blocks
            layouts = [matrix[None]]
            if not np.any(matrix[~np.eye(3, dtype=bool)]):
                layouts.append(np.diagonal(matrix).reshape(-1, 1, 1))
            for blocks in layouts:
                bad = TruncatedOperator(blocks.astype(complex))
                with pytest.raises(NotDensityOperatorError, match=message):
                    tr_power_fock(bad, 2.0)
                with pytest.raises(NotDensityOperatorError, match=message):
                    matrix_power_fock(bad, 2.0)
                with pytest.raises(NotDensityOperatorError, match=message):
                    covariance_from_fock(bad)

    def test_diagonal_just_inside_hermitian_tolerance_accepted(self):
        # 1x1 blocks are checked on |B - B^H| = 2 |Im diag| against 1e-12 |diag|; an imaginary part
        # at 0.99 of the dense check's own limit |m - m^H| <= 1e-12 |m| still passes
        matrix = np.diag([0.5, 0.5, 0.0]).astype(complex)
        matrix[0, 0] += 0.99e-12 * np.linalg.norm(matrix) / 2.0 * 1j
        assert np.linalg.norm(matrix - matrix.conj().T) <= 1e-12 * np.linalg.norm(matrix)
        rho = TruncatedOperator(np.diagonal(matrix).reshape(-1, 1, 1))
        assert tr_power_fock(rho, 2.0) == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_array_equal(matrix_power_fock(rho, 1.0).matrix, np.diag([0.5, 0.5, 0.0]))
        covariance_from_fock(rho)

    def test_agreement_with_closed_form(self):
        # module invariant: <= 1e-8 absolute over N and p grids
        for N in (0.5, 1.0, 2.0, 3.0):
            state = thermal_gaussian(N)
            for p in (1.5, 2.0, 3.0, 4.5):
                oracle = doubling_check(
                    lambda n, N=N, p=p: tr_power_fock(thermal_state_fock(N, n), p),
                    default_n_max(N),
                )
                assert tr_rho_p(state, p) == pytest.approx(oracle, abs=1e-8)


class TestDiagonalSpectrum:
    """1x1 blocks give their diagonal as the spectrum, bit for bit as a dense eigensolve does."""

    @staticmethod
    def diagonal_states():
        for N in (0.0, 0.5, 1.0, 12.0):
            yield thermal_state_fock(N, default_n_max(N))
        for tau in (0.3, 1.0):
            yield attenuate(tau, thermal_state_fock(1.0, 80))
        # repeated entries, and entries below EIG_CLAMP, one of them slightly negative
        d = [0.3, 0.2, 0.3, 0.0, 0.2, 4e-16, 1e-16, -1e-14, 0.0, 2e-17]
        yield TruncatedOperator(np.array(d, dtype=complex).reshape(-1, 1, 1))

    def test_spectrum_and_powers_match_dense_eigensolve(self):
        for rho in self.diagonal_states():
            np.testing.assert_array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
            # the dense rho^p, clamped as matrix_power_fock clamps
            lam, u = np.linalg.eigh(rho.matrix)
            lam = np.where(lam < EIG_CLAMP, 0.0, lam)
            for p in (1.0, 1.5, 2.0, 7.3):
                np.testing.assert_array_equal(matrix_power_fock(rho, p).matrix, (u * lam**p) @ u.conj().T)

    def test_tiny_off_diagonal_takes_dense_path(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(m):
            calls.append(m.shape)
            return eigh(m)

        # the layout, set by the builder, decides: 1x1 blocks take 1x1 eigensolves, and a dense
        # block a dense one, however small its off-diagonal entries
        monkeypatch.setattr(np.linalg, "eigh", counted)
        matrix = np.diag([0.5, 0.5, 0.0]).astype(complex)
        matrix_power_fock(TruncatedOperator(np.diagonal(matrix).reshape(-1, 1, 1)), 2.0)
        assert calls == [(3, 1, 1)]
        matrix[0, 1] = matrix[1, 0] = 1e-300
        matrix_power_fock(TruncatedOperator(matrix[None]), 2.0)
        assert calls == [(3, 1, 1), (1, 3, 3)]


def assert_same_bits(a, b):
    # bit for bit, the sign of every zero included
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestLayouts:
    """A phase-covariant state as 1x1 blocks and as one dense block: every fock function agrees bit for bit."""

    @pytest.mark.parametrize("n_max", [1, 40, 160])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("which", ["thermal", "power", "attenuated"])
    def test_one_dense_block_gives_the_same_bits(self, which, tau, n_max):
        N = {1: 1e-7, 40: 0.5, 160: 3.0}[n_max]  # each within the tail bound at its cutoff
        rho = thermal_state_fock(N, n_max)
        if which == "power":
            power = matrix_power_fock(rho, 2.5)
            rho = TruncatedOperator(power.blocks / power.trace().real)
        elif which == "attenuated":
            rho = attenuate(tau, rho)
        dense = TruncatedOperator(rho.matrix[None])
        assert rho.blocks.shape == (n_max + 1, 1, 1)
        assert_same_bits(rho.trace(), dense.trace())
        assert_same_bits(rho.spectrum, dense.spectrum)
        for p in (1.0, 1.5, 2.0, 7.3):
            assert_same_bits(tr_power_fock(rho, p), tr_power_fock(dense, p))
            assert_same_bits(matrix_power_fock(rho, p).matrix, matrix_power_fock(dense, p).matrix)
        out, dense_out = attenuate(tau, rho), attenuate(tau, dense)
        assert out.blocks.shape == rho.blocks.shape and dense_out.blocks.shape == dense.blocks.shape
        assert_same_bits(out.matrix, dense_out.matrix)
        for z in ([0.0, 0.0], [1.0, 0.0], [0.5, -1.0], [-1.5, 0.7]):
            assert_same_bits(char_function_fock(rho, z), char_function_fock(dense, z))
        for got, ref in zip(covariance_from_fock(rho), covariance_from_fock(dense)):
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("layout", ["1x1 blocks", "one dense block"])
    def test_real_stack_gives_the_complex_results(self, layout):
        # a real stack is stored as complex, so every fock function sees the same operator
        if layout == "1x1 blocks":
            real = np.full((5, 1, 1), 0.2)
        else:
            # displaced along a real alpha: the matrix of W has no imaginary part
            real = displaced_thermal(0.25, [0.0, -0.6], 40).matrix.real[None]
        rho, twin = TruncatedOperator(real), TruncatedOperator(real.astype(complex))
        assert rho.blocks.dtype == complex and rho.blocks.shape == real.shape
        assert_same_bits(attenuate(0.5, rho).matrix, attenuate(0.5, twin).matrix)
        assert_same_bits(rho.spectrum, twin.spectrum)
        for got, ref in zip(covariance_from_fock(rho), covariance_from_fock(twin)):
            assert_same_bits(got, ref)
        if layout == "1x1 blocks":
            # out[m] = 0.2 sum_{i >= m} binom(i, m) / 2^i
            expected = [0.3875, 0.325, 0.2, 0.075, 0.0125]
            np.testing.assert_allclose(attenuate(0.5, rho).blocks.ravel(), expected, rtol=0, atol=1e-16)


class TestCharFunctionFock:
    def test_trace_at_zero(self):
        rho = thermal_state_fock(1.0, 80)
        got = char_function_fock(rho, [0.0, 0.0])
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_thermal_gaussian_value(self):
        # exp(-(1/2)(3/2)|z|^2) at z = (1, 0)
        oracle = doubling_check(
            lambda n: char_function_fock(thermal_state_fock(1.0, n), [1.0, 0.0]),
            80,
        )
        assert oracle == pytest.approx(math.exp(-0.75), abs=1e-10)

    def test_grid_agreement_with_char_function(self):
        # module invariant: <= 1e-8 on the 5x5 grid z in [-2, 2]^2
        n_max = 80
        for N in (0.0, 1.0):
            state = thermal_gaussian(N)
            rho = thermal_state_fock(N, n_max)
            for x in np.linspace(-2.0, 2.0, 5):
                for y in np.linspace(-2.0, 2.0, 5):
                    got = char_function_fock(rho, [x, y])
                    assert abs(got - char_function(state, [x, y])) <= 1e-8

    def test_normalized_square_validates_g2(self):
        # rho^2 normalized is thermal with symplectic eigenvalue 5/6 at N = 1
        def build(n):
            squared = matrix_power_fock(thermal_state_fock(1.0, n), 2.0)
            normalized = TruncatedOperator(squared.blocks / squared.trace().real)
            return char_function_fock(normalized, [1.0, 0.0])

        oracle = doubling_check(build, 80)
        assert oracle == pytest.approx(math.exp(-0.5 * 5.0 / 6.0), abs=1e-10)

    @pytest.mark.parametrize("which", ["vacuum", "thermal", "displaced thermal"])
    def test_matches_dense_weyl_operator(self, which):
        # reference: Tr(rho W) as an elementwise sum with the dense W, on the 5x5 grid; the
        # displaced thermal state, which the oracle never takes, is one dense block
        if which == "displaced thermal":
            n_max, rho = 40, displaced_thermal(0.25, [0.8, -0.6], 40)
            assert rho.blocks.shape == (1, n_max + 1, n_max + 1)
        else:
            n_max, rho = 80, thermal_state_fock(0.0 if which == "vacuum" else 1.0, 80)
            assert rho.blocks.shape == (n_max + 1, 1, 1)
        for x in np.linspace(-2.0, 2.0, 5):
            for y in np.linspace(-2.0, 2.0, 5):
                dense = np.sum(rho.matrix.T * weyl_operator([x, y], n_max).matrix)
                assert abs(char_function_fock(rho, [x, y]) - dense) <= 1e-15


def displaced_thermal(N, w_vec, n_max):
    wop = weyl_operator(w_vec, n_max).matrix
    return TruncatedOperator((wop @ thermal_state_fock(N, n_max).matrix @ wop.conj().T)[None])


class TestAttenuatorKraus:
    def test_full_transmission_is_identity(self):
        # tau = 1 must not form 0 * log(0) on the way
        with np.errstate(all="raise"):
            ops = attenuator_kraus(1.0, 20)
            amp = attenuator_amplitudes(1.0, 20)
        assert len(ops) == 1
        np.testing.assert_allclose(ops[0].matrix, np.eye(21), atol=1e-14)
        assert_same_bits(amp, np.eye(21))
        # the table in matrix layout, C[m, i] = <m|A_(i-m)|i>: below full transmission it fills
        # i >= m, is +0.0 below the diagonal, and its j-th superdiagonal is A_j's
        amp = attenuator_amplitudes(0.5, 20)
        upper = np.subtract.outer(np.arange(21), np.arange(21)) <= 0
        assert np.all(amp[upper] > 0.0)
        assert_same_bits(amp[~upper], np.zeros(np.count_nonzero(~upper)))
        for j, op in enumerate(attenuator_kraus(0.5, 20)):
            np.testing.assert_array_equal(np.diagonal(op.matrix, j), np.diagonal(amp, j))

    def test_amplitude_completeness(self):
        # sum_j A_j^dag A_j = I: <i|...|i> = sum_m C[m, i]^2, column i of the transfer matrix C * C
        for tau in (0.3, 0.5, 0.9, 1.0):
            amp = attenuator_amplitudes(tau, 160)
            np.testing.assert_allclose((amp * amp).sum(axis=0), np.ones(161), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_max", [160, 1280])
    @pytest.mark.parametrize("tau", [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12])
    def test_transfer_matrix_column_identities(self, tau, n_max):
        # column i of T = C * C is the binomial law of the photons kept out of i: it sums to 1 and
        # has mean tau i.  At the extremes of tau these hold to 1e-14, which an exponent that rounds
        # m log tau or i log(1 - tau) against a log factorial (or against each other) does not reach
        transfer = attenuator_amplitudes(tau, n_max) ** 2
        i = np.arange(n_max + 1.0)
        tol = 4e-15 * (n_max + 1) if 0.01 < tau < 0.99 else 1e-14
        assert np.max(np.abs(transfer.sum(axis=0) - 1.0)) <= tol
        assert np.max(np.abs(i @ transfer - tau * i) / np.maximum(i, 1.0)) <= tol

    @pytest.mark.parametrize("n_max, N", [(160, 3.0), (640, 12.0)])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_thermal_output_matches_exact_binomial_sum(self, tau, n_max, N):
        # independent of the table: out[m] = sum_i binom(i, m) tau^m (1 - tau)^(i - m) p_i at 40
        # digits, on the very p_i attenuate reads, every 16th row.  The relative bound holds where
        # the exact value is a normal double; deeper rows underflow, as tau^m does at tau = 0.1
        rho = thermal_state_fock(N, n_max)
        p, got = rho.blocks.real.ravel(), attenuate(tau, rho).blocks.ravel()
        assert not got.imag.any()
        with mpmath.workdps(40):
            kept, lost = mpmath.mpf(tau), 1 - mpmath.mpf(tau)
            for m in range(0, n_max + 1, 16):
                weight, exact = kept**m, mpmath.mpf(0)  # binom(i, m) tau^m (1 - tau)^(i - m) from i = m
                for i in range(m, n_max + 1):
                    exact += weight * p[i]
                    weight *= mpmath.mpf(i + 1) / (i + 1 - m) * lost
                error = abs(mpmath.mpf(got.real[m]) - exact)
                assert error <= 1e-15, m
                if exact >= np.finfo(float).tiny:
                    assert error <= 2e-12 * exact, m

    @pytest.mark.parametrize("n_max", [20, 40])
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.9, 1.0])
    def test_banded_matches_dense(self, n_max, tau):
        rho = displaced_thermal(0.25, [0.8, -0.6], n_max)
        dense = apply_kraus(attenuator_kraus(tau, n_max), rho)
        banded = attenuate(tau, rho)
        assert banded.n_max == n_max
        np.testing.assert_allclose(banded.matrix, dense.matrix, rtol=0, atol=1e-14)

    def test_band_maps_to_itself(self):
        # phase covariance: input on diagonals {0, +-3} gives output there and nowhere else
        n_max = 30
        rng = np.random.default_rng(3)
        matrix = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        for k in (0, 3, -3):
            size = n_max + 1 - abs(k)
            matrix += np.diag(rng.standard_normal(size) + 1j * rng.standard_normal(size), k)
        rho = TruncatedOperator(matrix[None])
        out = attenuate(0.4, rho)
        banded = out.matrix
        dense = apply_kraus(attenuator_kraus(0.4, n_max), rho).matrix
        np.testing.assert_allclose(banded, dense, rtol=0, atol=1e-14)
        offset = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
        np.testing.assert_array_equal(banded[~np.isin(offset, (0, 3, -3))], 0.0)
        # the output keeps the input's layout: one dense block
        assert out.blocks.shape == (1, n_max + 1, n_max + 1)

    def test_non_hermitian_input(self):
        w = weyl_operator([0.7, -0.3], 40)
        dense = apply_kraus(attenuator_kraus(0.6, 40), w)
        np.testing.assert_allclose(attenuate(0.6, w).matrix, dense.matrix, rtol=0, atol=1e-14)

    def test_thermal_input_at_n_max_160(self):
        rho = thermal_state_fock(1.0, 160)
        dense = apply_kraus(attenuator_kraus(0.3, 160), rho)
        np.testing.assert_allclose(attenuate(0.3, rho).matrix, dense.matrix, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, math.nan])
    def test_transmissivity_outside_domain_rejected(self, tau):
        with pytest.raises(ValueError):
            attenuate(tau, thermal_state_fock(0.0, 4))
        with pytest.raises(ValueError):
            attenuator_kraus(tau, 4)

    def test_completeness(self):
        n_max = 40
        ops = attenuator_kraus(0.5, n_max)
        total = sum(op.matrix.conj().T @ op.matrix for op in ops)
        np.testing.assert_allclose(total, np.eye(n_max + 1), atol=1e-10)

    def test_vacuum_fixed_point(self):
        for tau in (0.3, 0.7):
            ops = attenuator_kraus(tau, 20)
            vac = thermal_state_fock(0.0, 20)
            out = apply_kraus(ops, vac)
            np.testing.assert_allclose(out.matrix, vac.matrix, atol=1e-13)

    def test_identity_kraus_preserves_state(self):
        rho = thermal_state_fock(1.0, 60)
        out = apply_kraus(attenuator_kraus(1.0, 60), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_thermal_to_thermal(self):
        # tau = 0.5 on N = 1 gives N = 0.5, i.e. d' = 1, and Tr out^2 = 1/2
        rho = thermal_state_fock(1.0, 80)
        out = apply_kraus(attenuator_kraus(0.5, 80), rho)
        expected = thermal_state_fock(0.5, 80)
        np.testing.assert_allclose(out.matrix, expected.matrix, atol=1e-13)
        assert tr_power_fock(out, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_trace_preserved(self):
        rho = thermal_state_fock(2.0, 160)
        out = apply_kraus(attenuator_kraus(0.3, 160), rho)
        assert np.trace(out.matrix).real == pytest.approx(np.trace(rho.matrix).real, abs=1e-12)


class TestCovarianceFromFock:
    def test_vacuum_moments(self):
        mean, cov = covariance_from_fock(thermal_state_fock(0.0, 20))
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-13)

    def test_thermal_moments(self):
        mean, cov = covariance_from_fock(thermal_state_fock(1.0, 80))
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-13)
        np.testing.assert_allclose(cov, 1.5 * np.eye(2), atol=1e-11)

    def test_kraus_output_matches_covariance_rule(self):
        # module invariant: oracle covariance matches K^T alpha K + mu to 1e-8
        space = standard_form(1)
        for tau in (0.3, 0.5, 0.9):
            for N in (0.5, 1.0, 2.0):
                def build(n, tau=tau, N=N):
                    return covariance_from_fock(attenuate(tau, thermal_state_fock(N, n)))[1]
                cov = doubling_check(build, default_n_max(N))
                expected = (tau * (N + 0.5) + (1.0 - tau) / 2.0) * np.eye(2)
                assert np.max(np.abs(cov - expected)) <= 1e-8

    def test_displaced_vacuum_mean(self):
        # W(w) |0><0| W(w)^dag has mean -Delta w; attenuation scales it by sqrt(tau)
        space = standard_form(1)
        w_vec = np.array([1.0, 0.0])
        expected_mean = -space.delta @ w_vec

        def displaced(n):
            vac = thermal_state_fock(0.0, n)
            wop = weyl_operator(w_vec, n)
            return TruncatedOperator((wop.matrix @ vac.matrix @ wop.matrix.conj().T)[None])

        mean = doubling_check(lambda n: covariance_from_fock(displaced(n))[0], 60)
        np.testing.assert_allclose(mean, expected_mean, atol=1e-8)

        tau = 0.5
        mean_out = doubling_check(
            lambda n: covariance_from_fock(apply_kraus(attenuator_kraus(tau, n), displaced(n)))[0],
            60,
        )
        np.testing.assert_allclose(mean_out, math.sqrt(tau) * expected_mean, atol=1e-8)


    @pytest.mark.parametrize("which", ["displaced thermal", "attenuated"])
    def test_banded_moments_match_dense(self, which):
        # reference: Tr rho (R_i - m_i)(R_k - m_k) + (k <-> i) from dense products
        n_max = 40
        rho = displaced_thermal(0.25, [0.8, -0.6], n_max)
        if which == "attenuated":
            rho = attenuate(0.3, rho)
        q, p = quadratures(n_max)
        rho_t = rho.matrix.T
        mean = np.array([np.sum(rho_t * q).real, np.sum(rho_t * p).real])
        centred = (q - mean[0] * np.eye(n_max + 1), p - mean[1] * np.eye(n_max + 1))
        dense = np.array([[0.5 * np.sum(rho_t * (a @ b + b @ a)).real for b in centred]
                          for a in centred])
        got_mean, got_cov = covariance_from_fock(rho)
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got_cov, dense, rtol=0, atol=1e-14)


class TestDoublingCheck:
    def test_converged_quantity_passes(self):
        got = doubling_check(lambda n: tr_power_fock(thermal_state_fock(1.0, n), 2.0), 80)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_insufficient_truncation_detected(self):
        # a visibly unconverged trace: the N = 1 thermal diagonal 2^-(n+1), cut at n_max 8
        def build(n):
            rho = TruncatedOperator((0.5 ** np.arange(1.0, n + 2)).astype(complex).reshape(-1, 1, 1))
            return char_function_fock(rho, [0.0, 0.0])

        with pytest.raises(TruncationInsufficientError) as err:
            doubling_check(build, 8)
        assert err.value.suggested_n_max == 16

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # NaN and inf once passed: nan > 10 * tail_bound is false
        with pytest.raises(DomainError, match="n_max=10 "):
            doubling_check(lambda n: bad, 10)
        with pytest.raises(DomainError, match="n_max=20 "):
            doubling_check(lambda n: np.array([1.0, 1.0 if n == 10 else bad]), 10)


class TestPowerCharFunctionAgainstOracle:
    def test_unnormalized_power_char_grid(self):
        # Tr rho^p W(z) closed form vs dense matrix power, p in {1.5, 2, 3}, N <= 3
        for N, p in [(0.5, 1.5), (1.0, 2.0), (1.0, 3.0), (3.0, 2.0)]:
            state = thermal_gaussian(N)
            n_max = default_n_max(N)
            rho_p = matrix_power_fock(thermal_state_fock(N, n_max), p)
            for z in ([0.0, 0.0], [1.0, 0.0], [0.5, -1.0]):
                got = char_function_fock(rho_p, z)
                assert abs(got - power_char_function(state, p, z)) <= 1e-8

    def test_mean_dependence_on_displaced_thermal(self):
        # the closed form keeps the original mean in the exponent; check it on
        # W(w) rho_th W(w)^dag, whose mean is -Delta w
        space = standard_form(1)
        w_vec = np.array([0.8, -0.6])
        N, n_max = 1.0, 120
        state = validate_state(-space.delta @ w_vec, (N + 0.5) * np.eye(2), space)
        wop = weyl_operator(w_vec, n_max)
        displaced = TruncatedOperator((wop.matrix @ thermal_state_fock(N, n_max).matrix @ wop.matrix.conj().T)[None])
        squared = matrix_power_fock(displaced, 2.0)
        for z in ([1.0, 0.0], [0.5, -1.0], [-1.5, 0.7]):
            got = char_function_fock(squared, z)
            assert abs(got - power_char_function(state, 2.0, z)) <= 1e-8
