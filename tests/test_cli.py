"""CLI subcommands, config round-trips, CSV contract, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussnorm
from gaussnorm import (
    fock,
    gibbs_asymptotic,
    gibbs_state,
    ratio_sequence,
    scaling_exponent,
    standard_form,
    symplectic_spectrum,
)
from gaussnorm.cli import CSV_HEADER, build_parser, main
from gaussnorm.config import ChannelSpec, SweepSpec, parse_config, serialize_config
from gaussnorm.errors import ConfigError, DomainError
from sampling import random_symplectic


def attenuator_spec(tau=0.5, mu_scale=None):
    k = math.sqrt(tau)
    mu = (1.0 - tau) / 2.0 if mu_scale is None else mu_scale
    return ChannelSpec(
        s=1,
        K=[k, 0.0, 0.0, k],
        l=[0.0, 0.0],
        mu=[mu, 0.0, 0.0, mu],
        name=f"attenuator-{tau}",
    )


def write_config(path, spec, sweep=None):
    path.write_text(serialize_config(spec, sweep))
    return str(path)


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self):
        spec = attenuator_spec()
        sweep = SweepSpec(p=2.0, q=1.0, beta_start=0.01, beta_stop=1e-4, points=5,
                          output_path="x.csv")
        text = serialize_config(spec, sweep)
        spec2, sweep2 = parse_config(text)
        assert spec2 == spec
        assert sweep2 == sweep
        assert serialize_config(spec2, sweep2) == text

    def test_channel_only_round_trip(self):
        spec = attenuator_spec()
        spec2, sweep2 = parse_config(serialize_config(spec))
        assert spec2 == spec and sweep2 is None

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_wrong_matrix_length_rejected(self):
        with pytest.raises(ConfigError):
            ChannelSpec(s=1, K=[1.0, 0.0, 0.0], l=[0.0, 0.0], mu=[0.0] * 4)
        # the right length, but not numbers, or not an integer mode count
        with pytest.raises(ConfigError, match="K entries must be numbers"):
            ChannelSpec(s=1, K="abcd", l=[0.0, 0.0], mu=[0.0] * 4)
        with pytest.raises(ConfigError, match="l entries must be numbers"):
            ChannelSpec(s=1, K=[1.0, 0.0, 0.0, 1.0], l=[0.0, True], mu=[0.0] * 4)
        for s in (1.5, True):
            with pytest.raises(ConfigError, match="mode count s must be an integer >= 1"):
                ChannelSpec(s=s, K=[1.0, 0.0, 0.0, 1.0], l=[0.0, 0.0], mu=[0.0] * 4)

    def test_bad_sweep_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(beta_start=1e-5, beta_stop=1e-1)
        with pytest.raises(ConfigError):
            SweepSpec(points=2)
        for points in (17.5, True):
            with pytest.raises(ConfigError, match="sweep points must be an integer >= 3"):
                SweepSpec(points=points)
        with pytest.raises(ConfigError, match="epsilon entries must be numbers"):
            SweepSpec(epsilon=["1", 0, 0, 1])
        for p in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=r"exponent p must lie in \[1, inf\)"):
                SweepSpec(p=p)

    @pytest.mark.parametrize("command", ["check", "norm", "converge", "scaling"])
    def test_sweep_exponent_below_one_exit_two(self, command, tmp_path, capsys):
        # the same refusal as --p 0.5, for every command that reads the config;
        # a fractional point count, a q that is not a number, an output path that
        # is not a string and a boolean p or beta (true would read as 1) are refused the same way
        for i, (changes, message) in enumerate((
                ({"p": 0.5}, "exponent p must lie in [1, inf)"),
                ({"p": True}, "exponent p must lie in [1, inf)"),
                ({"points": 17.5}, "sweep points must be an integer >= 3"),
                ({"q": "abc"}, "exponent q must be a number or null"),
                ({"q": True}, "exponent q must be a number or null"),
                ({"output_path": 5}, "output_path must be a string"),
                ({"beta_start": True, "beta_stop": 1e-3}, "need beta_start > beta_stop > 0"),
                ({"beta_start": 10.0, "beta_stop": True}, "need beta_start > beta_stop > 0"),
                ({"beta_start": math.inf}, "need beta_start > beta_stop > 0, both finite"))):
            doc = json.loads(serialize_config(attenuator_spec(), SweepSpec()))
            doc["sweep"].update(changes)
            path = tmp_path / f"case{i}.json"
            path.write_text(json.dumps(doc))
            assert main([command, str(path)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["converge", "scaling"])
    def test_infinite_beta_option_exit_two(self, command, tmp_path, capsys):
        # an infinite bound is refused with the config's own message, before any sweep runs
        cfg = write_config(tmp_path / "att.json", attenuator_spec(),
                           SweepSpec(output_path=str(tmp_path / "never.csv")))
        assert main([command, cfg, "--beta-start", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need beta_start > beta_stop > 0, both finite")
        assert err.count("error:") == 1 and not (tmp_path / "never.csv").exists()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"channel": {"s": 1, "K": [1, 0, 0, 1],
                                                 "l": [0, 0], "mu": [0, 0, 0, 0],
                                                 "tau": 0.5}}))


class TestCmdCheck:
    def test_valid_channel_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.json", attenuator_spec(), SweepSpec())
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "lambda_min" in out and "channel valid" in out and "sweep valid" in out

    def test_not_cp_exit_one_reports_lambda(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.json", attenuator_spec(mu_scale=0.1))
        assert main(["check", cfg]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        reported = float(out.split("lambda_min = ")[1].split(" ")[0])
        assert reported == pytest.approx(-0.15, abs=1e-12)

    def test_malformed_length_exit_two(self, tmp_path, capsys):
        # a short K, a string of the right length, a fractional or boolean mode count
        for s, K in ((1, [1.0, 0.0, 0.0]), (1, "abcd"), (1.5, [1.0] * 9), (True, [1.0, 0.0, 0.0, 1.0])):
            doc = {"channel": {"s": s, "K": K, "l": [0.0, 0.0], "mu": [0.0] * 4}}
            path = tmp_path / "c.json"
            path.write_text(json.dumps(doc))
            assert main(["check", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_config_exit_two(self, tmp_path):
        assert main(["check", str(tmp_path / "missing.json")]) == 2

    def test_asymmetric_mu_named(self, tmp_path, capsys):
        spec = attenuator_spec()
        spec = ChannelSpec(s=1, K=spec.K, l=spec.l, mu=[0.25, 0.1, 0.0, 0.25])
        assert main(["check", write_config(tmp_path / "asym.json", spec)]) == 1
        assert "mu is not symmetric within tolerance" in capsys.readouterr().err

    def test_cp_check_runs_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        cp_branches = gaussnorm.channels.cp_branches

        def counted(*args):
            calls.append(1)
            return cp_branches(*args)

        monkeypatch.setattr(gaussnorm.cli, "cp_branches", counted)
        monkeypatch.setattr(gaussnorm.channels, "cp_branches", counted)
        assert main(["check", write_config(tmp_path / "a.json", attenuator_spec())]) == 0
        assert "channel valid" in capsys.readouterr().out and len(calls) == 1
        # a NaN shift is still refused by name, after both branch lines
        doc = json.loads(serialize_config(attenuator_spec()))
        doc["channel"]["l"][1] = math.nan
        path = tmp_path / "nan_l.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("-> ok") == 2 and "channel valid" not in captured.out
        assert captured.err == "error: l must be finite\n" and len(calls) == 2

    def test_non_finite_k_named(self, tmp_path, capsys):
        doc = json.loads(serialize_config(attenuator_spec()))
        doc["channel"]["K"][0] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert "K must be finite" in capsys.readouterr().err


class TestCmdNorm:
    def test_identity_p2(self, tmp_path, capsys):
        spec = ChannelSpec(s=1, K=[1.0, 0.0, 0.0, 1.0], l=[0.0, 0.0], mu=[0.0] * 4)
        cfg = write_config(tmp_path / "id.json", spec)
        assert main(["norm", cfg, "--p", "2"]) == 0
        assert "norm_pp(p=2) = 1" in capsys.readouterr().out

    def test_attenuator_norms(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "att.json", attenuator_spec())
        assert main(["norm", cfg, "--p", "2"]) == 0
        value = float(capsys.readouterr().out.split("norm_pp(p=2) = ")[1])
        assert value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert main(["norm", cfg, "--p", "inf"]) == 0
        value = float(capsys.readouterr().out.split("norm_pp(p=inf) = ")[1])
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_singular_k_exit_one(self, tmp_path, capsys):
        spec = ChannelSpec(s=1, K=[1.0, 0.0, 0.0, 0.0], l=[0.0, 0.0],
                           mu=[1.0, 0.0, 0.0, 1.0])
        cfg = write_config(tmp_path / "sing.json", spec)
        assert main(["norm", cfg, "--p", "2"]) == 1
        assert "requires invertible K" in capsys.readouterr().err

    def test_overflowing_determinant_quiet(self, tmp_path):
        # s = 200 amplifier: det K = 40^200 prints as inf, with no numpy warning on stderr,
        # and the norm 40^-100 comes from log|det K|
        s = 200
        n = 2 * s
        spec = ChannelSpec(s=s, K=(math.sqrt(40.0) * np.eye(n)).ravel().tolist(), l=[0.0] * n,
                           mu=(20.0 * np.eye(n)).ravel().tolist())
        cfg = write_config(tmp_path / "amp.json", spec)
        src = str(Path(gaussnorm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "gaussnorm", "norm", cfg, "--p", "2"], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0 and result.stderr == ""
        assert "det_K = inf" in result.stdout
        value = float(result.stdout.split("norm_pp(p=2) = ")[1])
        assert value == pytest.approx(40.0**-100, rel=1e-12)


class TestCmdConverge:
    def test_attenuator_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "att.json", attenuator_spec(),
                           SweepSpec(p=2.0, output_path=str(tmp_path / "r.csv")))
        assert main(["converge", cfg]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 18
        last = [float(v) for v in lines[-1].split(",")]
        assert last[4] == pytest.approx(2.0, rel=1e-12)  # target
        assert last[5] <= 1e-4  # final rel_error on the default grid
        assert last[3] == pytest.approx(last[2] / last[1], rel=1e-12)  # ratio = tr_out/tr_in

    def test_identity_all_ratios_one(self, tmp_path):
        spec = ChannelSpec(s=1, K=[1.0, 0.0, 0.0, 1.0], l=[0.0, 0.0], mu=[0.0] * 4)
        out = tmp_path / "id.csv"
        cfg = write_config(tmp_path / "id.json", spec)
        assert main(["converge", cfg, "--points", "5", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            ratio, target = [float(v) for v in line.split(",")][3:5]
            assert ratio == pytest.approx(1.0, rel=1e-12)
            assert target == pytest.approx(1.0, rel=1e-12)

    def test_p_one_trivial(self, tmp_path):
        out = tmp_path / "p1.csv"
        cfg = write_config(tmp_path / "att.json", attenuator_spec())
        assert main(["converge", cfg, "--p", "1", "--points", "4", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            values = [float(v) for v in line.split(",")]
            assert values[3] == pytest.approx(1.0, rel=1e-12)
            assert values[4] == 1.0

    def test_tr_in_matches_gibbs_spectrum(self, tmp_path):
        # Gibbs spectrum coth(beta e_j)/2, and 1/f_p(coth(x)/2) = (2 sinh x)^p / (2 sinh(p x));
        # tr_out is exp of the report's log_tr_out
        e, p = np.array([0.7, 1.9]), 1.5
        s_mat = random_symplectic(np.random.default_rng(11), standard_form(2), scale=0.3)
        eps = s_mat.T @ np.diag(np.repeat(e, 2)) @ s_mat
        spec = ChannelSpec(s=2, K=(0.8 * np.eye(4)).ravel().tolist(), l=[0.0] * 4,
                           mu=(0.18 * np.eye(4)).ravel().tolist())
        out = tmp_path / "two.csv"
        sweep = SweepSpec(epsilon=(0.5 * (eps + eps.T)).ravel().tolist(), p=p)
        cfg = write_config(tmp_path / "two.json", spec, sweep)
        assert main(["converge", cfg, "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 17
        report = ratio_sequence(spec.to_channel(), sweep.family(spec.space()), p,
                                np.geomspace(sweep.beta_start, sweep.beta_stop, sweep.points))
        for (beta, tr_in, tr_out, *_), log_out in zip(rows, report.log_tr_out):
            x = beta * e
            expected = float(np.prod((2.0 * np.sinh(x)) ** p / (2.0 * np.sinh(p * x))))
            assert tr_in == pytest.approx(expected, rel=1e-12)
            assert tr_out == math.exp(log_out)

    def test_csv_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "att.json", attenuator_spec(),
                           SweepSpec(p=2.0, points=7))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["converge", cfg, "--out", str(out1)]) == 0
        assert main(["converge", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_target_overflow_exit_one(self, tmp_path, capsys):
        # s = 10, 10% attenuator, p = 40: |det K|^(1-p) = 10^390 is beyond a double
        s = 10
        n = 2 * s
        spec = ChannelSpec(s=s, K=(math.sqrt(0.1) * np.eye(n)).ravel().tolist(), l=[0.0] * n,
                           mu=(0.45 * np.eye(n)).ravel().tolist())
        out = tmp_path / "never.csv"
        cfg = write_config(tmp_path / "big.json", spec, SweepSpec(p=40.0, output_path=str(out)))
        assert main(["converge", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target |det K|^(1-p) is outside the double range")
        assert err.count("error:") == 1 and not out.exists()

    def test_no_partial_file_on_failure(self, tmp_path):
        # singular K fails before any CSV row is produced
        spec = ChannelSpec(s=1, K=[1.0, 0.0, 0.0, 0.0], l=[0.0, 0.0],
                           mu=[1.0, 0.0, 0.0, 1.0])
        out = tmp_path / "never.csv"
        cfg = write_config(tmp_path / "sing.json", spec)
        assert main(["converge", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_collapsed_grid_exit_one(self, tmp_path, capsys):
        # beta_start one ulp above beta_stop: the geometric grid is not strictly descending
        out = tmp_path / "never.csv"
        cfg = write_config(tmp_path / "att.json", attenuator_spec(), SweepSpec(output_path=str(out)))
        assert main(["converge", cfg, "--beta-start", "1.0000000000000002e-05",
                     "--beta-stop", "1e-05"]) == 1
        err = capsys.readouterr().err
        assert err == "error: betas must be strictly descending\n" and not out.exists()


class TestCmdScaling:
    def test_scaling_fit_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "att.json", attenuator_spec())
        assert main(["scaling", cfg, "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "expected = 0.5" in out

    def test_divergence_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "att.json", attenuator_spec())
        assert main(["scaling", cfg, "--p", "2", "--q", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict = diverges" in out
        assert "expected = -0.5" in out

    def test_grid_under_two_decades_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "att.json", attenuator_spec())
        assert main(["scaling", cfg, "--beta-start", "0.1", "--beta-stop", "0.0011"]) == 1
        assert capsys.readouterr().err == "error: beta grid must span at least two decades\n"


class TestCmdOracle:
    def test_default_parameters_pass(self, capsys):
        assert main(["oracle", "--tau", "0.5", "--N", "1", "--p", "2", "--n-max", "80"]) == 0
        out = capsys.readouterr().out
        assert "tr_rho_p" in out and "NO" not in out

    def test_p3_anchor(self, capsys):
        assert main(["oracle", "--N", "1", "--p", "3", "--n-max", "80"]) == 0
        out = capsys.readouterr().out
        assert "0.142857" in out

    @pytest.mark.parametrize("N", ["5", "6"])
    def test_default_cutoff_above_n3(self, N, capsys):
        # a flat 160 failed the doubling check at N = 5 and the tail check at N = 6
        assert main(["oracle", "--N", N]) == 0
        out = capsys.readouterr().out
        assert out.count(" yes") == 6 and "NO" not in out

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_invalid_cutoff_exit_one(self, n_max, capsys):
        assert main(["oracle", "--n-max", n_max, "--N", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cutoff" in err

    @pytest.mark.parametrize("tau", ["0", "-0.5", "1.5", "nan", "inf"])
    def test_invalid_tau_exit_one(self, tau, monkeypatch, capsys):
        # refused by the output build's first call, before any power of the thermal state
        def refuse(*args):
            raise AssertionError("a thermal power was built")

        monkeypatch.setattr(fock, "matrix_power_fock", refuse)
        assert main(["oracle", "--tau", tau, "--n-max", "80"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "transmissivity" in err

    @pytest.mark.parametrize("N", ["-1", "nan", "inf"])
    def test_invalid_photon_number_exit_one(self, N, capsys):
        assert main(["oracle", "--N", N]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: mean photon number must be finite and >= 0, got {float(N)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("p", ["0.5", "nan"])
    def test_invalid_exponent_exit_two_before_any_build(self, p, monkeypatch, capsys):
        # the exponent parser of norm, converge and scaling, ahead of every Fock build
        def refuse(*args):
            raise AssertionError("a Fock build ran")

        monkeypatch.setattr(fock, "doubling_check", refuse)
        assert main(["oracle", "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: exponent must be >= 1, got {float(p)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tau", ["0.9999993", "0.99999999", "0.999999999999"])
    def test_transmissivity_near_one_passes(self, tau, capsys):
        # mu = (1 - tau)/2 with K = fl(sqrt(tau)) was non-CP by one rounding where fl(sqrt(tau))^2 < tau
        assert main(["oracle", "--tau", tau]) == 0
        captured = capsys.readouterr()
        assert captured.out.count(" yes\n") == 6 and captured.err == ""

    def test_one_attenuated_state_per_cutoff(self, monkeypatch, capsys):
        calls = {"thermal_state_fock": [], "attenuate": [], "weyl_operator": [], "doubling_check": [],
                 "eigvalsh": [], "eigh": [], "count_nonzero": [], "nonzero": []}

        def counted(module, name, size):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name].append(size(*args))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(fock, "thermal_state_fock", lambda N, n_max: n_max)
        counted(fock, "attenuate", lambda tau, rho: rho.n_max)
        counted(fock, "weyl_operator", lambda z, n_max: n_max)
        counted(fock, "doubling_check", lambda build, n_max: n_max)
        counted(np.linalg, "eigvalsh", lambda a: a.shape[-1])
        counted(np.linalg, "eigh", lambda a: a.shape[-1])
        counted(np, "count_nonzero", np.ndim)
        counted(np, "nonzero", np.ndim)

        def dense(op):
            raise AssertionError("the oracle assembled a dense matrix")

        monkeypatch.setattr(fock.TruncatedOperator, "matrix", property(dense))
        assert main(["oracle", "--N", "1", "--n-max", "40"]) == 0
        assert capsys.readouterr().out.count(" yes") == 6
        # one doubling check over one build; per cutoff one thermal state, its one attenuated
        # state, whose one spectrum serves its trace row and its covariance density check, and
        # its one power rho^p, which serves the tr_rho_p row and the power char function; the char
        # rows read W only on rho's main diagonal and never form it.  Every state is stored as
        # 1x1 photon-number blocks, so each eigensolve is sized by its block (the closed forms'
        # are 2x2), none is larger than 1x1, and nothing scans the entries for a layout
        assert calls["doubling_check"] == [40]
        assert calls["thermal_state_fock"] == [40, 80]
        assert calls["attenuate"] == [40, 80]
        assert calls["weyl_operator"] == []
        assert [n for n in calls["eigvalsh"] if n != 2] == [1, 1]
        assert [n for n in calls["eigh"] if n != 2] == [1, 1]
        assert calls["count_nonzero"] == []
        assert calls["nonzero"] == []

    def test_infinite_exponent_refused_by_first_build(self, monkeypatch, capsys):
        # fock owns the oracle's exponent domain [1, inf): the coarse output build refuses p = inf
        calls, original = [], fock.attenuate

        def counted(tau, rho):
            calls.append(rho.n_max)
            return original(tau, rho)

        monkeypatch.setattr(fock, "attenuate", counted)
        assert main(["oracle", "--p", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: exponent must lie in [1, inf), got inf\n"
        assert captured.out == ""
        assert len(calls) <= 1


BAD_ARGUMENTS = {
    "empty_betas": (lambda fam, ch: ratio_sequence(ch, fam, 2.0, []), "non-empty 1-D list"),
    "ascending_betas": (lambda fam, ch: ratio_sequence(ch, fam, 2.0, [1e-3, 1e-2]),
                        "strictly descending"),
    "one_decade": (lambda fam, ch: scaling_exponent(fam, 2.0, [0.1, 0.01]), "at least two decades"),
    "weyl_cutoff": (lambda fam, ch: fock.weyl_operator((1.0, 0.0), 0), "Fock cutoff must be >= 1, got 0"),
    "weyl_modulus": (lambda fam, ch: fock.weyl_operator((1e3, 0.0), 10), "must be finite and <="),
    "weyl_point": (lambda fam, ch: fock.weyl_operator([1, 2, 3], 10), "two finite reals"),
    "char_point": (lambda fam, ch: fock.char_function_fock(fock.thermal_state_fock(0.0, 8), "ab"),
                   "two finite reals"),
    "char_complex_point": (lambda fam, ch: fock.char_function_fock(fock.thermal_state_fock(0.0, 8),
                                                                   np.array([1.0 + 2j, 0.0])),
                           "two finite reals"),
    "char_modulus": (lambda fam, ch: fock.char_function_fock(fock.thermal_state_fock(0.0, 8), [0.0, math.nan]),
                     "must be finite and <="),
    "amplitude_cutoff": (lambda fam, ch: fock.attenuator_amplitudes(0.5, -2),
                         "Fock cutoff must be >= 1, got -2"),
    "transmissivity": (lambda fam, ch: fock.attenuator_amplitudes(1.5, 10), "transmissivity"),
    # a Fock operator is a (B, b, b) stack of blocks with B, b >= 1, checked when it is built
    "stack_matrix": (lambda fam, ch: fock.TruncatedOperator(np.eye(3) / 3), r"got shape \(3, 3\)"),
    "stack_not_square": (lambda fam, ch: fock.TruncatedOperator(np.zeros((2, 3, 4))), r"got shape \(2, 3, 4\)"),
    "stack_4d": (lambda fam, ch: fock.TruncatedOperator(np.zeros((1, 2, 2, 2))), r"got shape \(1, 2, 2, 2\)"),
    "stack_empty": (lambda fam, ch: fock.TruncatedOperator(np.zeros((0, 1, 1))), r"got shape \(0, 1, 1\)"),
    "thermal_cutoff": (lambda fam, ch: fock.thermal_state_fock(1.0, -3),
                       "Fock cutoff must be >= 1, got -3"),
    "gibbs_beta": (lambda fam, ch: gibbs_state(fam, 0.0), "inverse temperature"),
    "asymptotic_beta": (lambda fam, ch: gibbs_asymptotic(fam, math.inf), "inverse temperature"),
    "mode_count": (lambda fam, ch: standard_form(0), "mode count"),
    "spectrum_shape": (lambda fam, ch: symplectic_spectrum(np.eye(3), standard_form(1)),
                       "expected shape"),
    "fock_trace_exponent": (lambda fam, ch: fock.tr_power_fock(fock.thermal_state_fock(0.0, 8), math.inf),
                            r"must lie in \[1, inf\), got inf"),
    "fock_power_exponent": (lambda fam, ch: fock.matrix_power_fock(fock.thermal_state_fock(0.0, 8), math.nan),
                            r"must lie in \[1, inf\), got nan"),
}


@pytest.mark.parametrize("call, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise_domain_error(call, message):
    # the one error type main reports as an "error:" line with exit code 1
    spec = attenuator_spec()
    with pytest.raises(DomainError, match=message):
        call(SweepSpec().family(spec.space()), spec.to_channel())


def test_cached_parser_parses_each_call_afresh(tmp_path, capsys):
    # main builds its parser once per process; no option or default leaks between calls
    assert build_parser() is build_parser()
    cfg = write_config(tmp_path / "att.json", attenuator_spec())
    assert main(["norm", cfg, "--p", "inf"]) == 0
    value = float(capsys.readouterr().out.split("norm_pp(p=inf) = ")[1])
    assert value == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n-max", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["oracle", "--N", "0", "--n-max", "20", "--p", "3"]) == 0
    assert capsys.readouterr().out.count(" yes") == 6
    assert main(["norm", cfg]) == 0
    value = float(capsys.readouterr().out.split("norm_pp(p=2) = ")[1])
    assert value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert main(["check", cfg]) == 0
    assert capsys.readouterr().out.endswith("channel valid\n")


def test_cli_import_leaves_scipy_unloaded():
    # the CLI alone, then every module of the installed package
    src = str(Path(gaussnorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    walk = ("for m in pkgutil.walk_packages(gaussnorm.__path__, 'gaussnorm.'): "
            "importlib.import_module(m.name)")
    for load in ("import gaussnorm.cli", walk):
        code = f"import importlib, pkgutil, sys, gaussnorm\n{load}\nprint('scipy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "False"
