"""Front-end behavior: commands, formats, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bergsob import bergman, cli, geometry, measure, quadrature, regularity, special, suites


def run_cli(args):
    return cli.main(args)


_CHECKS = {"special": 349, "geometry": 27, "measure": 84, "bergman": 42, "regularity": 48}
# the 18 beta recursion checks of the special suite, at its (x, y) grid
_RECURSION_FAILURES = [f"beta recursion residual 1.00e-03 at ({x}, {y})"
                       for x in ("0.01", "0.0549", "0.302", "1.66", "9.1", "50")
                       for y in ("-2.0", "0.0", "1.5")]


def _verify_stdout(seed, names=tuple(_CHECKS), self_test=False):
    """The exact stdout of ``verify``: every suite passes, except the
    special suite's recursion checks under the self-test."""
    entries = []
    for name in names:
        failures = _RECURSION_FAILURES if self_test and name == "special" else []
        listed = ",".join("\n        " + json.dumps(f) for f in failures)
        if failures:
            listed += "\n      "
        passed = "false" if failures else "true"
        entries.append(
            f'    {{\n      "checks": {_CHECKS[name]},\n      "failures": [{listed}],\n'
            f'      "name": "{name}",\n      "passed": {passed}\n    }}'
        )
    all_passed, flag = ("false", "true") if self_test else ("true", "false")
    return (
        f'{{\n  "all_passed": {all_passed},\n  "command": "verify",\n'
        f'  "schema_version": 1,\n  "seed": {seed},\n  "self_test": {flag},\n'
        '  "suites": [\n' + ",\n".join(entries) + "\n  ]\n}\n"
    )


class TestThresholdCommand:
    def test_direct(self, capsys):
        assert run_cli(["threshold", "--mu", "3", "--p", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert payload["schema_version"] == 1

    def test_invert(self, capsys):
        assert run_cli(["threshold", "--invert", "0.3", "--p", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == pytest.approx(30.0 / 7.0, rel=1e-12)
        assert payload["r"] == pytest.approx(0.3, abs=1e-12)

    def test_invert_at_reciprocal_stays_at_or_below_r(self, capsys):
        # mu = 20 would give the threshold 0.050000000000000044 > 0.05
        assert run_cli(["threshold", "--invert", "0.05", "--p", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["r"] <= 0.05

    def test_bad_mu_exits_2(self):
        assert run_cli(["threshold", "--mu", "1", "--p", "0"]) == 2

    @pytest.mark.parametrize("flags", [[], ["--mu", "3", "--invert", "0.3"]],
                             ids=["neither", "both"])
    def test_mu_xor_invert(self, flags, capsys):
        # both flags once ran --invert and ignored --mu: exactly one is a usage rule
        with pytest.raises(SystemExit) as err:
            run_cli(["threshold", "--p", "0", *flags])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("mu", ["inf", "nan"])
    def test_non_finite_mu_exits_2(self, mu, capsys):
        assert run_cli(["threshold", "--mu", mu, "--p", "0"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["0.49999999999999994", "1e-320", "1e-17"])
    def test_uncomputable_invert_exits_2(self, r, capsys):
        assert run_cli(["threshold", "--invert", r, "--p", "0"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


    @pytest.mark.parametrize("command", ["threshold", "scan"])
    def test_mu_beyond_exact_integers_exits_2(self, command, capsys):
        # at mu = 1e17, 1 - floor(mu) is no longer exact; the threshold once
        # read 0.0 and scan labelled s = 0 DIVERGENT
        extra = ["--s-grid", "0"] if command == "scan" else []
        assert run_cli([command, "--mu", "1e17", "--p", "0", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1


# the exact stdout of `lambda` for a moment on the oracles' direct branch,
# one whose alpha exponent (1e-3) takes the weak branch's two halves, and
# two divergent moments: one past s < 1/2, one past the x clause with its
# growth fit
_LAMBDA_STDOUT = {
    ("--x", "0.3", "--y", "1.5", "--s", "0.2"): (
        '{\n'
        '  "closed": 448.44656279963283,\n'
        '  "command": "lambda",\n'
        '  "integrable": true,\n'
        '  "mu": 2.0,\n'
        '  "quadrature": 448.44656279962953,\n'
        '  "quadrature_err_estimate": 9.242022334146226e-14,\n'
        '  "rel_difference": 7.351864341080784e-15,\n'
        '  "s": 0.2,\n'
        '  "schema_version": 1,\n'
        '  "verdict": "finite",\n'
        '  "x": 0.3,\n'
        '  "y": 1.5\n'
        '}\n'
    ),
    ("--x=-1.999", "--y", "0", "--s", "0"): (
        '{\n'
        '  "closed": 495756.87914455915,\n'
        '  "command": "lambda",\n'
        '  "integrable": true,\n'
        '  "mu": 2.0,\n'
        '  "quadrature": 495756.8791445632,\n'
        '  "quadrature_err_estimate": 2.2582940796599551e-10,\n'
        '  "rel_difference": 8.218819416027938e-15,\n'
        '  "s": 0.0,\n'
        '  "schema_version": 1,\n'
        '  "verdict": "finite",\n'
        '  "x": -1.999,\n'
        '  "y": 0.0\n'
        '}\n'
    ),
    ("--x", "0", "--y", "0", "--s", "0.6"): (
        '{\n'
        '  "command": "lambda",\n'
        '  "integrable": false,\n'
        '  "mu": 2.0,\n'
        '  "s": 0.6,\n'
        '  "schema_version": 1,\n'
        '  "verdict": "divergent",\n'
        '  "violated_condition": "s < 1/2 violated",\n'
        '  "x": 0.0,\n'
        '  "y": 0.0\n'
        '}\n'
    ),
    ("--x=-2", "--y", "0", "--s", "0.3", "--truncate-fit"): (
        '{\n'
        '  "command": "lambda",\n'
        '  "growth_fit": {\n'
        '    "closed_form_coefficient": 1979.8120467962392,\n'
        '    "coefficient": 1979.812046651143,\n'
        '    "exponent": -0.5999999999999995,\n'
        '    "kind": "power"\n'
        '  },\n'
        '  "integrable": false,\n'
        '  "mu": 2.0,\n'
        '  "s": 0.3,\n'
        '  "schema_version": 1,\n'
        '  "verdict": "divergent",\n'
        '  "violated_condition": "x/mu + 1 - s > 0 violated",\n'
        '  "x": -2.0,\n'
        '  "y": 0.0\n'
        '}\n'
    ),
}


class TestLambdaCommand:
    @pytest.mark.parametrize("args", list(_LAMBDA_STDOUT),
                             ids=["direct", "weak", "s-clause", "x-clause-fit"])
    def test_stdout_pinned(self, args, capsys):
        assert run_cli(["lambda", "--mu", "2", *args]) == 0
        assert capsys.readouterr().out == _LAMBDA_STDOUT[args]

    def test_finite_moment(self, capsys):
        assert run_cli(
            ["lambda", "--mu", "2", "--x", "0", "--y", "0", "--s", "0"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "finite"
        assert payload["closed"] == pytest.approx(4.0 * math.pi**3, rel=1e-10)
        assert payload["rel_difference"] <= 1e-8

    def test_divergent_moment_names_clause(self, capsys):
        assert run_cli(
            ["lambda", "--mu", "2", "--x", "0", "--y", "0", "--s", "0.6"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "divergent"
        assert "s < 1/2" in payload["violated_condition"]

    def test_truncate_fit(self, capsys):
        assert run_cli(
            ["lambda", "--mu", "2", "--x", "-2", "--y", "0", "--s", "0.3",
             "--truncate-fit"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        fit = payload["growth_fit"]
        assert set(fit) == {"kind", "exponent", "coefficient", "closed_form_coefficient"}
        assert fit["kind"] == "power"
        assert fit["exponent"] == pytest.approx(-0.6, abs=0.05)
        assert fit["coefficient"] == pytest.approx(fit["closed_form_coefficient"], rel=1e-8)

    def test_bad_mu_exits_2(self):
        assert run_cli(["lambda", "--mu", "0.5", "--x", "0", "--y", "0", "--s", "0"]) == 2

    def test_thin_margin_is_certified(self, capsys):
        # integrability margin 5e-4: the alpha exponent is 1e-3
        assert run_cli(["lambda", "--mu", "2", "--x=-1.999", "--y", "0", "--s", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "finite"
        assert payload["rel_difference"] <= 1e-8

    @pytest.mark.parametrize("mu,x,y,s", [
        # beta exponent 2x/mu + 3 - 4s below 0.002 with |y| >= 30: the two
        # integrable moments of a 3000-moment random sweep that did not converge
        ("28.73028667752445", "-14.36710633628767", "-32.786555396444896", "0.49979559268718426"),
        ("26.36272483280837", "-13.200688615528453", "56.98417397625707", "0.49926691160217396"),
    ])
    def test_weak_beta_exponent_is_certified(self, capsys, mu, x, y, s):
        assert run_cli(["lambda", "--mu", mu, f"--x={x}", f"--y={y}", "--s", s]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "finite"
        assert payload["rel_difference"] <= 1e-10

    def test_uncertified_quadrature_exits_2(self, monkeypatch, capsys):
        # a settle test that never passes: the oracles' rows stay open to the last level
        never = lambda value, err, rtol: np.ones(np.shape(value), dtype=bool)
        monkeypatch.setattr(quadrature, "unsettled", never)
        assert run_cli(["lambda", "--mu", "2", "--x", "0", "--y", "0", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not certified:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "x,y,s",
        [("nan", "0", "0.1"), ("0", "inf", "0.1"), ("0", "0", "-inf")],
        ids=["x-nan", "y-inf", "s-minus-inf"],
    )
    def test_unusable_argument_exits_2(self, x, y, s, capsys):
        argv = ["lambda", "--mu", "3", f"--x={x}", f"--y={y}", f"--s={s}"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_exponent_exits_2(self, capsys):
        # x + mu is finite, the exponent 2(x + mu)/mu is not: refused by name
        assert run_cli(["lambda", "--mu", "2", "--x", "1e308", "--y", "0", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the moment's exponents ")
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_moment_exits_2(self, capsys):
        assert run_cli(["lambda", "--mu", "2", "--x", "0", "--y", "800", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestScanCommand:
    def test_csv_rows(self, capsys):
        assert run_cli(
            ["scan", "--mu", "3", "--p", "0", "--s-grid", "0:0.4:0.1",
             "--lattice", "8,8"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,status,sup_ratio,bound,argmax_j,argmax_k"
        assert len(lines) == 6
        assert lines[-1].startswith("0.4,DIVERGENT")
        ok_cols = lines[1].split(",")
        assert ok_cols[1] == "OK" and float(ok_cols[2]) >= 1.0

    def test_json_rows_monotone(self, capsys):
        assert run_cli(
            ["scan", "--mu", "3", "--p", "0", "--s-grid", "0:0.32:0.08",
             "--lattice", "10,10", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        sups = [row["sup_ratio"] for row in payload["rows"] if row["status"] == "OK"]
        assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))

    def test_threshold_row_at_one_twentieth(self, capsys):
        # mu = 20 has threshold exactly 0.05, so s = 0.05 is a divergence row;
        # it used to read as just below the threshold, and the certificate
        # then failed on a negative alpha argument
        assert run_cli(["scan", "--mu", "20", "--p", "0", "--s-grid", "0.04,0.05",
                        "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 0.05
        assert [row["status"] for row in payload["rows"]] == ["OK", "DIVERGENT"]

    @pytest.mark.parametrize("p,s", [(0, "0.0012692709265677813"), (1, "0.0008100005913004312")])
    def test_bound_holds_ulps_below_threshold(self, p, s, capsys):
        # the bound cancelled here: p = 0 printed an OK row with its sup above
        # a bound of 4.26e13, and p = 1 exited 2 with "2x/mu + 2 > 2s"
        assert run_cli(["scan", "--mu", "1234.567", "--p", str(p), "--s-grid", s,
                        "--lattice", "5,2", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        mu, s_exact = Fraction(1234.567), Fraction(float(s))
        x = Fraction(1) - mu if p else Fraction(1 - math.floor(1234.567))
        X = 2 * x / mu + 2
        exact = X * (1 + 4 * s_exact) * (X + 1) / (
            (X - 2 * s_exact) * (1 - 2 * s_exact) * (X + 1 - 4 * s_exact))
        assert row["status"] == "OK"
        assert row["bound"] == pytest.approx(float(exact), rel=1e-12)
        assert row["sup_ratio"] <= row["bound"]

    def test_empty_grid_exits_2(self):
        assert run_cli(["scan", "--mu", "3", "--p", "0", "--s-grid", "0.4:0.3:0.1"]) == 2

    def test_negative_s_exits_2(self, capsys):
        assert run_cli(["scan", "--mu", "3", "--p", "0", "--s-grid=-0.1,0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s grid" in captured.err

    @pytest.mark.parametrize("mu,lattice", [("3", "1000000,1"), ("7939961708", "1,0")])
    def test_oversized_lattice_exits_2(self, mu, lattice, capsys):
        argv = ["scan", "--mu", mu, "--p", "0", "--s-grid", "0", "--lattice", lattice]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "basis elements" in captured.err

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "0:0.3:1e-300", "abc", "0.1,nan"])
    def test_unusable_grid_exits_2(self, grid, capsys):
        assert run_cli(["scan", "--mu", "3", "--p", "0", "--s-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "s grid" in captured.err


class TestVerifyCommand:
    def test_single_suite_green(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run_cli(
            ["verify", "--suite", "special", "--seed", "5", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        assert payload["suites"][0]["name"] == "special"
        assert payload["suites"][0]["checks"] > 100

    def test_seeded_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["verify", "--suite", "geometry", "--seed", "11", "--output", str(a)])
        run_cli(["verify", "--suite", "geometry", "--seed", "11", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_self_test_fails(self, tmp_path):
        out = tmp_path / "selftest.json"
        code = run_cli(
            ["verify", "--suite", "special", "--self-test", "--seed", "5",
             "--output", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is False
        # the wrong constant fails exactly the 18 beta recursion checks
        (suite,) = payload["suites"]
        pattern = r"beta recursion residual 1\.00e-03 at \(.*\)"
        assert len(suite["failures"]) == 18
        assert all(re.fullmatch(pattern, f) for f in suite["failures"])

    def test_check_counts_pinned(self, tmp_path):
        # the shape of verify: a refactor of the shared checks must neither
        # drop nor add one
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--seed", "1", "--output", str(out)]) == 0
        counts = {r["name"]: r["checks"] for r in json.loads(out.read_text())["suites"]}
        assert counts == {"special": 349, "geometry": 27, "measure": 84, "bergman": 42,
                          "regularity": 48}

    def test_unknown_suite_exits_2(self):
        # argparse rejects out-of-choice values with its usage error
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_progress_lines_stream(self, monkeypatch, capsys):
        # each suite's line is printed when it finishes, not after the last
        def slow_suite(name):
            def run(rng):
                time.sleep(0.15)
                return suites.SuiteResult(name)

            return run

        monkeypatch.setattr(
            suites, "SUITES", {name: slow_suite(name) for name in ("one", "two", "three")}
        )
        assert run_cli(["verify", "--seed", "1"]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines() if "elapsed" in ln]
        elapsed = [float(re.search(r"([0-9.]+)s elapsed", ln).group(1)) for ln in lines]
        assert len(elapsed) == 3
        assert all(a < b for a, b in zip(elapsed, elapsed[1:]))

    def test_progress_lines_report_suite_time(self, monkeypatch, capsys):
        # each line carries its own suite's wall time, which covers the
        # suite's work, besides the cumulative elapsed time
        sleeps = {"one": 0.3, "two": 0.1, "three": 0.2}

        def sleeping_suite(name):
            def run(rng):
                time.sleep(sleeps[name])
                return suites.SuiteResult(name)

            return run

        monkeypatch.setattr(suites, "SUITES", {name: sleeping_suite(name) for name in sleeps})
        assert run_cli(["verify", "--seed", "1"]) == 0
        err = capsys.readouterr().err
        own = {m.group(1): float(m.group(2))
               for m in re.finditer(r"\[verify\] (\w+): pass \(0 checks in ([0-9.]+)s, ", err)}
        assert own.keys() == sleeps.keys()
        assert all(own[name] >= sleeps[name] for name in sleeps), own
        total = float(re.findall(r"([0-9.]+)s elapsed", err)[-1])
        assert sum(own.values()) <= total + 0.05 * len(own)

    @pytest.mark.parametrize("args", [["--seed", "-1", "--suite", "geometry"]], ids=["seed"])
    def test_unusable_settings_exit_2(self, args, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not caught, [str(w.message) for w in caught]

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "out.json"
        assert run_cli(["threshold", "--mu", "3", "--p", "0", "--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_suite_alone_replays_its_draws(self, monkeypatch):
        # a suite run alone receives the same draws as inside a full run
        first_draws = {name: [] for name in suites.SUITES}

        def recording(name):
            def run(rng):
                first_draws[name].append(rng.random())
                return suites.SuiteResult(name)

            return run

        monkeypatch.setattr(suites, "SUITES", {name: recording(name) for name in first_draws})
        list(suites.run_suites(7))
        for name in first_draws:
            list(suites.run_suites(7, [name]))
        for draws in first_draws.values():
            assert len(draws) == 2 and draws[0] == draws[1]

    @pytest.mark.parametrize("mu", [10, 15, 25, 37])
    def test_large_mu_geometry_round_trip(self, mu):
        # |z1| = 2 |w1|^mu reaches ~1e-20 here; the unexpanded defining
        # function once lost its sign there and refused interior points
        for k in range(1, 9):
            res = suites.SuiteResult("geometry")
            rng = np.random.default_rng([k, *b"geometry"])  # the geometry suite's seeding
            suites.check_geometry(res, [mu], 50, rng, residual_tol=1e-12, levi_floor=1e-10)
            assert res.passed, (k, res.failures)

    def test_self_test_ignores_config_env(self, tmp_path, monkeypatch, capsys):
        # a config file named by BERGSOB_CONFIG once loosened the recursion
        # tolerance until the self-test passed; verify now reads no config
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tolerances": {"recursion_residual": 1.0}}))
        monkeypatch.setenv("BERGSOB_CONFIG", str(cfg_file))
        assert run_cli(["verify", "--suite", "special", "--self-test"]) == 1
        assert json.loads(capsys.readouterr().out)["all_passed"] is False

    @pytest.mark.parametrize("flag", [["--tol", "recursion_residual=1"],
                                      ["--grid", "gram_count=3"], ["--config", "x.json"]],
                             ids=["tol", "grid", "config"])
    def test_removed_settings_are_usage_errors(self, flag, capsys):
        # verify has no settable tolerance or grid: a usage error, one line
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", *flag])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bergsob: error: unrecognized arguments: {' '.join(flag)}\n"

    @pytest.mark.parametrize("seed", [*range(1, 9), None], ids=[*map(str, range(1, 9)), "default"])
    def test_stdout_pinned(self, seed, capsys):
        # verify has one fixed configuration: its report at seeds 1..8 and at
        # the default seed is these bytes, and every suite passes
        argv = ["verify"] if seed is None else ["verify", "--seed", str(seed)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == _verify_stdout(20240901 if seed is None else seed)

    @pytest.mark.parametrize("name", sorted(_CHECKS))
    def test_suite_alone_stdout_pinned(self, name, capsys):
        assert run_cli(["verify", "--suite", name, "--seed", "3"]) == 0
        assert capsys.readouterr().out == _verify_stdout(3, [name])

    def test_self_test_full_run_pinned(self, capsys):
        # only the special suite's 18 recursion checks fail; the other
        # suites run and pass
        assert run_cli(["verify", "--self-test"]) == 1
        assert capsys.readouterr().out == _verify_stdout(20240901, self_test=True)

    @pytest.mark.parametrize("content", [
        None,
        "{not json",
        json.dumps({"tolerances": {"recursion_residual": 0.0, "geometry_residual": 0.0,
                                   "moment_cross": 0.0, "gram_offdiag": 0.0,
                                   "threshold_roundtrip": 0.0}}),
        json.dumps({"grids": {"special_points": 2, "geometry_samples": 2, "gram_count": 3}}),
    ], ids=["missing", "malformed", "tightened", "shrunk"])
    def test_config_env_is_not_read(self, content, tmp_path, monkeypatch, capsys):
        # a file named by BERGSOB_CONFIG once changed the tolerances and grids
        # of verify, or ended it in a usage error; it now changes nothing
        cfg_file = tmp_path / "cfg.json"
        if content is not None:
            cfg_file.write_text(content)
        monkeypatch.setenv("BERGSOB_CONFIG", str(cfg_file))
        assert run_cli(["verify", "--seed", "3"]) == 0
        assert capsys.readouterr().out == _verify_stdout(3)

    # (module, function, fault applied to its result, prefix of the failures):
    # each fault is about 100x the tolerance of the check that must catch it
    _FAULTS = {
        "special": (special, "alpha_quadrature", lambda out: (out[0] * (1.0 + 1e-8), out[1]),
                    "alpha two-path disagreement"),
        "geometry": (geometry, "delta0", lambda out: out + 1e-10, "mu=1.5: delta0 vs rho"),
        "measure": (measure, "lambda_quadrature", lambda out: (out[0] * (1.0 + 1e-6), out[1]),
                    "mu=1.5 "),
        "bergman": (bergman, "gram_matrix", lambda out: out + 1e-6, "p=0 s=0.0: offdiag"),
        "regularity": (regularity, "threshold",
                       lambda out: dataclasses.replace(out, r=out.r - 1e-10),
                       "threshold inversion drift"),
    }

    @pytest.mark.parametrize("name", sorted(_CHECKS))
    def test_each_suite_fails_on_a_fault(self, name, monkeypatch):
        # each suite's fixed tolerances catch a fault in the function it
        # checks, and the failures replay from the seed and suite name alone
        module, attr, fault, prefix = self._FAULTS[name]
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args, **kw: fault(original(*args, **kw)))
        (alone,) = suites.run_suites(3, [name])
        assert any(f.startswith(prefix) for f in alone.failures), alone.failures
        (in_full,) = [r for r in suites.run_suites(3) if r.name == name]
        assert (in_full.checks, in_full.failures) == (alone.checks, alone.failures)
        assert alone.checks == _CHECKS[name]

    def test_bergman_suite_fails_on_a_radial_moment_fault(self, monkeypatch):
        # the 18 reproducing monomials are one projection, one radial_moment
        # call: a 1e-8 relative fault in its values (100x the 1e-10 of the
        # check) fails each of them, alone and in a full run alike
        original = measure.radial_moment

        def faulty(*args, **kw):
            return [dataclasses.replace(r, value=r.value * (1.0 + 1e-8))
                    for r in original(*args, **kw)]

        monkeypatch.setattr(measure, "radial_moment", faulty)
        (alone,) = suites.run_suites(3, ["bergman"])
        reproducing = [f for f in alone.failures if f.startswith("reproducing failure at ")]
        assert len(reproducing) == 18 and len(alone.failures) == 18, alone.failures
        (in_full,) = [r for r in suites.run_suites(3) if r.name == "bergman"]
        assert (in_full.checks, in_full.failures) == (alone.checks, alone.failures)
        assert alone.checks == _CHECKS["bergman"]


class TestSharpnessCommand:
    def test_table(self, capsys):
        assert run_cli(["sharpness", "--r", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sharpness"
        entries = payload["entries"]
        assert [(e["r"], e["p"]) for e in entries] == [(0.2, 0), (0.2, 1), (0.2, 2)]
        assert all(e["certificate"]["within_bound"] for e in entries)
        assert all(e["certificate"]["s"] == 0.2 - 0.02 for e in entries)
        for e in entries:
            witness = e["witness"]
            assert set(witness) == {"index", "component", "analytic_exponent", "growth_kind",
                                    "growth_exponent", "growth_coefficient",
                                    "closed_form_coefficient"}
            assert witness["growth_coefficient"] == pytest.approx(
                witness["closed_form_coefficient"], rel=1e-10)

    def test_small_r_is_certified(self, capsys):
        # the certificate sits at s = r - min(0.02, r/2); at a fixed gap of
        # 0.02 it would sit at s < 0 for every r < 0.02
        assert run_cli(["sharpness", "--r", "0.01"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [e["certificate"]["s"] for e in entries] == [0.005] * 3
        assert all(e["certificate"]["within_bound"] for e in entries)
        assert all(e["witness"]["growth_kind"] == "log" for e in entries)

    @pytest.mark.parametrize("argv", [["--r", "0.7"], ["--output", "missing-dir/out.json"]],
                             ids=["unreachable-r", "unwritable-output"])
    def test_refused_input_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        # no threshold reaches 0.7; the output file once raised a traceback
        monkeypatch.chdir(tmp_path)
        assert run_cli(["sharpness", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["lambda", "--mu", "3", "--x", "0", "--y", "0", "--s", "0.1",
                                   "--tol", "0"],
                                  ["sharpness", "--r", "0.3", "--gap", "0.5"]],
                         ids=["lambda-tol", "sharpness-gap"])
def test_removed_options_are_usage_errors(argv, capsys):
    # options with one value in use are constants: a usage error, one line
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bergsob: error: unrecognized arguments: {' '.join(argv[-2:])}\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bergsob", "threshold", "--mu", "2.5", "--p", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r"] == pytest.approx(0.4, abs=1e-15)


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-320, 1e308]),
).map(repr)


# tokens of argv that does not parse: unknown commands and flags, values out
# of their choices or types, flags without their values
_JUNK = st.lists(st.one_of(_NUMBERS, st.sampled_from(
    ["threshold", "lambda", "scan", "verify", "nope", "--mu", "--p=3", "--seed=1.5",
     "--suite=nope", "--lattice=1", "--format=xml", "--tol", "--s-grid", "-x", "--config",
     "sharpness", "--r", "--gap"])),
    max_size=5)


# derandomized, so that the gate replays the same examples on every run.
# The explicit examples below are what reaches verify with each kind of seed
# (negative, 0, above 2^64), sharpness with an r that is certified, and argv
# that does not parse; the drawn examples shuffle with any edit to the test.
_EXAMPLE = dict(mu="3.0", x="0.0", y="0.0", s="0.2", p="0", truncate=False, lattice=(4, 4),
                grid="0.1", seed=0, suite="special", junk=[])


@example(**{**_EXAMPLE, "command": "verify", "seed": -1})
@example(**{**_EXAMPLE, "command": "verify", "seed": 0})
@example(**{**_EXAMPLE, "command": "verify", "seed": 2**64 + 1, "suite": "geometry"})
@example(**{**_EXAMPLE, "command": "sharpness", "s": "0.2"})
@example(**{**_EXAMPLE, "command": "unparsed", "junk": ["verify", "--seed=1.5"]})
@settings(max_examples=360, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["threshold", "lambda", "scan", "sharpness", "verify", "unparsed"]),
    mu=_NUMBERS,
    x=_NUMBERS,
    y=_NUMBERS,
    s=_NUMBERS,
    p=st.sampled_from(["0", "1", "2"]),
    truncate=st.booleans(),
    lattice=st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
    grid=st.one_of(
        st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join),
        st.tuples(_NUMBERS, _NUMBERS, _NUMBERS).map(":".join),
    ),
    seed=st.one_of(st.just(0), st.integers(2**64, 2**80), st.integers(max_value=-1)),
    suite=st.sampled_from(sorted(suites.SUITES)),
    junk=_JUNK,
)
def test_fuzz_exit_codes(command, mu, x, y, s, p, truncate, lattice, grid, seed, suite, junk):
    # every input ends in exit 0, 1 or 2, and never in a traceback or a warning
    if command == "threshold":
        argv = ["threshold", f"--p={p}", f"--invert={s}" if truncate else f"--mu={mu}"]
    elif command == "lambda":
        argv = ["lambda", f"--mu={mu}", f"--x={x}", f"--y={y}", f"--s={s}"]
        argv += ["--truncate-fit"] if truncate else []
    elif command == "scan":
        argv = ["scan", f"--mu={mu}", f"--p={p}", f"--s-grid={grid}", "--lattice=%d,%d" % lattice]
    elif command == "sharpness":
        argv = ["sharpness", f"--r={s}"]
    elif command == "verify":
        argv = ["verify", f"--seed={seed}", f"--suite={suite}"]
    else:
        argv = junk
    _assert_total(argv)


# s near 1/2, up to 2^-52 below it, where the fiber integrands are most singular
_NEAR_HALF = st.one_of(st.floats(0.3, 0.5),
                       st.sampled_from([0.49, 0.4999, 0.49999999, 0.5 - 2.0**-52]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mu=st.floats(1.0001, 40.0), depth=st.floats(0.0, 1.0), s=_NEAR_HALF,
       y=st.one_of(st.just(0.0), st.floats(-60.0, 60.0)))
def test_fuzz_truncate_fit_exit_codes(mu, depth, s, y):
    # divergent moments, x/mu + 1 - s = -depth, so that the growth fit runs;
    # at depth ~ 0, x may round integrable, and the two-path evaluation runs
    x = mu * (s - 1.0 - depth)
    _assert_total(["lambda", f"--mu={mu!r}", f"--x={x!r}", f"--y={y!r}", f"--s={s!r}",
                   "--truncate-fit"])


def _assert_total(argv):
    """argv ends in exit 0, 1 or 2, and never in a traceback or a warning; a
    usage error is one stderr line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
            assert stderr.getvalue().count("\n") == 1, (argv, stderr.getvalue())
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 2:  # one message line, after any progress lines of verify
        lines = [ln for ln in stderr.getvalue().splitlines() if not ln.startswith("[verify]")]
        assert len(lines) == 1, (argv, stderr.getvalue())
