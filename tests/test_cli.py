"""Front-end behavior: commands, formats, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bergsob import cli, quadrature, suites
from bergsob.config import default_config, load_config
from bergsob.errors import DomainError


def run_cli(args):
    return cli.main(args)


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

    def test_missing_mu_exits_2(self):
        assert run_cli(["threshold", "--p", "0"]) == 2

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


class TestLambdaCommand:
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
        assert fit["kind"] == "power"
        assert fit["exponent"] == pytest.approx(-0.6, abs=0.05)

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
        unconverged = lambda f, a, b, **kw: quadrature.QuadResult(1.0, 1.0, 11, False)
        monkeypatch.setattr(quadrature, "integrate", unconverged)
        assert run_cli(["lambda", "--mu", "2", "--x", "0", "--y", "0", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not certified:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "x,y,s,extra",
        [("nan", "0", "0.1", []), ("0", "inf", "0.1", []), ("0", "0", "-inf", []),
         ("0", "0", "0.1", ["--tol", "0"])],
        ids=["x-nan", "y-inf", "s-minus-inf", "tol-zero"],
    )
    def test_unusable_argument_exits_2(self, x, y, s, extra, capsys):
        argv = ["lambda", "--mu", "3", f"--x={x}", f"--y={y}", f"--s={s}", *extra]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
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
        # the shape of verify at the default config: a refactor of the shared
        # checks must neither drop nor add one
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--seed", "1", "--output", str(out)]) == 0
        counts = {r["name"]: r["checks"] for r in json.loads(out.read_text())["suites"]}
        assert counts == {"special": 349, "geometry": 27, "measure": 84, "bergman": 44,
                          "regularity": 48}

    def test_unknown_suite_exits_2(self):
        # argparse rejects out-of-choice values with its usage error
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_tolerance_override_precedence(self, tmp_path):
        # an absurd file tolerance makes the suite fail; a flag overrides it back
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tolerances": {"recursion_residual": 1e-30}}))
        out = tmp_path / "o.json"
        assert run_cli(
            ["verify", "--suite", "special", "--seed", "5",
             "--config", str(cfg_file), "--output", str(out)]
        ) == 1
        assert run_cli(
            ["verify", "--suite", "special", "--seed", "5",
             "--config", str(cfg_file), "--tol", "recursion_residual=1e-10",
             "--output", str(out)]
        ) == 0

    def test_progress_lines_stream(self, monkeypatch, capsys):
        # each suite's line is printed when it finishes, not after the last
        def slow_suite(name):
            def run(cfg, rng):
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

    @pytest.mark.parametrize(
        "args",
        [
            ["--grid", "gram_count=-3", "--suite", "bergman"],
            ["--grid", "geometry_samples=0", "--suite", "geometry"],
            ["--tol", "levi_floor=-1e-10", "--suite", "geometry"],
            ["--seed", "-1", "--suite", "geometry"],
            ["--grid", "mu_samples=3", "--suite", "geometry"],
            ["--grid", 'mu_samples=["a"]', "--suite", "geometry"],
            ["--grid", "special_lo=-1", "--suite", "special"],
            ["--grid", "special_lo=[", "--suite", "special"],
            ["--tol", "levi_floor=abc", "--suite", "geometry"],
            ["--grid", "geometry_samples=true", "--suite", "geometry"],
            ["--grid", "mu_samples=[]", "--suite", "geometry"],
            ["--grid", "mu_samples=[1e308]", "--suite", "geometry"],
            ["--grid", "special_hi=1e300", "--suite", "special"],
            ["--grid", "special_lo=1e-320", "--suite", "special"],
            ["--grid", "moment_y_hi=1e308", "--suite", "measure"],
        ],
        ids=["gram-count", "geometry-samples", "levi-floor", "seed", "mu-samples-scalar",
             "mu-samples-string", "special-lo", "grid-json", "tol-float", "count-bool",
             "mu-samples-empty", "mu-samples-huge", "special-hi-huge", "special-lo-subnormal",
             "moment-y-hi-huge"],
    )
    def test_unusable_settings_exit_2(self, args, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not caught, [str(w.message) for w in caught]

    def test_negative_zero_bounds(self, capsys):
        # numpy's uniform refuses the upper bound -0.0, a valid 0
        argv = ["verify", "--suite", "measure", "--grid", "moment_s_hi=-0.0",
                "--grid", "moment_y_hi=-0.0"]
        assert run_cli(argv) == 0
        assert json.loads(capsys.readouterr().out)["all_passed"] is True

    @pytest.mark.parametrize("content", [None, "[1]", '{"grids": 3}', "{"],
                             ids=["missing", "list", "section", "json"])
    def test_unreadable_config_exits_2(self, content, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        if content is not None:
            cfg_file.write_text(content)
        assert run_cli(["verify", "--suite", "geometry", "--config", str(cfg_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "config file" in captured.err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "out.json"
        assert run_cli(["threshold", "--mu", "3", "--p", "0", "--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_suite_alone_replays_its_draws(self, monkeypatch):
        # a suite run alone receives the same draws as inside a full run
        first_draws = {name: [] for name in suites.SUITES}

        def recording(name):
            def run(cfg, rng):
                first_draws[name].append(rng.random())
                return suites.SuiteResult(name)

            return run

        monkeypatch.setattr(suites, "SUITES", {name: recording(name) for name in first_draws})
        list(suites.run_suites(default_config(), 7))
        for name in first_draws:
            list(suites.run_suites(default_config(), 7, [name]))
        for draws in first_draws.values():
            assert len(draws) == 2 and draws[0] == draws[1]

    @pytest.mark.parametrize("mu", [10, 15, 25, 37])
    def test_large_mu_geometry_round_trip(self, mu, capsys):
        # |z1| = 2 |w1|^mu reaches ~1e-20 here; the unexpanded defining
        # function once lost its sign there and refused interior points
        for k in range(1, 9):
            argv = ["verify", "--suite", "geometry", "--seed", str(k),
                    "--grid", f"mu_samples=[{mu}]", "--grid", "geometry_samples=50"]
            assert run_cli(argv) == 0, (k, capsys.readouterr().err)
            assert json.loads(capsys.readouterr().out)["all_passed"] is True

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grids": {"special_points": 3}}))
        monkeypatch.setenv("BERGSOB_CONFIG", str(cfg_file))
        assert load_config().grids.special_points == 3


class TestConfigFile:
    def test_shipped_defaults_match_dataclasses(self):
        with open("configs/defaults.json", "r", encoding="utf-8") as handle:
            shipped = json.load(handle)
        current = json.loads(json.dumps(default_config().to_dict()))
        assert shipped == current

    def test_boolean_tolerance_rejected(self, tmp_path):
        # JSON true is not a tolerance, though Python's bool is an int
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tolerances": {"levi_floor": True}}))
        with pytest.raises(DomainError):
            load_config(str(cfg_file))

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tolerances": {"bogus": 1.0}}))
        with pytest.raises(KeyError):
            load_config(str(cfg_file))


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_certify_sharpness_script(capsys):
    script = _script("certify_sharpness")
    assert script.main(["--r", "0.2"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [(e["r"], e["p"]) for e in entries] == [(0.2, 0), (0.2, 1), (0.2, 2)]
    assert all(e["certificate"]["within_bound"] for e in entries)


@pytest.mark.parametrize("name,argv", [
    ("scan_blowup", ["--mu", "0.5", "--p", "0"]),  # mu <= 1 is not a domain
    ("scan_blowup", ["--mu", "3", "--p", "0", "--points", "0"]),
    ("scan_blowup", ["--mu", "3", "--p", "0", "--overshoot", "nan"]),  # would scan to 0.499
    ("certify_sharpness", ["--r", "0.7"]),  # no threshold reaches 0.7
    ("certify_sharpness", ["--r", "0.3", "--gap", "0.5"]),  # certificate at s < 0
])
def test_scripts_refuse_bad_input(capsys, name, argv):
    # exit 2 and one error line, as the bergsob command does; exit 1 stays a failed check
    assert _script(name).main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


# --grid/--tol values for verify: JSON numbers, counts up to 2000 (so that no
# example allocates a large array), booleans, lists and unparsable text
_SETTINGS = st.one_of(
    _NUMBERS,
    st.integers(-3, 2000).map(str),
    st.sampled_from(["true", "false", "null", "[]", '"a"', "1e308", "-1e308"]),
    st.lists(st.one_of(_NUMBERS, st.sampled_from(["1.5", "37", "38", "1e308"])),
             max_size=3).map(lambda v: "[" + ",".join(v) + "]"),
)


# derandomized, so that the gate replays the same examples on every run
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["threshold", "lambda", "scan", "verify"]),
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
    grid_key=st.sampled_from(["geometry_samples", "mu_samples", "special_points", "holder_s"]),
    grid_value=_SETTINGS,
    tol_key=st.sampled_from(["geometry_residual", "levi_floor"]),
    tol_value=_SETTINGS,
    from_file=st.booleans(),
)
def test_fuzz_exit_codes(command, mu, x, y, s, p, truncate, lattice, grid,
                         grid_key, grid_value, tol_key, tol_value, from_file):
    # every input ends in exit 0, 1 or 2, and never in a traceback or a warning
    if command == "threshold":
        argv = ["threshold", f"--p={p}", f"--invert={s}" if truncate else f"--mu={mu}"]
    elif command == "lambda":
        argv = ["lambda", f"--mu={mu}", f"--x={x}", f"--y={y}", f"--s={s}"]
        argv += ["--truncate-fit"] if truncate else []
    elif command == "scan":
        argv = ["scan", f"--mu={mu}", f"--p={p}", f"--s-grid={grid}", "--lattice=%d,%d" % lattice]
    else:
        _assert_verify_total("geometry", grid_key, grid_value, tol_key if truncate else None,
                             tol_value, from_file)
        return
    _assert_total(argv)


def _assert_verify_total(suite, grid_key, grid_value, tol_key, tol_value, from_file):
    """verify --suite is total with the grid setting and, unless tol_key is
    None, the tolerance setting, given as flags or in a config file."""
    if not from_file:
        argv = [f"--grid={grid_key}={grid_value}"]
        argv += [f"--tol={tol_key}={tol_value}"] if tol_key else []
        _assert_total(["verify", f"--suite={suite}", *argv])
        return
    # the same settings from a config file, whose text may not parse
    sections = [f'"grids": {{"{grid_key}": {grid_value}}}']
    sections += [f'"tolerances": {{"{tol_key}": {tol_value}}}'] if tol_key else []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{" + ", ".join(sections) + "}")
        _assert_total(["verify", f"--suite={suite}", f"--config={path}"])


def _list_of(*values):
    return st.lists(st.one_of(*values), max_size=3).map(lambda v: "[" + ",".join(v) + "]")


# per suite, the grid settings it reads, drawn small enough (a few points, few
# moments, a small lattice) that a run takes well under a second, and the
# tolerances it checks against
_SUITE_GRIDS = {
    "special": {
        "special_lo": _NUMBERS,
        "special_hi": _NUMBERS,
        "special_points": st.integers(-1, 4).map(str),
        "holder_s": _list_of(_NUMBERS, st.floats(0.0, 0.5).map(repr)),
    },
    "measure": {
        "moment_mu": _list_of(_NUMBERS, st.floats(1.0, 40.0).map(repr)),
        "moment_y_hi": _NUMBERS,
        "moment_s_hi": st.one_of(_NUMBERS, st.floats(0.0, 0.5).map(repr)),
        "eps_fit_lo": st.integers(-1, 12).map(str),
        "eps_fit_hi": st.integers(-1, 30).map(str),
    },
    "bergman": {"gram_count": st.one_of(st.integers(-2, 40).map(str), _NUMBERS)},
    "regularity": {
        "sharpness_r": _list_of(_NUMBERS, st.floats(0.0, 0.5).map(repr)),
        "lattice_jmax": st.integers(-1, 8).map(str),
        "lattice_kmax": st.integers(-1, 8).map(str),
    },
}
_SUITE_TOLERANCES = {
    "special": ["recursion_residual", "holder_slack", "oracle_agreement"],
    "measure": ["moment_cross", "ratio_slack", "growth_exponent"],
    "bergman": ["gram_offdiag", "gram_diag"],
    "regularity": ["ratio_slack", "growth_exponent", "threshold_roundtrip"],
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), suite=st.sampled_from(sorted(_SUITE_GRIDS)), with_tol=st.booleans(),
       tol_value=_SETTINGS, from_file=st.booleans())
def test_fuzz_verify_suites_exit_codes(data, suite, with_tol, tol_value, from_file):
    # every suite's settings, as flags or in a config file, end in exit 0, 1
    # or 2, and never in a traceback or a warning
    grid_key = data.draw(st.sampled_from(sorted(_SUITE_GRIDS[suite])))
    grid_value = data.draw(_SUITE_GRIDS[suite][grid_key])
    tol_key = data.draw(st.sampled_from(_SUITE_TOLERANCES[suite])) if with_tol else None
    _assert_verify_total(suite, grid_key, grid_value, tol_key, tol_value, from_file)


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
    """argv ends in exit 0, 1 or 2, and never in a traceback or a warning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 2:  # one message line, after any progress lines of verify
        lines = [ln for ln in stderr.getvalue().splitlines() if not ln.startswith("[verify]")]
        assert len(lines) == 1, (argv, stderr.getvalue())
