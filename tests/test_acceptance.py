"""Acceptance gate: the package's exit criteria, one test per criterion.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them inline).  Tolerances are pinned here, as literals.  Criteria 1, 2
and 4-8 run the shared checks: the same check functions from
``bergsob.suites`` that ``verify`` runs with its own fixed values, here
with the pinned seeds, grids and tolerances below.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from bergsob import cli, geometry, measure, suites
from bergsob.geometry import DomainParams

MU_GEOMETRY = (1.5, 2.0, 2.5, 3.0, 4.2857142857142856)
MU_MOMENTS = (1.5, 2.0, 3.0)


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL "
              f"[{time.perf_counter() - start:.1f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def certify(check, *args, **kwargs):
    """Run one of the shared invariant checks that ``verify`` also runs and
    require all of its checks to pass; returns what the check returns, or
    the SuiteResult when it returns nothing."""
    res = suites.SuiteResult(check.__name__)
    out = check(res, *args, **kwargs)
    assert res.passed, res.failures
    return res if out is None else out


def test_criterion_1_special_function_suite():
    with criterion(1, "special-function suite", budget=10.0):
        certify(
            suites.check_special,
            np.exp(np.linspace(math.log(1e-2), math.log(50.0), 6)),
            (-3.0, 0.0, 2.0),
            (0.0, 0.1, 0.2, 0.3, 0.4, 0.49),
            12.0,
            recursion_tol=1e-10,
            holder_slack=1e-9,
            oracle_tol=1e-10,
        )


def test_criterion_2_moment_cross_validation():
    with criterion(2, "closed form vs quadrature, 500+ triples", budget=60.0):
        res = certify(
            suites.check_moments,
            MU_MOMENTS,
            168,
            np.random.default_rng(20240902),
            s_hi=0.45,
            y_hi=4.0,
            rel_tol=1e-8,
        )
        assert res.checks >= 500


def test_criterion_3_base_moment_desk_check():
    with criterion(3, "lam(0,0,0) = 2 pi^3 mu"):
        for mu in MU_MOMENTS:
            v = measure.lambda_closed(measure.MomentArgs(0.0, 0.0, 0.0, DomainParams(mu)))
            expected = 2.0 * math.pi**3 * mu
            assert abs(v - expected) / expected <= 1e-10


def geometry_criterion(res):
    """Criterion 4's call of the shared geometry check: pinned seed, grid
    and tolerances."""
    return suites.check_geometry(
        res,
        MU_GEOMETRY,
        1000,
        np.random.default_rng(20240903),
        residual_tol=1e-12,
        levi_floor=1e-10,
    )


def test_criterion_4_geometry_suite():
    with criterion(4, "geometry residuals on seeded samples"):
        boundary = certify(geometry_criterion)
        assert np.any(boundary.z1 == 0)


def test_geometry_check_detects_perturbed_map(monkeypatch):
    # a 1e-11 error in the forward map must fail the shared check, both in
    # criterion 4's call and inside verify's geometry suite
    forward_map = geometry.forward_map

    def perturbed(params, z):
        v = forward_map(params, z)
        return geometry.ModelPoint(v.w1 + 1e-11, v.w2)

    monkeypatch.setattr(geometry, "forward_map", perturbed)
    res = suites.SuiteResult("criterion 4")
    geometry_criterion(res)
    suite = suites.suite_geometry(np.random.default_rng(0))
    for result in (res, suite):
        assert any("round trip" in failure for failure in result.failures)


def test_criterion_5_orthonormality():
    with criterion(5, "Gram matrices are the identity"):
        certify(suites.check_gram, 25, offdiag_tol=1e-8, diag_tol=1e-6)


def test_criterion_6_threshold_sharpness():
    with criterion(6, "sharpness sandwich over (r, p)", budget=300.0):
        pairs = certify(
            suites.check_sharpness,
            (0.1, 0.2, 0.3, 0.4),
            (40, 40),
            ratio_slack=1e-9,
            growth_tol=0.05,
        )
        assert all(math.isfinite(cert.sup_ratio) for cert, _, _ in pairs)


def test_criterion_7_counterexample_transport():
    with criterion(7, "smooth counterexample hits the witness"):
        certify(suites.check_counterexample_transport)


def test_criterion_8_threshold_discontinuity():
    with criterion(8, "threshold jumps in mu at degree 0 only"):
        certify(suites.check_threshold_jumps, tol=1e-8)


def test_criterion_9_verify_determinism(tmp_path):
    with criterion(9, "verify is byte-deterministic"):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(["verify", "--seed", "20240904", "--output", str(first)]) == 0
        assert cli.main(["verify", "--seed", "20240904", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["all_passed"] is True
        assert {s["name"] for s in payload["suites"]} == set(suites.SUITES)
