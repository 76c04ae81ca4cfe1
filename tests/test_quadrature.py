"""Engine checks for the tanh-sinh rule on known integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergsob import quadrature


def test_polynomial_exact():
    res = quadrature.integrate(lambda t, da, db: 3.0 * t * t, 0.0, 2.0)
    assert res.converged
    assert res.value == pytest.approx(8.0, rel=1e-13)


def test_interval_mapping():
    res = quadrature.integrate(lambda t, da, db: np.sin(t), 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize(
    "a_exp,b_exp,expected",
    [
        (-0.5, 0.0, 2.0),           # 1/sqrt(t)
        (-0.9, 0.0, 10.0),          # t^-0.9
        (-0.96, 0.0, 25.0),         # near the representable-node limit
        (0.0, -0.5, 2.0),           # right-endpoint singular
        (-0.5, -0.5, math.pi),      # Euler Beta(1/2, 1/2)
    ],
)
def test_endpoint_singularities(a_exp, b_exp, expected):
    res = quadrature.integrate(lambda t, da, db: da**a_exp * db**b_exp, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=5e-12)


def test_log_singularity():
    res = quadrature.integrate(lambda t, da, db: np.log(da), 0.0, 1.0)
    assert res.value == pytest.approx(-1.0, rel=1e-13)


def test_divergent_integrand_reports_failure():
    res = quadrature.integrate(lambda t, da, db: da**-1.2, 0.0, 1.0)
    assert not res.converged


def test_quad_raises_on_failure():
    with pytest.raises(quadrature.QuadratureError):
        quadrature.quad(lambda t, da, db: da**-1.2, 0.0, 1.0)


def test_bad_interval():
    with pytest.raises(ValueError):
        quadrature.integrate(lambda t, da, db: t, 1.0, 1.0)


def test_node_offsets_are_complementary():
    p_lo, p_hi, w = quadrature.nodes(6)
    assert np.all(p_lo > 0.0) and np.all(p_hi > 0.0)
    # away from the ends the offsets sum to 1 exactly at machine precision
    mid = (p_lo > 1e-3) & (p_hi > 1e-3)
    np.testing.assert_allclose(p_lo[mid] + p_hi[mid], 1.0, rtol=1e-15)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    width=st.floats(0.1, 5.0),
    k=st.integers(0, 5),
)
def test_monomials_random_intervals(a, width, k):
    b = a + width
    res = quadrature.integrate(lambda t, da, db: t**k, a, b)
    expected = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    assert res.value == pytest.approx(expected, rel=1e-11, abs=1e-13)
