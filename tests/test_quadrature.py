"""Engine checks for the tanh-sinh rule on known integrals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergsob import quadrature


def test_polynomial_exact():
    res = quadrature.integrate(lambda rows, da, db: 3.0 * da * da, 0.0, 2.0)
    assert res.converged and res.value.shape == res.err_estimate.shape == ()
    assert float(res.value) == pytest.approx(8.0, rel=1e-13)


def test_interval_mapping():
    a = -0.5 * math.pi
    res = quadrature.integrate(lambda rows, da, db: np.cos(a + da), a, -a)
    assert float(res.value) == pytest.approx(2.0, rel=1e-13)


ENDPOINT_CASES = [
    (-0.5, 0.0, 2.0),           # 1/sqrt(t)
    (-0.9, 0.0, 10.0),          # t^-0.9
    (-0.96, 0.0, 25.0),         # near the representable-node limit
    (0.0, -0.5, 2.0),           # right-endpoint singular
    (-0.5, -0.5, math.pi),      # Euler Beta(1/2, 1/2)
]


@pytest.mark.parametrize("a_exp,b_exp,expected", ENDPOINT_CASES)
def test_endpoint_singularities(a_exp, b_exp, expected):
    res = quadrature.integrate(lambda rows, da, db: da**a_exp * db**b_exp, 0.0, 1.0)
    assert res.converged
    assert float(res.value) == pytest.approx(expected, rel=5e-12)


def _integrate_every_node(f, a, b, *, rtol=1e-12, atol=1e-300, min_level=5, max_level=11):
    """Reference rule: the whole level-L rule evaluated afresh at every level,
    on the one row of (a, b)."""
    span = b - a
    prev = math.nan
    for level in range(min_level, max_level + 1):
        p_lo, p_hi, w = quadrature.nodes(level)
        da, db = span * p_lo[None], span * p_hi[None]
        total = span * float(w @ f(np.zeros((1, 1), dtype=int), da, db)[0])
        if level > min_level and abs(total - prev) <= max(atol, rtol * abs(total)):
            return total, level, True
        prev = total
    return total, max_level, False


@pytest.mark.parametrize("level", range(6, 12))
def test_rules_nest(level):
    # level L at even k is level L-1: same offsets, half the weight
    p_lo, p_hi, w = quadrature.nodes(level)
    q_lo, q_hi, v = quadrature.nodes(level - 1)
    kmax = (len(w) - 1) // 2  # the kept nodes are k = -kmax..kmax
    even = np.arange(-kmax, kmax + 1) % 2 == 0
    assert np.array_equal(p_lo[even], q_lo) and np.array_equal(p_hi[even], q_hi)
    # halving is exact for every normal weight; a subnormal one with an odd
    # last bit cannot be halved exactly and may differ by one subnormal step
    normal = v >= 2.0 * np.finfo(float).tiny
    assert np.array_equal(w[even][normal], 0.5 * v[normal])
    assert np.all(np.abs(w[even] - 0.5 * v) <= np.finfo(float).smallest_subnormal)


def _endpoint_singular(a_exp, b_exp):
    return lambda rows, da, db: da**a_exp * db**b_exp


@pytest.mark.parametrize(
    "f",
    [_endpoint_singular(a_exp, b_exp) for a_exp, b_exp, _ in ENDPOINT_CASES]
    + [lambda rows, da, db: 1.0 / (1e-4 + (da - 0.3) ** 2)],  # a peak that needs level 10
    ids=[f"{a_exp}-{b_exp}" for a_exp, b_exp, _ in ENDPOINT_CASES] + ["peak"],
)
def test_nested_refinement_matches_full_evaluation(f):
    res = quadrature.integrate(f, 0.0, 1.0)
    value, level, converged = _integrate_every_node(f, 0.0, 1.0)
    assert converged and (res.level, res.converged) == (level, converged)
    assert float(res.value) == pytest.approx(value, rel=1e-14)


def test_log_singularity():
    res = quadrature.integrate(lambda rows, da, db: np.log(da), 0.0, 1.0)
    assert float(res.value) == pytest.approx(-1.0, rel=1e-13)


def test_divergent_integrand_reports_failure():
    with pytest.raises(quadrature.QuadratureError, match=r"^no convergence on \(0.0, 1.0\)"):
        quadrature.integrate(lambda rows, da, db: da**-1.2, 0.0, 1.0)


def test_bad_interval():
    with pytest.raises(ValueError, match=r"^invalid interval \(1.0, 1.0\)$"):
        quadrature.integrate(lambda rows, da, db: da, 1.0, 1.0)


def test_overflowing_width_names_its_row():
    # the width of the second row, 1e308 - (-1e308), overflows: that row is
    # named, with no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^invalid interval \(-1e\+308, 1e\+308\)$"):
            quadrature.integrate(lambda rows, da, db: da, np.array([0.0, -1e308]),
                                 np.array([1.0, 1e308]))


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
    res = quadrature.integrate(lambda rows, da, db: (a + da) ** k, a, b)
    expected = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    assert float(res.value) == pytest.approx(expected, rel=1e-11, abs=1e-13)


# a stack of peaks 1/(c + (t - 0.3)^2) on (0, 1): the sharper the peak, the
# later its row settles (c = 1e-4 needs level 10)
PEAKS = np.array([1.0, 1e-4, 0.05, 1e-2, 0.5])


def _peaks(rows, da, db):
    return 1.0 / (PEAKS[rows] + (da - 0.3) ** 2)


def _peak(c):
    return lambda rows, da, db: 1.0 / (c + (da - 0.3) ** 2)


def test_stack_never_reevaluates_a_settled_row():
    received = []

    def recording(rows, da, db):
        assert rows.shape == (len(rows), 1) and da.shape == db.shape == (len(rows), da.shape[1])
        received.append(set(rows.ravel().tolist()))
        return _peaks(rows, da, db)

    res = quadrature.integrate(recording, np.zeros(len(PEAKS)), 1.0)
    assert res.converged and res.level == len(received) + 4
    assert received[0] == set(range(len(PEAKS)))
    # the open rows only shrink: a row that settled is never asked for again
    assert all(later <= earlier for earlier, later in zip(received, received[1:]))
    counts = [len(r) for r in received]
    assert counts[0] > counts[-1] == 1


def test_stack_rows_match_one_row_calls():
    # each row settles at its own level, with the value and error estimate
    # of the one-row call of its integrand, bit for bit
    received = []
    res = quadrature.integrate(lambda rows, da, db: received.append(rows.ravel()) or
                               _peaks(rows, da, db), np.zeros(len(PEAKS)), 1.0)
    for i, c in enumerate(PEAKS):
        one = quadrature.integrate(_peak(c), 0.0, 1.0)
        levels = [level for level, rows in enumerate(received, start=5) if i in rows]
        assert (res.value[i], res.err_estimate[i]) == (float(one.value), float(one.err_estimate))
        assert levels[-1] == one.level and len(levels) == one.level - 4


def test_stack_shape_follows_the_endpoints():
    res = quadrature.integrate(lambda rows, da, db: da ** 0.0 * (rows + 1.0), np.zeros((2, 3)),
                               np.array([1.0, 2.0, 3.0]))
    assert res.value.shape == res.err_estimate.shape == (2, 3)
    np.testing.assert_allclose(res.value, np.arange(1.0, 7.0).reshape(2, 3)
                               * np.array([1.0, 2.0, 3.0]), rtol=1e-14)


def test_unconverged_row_raises_the_scalar_error():
    # at max_level 6 only the sharp peak c = 1e-4 stays open
    with pytest.raises(quadrature.QuadratureError) as one:
        quadrature.integrate(_peak(1e-4), 0.0, 1.0, max_level=6)
    with pytest.raises(quadrature.QuadratureError) as stacked:
        quadrature.integrate(_peaks, np.zeros(len(PEAKS)), 1.0, max_level=6)
    assert str(stacked.value) == str(one.value)
    assert str(one.value).startswith("no convergence on (0.0, 1.0): value=")


def test_non_finite_row_closes_alone():
    # a row whose integrand is not finite is evaluated at the first level
    # only and closes as (inf, inf); the other rows go on, and the raised
    # error names that row
    exponent = np.array([-0.5, -1.2, 0.0])
    received = []

    def f(rows, da, db):
        received.append(set(rows.ravel().tolist()))
        return da ** exponent[rows]

    with pytest.raises(quadrature.QuadratureError) as raised:
        quadrature.integrate(f, np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert str(raised.value) == "no convergence on (0.0, 2.0): value=inf, err=inf"
    assert received[0] == {0, 1, 2} and len(received) > 1
    assert all(1 not in rows for rows in received[1:])
