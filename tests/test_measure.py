"""Moment contracts: integrability, closed form vs quadrature, ratio
bounds, truncation growth.

The frozen moment references were computed through the Gamma
representations of both special-function factors at 25-digit precision
and independently confirmed by adaptive 2D quadrature of the raw
r-coordinate integral (agreement ~5e-11).
"""

import itertools
import math
import re
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergsob import bergman, measure, quadrature, regularity, special, suites
from bergsob.errors import DomainError
from bergsob.geometry import DomainParams
from bergsob.measure import MomentArgs

LAM_1_2_03_MU2 = 808.844188090424271
LAM_M1_1_02_MU25 = 1306.67775891974908
ALPHA_TAIL_1E60 = 1.67108930173655685e25

TWO_PI_CUBED = 2.0 * math.pi**3


class TestIntegrability:
    def test_mu3_examples(self):
        p = DomainParams(3.0)
        assert measure.is_integrable(MomentArgs(-2.0, 0.0, 0.0, p))
        assert not measure.is_integrable(MomentArgs(-2.0, 0.0, 1.0 / 3.0 + 1e-12, p))

    def test_half_cap(self):
        p = DomainParams(2.0)
        for x in (-1.0, 0.0, 10.0):
            assert not measure.is_integrable(MomentArgs(x, 0.0, 0.5, p))

    def test_named_violations(self):
        p = DomainParams(2.0)
        m = MomentArgs(0.0, 0.0, 0.7, p)
        assert measure.violated_clause(m) == "s < 1/2"
        with pytest.raises(DomainError, match=r"^moment diverges \(s < 1/2\); see"):
            measure.lambda_closed(m)
        m = MomentArgs(-3.0, 0.0, 0.0, p)
        assert measure.violated_clause(m) == "x/mu + 1 - s > 0"
        with pytest.raises(DomainError, match=r"^moment diverges \(x/mu \+ 1 - s > 0\); see"):
            measure.lambda_closed(m)

    def test_s_clause_named_first(self):
        # both clauses fail: the s clause is the one named, by both moment paths
        m = MomentArgs(-3.0, 0.0, 0.6, DomainParams(2.0))
        assert measure.integrability_margin(m) < 0.0
        assert measure.violated_clause(m) == "s < 1/2"
        for path in (measure.lambda_closed, measure.lambda_quadrature):
            with pytest.raises(DomainError, match=r"^moment diverges \(s < 1/2\); see"):
                path(m)

    def test_exact_borderline_is_divergent(self):
        # x = mu (s - 1) with dyadic values: the margin is exactly zero
        p = DomainParams(2.0)
        m = MomentArgs(-1.5, 0.0, 0.25, p)
        assert measure.integrability_margin(m) == 0.0
        assert not measure.is_integrable(m)

    def test_elementwise(self):
        # both clauses per element for arrays, a Python bool for floats
        p = DomainParams(2.0)
        m = MomentArgs(np.array([0.0, -3.0, 0.0, -1.5]), 0.0, np.array([0.2, 0.1, 0.5, 0.25]), p)
        np.testing.assert_array_equal(measure.is_integrable(m), [True, False, False, False])
        assert measure.is_integrable(MomentArgs(0.0, 0.0, 0.2, p)) is True
        assert measure.is_integrable(MomentArgs(0.0, 0.0, 0.5, p)) is False


class TestClosedForm:
    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
    def test_base_moment(self, mu):
        v = measure.lambda_closed(MomentArgs(0.0, 0.0, 0.0, DomainParams(mu)))
        assert v == pytest.approx(TWO_PI_CUBED * mu, rel=1e-10)

    def test_frozen_references(self):
        v = measure.lambda_closed(MomentArgs(1.0, 2.0, 0.3, DomainParams(2.0)))
        assert v == pytest.approx(LAM_1_2_03_MU2, rel=1e-11)
        v = measure.lambda_closed(MomentArgs(-1.0, 1.0, 0.2, DomainParams(2.5)))
        assert v == pytest.approx(LAM_M1_1_02_MU25, rel=1e-11)

    def test_non_finite_argument_raises(self):
        # a nan y once reached the Stirling shift as "cannot convert float NaN to integer"
        with pytest.raises(DomainError):
            measure.lambda_closed(MomentArgs(0.0, math.nan, 0.0, DomainParams(3.0)))

    def test_array_matches_scalar(self):
        # one array call over a (j, k) lattice equals the scalar closed form
        params = DomainParams(2.5)
        j = np.arange(-1.0, 6.0)[:, None]
        k = np.arange(-7.0, 8.0)
        vals = measure.lambda_closed(MomentArgs(j, k, 0.3, params))
        for (a, b), v in np.ndenumerate(vals):
            scalar = measure.lambda_closed(MomentArgs(float(j[a, 0]), float(k[b]), 0.3, params))
            assert v == pytest.approx(scalar, rel=1e-14)

    def test_array_rejects_divergent_element(self):
        # the first divergent element and its own clause, as lambda_quadrature names them
        with pytest.raises(DomainError, match=r"\(x/mu \+ 1 - s > 0\) at \(x, y, s\) = \(-3.0, 0.0, 0.0\)"):
            measure.lambda_closed(MomentArgs(np.array([0.0, -3.0]), 0.0, 0.0, DomainParams(2.0)))
        with pytest.raises(DomainError, match=r"\(s < 1/2\) at \(x, y, s\) = \(0.0, 0.0, 0.5\)"):
            measure.lambda_closed(MomentArgs(0.0, 0.0, np.array([0.2, 0.5]), DomainParams(2.0)))
        with pytest.raises(DomainError, match=r"\(s < 1/2\) at \(x, y, s\) = \(5.0, 0.0, 0.5\)"):
            measure.lambda_closed(MomentArgs(np.array([5.0, 0.0]), 0.0, 0.5, DomainParams(2.0)))
        with pytest.raises(DomainError, match=r"^moment diverges \(x/mu \+ 1 - s > 0\); see"):
            measure.lambda_closed(MomentArgs(-3.0, 0.0, 0.0, DomainParams(2.0)))

    def test_overflow_names_the_element(self):
        # alpha and beta are each finite at y = 444.25 near the boundary, but
        # their product is not: a scalar keeps its message, and an array names
        # the first overflowing element and its index, not the whole weight array
        params = DomainParams(2.0)
        with pytest.raises(DomainError, match=r"^lam\(x, y, 0\.0\) at mu = 2\.0 overflows a double$"):
            measure.lambda_closed(MomentArgs(-1.999998, 444.25, 0.0, params))
        with pytest.raises(DomainError, match=r"^lam\(-1\.999998, 444\.25, 0\.0\) at mu = 2\.0 "
                                              r"overflows a double at index 2$"):
            measure.lambda_closed(MomentArgs(-1.999998, np.array([0.0, 1.0, 444.25, 2.0]),
                                             np.zeros(4), params))

    @pytest.mark.parametrize("mu", [1.5, 2.5, 7.9])
    def test_array_weights_match_scalar_bitwise(self, mu):
        # one weight per element, as verify's draws: each the bits of its scalar call
        params = DomainParams(mu)
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 0.49, 40)
        x, y = mu * (s - 1.0 + rng.uniform(1e-3, 2.0, 40)), rng.uniform(-6.0, 6.0, 40)
        vals = measure.lambda_closed(MomentArgs(x, y, s, params))
        for xi, yi, si, v in zip(x, y, s, vals):
            assert v == measure.lambda_closed(MomentArgs(float(xi), float(yi), float(si), params))
        # and the weights broadcast against a lattice of x and y
        grid = measure.lambda_closed(MomentArgs(x[:4, None, None], np.array([-3.0, 0.5])[:, None],
                                                s[:3], params))
        for (a, b, c), v in np.ndenumerate(grid):
            assert v == measure.lambda_closed(MomentArgs(float(x[a]), (-3.0, 0.5)[b], float(s[c]),
                                                         params))


class TestQuadratureCross:
    def test_base_moment(self):
        m = MomentArgs(0.0, 0.0, 0.0, DomainParams(2.0))
        q, _ = measure.lambda_quadrature(m)
        assert q == pytest.approx(TWO_PI_CUBED * 2.0, rel=1e-8)

    def test_generic_point(self):
        m = MomentArgs(1.0, 2.0, 0.3, DomainParams(2.0))
        c = measure.lambda_closed(m)
        q, _ = measure.lambda_quadrature(m)
        assert abs(c - q) / c <= 1e-8

    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("y", [0.0, -3.0, 10.0])
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.49])
    @pytest.mark.parametrize("margin", [0.02, 1e-3, 1e-6, 1e-10])
    def test_near_threshold(self, margin, s, y, mu):
        # thin margins x/mu + 1 - s, where the alpha exponent 2 margin nears 0
        m = MomentArgs(mu * (margin - 1.0 + s), y, s, DomainParams(mu))
        assert measure.integrability_margin(m) == pytest.approx(margin, abs=1e-14)
        c = measure.lambda_closed(m)
        q, _ = measure.lambda_quadrature(m)
        assert abs(c - q) / c <= 1e-12

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            measure.lambda_quadrature(MomentArgs(0.0, 0.0, 0.6, DomainParams(2.0)))

    def test_stack_names_first_divergent_element(self):
        m = MomentArgs(np.array([0.0, -3.0, 0.0]), 1.0, np.array([0.2, 0.1, 0.6]), DomainParams(2.0))
        with pytest.raises(DomainError, match=r"\(x/mu \+ 1 - s > 0\) at \(x, y, s\) = \(-3.0, 1.0, 0.1\)"):
            measure.lambda_quadrature(m)
        m = MomentArgs(0.0, np.array([1.0, 2.0]), 0.5, DomainParams(2.0))  # y alone an array
        with pytest.raises(DomainError, match=r"\(s < 1/2\) at \(x, y, s\) = \(0.0, 1.0, 0.5\)"):
            measure.lambda_quadrature(m)

    @pytest.mark.parametrize("mu", [1.5, 3.0])
    def test_stack_matches_scalar_bitwise(self, mu):
        # a stack mixing the weak branches (alpha's min(X, 1 - 2s) < 1/2, beta's
        # Y < 1/2, which implies X < 1/2) with the direct ones: each element's
        # value and error estimate are those of its scalar call, bit for bit
        params = DomainParams(mu)
        margins = np.array([1e-6, 0.1, 0.2, 0.6, 1.5, 0.02, 0.4, 2.0])
        s = np.array([0.45, 0.1, 0.45, 0.3, 0.0, 0.2, 0.49, 0.35])
        y = np.array([-3.0, 0.0, 2.5, 10.0, -1.0, 4.0, 0.5, -6.0])
        x = mu * (margins - 1.0 + s)
        X, Y = measure._exponents(x, s, mu)
        weak_alpha = np.minimum(X, 1.0 - 2.0 * s) < 0.5
        assert np.any(Y < 0.5) and np.any(weak_alpha & (Y >= 0.5)) and np.any(~weak_alpha)
        value, err = measure.lambda_quadrature(MomentArgs(x, y, s, params))
        assert value.shape == err.shape == x.shape
        for i in range(len(x)):
            one = measure.lambda_quadrature(MomentArgs(float(x[i]), float(y[i]), float(s[i]), params))
            assert isinstance(one[0], float)
            assert one == (value[i], err[i])

    def test_sweep(self):
        rng = np.random.default_rng(7)
        count = 0
        for mu in (1.5, 2.0, 3.0):
            p = DomainParams(mu)
            while count < 60 * (1 + (mu > 1.5) + (mu > 2.0)):
                s = float(rng.uniform(0.0, 0.45))
                y = float(rng.uniform(-4.0, 4.0))
                x = float(rng.uniform(mu * (s - 0.9), 3.0))
                m = MomentArgs(x, y, s, p)
                if measure.integrability_margin(m) < 0.1:
                    continue
                c = measure.lambda_closed(m)
                q, _ = measure.lambda_quadrature(m)
                assert abs(c - q) / c <= 1e-8, m
                count += 1


def _mp_ratio(x, y, s, mu):
    """lam(x,y,s) lam(x,y,-s) / lam(x,y,0)^2 from the Gamma closed forms at
    40 digits."""
    with mpmath.workdps(40):
        x, y, s, mu = (mpmath.mpf(v) for v in (x, y, s, mu))

        def beta(a):
            g = mpmath.gamma((a + 1 + 1j * y) / 2)
            return mpmath.pi * mpmath.power(2, 1 - a) * mpmath.gamma(a) / abs(g) ** 2

        X = 2 * x / mu + 2
        a_part = (
            mpmath.beta(X - 2 * s, 1 - 2 * s) * mpmath.beta(X + 2 * s, 1 + 2 * s)
            / mpmath.beta(X, 1) ** 2
        )
        return float(a_part * beta(X + 1 - 4 * s) * beta(X + 1 + 4 * s) / beta(X + 1) ** 2)


class TestRatio:
    def test_unweighted_ratio_is_one(self):
        assert measure.lambda_ratio_family(1.0, 0.0, 0.0, DomainParams(2.0)) == 1.0

    def test_cauchy_schwarz_floor(self):
        p = DomainParams(2.0)
        for (x, y, s) in [(1.0, 0.0, 0.25), (-0.5, 2.0, 0.1), (3.0, -1.0, 0.45)]:
            assert measure.lambda_ratio_family(x, y, s, p) >= 1.0 - 1e-12

    def test_spec_point_under_bound(self):
        # bound expression (3*2*4)/(2.5*0.5*3) at mu=2, x=1, s=1/4
        p = DomainParams(2.0)
        r = measure.lambda_ratio_family(1.0, 0.0, 0.25, p)
        bound = measure.lambda_ratio_bound(1.0, 0.25, p)
        assert bound == pytest.approx((3.0 * 2.0 * 4.0) / (2.5 * 0.5 * 3.0), rel=1e-14)
        assert 1.0 <= r <= bound

    def test_lattice_sandwich(self):
        p = DomainParams(2.0)
        for s in (0.1, 0.2, 0.3, 0.4):
            jmin = math.floor((s - 1.0) * p.mu) + 1
            for j in range(jmin, 7):
                ratios = measure.lambda_ratio_family(
                    float(j), np.arange(-6.0, 7.0), s, p
                )
                bound = measure.lambda_ratio_bound(float(j), s, p)
                assert np.all(ratios >= 1.0 - 1e-9)
                assert np.all(ratios <= bound + 1e-9)

    @pytest.mark.parametrize("mu,s", [(3.0, 0.2), (4.2857, 0.0), (7.9, 0.45)])
    def test_lattice_broadcast_matches_0d_calls(self, mu, s):
        # a broadcast grid, a 1-d row and a 0-d call give the same bits
        p = DomainParams(mu)
        xs = np.array([1.0 - mu, -1.0, 0.5, 4.0])
        xs = xs[xs / mu + 1.0 - s > 0.0]
        ys = np.array([-40.0, -7.0, 0.0, 2.5, 30.0])
        grid = measure.lambda_ratio_family(xs[:, None], ys[None, :], s, p)
        assert grid.shape == (len(xs), len(ys))
        for (i, j), v in np.ndenumerate(grid):
            point = measure.lambda_ratio_family(float(xs[i]), float(ys[j]), s, p)
            assert np.ndim(point) == 0 and v == point
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(grid[i], measure.lambda_ratio_family(float(x), ys, s, p))

    @pytest.mark.parametrize("mu,s", [(2.0, 0.1), (7.0170301876267, 0.14251026907987766)])
    def test_bound_broadcast_matches_scalar(self, mu, s):
        p = DomainParams(mu)
        xs = np.array([1.0 - mu, math.floor((s - 1.0) * mu) + 1.0, -0.5, 0.0, 3.0, 40.0])
        bounds = measure.lambda_ratio_bound(xs, s, p)
        for x, b in zip(xs, bounds):
            scalar = measure.lambda_ratio_bound(float(x), s, p)
            assert type(scalar) is float and b == scalar
        with pytest.raises(DomainError, match="bound needs"):
            measure.lambda_ratio_bound(np.array([0.0, -mu]), s, p)

    def test_near_boundary_ratio_against_mpmath(self):
        # dw1 family, j = 1, k = -40: the weight gap 2x/mu + 2 - 2s is 3.2e-7,
        # and evaluating that expression as written loses 3e-10 of the ratio
        mu, s = 7.0170301876267, 0.14251026907987766
        x, y = 1.0 - mu, -40.0
        got = measure.lambda_ratio_family(x, y, s, DomainParams(mu))
        assert abs(got - _mp_ratio(x, y, s, mu)) / got <= 1e-12

    def test_divergent_weight_rejected(self):
        with pytest.raises(DomainError, match="diverges"):
            measure.lambda_ratio_family(-1.9, 0.0, 0.4, DomainParams(2.0))
        # one non-integrable row refuses the whole lattice
        xs = np.array([[0.0], [-1.9], [3.0]])
        with pytest.raises(DomainError, match="diverges for x = -1.9"):
            measure.lambda_ratio_family(xs, np.arange(3.0), 0.4, DomainParams(2.0))

    @pytest.mark.parametrize("s", [-0.1, 0.5, 0.7, math.nan])
    def test_weight_outside_range_rejected(self, s):
        with pytest.raises(DomainError, match="0 <= s < 1/2"):
            measure.lambda_ratio_family(np.array([1.0, 2.0]), 0.0, s, DomainParams(2.0))

    @pytest.mark.parametrize("mu", [1.5, 3.0, 7.9])
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.45])
    def test_family_even_in_k_bitwise(self, mu, s):
        # what lets continuity_certificate scan only k <= 0
        p = DomainParams(mu)
        jmin = math.floor((s - 1.0) * mu) + 1
        js = np.arange(jmin, 25, dtype=float)
        ks = np.arange(-60.0, 61.0)
        for x in (js, js - mu):  # the function and dw1 families
            keep = x / mu + 1.0 - s > 0.0
            grid = measure.lambda_ratio_family(x[keep, None], ks[None, :], s, p)
            np.testing.assert_array_equal(grid, grid[:, ::-1])


def _exact_gap(x, s, mu):
    """x + mu - mu s in exact rational arithmetic."""
    return Fraction(x) + Fraction(mu) - Fraction(mu) * Fraction(s)


_BOUNDARY_CASES = [
    (1.5, 0.0), (3.0, 0.2), (7.9, 0.45), (28.73028667752445, 0.49979559268718426), (5e5, 0.3),
]


def _near_boundary(mu, s):
    """The first nine doubles x past the boundary x + mu - mu s = 0, and those
    with 200 seeded x further in."""
    near = [mu * (s - 1.0)]
    while _exact_gap(near[0], s, mu) <= 0:  # the first double past the boundary
        near[0] = math.nextafter(near[0], math.inf)
    for _ in range(8):
        near.append(math.nextafter(near[-1], math.inf))
    rng = np.random.default_rng(3)
    return near, np.concatenate([near, near[0] + mu * np.exp(rng.uniform(-30.0, 3.0, 200))])


class TestExponents:
    @pytest.mark.parametrize("mu,s", _BOUNDARY_CASES)
    def test_exact_up_to_the_boundary(self, mu, s):
        near, xs = _near_boundary(mu, s)
        for sign in (1.0, -1.0, 0.0):
            got, _ = measure._exponents(xs, s, mu, sign)
            for i, (x, g) in enumerate(zip(xs, got)):
                gap = _exact_gap(float(x), sign * s, mu)
                # the sum is rounded once, as math.fsum rounds it, then scaled by 2/mu
                assert g == 2.0 * float(gap) / mu
                assert measure._exponents(float(x), sign * s, mu)[0] == g
                if i < len(near) and sign == 1.0:
                    exact = 2 * gap / Fraction(mu)
                    assert abs(Fraction(float(g)) - exact) <= Fraction(float(np.spacing(float(exact))))

    @pytest.mark.parametrize("mu,s", _BOUNDARY_CASES)
    def test_array_weight_matches_scalar(self, mu, s):
        # one weight per element, near the boundary of its own weight and
        # away from it: each element has the bits of its scalar call
        _, xs = _near_boundary(mu, s)
        ss = np.where(np.arange(len(xs)) % 3 == 0, s, s * np.linspace(0.0, 1.0, len(xs)))
        X, Y = measure._exponents(xs, ss, mu)
        for x, w, a, b in zip(xs, ss, X, Y):
            assert (a, b) == measure._exponents(float(x), float(w), mu)
        # a weight axis broadcast against x, as one weight per column
        X, Y = measure._exponents(xs[:, None], np.array([s, -s, 0.0]), mu)
        for sign, col in zip((1.0, -1.0, 0.0), X.T):
            np.testing.assert_array_equal(col, measure._exponents(xs, sign * s, mu)[0])

    def test_stacked_weights_match_single(self):
        xs = np.array([-2.9, -0.5, 1.0, 40.0])[:, None]
        sign = np.array([1.0, -1.0, 0.0])[:, None, None]
        X, Y = measure._exponents(xs, 0.2, 3.0, sign)
        assert X.shape == Y.shape == (3, 4, 1)
        for i, w in enumerate((0.2, -0.2, 0.0)):
            Xw, Yw = measure._exponents(xs, w, 3.0)
            np.testing.assert_array_equal(X[i], Xw)
            np.testing.assert_array_equal(Y[i], Yw)

    def test_overflow_raises(self):
        # a DomainError, with no numpy warning first, for scalar and array x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1.7e308, np.array([1.0, 1.7e308])):
                with pytest.raises(DomainError):
                    measure._exponents(x, -0.4, 1.7e308)
            # an array weight of which one element's mu s overflows
            with pytest.raises(DomainError):
                measure._exponents(1.0, np.array([0.2, 2.0]), 1.7e308)
            # x + mu - mu s is finite, but the exponent 2(x + mu - mu s)/mu is not;
            # the ratio bound returned nan from it
            with pytest.raises(DomainError, match="exponents"):
                measure._exponents(1e308, 0.0, 2.0)
            with pytest.raises(DomainError, match="exponents"):
                measure.lambda_ratio_bound(1e308, 0.0, DomainParams(2.0))


class TestAlphaTail:
    def test_tiny_lower_limit(self):
        # ∫_lo^1 t^(X-1) (1-t)^(-2s) dt at X = -0.414, s = 0.287, lo = 1e-60 (the
        # double values): mpmath betainc at 40 digits, confirmed by a 40-digit
        # quadrature in t = e^u.  The old fixed level-6 u1 rule was off by 7.9e-4.
        s = 0.287
        got = special.alpha_tail(-0.414, 1.0 - 2.0 * s, 1e-60, 1.0)
        assert got == pytest.approx(ALPHA_TAIL_1E60, rel=1e-13)

    @pytest.mark.parametrize("lo", [1e-300, 1e-3, 0.5, 0.97])
    @pytest.mark.parametrize("x,y", [(-0.9, 0.02), (2.5, 0.02), (0.3, 1.7)])
    def test_matches_mpmath(self, lo, x, y):
        want = float(mpmath.betainc(x, y, lo, 1))
        got = special.alpha_tail(x, y, lo, 1.0 - lo)
        assert got == pytest.approx(want, rel=1e-13)


class TestTruncation:
    def test_monotone_convergence(self):
        m = MomentArgs(0.5, 1.0, 0.2, DomainParams(2.0))
        full = measure.lambda_closed(m)
        vals = [measure.lambda_truncated(m, 2.0**-k) for k in (2, 4, 8, 12, 16)]
        assert all(a <= b + 1e-9 * full for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(full, rel=1e-8)

    def test_log_mode(self):
        # 2x/mu + 2 - 2s = 0: truncations grow linearly in |log eps|, with the
        # slope 8 pi^2 mu^2 beta(1 - 2s, 0) log 2 per halving
        m = MomentArgs(-2.0, 0.0, 0.2, DomainParams(2.5))
        fit = measure.truncation_growth_fit(m)
        assert fit.kind == "log"
        assert abs(fit.exponent) <= 1e-9
        assert fit.closed_form == 8.0 * math.pi**2 * 2.5**2 * special.beta_eval(0.6, 0.0)
        assert abs(fit.coefficient / fit.closed_form - 1.0) <= 1e-10
        assert fit.matches(0.0, 0.05)

    def test_power_mode(self):
        m = MomentArgs(-2.2, 0.0, 0.2, DomainParams(2.5))
        fit = measure.truncation_growth_fit(m)
        assert fit.kind == "power"
        assert fit.exponent == pytest.approx(-0.16, abs=0.05)

    def test_mixed_mode_power_survives_log(self):
        # exponent -0.1 with a simultaneous logarithmic component
        m = MomentArgs(-1.5, 0.0, 0.45, DomainParams(2.5))
        fit = measure.truncation_growth_fit(m)
        assert fit.kind == "power"
        assert fit.exponent == pytest.approx(-0.1, abs=0.05)

    def test_agrees_with_predicate(self):
        p = DomainParams(2.5)
        for (x, s) in [(-2.0, 0.2), (-2.2, 0.2), (-1.5, 0.45)]:
            m = MomentArgs(x, 0.0, s, p)
            assert not measure.is_integrable(m)
            fit = measure.truncation_growth_fit(m)
            # certified growth means the values kept increasing: every shell adds
            assert all(shell > 0.0 for shell in fit.shells)

    def test_strong_divergence_fits_without_overflow(self):
        # exponent -0.72 at mu ~ 20: the truncated values reach ~1e72 and
        # their log-space inner terms once overflowed to inf for eps <= 2^-13
        m = MomentArgs(-19.0, 0.0, 0.412, DomainParams(20.042194092827003))
        fit = measure.truncation_growth_fit(m)
        assert all(map(math.isfinite, fit.shells))
        assert fit.kind == "power"
        assert fit.exponent == pytest.approx(-0.72, abs=0.05)

    @pytest.mark.parametrize("s", [0.2, 0.45, 0.49])
    @pytest.mark.parametrize("y", [0.0, -1.5])
    def test_integrable_limit(self, s, y):
        # the shells summed down to 2^-60 reach the closed form; the old fixed
        # u1 rule was off by 6.6e-7 at s = 0.49 (mass below its smallest node)
        m = MomentArgs(1.0, y, s, DomainParams(2.0))
        full = measure.lambda_closed(m)
        assert abs(measure.lambda_truncated(m, 2.0**-60) - full) <= 1e-12 * full

    @pytest.mark.parametrize("y", [0.0, 0.7, -2.5])
    @pytest.mark.parametrize("x,s,mu", [(-2.2, 0.2, 2.5), (-1.5, 0.45, 2.5), (-19.0, 0.412, 20.04)])
    def test_shells_match_oracle_differences(self, x, s, mu, y):
        # the (r1, u2) shells down to 2^-8 against the independent (u1, u2)
        # route, to 1e-12
        m = MomentArgs(x, y, s, DomainParams(mu))
        fit = measure.truncation_growth_fit(m)
        values = np.array([measure.lambda_truncated(m, e) for e in fit.eps_grid[:5]])
        oracle = [measure.lambda_truncated_oracle(m, e) for e in fit.eps_grid[:5]]
        shells = np.array(fit.shells[:4])
        assert np.all(np.abs(shells - np.diff(oracle)) <= 1e-12 * shells)
        assert np.all(np.abs(values - oracle) <= 1e-12 * np.array(oracle))

    @pytest.mark.parametrize("eps", [0.5, 0.9, 1.0 - 2.0**-20, 1.0 - 2.0**-40])
    @pytest.mark.parametrize("mu", [1.5, 7.3, 20.04])
    def test_top_piece_near_one_matches_oracle(self, eps, mu):
        # a cut above 2^-4 is the top piece alone, tanh-sinh in r1 on (eps, 1),
        # where the fibers collapse as r1 -> 1; against the (u1, u2) route, to
        # 1e-12, at a divergent x (the worst difference seen was 3.6e-15)
        for s, y in itertools.product([0.0, 0.45, 0.49], [0.0, -2.5, 6.0]):
            m = MomentArgs(mu * (s - 1.2), y, s, DomainParams(mu))
            oracle = measure.lambda_truncated_oracle(m, eps)
            assert abs(measure.lambda_truncated(m, eps) - oracle) <= 1e-12 * oracle, (s, y)

    def test_fit_values_are_truncated_moments(self):
        # the fit's shells are the first differences of the truncated moments
        m = MomentArgs(-2.2, 0.3, 0.2, DomainParams(2.5))
        fit = measure.truncation_growth_fit(m)
        values = measure.lambda_truncated(m, fit.eps_grid[0]) + np.cumsum((0.0, *fit.shells))
        for e, v in zip(fit.eps_grid[::3], values[::3]):
            assert measure.lambda_truncated(m, e) == pytest.approx(v, rel=1e-14)

    def test_non_finite_fiber_raises(self, monkeypatch):
        fiber = measure._fiber
        monkeypatch.setattr(measure, "_fiber", lambda *args: fiber(*args) * math.inf)
        m = MomentArgs(-2.2, 0.0, 0.2, DomainParams(2.5))
        with pytest.raises(measure.quadrature.QuadratureError):
            measure.lambda_truncated(m, 2.0**-8)

    @pytest.mark.parametrize("factor,error", [(0.0, DomainError), (-1.0, DomainError),
                                              (math.nan, measure.quadrature.QuadratureError),
                                              (math.inf, measure.quadrature.QuadratureError)])
    def test_fit_of_bad_shells_raises(self, monkeypatch, factor, error):
        # shells that are 0 or negative show no growth, and non-finite ones no
        # value: neither yields an exponent, least of all nan
        fiber = measure._fiber
        monkeypatch.setattr(measure, "_fiber", lambda *args: fiber(*args) * factor)
        with pytest.raises(error):
            measure.truncation_growth_fit(MomentArgs(-2.2, 0.0, 0.2, DomainParams(2.5)))

    @pytest.mark.parametrize("x,s", [(-2.5, -3.0), (1.0, 0.2)])
    def test_fit_of_convergent_moment_raises(self, x, s):
        # the shells shrink, so no second difference is positive
        m = MomentArgs(x, 0.0, s, DomainParams(3.0))
        with pytest.raises(DomainError, match="no power growth"):
            measure.truncation_growth_fit(m)

    @pytest.mark.parametrize("x,y,eps", [(-2.6, 1.7e308, 1.0 - 2.0**-50), (1.7e308, 0.0, 0.5),
                                         (1.7e308, 0.0, 2.0**-10)])
    def test_overflowing_rate_is_total(self, x, y, eps):
        # an exponential rate past a double: a single cut near 1 has no shells
        # to split into panels, the fibers of a huge y overflow and raise, and
        # a huge x leaves a moment that underflows to 0
        m = MomentArgs(x, y, 0.2, DomainParams(2.0))
        if y:
            with pytest.raises(measure.quadrature.QuadratureError, match="overflows a double"):
                measure.lambda_truncated(m, eps)
        else:
            assert measure.lambda_truncated(m, eps) == 0.0

    def test_overflowing_sum_of_finite_pieces_raises(self):
        # each piece is finite, their sum is not: math.fsum raised OverflowError
        m = MomentArgs(-1.6, 450.0, 0.2, DomainParams(2.0))
        with pytest.raises(measure.quadrature.QuadratureError, match="overflows a double"):
            measure.lambda_truncated(m, 2.0**-12)

    def test_eps_range_checked(self):
        m = MomentArgs(0.0, 0.0, 0.0, DomainParams(2.0))
        with pytest.raises(DomainError):
            measure.lambda_truncated(m, 1.5)

    def test_oracle_refuses_unconverged(self):
        # at mu = 30, s = 0.499 the u2 rule stops at level 9 still moving by
        # 6e-12 relative, above the 1e-12 asked for: no value is returned
        m = MomentArgs(-30.0, 0.0, 0.499, DomainParams(30.0))
        with pytest.raises(measure.quadrature.QuadratureError, match="no convergence"):
            measure.lambda_truncated_oracle(m, 2.0**-8)


def _mp_fiber_at_0(s, y):
    """G_y(0) = ∫_{-pi/2}^{pi/2} cos(u)^(-2s) e^(y u) du at 30 digits, folded to
    ∫_0^(pi/2) sin(t)^(-2s) 2 cosh(y (pi/2 - t)) dt with u = t - pi/2 on each
    half, then t = w^(1/(1 - 2s)), which leaves a smooth integrand."""
    with mpmath.workdps(30):
        s, y = mpmath.mpf(s), mpmath.mpf(y)
        a = 1 - 2 * s

        def f(w):
            t = w ** (1 / a)
            ratio = t / mpmath.sin(t) if t else mpmath.mpf(1)
            return ratio ** (2 * s) * 2 * mpmath.cosh(y * (mpmath.pi / 2 - t)) / a

        return mpmath.quad(f, [0, (mpmath.pi / 2) ** a])


@pytest.mark.parametrize("s", [0.0, 0.2, 0.49])
@pytest.mark.parametrize("y", [0.0, -3.0, 40.0])
def test_fiber_limit_is_beta(s, y):
    # the closed-form leading term of the shells: G_y(0) = beta(1 - 2s, y)
    # (Gradshteyn-Ryzhik 3.631), by a quadrature that shares no Gamma identity
    want = _mp_fiber_at_0(s, y)
    assert abs(special.beta_eval(1.0 - 2.0 * s, y) / want - 1.0) <= 3e-14


def _witness_draws(seed, count):
    """(r, p, s): count seeded witnesses, half in the log mode (s = None, the
    threshold) at r log-uniform in [1e-7, 0.49], half in the power mode at
    r ~ U(0.05, 0.45) and s ~ U(r, min(0.49, r + 0.45)), after the log mode
    at r in {1e-3, 1e-5, 1e-7}."""
    rng = np.random.default_rng(seed)
    draws = [(r, p, None) for r in (1e-3, 1e-5, 1e-7) for p in (0, 1, 2)]
    for i in range(count):
        p = i % 3
        if i % 2:
            draws.append((float(np.exp(rng.uniform(math.log(1e-7), math.log(0.49)))), p, None))
        else:
            r = float(rng.uniform(0.05, 0.45))
            draws.append((r, p, float(rng.uniform(r, min(0.49, r + 0.45)))))
    return draws


class TestWitnessSweep:
    def test_exponent_and_coefficient(self):
        # the sweep behind measure's _GAP_FLOOR: the measured exponent within
        # 1e-9 of the analytic one, and the deepest shell's coefficient within
        # the error model's bound
        for r, p, s in _witness_draws(20261020, 600):
            params = DomainParams(regularity.mu_for_threshold(r, p))
            s = regularity.threshold(params, p).r if s is None else s
            wit = regularity.divergence_witness(params, p, s)
            fit = wit.growth
            assert abs(fit.exponent - wit.analytic_exponent) <= 1e-9, (r, p, s)
            assert fit.kind == ("log" if abs(wit.analytic_exponent) <= 1e-9 else "power")
            gap = abs(fit.coefficient / fit.closed_form - 1.0)
            assert gap <= fit.gap_bound, (r, p, s)
            assert fit.matches(wit.analytic_exponent, 0.05)

    @pytest.mark.parametrize("x,y,s,mu", [(-2.0, 440.0, 0.2, 2.0), (-2.0, 50.0, 0.2, 2.0),
                                          (-1.2, 0.0, 0.0, 1.2), (-1.01, 10.0, 0.0, 1.01)])
    def test_gap_shrinks_by_two_to_the_mu(self, x, y, s, mu):
        # where the next term of the fiber, O((1 + |y|) r1^mu), is far above
        # rounding, the gap to the closed form shrinks by 2^mu per shell: the
        # deepest gap is half the error model's bound, less its rounding floor
        fit = measure.truncation_growth_fit(MomentArgs(x, y, s, DomainParams(mu)))
        gap = abs(fit.coefficient / fit.closed_form - 1.0)
        assert gap >= 1e3 * measure._GAP_FLOOR
        assert gap / (0.5 * (fit.gap_bound - measure._GAP_FLOOR)) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("y,mu", [(0.0, 1.2), (3.0, 1.01), (40.0, 1.001), (440.0, 1.2),
                                      (-440.0, 1.01)])
    @pytest.mark.parametrize("s", [0.0, 0.3])
    def test_log_mode_at_mu_near_one(self, y, mu, s):
        # e = 0: the two deepest shells' log ratio is off 0 by the fiber's next
        # term, up to 1e-2 here; the Richardson table takes the exponent to
        # rounding, so the log mode is read at every mu > 1
        fit = measure.truncation_growth_fit(MomentArgs(mu * (s - 1.0), y, s, DomainParams(mu)))
        assert fit.kind == "log" and abs(fit.exponent) <= 1e-12
        assert fit.matches(0.0, 0.05)
        # a power mode just past the log mode's band is still read as power
        fit = measure.truncation_growth_fit(MomentArgs(mu * (s - 1.0 - 5e-9), y, s,
                                                       DomainParams(mu)))
        assert fit.kind == "power" and fit.matches(-1e-8, 0.05)


def radial_every_node(profile, p1, p2, params, *, rtol=1e-10, min_level=3, max_level=9):
    """Reference: radial_moment on a 2-d tanh-sinh rule at each level in both
    r1 and u2, evaluated at all of its nodes, with no closed-form fiber.  The
    fiber rule is the folded one at s = 0: both halves u2 = +-(c - d) on
    d = c t, t the tanh-sinh nodes of (0, 1) less those within 1e-20 of an
    end, with the weight c."""
    edge = 1e-20  # the dropped end nodes carry less than this fraction of the sup
    mu = params.mu
    prev = None
    for level in range(min_level, max_level + 1):
        r1, p_hi, w = quadrature.nodes(level)
        t, t_hi, v = quadrature.nodes(level)
        keep = np.minimum(t, t_hi) > edge
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            c = measure._half_width(mu * np.log1p(-p_hi))
            gap = np.outer(c, t_hi[keep])  # |u2| = c - d = c (1 - t)
            inner = c * ((np.exp((0.5 * p2) * gap) + np.exp((-0.5 * p2) * gap)) @ v[keep])
            inner = np.asarray(profile(r1), dtype=float) * inner
            vals = np.where(inner == 0.0, 0.0, r1 ** (p1 + 2.0 * mu - 1.0) * w * inner)
        total = 8.0 * math.pi**2 * mu * mu * float(vals.sum())
        if prev is not None and abs(total - prev) <= max(1e-300, rtol * abs(total)):
            return total, level, True
        prev = total
    return total, max_level, False


def _mp_radial(profile, p1, p2, mu, points=()):
    """Reference: 8 pi^2 mu^2 ∫_0^1 r1^(p1 + 2mu - 1) g(r1) F(r1) dr1 at 30
    digits, with the elementary s = 0 fiber F = 2 sinh(y c)/y (2c at y = 0),
    y = p2/2, c = arccos r1^mu; it shares no formula with measure._fiber.
    ``profile(r1, lib)`` evaluates g with the functions of lib (mpmath here)."""
    with mpmath.workdps(30):
        mu, y = mpmath.mpf(mu), mpmath.mpf(p2) / 2

        def integrand(r1):
            c = mpmath.acos(r1**mu)
            fiber = 2 * mpmath.sinh(y * c) / y if y else 2 * c
            return r1 ** (p1 + 2 * mu - 1) * profile(r1, mpmath) * fiber

        return float(8 * mpmath.pi**2 * mu**2 * mpmath.quad(integrand, [0, *points, 1]))


def _smooth(r1, lib=np):
    return lib.exp(-r1) * r1**1.5 + lib.cos(lib.log(r1))


def _peak(r1, lib=np):
    # a peak at r1 = 1/2 that a loose tolerance settles a level before a tight one
    return _smooth(r1, lib) / (0.01 + (r1 - 0.5) ** 2)


def _dw1_counterexample(mu):
    # the degree-1 smooth counterexample's squared norm, as project integrates it
    term = regularity.smooth_counterexample(DomainParams(mu), 1).terms[0]

    def square(r1, lib=np):
        if lib is np:
            return term.profile(r1) ** 2 / (4.0 * mu * mu)
        return lib.exp(-2 * r1**-mu) / (4 * mu * mu)

    return square, 2.0 * term.a + 2.0 - 2.0 * mu, 0.0, mu


RADIAL_CASES = [(_smooth, 2.0, -2.0, mu) for mu in (2.5, 3.0, 4.2)] + [_dw1_counterexample(3.0)]


class TestRadialMoment:
    @pytest.mark.parametrize("profile,p1,p2,mu", RADIAL_CASES, ids=["2.5", "3", "4.2", "dw1"])
    def test_nested_matches_full_evaluation(self, profile, p1, p2, mu):
        res = measure.radial_moment(lambda r1: (profile(r1),), p1, p2, 0.0, 0.0, DomainParams(mu),
                                    rtol=[1e-10])
        value, level, converged = radial_every_node(profile, p1, p2, DomainParams(mu))
        assert (res.level[0], res.converged[0]) == (level, converged)
        assert res.value[0] == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("profile,p1,p2,mu,points", [
        (_smooth, 2.0, -2.0, 3.0, ()),
        (_smooth, 2.0, 3.0, 2.5, ()),
        (_smooth, -1.5, 7.0, 4.2, ()),
        (_peak, 2.0, -2.0, 3.0, (0.5,)),
        (*_dw1_counterexample(3.0), ()),
        (*_dw1_counterexample(7.3), ()),
    ], ids=["y=-1", "y=1.5", "y=3.5", "peak", "dw1", "dw1-7.3"])
    def test_against_mpmath(self, profile, p1, p2, mu, points):
        # the worst relative difference seen on these cases was about 4e-16
        res = measure.radial_moment(lambda r1: (profile(r1),), p1, p2, 0.0, 0.0, DomainParams(mu),
                                    rtol=[1e-13])
        assert res.converged[0]
        assert res.value[0] == pytest.approx(_mp_radial(profile, p1, p2, mu, points), rel=1e-13)

    def test_each_integrand_keeps_its_tolerance(self):
        # the peak settles a level earlier to the loose tolerance
        params = DomainParams(3.0)
        square = lambda r1: _peak(r1) ** 2
        both = measure.radial_moment(
            lambda r1: (_peak(r1), square(r1)), 2.0, -2.0, 0.0, 0.0, params, rtol=[1e-4, 1e-12]
        )
        assert both.level[0] < both.level[1]
        for i, (profile, rtol) in enumerate([(_peak, 1e-4), (square, 1e-12)]):
            alone = measure.radial_moment(lambda r1: (profile(r1),), 2.0, -2.0, 0.0, 0.0, params,
                                          rtol=[rtol])
            assert (both.level[i], both.converged[i]) == (alone.level[0], True)
            assert both.value[i] == pytest.approx(alone.value[0], rel=1e-14)

    def test_per_integrand_exponents(self, monkeypatch):
        # exponents per integrand, broadcast against rtol: each result is
        # that of its own call, and each level is one _fiber call over the
        # distinct p2/2
        params = DomainParams(3.0)
        cases = [(_smooth, 2.0, -2.0, 1e-10), (_peak, 2.0, 3.0, 1e-4), (_smooth, -1.5, 3.0, 1e-12),
                 (_smooth, 2.0, -2.0, 1e-12)]
        alone = [measure.radial_moment(lambda r1, g=g: (g(r1),), p1, p2, 0.0, 0.0, params,
                                       rtol=[rtol])
                 for g, p1, p2, rtol in cases]
        ys, fiber = [], measure._fiber

        def recording(log_r1, mu, y, s):
            ys.append(list(y))
            return fiber(log_r1, mu, y, s)

        monkeypatch.setattr(measure, "_fiber", recording)
        joint = measure.radial_moment(lambda r1: [g(r1) for g, *_ in cases],
                                      [c[1] for c in cases], [c[2] for c in cases], 0.0, 0.0,
                                      params, rtol=[c[3] for c in cases])
        assert ys and all(y == [-1.0, 1.5] for y in ys)
        assert len(ys) == joint.level.max() - 3
        for i, want in enumerate(alone):
            assert (joint.level[i], joint.converged[i]) == (want.level[0], True)
            assert joint.value[i] == pytest.approx(want.value[0], rel=1e-14)

    def test_fiber_past_a_double_is_infinite_alone(self):
        # a row whose series peaks past _FIBER_REACH is infinite; the other
        # rows are the bits of their own call
        log_r1 = measure._r1_nodes(5, False, 0.0)[0]
        mixed = measure._fiber(log_r1, 3.0, [0.5, 1100.0, -2.0], 0.0)
        assert np.isinf(mixed[1]).all()
        assert np.array_equal(mixed[[0, 2]], measure._fiber(log_r1, 3.0, [0.5, -2.0], 0.0))
        assert np.isinf(measure._fiber(log_r1, 3.0, [1100.0], 0.0)).all()

    def test_overflowing_integrand_closes_alone(self):
        # an integrand whose total is not finite closes as (inf, inf),
        # unconverged, at the first level, and the finite one beside it
        # settles as it does alone
        params = DomainParams(3.0)
        both = measure.radial_moment(
            lambda r1: (_peak(r1), np.full_like(r1, math.inf)), 2.0, -2.0, 0.0, 0.0, params,
            rtol=[1e-12, 1e-12])
        alone = measure.radial_moment(lambda r1: (_peak(r1),), 2.0, -2.0, 0.0, 0.0, params,
                                      rtol=[1e-12])
        assert (both.level[0], both.converged[0]) == (alone.level[0], alone.converged[0])
        assert both.value[0] == pytest.approx(alone.value[0], rel=1e-14)
        assert (both.value[1], both.err_estimate[1], both.converged[1]) == (
            math.inf, math.inf, False)
        assert both.level[1] == measure._LEVELS[0]


class TestMeshMoments:
    @pytest.mark.parametrize("mu", [1.5, 2.5, 3.0, 4.2857142857142856, 7.3])
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.4, 0.49, 0.499])
    def test_against_closed_form(self, mu, s):
        # the Gram matrices' mesh of moments lam(x, y, s), as radial_moment
        # tabulates it with p1 = 2x and p2 = 2y: a third evaluation of lam; the
        # worst relative difference seen on this grid was 1.4e-14
        params = DomainParams(mu)
        j = bergman.membership_min_j(bergman.Component.FUNCTION, s, params)
        x = np.arange(j, j + 6, 0.5)
        y = np.arange(-2.0, 2.5, 0.5)
        got = measure.radial_moment(None, 2.0 * x[:, None], 2.0 * y, s, 0.0, params, rtol=1e-10)
        assert got.value.shape == (len(x), len(y)) and got.converged.all()
        want = measure.lambda_closed(MomentArgs(x[:, None], y, s, params))
        assert np.max(np.abs(got.value / want - 1.0)) <= 1e-9


def _mp_fiber(log_p, y, s):
    """2 ∫_0^c cosh(y u) (cos u - p)^(-2s) du, p = e^(log p), c = arccos p, at
    30 digits: split at c/2, the singular half taken in the distance d = c - u
    from the end, d = tau^(1/b), b = 1 - 2s, where the integrand is bounded."""
    with mpmath.workdps(30):
        p, y, s = mpmath.exp(mpmath.mpf(log_p)), mpmath.mpf(y), mpmath.mpf(s)
        c, b = mpmath.acos(p), 1 - 2 * s
        gap = lambda d: 2 * mpmath.sin(d / 2) * mpmath.sin(c - d / 2)  # cos(c - d) - p
        near = lambda tau: (2 * mpmath.cosh(y * (c - tau ** (1 / b)))
                            * (gap(tau ** (1 / b)) / tau ** (1 / b)) ** (-2 * s) / b)
        far = mpmath.quad(lambda u: 2 * mpmath.cosh(y * u) * gap(c - u) ** (-2 * s), [0, c / 2])
        return float(far + mpmath.quad(near, [0, (c / 2) ** b]))


class TestFiber:
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.45, 0.4999])
    @pytest.mark.parametrize("p", [1e-300, 1e-8, 0.5, 0.999, 1.0 - 1e-12])
    def test_closed_form_against_quadrature(self, s, p):
        # the Mehler-Dirichlet series against a 30-digit quadrature that shares
        # no formula with it, at mu = 1, so that log r1 = log p
        ys = np.array([0.0, 0.5, -2.5, 7.0, 50.0])
        got = measure._fiber(np.array([math.log(p)]), 1.0, ys, s)
        assert got.shape == (len(ys), 1)
        want = np.array([_mp_fiber(math.log(p), y, s) for y in ys])
        assert np.all(np.abs(got[:, 0] / want - 1.0) <= 1e-13)

    def test_collapsed_fiber_adds_nothing(self):
        # v = 1 - r1^mu underflows to 0 (a top-piece node -span t of a cut near
        # 1): the fiber is 0, also where v^(1/2 - 2s) would be infinite
        log_r1 = -0.01 * np.array([5e-324, 1e-300, 0.5])
        got = measure._fiber(log_r1, 2.0, np.array([0.0, 3.0]), 0.45)
        assert np.all(got[:, 0] == 0.0) and np.all(np.isfinite(got[:, 1:]) & (got[:, 1:] > 0.0))

    # lambda_truncated(m, 2^-10), the exponent of the regression of log second
    # differences on log eps that fitted growth modes before the closed-form
    # leading term, and lambda_truncated(m, 2^-4) and (m, 2^-16), all by the
    # (r1, u2) product rule that the closed-form fibers replaced
    _FROZEN = {
        50.0: (1.8003259573040058e+38, -0.39722189362175114, 2.3314236446420917e+36,
               5.153455791027009e+39),
        300.0: (2.1006306324042294e+208, -0.38922688900759234, 4.53826472525509e+205,
                6.191362314222408e+209),
        440.0: (5.3036300236906105e+303, -0.3871609266455609, 5.2383464504134605e+300,
                1.5782821517909188e+305),
    }

    @pytest.mark.parametrize("y", sorted(_FROZEN))
    def test_large_y_matches_product_rule(self, y):
        m = MomentArgs(-2.0, y, 0.2, DomainParams(2.0))
        fit = measure.truncation_growth_fit(m)
        eps = np.array(fit.eps_grid)
        d2 = np.diff(fit.shells)
        slope, _ = np.polyfit(np.log(eps[:-2][d2 > 0]), np.log(d2[d2 > 0]), 1)
        got = (measure.lambda_truncated(m, 2.0**-10), slope / 2.0,
               measure.lambda_truncated(m, eps[0]), measure.lambda_truncated(m, eps[-1]))
        assert fit.kind == "power"
        assert np.all(np.abs(np.array(got) / self._FROZEN[y] - 1.0) <= 1e-12)
        # the next term of the fiber, O(|y| r1^mu), is what separates the deepest
        # shell from its closed form, and it shrinks by 2^mu per shell
        assert abs(fit.coefficient / fit.closed_form - 1.0) <= fit.gap_bound
        # the deepest log ratio is log2 of the two deepest coefficients' ratio
        # over mu, under 2 gap_above / (mu log 2) <= 2^mu gap_bound / (mu log 2)
        # off the analytic exponent, and the Richardson table only shrinks that
        assert abs(fit.exponent + 0.4) <= 2.0**2 * fit.gap_bound / (2.0 * math.log(2.0))

    def test_no_fold_and_one_fiber_call_per_fit(self, monkeypatch):
        # every integral over the domain sums closed-form fibers in r1: a growth
        # fit (its shells alone) is one _fiber call, a truncated moment below
        # 2^-4 two (its top piece settled at level 4, then the fit's shells), a
        # Gram table settled at level 4 one, and a radial_moment settled at level
        # L is L - 3 (levels 3 and 4 share the first call)
        calls = []
        fiber = measure._fiber

        def counting(log_r1, mu, ys, s):
            calls.append(len(log_r1))
            return fiber(log_r1, mu, ys, s)

        monkeypatch.setattr(measure, "_fiber", counting)
        m = MomentArgs(-2.2, 0.3, 0.2, DomainParams(2.5))
        measure.truncation_growth_fit(m)
        assert len(calls) == 1
        measure.lambda_truncated(m, 2.0**-10)
        params = DomainParams(3.0)
        bergman.gram_matrix(bergman.basis_indices(1, 0.2, params, 9), 0.2, params)
        assert len(calls) == 4
        term = regularity.smooth_counterexample(params, 0).terms[0]
        res = measure.radial_moment(lambda r1: (term.profile(r1),), 2.0 * term.a, 0.0, 0.0, 0.0,
                                    params, rtol=[1e-10])
        assert res.level[0] == 5 and len(calls) == 6


@settings(max_examples=120, deadline=None)
@given(
    mu=st.floats(1.01, 6.0),
    x=st.floats(-6.0, 6.0),
    y=st.floats(-4.0, 4.0),
    s=st.floats(-0.5, 0.8),
)
def test_closed_form_totalizes(mu, x, y, s):
    # every finite argument has a positive value or a refusal naming its clause
    m = MomentArgs(x, y, s, DomainParams(mu))
    if measure.is_integrable(m):
        assert measure.lambda_closed(m) > 0.0
    else:
        with pytest.raises(DomainError, match=re.escape(f"({measure.violated_clause(m)})")):
            measure.lambda_closed(m)


class TestMeasureSuite:
    def test_one_oracle_stack_per_mu_and_one_ratio_call_per_s(self, monkeypatch):
        # the measure suite scores each mu's draws in one stack per oracle and
        # each s's ratio rows in one call: 3 mus, 4 weights
        calls = Counter()

        def counting(name, function):
            def wrapper(*args, **kw):
                calls[name] += 1
                return function(*args, **kw)
            return wrapper

        for module, name in ((special, "alpha_quadrature"), (special, "beta_quadrature"),
                             (measure, "lambda_ratio_family")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert suites.suite_measure(np.random.default_rng(1)).passed
        assert calls == {"alpha_quadrature": 3, "beta_quadrature": 3, "lambda_ratio_family": 4}

    def test_failures_replay_the_scalar_paths(self):
        # at rel_tol = -1 every check fails, and the failures are those of a
        # scalar lambda_closed / lambda_quadrature loop over the same draws, in order
        mus, count = (1.5, 2.0, 3.0), 12
        res = suites.SuiteResult("measure")
        suites.check_moments(res, mus, count, np.random.default_rng(11), s_hi=0.45, y_hi=4.0,
                             rel_tol=-1.0)
        rng, expected = np.random.default_rng(11), []
        for mu in mus:
            for _ in range(count):
                s = float(rng.uniform(0.0, 0.45))
                y = float(rng.uniform(-4.0, 4.0))
                x = float(rng.uniform(mu * (s - 0.9), 3.0))
                m = MomentArgs(x, y, s, DomainParams(mu))
                c, (q, _) = measure.lambda_closed(m), measure.lambda_quadrature(m)
                rel = abs(c - q) / c
                expected.append(f"mu={mu} ({x:.3g},{y:.3g},{s:.3g}): paths differ by {rel:.2e}")
        assert res.checks == len(mus) * count and res.failures == expected
