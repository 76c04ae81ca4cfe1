"""Oracle and identity tests for the two Euler-type integrals.

Frozen reference values were computed independently: alpha via the Euler
Beta function, beta via its Gamma-quotient representation
pi Gamma(x) / (2^(x-1) |Gamma((x+1+iy)/2)|^2), both at 25-digit working
precision.
"""

import collections
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergsob import measure, quadrature, regularity, special
from bergsob.errors import DomainError
from bergsob.geometry import DomainParams

# independently computed reference values (25-digit evaluation, frozen)
ALPHA_25_17 = 0.155722381342194181
BETA_28_20 = 3.11654014384256644
BETA_15_20 = 6.69581057450351302
BETA_07_M23 = 27.1985682578939559
BETA_35_00 = 1.43776828168271055


class TestAlphaValues:
    def test_unit_square(self):
        assert special.alpha_eval(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_linear_weight(self):
        assert special.alpha_eval(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_two_paths_agree(self):
        a = special.alpha_eval(2.5, 1.7)
        b, _ = special.alpha_quadrature(2.5, 1.7)
        assert abs(a - b) / a <= 1e-10
        assert a == pytest.approx(ALPHA_25_17, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            special.alpha_eval(0.0, 1.0)
        with pytest.raises(DomainError):
            special.alpha_eval(1.0, -2.0)

    def test_lgamma_overflow_raises(self):
        # math.lgamma overflows beyond about 2.5e305
        with pytest.raises(DomainError):
            special.alpha_eval(2.56e305, 1.0)

    @pytest.mark.parametrize("x,y", [(math.inf, 1.0), (1.0, math.nan), (np.array([1.0, math.inf]), 2.0)])
    def test_non_finite_arguments_raise(self, x, y):
        with pytest.raises(DomainError):
            special.alpha_eval(x, y)
        with pytest.raises(DomainError):
            special.beta_eval(x, y)


class TestBetaValues:
    def test_constant_integrand(self):
        assert special.beta_eval(1.0, 0.0) == pytest.approx(math.pi, rel=1e-14)

    def test_cosine(self):
        assert special.beta_eval(2.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_recursion_from_pi(self):
        # two recursion steps down from the constant integrand
        assert special.beta_eval(3.0, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-13)
        assert special.beta_eval(4.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_exponential_row(self):
        for y in (0.5, 1.0, 3.0, -2.0):
            expected = 2.0 * math.sinh(math.pi * y / 2.0) / y
            assert special.beta_eval(1.0, y) == pytest.approx(expected, rel=1e-13)

    def test_frozen_references(self):
        assert special.beta_eval(2.8, 2.0) == pytest.approx(BETA_28_20, rel=1e-12)
        assert special.beta_eval(1.5, 2.0) == pytest.approx(BETA_15_20, rel=1e-12)
        assert special.beta_eval(3.5, 0.0) == pytest.approx(BETA_35_00, rel=1e-12)

    def test_singular_regime_both_methods(self):
        closed = special.beta_eval(0.7, -2.3)
        direct, _ = special.beta_quadrature(0.7, -2.3)
        assert closed == pytest.approx(BETA_07_M23, rel=1e-12)
        assert direct == pytest.approx(BETA_07_M23, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            special.beta_eval(-0.5, 1.0)
        with pytest.raises(DomainError):
            special.beta_eval(np.array([1.0, 0.0]), 1.0)

    def test_family_matches_scalar(self):
        # the broadcast closed form against the scalar quadrature oracle
        xs = np.array([0.05, 0.7, 2.8, 11.0])[:, None]
        ys = np.array([-6.0, -2.0, 0.0, 2.0, 9.5])[None, :]
        vals = special.beta_eval(xs, ys)
        assert vals.shape == (4, 5)
        for (i, j), v in np.ndenumerate(vals):
            oracle, _ = special.beta_quadrature(float(xs[i, 0]), float(ys[0, j]))
            assert v == pytest.approx(oracle, rel=1e-12)

    def test_closed_form_against_mpmath(self):
        # 40-digit Gamma-quotient oracle on x in [0.01, 60], |y| <= 45
        rng = np.random.default_rng(20240901)
        xs = np.concatenate([np.exp(rng.uniform(math.log(0.01), math.log(60.0), 400)), [0.01, 60.0]])
        ys = np.concatenate([rng.uniform(-45.0, 45.0, 400), [45.0, -45.0]])
        vals = special.beta_eval(xs, ys)
        with mpmath.workdps(40):
            for x, y, v in zip(xs, ys, vals):
                x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
                g = mpmath.gamma((x + 1 + 1j * y) / 2)
                oracle = mpmath.pi * mpmath.power(2, 1 - x) * mpmath.gamma(x) / abs(g) ** 2
                assert abs(v - oracle) / oracle <= 1e-12

    def test_log_beta_overflow_raises(self):
        # the Stirling terms overflow for |y| beyond about 1e154; no nan, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                special.log_beta(2.0, 1e300)

    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.002, 0.3, 0.49])
    @pytest.mark.parametrize("y", [-200.0, -32.8, 0.0, 60.0])
    def test_weak_exponent_oracle_against_mpmath(self, x, y):
        # the oracle's endpoint power is absorbed exactly, so it converges
        # however small x is and however large |y|
        got, _ = special.beta_quadrature(x, y)
        with mpmath.workdps(30):
            g = mpmath.gamma((x + 1 + 1j * mpmath.mpf(y)) / 2)
            oracle = mpmath.pi * mpmath.power(2, 1 - mpmath.mpf(x)) * mpmath.gamma(x) / abs(g) ** 2
        assert abs(got - oracle) / oracle <= 1e-12

    def test_scalar_matches_array_element(self):
        # numpy rounds a 0-d power apart from an array square, and the
        # cancellation in log|Gamma| would grow that ulp to 31 ulp of beta here
        x, y = np.array([2.7550742638687784, 3.2550742638687784, 3.7550742638687784]), 1.363682838034638
        z = 0.5 * (x + 1.0 + 1j * y)
        assert special.log_abs_gamma(z)[1] == special.log_abs_gamma(z[1])
        assert special.beta_eval(x, y)[1] == special.beta_eval(float(x[1]), y)

    def test_log_abs_gamma_even_in_imaginary_part(self):
        z = np.array([0.5 + 3.0j, 7.9 + 0.1j, 30.0 + 22.5j])
        np.testing.assert_array_equal(special.log_abs_gamma(z), special.log_abs_gamma(z.conj()))
        assert special.log_abs_gamma(0.5 + 0j) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    @pytest.mark.parametrize("mu,p", [(1.3, 0), (4.2857, 1), (7.9, 2)])
    def test_certificate_lattice_matches_scalar_calls(self, mu, p):
        # log_beta over a broadcast (3, rows, k) certificate lattice, as
        # lambda_ratio_family forms it, equals 0-d calls bit for bit
        s = 0.9 * regularity.threshold(DomainParams(mu), p).r
        # the dw1 rows (p > 0) start at j = 1 and shift by mu
        x = np.arange(1 if p else 1 - math.floor(mu), 13, dtype=float)[:, None] - (mu if p else 0.0)
        sign = np.array([1.0, -1.0, 0.0]).reshape(3, 1, 1)
        _, Y = measure._exponents(x, s, mu, sign)
        ys = np.arange(-9.0, 1.0)[None, :]
        lattice = special.log_beta(Y, ys)
        assert lattice.shape == (3, x.shape[0], ys.shape[1])
        for (i, j, k), v in np.ndenumerate(lattice):
            assert v == special.log_beta(float(Y[i, j, 0]), float(ys[0, k]))


def _loop_log_abs_gamma(z):
    """The element-by-element reference: the shift product as a loop over k."""
    z = np.asarray(z, dtype=complex)
    b = z.imag
    b2 = b * b
    n = np.ceil(np.maximum(8.0 - z.real, 0.0))
    shift_sq = np.ones(z.shape)
    for k in range(int(n.max(initial=0.0))):
        re = z.real + k
        shift_sq *= np.where(k < n, re * re + b2, 1.0)
    a = z.real + n
    zn = a + 1j * b
    w = 1.0 / (zn * zn)
    series = np.zeros_like(zn)
    for c in reversed(special._STIRLING):
        series = series * w + c
    stirling = (a - 0.5) * 0.5 * np.log(a * a + b2) - b * np.arctan2(b, a) - a
    return stirling + (series / zn).real + 0.5 * (math.log(2.0 * math.pi) - np.log(shift_sq))


class TestLogAbsGamma:
    def test_matches_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(13)
        re = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 2000)), np.arange(1.0, 12.0)])
        im = np.concatenate([rng.uniform(-80.0, 80.0, 2000), np.zeros(11)])
        z = re + 1j * im
        np.testing.assert_array_equal(special.log_abs_gamma(z), _loop_log_abs_gamma(z))
        lattice = special._log_abs_gamma(re[:40, None], im[None, 40:80])
        np.testing.assert_array_equal(lattice, _loop_log_abs_gamma(re[:40, None] + 1j * im[None, 40:80]))
        assert all(special.log_abs_gamma(v) == _loop_log_abs_gamma(v) for v in z[:200])

    def test_against_mpmath(self):
        # 40-digit loggamma on Re z log-uniform in [1e-3, 40], |Im z| <= 60
        rng = np.random.default_rng(20261019)
        re = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(40.0), 300)), [1e-3, 1e-3, 40.0, 40.0]])
        im = np.concatenate([rng.uniform(-60.0, 60.0, 300), [0.0, 60.0, 0.0, -60.0]])
        vals = special.log_abs_gamma(re + 1j * im)
        with mpmath.workdps(40):
            for a, b, v in zip(re, im, vals):
                oracle = float(mpmath.re(mpmath.loggamma(mpmath.mpc(float(a), float(b)))))
                assert abs(v - oracle) <= 1e-14 * max(1.0, abs(oracle))

    def test_separable_form_even_and_broadcast(self):
        # rows of Re z against columns of Im z, as log_beta passes them
        re = np.array([1e-3, 0.5, 3.25, 7.9, 8.0, 30.0])[:, None]
        im = np.array([0.0, 0.1, 2.5, 22.5, 60.0])[None, :]
        vals = special._log_abs_gamma(re, im)
        assert vals.shape == (6, 5)
        np.testing.assert_array_equal(vals, special._log_abs_gamma(re, -im))
        np.testing.assert_array_equal(vals, special.log_abs_gamma(re + 1j * im))

    @pytest.mark.parametrize("x,y", [(1.5, np.arange(7.0)), (1.5, np.arange(3.0)), (np.array([0.2, 3.0]), np.arange(-6.0, 6.0).reshape(3, 2, 2))])
    def test_y_with_more_dimensions_than_x(self, x, y):
        # the shift axis sits in front of the broadcast shape, not of x's
        lb, b = special.log_beta(x, y), special.beta_eval(x, y)
        assert lb.shape == b.shape == np.broadcast_shapes(np.shape(x), y.shape)
        for idx, v in np.ndenumerate(lb):
            xv = float(np.broadcast_to(x, lb.shape)[idx])
            assert v == special.log_beta(xv, float(y[idx]))
            assert b[idx] == special.beta_eval(xv, float(y[idx]))
        params = DomainParams(2.0)
        lam = measure.lambda_closed(measure.MomentArgs(0.5, y, 0.1, params))
        assert all(lam[idx] == measure.lambda_closed(measure.MomentArgs(0.5, float(v), 0.1, params)) for idx, v in np.ndenumerate(y))

    @pytest.mark.parametrize("z", [
        1e-150 + 0j, complex(1e-300, 1e-150), 1e150 + 0j, 1e150 * (0.6 + 0.8j),  # |z| in [1e-150, 1e150]
        1.3e154 + 0j, complex(8.0, 1.3e154),  # no shift: the squares reach ~1.7e308
        complex(7.5, 1e154), complex(3.0, 6e30), complex(0.5, 1.8e19),  # 1, 5 and 8 shift factors
    ])
    def test_range_edges_inside_against_mpmath(self, z):
        got = special.log_abs_gamma(z)
        with mpmath.workdps(40):
            oracle = float(mpmath.re(mpmath.loggamma(mpmath.mpc(z.real, z.imag))))
        assert abs(got - oracle) <= 1e-15 * abs(oracle)

    @pytest.mark.parametrize("z", [
        math.nan, complex(1.0, math.nan), math.inf, complex(2.0, -math.inf), 0j, -2 + 0j,
        np.array([1.0 + 1j, -0.5 + 2j]),
        # past each range edge the kernel soon returns inf, nan or an inaccurate value:
        0.99e-150 + 0j, complex(1e-300, 0.99e-150), 1e-160 + 0j, 1e-170 + 0j,  # |z|^2 subnormal or 0
        1.4e154 + 0j, complex(8.0, 1.4e154), 1e155 + 0j, 3 + 1e155j,  # a square overflows
        complex(7.5, 2e154), complex(3.0, 7e30), complex(0.5, 2e19),  # the shift product overflows
        3 + 1e150j,  # |z| = 1e150, but five shift factors of ~1e300: the kernel gives -inf
        np.array([1.0 + 1j, 1e-151 + 0j]),
    ])
    def test_domain_errors(self, z):
        # Re z > 0, finite z and |z| >= 1e-150 checked before the shift is sized,
        # and an overflowing shift refused without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                special.log_abs_gamma(z)


def _one_bad(shape=(3000,), at=1717):
    """1, ..., 2 in the given shape, with -1 at flat index ``at``."""
    x = np.linspace(1.0, 2.0, math.prod(shape))
    x[at] = -1.0
    return x.reshape(shape)


class TestRefusalsNameTheElement:
    # a refused array argument is named by its first bad element and that
    # element's index, not by numpy's elided repr, which hides both
    @pytest.mark.parametrize("call,message", [
        (lambda x: special.alpha_eval(x, 1.0),
         "alpha requires finite x > 0 and y > 0, got (-1.0, 1.0) at index 1717"),
        (lambda x: special.alpha_eval(1.0, x),
         "alpha requires finite x > 0 and y > 0, got (1.0, -1.0) at index 1717"),
        (lambda x: special.beta_eval(x, 1.0),
         "beta requires finite x > 0 and finite y, got (-1.0, 1.0) at index 1717"),
        (lambda x: special.beta_eval(1.0, np.where(x < 0.0, math.inf, x)),
         "beta requires finite x > 0 and finite y, got (1.0, inf) at index 1717"),
        (lambda x: special.alpha_quadrature(x, 1.0),
         "alpha requires finite x > 0 and y > 0, got (-1.0, 1.0) at index 1717"),
        (lambda x: special.beta_quadrature(x, 0.0),
         "beta requires finite x > 0 and finite y, got (-1.0, 0.0) at index 1717"),
        (lambda x: special.log_abs_gamma(x + 0j),
         "log_abs_gamma requires finite z with Re z > 0 and |z| >= 1e-150, got (-1+0j) at index 1717"),
    ], ids=["alpha-x", "alpha-y", "beta-x", "beta-y", "alpha-oracle", "beta-oracle", "log-gamma"])
    def test_first_bad_element_and_index(self, call, message):
        with pytest.raises(DomainError) as raised:
            call(_one_bad())
        assert str(raised.value) == message

    def test_index_in_the_broadcast_shape(self):
        with pytest.raises(DomainError, match=r"got \(-1\.0, 1\.0\) at index \(1, 717\)$"):
            special.alpha_eval(_one_bad((3, 1000)), np.ones((1, 1000)))

    @pytest.mark.parametrize("call,message", [
        (lambda: special.alpha_eval(-1.0, 1.0), "alpha requires finite x > 0 and y > 0, got (-1.0, 1.0)"),
        (lambda: special.beta_eval(1.0, math.nan), "beta requires finite x > 0 and finite y, got (1.0, nan)"),
        (lambda: special.log_abs_gamma(-1.0 + 0j),
         "log_abs_gamma requires finite z with Re z > 0 and |z| >= 1e-150, got (-1+0j)"),
    ], ids=["alpha", "beta", "log-gamma"])
    def test_scalar_messages_unchanged(self, call, message):
        with pytest.raises(DomainError) as raised:
            call()
        assert str(raised.value) == message


class TestRecursions:
    def test_alpha_trivial_point(self):
        # alpha(1,2) and alpha(1,1)/2 are both 1/2
        assert special.alpha_recursion_residual(1.0, 1.0) <= 1e-12

    def test_alpha_generic_point(self):
        assert special.alpha_recursion_residual(3.0, 2.0) <= 1e-10

    def test_alpha_symmetry_residual(self):
        a = special.alpha_eval(2.0, 5.0)
        b = special.alpha_eval(5.0, 2.0)
        assert abs(a - b) <= 1e-12 * a

    def test_beta_trivial_point(self):
        assert special.beta_recursion_residual(1.0, 0.0) <= 1e-12

    def test_beta_generic_points(self):
        assert special.beta_recursion_residual(2.0, 0.0) <= 1e-10
        assert special.beta_recursion_residual(1.5, 2.0) <= 1e-10

    def test_grid_residuals(self):
        grid = np.exp(np.linspace(math.log(1e-2), math.log(50.0), 6))
        worst_a = max(
            special.alpha_recursion_residual(float(x), float(y))
            for x in grid
            for y in grid
        )
        worst_b = max(
            special.beta_recursion_residual(float(x), y)
            for x in grid
            for y in (-3.0, 0.0, 2.0)
        )
        assert worst_a <= 1e-10
        assert worst_b <= 1e-10


def _levels(monkeypatch, call):
    """call()'s result, and for each quadrature.integrate call it made the
    number of levels at which each row was evaluated."""
    counts = []
    integrate = quadrature.integrate

    def counting(f, a, b, **kw):
        seen = collections.Counter()

        def g(rows, da, db):
            seen.update(np.ravel(rows).tolist())
            return f(rows, da, db)

        res = integrate(g, a, b, **kw)
        counts.append([seen[row] for row in range(np.size(res.value))])
        return res

    with monkeypatch.context() as m:
        m.setattr(quadrature, "integrate", counting)
        return call(), counts


GRID = np.exp(np.linspace(math.log(1e-2), math.log(50.0), 6))


class TestOracleArrays:
    # (oracle, the elements that take two halves, x and y): the arguments of
    # the special suite's recursion residuals and two-path check
    _X, _Y = np.meshgrid(GRID, GRID, indexing="ij")
    CASES = {
        "alpha": (special.alpha_quadrature, lambda x, y: np.minimum(x, y) < 0.5,
                  np.concatenate([_X.ravel(), _Y.ravel(), _X.ravel() + 1.0, [0.05, 40.0]]),
                  np.concatenate([_Y.ravel(), _X.ravel(), _Y.ravel(), [40.0, 0.05]])),
        "beta": (special.beta_quadrature, lambda x, y: x < 0.5,
                 np.repeat(np.concatenate([GRID, GRID + 2.0]), 4),
                 np.tile([-3.0, -2.0, 0.0, 1.5], 12)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_match_per_element_calls(self, name, monkeypatch):
        # within each element's error estimate, and each element settles at
        # the level of its own call: the direct rule's row, or both halves
        oracle, weak, x, y = self.CASES[name]
        (value, err), (direct, halves) = _levels(monkeypatch, lambda: oracle(x, y))
        weak = weak(x, y)
        k = int(weak.sum())
        rows = iter(direct)
        halves = iter(zip(halves[:k], halves[k:]))
        for i in range(x.size):
            (v, e), (levels,) = _levels(monkeypatch, lambda: oracle(float(x[i]), float(y[i])))
            assert abs(value[i] - v) <= e, (x[i], y[i])
            assert err[i] >= 0.0 and levels == (list(next(halves)) if weak[i] else [next(rows)])

    @pytest.mark.parametrize("x", [0.7, 0.3], ids=["direct", "halves"])
    def test_non_converging_element_raises_the_scalar_error(self, x):
        # e^(1000 t) overflows: the element's scalar call and the array call
        # that holds it raise the same error
        with pytest.raises(quadrature.QuadratureError) as scalar:
            special.beta_quadrature(x, 1000.0)
        with pytest.raises(quadrature.QuadratureError) as array:
            special.beta_quadrature(np.array([2.0, x, 0.3]), np.array([1.0, 1000.0, 1.0]))
        assert str(array.value) == str(scalar.value)

    def test_scalar_call_returns_floats(self):
        for oracle in (special.alpha_quadrature, special.beta_quadrature):
            assert all(type(v) is float for v in oracle(0.3, 1.7))
        assert type(special.alpha_recursion_residual(0.3, 1.7)) is float
        assert special.beta_recursion_residual(GRID, 0.0).shape == GRID.shape


class TestHolderMargins:
    def test_sharp_at_zero(self):
        assert special.alpha_holder_margin(2.0, 3.0, 0.0) == 0.0
        assert special.beta_holder_margin(3.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("x,y,s", [(2.0, 2.0, 0.25), (1.0, 3.0, 0.4)])
    def test_alpha_margin_nonnegative(self, x, y, s):
        assert special.alpha_holder_margin(x, y, s) >= -1e-9

    @pytest.mark.parametrize("x,y,s", [(3.0, 1.0, 0.25), (2.0, 0.5, 0.4)])
    def test_beta_margin_nonnegative(self, x, y, s):
        assert special.beta_holder_margin(x, y, s) >= -1e-9

    def test_margin_grids(self):
        for s in (0.0, 0.1, 0.2, 0.3, 0.4, 0.49):
            for x in np.linspace(2.0 * s + 0.05, 12.0, 6):
                for y in np.linspace(2.0 * s + 0.05, 12.0, 6):
                    assert special.alpha_holder_margin(float(x), float(y), s) >= -1e-9
            for x in np.linspace(4.0 * s + 0.05, 12.0, 6):
                for y in (-4.0, -0.5, 0.0, 1.0, 5.0):
                    assert special.beta_holder_margin(float(x), y, s) >= -1e-9

    def test_match_three_calls(self):
        # one array call per margin against the three scalar calls it replaced
        rng = np.random.default_rng(11)
        a, b = special.alpha_eval, special.beta_eval
        for s, dx, dy, y in rng.uniform((0.0, 0.01, 0.01, -10.0), (0.5, 10.0, 10.0, 10.0), (300, 4)):
            x, ya = 4.0 * s + dx, 2.0 * s + dy
            ratio = a(x - 2 * s, ya - 2 * s) * a(x + 2 * s, ya + 2 * s) / a(x, ya) ** 2
            margin = (x * ya) / ((x - 2 * s) * (ya - 2 * s)) - ratio
            assert abs(special.alpha_holder_margin(x, ya, s) - margin) <= 4 * np.spacing(ratio)
            ratio = b(x - 4 * s, y) * b(x + 4 * s, y) / b(x, y) ** 2
            margin = (1.0 + 4 * s) * x / (x - 4 * s) - ratio
            assert abs(special.beta_holder_margin(x, y, s) - margin) <= 4 * np.spacing(ratio)

    def test_array_calls_equal_scalar_calls(self):
        # one array call per margin, bit for bit the elementwise scalar calls,
        # on verify's grid and on the draws of test_match_three_calls
        s = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.49])
        ax = np.array([np.linspace(2.0 * si + 0.05, 10.0, 5) for si in s])
        bx = np.array([np.linspace(4.0 * si + 0.05, 10.0, 5) for si in s])
        s = s[:, None, None]
        draws = np.random.default_rng(11).uniform((0.0, 0.01, 0.01, -10.0), (0.5, 10.0, 10.0, 10.0),
                                                  (300, 4)).T
        cases = [
            (special.alpha_holder_margin, *np.broadcast_arrays(ax[:, :, None], ax[:, None, :], s)),
            (special.beta_holder_margin,
             *np.broadcast_arrays(bx[:, :, None], np.array([-3.0, 0.0, 0.5, 4.0]), s)),
            (special.alpha_holder_margin, 4.0 * draws[0] + draws[1], 2.0 * draws[0] + draws[2], draws[0]),
            (special.beta_holder_margin, 4.0 * draws[0] + draws[1], draws[3], draws[0]),
        ]
        for margin, x, y, s_ in cases:
            got = margin(x, y, s_)
            assert got.shape == x.shape
            scalar = [margin(float(a), float(b), float(c)) for a, b, c in zip(x.flat, y.flat, s_.flat)]
            np.testing.assert_array_equal(got.ravel(), scalar)

    def test_array_range_error_names_the_first_failure(self):
        with pytest.raises(DomainError, match=r"got \(0\.3, 2\.0\) with s = 0\.2"):
            special.alpha_holder_margin(np.array([1.0, 0.3, 0.2]), 2.0, 0.2)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            special.alpha_holder_margin(0.3, 2.0, 0.2)
        with pytest.raises(DomainError):
            special.beta_holder_margin(1.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            special.alpha_holder_margin(2.0, 2.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.05, 40.0), y=st.floats(0.05, 40.0))
def test_alpha_symmetry_property(x, y):
    a = special.alpha_eval(x, y)
    assert abs(a - special.alpha_eval(y, x)) <= 1e-12 * a


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.1, 20.0), y=st.floats(0.0, 10.0))
def test_beta_sign_symmetry_property(x, y):
    b = special.beta_eval(x, y)
    assert abs(b - special.beta_eval(x, -y)) <= 1e-12 * b


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.05, 30.0), y=st.floats(0.05, 30.0))
def test_alpha_monotone_damping(x, y):
    # the recursion factor x/(x+y) < 1 forces strict decay in x
    assert special.alpha_eval(x + 1.0, y) < special.alpha_eval(x, y)
