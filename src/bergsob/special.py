"""The two Euler-type integrals behind every moment computation.

    alpha(x, y) = ∫_0^1 t^(x-1) (1-t)^(y-1) dt,          x > 0, y > 0
    beta(x, y)  = ∫_{-π/2}^{π/2} (cos t)^(x-1) e^(yt) dt, x > 0, y real

Both have Gamma closed forms, the primary paths, which broadcast over
arrays: alpha(x, y) = Γ(x) Γ(y) / Γ(x+y) and (Gradshteyn-Ryzhik 3.631)

    beta(x, y) = π 2^(1-x) Γ(x) / |Γ((x+1+iy)/2)|^2,

with log|Γ(z)| from the Stirling series after an upward shift of Re z
(Hare 1997) on separable arrays Re z and Im z, its shift product one
reduction; ``alpha_eval`` and ``beta_eval`` evaluate them.  Direct
endpoint-clustered quadratures are kept only as independent oracles,
``alpha_quadrature`` and ``beta_quadrature``, which the recursion
residuals also use (for beta, beta(x+2, y) = x (x+1) / ((x+1)^2 + y^2)
beta(x, y)).  The oracles, residuals and margins broadcast over array
arguments, and a scalar call is the 0-d case: each oracle integrates all
its elements as one stack of ``quadrature.integrate`` rows per branch
(a direct rule, or two substituted halves for weak exponents), and every
row settles on its own, so an element's value and error estimate are
those of its scalar call.  The module also gives margins for the
Hölder-type normalized bounds

    alpha(x-2s, y-2s) alpha(x+2s, y+2s) / alpha(x, y)^2
        <= x y / ((x-2s)(y-2s)),                    0 <= s < 1/2, x, y > 2s
    beta(x-4s, y) beta(x+4s, y) / beta(x, y)^2
        <= (1+4s) x / (x-4s),                       0 <= s < 1/2, x > 4s.

The beta bound is stated for y > 0; since beta(x, y) = beta(x, -y)
(substitute t -> -t) it extends verbatim to y < 0, and to y = 0 by
continuity.  The margin functions therefore accept any real y.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import quadrature
from .errors import DomainError, _first, _offender

__all__ = [
    "alpha_eval",
    "alpha_quadrature",
    "alpha_tail",
    "beta_eval",
    "beta_quadrature",
    "log_abs_gamma",
    "log_beta",
    "alpha_recursion_residual",
    "beta_recursion_residual",
    "alpha_holder_margin",
    "beta_holder_margin",
]

_HALF_PI = 0.5 * math.pi
# B_2k / (2k (2k-1)), k = 1..8: the Stirling series coefficients.  After the
# shift to Re z >= _STIRLING_FROM the first omitted term is below 1e-17
# relative to log|Γ(z)|.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_FROM = 8.0
_LOG_MAX = math.log(sys.float_info.max)


def _lgamma(x: np.ndarray) -> np.ndarray:
    try:
        return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, count=x.size).reshape(x.shape)
    except OverflowError:  # beyond about 2.5e305
        raise DomainError("log-Gamma overflows a double") from None


def _positive(v) -> np.ndarray:
    """0 < v < inf elementwise; False at nan."""
    v = np.asarray(v, dtype=float)
    return (0.0 < v) & (v < math.inf)


def _check_alpha_args(x, y) -> None:
    ok = _positive(x) & _positive(y)
    if not ok.all():
        x, y, at = _offender(ok, x, y)
        raise DomainError(f"alpha requires finite x > 0 and y > 0, got ({x}, {y}){at}")


def _check_beta_args(x, y) -> None:
    ok = _positive(x) & np.isfinite(y)
    if not ok.all():
        x, y, at = _offender(ok, x, y)
        raise DomainError(f"beta requires finite x > 0 and finite y, got ({x}, {y}){at}")


def _exp(log_values: np.ndarray, what: str) -> np.ndarray:
    """exp, raising DomainError where the value overflows a double."""
    if not (log_values.size == 0 or np.max(log_values) <= _LOG_MAX):
        raise DomainError(f"{what} overflows a double")
    return np.exp(log_values)


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _broadcast(*args) -> list[np.ndarray]:
    arrays = [np.asarray(a, dtype=float) for a in args]
    if len({a.shape for a in arrays}) == 1:  # the common case, without numpy's machinery
        return arrays
    return np.broadcast_arrays(*arrays)


def _pow(base, exponent) -> np.ndarray:
    """libm's pow elementwise, as a Python float's ** is: numpy's ** squares
    at exponent 2 and may take a SIMD pow, either of which can round apart."""
    return np.float_power(base, exponent)


def _log_abs_gamma(re, im) -> np.ndarray:
    """log_abs_gamma on real arrays that broadcast, for finite re > 0 (so
    n <= 8) and finite im.  The factors (re + k)^2 + im^2, k < 8, lie on an
    axis before the broadcast shape; the product skips k >= n, in loop order."""
    b2 = im * im
    n = np.ceil(np.maximum(_STIRLING_FROM - re, 0.0))
    k = np.arange(n.max(initial=0.0)).reshape(-1, *[1] * max(np.ndim(re), np.ndim(im)))
    factors = re + k
    factors *= factors  # not ** 2: numpy rounds a 0-d power apart from an array one
    shift_sq = np.multiply.reduce(factors + b2, axis=0, initial=1.0, where=k < n)
    a = re + n
    zn = a + 1j * im
    w = 1.0 / (zn * zn)
    series = w * _STIRLING[-1] + _STIRLING[-2]
    for c in reversed(_STIRLING[:-2]):
        series *= w
        series += c
    # Re[(z - 1/2) log z - z] + Re[series / z] + log sqrt(2π)
    stirling = (a - 0.5) * 0.5 * np.log(a * a + b2) - im * np.arctan2(im, a) - a
    return stirling + (series / zn).real + 0.5 * (math.log(2.0 * math.pi) - np.log(shift_sq))


def log_abs_gamma(z) -> np.ndarray:
    """log|Γ(z)| for complex z with Re z > 0 and |z| >= 1e-150, elementwise.

    Shifts each z up to Re z >= 8 with |Γ(z)| = |Γ(z+n)| / |z (z+1) ... (z+n-1)|
    and sums the Stirling series there, on real and imaginary parts that
    broadcast apart (_log_abs_gamma), so it is exactly even in Im z.  Raises
    DomainError below |z| = 1e-150, where |z|^2 leaves the normal doubles,
    and where the shift product overflows: |Im z| from ~1.8e19 for n = 8
    factors, (1e154)^(1/n) for n factors, |z| from ~1.3e154 unshifted.
    """
    z = np.asarray(z, dtype=complex)
    ok = _positive(z.real) & np.isfinite(z.imag) & (np.abs(z) >= 1e-150)
    if not ok.all():
        z, at = _offender(ok, z)
        raise DomainError(f"log_abs_gamma requires finite z with Re z > 0 and |z| >= 1e-150, "
                          f"got {z}{at}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _log_abs_gamma(z.real, z.imag)
    except FloatingPointError:
        raise DomainError("log|Gamma(z)| overflows a double in the Stirling shift") from None


def log_beta(x, y) -> np.ndarray:
    """log beta(x, y) from the closed form, broadcast over finite x > 0 and
    finite y.  Raises DomainError where the Stirling terms overflow (|y|
    beyond ~3e154 for x >= 15, from ~4e19 as x -> 0).  The absolute error
    grows with the cancelling log-Gamma terms, like (x log x + |y|) 2^-52:
    against mpmath ~1e-14 for x, |y| <= 10; 2e-12, 4e-10, 6e-8 at x = 1e3,
    1e5, 1e7; 5e-13, 5e-11, 5e-9 at |y| = 1e3, 1e5, 1e7; and
    log_beta(1e150, 0) returns 0.0, not ~-171.8."""
    x = np.asarray(x, dtype=float)
    _check_beta_args(x, y)
    try:
        with np.errstate(over="raise", invalid="raise"):
            log_g = _log_abs_gamma(0.5 * (x + 1.0), 0.5 * np.asarray(y, dtype=float))
            return math.log(math.pi) + (1.0 - x) * math.log(2.0) + _lgamma(x) - 2.0 * log_g
    except FloatingPointError:
        raise DomainError("log beta overflows a double") from None


def _by_branch(x, y, weak, direct, half, mirror):
    """(value, error estimate) of an oracle, elementwise over x and y
    broadcast together.  Where weak(x, y) is False, direct(x, y) integrates
    the elements in one stack; elsewhere the value is the sum of two halves,
    half at (x, y) and at mirror(x, y), both in one stack.  A scalar call
    returns floats."""
    x, y = _broadcast(x, y)
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    weak = weak(x, y)
    value, err = np.empty(x.size), np.empty(x.size)
    if not weak.all():
        value[~weak], err[~weak] = direct(x[~weak], y[~weak])
    if weak.any():
        k = np.count_nonzero(weak)
        x2, y2 = mirror(x[weak], y[weak])
        v, e = half(np.concatenate([x[weak], x2]), np.concatenate([y[weak], y2]))
        value[weak], err[weak] = v[:k] + v[k:], e[:k] + e[k:]
    return _scalar_or_array(value.reshape(shape)), _scalar_or_array(err.reshape(shape))


def _alpha_lower_half(x: np.ndarray, y: np.ndarray, tol: float):
    """∫_0^{1/2} t^(x-1) (1-t)^(y-1) dt via t = e^u, one row per element.

    The substitution trades the weak endpoint singularity t^(x-1) for the
    smooth exponential e^(ux), which tanh-sinh resolves to full precision
    even for x near 0 (a bare power with exponent below ~0.05 decays too
    slowly inside the representable node range).
    """
    with np.errstate(over="ignore", divide="ignore"):
        u_lo = -(45.0 + 0.7 * (x + np.maximum(y, 0.0))) / x
    if (i := _first(np.isfinite(u_lo))) is not None:  # x subnormal
        raise DomainError(f"the alpha oracle needs 1/x finite, got x = {x[i]}")

    y_1 = y - 1.0

    def f(rows, da, db):
        u = u_lo[rows] + da
        return np.exp(u * x[rows]) * (1.0 - np.exp(u)) ** y_1[rows]

    res = quadrature.integrate(f, u_lo, -math.log(2.0), rtol=tol)
    return res.value, res.err_estimate


# The fixed tanh-sinh level of alpha_tail's two rules.
_TAIL_LEVEL = 7


def alpha_tail(x: float, y: float, lo, span) -> np.ndarray:
    """The incomplete alpha ∫_lo^1 t^(x-1) (1-t)^(y-1) dt, elementwise over
    lo in (0, 1) with span = 1 - lo given to full accuracy; any finite x
    and y > 0.  A quadrature oracle on fixed rules.

    The piece over (max(lo, 1/2), 1), of width w, substitutes
    1 - t = w u^(1/y), which absorbs the endpoint power exactly:

        w^y / y ∫_0^1 (1 - w u^(1/y))^(x-1) du,

    a bounded integrand, so no mass is lost below the smallest node as
    y -> 0.  The piece over (lo, 1/2) substitutes t = e^v, as
    _alpha_lower_half does, which resolves t^(x-1) on the scale of lo
    however small lo is.
    """
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(span, dtype=float)
    if not y > 0.0:
        raise DomainError(f"alpha_tail requires y > 0, got {y}")
    p_lo, p_hi, w = quadrature.nodes(_TAIL_LEVEL)
    width = np.minimum(span, 0.5)[..., None]
    log_u = np.where(p_lo < 0.5, np.log(p_lo), np.log1p(-np.minimum(p_hi, 0.5)))
    t = 1.0 - width * np.exp(log_u / y)
    upper = width[..., 0] ** y / y * ((t ** (x - 1.0)) @ w)
    v_lo = np.log(np.minimum(lo, 0.5))[..., None]
    v_span = -math.log(2.0) - v_lo
    v = v_lo + v_span * p_lo
    with np.errstate(under="ignore"):
        lower = v_span[..., 0] * ((np.exp(x * v) * (-np.expm1(v)) ** (y - 1.0)) @ w)
    return upper + lower


def alpha_quadrature(x, y, tol: float = 1e-12):
    """alpha(x, y) and its error estimate by quadrature to relative accuracy
    ``tol``, the oracle of the Gamma path, elementwise over x and y; weak
    singular exponents (below 1/2) are handled by splitting at 1/2 and
    log-substituting each half.  Raises QuadratureError when a piece does
    not converge."""
    _check_alpha_args(x, y)

    def direct(x, y):
        x_1, y_1 = x - 1.0, y - 1.0

        def f(rows, da, db):
            return da ** x_1[rows] * db ** y_1[rows]

        res = quadrature.integrate(f, np.zeros(x.shape), 1.0, rtol=tol)
        return res.value, res.err_estimate

    return _by_branch(x, y, lambda x, y: np.minimum(x, y) < 0.5, direct,
                      lambda x, y: _alpha_lower_half(x, y, tol), lambda x, y: (y, x))


def alpha_eval(x, y):
    """alpha(x, y) = exp(lnΓ(x) + lnΓ(y) - lnΓ(x+y)), broadcast over array
    x and y.  Raises DomainError unless x and y are finite and positive,
    and where the value overflows a double."""
    _check_alpha_args(x, y)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return _scalar_or_array(_exp(_lgamma(x) + _lgamma(y) - _lgamma(x + y), "alpha"))


def _beta_half(x: np.ndarray, y: np.ndarray, tol: float):
    """∫_0^{π/2} (cos t)^(x-1) e^(yt) dt for weak exponents x, one row per
    element.

    The distance d = π/2 - t to the singular end is substituted as
    d = (π/2) u^(1/x), which absorbs the endpoint power exactly, as
    alpha_tail does:

        (π/2)^x / x ∫_0^1 (sin(d)/d)^(x-1) e^(y (π/2 - d)) du,

    a bounded integrand, so no mass is lost below the smallest node however
    small x is, and π/2 - d = -(π/2) expm1(log(u) / x) keeps full accuracy
    as u -> 1.
    """

    x_1, half_pi_y = x - 1.0, _HALF_PI * y

    def f(rows, da, db):
        e = np.where(da < 0.5, np.log(da), np.log1p(-db)) / x[rows]  # log(d / (π/2))
        sinc = np.sinc(0.5 * np.exp(e))  # sin(d)/d, smooth in [2/π, 1], exact 1 at 0
        return np.exp(x_1[rows] * np.log(sinc) - half_pi_y[rows] * np.expm1(e))

    res = quadrature.integrate(f, np.zeros(x.shape), 1.0, rtol=tol)
    scale = _pow(_HALF_PI, x) / x
    return scale * res.value, scale * res.err_estimate


def beta_quadrature(x, y, tol: float = 1e-12):
    """beta(x, y) and its error estimate by direct endpoint-clustered
    quadrature to relative accuracy ``tol``, the oracle of the closed form,
    elementwise over x and y; weak exponents x < 1/2 take two substituted
    halves.  Raises QuadratureError when a piece does not converge."""
    _check_beta_args(x, y)

    def direct(x, y):
        # cos t = sin(min(t + π/2, π/2 - t)) exactly; the min form keeps full
        # relative accuracy at both ends.
        x_1 = x - 1.0

        def f(rows, da, db):
            t = -_HALF_PI + da
            return np.sin(np.minimum(da, db)) ** x_1[rows] * np.exp(y[rows] * t)

        res = quadrature.integrate(f, np.full(x.shape, -_HALF_PI), _HALF_PI, rtol=tol)
        return res.value, res.err_estimate

    return _by_branch(x, y, lambda x, y: x < 0.5, direct,
                      lambda x, y: _beta_half(x, y, tol), lambda x, y: (x, -y))


def beta_eval(x, y):
    """beta(x, y) = π 2^(1-x) Γ(x) / |Γ((x+1+iy)/2)|^2 as exp(log_beta), over
    array x and y; its relative error is log_beta's absolute error (~1e-14
    for x, |y| <= 10, 2e-12 at x = 1e3).  Raises DomainError unless x is
    finite and positive and y finite, and where the value overflows."""
    return _scalar_or_array(_exp(log_beta(x, y), "beta"))


def _divisor(value: np.ndarray, name: str, x, y) -> np.ndarray:
    """An oracle's values at (x, y), which a residual divides by; refused
    where one is 0, as the integrand underflows everywhere for large x."""
    if (i := _first(value > 0.0)) is not None:
        raise DomainError(f"{name}({x.flat[i]}, {y.flat[i]}) is {value.flat[i]}; "
                          "no relative residual there")
    return value


def alpha_recursion_residual(x, y):
    """Worst relative residual of the three alpha identities, elementwise
    over x and y.

    Both sides of each identity are evaluated by independent quadratures
    (not the Gamma path), so a nonzero residual reflects genuine numerics
    rather than a shared formula.  The four oracle values per element are
    one alpha_quadrature call.
    """
    x, y = _broadcast(x, y)
    args = np.stack([x, y, x, x + 1.0], axis=-1), np.stack([y, x, y + 1.0, y], axis=-1)
    values = _divisor(alpha_quadrature(*args)[0], "alpha_quadrature", *args)
    base, sym, up_y, up_x = np.moveaxis(values, -1, 0)
    r_sym = np.abs(base - sym) / base
    r_y = np.abs(up_y - base * y / (x + y)) / up_y
    r_x = np.abs(up_x - base * x / (x + y)) / up_x
    return _scalar_or_array(np.maximum(np.maximum(r_sym, r_y), r_x))


def beta_recursion_residual(x, y, *, scale: float = 1.0):
    """Relative residual of beta(x+2, y) = x(x+1)/((x+1)^2+y^2) beta(x, y),
    elementwise over x and y.

    Both sides use direct quadrature (singular-endpoint for x < 1/2), in
    one beta_quadrature call, so the residual does not share the closed
    form's Gamma identities.  ``scale`` multiplies the right-hand side; any
    value other than 1 is a wrong recursion constant, which verify's
    self-test plants.
    """
    x, y = _broadcast(x, y)
    values = beta_quadrature(np.stack([x, x + 2.0], axis=-1), np.stack([y, y], axis=-1))[0]
    rhs = scale * values[..., 0] * x * (x + 1.0) / (_pow(x + 1.0, 2.0) + y * y)
    lhs = _divisor(values[..., 1], "beta_quadrature", x + 2.0, y)
    return _scalar_or_array(np.abs(lhs - rhs) / lhs)


def alpha_holder_margin(x, y, s):
    """Bound minus ratio for the normalized alpha inequality, elementwise
    over x, y and s; >= 0 up to slack.  Each element's value is that of the
    scalar call, bit for bit."""
    x, y, s = _broadcast(x, y, s)
    if (i := _first((0.0 <= s) & (s < 0.5))) is not None:
        raise DomainError(f"need 0 <= s < 1/2, got s = {s.flat[i]}")
    if (i := _first((x > 2 * s) & (y > 2 * s))) is not None:
        raise DomainError(f"need x, y > 2s, got ({x.flat[i]}, {y.flat[i]}) with s = {s.flat[i]}")
    shift = np.stack([-2 * s, 2 * s, np.zeros_like(s)], axis=-1)
    a = alpha_eval(x[..., None] + shift, y[..., None] + shift)
    lhs = a[..., 0] * a[..., 1] / _pow(a[..., 2], 2.0)
    rhs = (x * y) / ((x - 2 * s) * (y - 2 * s))
    return _scalar_or_array(rhs - lhs)


def beta_holder_margin(x, y, s):
    """Bound minus ratio for the normalized beta inequality, elementwise
    over x, y and s; >= 0 up to slack.  Each element's value is that of the
    scalar call, bit for bit.

    Any real y is accepted (see module docstring for y <= 0).
    """
    x, y, s = _broadcast(x, y, s)
    if (i := _first((0.0 <= s) & (s < 0.5))) is not None:
        raise DomainError(f"need 0 <= s < 1/2, got s = {s.flat[i]}")
    if (i := _first(x > 4 * s)) is not None:
        raise DomainError(f"need x > 4s, got x = {x.flat[i]} with s = {s.flat[i]}")
    b = beta_eval(x[..., None] + np.stack([-4 * s, 4 * s, np.zeros_like(s)], axis=-1), y[..., None])
    lhs = b[..., 0] * b[..., 1] / _pow(b[..., 2], 2.0)
    rhs = (1.0 + 4 * s) * x / (x - 4 * s)
    return _scalar_or_array(rhs - lhs)
