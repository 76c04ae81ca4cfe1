"""Weighted moments of the model domain.

The central object is

    lam(x, y, s) = ∫_D |w1|^(2x) |w2|^(2y) delta0(w)^(-2s) dV_D,

finite iff x/mu + 1 - s > 0 and s < 1/2; ``integrability_margin`` alone
evaluates the first clause, for moments, basis membership and thresholds.
Under the delta0 convention the change of variables
u = (r1^mu / cos(log r2^2), log r2^2) collapses the moment to an exact
product of the two special-function integrals:

    lam(x, y, s) = 8 pi^2 mu * alpha(2x/mu + 2 - 2s, 1 - 2s)
                             * beta(2x/mu + 3 - 4s, y).

``lambda_closed`` evaluates that product from Gamma closed forms, and
``lambda_ratio_family``, the one ratio function, a ratio of three of them
elementwise over any broadcast (x, y) grid (a scalar point or a whole
basis lattice) in log space, with the three weights stacked on one axis so
that alpha and log beta are one array call each.  The exponents come from an
error-free TwoSum cascade that stays exact up to the integrability
boundary (``_exponents``).  ``lambda_quadrature`` evaluates the same product
from the quadrature oracles of ``special`` (tanh-sinh with log
substitutions at weak endpoint singularities), so the cross-check shares
no Gamma identity with the closed form and stays accurate at thin
integrability margins.  Both paths broadcast x, y and s, so a set of
moments with a weight each is one ``lambda_closed_array`` call and one
``lambda_quadrature`` call (one stack per oracle), each element the bits
of its scalar call.

``lambda_truncated`` restricts the moment to |w1| > eps, which is always
finite for s < 1/2; its growth as eps -> 0 certifies divergence.  It is
integrated in (r1, u2) coordinates, where the cut is just r1 > eps:

    lam_eps = 8 pi^2 mu^2 ∫_eps^1 r1^(mu e - 1) G_y(r1) dr1,  e = 2x/mu + 2 - 2s,
    G_y(r1) = ∫_{-c}^{c} e^(y u2) (cos u2 - r1^mu)^(-2s) du2,  c = arccos r1^mu.

The fiber integral G_y is a 2F1 series of positive terms (``_fiber``, by
DLMF 14.12.1 and 14.3.1), exact up to s -> 1/2, so the moment is a 1-d rule
in r1: a nested tanh-sinh piece in log r1 (``_top_piece``) covers r1 down
to 2^-4, where the fibers collapse as r1 -> 1, and the dyadic shells
[2^-(k+1), 2^-k] below it, smooth in log r1, take one Gauss-Legendre rule
(``_shell_rule``) in one fiber call (``_shells``).  As
r1 -> 0 the fiber tends to G_y(0) = beta(1 - 2s, y) (Gradshteyn-Ryzhik
3.631), a series in r1^mu from there, so the shells approach the closed
form 8 pi^2 mu^2 beta(1 - 2s, y) ∫ r1^(mu e - 1) dr1: the values grow like
eps^(mu e) when e < 0 and like log(1/eps) when e = 0.  ``truncation_growth_fit``
takes the shells k = 4..15 alone: mu e from their log ratios by a Richardson
table at the rates 2^(j mu), and the deepest shell against the closed form;
``lambda_truncated`` is the top piece plus the same shells down to eps.
``lambda_truncated_oracle`` is the independent (u1, u2) route, kept off the
hot path.  The Gram matrices' table of lam (``mesh_moments``) and the radial
moments of the projection (``radial_moment``, profiles of |w1| alone at
s = 0) are nested tanh-sinh in r1 on the same fibers, so every integral over
the domain is one loop in r1 (``_nested_r1``) over the closed-form fibers,
which returns each element settled at its own level, as ``quadrature.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature, special
from .errors import DomainError
from .geometry import DomainParams

__all__ = [
    "MomentArgs",
    "MomentValue",
    "GrowthFit",
    "S_CLAUSE",
    "X_CLAUSE",
    "integrability_margin",
    "is_integrable",
    "lambda_closed",
    "lambda_closed_array",
    "lambda_quadrature",
    "lambda_ratio_bound",
    "lambda_ratio_family",
    "lambda_truncated",
    "lambda_truncated_oracle",
    "truncation_growth_fit",
    "radial_moment",
]

S_CLAUSE = "s < 1/2"
X_CLAUSE = "x/mu + 1 - s > 0"


@dataclass(frozen=True)
class MomentArgs:
    x: float
    y: float
    s: float
    params: DomainParams


@dataclass(frozen=True)
class MomentValue:
    """Outcome of a moment evaluation: a positive value with an error
    estimate, or a certified divergence naming the violated clause."""

    kind: str  # "finite" | "divergent"
    value: Optional[float] = None
    err_estimate: Optional[float] = None
    violated_condition: Optional[str] = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @classmethod
    def finite(cls, value: float, err_estimate: float) -> "MomentValue":
        return cls("finite", value=value, err_estimate=err_estimate)

    @classmethod
    def divergent(cls, condition: str) -> "MomentValue":
        return cls("divergent", violated_condition=f"{condition} violated")


def integrability_margin(m: MomentArgs):
    """x/mu + 1 - s, elementwise over array x, as (x + mu)/mu - s: x + mu
    is exact for the witnesses x = 1 - floor(mu) and 1 - mu (mu < 2^53),
    so the margin at s equal to a threshold computed from it is exactly 0."""
    mu = m.params.mu
    return (m.x + mu) / mu - m.s


def is_integrable(m: MomentArgs):
    """Both clauses, elementwise over array arguments; a bool for floats."""
    return (m.s < 0.5) & (integrability_margin(m) > 0.0)


def _violated(m: MomentArgs) -> str:
    return S_CLAUSE if m.s >= 0.5 else X_CLAUSE


def _refuse_divergent(m: MomentArgs) -> None:
    """Raise DomainError unless every element of m is integrable, naming
    the violated clause of the first divergent element (and, for arrays,
    the element itself)."""
    ok = is_integrable(m)
    if np.all(ok):
        return
    *args, ok = np.broadcast_arrays(m.x, m.y, m.s, ok)
    i = int(np.argmin(ok))
    first = MomentArgs(*(v.flat[i] for v in args), m.params)
    where = f" at (x, y, s) = ({first.x}, {first.y}, {first.s})" if ok.ndim else ""
    raise DomainError(f"moment diverges ({_violated(first)}){where}; see is_integrable")


def _two_sum(a, b):
    """Knuth's error-free TwoSum, elementwise: a + b = total + err exactly."""
    total = a + b
    b_virtual = total - a
    return total, (a - (total - b_virtual)) + (b - b_virtual)


def _product_error(a: float, b: float, ab: float) -> float:
    """a b - ab for the rounded product ab = fl(a b): exact, as the error of
    a double product is a double (barring underflow); computed on the exact
    integer ratios of the three doubles, and rounded once.  NaN where ab
    overflows."""
    try:
        (na, da), (nb, db), (nab, dab) = (float(v).as_integer_ratio() for v in (a, b, ab))
    except OverflowError:
        return math.nan
    return (na * nb * dab - nab * da * db) / (da * db * dab)


def _exponents(x, s, mu: float, sign=1.0, *, finite=True):
    """The alpha and beta exponents 2x/mu + 2 - 2w and 2x/mu + 3 - 4w at
    the weight w = sign s, elementwise over x, s (a float or an array) and
    sign in {1, -1, 0}, which broadcast (a leading axis of signs stacks
    several weights).  Each element has the bits of its scalar call.

    The first vanishes on the integrability boundary, where 2x/mu + 2
    cancels against 2w.  It is formed as 2(x + mu - mu w)/mu, with mu w
    split exactly into two doubles and the four terms summed by a cascade
    of TwoSums (Ogita, Rump and Oishi 2005, Sum2), as if in twice the
    working precision, so it keeps full relative accuracy up to the
    boundary.  Near the boundary both TwoSums are exact (Sterbenz's lemma),
    so the sum is rounded only once.

    Raises DomainError where x + mu - mu w overflows a double and, if
    ``finite``, where an exponent does: the closed form and the oracles of
    the moment need finite exponents, while a truncated moment takes an
    infinite rate as an integrand that vanishes.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mu_s = mu * s
        if isinstance(s, np.ndarray):  # the exact error element by element
            mu_s_lo = np.fromiter(map(partial(_product_error, mu), s.ravel().tolist(),
                                      mu_s.ravel().tolist()), float, count=s.size).reshape(s.shape)
        else:
            mu_s_lo = _product_error(mu, s, mu_s)
        head, err_mu = _two_sum(x, mu)
        head, err_s = _two_sum(head, -sign * mu_s)
        gap = head + ((err_mu + err_s) - sign * mu_s_lo)
        alpha_x = 2.0 * gap / mu
        beta_x = alpha_x + (1.0 - 2.0 * s * sign)
    if not np.isfinite(gap).all():
        raise DomainError(f"x + mu - mu s overflows a double at mu = {mu}, s = {s}")
    if finite and not (np.isfinite(alpha_x).all() and np.isfinite(beta_x).all()):
        raise DomainError(f"the moment's exponents 2x/mu + 2 - 2s and 2x/mu + 3 - 4s overflow "
                          f"a double at mu = {mu}, s = {s}")
    return alpha_x, beta_x


def lambda_closed(m: MomentArgs) -> MomentValue:
    """Closed-form moment 8 pi^2 mu alpha(...) beta(...); divergent args
    are totalized, naming the violated clause."""
    _check_finite(m.x, m.y, m.s)
    if not is_integrable(m):
        return MomentValue.divergent(_violated(m))
    val = lambda_closed_array(m.x, m.y, m.s, m.params)
    return MomentValue.finite(val, 1e-11 * val)


def _check_finite(x, y, s: float) -> None:
    for name, value in (("x", x), ("y", y), ("s", s)):
        if not np.all(np.isfinite(value)):
            raise DomainError(f"moment argument {name} must be finite")


def lambda_closed_array(x, y, s, params: DomainParams):
    """The closed-form moment lam(x, y, s) elementwise over x, y and s (a
    float or an array), which broadcast against each other (e.g. x[:, None]
    and y[None, :] for a (j, k) lattice at one weight, or one draw per
    element); a float for scalar arguments, each element the bits of its
    scalar call.

    Every element must be integrable.  Raises DomainError when an argument
    is not finite, a moment diverges (naming the first divergent element,
    as lambda_quadrature does) or a value overflows a double; each check
    runs once per call.
    """
    mu = params.mu
    _check_finite(x, y, s)
    _refuse_divergent(MomentArgs(x, y, s, params))
    X, Y = _exponents(x, s, mu)
    alpha = special.alpha_eval(X, 1.0 - 2.0 * s)
    with np.errstate(over="ignore"):
        val = 8.0 * math.pi**2 * mu * alpha * special.beta_eval(Y, y)
    if not np.all(np.isfinite(val)):
        raise DomainError(f"lam(x, y, {s}) at mu = {mu} overflows a double")
    return val


def lambda_quadrature(m: MomentArgs) -> MomentValue:
    """Independent evaluation 8 pi^2 mu alpha(X, 1 - 2s) beta(Y, y) from
    the quadrature oracles of ``special``, each to relative accuracy
    1e-11; the error estimate adds their own relative estimates.

    m.x, m.y and m.s (floats or arrays) broadcast: for arrays, value and
    err_estimate are arrays from one stack per oracle, each element settled
    on its own, bit for bit its scalar call.  Raises DomainError naming the
    first divergent element, and QuadratureError when either oracle does
    not converge."""
    _refuse_divergent(m)
    X, Y = _exponents(m.x, m.s, m.params.mu)
    alpha, alpha_err = special.alpha_quadrature(X, 1.0 - 2.0 * m.s, 1e-11)
    beta, beta_err = special.beta_quadrature(Y, m.y, 1e-11)
    val = 8.0 * math.pi**2 * m.params.mu * alpha * beta
    return MomentValue.finite(val, (alpha_err / alpha + beta_err / beta) * val)


def lambda_ratio_bound(x, s: float, params: DomainParams):
    """Closed-form bound for lambda_ratio_family, independent of y:

    (X (1+4s) Y) / ((X-2s)(1-2s)(Y-4s)),  X = 2x/mu + 2, Y = 2x/mu + 3,

    with the denominators from _exponents, exact up to the boundary;
    elementwise over x, each element the bits of its scalar call, and a
    float for scalar x.
    """
    if not (0.0 <= s < 0.5 and np.all(integrability_margin(MomentArgs(x, 0.0, s, params)) > 0.0)):
        raise DomainError(f"bound needs 0 <= s < 1/2 and {X_CLAUSE}")
    Xs, Ys = _exponents(x, s, params.mu)
    X, Y = Xs + 2.0 * s, Ys + 4.0 * s
    return (X * (1.0 + 4.0 * s) * Y) / (Xs * (1.0 - 2.0 * s) * Ys)


def lambda_ratio_family(x, ys, s: float, params: DomainParams) -> np.ndarray:
    """The normalized second moment lam(x,y,s) lam(x,y,-s) / lam(x,y,0)^2,
    elementwise over x and ys, which broadcast against each other (e.g. a
    whole (j, k) lattice from x[:, None] and ys[None, :]); a numpy float for
    scalar x and ys.  Always >= 1 (Cauchy-Schwarz) and bounded by
    lambda_ratio_bound.  Raises DomainError unless 0 <= s < 1/2 and every x
    is integrable at s, hence also at 0 and -s; each check runs once per call.

    Summed in log space from the closed forms (the constant 8 pi^2 mu
    drops out), so the large log-Gamma terms of the three moments cancel
    before anything is exponentiated.  The weights s, -s and 0 are stacked
    on a leading axis, so each of alpha and log beta is one array call; the
    complex log-Gamma shifts Re z on the rows and reduces its shift product
    over the lattice once.  The ratio is even in ys bit for bit, since
    beta(x, y) = beta(x, -y) and special.log_abs_gamma is even in Im z.
    """
    if not 0.0 <= s < 0.5:
        raise DomainError(f"need 0 <= s < 1/2, got {s}")
    if not np.all(integrability_margin(MomentArgs(np.asarray(x), ys, s, params)) > 0.0):
        raise DomainError(f"moment at weight {s} diverges for x = {np.min(x)}")
    sign = np.array([1.0, -1.0, 0.0]).reshape(3, *[1] * max(np.ndim(x), np.ndim(ys)))
    X, Y = _exponents(x, s, params.mu, sign)
    a = special.alpha_eval(X, 1.0 - 2.0 * s * sign)
    b = special.log_beta(Y, ys)
    return np.exp(np.log(a[0] * a[1] / a[2] ** 2) + b[0] + b[1] - 2.0 * b[2])


def lambda_truncated(m: MomentArgs, eps: float) -> float:
    """The moment restricted to |w1| > eps.

    Finite for every eps in (0, 1) as long as s < 1/2; nondecreasing as
    eps decreases, converging to the full moment in the integrable case.
    It is the (r1, u2) integral over (eps, 1): the tanh-sinh _top_piece down
    to max(eps, 2^-4) plus the dyadic _shells below it, those of the growth
    fit.  Raises QuadratureError when the result is not finite or does not
    converge to _TRUNCATED_RTOL.
    """
    _check_truncation(m, eps)
    top = max(eps, 2.0**-_TOP_LEVEL)
    pieces = [_top_piece(m, top)]
    if eps < top:
        k = np.arange(_TOP_LEVEL, math.ceil(-math.log2(eps)))
        pieces.extend(_shells(m, np.log(np.append(2.0 ** -k.astype(float), eps)))[1])
    try:
        total = math.fsum(pieces)
    except OverflowError:  # finite pieces whose sum exceeds a double
        total = math.inf
    return _finite_or_raise(total, m)


def lambda_truncated_oracle(m: MomentArgs, eps: float) -> float:
    """lambda_truncated by the independent (u1, u2) route, the oracle of
    the (r1, u2) shells; off every hot path.

    With u1 = r1^mu / cos u2 the cut |w1| > eps is u1 > lo = eps^mu / cos u2,
    and the moment is 8 pi^2 mu times the adaptive u2 integral of
    (cos u2)^(Y - 1) e^(y u2) special.alpha_tail(X, 1 - 2s, lo).  The gap
    cos u2 - eps^mu = 2 sin(da/2) sin(db/2) is exact (da, db are the
    distances to the ends +-C of the u2 range), so cos u2 and the u1 span
    keep full accuracy as the fiber collapses.
    """
    _check_truncation(m, eps)
    mu, s = m.params.mu, m.s
    X, Y = _exponents(m.x, s, mu, finite=False)
    log_emu = mu * math.log(eps)
    emu = math.exp(log_emu)
    C = _half_width(log_emu)

    def outer(rows, da, db):
        u2 = -C + da
        gap = 2.0 * np.sin(0.5 * da) * np.sin(0.5 * db)
        cos_u2 = emu + gap
        inner = special.alpha_tail(X, 1.0 - 2.0 * s, emu / cos_u2, gap / cos_u2)
        return cos_u2 ** (Y - 1.0) * np.exp(m.y * u2) * inner

    res = quadrature.integrate(outer, -C, C, rtol=_ORACLE_RTOL, max_level=9)
    return float(_finite_or_raise(8.0 * math.pi**2 * mu * res.value, m))


def _check_truncation(m: MomentArgs, eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise DomainError(f"need eps in (0, 1), got {eps}")
    if not m.s < 0.5:
        raise DomainError("truncation only tames the w1 singularity; need s < 1/2")
    _check_finite(m.x, m.y, m.s)


def _finite_or_raise(value, m: MomentArgs):
    """value, raising QuadratureError unless every element is finite."""
    if not np.all(np.isfinite(value)):
        raise quadrature.QuadratureError(f"truncated moment of {m} overflows a double")
    return value


# lambda_truncated splits off its tanh-sinh piece at 2^-_TOP_LEVEL, which
# settles to _TRUNCATED_RTOL; its oracle's u2 integral settles to _ORACLE_RTOL.
_TOP_LEVEL = 4
_TRUNCATED_RTOL = 1e-9
_ORACLE_RTOL = 1e-12

# The rules in r1 are nested tanh-sinh over _LEVELS (the first one checked
# against nothing); a Gram table settles to _MESH_RTOL.  The closed-form
# fibers stop their series where its tail is below _FIBER_TAIL of the sum;
# past _FIBER_REACH, |y| c > 1448 and the fiber exceeds a double.
_FIBER_TAIL = 2.0**-60
_FIBER_REACH = 1024.0
_LEVELS = (3, 9)
_MESH_RTOL = 1e-10

# Each dyadic shell is split into panels in log r1 on which the integrand's
# exponential rate times the panel width is at most _PANEL_RATE, and each
# panel takes a _GL_NODES-point Gauss-Legendre rule.  For e^(k t) on [-1, 1]
# with k = 4 the 12-point rule's relative error is below 1e-15.
# Past _MAX_PANELS, a rate above ~1400, every shell is 0 or beyond a double.
_GL_NODES = 12
_PANEL_RATE = 8.0
_MAX_PANELS = 128
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)


def _half_width(log_p):
    """c = arccos(p) from log p <= 0, as 2 arcsin(sqrt((1 - p)/2)).

    1 - p = -expm1(log p) keeps every digit that 1 - exp(log p) loses once
    |log p| < 1e-16, and the square root is taken before the halving so
    that a subnormal 1 - p does not round to zero.
    """
    return 2.0 * np.arcsin(np.sqrt(-np.expm1(log_p)) * math.sqrt(0.5))


@lru_cache(maxsize=None)
def _nodes(level: int, fresh: bool):
    """(t, log t, log w) of the tanh-sinh nodes t of (0, 1) at ``level``, only
    those new at ``level`` when ``fresh``; log t keeps full accuracy as t -> 1."""
    p_lo, p_hi, w = (quadrature.new_nodes if fresh else quadrature.nodes)(level)
    return p_lo, np.where(p_lo < 0.5, np.log(p_lo), np.log1p(-np.minimum(p_hi, 0.5))), np.log(w)


def _unit_r1(level: int, fresh: bool):
    """(log r1, log w) of the tanh-sinh rule in r1 on (0, 1), for _nested_r1."""
    return _nodes(level, fresh)[1:]


def _fiber(log_r1, mu: float, ys, s: float) -> np.ndarray:
    """G_y(r1) = ∫_{-c}^{c} e^(y u2) (cos u2 - r1^mu)^(-2s) du2, c = arccos r1^mu,
    in closed form as a (len(ys), len(log_r1)) array: by DLMF 14.12.1 and
    14.3.1, with v = 1 - r1^mu,

        G_y = sqrt(2 pi) Gamma(1-2s)/Gamma(3/2-2s) v^(1/2-2s) 2F1(1/2+iy, 1/2-iy; 3/2-2s; v/2),

    a series of positive terms, exact up to s -> 1/2; 0 where v underflows.
    With V the largest v it is a polynomial in v/V <= 1, its coefficients
    one cumulative product.  For k >= n the ratio of consecutive terms is
    below q = (1 + y^2/((n+1/2)(n+1))) V/2, so it stops at the first n whose
    tail bound, term n times q/(1 - q), is below _FIBER_TAIL of the sum at V,
    hence at every v.  Infinite beyond a double, and in each row whose peak
    term, near index |y| sqrt(V), is past _FIBER_REACH; the other rows are
    summed as if alone.
    """
    ys = np.asarray(ys, dtype=float)
    v = -np.expm1(mu * np.asarray(log_r1, dtype=float))
    top = float(np.max(v, initial=0.0))
    reach = float(np.max(np.abs(ys), initial=0.0)) * math.sqrt(top)
    far = None
    if not reach < _FIBER_REACH:  # rows past the reach: summed at y = 0, then set to inf
        far = ~(np.abs(ys) * math.sqrt(top) < _FIBER_REACH)
        ys = np.where(far, 0.0, ys)
        reach = float(np.max(np.abs(ys))) * math.sqrt(top)
    # from n0 = sqrt(2) reach on q <= 3/4, so the tail test holds 150 terms later
    n = np.arange(150 + math.ceil(math.sqrt(2.0) * reach), dtype=float)
    y2 = (ys * ys)[:, None]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        k = n[:-1]
        coef = np.ones((len(ys), len(n)))
        np.cumprod(((k + 0.5) ** 2 + y2) * (0.5 * top) / ((k + 1.0) * (k + 1.5 - 2.0 * s)),
                   axis=1, out=coef[:, 1:])
        q = (1.0 + y2 / ((n + 0.5) * (n + 1.0))) * (0.5 * top)
        done = (q < 1.0) & (coef * q / (1.0 - q) <= _FIBER_TAIL * np.cumsum(coef, axis=1))
        stop = int(np.max(np.argmax(done, axis=1))) + 1 if done[:, -1].all() else len(n)
        powers = np.ones((len(v), stop))
        powers[:, 1:] = (v / top if top else v)[:, None]
        np.cumprod(powers, axis=1, out=powers)
        scale = math.sqrt(2.0 * math.pi) * math.exp(math.lgamma(1.0 - 2.0 * s)
                                                    - math.lgamma(1.5 - 2.0 * s))
        fiber = np.where(v == 0.0, 0.0, scale * v ** (0.5 - 2.0 * s) * (coef[:, :stop] @ powers.T))
    if far is not None:
        fiber[far] = math.inf
    return fiber


def _nested_r1(rule, moments, mu: float, ys, s: float, rtol) -> quadrature.QuadResult:
    """8 pi^2 mu^2 times the sums of the node values moments(log r1, log w,
    _fiber(log r1, mu, ys, s)) on the nested tanh-sinh rule(level, fresh) ->
    (log r1, log w) over _LEVELS, each level adding its fresh nodes to half the
    sum of the last, as a QuadResult of arrays.  By quadrature.unsettled, the
    settle test of quadrature.integrate, each element stops at its first level
    that moves it by at most max(1e-300, rtol |total|), rtol broadcast, or as
    (inf, inf), unconverged, at a total that is not finite; the first level,
    checked against nothing, and the next share one _fiber call.
    """
    lo, hi = _LEVELS
    (r_lo, w_lo), (r_new, w_new) = rule(lo, False), rule(lo + 1, True)
    scale = 8.0 * math.pi**2 * mu * mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fibers = _fiber(np.concatenate((r_lo, r_new)), mu, ys, s)
        total = moments(r_lo, w_lo, fibers[:, :len(r_lo)]).sum(-1)
        value, err = scale * total, np.full(total.shape, math.inf)
        level, open_ = np.full(total.shape, lo), np.ones(total.shape, dtype=bool)
        for next_level in range(lo + 1, hi + 2):
            open_ &= quadrature.unsettled(value, err, rtol)
            if next_level > hi or not open_.any():
                break
            if next_level == lo + 1:
                part = moments(r_new, w_new, fibers[:, len(r_lo):]).sum(-1)
            else:
                log_r1, log_w = rule(next_level, True)
                part = moments(log_r1, log_w, _fiber(log_r1, mu, ys, s)).sum(-1)
            prev, total = total, 0.5 * total + part
            value[open_], err[open_] = scale * total[open_], scale * np.abs(total - prev)[open_]
            level[open_] = next_level
    finite = np.isfinite(value)
    value[~finite] = err[~finite] = math.inf
    return quadrature.QuadResult(value, err, level, finite & ~open_)


def _shell_rule(m: MomentArgs, log_cuts: np.ndarray):
    """(rate mu X of r1^(mu X) in log r1, log r1, log w): the Gauss-Legendre
    rule on panels of log r1 (_PANEL_RATE) of each shell (cuts[i+1], cuts[i]),
    as (shells, panels, nodes) arrays; at least two cuts, cuts[i+1] >= cuts[i] / 2."""
    mu = m.params.mu
    X, _ = _exponents(m.x, m.s, mu, finite=False)
    rate = mu * X
    # log G changes with log r1 at about mu r1^mu (|y| + 1) / sin c, largest at the top
    p_top = math.exp(mu * log_cuts[0])
    rate_c = mu * p_top * (abs(m.y) + 1.0) / math.sqrt(1.0 - p_top * p_top)
    # either rate may overflow a double
    load = (abs(rate) + rate_c) * float(np.max(-np.diff(log_cuts))) / _PANEL_RATE
    panels = max(1, math.ceil(min(load, _MAX_PANELS)))
    frac = (np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_X)) / panels
    lo, hi = log_cuts[1:, None, None], log_cuts[:-1, None, None]
    log_r1 = hi + (lo - hi) * frac
    return rate, log_r1, np.log(0.5 * (hi - lo) / panels * _GL_W) + log_r1


def _truncated_terms(rate: float, log_r1, log_w, fibers):
    """The truncated moments' r1^(rate - 1) w G_y(r1) at the nodes, the power as one exp,
    which can overflow at a strong divergence; a fiber that underflowed to 0 adds 0."""
    return np.where(fibers == 0.0, 0.0, np.exp((rate - 1.0) * log_r1 + log_w) * fibers)


def _top_piece(m: MomentArgs, cut: float) -> float:
    """The moment over r1 in (cut, 1), nested tanh-sinh in log r1 (its nodes
    -(log cut) t keep full relative accuracy as r1 -> 1, where the fibers
    collapse) settled to _TRUNCATED_RTOL; QuadratureError when it is not finite
    or does not settle."""
    mu = m.params.mu
    span = -float(np.log(cut))

    def top(level: int, fresh: bool):
        t, _, log_w = _nodes(level, fresh)
        log_r1 = -span * t  # the tanh-sinh rule is symmetric, so t stands for 1 - t
        return log_r1, log_w + math.log(span) + log_r1

    X, _ = _exponents(m.x, m.s, mu, finite=False)
    res = _nested_r1(top, partial(_truncated_terms, mu * X), mu, [m.y], m.s, _TRUNCATED_RTOL)
    _finite_or_raise(res.value, m)
    if not res.converged.all():
        raise quadrature.QuadratureError(f"truncated moment did not converge for {m}")
    return float(res.value[0])


def _shells(m: MomentArgs, log_cuts: np.ndarray):
    """(rate, shells): the rate mu X of _shell_rule and the moment over each
    shell (cuts[i+1], cuts[i]) on its rule, from one _fiber call; QuadratureError
    when a shell is not finite."""
    mu = m.params.mu
    rate, log_r1, log_w = _shell_rule(m, log_cuts)
    with np.errstate(over="ignore", invalid="ignore"):
        fibers = _fiber(log_r1.ravel(), mu, [m.y], m.s).reshape(log_r1.shape)
        terms = _truncated_terms(rate, log_r1, log_w, fibers)
        return rate, _finite_or_raise(8.0 * math.pi**2 * mu * mu * terms.sum(axis=(1, 2)), m)


@dataclass(frozen=True)
class GrowthFit:
    """Divergence mode of eps -> lambda_truncated(eps) from its dyadic shells
    (2^-(k+1), 2^-k), k = 4..15: the values' first differences on eps_grid.

    kind "power": values ~ eps^(mu * exponent); kind "log": values grow
    linearly in |log eps| (|exponent| <= 1e-9).  exponent is measured: the
    shells' log2 ratios over mu in a Richardson table at the rates 2^(j mu)
    of their terms r1^(j mu).  coefficient is the deepest shell over
    ∫ r1^(mu e - 1) dr1 on it at the analytic exponent e, closed_form its
    limit 8 pi^2 mu^2 beta(1 - 2s, y), and gap_bound the error model's bound
    on their relative gap: 2^(1 - mu) times the gap one shell up, plus
    _GAP_FLOOR of rounding.
    """

    kind: str  # "power" | "log"
    exponent: float
    coefficient: float
    closed_form: float
    gap_bound: float
    eps_grid: tuple[float, ...]
    shells: tuple[float, ...]

    def matches(self, exponent: float, growth_tol: float) -> bool:
        """The log mode for an analytic exponent within 1e-9 of 0, else the power
        mode within growth_tol of it, with a coefficient within gap_bound of the
        closed form, which an offset above _GAP_FLOOR / (1 - 2^(1 - mu)) fails."""
        mode = self.kind == "log" if abs(exponent) <= _LOG_MODE else (
            self.kind == "power" and abs(self.exponent - exponent) <= growth_tol)
        return mode and abs(self.coefficient / self.closed_form - 1.0) <= self.gap_bound


# the growth fit's cuts eps = 2^-m, m = 4..16, from lambda_truncated's top
# cut; a measured exponent within _LOG_MODE of 0 is the log mode.  Over 609
# seeded witnesses (mu from 2.06 to 1e7) a coefficient's gap reached 6.8e-13
# (at mu 2.21), 3.4e-14 at mu >= 8, where it is rounding: _GAP_FLOOR is ~30x
# that (tests/test_measure.py)
_FIT_MS = np.arange(_TOP_LEVEL, 17)
_LOG_MODE = 1e-9
_GAP_FLOOR = 1e-12


def truncation_growth_fit(m: MomentArgs) -> GrowthFit:
    """The GrowthFit of a moment, from its _shells alone (one _fiber call).
    Raises DomainError when a shell is not positive or they shrink, as for a
    convergent moment, and QuadratureError when one is not finite."""
    eps = 2.0 ** (-_FIT_MS.astype(float))
    _check_truncation(m, float(eps[-1]))
    mu = m.params.mu
    rate, shells = _shells(m, np.log(eps))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (-np.diff(np.log2(shells)) / mu).tolist() if np.all(shells > 0.0) else [math.inf]
        for j in range(1, len(ratios)):  # the Richardson table, one term r1^(j mu) per column
            w = 2.0 ** (-j * mu)
            ratios = [(deep - w * up) / (1.0 - w) for up, deep in zip(ratios, ratios[1:])]
        exponent = ratios[0]
        if not exponent <= _LOG_MODE:
            raise DomainError(f"truncated moments of {m} show no power growth to fit")
        # ∫_a^(2a) r1^(rate - 1) dr1 = a^rate (2^rate - 1)/rate, log 2 at rate 0
        per_shell = math.expm1(rate * math.log(2.0)) / rate if rate else math.log(2.0)
        coefficients = shells[-2:] / (eps[-2:] ** rate * per_shell)
    closed_form = 8.0 * math.pi**2 * mu * mu * special.beta_eval(1.0 - 2.0 * m.s, m.y)
    gap_bound = 2.0 ** (1.0 - mu) * abs(coefficients[0] / closed_form - 1.0) + _GAP_FLOOR
    return GrowthFit("log" if exponent >= -_LOG_MODE else "power", exponent, float(coefficients[1]),
                     closed_form, float(gap_bound), tuple(eps), tuple(shells))


def radial_moment(profile: Callable, p1, p2, params: DomainParams, *,
                  rtol: Sequence[float]) -> list:
    """∫_D g_i(|w1|) |w1|^p1_i |w2|^p2_i dV_D for radial profiles g_i of |w1|, as

        8 pi^2 mu^2 ∫_0^1 r1^(p1_i + 2mu - 1) g_i(r1) G_(p2_i/2)(r1) dr1,

    the fiber integral G_y of |w2|^p2 = e^(y u2) at s = 0 in closed form
    (_fiber), on nested tanh-sinh in r1 (_nested_r1), one integrand per
    tolerance in ``rtol``, all on the same nodes.  The exponents p1 and p2
    are per integrand: floats or sequences that broadcast against ``rtol``.
    Each level takes one _fiber call over the distinct p2/2.

    ``profile(r1)`` returns the sequence of the g_i, vectorized over numpy
    arrays.  The result is a list of QuadResult, each taken at the first
    level where its own tolerance was met, or as (inf, inf), unconverged, at
    the first where its value was not finite (_nested_r1).
    """
    mu = params.mu
    p1, p2, rtol = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p1, p2, rtol)))
    power = (p1 + 2.0 * mu - 1.0)[:, None]
    ys, y_at = np.unique(0.5 * p2, return_inverse=True)

    def moments(log_r1, log_w, fibers):
        r1 = np.exp(log_r1)
        gs = [np.broadcast_to(g, r1.shape) for g in profile(r1)]
        profiled = np.array(gs, dtype=float) * fibers[y_at]
        # r1^power w as one exp, as it can overflow at power -> -1; a
        # profiled fiber that underflowed to 0 adds 0 even there
        return np.where(profiled == 0.0, 0.0, np.exp(power * log_r1 + log_w) * profiled)

    res = _nested_r1(_unit_r1, moments, mu, ys, 0.0, rtol)
    return [quadrature.QuadResult(float(v), float(e), int(level), bool(ok))
            for v, e, level, ok in zip(res.value, res.err_estimate, res.level, res.converged)]


def mesh_moments(x, y_lo: float, count: int, s: float, params: DomainParams):
    """lam(x_a, y_lo + i/2, s), i < count, as a (len(x), count) array over
    the integrable x_a of the 1-d x: the Gram matrices' lam, each entry at its
    first level that agrees with the level below to _MESH_RTOL (else
    QuadratureError): 8 pi^2 mu^2 ∫_0^1 r1^a G_y(r1) dr1, a = 2x + 2mu - 1 - 2s mu,
    with the fibers G_y in closed form (_fiber), on nested tanh-sinh in r1.
    """
    mu = params.mu
    powers = 2.0 * np.asarray(x, dtype=float) + 2.0 * mu - 1.0 - 2.0 * s * mu
    ys = y_lo + 0.5 * np.arange(count)

    def moments(log_r1, log_w, fibers):
        return np.exp(np.multiply.outer(powers, log_r1) + log_w)[:, None, :] * fibers

    res = _nested_r1(_unit_r1, moments, mu, ys, s, _MESH_RTOL)
    if not res.converged.all():
        raise quadrature.QuadratureError(f"moments lam(x, {y_lo} + i/2, {s}) at mu = {mu} did "
                                         f"not settle to a finite table by level {res.level.max()}")
    return res.value
