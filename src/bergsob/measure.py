"""Weighted moments of the model domain.

The central object is

    lam(x, y, s) = ∫_D |w1|^(2x) |w2|^(2y) delta0(w)^(-2s) dV_D,

finite iff x/mu + 1 - s > 0 and s < 1/2.  Under the delta0 convention
the change of variables u = (r1^mu / cos(log r2^2), log r2^2) collapses
the moment to an exact product of the two special-function integrals:

    lam(x, y, s) = 8 pi^2 mu * alpha(2x/mu + 2 - 2s, 1 - 2s)
                             * beta(2x/mu + 3 - 4s, y).

``lambda_closed`` evaluates that product from Gamma closed forms, and
``lambda_ratio_family`` a ratio of three of them over a whole basis
lattice in log space.  ``lambda_quadrature`` integrates the separable
u-coordinate integrand

    u1^(2x/mu + 1 - 2s) (1 - u1)^(-2s) (cos u2)^(2x/mu + 2 - 4s) e^(y u2)

directly with two independent singular-endpoint quadratures, giving a
genuinely independent cross-check of the closed form.

``lambda_truncated`` restricts the moment to |w1| > eps, which is always
finite for s < 1/2; its growth as eps -> 0 certifies divergence: the
values grow like eps^(mu e) when e = 2x/mu + 2 - 2s < 0 and like
mu |log eps| when e = 0.  ``truncation_growth_fit`` extracts the growth
mode from second differences over a dyadic eps grid (second differencing
cancels both the convergent part and any additive logarithmic mode, so
the power exponent survives mixed-mode divergence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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
    "lambda_ratio",
    "lambda_ratio_bound",
    "lambda_ratio_family",
    "lambda_truncated",
    "truncation_growth_fit",
    "radial_moment",
]

_HALF_PI = 0.5 * math.pi

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


def integrability_margin(m: MomentArgs) -> float:
    return m.x / m.params.mu + 1.0 - m.s


def is_integrable(m: MomentArgs) -> bool:
    return m.s < 0.5 and integrability_margin(m) > 0.0


def _violated(m: MomentArgs) -> str:
    return S_CLAUSE if m.s >= 0.5 else X_CLAUSE


def _exponents(x, s: float, mu: float):
    """The alpha and beta exponents 2x/mu + 2 - 2s and 2x/mu + 3 - 4s,
    elementwise over x.

    The first vanishes on the integrability boundary, where 2x/mu + 2
    cancels against 2s.  It is formed as 2(x + mu - mu s)/mu, with mu s
    split exactly into two doubles and the four terms summed exactly, so it
    keeps full relative accuracy up to the boundary.
    """
    mu_s = mu * s
    try:
        mu_s_lo = float(Fraction(mu) * Fraction(s) - Fraction(mu_s))  # exact
        gap = lambda v: 2.0 * math.fsum((v, mu, -mu_s, -mu_s_lo)) / mu
        alpha_x = gap(x) if np.ndim(x) == 0 else np.vectorize(gap, otypes=[float])(x)
    except OverflowError:
        raise DomainError(f"x + mu - mu s overflows a double at mu = {mu}, s = {s}") from None
    return alpha_x, alpha_x + (1.0 - 2.0 * s)


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


def lambda_closed_array(x, y, s: float, params: DomainParams):
    """The closed-form moment lam(x, y, s) elementwise over x and y, which
    broadcast against each other (e.g. x[:, None] and y[None, :] for a
    (j, k) lattice), at one weight s; a float for scalar x and y.

    Every element must be integrable.  Raises DomainError when an argument
    is not finite, a moment diverges or a value overflows a double; each
    check runs once per call.
    """
    mu = params.mu
    _check_finite(x, y, s)
    margin = np.asarray(x) / mu + 1.0 - s
    if not (s < 0.5 and np.all(margin > 0.0)):
        raise DomainError(f"lam(x, y, {s}) diverges at x = {np.min(x)} for mu = {mu}")
    X, Y = _exponents(x, s, mu)
    alpha = special.alpha_eval(X, 1.0 - 2.0 * s, method="lgamma")
    with np.errstate(over="ignore"):
        val = 8.0 * math.pi**2 * mu * alpha * special.beta_eval(Y, y)
    if not np.all(np.isfinite(val)):
        raise DomainError(f"lam(x, y, {s}) at mu = {mu} overflows a double")
    return val


def default_quadrature_tol(margin: float) -> float:
    """Relative tolerance schedule: 1e-8 for margin >= 0.1, loosened
    linearly (in the exponent) to 1e-6 as the margin drops to 0.02."""
    if margin >= 0.1:
        return 1e-8
    if margin <= 0.02:
        return 1e-6
    frac = (0.1 - margin) / 0.08
    return 10.0 ** (-8.0 + 2.0 * frac)


def lambda_quadrature(m: MomentArgs, tol: Optional[float] = None) -> MomentValue:
    """Independent evaluation as a product of two 1D singular-endpoint
    quadratures in the u coordinates, times 8 pi^2 mu."""
    if not is_integrable(m):
        raise DomainError(f"moment diverges ({_violated(m)}); see is_integrable")
    if tol is None:
        tol = default_quadrature_tol(integrability_margin(m))
    X, Y = _exponents(m.x, m.s, m.params.mu)
    s = m.s

    def f1(u, da, db):
        return da ** (X - 1.0) * db ** (-2.0 * s)

    def f2(t, da, db):
        return np.sin(np.minimum(da, db)) ** (Y - 1.0) * np.exp(m.y * t)

    r1 = quadrature.integrate(f1, 0.0, 1.0, rtol=0.1 * tol)
    r2 = quadrature.integrate(f2, -_HALF_PI, _HALF_PI, rtol=0.1 * tol)
    if not (r1.converged and r2.converged):
        raise quadrature.QuadratureError(f"moment quadrature failed for {m}")
    val = 8.0 * math.pi**2 * m.params.mu * r1.value * r2.value
    rel = r1.err_estimate / r1.value + r2.err_estimate / r2.value
    return MomentValue.finite(val, abs(rel) * val)


def lambda_ratio(x: float, y: float, s: float, params: DomainParams) -> float:
    """Normalized second moment lam(x,y,s) lam(x,y,-s) / lam(x,y,0)^2.

    Always >= 1 (Cauchy-Schwarz) and bounded by lambda_ratio_bound.
    """
    if not 0.0 <= s < 0.5:
        raise DomainError(f"need 0 <= s < 1/2, got {s}")
    for sign in (s, -s):
        if not is_integrable(MomentArgs(x, y, sign, params)):
            raise DomainError(f"moment at weight {sign} diverges for x = {x}")
    return float(lambda_ratio_family(x, y, s, params))


def lambda_ratio_bound(x: float, s: float, params: DomainParams) -> float:
    """Closed-form bound for lambda_ratio, independent of y:

    (X (1+4s) Y) / ((X-2s)(1-2s)(Y-4s)),  X = 2x/mu + 2, Y = 2x/mu + 3.
    """
    X = 2.0 * x / params.mu + 2.0
    Y = X + 1.0
    if not (0.0 <= s < 0.5 and X > 2.0 * s):
        raise DomainError(f"bound needs 0 <= s < 1/2 and 2x/mu + 2 > 2s")
    return (X * (1.0 + 4.0 * s) * Y) / ((X - 2.0 * s) * (1.0 - 2.0 * s) * (Y - 4.0 * s))


def lambda_ratio_family(x, ys, s: float, params: DomainParams) -> np.ndarray:
    """lambda_ratio broadcast over array x and ys, e.g. over a whole (j, k)
    lattice from x[:, None] and ys[None, :].

    Summed in log space from the closed forms (the constant 8 pi^2 mu
    drops out), so the large log-Gamma terms of the three moments cancel
    before anything is exponentiated.
    """
    mu = params.mu
    X, Y = _exponents(x, 0.0, mu)
    Xm, Ym = _exponents(x, s, mu)
    Xp, Yp = _exponents(x, -s, mu)
    a = lambda u, v: special.alpha_eval(u, v, method="lgamma")
    log_a = np.log(a(Xm, 1.0 - 2.0 * s) * a(Xp, 1.0 + 2.0 * s) / a(X, 1.0) ** 2)
    b = special.log_beta
    return np.exp(log_a + b(Ym, ys) + b(Yp, ys) - 2.0 * b(Y, ys))


def lambda_truncated(m: MomentArgs, eps: float, *, rtol: float = 1e-9) -> float:
    """The moment restricted to |w1| > eps (u1 > eps^mu / cos u2, clipped).

    Finite for every eps in (0, 1) as long as s < 1/2; nondecreasing as
    eps decreases, converging to the full moment in the integrable case.

    The inner u1 integral over (lo, 1), lo = eps^mu / cos u2, runs on the
    fixed level-6 rule, and its kernel is separable: with span = 1 - lo,
    (1 - u1)^(-2s) = (span p_hi)^(-2s), so the inner sum is

        span^(1-2s) sum_k exp((X - 1) log u1_k + log_c_k),
        log_c = log w - 2s log p_hi,

    with log_c formed once per call.  It stays in log space because
    p_hi^(-2s) alone overflows for subnormal p_hi.  Raises QuadratureError
    when the outer integral is not finite or does not converge.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"need eps in (0, 1), got {eps}")
    if not m.s < 0.5:
        raise DomainError("truncation only tames the w1 singularity; need s < 1/2")
    mu = m.params.mu
    X, Y = _exponents(m.x, m.s, mu)
    s = m.s
    emu = eps**mu
    C = math.acos(emu)

    p_in_lo, p_in_hi, w_in = quadrature.nodes(6)
    log_c = np.log(w_in) - 2.0 * s * np.log(p_in_hi)

    def outer(u2, da, db):
        # cos u2 - eps^mu = 2 sin(da/2) sin(db/2) exactly (da, db are the
        # distances to the interval ends +-C); keeps the u1 span accurate
        # as the fiber collapses.
        cos_u2 = np.cos(u2)
        span = 2.0 * np.sin(0.5 * da) * np.sin(0.5 * db) / cos_u2
        out = np.zeros_like(u2)
        # spans below ~1e-250 contribute < span^(1-2s) <= 1e-25 and their
        # inner node offsets would underflow; drop them.
        ok = span > 1e-250
        spn = span[ok]
        lo = emu / cos_u2[ok]
        # one (rows, nodes) buffer, updated in place: u1, then its log-space term
        t = np.multiply.outer(spn, p_in_lo)
        t += lo[:, None]
        np.log(t, out=t)
        t *= X - 1.0
        t += log_c
        inner = spn ** (1.0 - 2.0 * s) * np.exp(t, out=t).sum(axis=1)
        out[ok] = cos_u2[ok] ** (Y - 1.0) * np.exp(m.y * u2[ok]) * inner
        return out

    res = quadrature.integrate(outer, -C, C, rtol=rtol, min_level=5, max_level=9)
    if not math.isfinite(res.value) or (
        not res.converged and res.err_estimate > 1e-6 * abs(res.value)
    ):
        raise quadrature.QuadratureError(f"truncated moment did not converge for {m}")
    return 8.0 * math.pi**2 * mu * res.value


@dataclass(frozen=True)
class GrowthFit:
    """Fitted divergence mode of eps -> lambda_truncated(eps).

    kind "power": values ~ eps^(mu * exponent); kind "log": values grow
    linearly in |log eps| (exponent 0).  residual is the RMS misfit of
    the defining linear regression in its own scale.
    """

    kind: str  # "power" | "log"
    exponent: float
    residual: float
    eps_grid: tuple[float, ...]
    values: tuple[float, ...]


def truncation_growth_fit(
    m: MomentArgs, *, m_lo: int = 4, m_hi: int = 16, rtol: float = 1e-9
) -> GrowthFit:
    """Certify the divergence mode of a moment from truncated values on
    eps = 2^-m, m = m_lo..m_hi.

    Second differences with respect to m cancel constants and any
    logarithmic mode exactly, so a surviving geometric trend identifies
    the power eps^(mu e); its slope against log eps recovers mu e.  When
    the second differences are negligible against the first differences,
    the growth is logarithmic.
    """
    ms = np.arange(m_lo, m_hi + 1)
    eps = 2.0 ** (-ms.astype(float))
    vals = np.array([lambda_truncated(m, float(e), rtol=rtol) for e in eps])
    d1 = np.diff(vals)
    d2 = np.diff(d1)
    scale1 = float(np.median(np.abs(d1)))
    scale2 = float(np.median(np.abs(d2)))
    if scale1 <= 0.0:
        raise DomainError("truncated moments are constant; nothing diverges")
    if scale2 <= 0.05 * scale1:
        # logarithmic: values = a + b m to numerical precision
        slope, intercept = np.polyfit(ms.astype(float), vals, 1)
        fitted = intercept + slope * ms
        residual = float(np.sqrt(np.mean((vals - fitted) ** 2)) / np.mean(np.abs(vals)))
        return GrowthFit("log", 0.0, residual, tuple(eps), tuple(vals))
    pos = d2 > 0
    log_eps = np.log(eps[:-2][pos])
    log_d2 = np.log(d2[pos])
    slope, intercept = np.polyfit(log_eps, log_d2, 1)
    fitted = intercept + slope * log_eps
    residual = float(np.sqrt(np.mean((log_d2 - fitted) ** 2)))
    return GrowthFit(
        "power", slope / m.params.mu, residual, tuple(eps), tuple(vals)
    )


def radial_moment(
    profile: Callable,
    p1: float,
    p2: float,
    params: DomainParams,
    *,
    rtol=1e-10,
    min_level: int = 5,
    max_level: int = 9,
):
    """∫_D g(|w1|, |w2|) |w1|^p1 |w2|^p2 dV_D for a radial profile g.

    Computed as the iterated integral (u2 = log r2^2)

        8 pi^2 mu^2 ∫_0^1 r1^(p1 + 2mu - 1)
            ∫_{-c(r1)}^{c(r1)} e^(p2 u2 / 2) g(r1, e^(u2/2)) du2 dr1

    on the product of two tanh-sinh rules of one level.  The rules nest, so
    level L evaluates only its new cells, all outer nodes of L times the
    new inner nodes plus the new outer nodes times the inner nodes of
    L - 1, and adds their sum to 1/4 of the previous level's sum.

    The profile must be vectorized over numpy arrays.  Several integrands
    that share p1 and p2 integrate on one mesh: give ``rtol`` as a
    sequence, one tolerance per integrand, and let the profile return a
    sequence of the integrands' values.  The result is then a list of
    QuadResult, each taken at the first level where its own tolerance was
    met (or its values stopped being finite), and the refinement stops
    once every integrand is settled.  The mesh is evaluated a block of
    rows at a time (see _BLOCK_CELLS), so the profile may be called
    several times per level.
    """
    many = np.ndim(rtol) == 1
    rtols = np.atleast_1d(np.asarray(rtol, dtype=float))
    n = len(rtols)
    mu = params.mu
    scale = 8.0 * math.pi**2 * mu * mu
    cells = lambda outer, inner: _radial_cells(profile, p1, p2, mu, outer, inner, many)
    results: list = [None] * n
    raw = None
    for level in range(min_level, max_level + 1):
        if raw is None:
            part = cells(quadrature.nodes(level), quadrature.nodes(level))
        else:
            fresh = quadrature.new_nodes(level)
            part = cells(quadrature.nodes(level), fresh)
            part += 0.5 * cells(fresh, quadrature.nodes(level - 1))
        prev, raw = raw, part if raw is None else 0.25 * raw + part
        total = scale * raw
        err = np.full(n, math.inf) if prev is None else np.abs(total - scale * prev)
        for i in range(n):
            if results[i] is not None:
                continue
            if not math.isfinite(total[i]):
                results[i] = quadrature.QuadResult(math.inf, math.inf, level, False)
            elif err[i] <= max(1e-300, rtols[i] * abs(total[i])):
                results[i] = quadrature.QuadResult(float(total[i]), float(err[i]), level, True)
        if all(r is not None for r in results):
            break
    results = [
        r or quadrature.QuadResult(float(total[i]), float(err[i]), level, False)
        for i, r in enumerate(results)
    ]
    return results if many else results[0]


# Mesh temporaries are built a block of rows at a time, each block at most
# this many cells (128 KiB of doubles, glibc's default mmap threshold), so
# that they are reused from the heap.  Whole-mesh temporaries are freshly
# mapped on every call, and their page faults cost more than the arithmetic:
# on a 2-vCPU Linux VM a level-6 project() took ~8 ms and ~3100 minor page
# faults whole-mesh, ~4.5 ms and ~500 faults in blocks.
_BLOCK_CELLS = 16384


def fibers(p_hi: np.ndarray, mu: float):
    """The mask of the r1 nodes (r1 = 1 - p_hi) whose fiber |u2| < c(r1) =
    arccos(r1^mu) has not collapsed to a point, and c at those nodes."""
    with np.errstate(divide="ignore"):
        c = np.arccos(np.exp(mu * np.log1p(-p_hi)))
    keep = c > 0.0  # collapsed fibers at r1 -> 1 contribute nothing
    return keep, c[keep]


def half_u2_blocks(c: np.ndarray, xhat: np.ndarray):
    """Yield (rows, u2 / 2) over blocks of rows of the mesh u2 = c x xhat
    of fiber half-widths c and inner nodes xhat in (-1, 1)."""
    step = max(1, _BLOCK_CELLS // len(xhat))
    for lo in range(0, len(c), step):
        rows = slice(lo, lo + step)
        yield rows, np.multiply.outer(0.5 * c[rows], xhat)


def _radial_cells(profile, p1, p2, mu, outer, inner, many) -> np.ndarray:
    """The weighted sums of the radial_moment integrands (without the
    factor 8 pi^2 mu^2) over the outer x inner product of two node sets;
    NaN for an integrand with a value that is not finite."""
    p_lo, p_hi, w = outer
    keep, c = fibers(p_hi, mu)
    r1 = p_lo[keep]
    q_lo, q_hi, v = inner
    blocks = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for rows, half_u2 in half_u2_blocks(c, q_lo - q_hi):
            integrands = profile(r1[rows, None], np.exp(half_u2))
            half_u2 *= p2
            factor = np.exp(half_u2, out=half_u2)
            blocks.append([
                np.einsum("ij,ij,j->i", np.broadcast_to(np.asarray(g, dtype=float), factor.shape),
                          factor, v)
                for g in (integrands if many else (integrands,))
            ])
        row = 2.0 * c * np.concatenate(blocks, axis=1)
        # rows whose profile underflowed to zero contribute nothing even
        # where the bare power diverges
        vals = np.where(row == 0.0, 0.0, r1 ** (p1 + 2.0 * mu - 1.0) * row)
        sums = vals @ w[keep]
    sums[~np.all(np.isfinite(vals), axis=1)] = math.nan
    return sums
