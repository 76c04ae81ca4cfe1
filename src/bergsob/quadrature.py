"""Tanh-sinh (double-exponential) quadrature on a finite interval.

Nodes cluster doubly-exponentially at the endpoints, so integrands with
integrable algebraic endpoint singularities (t^(a-1), (1-t)^(b-1), ...)
converge at nearly the rate of analytic integrands.  Integrands receive,
besides the node position, its distance to each endpoint computed in a
cancellation-free form, so singular factors keep full relative accuracy
arbitrarily close to the corners.

The rules nest (Takahasi and Mori 1974): the nodes of level L at even
k, where t = k 2^-L, are exactly the nodes of level L - 1, with half the
weight (bit for bit, except that a subnormal weight may differ by one
subnormal step).  ``integrate`` therefore evaluates the integrand only
at the odd-k nodes of each refinement and reuses the previous level's
sum, so a run to level L costs one evaluation per node of level L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadResult",
    "nodes",
    "new_nodes",
    "integrate",
    "quad",
]

# |t| past this point the transformed weights / endpoint offsets underflow;
# nodes() masks the handful of stragglers that still do.
_T_CUTOFF = 6.2
_MIN_LEVEL = 5  # integrate() refines from here up to max_level
_MAX_LEVEL = 11


class QuadratureError(RuntimeError):
    """Quadrature did not reach the requested tolerance."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    level: int
    converged: bool


def _rule(level: int):
    """The kept ``(k, p_lo, p_hi, w)`` of level ``level``; see :func:`nodes`."""
    h = 2.0 ** (-level)
    kmax = int(_T_CUTOFF / h)
    k = np.arange(-kmax, kmax + 1)
    t = h * k
    v = 0.5 * math.pi * np.sinh(t)
    with np.errstate(over="ignore"):
        p_lo = 1.0 / (1.0 + np.exp(-2.0 * v))
        p_hi = 1.0 / (1.0 + np.exp(2.0 * v))
        w = (0.25 * math.pi * h) * np.cosh(t) / np.cosh(v) ** 2
    keep = (p_lo > 0.0) & (p_hi > 0.0) & (w > 0.0)
    return k[keep], p_lo[keep], p_hi[keep], w[keep]


def _frozen(arrays):
    out = tuple(arrays)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def nodes(level: int):
    """Tanh-sinh rule at trapezoid step h = 2**-level on (-1, 1).

    Returns ``(p_lo, p_hi, w)`` where ``p_lo = (1+x)/2`` and
    ``p_hi = (1-x)/2`` are the fractional offsets of each node from the
    left/right endpoint (both evaluated without cancellation) and ``w``
    are weights normalized so that for any finite interval
    ``∫_a^b f ≈ (b-a) Σ w_k f(a + (b-a) p_lo_k)``.
    """
    return _frozen(_rule(level)[1:])


@lru_cache(maxsize=None)
def new_nodes(level: int):
    """The nodes of ``level`` that level - 1 lacks: those at odd k.

    Selected by the parity of k, not by position, since the kept range
    k = -K..K can end on an odd k (level 6 keeps k = +-391)."""
    k, *rule = _rule(level)
    odd = k % 2 == 1
    return _frozen(arr[odd] for arr in rule)


def _prepare(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)) or not b > a:
        raise ValueError(f"invalid interval ({a}, {b})")
    return b - a


def integrate(
    f: Callable,
    a: float,
    b: float,
    *,
    rtol: float = 1e-12,
    max_level: int = _MAX_LEVEL,
) -> QuadResult:
    """Adaptively integrate ``f`` over (a, b).

    ``f(x, da, db)`` must accept numpy arrays; ``da = x - a`` and
    ``db = b - x`` are supplied separately for endpoint-singular factors.
    From level _MIN_LEVEL on, the level is refined (h halved) until two
    successive evaluations agree to ``max(1e-300, rtol*|I|)``; the
    difference is reported as the error estimate.  Each refinement
    evaluates ``f`` only at the new (odd-k) nodes and adds their sum to
    half the previous level's sum.  The returned result carries
    ``converged=False`` instead of raising, so callers can use
    non-convergence as a divergence signal.
    """
    span = _prepare(a, b)
    prev = math.nan
    total = math.nan
    err = math.inf
    level = _MIN_LEVEL
    for level in range(_MIN_LEVEL, max_level + 1):
        p_lo, p_hi, w = nodes(level) if level == _MIN_LEVEL else new_nodes(level)
        da = span * p_lo
        db = span * p_hi
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = np.asarray(f(a + da, da, db), dtype=float)
        if not np.all(np.isfinite(vals)):
            return QuadResult(math.inf, math.inf, level, False)
        part = span * float(w @ vals)
        total = part if level == _MIN_LEVEL else 0.5 * prev + part
        if level > _MIN_LEVEL:
            err = abs(total - prev)
            if err <= max(1e-300, rtol * abs(total)):
                return QuadResult(total, err, level, True)
        prev = total
    return QuadResult(total, err, level, False)


def quad(f: Callable, a: float, b: float, **kw) -> QuadResult:
    """Like :func:`integrate` but raises QuadratureError unless it converged."""
    res = integrate(f, a, b, **kw)
    if not res.converged:
        raise QuadratureError(
            f"no convergence on ({a}, {b}): value={res.value!r}, err={res.err_estimate!r}"
        )
    return res

