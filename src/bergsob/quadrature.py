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

``integrate`` takes a stack of integrands as readily as one: with array
endpoints it runs one level loop over all rows, each row settles at its
own first level that meets the tolerance, and only the rows still open
are evaluated at the next level.  Each row is summed on its own, so its
value, error estimate and level are those of the one-row call, bit for
bit.
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
_RTOL = 1e-12  # integrate()'s default relative tolerance


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


def _prepare(a, b):
    """The widths b - a, broadcast; ValueError names the first bad interval."""
    span = np.subtract(b, a, dtype=float)
    if not ((span > 0.0) & (span < math.inf)).all():  # also false for a non-finite end
        lo, hi = _flat(a, b)
        i = int(np.argmax(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo))))
        raise ValueError(f"invalid interval ({lo[i]}, {hi[i]})")
    return span


def _flat(*arrays):
    arrays = (np.asarray(v, dtype=float) for v in arrays)
    return [arr.ravel() for arr in np.broadcast_arrays(*arrays)]


def _open(value, err, rtol: float) -> np.ndarray:
    """Where the last two levels differ by more than max(1e-300, rtol*|I|);
    false at an infinite or nan I, which closes its row unconverged."""
    return err > np.maximum(rtol * np.abs(value), 1e-300)


def integrate(
    f: Callable,
    a,
    b,
    *,
    rtol: float = _RTOL,
    max_level: int = _MAX_LEVEL,
) -> QuadResult:
    """Adaptively integrate ``f`` over (a, b), or a stack of integrands,
    one per element of a and b broadcast together.

    ``f(x, da, db)`` must accept numpy arrays; ``da = x - a`` and
    ``db = b - x`` are supplied separately for endpoint-singular factors.
    From level _MIN_LEVEL on, the level is refined (h halved) until two
    successive evaluations agree to ``max(1e-300, rtol*|I|)``; the
    difference is reported as the error estimate.  Each refinement
    evaluates ``f`` only at the new (odd-k) nodes and adds their sum to
    half the previous level's sum.  The returned result carries
    ``converged=False`` instead of raising, so callers can use
    non-convergence as a divergence signal.

    A stack settles row by row: a row stops at its first level that meets
    ``rtol``, or as (inf, inf) at a non-finite sum, and only open rows are
    evaluated again.  ``f`` receives the flat indices of those rows as an
    (open, 1) column in place of x (x = a[rows] + da), and da, db of shape
    (open, nodes).  The result holds value and error arrays of the
    broadcast shape, the last level evaluated, and ``converged`` when all
    rows converged.  A scalar (a, b) is the one-row case, with 1-d arrays.
    """
    span = _prepare(a, b)
    stacked = span.ndim > 0
    widths = span.reshape(-1)
    value, err = np.empty(widths.size), np.empty(widths.size)
    value.fill(math.nan)
    err.fill(math.inf)
    rows = np.arange(widths.size)  # the open rows
    level = _MIN_LEVEL
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for level in range(_MIN_LEVEL, max_level + 1):
            p_lo, p_hi, w = nodes(level) if level == _MIN_LEVEL else new_nodes(level)
            width = widths[rows]
            if stacked:
                da, db = width[:, None] * p_lo, width[:, None] * p_hi
                vals = f(rows[:, None], da, db)
            else:
                da, db = width * p_lo, width * p_hi
                vals = f(a + da, da, db)
            # each row's own sum (einsum, not a BLAS product, whose row sums
            # change with the stack around them), the same in a stack of any size
            total = np.einsum("...j,j->...", np.asarray(vals, dtype=float), w) * width
            diff = math.inf
            if level > _MIN_LEVEL:
                prev = value[rows]
                total += 0.5 * prev
                err[rows] = diff = np.abs(total - prev)
            value[rows] = total
            rows = rows[_open(total, diff, rtol)]
            if not rows.size:
                break
    converged = np.isfinite(value)
    value[~converged] = err[~converged] = math.inf
    converged[rows] = False
    if not stacked:
        return QuadResult(float(value[0]), float(err[0]), level, bool(converged[0]))
    return QuadResult(value.reshape(span.shape), err.reshape(span.shape), level,
                      bool(converged.all()))


def quad(f: Callable, a, b, **kw) -> QuadResult:
    """Like :func:`integrate` but raises QuadratureError unless every row
    converged, naming the first row that did not."""
    res = integrate(f, a, b, **kw)
    if not res.converged:
        lo, hi = _flat(a, b)
        value, err = np.ravel(res.value), np.ravel(res.err_estimate)
        i = int(np.argmax(~np.isfinite(value) | _open(value, err, kw.get("rtol", _RTOL))))
        raise QuadratureError(f"no convergence on ({lo[i]}, {hi[i]}): "
                              f"value={float(value[i])!r}, err={float(err[i])!r}")
    return res
