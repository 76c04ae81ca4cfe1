"""Tanh-sinh (double-exponential) quadrature on a finite interval.

Nodes cluster doubly-exponentially at the endpoints, so integrands with
integrable algebraic endpoint singularities (t^(a-1), (1-t)^(b-1), ...)
converge at nearly the rate of analytic integrands.  Integrands receive
each node's distance to each endpoint, computed in a cancellation-free
form, so singular factors keep full relative accuracy arbitrarily close
to the corners.

The rules nest (Takahasi and Mori 1974): the nodes of level L at even
k, where t = k 2^-L, are exactly the nodes of level L - 1, with half the
weight (bit for bit, except that a subnormal weight may differ by one
subnormal step).  ``integrate`` therefore evaluates the integrand only
at the odd-k nodes of each refinement and reuses the previous level's
sum, so a run to level L costs one evaluation per node of level L.

``integrate`` integrates a stack of integrands, one row per element of
its endpoints (scalar endpoints are a one-row stack), in one level loop:
each row settles at its own first level that meets the tolerance, and
only the rows still open are evaluated at the next level.  Each row is
summed on its own, so its value, error estimate and level are those of
its one-row call, bit for bit.  A row that does not settle raises
``QuadratureError``; ``unsettled`` is the one settle test, which the
nested rules of ``measure`` share.
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
    "unsettled",
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
    """Values, error estimates, levels and settle flags of a stack of
    integrals: arrays from ``integrate`` (0-d for scalar endpoints, one
    level and converged for the whole stack) and from measure's loop in r1
    (one level and flag per element), which measure.radial_moment returns
    as it is."""

    value: np.ndarray
    err_estimate: np.ndarray
    level: np.ndarray | int
    converged: np.ndarray | bool


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
    """The widths b - a, broadcast; ValueError names the first row whose
    width is not finite and positive (as for a non-finite end)."""
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.subtract(b, a, dtype=float)
    bad = ~((span > 0.0) & (span < math.inf))
    if bad.any():
        lo, hi = _flat(a, b)
        i = int(bad.ravel().argmax())
        raise ValueError(f"invalid interval ({lo[i]}, {hi[i]})")
    return span


def _flat(*arrays):
    arrays = (np.asarray(v, dtype=float) for v in arrays)
    return [arr.ravel() for arr in np.broadcast_arrays(*arrays)]


def unsettled(value, err, rtol) -> np.ndarray:
    """Where the last two levels differ by more than max(1e-300, rtol*|I|),
    rtol broadcast; false at an infinite or nan I, which closes its row
    unconverged."""
    return err > np.maximum(rtol * np.abs(value), 1e-300)


def integrate(
    f: Callable,
    a,
    b,
    *,
    rtol: float = _RTOL,
    max_level: int = _MAX_LEVEL,
) -> QuadResult:
    """Adaptively integrate a stack of integrands, one row per element of
    a and b broadcast together, row i over (a[i], b[i]).

    ``f(rows, da, db)`` receives the flat indices of the open rows as an
    (open, 1) column and the distances da = x - a[rows] and db = b[rows] - x
    of shape (open, nodes), which endpoint-singular factors use directly.
    From level _MIN_LEVEL on, a row's level is refined (h halved) until two
    successive evaluations agree to ``max(1e-300, rtol*|I|)`` (``unsettled``);
    the difference is reported as its error estimate.  Each refinement
    evaluates ``f`` only at the new (odd-k) nodes of the open rows and adds
    their sum to half the previous level's sum.

    Returns value and error arrays of the broadcast shape (0-d for scalar
    endpoints) and the last level evaluated.  Raises QuadratureError,
    naming the first row that did not settle by ``max_level`` or whose sum
    is not finite.
    """
    span = _prepare(a, b)
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
            da, db = width[:, None] * p_lo, width[:, None] * p_hi
            vals = f(rows[:, None], da, db)
            # each row's own sum (einsum, not a BLAS product, whose row sums
            # change with the stack around them), the same in a stack of any size
            total = np.einsum("...j,j->...", np.asarray(vals, dtype=float), w) * width
            diff = math.inf
            if level > _MIN_LEVEL:
                prev = value[rows]
                total += 0.5 * prev
                err[rows] = diff = np.abs(total - prev)
            value[rows] = total
            rows = rows[unsettled(total, diff, rtol)]
            if not rows.size:
                break
    failed = ~np.isfinite(value)
    value[failed] = err[failed] = math.inf
    failed[rows] = True
    if failed.any():
        i = int(failed.argmax())
        lo, hi = _flat(a, b)
        raise QuadratureError(f"no convergence on ({lo[i]}, {hi[i]}): "
                              f"value={float(value[i])!r}, err={float(err[i])!r}")
    return QuadResult(value.reshape(span.shape), err.reshape(span.shape), level, True)
