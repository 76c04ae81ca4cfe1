"""Geometry of the covering domain and its Reinhardt model, elementwise
over complex arrays.

The covering domain lives in C x (C \\ {0}) and is cut out by

    rho(z) = |z_1 + e^(i log|z_2|^2)|^2 - 1 < 0.

For mu > 1 it is biholomorphic (after quotienting by
(z_1, z_2) ~ (e^(2 pi mu i) z_1, e^(pi mu) z_2)) to the Reinhardt model

    D = { 0 < |w_1| < 1,  |log|w_2|^2| < arccos(|w_1|^mu) }.

This module provides membership tests, the defining function and its
boundary Levi form, the explicit forward/inverse maps with their branch
bookkeeping, the rotation isometries, the orthonormal frame and volume
density of the push-forward metric, and the explicit boundary weight

    delta0(w) = |w_1|^mu (cos(log|w_2|^2) - |w_1|^mu),

which is comparable to the boundary distance and satisfies
delta0(forward(z)) = -rho(z)/4 exactly.  delta0 is the canonical weight
everywhere in this package: it turns every downstream moment identity
into an equality with no unknown comparability constant.  A domain check
on an array of points fails if any point fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DomainParams",
    "ModelPoint",
    "CoverPoint",
    "FrameAt",
    "contains",
    "radial_bounds",
    "delta0",
    "rho_tilde",
    "levi_form_boundary",
    "forward_map",
    "inverse_map",
    "isometry_apply",
    "frame_at",
    "dw1_in_frame",
    "volume_density",
    "sample_interior",
    "sample_boundary_cover",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DomainParams:
    """The single real parameter of the family; requires 1 < mu < 2^53,
    where 1 - floor(mu) and 1 - mu are exact (see integrability_margin)."""

    mu: float

    def __post_init__(self):
        if not 1.0 < self.mu < 2.0**53:
            raise DomainError(f"domain family requires 1 < mu < 2^53, got {self.mu}")


@dataclass(frozen=True)
class ModelPoint:
    """A point w = (w1, w2) of the Reinhardt model, or same-shape arrays."""

    w1: complex | np.ndarray
    w2: complex | np.ndarray


@dataclass(frozen=True)
class CoverPoint:
    """A point z = (z1, z2) of the cover, z2 != 0, or same-shape arrays."""

    z1: complex | np.ndarray
    z2: complex | np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.z2) == 0):
            raise DomainError("cover points require z2 != 0")


@dataclass(frozen=True)
class FrameAt:
    """Orthonormal frame of the push-forward metric at model points.

    L1/L2 are coefficient vectors against (d/dw1, d/dw2); theta1/theta2
    against (dw1, dw2).  Each is stacked along its first axis, shape
    (2, *point shape).  theta^i(L_j) is the Kronecker delta.
    """

    point: ModelPoint
    L1: np.ndarray
    L2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray

    def duality_residual(self) -> np.ndarray:
        """Worst deviation of the pairing from the identity at each point,
        normalized entrywise by the pairing's own term magnitude.

        The theta2 row pairs two terms of size ~|w1|^(-mu)/4 that cancel
        exactly; near the inner edge an absolute criterion would only
        measure that cancellation's double-precision conditioning, so the
        deviation is scaled by max(1, sum of term moduli)."""
        thetas = np.stack([self.theta1, self.theta2])
        vectors = np.stack([self.L1, self.L2])
        pairing = np.einsum("ic...,jc...->...ij", thetas, vectors)
        scale = np.einsum("ic...,jc...->...ij", np.abs(thetas), np.abs(vectors))
        return np.max(np.abs(pairing - np.eye(2)) / np.maximum(1.0, scale), axis=(-2, -1))


def _require(ok, point, what: str) -> None:
    """Raise DomainError unless ok holds at every point; name the first that fails."""
    if not np.all(ok):
        i = np.flatnonzero(np.logical_not(ok))[0]
        coords = (np.broadcast_to(c, np.shape(ok)).flat[i].item() for c in vars(point).values())
        raise DomainError(f"{type(point)(*coords)} {what}")


def _phase(v):
    """e^(i log|v|^2), the rotation that straightens the cover's boundary."""
    return np.exp(1j * np.log(np.abs(v) ** 2))


def contains(params: DomainParams, w: ModelPoint):
    """Membership of w in the model domain (total predicate)."""
    r1 = np.abs(w.w1)
    with np.errstate(divide="ignore", invalid="ignore"):  # w2 = 0 gives |log 0| = inf
        fiber = np.abs(np.log(np.abs(w.w2) ** 2)) < np.arccos(r1**params.mu)
    return (0.0 < r1) & (r1 < 1.0) & fiber


def radial_bounds(params: DomainParams, r1):
    """The |w2| interval (a, b) of the model's fiber over |w1| = r1.

    a(r) = exp(-arccos(r^mu)/2), b(r) = 1/a(r).
    """
    if not np.all((0.0 < r1) & (r1 < 1.0)):
        raise DomainError(f"need 0 < r1 < 1, got {r1}")
    half = 0.5 * np.arccos(r1**params.mu)
    return np.exp(-half), np.exp(half)


def delta0(params: DomainParams, w: ModelPoint):
    """Explicit boundary weight |w1|^mu (cos(log|w2|^2) - |w1|^mu).

    Strictly positive on the model domain, zero on its boundary.
    """
    _require(contains(params, w), w, "is not in the model domain")
    t = np.abs(w.w1) ** params.mu
    return t * (np.cos(np.log(np.abs(w.w2) ** 2)) - t)


def rho_tilde(z: CoverPoint):
    """Defining function |z1 + e^(i log|z2|^2)|^2 - 1 of the cover domain,
    in the expanded form |z1|^2 + 2 Re(z1 e^(-i log|z2|^2)).

    The expanded form has no cancellation, so its sign is right for every
    z1: written as |z1 + e^(i phi)|^2 - 1, it rounds to 0 or a wrong sign
    once |z1| ~ 1e-16, which large mu reaches (|z1| = 2 |w1|^mu).
    """
    return np.abs(z.z1) ** 2 + 2.0 * (z.z1 * np.conj(_phase(z.z2))).real


def levi_form_boundary(z: CoverPoint):
    """Levi form of the defining function along the complex tangent at
    boundary points: 2 (-x) (rho(z) + 1) / |z2|^2 with
    x = Re(z1 e^(-i log|z2|^2)).

    Nonnegative on the boundary (pseudoconvexity); zero exactly on the
    torus x = 0.  Points with |rho| > 1e-10 are refused as off the boundary.
    """
    r = rho_tilde(z)
    _require(np.abs(r) <= 1e-10, z, "is not a boundary point")
    x = (z.z1 * np.conj(_phase(z.z2))).real
    return 2.0 * (-x) * (r + 1.0) / np.abs(z.z2) ** 2


def _log_branch(t, zeta):
    """The unique logarithm L of zeta with 0 <= Im L - log t^2 < 2 pi."""
    if np.any(zeta == 0):
        raise DomainError("log branch undefined at 0")
    if not np.all(t > 0):
        raise DomainError(f"branch parameter must be positive, got {t}")
    target = 2.0 * np.log(t)
    L = np.log(np.asarray(zeta, dtype=complex))
    im = L.imag + _TWO_PI * np.ceil((target - L.imag) / _TWO_PI)
    # one-step nudge against ceil rounding at the window edges
    im = np.where(im - target < 0.0, im + _TWO_PI, im)
    im = np.where(im - target >= _TWO_PI, im - _TWO_PI, im)
    return L.real + 1j * im


def forward_map(params: DomainParams, z: CoverPoint) -> ModelPoint:
    """The biholomorphism from the cover domain onto the model.

    w1 = exp((log^{|z2|}(z1) - log 2)/mu),
    w2 = z2 exp((pi + i log^{|z2|}(z1))/2).
    """
    _require(rho_tilde(z) < 0.0, z, "is not inside the cover domain")
    L = _log_branch(np.abs(z.z2), z.z1)
    w1 = np.exp((L - math.log(2.0)) / params.mu)
    w2 = z.z2 * np.exp(0.5 * (math.pi + 1j * L))
    return ModelPoint(w1, w2)


def inverse_map(params: DomainParams, w: ModelPoint, k=0) -> CoverPoint:
    """The k-th cover representative of the model point w.

    z1 = 2 exp(mu Log w1 + 2 pi mu k i),
    z2 = e^(pi mu k) w2 exp(-(pi + i (mu Log w1 + log 2))/2),

    with Log the principal branch.  Consecutive k differ by the deck
    transformation (z1, z2) -> (e^(2 pi mu i) z1, e^(pi mu) z2).  Raises
    DomainError where a representative does not fit in a double (z2 = 0
    or a non-finite coordinate, e.g. e^(2 pi mu) overflows for mu >~ 113).
    """
    _require(contains(params, w), w, "is not in the model domain")
    mu = params.mu
    L = np.log(np.asarray(w.w1, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = 2.0 * np.exp(mu * L + 2j * math.pi * mu * k)
        z2 = np.exp(math.pi * mu * k) * w.w2 * np.exp(
            -0.5 * (math.pi + 1j * (mu * L + math.log(2.0)))
        )
    if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2) & (z2 != 0))):
        raise DomainError(f"a cover representative at mu = {mu} overflows a double")
    return CoverPoint(z1, z2)


def isometry_apply(params: DomainParams, theta1, theta2, z: CoverPoint) -> CoverPoint:
    """The rotation isometry (z1, z2) -> (e^(i mu t1) z1, e^(mu t1/2 + i t2) z2).

    Its push-forward through the biholomorphism rotates the model
    coordinates independently by e^(i t1) and e^(i t2).
    """
    mu = params.mu
    return CoverPoint(
        np.exp(1j * mu * theta1) * z.z1,
        np.exp(0.5 * mu * theta1 + 1j * theta2) * z.z2,
    )


def frame_at(params: DomainParams, w: ModelPoint) -> FrameAt:
    """Orthonormal frame (L1, L2; theta1, theta2) at w.

    L1 = -w1 e^(i log|w2|^2)/(2 mu |w1|^mu) d/dw1
         - i w2 e^(i log|w2|^2)/(4 |w1|^mu) d/dw2,
    L2 = w2 d/dw2,
    theta1 = -2 mu |w1|^mu e^(-i log|w2|^2)/w1 dw1,
    theta2 = -i mu/(2 w1) dw1 + dw2/w2.
    """
    _require((w.w1 != 0) & (w.w2 != 0), w, "is on an axis, where the frame is singular")
    mu = params.mu
    r1mu = np.abs(w.w1) ** mu
    phase = _phase(w.w2)
    L1 = np.stack([-w.w1 * phase / (2.0 * mu * r1mu), -1j * w.w2 * phase / (4.0 * r1mu)])
    L2 = np.stack([0.0 * w.w2, w.w2])
    theta1 = np.stack([-2.0 * mu * r1mu / (w.w1 * phase), 0.0 * w.w1])
    theta2 = np.stack([-0.5j * mu / w.w1, 1.0 / w.w2])
    return FrameAt(w, L1, L2, theta1, theta2)


def dw1_in_frame(params: DomainParams, w: ModelPoint):
    """Coefficients (c1, c2) with dw1 = c1 theta1 + c2 theta2 at w.

    By duality c_i = dw1(L_i): c1 = -w1 e^(i log|w2|^2)/(2 mu |w1|^mu),  c2 = 0.
    """
    frame = frame_at(params, w)
    return frame.L1[0], frame.L2[0]


def volume_density(params: DomainParams, w: ModelPoint):
    """Density 4 mu^2 |w1|^(2 mu - 2)/|w2|^2 of the push-forward volume
    against the Euclidean one."""
    _require((w.w1 != 0) & (w.w2 != 0), w, "is on an axis, where the density is singular")
    mu = params.mu
    return 4.0 * mu * mu * np.abs(w.w1) ** (2.0 * mu - 2.0) / np.abs(w.w2) ** 2


def sample_interior(params: DomainParams, n: int, rng: np.random.Generator) -> ModelPoint:
    """n seeded interior points of the model domain, spread over the full
    radial range and up to 99% of each fiber's height."""
    r1 = rng.uniform(0.02, 0.98, size=n)
    frac = rng.uniform(-0.99, 0.99, size=n)
    u2 = frac * np.arccos(r1**params.mu)
    phi1 = rng.uniform(0.0, _TWO_PI, size=n)
    phi2 = rng.uniform(0.0, _TWO_PI, size=n)
    return ModelPoint(r1 * np.exp(1j * phi1), np.exp(0.5 * u2) * np.exp(1j * phi2))


def sample_boundary_cover(n: int, rng: np.random.Generator) -> CoverPoint:
    """n seeded boundary points of the cover domain.

    The boundary is parameterized by x in [-2, 0] via x^2 + y^2 + 2x = 0
    and z1 = (x + i y) e^(i log|z2|^2).  Every eighth sample sits exactly
    on the Levi-flat torus x = 0.
    """
    x = rng.uniform(-2.0, 0.0, size=n)
    x[::8] = 0.0
    y = np.sqrt(np.maximum(-x * (x + 2.0), 0.0))
    y = np.where(rng.uniform(size=n) < 0.5, -y, y)
    z2 = np.exp(0.5 * rng.uniform(-2.0, 2.0, size=n) + 1j * rng.uniform(0.0, _TWO_PI, size=n))
    return CoverPoint((x + 1j * y) * _phase(z2), z2)
