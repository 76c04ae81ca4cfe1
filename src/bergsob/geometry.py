"""Pointwise geometry of the covering domain and its Reinhardt model.

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
into an equality with no unknown comparability constant.
"""

from __future__ import annotations

import cmath
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
    "rho_tilde_expanded",
    "levi_form_boundary",
    "log_branch",
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
    """The single real parameter of the family; requires finite mu > 1."""

    mu: float

    def __post_init__(self):
        if not (self.mu > 1.0 and math.isfinite(self.mu)):
            raise DomainError(f"domain family requires finite mu > 1, got {self.mu}")


@dataclass(frozen=True)
class ModelPoint:
    """A point w = (w1, w2) of the Reinhardt model."""

    w1: complex
    w2: complex


@dataclass(frozen=True)
class CoverPoint:
    """A point z = (z1, z2) of the cover, z2 != 0."""

    z1: complex
    z2: complex

    def __post_init__(self):
        if self.z2 == 0:
            raise DomainError("cover points require z2 != 0")


@dataclass(frozen=True)
class FrameAt:
    """Orthonormal frame of the push-forward metric at a model point.

    L1/L2 are coefficient vectors against (d/dw1, d/dw2); theta1/theta2
    against (dw1, dw2).  theta^i(L_j) is the Kronecker delta.
    """

    point: ModelPoint
    L1: np.ndarray
    L2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray

    def duality_residual(self) -> float:
        """Worst deviation of the pairing from the identity, normalized
        entrywise by the pairing's own term magnitude.

        The theta2 row pairs two terms of size ~|w1|^(-mu)/4 that cancel
        exactly; near the inner edge an absolute criterion would only
        measure that cancellation's double-precision conditioning, so the
        deviation is scaled by max(1, sum of term moduli)."""
        thetas = np.vstack([self.theta1, self.theta2])
        vectors = np.vstack([self.L1, self.L2])
        pairing = thetas @ vectors.T
        scale = np.abs(thetas) @ np.abs(vectors).T
        return float(
            np.max(np.abs(pairing - np.eye(2)) / np.maximum(1.0, scale))
        )


def contains(params: DomainParams, w: ModelPoint) -> bool:
    """Membership of w in the model domain (total predicate)."""
    r1 = abs(w.w1)
    if not 0.0 < r1 < 1.0 or w.w2 == 0:
        return False
    return abs(math.log(abs(w.w2) ** 2)) < math.acos(r1**params.mu)


def radial_bounds(params: DomainParams, r1: float) -> tuple[float, float]:
    """The |w2| interval (a, b) of the model's fiber over |w1| = r1.

    a(r) = exp(-arccos(r^mu)/2), b(r) = 1/a(r).
    """
    if not 0.0 < r1 < 1.0:
        raise DomainError(f"need 0 < r1 < 1, got {r1}")
    half = 0.5 * math.acos(r1**params.mu)
    return math.exp(-half), math.exp(half)


def delta0(params: DomainParams, w: ModelPoint) -> float:
    """Explicit boundary weight |w1|^mu (cos(log|w2|^2) - |w1|^mu).

    Strictly positive on the model domain, zero on its boundary.
    """
    if not contains(params, w):
        raise DomainError(f"{w} is not in the model domain")
    t = abs(w.w1) ** params.mu
    return t * (math.cos(math.log(abs(w.w2) ** 2)) - t)


def rho_tilde(z: CoverPoint) -> float:
    """Defining function |z1 + e^(i log|z2|^2)|^2 - 1 of the cover domain."""
    return abs(z.z1 + cmath.exp(1j * math.log(abs(z.z2) ** 2))) ** 2 - 1.0


def rho_tilde_expanded(z: CoverPoint) -> float:
    """Equivalent expanded form |z1|^2 + 2 Re(z1 e^(-i log|z2|^2))."""
    phase = cmath.exp(-1j * math.log(abs(z.z2) ** 2))
    return abs(z.z1) ** 2 + 2.0 * (z.z1 * phase).real


def levi_form_boundary(z: CoverPoint, *, boundary_tol: float = 1e-10) -> float:
    """Levi form of the defining function along the complex tangent at a
    boundary point: 2 (-x) (rho(z) + 1) / |z2|^2 with
    x = Re(z1 e^(-i log|z2|^2)).

    Nonnegative on the boundary (pseudoconvexity); zero exactly on the
    torus x = 0.
    """
    r = rho_tilde(z)
    if abs(r) > boundary_tol:
        raise DomainError(f"not a boundary point: rho = {r}")
    x = (z.z1 * cmath.exp(-1j * math.log(abs(z.z2) ** 2))).real
    return 2.0 * (-x) * (r + 1.0) / abs(z.z2) ** 2


def log_branch(t: float, zeta: complex) -> complex:
    """The unique logarithm L of zeta with 0 <= Im L - log t^2 < 2 pi."""
    if zeta == 0:
        raise DomainError("log branch undefined at 0")
    if not t > 0:
        raise DomainError(f"branch parameter must be positive, got {t}")
    target = 2.0 * math.log(t)
    L = cmath.log(zeta)
    n = math.ceil((target - L.imag) / _TWO_PI)
    im = L.imag + _TWO_PI * n
    # one-step nudge against ceil rounding at the window edges
    if im - target < 0.0:
        im += _TWO_PI
    elif im - target >= _TWO_PI:
        im -= _TWO_PI
    return complex(L.real, im)


def forward_map(params: DomainParams, z: CoverPoint) -> ModelPoint:
    """The biholomorphism from the cover domain onto the model.

    w1 = exp((log^{|z2|}(z1) - log 2)/mu),
    w2 = z2 exp((pi + i log^{|z2|}(z1))/2).
    """
    if not rho_tilde(z) < 0.0:
        raise DomainError(f"{z} is not inside the cover domain")
    L = log_branch(abs(z.z2), z.z1)
    w1 = cmath.exp((L - math.log(2.0)) / params.mu)
    w2 = z.z2 * cmath.exp(0.5 * (math.pi + 1j * L))
    return ModelPoint(w1, w2)


def inverse_map(params: DomainParams, w: ModelPoint, k: int = 0) -> CoverPoint:
    """The k-th cover representative of the model point w.

    z1 = 2 exp(mu Log w1 + 2 pi mu k i),
    z2 = e^(pi mu k) w2 exp(-(pi + i (mu Log w1 + log 2))/2),

    with Log the principal branch.  Consecutive k differ by the deck
    transformation (z1, z2) -> (e^(2 pi mu i) z1, e^(pi mu) z2).
    """
    if not contains(params, w):
        raise DomainError(f"{w} is not in the model domain")
    mu = params.mu
    L = cmath.log(w.w1)
    z1 = 2.0 * cmath.exp(mu * L + 2j * math.pi * mu * k)
    z2 = math.exp(math.pi * mu * k) * w.w2 * cmath.exp(
        -0.5 * (math.pi + 1j * (mu * L + math.log(2.0)))
    )
    return CoverPoint(z1, z2)


def isometry_apply(
    params: DomainParams, theta1: float, theta2: float, z: CoverPoint
) -> CoverPoint:
    """The rotation isometry (z1, z2) -> (e^(i mu t1) z1, e^(mu t1/2 + i t2) z2).

    Its push-forward through the biholomorphism rotates the model
    coordinates independently by e^(i t1) and e^(i t2).
    """
    mu = params.mu
    return CoverPoint(
        cmath.exp(1j * mu * theta1) * z.z1,
        cmath.exp(0.5 * mu * theta1 + 1j * theta2) * z.z2,
    )


def _log_abs_sq(w2: complex) -> float:
    return math.log(abs(w2) ** 2)


def frame_at(params: DomainParams, w: ModelPoint) -> FrameAt:
    """Orthonormal frame (L1, L2; theta1, theta2) at w.

    L1 = -w1 e^(i log|w2|^2)/(2 mu |w1|^mu) d/dw1
         - i w2 e^(i log|w2|^2)/(4 |w1|^mu) d/dw2,
    L2 = w2 d/dw2,
    theta1 = -2 mu |w1|^mu e^(-i log|w2|^2)/w1 dw1,
    theta2 = -i mu/(2 w1) dw1 + dw2/w2.
    """
    if w.w1 == 0 or w.w2 == 0:
        raise DomainError("frame is singular on the coordinate axes")
    mu = params.mu
    r1mu = abs(w.w1) ** mu
    phase = cmath.exp(1j * _log_abs_sq(w.w2))
    L1 = np.array(
        [-w.w1 * phase / (2.0 * mu * r1mu), -1j * w.w2 * phase / (4.0 * r1mu)]
    )
    L2 = np.array([0.0j, w.w2])
    theta1 = np.array([-2.0 * mu * r1mu / (w.w1 * phase), 0.0j])
    theta2 = np.array([-0.5j * mu / w.w1, 1.0 / w.w2])
    return FrameAt(w, L1, L2, theta1, theta2)


def dw1_in_frame(params: DomainParams, w: ModelPoint) -> tuple[complex, complex]:
    """Coefficients (c1, c2) with dw1 = c1 theta1 + c2 theta2 at w.

    c1 = -w1 e^(i log|w2|^2)/(2 mu |w1|^mu),  c2 = 0.
    """
    if w.w1 == 0 or w.w2 == 0:
        raise DomainError("frame is singular on the coordinate axes")
    mu = params.mu
    c1 = -w.w1 * cmath.exp(1j * _log_abs_sq(w.w2)) / (2.0 * mu * abs(w.w1) ** mu)
    return c1, 0.0j


def volume_density(params: DomainParams, w: ModelPoint) -> float:
    """Density 4 mu^2 |w1|^(2 mu - 2)/|w2|^2 of the push-forward volume
    against the Euclidean one."""
    if w.w1 == 0 or w.w2 == 0:
        raise DomainError("volume density is singular on the coordinate axes")
    mu = params.mu
    return 4.0 * mu * mu * abs(w.w1) ** (2.0 * mu - 2.0) / abs(w.w2) ** 2


def sample_interior(
    params: DomainParams, n: int, rng: np.random.Generator
) -> list[ModelPoint]:
    """n seeded interior points of the model domain, spread over the full
    radial range and up to 99% of each fiber's height."""
    mu = params.mu
    r1 = rng.uniform(0.02, 0.98, size=n)
    frac = rng.uniform(-0.99, 0.99, size=n)
    u2 = frac * np.arccos(r1**mu)
    phi1 = rng.uniform(0.0, _TWO_PI, size=n)
    phi2 = rng.uniform(0.0, _TWO_PI, size=n)
    w1 = r1 * np.exp(1j * phi1)
    w2 = np.exp(0.5 * u2) * np.exp(1j * phi2)
    return [ModelPoint(complex(a), complex(b)) for a, b in zip(w1, w2)]


def sample_boundary_cover(
    n: int, rng: np.random.Generator, *, include_torus: bool = True
) -> list[CoverPoint]:
    """n seeded boundary points of the cover domain.

    The boundary is parameterized by x in [-2, 0] via x^2 + y^2 + 2x = 0
    and z1 = (x + i y) e^(i log|z2|^2).  When include_torus is set, every
    eighth sample sits exactly on the Levi-flat torus x = 0.
    """
    pts = []
    for i in range(n):
        x = 0.0 if include_torus and i % 8 == 0 else rng.uniform(-2.0, 0.0)
        y = math.sqrt(max(-x * (x + 2.0), 0.0))
        if rng.uniform() < 0.5:
            y = -y
        s2 = rng.uniform(-2.0, 2.0)
        z2 = math.exp(0.5 * s2) * cmath.exp(1j * rng.uniform(0.0, _TWO_PI))
        z1 = (x + 1j * y) * cmath.exp(1j * math.log(abs(z2) ** 2))
        pts.append(CoverPoint(z1, z2))
    return pts
