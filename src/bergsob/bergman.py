"""Orthonormal bases of the weighted Bergman spaces and the projection
calculus for radially decomposable inputs.

For weight exponent s < 1/2 the Bergman space of functions is spanned by
the Laurent monomials w1^j w2^k with j > (s-1) mu, normalized by the
moments lam(j, k, s); for (1,0)-forms the basis splits into the
dw1-family 2 mu w1^(j-1) w2^k dw1 with j > s mu (squared norm
lam(j - mu, k, s)) and the theta2-family w1^j w2^k theta2 with
j > (s-1) mu; the (2,0)-forms take the dw1-family wedged with theta2.

Because rotations in each variable are isometries, a term
g(|w1|) w1^a w2^b pairs nonzero with exactly one basis element, so
projections of finite sums of such terms are exact finite sums: the
coefficient against each (unnormalized) basis element is a ratio of one
radial moment (measure.radial_moment, a 1-d rule in |w1| over the
closed-form fiber integral in |w2|) to one closed-form moment.  Both
numerator and denominator are retained on the result for error
propagation.  One radial_moment pass integrates every term of an input,
each term's integrands settled at their own level.

A Gram table (gram_matrix) may mix form degrees: elements of different
degrees lie in orthogonal spaces, so the entries between different
(p, component) pairs are exact zeros, and the degrees share one
measure.mesh_moments table of moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from . import measure
from .errors import DomainError, NonIntegrableTermError
from .geometry import DomainParams, ModelPoint, contains

__all__ = [
    "Component",
    "FAMILIES",
    "BasisIndex",
    "RadialTerm",
    "RadialTermFunction",
    "ProjectionResult",
    "KernelValue",
    "basis_norm_sq",
    "membership_min_j",
    "basis_indices",
    "project",
    "kernel_eval",
    "gram_matrix",
]


class Component(str, Enum):
    """Which frame component a basis element or input term lives in.

    FUNCTION is the single p = 0 component; THETA2 and DW1 are the two
    p = 1 families; p = 2 has only the DW1 (wedge theta2) family.
    """

    FUNCTION = "function"
    THETA2 = "theta2"
    DW1 = "dw1"


# the components of each form degree p, in the order in which they are enumerated
FAMILIES = {0: (Component.FUNCTION,), 1: (Component.THETA2, Component.DW1), 2: (Component.DW1,)}


@dataclass(frozen=True)
class BasisIndex:
    j: int
    k: int
    p: int
    component: Component

    def __post_init__(self):
        if self.component not in FAMILIES.get(self.p, ()):
            raise DomainError(f"component {self.component} invalid for p = {self.p}")

    def moment_x(self, params: DomainParams) -> float:
        """The w1-moment exponent of this element's squared norm."""
        if self.component is Component.DW1:
            return self.j - params.mu
        return float(self.j)

    def admissible(self, s: float, params: DomainParams) -> bool:
        """Membership in the weight-s Bergman space, j > s mu (dw1) resp.
        j > (s-1) mu: the integrability of the squared norm, decided by
        measure.integrability_margin as the thresholds are."""
        return _admissible(self.moment_x(params), s, params)


def _admissible(x: float, s: float, params: DomainParams) -> bool:
    return bool(measure.integrability_margin(measure.MomentArgs(x, 0.0, s, params)) > 0.0)


def membership_min_j(component: Component, s: float, params: DomainParams) -> int:
    """Smallest integer j admissible for the component at weight s.  The
    rounded bound s mu (dw1) resp. (s-1) mu can land on the other side of
    an integer than the margin does, so floor(bound) + 1 is stepped until
    BasisIndex.admissible agrees."""
    dw1 = component is Component.DW1
    shift = params.mu if dw1 else 0.0
    j = math.floor((s if dw1 else s - 1.0) * params.mu) + 1
    while not _admissible(j - shift, s, params):
        j += 1
    while _admissible(j - 1 - shift, s, params):
        j -= 1
    return j


def basis_norm_sq(idx: BasisIndex, s: float, params: DomainParams) -> measure.MomentValue:
    """Squared norm of the basis monomial at weight s: lam(j, k, s) for
    function/theta2 elements, lam(j - mu, k, s) for dw1 elements.
    Divergent exactly when the membership predicate fails (the moment
    integrability condition coincides with membership)."""
    if not 0.0 <= s < 0.5:
        raise DomainError(f"need 0 <= s < 1/2, got {s}")
    if not idx.admissible(s, params):
        return measure.MomentValue.divergent(measure.X_CLAUSE)
    return measure.lambda_closed(
        measure.MomentArgs(idx.moment_x(params), float(idx.k), s, params)
    )


def _norms_sq(indices: list[BasisIndex], s: float, params: DomainParams) -> np.ndarray:
    """basis_norm_sq of admissible indices in one array call; raises
    DomainError for an index whose norm diverges."""
    x = np.array([idx.moment_x(params) for idx in indices])
    return measure.lambda_closed_array(x, np.array([float(idx.k) for idx in indices]), s, params)


def basis_indices(p: int, s: float, params: DomainParams, count: int) -> list[BasisIndex]:
    """The leading ``count`` basis elements at weight s, enumerated per
    family of FAMILIES[p] by increasing j then k in [-2, 2].  The families
    share count in order, the earlier ones taking the remainder: for p = 1
    the theta2 family contributes the extra element when count is odd."""
    if p not in FAMILIES:
        raise DomainError(f"form degree must be 0, 1 or 2, got {p}")
    families = FAMILIES[p]
    out: list[BasisIndex] = []
    for i, comp in enumerate(families):
        n = (count + len(families) - 1 - i) // len(families)
        j = membership_min_j(comp, s, params)
        taken = 0
        while taken < n:
            for k in range(-2, 3):
                if taken == n:
                    break
                out.append(BasisIndex(j, k, p, comp))
                taken += 1
            j += 1
    return out


@dataclass(frozen=True)
class RadialTerm:
    """One input term g(|w1|) * w1^a * w2^b against a frame component.

    The profile g is a function of r1 = |w1| alone, real-valued and
    vectorized over numpy arrays.
    """

    profile: Callable
    a: int
    b: int
    component: Component
    label: str = ""

    def describe(self) -> str:
        return self.label or f"(a={self.a}, b={self.b}, {self.component.value})"


@dataclass(frozen=True)
class RadialTermFunction:
    """A finite sum of radial-profile terms at a fixed form degree p."""

    p: int
    terms: tuple[RadialTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.component not in FAMILIES.get(self.p, ()):
                raise DomainError(
                    f"term {t.describe()} has component invalid for p = {self.p}"
                )


@dataclass
class ProjectionResult:
    p: int
    coefficients: dict[BasisIndex, complex]
    ratios: dict[BasisIndex, tuple[float, float]]  # (numerator, denominator)
    tail_report: str


def _term_integrands(term: RadialTerm, params: DomainParams, pairing: bool):
    """The exponents (p1, p2) of radial_moment for the term, and a profile
    that returns its integrands: the term against itself, then, when
    ``pairing`` is set, the term against its selected basis monomial."""
    mu = params.mu
    dw1 = term.component is Component.DW1
    # |dw1|^2 = |w1|^(2-2mu)/(4 mu^2); the pairing against 2 mu w1^j w2^k dw1
    # carries one factor 2 mu.
    shift = 2.0 - 2.0 * mu if dw1 else 0.0

    def integrands(r1):
        g = np.asarray(term.profile(r1), dtype=float)
        square = g**2 / (4.0 * mu * mu) if dw1 else g**2
        if not pairing:
            return (square,)
        return square, g / (2.0 * mu) if dw1 else g

    return 2.0 * term.a + shift, 2.0 * term.b, integrands


def _target_index(term: RadialTerm, p: int) -> BasisIndex:
    a_to_j = 1 if term.component is Component.DW1 else 0  # 2 mu w1^(j-1) w2^k dw1
    return BasisIndex(term.a + a_to_j, term.b, p, term.component)


def project(f: RadialTermFunction, params: DomainParams) -> ProjectionResult:
    """Bergman projection of a radially decomposable input.

    Each term selects at most one basis index; its coefficient against
    the unnormalized basis element (w1^j w2^k, w1^j w2^k theta2, or
    2 mu w1^(j-1) w2^k dw1, wedged with theta2 when p = 2) is the ratio
    of the term's radial pairing integral to the element's squared norm.
    One radial_moment call integrates every term in one pass: each term's
    squared norm to 1e-9 and its pairing to 1e-10 relative, each settled
    at its own level.  Terms whose selected monomial is not
    square-integrable contribute nothing (they lie in the orthogonal
    complement) and are named in the report; terms that are themselves
    not square-integrable raise NonIntegrableTermError, naming the first
    such term.
    """
    targets = [_target_index(term, f.p) for term in f.terms]
    in_space = [idx.admissible(0.0, params) for idx in targets]
    p1s, p2s, rtols, profiles = [], [], [], []
    for term, inside in zip(f.terms, in_space):
        p1, p2, integrands = _term_integrands(term, params, inside)
        rtol = (1e-9, 1e-10) if inside else (1e-9,)
        p1s += [p1] * len(rtol)
        p2s += [p2] * len(rtol)
        rtols += rtol
        profiles.append(integrands)
    results = iter(measure.radial_moment(
        lambda r1: [g for integrands in profiles for g in integrands(r1)], p1s, p2s, params,
        rtol=rtols) if f.terms else ())
    numerators: dict[BasisIndex, float] = {}
    warnings: list[str] = []
    for term, idx, inside in zip(f.terms, targets, in_space):
        sq = next(results)
        if not sq.converged or not math.isfinite(sq.value):
            raise NonIntegrableTermError(term.describe(), "L2 norm quadrature diverges")
        if not inside:
            warnings.append(f"selected monomial {(idx.j, idx.k)} outside the Bergman space")
            continue
        num = next(results)
        if not num.converged or not math.isfinite(num.value):
            raise NonIntegrableTermError(term.describe(), "pairing quadrature diverges")
        numerators[idx] = numerators.get(idx, 0.0) + num.value
    coefficients: dict[BasisIndex, complex] = {}
    ratios: dict[BasisIndex, tuple[float, float]] = {}
    dens = _norms_sq(list(numerators), 0.0, params)
    for (idx, num), den in zip(numerators.items(), dens.tolist()):
        coefficients[idx] = complex(num / den)
        ratios[idx] = (num, den)
    if not f.terms:
        warnings.append("empty input")
    elif not coefficients:
        warnings.append("empty result")
    report = "; ".join(warnings) if warnings else (
        "selection rule is exact for radial-term inputs; no truncation tail"
    )
    return ProjectionResult(f.p, coefficients, ratios, report)


@dataclass(frozen=True)
class KernelValue:
    value: complex
    tail_estimate: float


def _monomials(point: ModelPoint, j: np.ndarray, k: np.ndarray):
    """Real and imaginary parts of w1^j w2^k on the (j, k) lattice."""
    a = np.array([point.w1 ** int(v) for v in j], dtype=complex)[:, None]
    b = np.array([point.w2 ** int(v) for v in k], dtype=complex)[None, :]
    return a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real


def kernel_eval(
    w: ModelPoint,
    u: ModelPoint,
    params: DomainParams,
    truncation: tuple[int, int],
) -> KernelValue:
    """Truncated Bergman kernel of the function space at s = 0:

        K(w, u) = sum over admissible (j, k), |j| <= Jmax, |k| <= Kmax of
                  w1^j w2^k conj(u1^j u2^k) / lam(j, k, 0),

    in one pass over the (j, k) lattice.  The products are formed in real
    arithmetic, as separate multiplies and adds: swapping w and u then
    negates each imaginary term exactly, so Hermitian symmetry is exact in
    floating point and the diagonal is exactly real (a fused multiply-add,
    as in numpy's complex multiply, would break both).  The tail estimate
    is the summed magnitude of the outermost included shell."""
    if not (contains(params, w) and contains(params, u)):
        raise DomainError("kernel points must lie inside the model domain")
    jmax, kmax = truncation
    jmin = max(-jmax, membership_min_j(Component.FUNCTION, 0.0, params))
    j = np.arange(jmin, jmax + 1)
    k = np.arange(-kmax, kmax + 1)
    lam = measure.lambda_closed_array(j[:, None].astype(float), k.astype(float), 0.0, params)
    wr, wi = _monomials(w, j, k)
    ur, ui = _monomials(u, j, k)
    re = (wr * ur + wi * ui) / lam
    im = (wi * ur - wr * ui) / lam
    shell = (j[:, None] == jmax) | (np.abs(k) == kmax)
    return KernelValue(complex(re.sum(), im.sum()), float(np.hypot(re, im)[shell].sum()))


@lru_cache(maxsize=None)
def _angular_factor(m: int) -> float:
    """(1/2 pi) ∫_0^{2 pi} cos(m phi) d phi by the composite trapezoid rule on
    N = 256 ceil((|m| + 1)/256) nodes; the imaginary part vanishes by
    symmetry.  The rule is exact to roundoff for |m| < N, so every m is
    computed rather than assumed (a fixed N would alias m = N to 1)."""
    nodes = 256 * math.ceil((abs(m) + 1) / 256)
    phi = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    return float(np.mean(np.cos(abs(m) * phi)))


def gram_matrix(indices: list[BasisIndex], s: float, params: DomainParams) -> np.ndarray:
    """Pairwise weight-s inner products of normalized basis elements.

    Each entry is (angular factor in phi1) x (angular factor in phi2) x
    (radial moment) / sqrt of the two closed-form norms, so the
    orthogonality content (vanishing angular integrals, radial moments
    matching the closed form) is computed rather than assumed.  The
    indices may mix form degrees.  Entries between different (p, component)
    pairs are returned as exact zeros: elements of different degrees lie in
    orthogonal spaces, and mixed theta2/dw1 entries vanish pointwise by
    frame orthogonality.  Each degree's diagonal block is its own table,
    bit for bit where the degrees span the same k (as the elements of
    basis_indices do: the fibers of a wider k range sum more terms).
    Contract: the result is the identity matrix to the module tolerances.

    The radial moment of a pair is lam(e1 / 2, e2 / 2, s), with
    e1 = jA + jB (shifted by -2 mu for dw1 pairs) and the integer
    e2 = kA + kB; one measure.mesh_moments call tabulates it for every
    distinct e1 and every e2 to 1e-10 relative, each entry settled at its
    own level, or raises QuadratureError.
    """
    if not 0.0 <= s < 0.5:
        raise DomainError(f"need 0 <= s < 1/2, got {s}")
    for idx in indices:
        if not idx.admissible(s, params):
            raise DomainError(f"index {idx} is not admissible at weight s = {s}")
    n = len(indices)
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    j = np.array([idx.j for idx in indices])
    k = np.array([idx.k for idx in indices])
    p = np.array([idx.p for idx in indices])
    comp = np.array([idx.component.value for idx in indices])
    same = (p[:, None] == p) & (comp[:, None] == comp)
    e1 = (j[:, None] + j) + np.where(comp == Component.DW1.value, -2.0 * params.mu, 0.0)[:, None]
    e1_vals, e1_at = np.unique(e1[same], return_inverse=True)
    e2_lo, e2_hi = 2 * int(k.min()), 2 * int(k.max())
    radial = measure.mesh_moments(0.5 * e1_vals, 0.5 * e2_lo, e2_hi - e2_lo + 1, s, params)

    ang_table = np.array([_angular_factor(m) for m in range(np.ptp(j) + np.ptp(k) + 1)])
    ang = ang_table[np.abs(j[:, None] - j)] * ang_table[np.abs(k[:, None] - k)]
    norms = _norms_sq(indices, s, params)
    out = np.zeros((n, n), dtype=complex)  # degree and frame orthogonality, pointwise
    out[same] = ang[same] * radial[e1_at, (k[:, None] + k)[same] - e2_lo]
    out[same] /= np.sqrt(np.outer(norms, norms))[same]
    return out
