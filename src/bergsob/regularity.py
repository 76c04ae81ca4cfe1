"""Sharp Sobolev-regularity thresholds as executable certificates.

For each form degree p the projection is continuous in the weighted-L2
surrogate norm below a sharp exponent and fails at it:

    r(mu, 0)      = min(1/2, (1 - floor(mu))/mu + 1),
    r(mu, 1 or 2) = min(1/2, 1/mu).

Each clause is measure.integrability_margin of the witness element's
squared norm at s = 0, which also decides divergence, so a witness at
s = r diverges exactly.

Below threshold, continuity is certified by scanning the normalized
moment ratio lam(x,y,s) lam(x,y,-s)/lam(x,y,0)^2 over the basis lattice
and checking it stays under the closed-form bound; at or above threshold
(when that is < 1/2), divergence is witnessed by a single borderline
basis element whose unweighted moment is finite while its weighted one
diverges, certified by the truncation growth fit (its measured exponent,
and its deepest shell against the closed-form leading term).  The witness
monomial is reached by projecting a counterexample input that is smooth
up to the boundary: exp(-1/|w1|^mu) times the witness monomial
(times dw1 / dw1 wedge theta2 for p = 1, 2).

Inverting the threshold: given a target r in (0, 1/2), mu = 1/r realizes
it for p in {1, 2}; for p = 0 take l = ceil(1/r) and mu = (l-1)/(1-r),
which lands floor(mu) = l and threshold exactly r (band l + 1 where the
rounding at r ~ 1/l leaves band l no mu with threshold <= r).

For p = 0 the scan starts at j = 1 - floor(mu), the first index the
threshold formula protects; for the dw1 families it starts at j = 1.
Certificates report the lattice sup together with the analytic bound at
the worst admissible exponent, which dominates the un-scanned tail since
the bound decreases in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure
from .bergman import FAMILIES, BasisIndex, Component, RadialTerm, RadialTermFunction, basis_norm_sq
from .errors import DomainError
from .geometry import DomainParams
from .measure import GrowthFit, MomentArgs

__all__ = [
    "ThresholdReport",
    "ContinuityCertificate",
    "DivergenceWitness",
    "threshold",
    "mu_for_threshold",
    "sharpness_checks",
    "continuity_certificate",
    "divergence_witness",
    "smooth_counterexample",
    "witness_index",
]

# the most basis elements one certificate scores; a certificate peaks at ~650
# bytes per element: `scan --mu 500000 --p 0 --s-grid 0 --lattice 1,0`
# (500,001 elements) peaks at ~326 MB RSS, one at this cap at ~620 MB
_MAX_LATTICE_CELLS = 10**6
_HALF = "one_half"
_MU_CLAUSE = "mu_clause"
_BOTH = "both"


@dataclass(frozen=True)
class ThresholdReport:
    mu: float
    p: int
    r: float
    binding: str  # which clause of the min was active
    clause_value: float  # the mu-dependent clause before the min


def _check_p(p: int) -> None:
    if p not in (0, 1, 2):
        raise DomainError(f"form degree must be 0, 1 or 2, got {p}")


def threshold(params: DomainParams, p: int) -> ThresholdReport:
    x = witness_index(params, p).moment_x(params)
    clause = measure.integrability_margin(MomentArgs(x, 0.0, 0.0, params))
    r = min(0.5, clause)
    if clause < 0.5:
        binding = _MU_CLAUSE
    elif clause > 0.5:
        binding = _HALF
    else:
        binding = _BOTH
    return ThresholdReport(params.mu, p, r, binding, clause)


def mu_for_threshold(r: float, p: int) -> float:
    """The parameter whose degree-p threshold is r in (0, 1/2).

    For p = 0 the construction takes l = ceil(1/r) and mu = (l-1)/(1-r),
    which satisfies floor(mu) = l.  The threshold of the rounded mu can
    land a few ulps above r, and a witness at s = r would then be refused;
    so mu is stepped by ulps in the direction that lowers the threshold
    (down for p = 0, up for p = 1, 2) until threshold(mu).r <= r.  For
    p = 0 the steps stay in the band floor(mu) = l.  Band l cannot reach r
    when r sits just below 1/l: mu = l is its floor, with threshold
    fl(1/l), which can exceed r.  Band l + 1, with
    mu = l/(1-r) ~ l + 1 + 1/(l-1), realizes such an r and is used then.
    """
    _check_p(p)
    if not (0.0 < r < 0.5 and math.isfinite(1.0 / r)):
        raise DomainError(f"need 0 < r < 1/2 with 1/r finite, got {r!r}")
    if p != 0:
        mu = 1.0 / r
        while threshold(DomainParams(mu), p).r > r:  # at most 2 steps in 60000 draws
            mu = math.nextafter(mu, math.inf)
        return mu
    for band in (math.ceil(1.0 / r), math.ceil(1.0 / r) + 1):
        mu = (band - 1.0) / (1.0 - r)
        while math.floor(mu) == band and threshold(DomainParams(mu), 0).r > r:
            mu = math.nextafter(mu, -math.inf)
        if math.floor(mu) == band:
            return mu
    raise DomainError(f"no mu in the floor bands ceil(1/r), ceil(1/r) + 1 for r = {r!r}")


def witness_index(params: DomainParams, p: int) -> BasisIndex:
    """The borderline basis element that realizes the failure at threshold:
    (1 - floor(mu), 0) for functions, the dw1 element (1, 0) for forms."""
    _check_p(p)
    if p == 0:
        return BasisIndex(1 - math.floor(params.mu), 0, 0, Component.FUNCTION)
    return BasisIndex(1, 0, p, Component.DW1)


@dataclass(frozen=True)
class ContinuityCertificate:
    mu: float
    p: int
    s: float
    sup_ratio: float
    sup_attained_at: BasisIndex
    bound_used: float
    lattice_bounds: tuple[int, int]


def continuity_certificate(
    params: DomainParams,
    p: int,
    s: float,
    lattice: tuple[int, int] = (40, 40),
) -> ContinuityCertificate:
    """Scan the normalized ratio over the degree-p basis lattice.

    The rows of every family of degree p (FAMILIES[p]) are stacked into one
    lattice and scored in one lambda_ratio_family pass.  Returns the sup,
    its argmax (ties broken toward the first family, then the lowest j,
    then the lowest k) and the analytic bound at the worst admissible
    moment exponent, the largest over the family starts.  Contract:
    sup_ratio <= bound_used, and the bound dominates the tail beyond the
    lattice.  Refuses s at or above threshold, where a divergence witness
    exists instead, and lattices of more than 10^6 basis elements (the
    families start at j = 1 - floor(mu)).

    Only the half k <= 0 of the lattice is evaluated, which is exact: each
    row of ratios is a bitwise mirror image in k (lambda_ratio_family is
    even in k bit for bit), so the first maximum of a full row lies at
    some k <= 0 and the tie-break picks the same element.  The lattice
    size limit still counts the full lattice.
    """
    _check_p(p)
    thr = threshold(params, p)
    if not 0.0 <= s < thr.r:
        raise DomainError(
            f"need 0 <= s < {thr.r} (the threshold), got s = {s}; "
            "use divergence_witness for s at or above the threshold"
        )
    jmax, kmax = lattice
    if jmax < 1 or kmax < 0:
        raise DomainError(f"empty lattice {lattice}")
    mu = params.mu
    # (component, first row j, shift) per family, x = j - shift: the first j the
    # threshold protects, 1 for dw1 (x = 1 - mu) and 1 - floor(mu) else
    families = [(comp, 1, mu) if comp is Component.DW1 else (comp, 1 - math.floor(mu), 0.0)
                for comp in FAMILIES[p]]
    sizes = [jmax - jmin + 1 for _, jmin, _ in families]
    cells = sum(sizes) * (2 * kmax + 1)
    if cells > _MAX_LATTICE_CELLS:
        raise DomainError(f"lattice {lattice} at mu = {mu} has {cells} basis elements, "
                          f"more than {_MAX_LATTICE_CELLS}")
    bound = max(measure.lambda_ratio_bound(jmin - shift, s, params) for _, jmin, shift in families)
    # one lattice: the rows of every family in family order
    js = np.concatenate([np.arange(jmin, jmax + 1) for _, jmin, _ in families])
    xs = js - np.repeat([shift for _, _, shift in families], sizes)
    ks = np.arange(-kmax, 1, dtype=float)  # the rows are even in k
    ratios = measure.lambda_ratio_family(xs[:, None], ks[None, :], s, params)
    # the first maximum in row-major order: first family, then lowest j, then lowest k
    i, k = np.unravel_index(np.argmax(ratios), ratios.shape)
    comp = families[np.searchsorted(np.cumsum(sizes), i, side="right")][0]
    at = BasisIndex(int(js[i]), int(ks[k]), p, comp)
    return ContinuityCertificate(mu, p, s, float(ratios[i, k]), at, bound, lattice)


@dataclass(frozen=True)
class DivergenceWitness:
    mu: float
    p: int
    s: float
    index: BasisIndex
    lambda0: float  # the finite unweighted squared norm; at s it diverges
    growth: GrowthFit
    analytic_exponent: float


def divergence_witness(params: DomainParams, p: int, s: float) -> DivergenceWitness:
    """Certify failure at weight s >= threshold via the witness element.

    The witness's unweighted moment is finite while its weight-s moment
    violates the integrability predicate; the truncation growth fit
    certifies the divergence numerically, with analytic growth exponent
    2x/mu + 2 - 2s, twice the integrability margin, which is exactly 0 (a
    logarithmic mode) at s = threshold, and closed-form coefficient.
    """
    _check_p(p)
    thr = threshold(params, p)
    if not thr.r <= s < 0.5:
        raise DomainError(
            f"no witness exists for s = {s} below the threshold {thr.r}; "
            "that is the content of the continuity certificate"
        )
    idx = witness_index(params, p)
    x = idx.moment_x(params)
    if not idx.admissible(0.0, params) or idx.admissible(s, params):
        raise AssertionError("witness must be finite at s = 0 and divergent at s")
    lam0 = float(basis_norm_sq([idx], 0.0, params)[0])
    m = MomentArgs(x, 0.0, s, params)
    growth = measure.truncation_growth_fit(m)
    exponent = 2.0 * measure.integrability_margin(m)
    return DivergenceWitness(params.mu, p, s, idx, lam0, growth, exponent)


def sharpness_checks(
    cert: ContinuityCertificate, wit: DivergenceWitness, *, ratio_slack: float, growth_tol: float
) -> tuple[bool, bool]:
    """The acceptance rule of a sharpness pair, as (certificate, witness).

    The certificate passes when its sup is at most its bound plus
    ratio_slack.  The witness passes when its growth fit matches the
    analytic exponent within growth_tol and the closed-form coefficient
    (GrowthFit.matches).
    """
    fits = wit.growth.matches(wit.analytic_exponent, growth_tol)
    return cert.sup_ratio <= cert.bound_used + ratio_slack, fits


def smooth_counterexample(params: DomainParams, p: int) -> RadialTermFunction:
    """The boundary-smooth input whose projection is the witness monomial:
    exp(-1/|w1|^mu) times w1^(1 - floor(mu)) for functions, times dw1
    (wedge theta2 at degree 2) for forms.  Its projection coefficient is
    strictly positive."""
    _check_p(p)
    mu = params.mu

    def profile(r1):
        r1 = np.asarray(r1, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-(r1**-mu))

    idx = witness_index(params, p)
    a = idx.j - 1 if idx.component is Component.DW1 else idx.j
    term = RadialTerm(profile, a, 0, idx.component, label="smooth counterexample")
    return RadialTermFunction(p, (term,))
