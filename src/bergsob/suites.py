"""Named invariant suites behind the ``verify`` command.

Each suite replays a module's mathematical contracts on fixed grids,
against fixed tolerances, with seeded sampling, and reports structured
pass/fail results; the suites are deterministic for a fixed seed.  Each
``check_*`` function takes its grid, generator and tolerances as arguments
and records into a SuiteResult; the suites and the acceptance gate call
the same functions with their own literal values, so each invariant is
defined once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import bergman, geometry, measure, regularity, special
from .errors import DomainError
from .geometry import DomainParams, ModelPoint

__all__ = ["SuiteResult", "SUITES", "run_suites", "check_special", "check_moments",
           "check_geometry", "check_gram", "check_sharpness", "check_threshold_jumps",
           "check_counterexample_transport"]


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def check_special(res: SuiteResult, grid, beta_ys, holder_s, holder_hi: float, *,
                  recursion_tol: float, holder_slack: float, oracle_tol: float,
                  recursion_scale: float = 1.0) -> None:
    """The alpha and beta recursion residuals over grid x grid and
    grid x beta_ys, the two Hölder margins at each s in holder_s over
    x, y up to holder_hi, and the alpha two-path oracle on a fixed grid.

    Each family is scored in one array call over its whole grid, and its
    checks are recorded in grid order, s by s for the margins.
    ``recursion_scale`` multiplies the beta recursion constant; any value
    other than 1 must make the check fail (verify's self-test)."""
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    for x, y, r in zip(xs.flat, ys.flat, special.alpha_recursion_residual(xs, ys).flat):
        res.check(r <= recursion_tol, f"alpha recursion residual {r:.2e} at ({x:.3g}, {y:.3g})")
    residuals = special.beta_recursion_residual(np.asarray(grid)[:, None], np.asarray(beta_ys),
                                                scale=recursion_scale)
    for x, row in zip(grid, residuals):
        for y, r in zip(beta_ys, row):
            res.check(r <= recursion_tol, f"beta recursion residual {r:.2e} at ({x:.3g}, {y})")
    # (s, x, y) grids: x and y from 2s + 0.05 (alpha) or x from 4s + 0.05 (beta)
    s_axis = np.asarray(holder_s, dtype=float)[:, None, None]
    alpha_xs = np.array([np.linspace(2.0 * s + 0.05, holder_hi, 5) for s in holder_s])
    beta_xs = np.array([np.linspace(4.0 * s + 0.05, holder_hi, 5) for s in holder_s])
    margin_ys = (-3.0, 0.0, 0.5, 4.0)
    alpha_m = special.alpha_holder_margin(alpha_xs[:, :, None], alpha_xs[:, None, :], s_axis)
    beta_m = special.beta_holder_margin(beta_xs[:, :, None], np.asarray(margin_ys), s_axis)
    for s, a_xs, a_rows, b_xs, b_rows in zip(holder_s, alpha_xs, alpha_m, beta_xs, beta_m):
        for x, row in zip(a_xs, a_rows):
            for y, m in zip(a_xs, row):
                res.check(m >= -holder_slack, f"alpha margin {m:.2e} at ({x:.3g}, {y:.3g}, s={s})")
        for x, row in zip(b_xs, b_rows):
            for y, m in zip(margin_ys, row):
                res.check(m >= -holder_slack, f"beta margin {m:.2e} at ({x:.3g}, {y}, s={s})")
    oracle_grid = _log_grid(0.05, 40.0, 5)
    xs, ys = np.meshgrid(oracle_grid, oracle_grid, indexing="ij")
    a = special.alpha_eval(xs, ys)
    b, _ = special.alpha_quadrature(xs, ys)
    for x, y, r in zip(xs.flat, ys.flat, (np.abs(a - b) / a).flat):
        res.check(r <= oracle_tol, f"alpha two-path disagreement {r:.2e} at ({x:.3g}, {y:.3g})")


def suite_special(rng, *, recursion_scale: float = 1.0) -> SuiteResult:
    """Recursion residuals, Hölder margins and the two-path oracle."""
    res = SuiteResult("special")
    check_special(res, _log_grid(1e-2, 50.0, 6), (-2.0, 0.0, 1.5),
                  (0.0, 0.1, 0.2, 0.3, 0.4, 0.49), 10.0, recursion_tol=1e-10,
                  holder_slack=1e-9, oracle_tol=1e-10, recursion_scale=recursion_scale)
    return res


def check_geometry(
    res: SuiteResult, mus, n: int, rng, *, residual_tol: float, levi_floor: float
) -> geometry.CoverPoint:
    """Biholomorphism round trips, defining-function transport, isometry
    push-forward, frame duality and the boundary-weight identity on n
    seeded interior points per mu, then the Levi form on n seeded boundary
    points of the cover, which are returned.

    Each mu must be below 37.6: the cover points (deck shifts |k| <= 2,
    rotations |t1| <= pi) reach |z2|^2 ~ e^(6 pi mu), which overflows a
    double above it."""
    largest = lambda *arrays: float(np.max([np.max(np.abs(a)) for a in arrays]))  # NaN fails
    for mu in mus:
        params = DomainParams(mu)
        w = geometry.sample_interior(params, n, rng)
        z = geometry.inverse_map(params, w, rng.integers(-2, 3, size=n))
        v = geometry.forward_map(params, z)
        rho = geometry.rho_tilde(z)
        t = np.abs(v.w1) ** mu
        transported = 4.0 * t * (t - np.cos(np.log(np.abs(v.w2) ** 2)))
        t1, t2 = rng.uniform(-math.pi, math.pi, size=(2, n))
        zz = geometry.isometry_apply(params, t1, t2, z)
        vv = geometry.forward_map(params, zz)
        rotated = (vv.w1 - np.exp(1j * t1) * w.w1, vv.w2 - np.exp(1j * t2) * w.w2)
        worst = {
            "round trip": largest(v.w1 - w.w1, v.w2 - w.w2),
            "transport": largest(rho - transported, np.abs(z.z1) - 2.0 * t),
            "isometry": largest(*rotated, geometry.rho_tilde(zz) - rho),
            "frame duality": largest(geometry.frame_at(params, w).duality_residual()),
            "delta0 vs rho": largest(geometry.delta0(params, v) + rho / 4.0),
        }
        for label, value in worst.items():
            res.check(value <= residual_tol, f"mu={mu}: {label} {value:.2e}")
    boundary = geometry.sample_boundary_cover(n, rng)
    levi = geometry.levi_form_boundary(boundary)
    worst_levi = float(np.min(levi, initial=0.0))
    res.check(worst_levi >= -levi_floor, f"Levi form dips to {worst_levi:.2e}")
    torus_exact = bool(np.all(levi[boundary.z1 == 0] == 0.0))
    res.check(torus_exact, "Levi form not exactly zero on the torus")
    return boundary


def suite_geometry(rng) -> SuiteResult:
    """Biholomorphism round trips, defining-function transport, isometry
    push-forward, frame duality, boundary-weight identity, Levi form."""
    res = SuiteResult("geometry")
    check_geometry(res, (1.5, 2.0, 2.5, 3.0, 4.2857142857142856), 1000, rng,
                   residual_tol=1e-12, levi_floor=1e-10)
    return res


def check_moments(
    res: SuiteResult, mus, count: int, rng, *, s_hi: float, y_hi: float, rel_tol: float
) -> None:
    """Closed form against the independent quadrature on ``count`` seeded
    integrable moments per mu: s ~ U(0, s_hi), y ~ U(-y_hi, y_hi) and x
    drawn so that the integrability margin x/mu + 1 - s is at least 0.1.

    Each mu's draws are scored in one call per path, and their checks are
    recorded in draw order."""
    for mu in mus:
        params = DomainParams(mu)
        draws = []
        for _ in range(count):
            s = float(rng.uniform(0.0, s_hi))
            y = float(rng.uniform(-y_hi, y_hi))
            x = float(rng.uniform(mu * (s - 0.9), 3.0))
            draws.append((x, y, s))
        xs, ys, ss = (np.array(column) for column in zip(*draws))
        closed = measure.lambda_closed_array(xs, ys, ss, params)
        quad = measure.lambda_quadrature(measure.MomentArgs(xs, ys, ss, params))
        for (x, y, s), rel in zip(draws, np.abs(closed - quad.value) / closed):
            res.check(rel <= rel_tol,
                      f"mu={mu} ({x:.3g},{y:.3g},{s:.3g}): paths differ by {rel:.2e}")


def suite_measure(rng) -> SuiteResult:
    """Closed form vs independent quadrature, ratio sandwich, truncation
    growth certification, and integrability agreement."""
    res = SuiteResult("measure")
    check_moments(res, (1.5, 2.0, 3.0), 12, rng, s_hi=0.45, y_hi=4.0, rel_tol=1e-8)
    params = DomainParams(2.0)
    for s in (0.1, 0.2, 0.3, 0.4):  # one call per s over the rows j of its lattice
        js = range(math.ceil(2.0 * (s - 1.0)) + 1, 5)
        x = np.array(js, dtype=float)
        rows = measure.lambda_ratio_family(x[:, None], np.arange(-6.0, 7.0), s, params)
        for j, ratios, bound in zip(js, rows, measure.lambda_ratio_bound(x, s, params)):
            res.check(
                bool(np.all(ratios >= 1.0 - 1e-9)),
                f"ratio below 1 at j={j}, s={s}",
            )
            res.check(
                bool(np.all(ratios <= bound + 1e-9)),
                f"ratio above bound at j={j}, s={s}",
            )
    cases = [
        (measure.MomentArgs(-2.0, 0.0, 0.2, DomainParams(2.5)), 0.0),
        (measure.MomentArgs(-2.2, 0.0, 0.2, DomainParams(2.5)), -0.16),
        (measure.MomentArgs(-1.5, 0.0, 0.45, DomainParams(2.5)), -0.1),
    ]
    for m, expected in cases:
        res.check(not measure.is_integrable(m), f"{m} should be divergent")
        fit = measure.truncation_growth_fit(m)
        res.check(fit.matches(expected, 0.05),
                  f"growth fit {fit.kind}/{fit.exponent:+.4f} vs {expected:+.3f}")
    m = measure.MomentArgs(0.5, 1.0, 0.2, params)
    full = measure.lambda_closed(m).value
    seq = [measure.lambda_truncated(m, 2.0 ** (-k)) for k in (2, 5, 8, 11)]
    res.check(
        all(a <= b + 1e-9 * full for a, b in zip(seq, seq[1:])),
        "truncated moments not monotone",
    )
    res.check(abs(seq[-1] - full) <= 1e-8 * full, "truncated moments do not converge")
    return res


def check_gram(res: SuiteResult, count: int, *, offdiag_tol: float, diag_tol: float) -> None:
    """The Gram matrix of the leading ``count`` normalized basis elements at
    mu = 3 is the identity, for every degree p and s in {0, 0.2, 0.4, 0.49}.

    Each s takes one gram_matrix call over the elements of all three degrees
    (one table of moments), whose diagonal blocks are the degrees' tables;
    the checks are recorded degree by degree, s by s."""
    params = DomainParams(3.0)
    weights = (0.0, 0.2, 0.4, 0.49)
    joint = {s: bergman.gram_matrix([i for p in (0, 1, 2)
                                     for i in bergman.basis_indices(p, s, params, count)],
                                    s, params) for s in weights}
    for p in (0, 1, 2):
        rows = slice(p * count, (p + 1) * count)  # basis_indices returns count elements
        for s in weights:
            G = joint[s][rows, rows]
            off = float(np.max(np.abs(G - np.diag(np.diag(G)))))
            diag = float(np.max(np.abs(np.diag(G) - 1.0)))
            res.check(off <= offdiag_tol, f"p={p} s={s}: offdiag {off:.2e}")
            res.check(diag <= diag_tol, f"p={p} s={s}: diag dev {diag:.2e}")


def suite_bergman(rng) -> SuiteResult:
    """Gram identities, reproducing property, selection rule, kernel
    symmetry and positivity."""
    res = SuiteResult("bergman")
    check_gram(res, 25, offdiag_tol=1e-8, diag_tol=1e-6)
    params = DomainParams(3.0)
    ones = lambda r1: np.ones(np.shape(r1))
    # the 18 monomials as one function: each term selects its own element,
    # so one projection reproduces all of them, in one radial pass
    monomials = [(j, k) for j in range(-2, 4) for k in (-2, 0, 3)]
    out = bergman.project(bergman.RadialTermFunction(0, tuple(
        bergman.RadialTerm(ones, j, k, bergman.Component.FUNCTION) for j, k in monomials)), params)
    for j, k in monomials:
        target = bergman.BasisIndex(j, k, 0, bergman.Component.FUNCTION)
        c = out.coefficients.get(target, 0.0)
        res.check(
            len(out.coefficients) == len(monomials) and abs(c - 1.0) <= 1e-10,
            f"reproducing failure at ({j}, {k}): {c}",
        )
    w = ModelPoint(0.5 + 0.1j, 1.02)
    u = ModelPoint(0.3 - 0.2j, 0.95 + 0.1j)
    K_wu = bergman.kernel_eval(w, u, params, (8, 8))
    K_uw = bergman.kernel_eval(u, w, params, (8, 8))
    K_ww = bergman.kernel_eval(w, w, params, (8, 8))
    res.check(K_wu.value == K_uw.value.conjugate(), "kernel Hermitian symmetry broken")
    res.check(
        K_ww.value.imag == 0.0 and K_ww.value.real > 0.0, "kernel diagonal not positive"
    )
    return res


def check_sharpness(
    res: SuiteResult, rs, lattice: tuple[int, int], *, ratio_slack: float, growth_tol: float
) -> list[tuple[regularity.ContinuityCertificate, regularity.DivergenceWitness, bool]]:
    """For each target threshold r and degree p, at the mu realizing r: a
    continuity certificate at s = r - min(0.02, r/2) whose sup stays under
    its bound, and a divergence witness at r whose growth fit matches the
    analytic exponent.  Returns (certificate, witness, within bound) per pair."""
    pairs = []
    for r in rs:
        for p in (0, 1, 2):
            params = DomainParams(regularity.mu_for_threshold(r, p))
            cert = regularity.continuity_certificate(params, p, r - min(0.02, r / 2), lattice)
            wit = regularity.divergence_witness(params, p, r)
            within, fits = regularity.sharpness_checks(cert, wit, ratio_slack=ratio_slack,
                                                       growth_tol=growth_tol)
            res.check(within, f"r={r} p={p}: sup {cert.sup_ratio:.4g} above bound "
                              f"{cert.bound_used:.4g}")
            res.check(fits, f"r={r} p={p}: witness growth fit mismatch")
            pairs.append((cert, wit, within))
    return pairs


def check_threshold_jumps(res: SuiteResult, *, tol: float) -> None:
    """Across each integer mu in {2, 3, 4} the degree-0 threshold jumps by
    min(1/2, 2/m) - min(1/2, 1/m) and the degree-2 threshold does not."""
    for m in (2, 3, 4):
        lo = regularity.threshold(DomainParams(m - 1e-9), 0).r
        hi = regularity.threshold(DomainParams(m + 1e-9), 0).r
        predicted = min(0.5, 2.0 / m) - min(0.5, 1.0 / m)
        res.check(
            abs((lo - hi) - predicted) <= tol,
            f"degree-0 jump at mu={m}: {lo - hi:.3g} vs predicted {predicted:.3g}",
        )
        lo2 = regularity.threshold(DomainParams(m - 1e-9), 2).r
        hi2 = regularity.threshold(DomainParams(m + 1e-9), 2).r
        res.check(abs(lo2 - hi2) <= tol, f"degree-2 threshold jumps at mu={m}")


def check_counterexample_transport(res: SuiteResult) -> None:
    """At mu = 3 and each degree p, the smooth counterexample projects onto
    exactly the witness element, with a positive coefficient, and that
    element's norm diverges at the threshold."""
    params = DomainParams(3.0)
    for p in (0, 1, 2):
        out = bergman.project(regularity.smooth_counterexample(params, p), params)
        witness = regularity.witness_index(params, p)
        thr = regularity.threshold(params, p)
        ok = (
            set(out.coefficients) == {witness}
            and out.coefficients[witness].real > 0.0
            and bergman.basis_norm_sq(witness, thr.r, params).kind == "divergent"
        )
        res.check(ok, f"counterexample transport failed at p={p}")


def suite_regularity(rng) -> SuiteResult:
    """Sharpness sandwich, threshold inversion round trip, witness
    minimality, discontinuity in mu, counterexample transport."""
    res = SuiteResult("regularity")
    check_sharpness(res, (0.2, 0.4), (40, 40), ratio_slack=1e-9, growth_tol=0.05)
    for r in np.arange(0.05, 0.46, 0.05):
        for p in (0, 1, 2):
            mu = regularity.mu_for_threshold(float(r), p)
            back = regularity.threshold(DomainParams(mu), p).r
            res.check(
                abs(back - r) <= 1e-12,
                f"threshold inversion drift {abs(back - r):.2e} at r={r}, p={p}",
            )
    check_threshold_jumps(res, tol=1e-8)
    check_counterexample_transport(res)
    return res


SUITES = {
    "special": suite_special,
    "geometry": suite_geometry,
    "measure": suite_measure,
    "bergman": suite_bergman,
    "regularity": suite_regularity,
}


def run_suites(seed: int, names=None, *, self_test: bool = False):
    """Run the selected suites, yielding each suite's result as soon as it
    has finished.  Each suite draws from its own generator, seeded by (seed,
    suite name), so a suite run alone replays its draws in a full run.

    Self-test mode injects a wrong beta recursion constant into the
    special suite, which must then fail.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if names is None:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        rng = np.random.default_rng([seed, *name.encode()])
        if name == "special" and self_test:
            yield suite_special(rng, recursion_scale=1.0 + 1e-3)
        else:
            yield SUITES[name](rng)
