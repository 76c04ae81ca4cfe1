"""Basis membership and norms, projection calculus, Gram identities."""

import math
from collections import Counter

import numpy as np
import pytest

from bergsob import bergman, measure, quadrature, regularity, suites
from bergsob.bergman import (
    BasisIndex,
    Component,
    RadialTerm,
    RadialTermFunction,
    basis_indices,
    basis_norm_sq,
    gram_matrix,
    project,
)
from bergsob.errors import DomainError, NonIntegrableTermError
from bergsob.geometry import DomainParams
from bergsob.measure import MomentArgs


def ones(r1):
    return np.ones(np.shape(r1))


def gram_loop(indices, s, params, level):
    """Reference: the Gram matrix entry by entry on every node of a 2-d
    tanh-sinh rule at ``level`` in both r1 and u2, with one fiber sum per
    distinct kA + kB and one radial quadrature per distinct (e1, e2); returns
    the matrix and the radial moments by (e1, e2).  It shares no formula
    with measure._fiber, the closed form that gram_matrix sums in r1.

    The fiber rule is the folded one: both halves u2 = +-(c - d) on the
    nodes d = c t^(1/b), b = 1 - 2s, of the tanh-sinh rule on (0, 1) less
    its nodes within 1e-20 of an end, with the bounded weight
    (sinc(d/2 pi) sin(c - d/2))^(-2s) times c^b / b."""
    edge = 1e-20  # the dropped end nodes carry less than this fraction of the sup
    mu, b_exp = params.mu, 1.0 - 2.0 * s
    p_lo, p_hi, wq = quadrature.nodes(level)
    t, t_hi, v = quadrature.nodes(level)
    keep = np.minimum(t, t_hi) > edge
    t, v = t[keep], v[keep]
    with np.errstate(divide="ignore", under="ignore"):  # r1 = 0 to a double; d underflows
        c = measure._half_width(mu * np.log1p(-p_hi))
        d = np.outer(c, t ** (1.0 / b_exp))
    gap = c[:, None] - d
    fiber_w = v * (np.sinc(d / (2.0 * math.pi)) * np.sin(c[:, None] - 0.5 * d)) ** (-2.0 * s)
    base_outer = 8.0 * math.pi**2 * mu * mu * wq * c**b_exp / b_exp
    inner, radial = {}, {}
    norms = basis_norm_sq(indices, s, params)
    n = len(indices)
    out = np.zeros((n, n), dtype=complex)
    for a, A in enumerate(indices):
        for b in range(a, n):
            B = indices[b]
            if A.component is not B.component:
                continue
            shift = -2.0 * mu if A.component is Component.DW1 else 0.0
            e1, e2 = A.j + B.j + shift, float(A.k + B.k)
            if e2 not in inner:
                inner[e2] = ((np.exp(0.5 * e2 * gap) + np.exp(-0.5 * e2 * gap)) * fiber_w).sum(1)
            if (e1, e2) not in radial:
                expo = e1 + 2.0 * mu - 1.0 - 2.0 * s * mu
                radial[e1, e2] = float(base_outer @ (np.exp(expo * np.log(p_lo)) * inner[e2]))
            ang = bergman._angular_factor(A.j - B.j) * bergman._angular_factor(A.k - B.k)
            out[a, b] = out[b, a] = ang * radial[e1, e2] / math.sqrt(norms[a] * norms[b])
    return out, radial


def settled_level(indices, s, params):
    """The first level from 5 at which every radial moment of gram_loop
    agrees with the level below to 1e-10 relative: the level by which every
    entry of gram_matrix's table has settled, each at its own level."""
    prev = gram_loop(indices, s, params, 4)[1]
    for level in range(5, 10):
        radial = gram_loop(indices, s, params, level)[1]
        if all(abs(radial[key] - prev[key]) <= 1e-10 * abs(radial[key]) for key in radial):
            return level
        prev = radial
    raise AssertionError("gram_loop did not settle by level 9")


P3 = DomainParams(3.0)


class TestBasisIndex:
    def test_component_validation(self):
        with pytest.raises(DomainError):
            BasisIndex(0, 0, 0, Component.DW1)
        with pytest.raises(DomainError):
            BasisIndex(0, 0, 2, Component.THETA2)

    def test_membership_predicates(self):
        from bergsob import regularity

        idx = BasisIndex(-2, 0, 0, Component.FUNCTION)
        assert idx.admissible(0.0, P3)
        # exactly at the computed threshold the strict predicate fails
        assert not idx.admissible(regularity.threshold(P3, 0).r, P3)
        dw = BasisIndex(1, 0, 1, Component.DW1)
        assert dw.admissible(0.2, P3)
        assert not dw.admissible(regularity.threshold(P3, 1).r, P3)

    @pytest.mark.parametrize("mu,s", [(15.675328139329817, 1.0 / 15.675328139329817),
                                      (11.11876234645657, 3.0 / 11.11876234645657),
                                      (46.02379566179654, 0.04397281086219607),
                                      (57.63464598562521, 0.3233236826035666)])
    def test_min_j_agrees_with_admissible(self, mu, s):
        # the rounded bound s mu resp. (s-1) mu sits on the other side of an
        # integer than the margin here, and floor(bound) + 1 was one off
        params = DomainParams(mu)
        for comp in Component:
            j = bergman.membership_min_j(comp, s, params)
            p = 0 if comp is Component.FUNCTION else 1
            assert BasisIndex(j, 0, p, comp).admissible(s, params)
            assert not BasisIndex(j - 1, 0, p, comp).admissible(s, params)

    def test_no_member_at_or_above_one_half(self):
        # every weight-s moment diverges at s >= 1/2, whatever j: the s clause
        # counts as much as the x clause
        for j in (5, 50):
            assert not BasisIndex(j, 0, 0, Component.FUNCTION).admissible(0.7, P3)
            assert not BasisIndex(j, 0, 1, Component.DW1).admissible(0.5, P3)
            assert BasisIndex(j, 0, 1, Component.DW1).admissible(0.49, P3)

    @pytest.mark.parametrize("s", [0.5, 0.7, -0.1, math.inf, math.nan])
    def test_weight_outside_range_refused(self, s):
        # refused before the stepping loops, which no admissible j would end
        for comp in Component:
            with pytest.raises(DomainError, match="need 0 <= s < 1/2"):
                bergman.membership_min_j(comp, s, P3)
        for p in (0, 1, 2):
            with pytest.raises(DomainError, match="need 0 <= s < 1/2"):
                basis_indices(p, s, P3, 3)

    def test_gram_at_a_threshold_weight(self):
        # at s = 1/mu the first dw1 index was the inadmissible (1, k)
        params = DomainParams(15.675328139329817)
        s = regularity.threshold(params, 1).r
        idx = basis_indices(1, s, params, 6)
        G = gram_matrix(idx, s, params)
        assert np.max(np.abs(G - np.eye(6))) <= 1e-6

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("count", [0, 1, 4, 7])
    def test_families_share_count_in_order(self, p, count):
        # for p = 1 theta2 takes the extra element of an odd count
        idx = basis_indices(p, 0.1, P3, count)
        comps = [i.component for i in idx]
        families = bergman.FAMILIES[p]
        quota = [(count + 1) // 2, count // 2] if p == 1 else [count]
        assert comps == [c for c, n in zip(families, quota) for _ in range(n)]
        assert all(i.admissible(0.1, P3) and abs(i.k) <= 2 for i in idx)
        with pytest.raises(DomainError):
            basis_indices(3, 0.1, P3, count)


class TestBasisNorms:
    def test_constant_function(self):
        (v,) = basis_norm_sq([BasisIndex(0, 0, 0, Component.FUNCTION)], 0.0, P3)
        assert v == pytest.approx(2.0 * math.pi**3 * 3.0, rel=1e-12)

    def test_dw1_divergence_at_heavy_weight(self):
        # mu s >= 1 expels dw1 from the weighted space
        idx = BasisIndex(1, 0, 1, Component.DW1)
        assert not idx.admissible(0.4, P3)
        with pytest.raises(DomainError, match=r"\(x/mu \+ 1 - s > 0\)"):
            basis_norm_sq([idx], 0.4, P3)

    def test_deep_negative_function_index(self):
        (v,) = basis_norm_sq([BasisIndex(-2, 0, 0, Component.FUNCTION)], 0.0, P3)
        assert math.isfinite(v)

    def test_dw1_norm_is_shifted_moment(self):
        (v,) = basis_norm_sq([BasisIndex(2, 1, 1, Component.DW1)], 0.1, P3)
        direct = measure.lambda_closed(MomentArgs(2.0 - 3.0, 1.0, 0.1, P3))
        assert v == pytest.approx(direct, rel=1e-14)


class TestProjection:
    def test_reproducing_monomials(self):
        # every admissible index in the |j|, |k| <= 6 window
        for j in range(-2, 7):
            for k in range(-6, 7):
                f = RadialTermFunction(
                    0, (RadialTerm(ones, j, k, Component.FUNCTION),)
                )
                res = project(f, P3)
                idx = BasisIndex(j, k, 0, Component.FUNCTION)
                assert set(res.coefficients) == {idx}
                assert res.coefficients[idx] == pytest.approx(1.0, rel=1e-10)

    def test_conjugate_coordinate(self):
        # conj(w1) = r1^2 w1^(-1) projects onto w1^(-1) with ratio
        # lam(0,0,0)/lam(-1,0,0)
        f = RadialTermFunction(
            0, (RadialTerm(lambda r1: np.asarray(r1) ** 2, -1, 0,
                           Component.FUNCTION),)
        )
        res = project(f, P3)
        idx = BasisIndex(-1, 0, 0, Component.FUNCTION)
        expected = (
            measure.lambda_closed(MomentArgs(0.0, 0.0, 0.0, P3))
            / measure.lambda_closed(MomentArgs(-1.0, 0.0, 0.0, P3))
        )
        assert res.coefficients[idx] == pytest.approx(expected, rel=1e-10)
        num, den = res.ratios[idx]
        assert num / den == res.coefficients[idx].real

    def test_selection_rule_single_index(self):
        f = RadialTermFunction(
            0,
            (
                RadialTerm(
                    lambda r1: np.exp(-np.asarray(r1)),
                    2,
                    -1,
                    Component.FUNCTION,
                ),
            ),
        )
        res = project(f, P3)
        assert len(res.coefficients) == 1
        assert next(iter(res.coefficients)) == BasisIndex(2, -1, 0, Component.FUNCTION)

    def test_orthocomplement_term_contributes_nothing(self):
        # a <= -mu: the selected monomial is not square-integrable, but the
        # profile decays fast enough for the input itself to be in L2
        prof = lambda r1: np.exp(-np.asarray(r1, dtype=float) ** -3.0)
        f = RadialTermFunction(0, (RadialTerm(prof, -4, 0, Component.FUNCTION),))
        res = project(f, P3)
        assert res.coefficients == {}

    def test_non_integrable_term_named(self):
        f = RadialTermFunction(
            0, (RadialTerm(ones, -4, 0, Component.FUNCTION, label="bare pole"),)
        )
        with pytest.raises(NonIntegrableTermError, match="bare pole"):
            project(f, P3)

    def test_outside_space_reported(self):
        # a = -3 at mu = 3 selects (-3, 0), which is not in the Bergman space;
        # the term itself is square-integrable, as its profile decays
        prof = lambda r1: np.exp(-np.asarray(r1, dtype=float) ** -3.0)
        outside = RadialTerm(prof, -3, 0, Component.FUNCTION)
        res = project(RadialTermFunction(0, (outside,)), P3)
        assert res.coefficients == {}
        assert res.tail_report == "selected monomial (-3, 0) outside the Bergman space; empty result"
        inside = RadialTerm(ones, 1, 2, Component.FUNCTION)
        res = project(RadialTermFunction(0, (inside, outside)), P3)
        assert list(res.coefficients) == [BasisIndex(1, 2, 0, Component.FUNCTION)]
        assert res.tail_report == "selected monomial (-3, 0) outside the Bergman space"
        assert project(RadialTermFunction(0, ()), P3).tail_report == "empty input"

    def test_ratios_reproduce_coefficients(self):
        f = RadialTermFunction(
            0,
            (
                RadialTerm(ones, 1, -1, Component.FUNCTION),
                RadialTerm(ones, 0, 2, Component.FUNCTION),
            ),
        )
        res = project(f, P3)
        assert {(idx.j, idx.k) for idx in res.coefficients} == {(0, 2), (1, -1)}
        for idx, (num, den) in res.ratios.items():
            assert num / den == pytest.approx(res.coefficients[idx].real, rel=1e-14)

    def test_theta2_component_mirrors_function_calculus(self):
        f = RadialTermFunction(1, (RadialTerm(ones, 2, 1, Component.THETA2),))
        res = project(f, P3)
        idx = BasisIndex(2, 1, 1, Component.THETA2)
        assert res.coefficients[idx] == pytest.approx(1.0, rel=1e-10)

    def test_dw1_reproduces_basis_element(self):
        # the dw1 basis element itself: profile 2 mu, a = j - 1
        j, k = 2, -1
        f = RadialTermFunction(
            1, (RadialTerm(lambda r1: 6.0 * ones(r1), j - 1, k, Component.DW1),)
        )
        res = project(f, P3)
        idx = BasisIndex(j, k, 1, Component.DW1)
        assert res.coefficients[idx] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("component", [Component.FUNCTION, Component.DW1])
    def test_one_pass_matches_separate_moments(self, component):
        # project integrates a term's squared norm and its pairing on one
        # mesh; each equals its own radial_moment call
        p = 0 if component is Component.FUNCTION else 1
        prof = lambda r1: np.exp(-np.asarray(r1)) * np.asarray(r1) ** 1.5
        term = RadialTerm(prof, 1, -1, component)
        res = project(RadialTermFunction(p, (term,)), P3)
        scale = 2.0 * P3.mu if component is Component.DW1 else 1.0
        p1 = 2.0 + (2.0 - 2.0 * P3.mu if component is Component.DW1 else 0.0)
        pairing = lambda r1: prof(r1) / scale
        square = lambda r1: prof(r1) ** 2 / (scale * scale)
        joint = measure.radial_moment(
            lambda r1: (square(r1), pairing(r1)), p1, -2.0, P3, rtol=(1e-9, 1e-10)
        )
        alone = [measure.radial_moment(lambda r1: (g(r1),), p1, -2.0, P3, rtol=[rtol])
                 for g, rtol in [(square, 1e-9), (pairing, 1e-10)]]
        for got, [single] in zip(joint, alone):
            assert (got.level, got.converged) == (single.level, True)
            assert got.value == pytest.approx(single.value, rel=1e-14)
        (num, _), = res.ratios.values()
        assert num == pytest.approx(joint[1].value, rel=1e-14)

    def test_one_radial_pass_per_projection(self, monkeypatch):
        # every term of a function, its exponents its own, is integrated in
        # one pass in r1; each coefficient, and the level of each integral,
        # is that of the term's own projection
        decay = lambda r1: np.exp(-np.asarray(r1, dtype=float) ** -3.0)
        bump = lambda r1: np.exp(-np.asarray(r1)) * np.asarray(r1) ** 1.5
        terms = (RadialTerm(ones, 2, 1, Component.THETA2),
                 RadialTerm(bump, 1, -2, Component.DW1),
                 RadialTerm(decay, -3, 0, Component.THETA2),  # selects outside the space
                 RadialTerm(bump, 0, 3, Component.THETA2),
                 RadialTerm(lambda r1: 6.0 * ones(r1), 2, 0, Component.DW1))
        passes, moments = [], []
        nested, radial = measure._nested_r1, measure.radial_moment

        def counting(*args):
            passes.append(1)
            return nested(*args)

        def recording(*args, **kw):
            moments.append(radial(*args, **kw))
            return moments[-1]

        monkeypatch.setattr(measure, "_nested_r1", counting)
        monkeypatch.setattr(measure, "radial_moment", recording)
        joint = project(RadialTermFunction(1, terms), P3)
        assert len(passes) == 1 and len(joint.coefficients) == 4
        assert joint.tail_report == "selected monomial (-3, 0) outside the Bergman space"
        [batched] = moments
        for term in terms:
            moments.clear()
            alone = project(RadialTermFunction(1, (term,)), P3)
            [single] = moments
            assert [(r.level, r.converged) for r in single] == [
                (r.level, r.converged) for r in batched[:len(single)]]
            for got, want in zip(batched, single):
                assert got.value == pytest.approx(want.value, rel=1e-14)
            del batched[:len(single)]
            for idx, c in alone.coefficients.items():
                assert joint.coefficients[idx] == pytest.approx(c, rel=1e-14)
        assert batched == []

    def test_first_non_integrable_term_named(self):
        # with every term integrated in one pass, the error still names the
        # first failing term in term order; a fiber past a double (|b| > 1024)
        # fails its own term alone
        good = RadialTerm(ones, 1, 0, Component.FUNCTION)
        first = RadialTerm(ones, -4, 0, Component.FUNCTION, label="first pole")
        second = RadialTerm(ones, -5, 1, Component.FUNCTION, label="second pole")
        wide = RadialTerm(ones, 1, 1100, Component.FUNCTION, label="wide fiber")
        for terms, name in [((good, first, second), "first pole"),
                            ((good, second, first), "second pole"),
                            ((good, wide, first), "wide fiber"),
                            ((wide,), "wide fiber")]:
            with pytest.raises(NonIntegrableTermError, match=name):
                project(RadialTermFunction(0, terms), P3)

    def test_idempotence(self):
        f = RadialTermFunction(
            0,
            (
                RadialTerm(lambda r1: np.asarray(r1) ** 2, -1, 0,
                           Component.FUNCTION),
                RadialTerm(lambda r1: np.exp(-np.asarray(r1)), 1, 2,
                           Component.FUNCTION),
            ),
        )
        first = project(f, P3)
        # the projection re-expressed as terms: a constant profile c at each monomial
        terms = tuple(RadialTerm(lambda r1, c=c.real: np.full(np.shape(r1), c), idx.j, idx.k,
                                 idx.component) for idx, c in first.coefficients.items())
        second = project(RadialTermFunction(0, terms), P3)
        assert set(first.coefficients) == set(second.coefficients)
        for idx in first.coefficients:
            assert second.coefficients[idx] == pytest.approx(
                first.coefficients[idx], rel=1e-10
            )


class TestGram:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.4, 0.48, 0.49, 0.499])
    def test_identity(self, p, s):
        idx = basis_indices(p, s, P3, 25)
        assert len(idx) == 25
        G = gram_matrix(idx, s, P3)
        off = np.abs(G - np.diag(np.diag(G)))
        assert np.max(off) <= 1e-8
        assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-6

    @pytest.mark.parametrize("mu", [1.5, 3.0, 4.2857142857142856])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("s", [0.48, 0.49, 0.499])
    def test_identity_near_one_half(self, s, mu, p):
        # the fold d = c t^(1/(1 - 2s)) absorbs the fiber weight's endpoint
        # power (cos u2 - r1^mu)^(-2s); a plain level-6 u2 rule is off by
        # 6.7e-7 at s = 0.49 and by 0.24 at 0.499
        params = DomainParams(mu)
        G = gram_matrix(basis_indices(p, s, params, 10), s, params)
        assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-8
        assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-6

    def test_unsettled_table_raises(self):
        # at mu = 20, s = 0.4999 the leading element's norm lam(-10, 0, s)
        # has margin 1e-4, and its r1^(-0.996) edge outruns level 9
        params = DomainParams(20.0)
        idx = basis_indices(0, 0.4999, params, 1)
        with pytest.raises(quadrature.QuadratureError, match="did not settle"):
            gram_matrix(idx, 0.4999, params)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.4, 0.49])
    def test_matches_entry_by_entry_assembly(self, p, s):
        idx = basis_indices(p, s, P3, 25)
        G = gram_matrix(idx, s, P3)
        level = settled_level(idx, s, P3)
        assert np.max(np.abs(G - gram_loop(idx, s, P3, level)[0])) <= 1e-14

    def test_mixed_components_vanish(self):
        idx = [
            BasisIndex(0, 0, 1, Component.THETA2),
            BasisIndex(1, 0, 1, Component.DW1),
            BasisIndex(2, 1, 1, Component.DW1),
        ]
        G = gram_matrix(idx, 0.1, P3)
        assert G[0, 1] == 0.0 and G[0, 2] == 0.0

    @pytest.mark.parametrize("s", [0.0, 0.2, 0.4, 0.49])
    def test_joint_degrees_are_their_own_tables(self, s):
        # verify's Gram check makes one table per weight for p = 0, 1, 2:
        # each diagonal block is that degree's own table, bit for bit, and
        # every entry between two degrees is an exact zero
        per_degree = [basis_indices(p, s, P3, 25) for p in (0, 1, 2)]
        joint = gram_matrix([idx for block in per_degree for idx in block], s, P3)
        assert joint.shape == (75, 75)
        for a, block in enumerate(per_degree):
            rows = slice(25 * a, 25 * (a + 1))
            assert np.array_equal(joint[rows, rows], gram_matrix(block, s, P3))
            others = np.delete(joint[rows], np.s_[25 * a:25 * (a + 1)], axis=1)
            assert others.shape == (25, 50) and not others.any()

    def test_angular_rule_past_256(self):
        # a trapezoid rule of N nodes aliases cos(m phi) to 1 at m = N; 1300
        # elements span 259 in j, past a 256-node rule
        for m in (255, 256, 257, 512, 1000):
            assert abs(bergman._angular_factor(m)) <= 1e-14
        idx = basis_indices(0, 0.0, P3, 1300)
        assert max(i.j for i in idx) - min(i.j for i in idx) >= 256
        G = gram_matrix(idx, 0.0, P3)
        assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-8
        assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-6

    def test_inadmissible_index_rejected(self):
        with pytest.raises(DomainError):
            gram_matrix([BasisIndex(1, 0, 1, Component.DW1)], 0.4, P3)

    def test_level_refinement_stable(self):
        # the table is returned at the level where it settled, and one more
        # level moves it by less than the settling tolerance
        idx = basis_indices(0, 0.2, P3, 9)
        G = gram_matrix(idx, 0.2, P3)
        level = settled_level(idx, 0.2, P3)
        assert np.max(np.abs(G - gram_loop(idx, 0.2, P3, level)[0])) <= 1e-14
        assert np.max(np.abs(G - gram_loop(idx, 0.2, P3, level + 1)[0])) <= 1e-10


class TestBergmanSuite:
    def test_one_table_per_weight_and_one_radial_pass(self, monkeypatch):
        # 4 weights, one Gram table each for the three degrees, and the 18
        # reproducing monomials as one projection: 5 passes in r1
        calls = Counter()

        def counting(name, function):
            def wrapper(*args, **kw):
                calls[name] += 1
                return function(*args, **kw)
            return wrapper

        for name in ("mesh_moments", "radial_moment", "_nested_r1"):
            monkeypatch.setattr(measure, name, counting(name, getattr(measure, name)))
        res = suites.suite_bergman(np.random.default_rng(1))
        assert res.passed and res.checks == 42
        assert calls == {"mesh_moments": 4, "radial_moment": 1, "_nested_r1": 5}

    def test_gram_failures_replay_degree_by_degree(self):
        # at negative tolerances every check fails, in the order and with the
        # messages of one gram_matrix call per (p, s), degree by degree
        res = suites.SuiteResult("bergman")
        suites.check_gram(res, 9, offdiag_tol=-1.0, diag_tol=-1.0)
        expected = []
        for p in (0, 1, 2):
            for s in (0.0, 0.2, 0.4, 0.49):
                G = gram_matrix(basis_indices(p, s, P3, 9), s, P3)
                off = float(np.max(np.abs(G - np.diag(np.diag(G)))))
                diag = float(np.max(np.abs(np.diag(G) - 1.0)))
                expected += [f"p={p} s={s}: offdiag {off:.2e}",
                             f"p={p} s={s}: diag dev {diag:.2e}"]
        assert res.checks == 24 and res.failures == expected
