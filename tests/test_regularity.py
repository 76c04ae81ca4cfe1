"""Threshold arithmetic, certificates, witnesses, counterexamples."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergsob import bergman, measure, regularity
from bergsob.errors import DomainError
from bergsob.geometry import DomainParams


class TestThreshold:
    def test_integer_mu_function_case(self):
        rep = regularity.threshold(DomainParams(3.0), 0)
        assert rep.r == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert rep.binding == "mu_clause"

    def test_half_cap_binds_for_forms_at_two(self):
        rep = regularity.threshold(DomainParams(2.0), 1)
        assert rep.r == 0.5
        assert rep.binding == "both"

    def test_fractional_mu_function_case(self):
        rep = regularity.threshold(DomainParams(2.5), 0)
        assert rep.r == 0.5
        assert rep.binding == "one_half"
        assert rep.clause_value == pytest.approx(0.6, abs=1e-15)

    def test_invalid_p(self):
        with pytest.raises(DomainError):
            regularity.threshold(DomainParams(2.0), 3)


class TestMuForThreshold:
    def test_function_case(self):
        mu = regularity.mu_for_threshold(0.3, 0)
        assert mu == pytest.approx(30.0 / 7.0, rel=1e-15)
        assert regularity.threshold(DomainParams(mu), 0).r == pytest.approx(
            0.3, abs=1e-12
        )

    def test_form_case(self):
        assert regularity.mu_for_threshold(0.25, 1) == pytest.approx(4.0, rel=1e-15)

    def test_half_limit(self):
        assert regularity.mu_for_threshold(0.499999, 2) == pytest.approx(
            2.0, rel=1e-5
        )

    def test_range_errors(self):
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(DomainError):
                regularity.mu_for_threshold(bad, 0)

    def test_round_trip_grid(self):
        for r in np.arange(0.05, 0.46, 0.05):
            for p in (0, 1, 2):
                mu = regularity.mu_for_threshold(float(r), p)
                back = regularity.threshold(DomainParams(mu), p).r
                assert abs(back - r) <= 1e-12 and back <= r
                if p == 0:
                    # r = 0.05 included: mu = 20 has threshold exactly 0.05
                    assert math.floor(mu) == math.ceil(1.0 / r)

    @pytest.mark.parametrize("band", [3, 9, 20, 37])
    def test_reciprocal_of_an_integer(self, band):
        # r = 1/l rounds to a threshold above r at mu = l, the floor of band l;
        # band l + 1 realizes r, and a witness at s = r exists there
        r = 1.0 / band
        mu = regularity.mu_for_threshold(r, 0)
        assert regularity.threshold(DomainParams(mu), 0).r <= r
        assert math.floor(mu) in (band, band + 1)
        wit = regularity.divergence_witness(DomainParams(mu), 0, r)
        assert wit.growth.kind == "log"

    def test_threshold_not_rounded_above_r(self):
        # 1/r rounds so that 1/mu lands one ulp above r; a witness at s = r
        # used to be refused as below the threshold
        r, p = 0.4088855203878302, 2
        params = DomainParams(regularity.mu_for_threshold(r, p))
        assert regularity.threshold(params, p).r <= r
        wit = regularity.divergence_witness(params, p, r)
        assert wit.growth.kind == "log"


class TestIntegrabilityBoundary:
    @pytest.mark.parametrize("mu", [1.5, 3.0, 30.0 / 7.0, 20.0, 1e6 + 0.25, 1e15 + 0.5,
                                    2.0**53 - 1.0])
    def test_thresholds_are_correctly_rounded(self, mu):
        # (1 - floor(mu))/mu + 1 cancelled to 0 at mu = 1e17 and lost 5 digits
        # at 1e12; the margin forms 1 + frac(mu) exactly and divides once
        params = DomainParams(mu)
        exact = (1 + Fraction(mu) - math.floor(mu)) / Fraction(mu)
        assert regularity.threshold(params, 0).clause_value == float(exact)
        for p in (1, 2):
            assert regularity.threshold(params, p).clause_value == 1.0 / mu

    @pytest.mark.parametrize("mu", [3.0, 30.0 / 7.0, 20.0, 37.5, 1e6 + 0.25, 2.0**53 - 1.0])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_witness_leaves_the_space_exactly_at_threshold(self, mu, p):
        params = DomainParams(mu)
        r = regularity.threshold(params, p).r
        witness = regularity.witness_index(params, p)
        assert not witness.admissible(r, params)
        assert witness.admissible(math.nextafter(r, 0.0), params)
        m = measure.MomentArgs(witness.moment_x(params), 0.0, r, params)
        assert measure.integrability_margin(m) == 0.0

    def test_witness_at_one_twentieth(self):
        # mu = 20 once had the threshold 0.050000000000000044 and refused s = 0.05
        wit = regularity.divergence_witness(DomainParams(20.0), 0, 0.05)
        assert not wit.index.admissible(wit.s, DomainParams(20.0))
        assert wit.growth.kind == "log"

    def test_tiny_threshold_inverts(self):
        mu = regularity.mu_for_threshold(1e-12, 0)
        back = regularity.threshold(DomainParams(mu), 0).r
        assert back <= 1e-12 and abs(back - 1e-12) <= 1e-15 * 1e-12

    @pytest.mark.parametrize("mu", [2.0**53, 1e17])
    def test_mu_beyond_exact_integers_refused(self, mu):
        with pytest.raises(DomainError):
            DomainParams(mu)

    def test_certificates_just_below_threshold_keep_their_bound(self):
        # the bound formed X - 2s and Y - 4s in plain floating point: a few
        # ulps below the threshold it fell under the sup (about a fifth of
        # these draws) or refused the certificate (another fifth)
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            params = DomainParams(float(np.exp(rng.uniform(math.log(1.2), math.log(1e4)))))
            p = int(rng.integers(0, 3))
            s = regularity.threshold(params, p).r
            for _ in range(int(rng.integers(1, 65))):
                s = math.nextafter(s, -math.inf)
            cert = regularity.continuity_certificate(params, p, s, (3, 1))
            assert cert.sup_ratio <= cert.bound_used, (params.mu, p, s)

    @pytest.mark.parametrize("r", np.round(np.arange(0.05, 0.46, 0.05), 2).tolist())
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_witness_exponent_vanishes_at_threshold(self, r, p):
        # 2x/mu + 2 - 2s left residues such as 8.3e-17 at mu = 20
        params = DomainParams(regularity.mu_for_threshold(r, p))
        wit = regularity.divergence_witness(params, p, regularity.threshold(params, p).r)
        assert wit.analytic_exponent == 0.0
        assert wit.growth.kind == "log"


class TestSharpnessChecks:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_rule(self, p):
        params = DomainParams(regularity.mu_for_threshold(0.2, p))
        cert = regularity.continuity_certificate(params, p, 0.18, (10, 10))
        for s in (0.2, 0.3):
            wit = regularity.divergence_witness(params, p, s)
            assert regularity.sharpness_checks(cert, wit, ratio_slack=1e-9, growth_tol=0.05) == (
                True, True)
            # a log-mode fit against a nonzero exponent, a power fit 0.1 off
            off = dataclasses.replace(wit, analytic_exponent=wit.analytic_exponent + 0.1)
            assert not regularity.sharpness_checks(cert, off, ratio_slack=1e-9,
                                                   growth_tol=0.05)[1]
            # a coefficient off the closed form by more than the error model allows
            growth = dataclasses.replace(wit.growth, coefficient=wit.growth.closed_form * (1 + 1e-10))
            off = dataclasses.replace(wit, growth=growth)
            assert not regularity.sharpness_checks(cert, off, ratio_slack=1e-9,
                                                   growth_tol=0.05)[1]
        over = dataclasses.replace(cert, sup_ratio=cert.bound_used + 2e-9)
        assert regularity.sharpness_checks(over, wit, ratio_slack=1e-9, growth_tol=0.05) == (
            False, True)


class TestDiscontinuity:
    def test_function_threshold_jumps(self):
        # log-spaced integers up to 1e7, where m -+ 1e-9 still round to
        # either side of m
        mus = np.unique(np.round(np.logspace(math.log10(2.0), 7.0, 60))).astype(int)
        assert mus[0] == 2 and mus[-1] == 10**7 and {3, 4} <= set(mus.tolist())
        for m in mus.tolist():
            lo = regularity.threshold(DomainParams(m - 1e-9), 0).r
            hi = regularity.threshold(DomainParams(m + 1e-9), 0).r
            predicted = min(0.5, 2.0 / m) - min(0.5, 1.0 / m)
            assert abs((lo - hi) - predicted) <= 1e-8

    def test_top_degree_threshold_continuous(self):
        for m in (2, 3, 4):
            lo = regularity.threshold(DomainParams(m - 1e-9), 2).r
            hi = regularity.threshold(DomainParams(m + 1e-9), 2).r
            assert abs(lo - hi) <= 1e-8


class TestContinuityCertificate:
    def test_unweighted_sup_is_one(self):
        cert = regularity.continuity_certificate(DomainParams(3.0), 0, 0.0, (10, 10))
        assert cert.sup_ratio == pytest.approx(1.0, abs=1e-12)

    def test_function_case_below_threshold(self):
        cert = regularity.continuity_certificate(DomainParams(3.0), 0, 0.3, (20, 20))
        assert cert.sup_attained_at.j >= -2
        assert cert.sup_ratio <= cert.bound_used + 1e-9

    def test_form_case_shifted_exponent(self):
        cert = regularity.continuity_certificate(DomainParams(2.0), 1, 0.4, (20, 20))
        assert cert.sup_ratio <= cert.bound_used + 1e-9
        assert math.isfinite(cert.sup_ratio)

    def test_monotone_in_s(self):
        params = DomainParams(3.0)
        sups = [
            regularity.continuity_certificate(params, 0, s, (12, 12)).sup_ratio
            for s in (0.0, 0.1, 0.2, 0.3)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))

    def test_refuses_at_threshold(self):
        params = DomainParams(3.0)
        thr = regularity.threshold(params, 0).r
        with pytest.raises(DomainError, match="divergence_witness"):
            regularity.continuity_certificate(params, 0, thr)

    def test_empty_lattice_rejected(self):
        with pytest.raises(DomainError):
            regularity.continuity_certificate(DomainParams(3.0), 0, 0.1, (0, 5))

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("mu", [1.2, 3.0, 4.2857, 7.9])
    @pytest.mark.parametrize("lattice", [(1, 0), (7, 3), (40, 40)])
    def test_half_lattice_matches_full_scan(self, p, mu, lattice):
        # the certificate scans k <= 0 only; an explicit -K..K scan with the
        # same tie-break (lowest j, then lowest k) must give the same bits
        params = DomainParams(mu)
        jmax, kmax = lattice
        ks = np.arange(-kmax, kmax + 1, dtype=float)
        jmin0 = 1 - math.floor(mu)
        families = {0: [(bergman.Component.FUNCTION, jmin0)],
                    1: [(bergman.Component.THETA2, jmin0), (bergman.Component.DW1, 1)],
                    2: [(bergman.Component.DW1, 1)]}[p]
        for frac in (0.0, 0.5, 0.95):
            s = frac * regularity.threshold(params, p).r
            sup, argmax = -math.inf, None
            for comp, jmin in families:
                shift = mu if comp is bergman.Component.DW1 else 0.0
                js = np.arange(jmin, jmax + 1)
                full = measure.lambda_ratio_family(js[:, None] - shift, ks[None, :], s, params)
                i, k = np.unravel_index(np.argmax(full), full.shape)
                if full[i, k] > sup:
                    sup = float(full[i, k])
                    argmax = bergman.BasisIndex(int(js[i]), int(ks[k]), p, comp)
            cert = regularity.continuity_certificate(params, p, s, lattice)
            assert cert.sup_ratio == sup
            assert cert.sup_attained_at == argmax


    # frozen from the log-Gamma kernel that looped over the shift k: the
    # separable kernel must reproduce every certificate bit for bit
    @pytest.mark.parametrize("mu,p,s,sup,bound,at", [
        (1.3, 0, 0.3, "2.5072828566344927", "13.095238095238098", (0, -40, "FUNCTION")),
        (2.7, 1, 0.18518518518518517, "1.8789893567431593", "9.625272331154685", (1, -40, "DW1")),
        (4.2857, 0, 0.28499778332594444, "25.10468032234019", "346.19911663631086", (-3, -40, "FUNCTION")),
        (4.2857, 2, 0.07000023333411111, "1.156755431146196", "2.6279490570082413", (1, -40, "DW1")),
        (7.9, 1, 0.10126582278481011, "3.1244720892530946", "13.017057569296368", (1, -40, "DW1")),
        (7.9, 2, 0.1253164556962025, "60.23600677867359", "333.89639639639097", (1, -40, "DW1")),
        # frozen from the per-family scan: at integer mu the theta2 row j = 1 - mu and
        # the dw1 row j = 1 have the same x and tie bit for bit, and theta2 comes first
        (3.0, 1, 0.3, "14.1187163995979", "196.42857142857133", (-2, -40, "THETA2")),
        (5.0, 1, 0.18, "7.530097116535375", "55.330882352941146", (-4, -40, "THETA2")),
        (3.0 + 2.0**-40, 1, 0.3, "14.11871639963522", "196.42857142916856", (1, -40, "DW1")),
        (40.3, 0, 0.03, "7.486288190425644", "19.183815835368517", (-39, -40, "FUNCTION")),
    ])
    def test_default_lattice_bits_frozen(self, mu, p, s, sup, bound, at):
        cert = regularity.continuity_certificate(DomainParams(mu), p, s)
        assert repr(cert.sup_ratio) == sup
        assert repr(cert.bound_used) == bound
        j, k, comp = at
        assert cert.sup_attained_at == bergman.BasisIndex(j, k, p, bergman.Component[comp])

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_one_ratio_pass_per_certificate(self, p, monkeypatch):
        # every family of degree p is scored in one lambda_ratio_family call
        calls = []
        scored = measure.lambda_ratio_family

        def counting(x, ys, s, params):
            calls.append(np.broadcast_shapes(np.shape(x), np.shape(ys)))
            return scored(x, ys, s, params)

        monkeypatch.setattr(measure, "lambda_ratio_family", counting)
        params = DomainParams(4.2857)
        regularity.continuity_certificate(params, p, 0.5 * regularity.threshold(params, p).r, (9, 5))
        rows = {0: 9 + 4, 1: (9 + 4) + 9, 2: 9}[p]  # theta2/function rows start at j = -3
        assert calls == [(rows, 6)]


class TestDivergenceWitness:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_lambda0_is_the_unweighted_norm(self, p):
        # a float, the witness's closed-form moment at s = 0
        params = DomainParams(3.0)
        w = regularity.divergence_witness(params, p, 0.4)
        m = measure.MomentArgs(w.index.moment_x(params), 0.0, 0.0, params)
        assert type(w.lambda0) is float and w.lambda0 == measure.lambda_closed(m)

    def test_log_mode_at_threshold(self):
        params = DomainParams(3.0)
        w = regularity.divergence_witness(params, 0, 1.0 / 3.0 + 1e-9)
        assert w.index.j == -2 and w.index.k == 0
        assert math.isfinite(w.lambda0) and not w.index.admissible(w.s, params)

    def test_exact_threshold_witness(self):
        params = DomainParams(3.0)
        thr = regularity.threshold(params, 0).r
        w = regularity.divergence_witness(params, 0, thr)
        assert not w.index.admissible(thr, params)
        assert w.growth.kind == "log"

    def test_power_mode_above_threshold(self):
        # mu = 2.5, p = 1, s = 0.45: exponent 2(1-mu)/mu + 2 - 2s = -0.1
        params = DomainParams(2.5)
        w = regularity.divergence_witness(params, 1, 0.45)
        assert w.analytic_exponent == pytest.approx(-0.1, abs=1e-12)
        assert w.growth.kind == "power"
        assert w.growth.exponent == pytest.approx(-0.1, abs=0.05)

    def test_below_threshold_refused(self):
        with pytest.raises(DomainError, match="below the threshold"):
            regularity.divergence_witness(DomainParams(3.0), 0, 0.2)

    def test_witness_is_unique_borderline_row_index(self):
        # every j above the witness stays admissible just below threshold
        params = DomainParams(30.0 / 7.0)
        thr = regularity.threshold(params, 0).r
        witness = regularity.witness_index(params, 0)
        s = thr - 0.02
        for j in range(witness.j, witness.j + 8):
            idx = bergman.BasisIndex(j, 0, 0, bergman.Component.FUNCTION)
            assert idx.admissible(s, params)
        assert not witness.admissible(thr, params)


class TestSmoothCounterexample:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_transport_is_single_witness_coefficient(self, p):
        params = DomainParams(3.0)
        f = regularity.smooth_counterexample(params, p)
        res = bergman.project(f, params)
        witness = regularity.witness_index(params, p)
        assert set(res.coefficients) == {witness}
        assert res.coefficients[witness].real > 0.0

    def test_profile_vanishes_at_inner_edge(self):
        params = DomainParams(3.0)
        f = regularity.smooth_counterexample(params, 0)
        prof = f.terms[0].profile
        r = np.array([1e-3, 1e-2, 0.1])
        vals = prof(r) * r ** f.terms[0].a
        assert np.all(np.isfinite(vals))
        assert vals[0] == 0.0  # exponential beats any monomial pole

    def test_wedge_preserves_coefficient(self):
        params = DomainParams(3.0)
        c1 = bergman.project(regularity.smooth_counterexample(params, 1), params)
        c2 = bergman.project(regularity.smooth_counterexample(params, 2), params)
        v1 = c1.coefficients[regularity.witness_index(params, 1)]
        v2 = c2.coefficients[regularity.witness_index(params, 2)]
        assert v1 == v2

    def test_projection_coefficient_value(self):
        # mu = 3, p = 0: the coefficient is the exp-profile moment over lam(-2,0,0);
        # the numerator against a 30-digit integral with the elementary fiber
        # 2 arccos(r1^mu) of |w2|^0, which shares no formula with measure._fiber
        params = DomainParams(3.0)
        res = bergman.project(regularity.smooth_counterexample(params, 0), params)
        witness = regularity.witness_index(params, 0)
        num, den = res.ratios[witness]
        mu, p1 = 3, 2 * witness.j  # |w1|^(2a) with a = j = -2
        with mpmath.workdps(30):
            integrand = lambda r1: (r1 ** (p1 + 2 * mu - 1) * mpmath.exp(-r1**-mu)
                                    * 2 * mpmath.acos(r1**mu))
            oracle = float(8 * mpmath.pi**2 * mu**2 * mpmath.quad(integrand, [0, 1]))
        lam = measure.lambda_closed(measure.MomentArgs(-2.0, 0.0, 0.0, params))
        assert num == pytest.approx(oracle, rel=1e-10)
        assert den == pytest.approx(lam, rel=1e-14)


class TestSharpnessSandwich:
    @pytest.mark.parametrize("r", [0.2, 0.4])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_both_sides_hold(self, r, p):
        mu = regularity.mu_for_threshold(r, p)
        params = DomainParams(mu)
        cert = regularity.continuity_certificate(params, p, r - 0.02, (20, 20))
        assert cert.sup_ratio <= cert.bound_used + 1e-9
        wit = regularity.divergence_witness(params, p, r)
        assert wit.growth.matches(wit.analytic_exponent, 0.05)


@settings(max_examples=80, deadline=None)
@given(r=st.floats(0.01, 0.499), p=st.sampled_from([0, 1, 2]))
def test_threshold_inversion_property(r, p):
    mu = regularity.mu_for_threshold(r, p)
    assert mu > 1.0
    assert regularity.threshold(DomainParams(mu), p).r == pytest.approx(r, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.01, 0.499), p=st.sampled_from([0, 1, 2]))
def test_threshold_inversion_never_above_r(r, p):
    mu = regularity.mu_for_threshold(r, p)
    back = regularity.threshold(DomainParams(mu), p).r
    assert abs(back - r) <= 1e-12
    # above r only at the bottom of the p = 0 band floor(mu) = l, mu = l
    assert back <= r or (p == 0 and mu == math.floor(mu))
