"""Geometry contracts: membership, maps, branch bookkeeping, frames."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergsob import geometry
from bergsob.errors import DomainError
from bergsob.geometry import CoverPoint, DomainParams, ModelPoint

MU_SET = (1.5, 2.0, 2.5, 3.0, 4.2857142857142856)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


class TestContains:
    def test_unit_circle_fiber(self):
        assert geometry.contains(DomainParams(2.0), ModelPoint(0.5, 1.0))

    def test_outside_fiber(self):
        # log e^2 = 2 exceeds arccos(0.25) ~ 1.318
        assert not geometry.contains(DomainParams(2.0), ModelPoint(0.5, math.e))

    def test_axis_excluded(self):
        for mu in MU_SET:
            assert not geometry.contains(DomainParams(mu), ModelPoint(0.0, 1.0))
            assert not geometry.contains(DomainParams(mu), ModelPoint(0.5, 0.0))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            DomainParams(1.0)


class TestRadialBounds:
    def test_collapse_at_outer_edge(self):
        a, b = geometry.radial_bounds(DomainParams(2.0), 1.0 - 1e-12)
        assert a == pytest.approx(1.0, abs=1e-5)
        assert b == pytest.approx(1.0, abs=1e-5)

    def test_full_height_at_inner_edge(self):
        a, b = geometry.radial_bounds(DomainParams(2.0), 1e-12)
        assert a == pytest.approx(math.exp(-math.pi / 4.0), rel=1e-10)
        assert b == pytest.approx(math.exp(math.pi / 4.0), rel=1e-10)

    def test_reciprocal_and_consistent_with_contains(self):
        params = DomainParams(2.0)
        a, b = geometry.radial_bounds(params, 0.5)
        assert a == pytest.approx(math.exp(-math.acos(0.25) / 2.0), rel=1e-14)
        assert a * b == pytest.approx(1.0, rel=1e-14)
        assert geometry.contains(params, ModelPoint(0.5, a * 1.001))
        assert not geometry.contains(params, ModelPoint(0.5, a * 0.999))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            geometry.radial_bounds(DomainParams(2.0), 1.5)


class TestDelta0:
    def test_midplane_value(self):
        # |w2| = 1, |w1|^mu = 1/2: delta0 = 1/2 * (1 - 1/2)
        params = DomainParams(2.0)
        w = ModelPoint(math.sqrt(0.5), 1.0)
        assert geometry.delta0(params, w) == pytest.approx(0.25, rel=1e-13)

    def test_direct_formula(self):
        params = DomainParams(2.0)
        w = ModelPoint(0.5, 1.1)
        expected = 0.25 * (math.cos(math.log(1.1**2)) - 0.25)
        assert geometry.delta0(params, w) == pytest.approx(expected, rel=1e-13)

    def test_vanishes_toward_boundary(self):
        params = DomainParams(2.0)
        vals = []
        for frac in (0.9, 0.99, 0.999, 0.9999):
            u2 = frac * math.acos(0.5**2.0)
            vals.append(geometry.delta0(params, ModelPoint(0.5, math.exp(u2 / 2.0))))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_outside_domain_error(self):
        with pytest.raises(DomainError):
            geometry.delta0(DomainParams(2.0), ModelPoint(0.5, math.e))


class TestRhoTilde:
    def test_torus_is_boundary(self):
        for z2 in (1.0, 0.5 + 0.2j, 3.0j):
            assert abs(geometry.rho_tilde(CoverPoint(0.0, z2))) <= 1e-15

    def test_interior_reference_point(self):
        # z1 = -e^(i log|z2|^2) sits at depth -1
        z2 = 1.3 - 0.4j
        z1 = -cmath.exp(1j * math.log(abs(z2) ** 2))
        assert geometry.rho_tilde(CoverPoint(z1, z2)) == pytest.approx(-1.0, abs=1e-14)

    def test_simple_arithmetic(self):
        assert geometry.rho_tilde(CoverPoint(1.0, 1.0)) == pytest.approx(3.0, abs=1e-14)

    def test_forms_agree(self, rng):
        for _ in range(200):
            z = CoverPoint(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) + 2.5,
            )
            # the defining form |z1 + e^(i log|z2|^2)|^2 - 1 against rho_tilde
            a = abs(z.z1 + cmath.exp(1j * math.log(abs(z.z2) ** 2))) ** 2 - 1.0
            b = geometry.rho_tilde(z)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(z.z1) ** 2)

    def test_z2_zero_rejected(self):
        with pytest.raises(DomainError):
            CoverPoint(1.0, 0.0)


class TestLeviForm:
    def test_flat_on_torus(self):
        assert geometry.levi_form_boundary(CoverPoint(0.0, 2.0)) == 0.0

    def test_positive_off_torus(self):
        # boundary point with x = -1/2, y = sqrt(3)/2: value (rho+1)/|z2|^2
        x = -0.5
        y = math.sqrt(-x * (x + 2.0))
        for z2 in (1.0, 0.5, 2.0 + 1.0j):
            z1 = (x + 1j * y) * cmath.exp(1j * math.log(abs(z2) ** 2))
            val = geometry.levi_form_boundary(CoverPoint(z1, z2))
            assert val == pytest.approx(1.0 / abs(z2) ** 2, rel=1e-12)

    def test_nonnegative_on_samples(self, rng):
        z = geometry.sample_boundary_cover(500, rng)
        assert np.all(geometry.levi_form_boundary(z) >= -1e-10)

    def test_interior_point_rejected(self):
        with pytest.raises(DomainError):
            geometry.levi_form_boundary(CoverPoint(-1.0, 1.0))


class TestLogBranch:
    def test_principal_cases(self):
        assert geometry._log_branch(1.0, 1.0) == 0.0
        assert geometry._log_branch(1.0, -1.0) == pytest.approx(1j * math.pi)

    def test_shifted_window(self):
        # window [2 pi, 4 pi): the logarithm of 1 is 2 pi i
        val = geometry._log_branch(math.exp(math.pi), 1.0)
        assert val == pytest.approx(2j * math.pi)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            geometry._log_branch(1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(1e-3, 1e3),
    re=st.floats(-5, 5),
    im=st.floats(-5, 5),
)
def test_log_branch_window_property(t, re, im):
    zeta = complex(re, im)
    if zeta == 0:
        return
    val = geometry._log_branch(t, zeta)
    offset = val.imag - 2.0 * math.log(t)
    assert 0.0 <= offset < 2.0 * math.pi
    assert cmath.exp(val) == pytest.approx(zeta, rel=1e-12, abs=1e-12)


class TestBiholomorphism:
    @pytest.mark.parametrize("mu", MU_SET)
    def test_round_trips(self, mu, rng):
        params = DomainParams(mu)
        w = geometry.sample_interior(params, 100, rng)
        for k in (0, 1, -2):
            z = geometry.inverse_map(params, w, k)
            assert np.all(geometry.rho_tilde(z) < 0.0)
            v = geometry.forward_map(params, z)
            assert np.all(np.abs(v.w1 - w.w1) <= 1e-12)
            assert np.all(np.abs(v.w2 - w.w2) <= 1e-12)

    def test_defining_function_transport(self, rng):
        params = DomainParams(2.0)
        w = geometry.sample_interior(params, 300, rng)
        z = geometry.inverse_map(params, w)
        v = geometry.forward_map(params, z)
        rho = geometry.rho_tilde(z)
        t = np.abs(v.w1) ** params.mu
        lhs = 4.0 * t * (t - np.cos(np.log(np.abs(v.w2) ** 2)))
        assert np.all(np.abs(rho - lhs) <= 1e-12)
        assert np.all(np.abs(np.abs(z.z1) - 2.0 * t) <= 1e-12)
        assert np.all(np.abs(geometry.delta0(params, v) + rho / 4.0) <= 1e-12)

    def test_deck_transformation_relates_representatives(self):
        params = DomainParams(2.5)
        w = ModelPoint(0.4 + 0.1j, 1.05)
        z0 = geometry.inverse_map(params, w, 0)
        z1 = geometry.inverse_map(params, w, 1)
        mu = params.mu
        assert z1.z1 == pytest.approx(cmath.exp(2j * math.pi * mu) * z0.z1, rel=1e-12)
        assert z1.z2 == pytest.approx(math.exp(math.pi * mu) * z0.z2, rel=1e-12)

    def test_outside_domain_rejected(self):
        params = DomainParams(2.0)
        with pytest.raises(DomainError):
            geometry.inverse_map(params, ModelPoint(0.5, math.e))
        with pytest.raises(DomainError):
            geometry.forward_map(params, CoverPoint(1.0, 1.0))


class TestIsometry:
    def test_identity(self):
        params = DomainParams(2.0)
        z = CoverPoint(-0.5, 1.2)
        out = geometry.isometry_apply(params, 0.0, 0.0, z)
        assert out.z1 == z.z1 and out.z2 == z.z2

    @pytest.mark.parametrize("mu", MU_SET)
    def test_push_forward_identity(self, mu, rng):
        params = DomainParams(mu)
        thetas = np.linspace(-math.pi, math.pi, 5)
        w = geometry.sample_interior(params, 40, rng)
        z = geometry.inverse_map(params, w)
        for t1 in thetas:
            for t2 in (0.0, 1.1):
                zz = geometry.isometry_apply(params, t1, t2, z)
                assert np.all(np.abs(geometry.rho_tilde(zz) - geometry.rho_tilde(z)) <= 1e-12)
                v = geometry.forward_map(params, zz)
                assert np.all(np.abs(v.w1 - cmath.exp(1j * t1) * w.w1) <= 1e-12)
                assert np.all(np.abs(v.w2 - cmath.exp(1j * t2) * w.w2) <= 1e-12)


class TestFrames:
    def test_duality(self, rng):
        for mu in MU_SET:
            params = DomainParams(mu)
            w = geometry.sample_interior(params, 100, rng)
            assert np.all(geometry.frame_at(params, w).duality_residual() <= 1e-12)

    def test_dw1_frame_coefficients(self):
        params = DomainParams(2.0)
        w = ModelPoint(0.4 + 0.2j, 1.1 - 0.3j)
        c1, c2 = geometry.dw1_in_frame(params, w)
        mu = params.mu
        expected = -w.w1 * cmath.exp(1j * math.log(abs(w.w2) ** 2)) / (
            2.0 * mu * abs(w.w1) ** mu
        )
        assert c1 == pytest.approx(expected, rel=1e-14)
        assert c2 == 0.0
        # the same coefficients solve the linear system against the frame
        fr = geometry.frame_at(params, w)
        theta_matrix = np.vstack([fr.theta1, fr.theta2]).T
        solved = np.linalg.solve(theta_matrix, np.array([1.0, 0.0]))
        assert solved[0] == pytest.approx(c1, rel=1e-12)
        assert abs(solved[1]) <= 1e-12
        assert abs(c1) ** 2 == pytest.approx(
            abs(w.w1) ** (2.0 - 2.0 * mu) / (4.0 * mu**2), rel=1e-12
        )

    def test_singular_axis_rejected(self):
        with pytest.raises(DomainError):
            geometry.frame_at(DomainParams(2.0), ModelPoint(0.0, 1.0))


class TestVolumeDensity:
    def test_constant_when_mu_would_be_one(self):
        # exponent 2 mu - 2 > 0 for mu > 1; check the explicit value instead
        params = DomainParams(2.0)
        assert geometry.volume_density(params, ModelPoint(0.5, 1.0)) == pytest.approx(
            16.0 * 0.25, rel=1e-14
        )

    def test_vanishes_at_inner_edge(self):
        params = DomainParams(2.0)
        small = geometry.volume_density(params, ModelPoint(1e-8, 1.0))
        assert small < 1e-14

    def test_axis_rejected(self):
        with pytest.raises(DomainError):
            geometry.volume_density(DomainParams(2.0), ModelPoint(0.5, 0.0))


class TestArrays:
    def test_arrays_match_pointwise_calls(self, rng):
        # the array path against the same functions called point by point
        params = DomainParams(2.5)
        w = geometry.sample_interior(params, 6, rng)
        k = np.array([0, 1, -2, 2, -1, 0])
        t1, t2 = rng.uniform(-math.pi, math.pi, size=(2, 6))
        z = geometry.isometry_apply(params, t1, t2, geometry.inverse_map(params, w, k))
        v = geometry.forward_map(params, z)
        frame = geometry.frame_at(params, w)
        for i in range(6):
            wi = ModelPoint(w.w1[i], w.w2[i])
            zi = geometry.isometry_apply(
                params, t1[i], t2[i], geometry.inverse_map(params, wi, int(k[i]))
            )
            vi = geometry.forward_map(params, zi)
            assert (z.z1[i], z.z2[i]) == pytest.approx((zi.z1, zi.z2), rel=1e-14)
            assert (v.w1[i], v.w2[i]) == pytest.approx((vi.w1, vi.w2), rel=1e-14)
            fi = geometry.frame_at(params, wi)
            assert np.allclose(frame.theta2[:, i], fi.theta2, rtol=1e-14, atol=0.0)
            assert frame.duality_residual()[i] == pytest.approx(
                fi.duality_residual(), abs=1e-15
            )

    def test_one_outside_point_fails_the_array(self):
        params = DomainParams(2.0)
        w = ModelPoint(np.array([0.5, 0.5, 0.3]), np.array([1.0, math.e, 1.0]))
        assert list(geometry.contains(params, w)) == [True, False, True]
        with pytest.raises(DomainError, match="2.718"):
            geometry.delta0(params, w)


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(1.01, 8.0),
    r1=st.floats(1e-6, 1.0, exclude_max=True),
    frac=st.floats(-0.999, 0.999),
)
def test_contains_consistent_with_radial_bounds(mu, r1, frac):
    params = DomainParams(mu)
    a, b = geometry.radial_bounds(params, r1)
    r2 = a * (b / a) ** ((frac + 1.0) / 2.0)  # geometric interpolation in (a, b)
    assert geometry.contains(params, ModelPoint(r1, r2))
