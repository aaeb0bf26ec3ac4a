"""Gauss 2F1, Gamma/Beta, elliptic integrals, and the incomplete-integral
identities against their quadrature oracle."""

import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeltau.errors import DomainError, DomainNotSupported
from abeltau.hypergeom import (
    HypergeometricParams,
    IncompleteIntegralSpec,
    elliptic_F,
    elliptic_K,
    euler_beta,
    gamma_fn,
    gauss_2f1,
    incomplete_integral_2f1,
    oracle_incomplete_integral,
)
from abeltau.numerics import Polyline


def f21(a, b, c, z):
    return gauss_2f1(HypergeometricParams(a, b, c), z)


class TestGauss2F1:
    def test_empty_sum_at_zero(self):
        assert f21(0.3 + 0.1j, -2.0, 1.7, 0.0) == 1.0

    def test_log_closed_form(self):
        assert abs(f21(1, 1, 2, 0.5) - 2.0 * math.log(2.0)) < 1e-14

    def test_lemniscatic_argument_frozen(self):
        # cross-checked against the from-infinity quadrature oracle at x = 2
        assert abs(f21(0.5, 0.25, 1.25, 0.25) - 1.0280568010521267) < 1e-14

    def test_pfaff_agrees_with_series_on_overlap(self):
        # 0.5 <= |z| <= 0.6, Re z < 0: both routes converge
        for z in (-0.55, -0.3 - 0.45j, -0.5 + 0.2j, -0.35 + 0.4j):
            params = HypergeometricParams(0.5, 0.25, 1.25)
            series = gauss_2f1(params, z)
            w = z / (z - 1.0)
            assert abs(w) <= 0.95
            pfaff = (1.0 - z) ** -0.5 * f21(0.5, 1.0, 1.25, w)
            assert abs(series - pfaff) < 1e-10 * abs(series)

    def test_pfaff_region_reachable(self):
        # |z| > 0.95 but z/(z-1) small: the Pfaff route must engage
        z = -3.0
        v = f21(0.5, 0.25, 1.25, z)
        w = z / (z - 1.0)
        expected = (1.0 - z) ** -0.5 * f21(0.5, 1.0, 1.25, w)
        assert abs(v - expected) < 1e-13 * abs(v)

    def test_domain_refusal(self):
        with pytest.raises(DomainNotSupported):
            f21(0.5, 0.25, 1.25, 5.0)
        with pytest.raises(DomainNotSupported):
            f21(0.5, 0.25, 1.25, 0.99)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, -3.0)


class TestGammaBeta:
    def test_half_integer_values(self):
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
        assert abs(gamma_fn(-0.5) + 2.0 * math.sqrt(math.pi)) < 1e-13

    def test_against_stdlib_gamma(self):
        for x in (1.0 / 6.0, 1.0 / 3.0, 0.25, 0.75, 1.25, 4.5, 7.0):
            assert abs(gamma_fn(x) - math.gamma(x)) < 5e-14 * math.gamma(x)

    def test_complex_value_frozen(self):
        expected = 0.4980156681183560 - 0.1549498283018107j
        assert abs(gamma_fn(1 + 1j) - expected) < 1e-13

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma_fn(z)

    def test_beta_trivial(self):
        assert abs(euler_beta(1.0, 1.0) - 1.0) < 1e-12

    def test_beta_half_half(self):
        assert abs(euler_beta(0.5, 0.5) - math.pi) < 1e-12

    def test_beta_sixth_third(self):
        # published truncation 6 * 1.402182105325 = 8.41309263195
        v = euler_beta(1.0 / 6.0, 1.0 / 3.0)
        assert abs(v - 8.413092631952726) < 1e-11
        assert abs(v - 6.0 * 1.402182105325) < 5e-11

    def test_beta_symmetric_as_computed(self):
        for a, b in ((0.3 + 0.2j, 1.7 - 0.4j), (1.0 / 6.0, 1.0 / 3.0)):
            assert euler_beta(a, b) == euler_beta(b, a)

    def test_beta_pole(self):
        with pytest.raises(DomainError):
            euler_beta(0.5, -0.5)  # a + b = 0


class TestEllipticIntegrals:
    def test_complete_at_zero(self):
        assert abs(elliptic_K(0.0) - math.pi / 2.0) < 1e-15

    def test_incomplete_at_one_is_complete(self):
        k = 0.3
        assert abs(elliptic_F(1.0, k) - elliptic_K(k)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)),
        k=st.one_of(st.floats(0.0, 0.95), st.floats(0.0, 2.0).map(lambda y: 1j * y)),
    )
    @example(x=1.0 - 2.0**-53, k=0.95)  # quadrature straight to x was 1.6e-9 off here
    def test_incomplete_matches_mpmath(self, x, k):
        ref = complex(mpmath.ellipf(mpmath.asin(x), mpmath.mpmathify(k) ** 2))
        assert abs(elliptic_F(x, k) - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_frozen_value_for_u0_cross_check(self):
        k = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(2.0))
        assert abs(elliptic_K(k) - 1.5981420021125401) < 1e-13

    def test_complex_modulus_agm_vs_quadrature(self):
        k = 0.3j
        assert abs(elliptic_K(k) - elliptic_F(1.0, k)) < 1e-9

    def test_modulus_on_forbidden_ray(self):
        for k in (1.0, 1.5, -2.0):
            with pytest.raises(DomainError):
                elliptic_K(k)


class TestIncompleteIntegralSpec:
    def test_base_invariants(self):
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(-0.5, 0.5, 2, 1.0, "from_zero")
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(2.0, 0.5, 2, 3.0, "from_infinity")  # Re(nb-a) < 0
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(0.5, 0.5, 0, 1.0, "from_zero")
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(0.5, 0.5, 2, 1.0, "midpoint")


class TestIncompleteIntegrals:
    def test_equianharmonic_from_zero_display(self):
        # alpha=1, beta=1/2, n=3: twice the i/2 z 2F1(1/2,1/3;4/3|z^3) display
        z = 0.6
        got = incomplete_integral_2f1(IncompleteIntegralSpec(1.0, 0.5, 3, z, "from_zero"))
        display = 0.5j * z * f21(0.5, 1.0 / 3.0, 4.0 / 3.0, z**3)
        assert abs(got - 2.0 * display) < 1e-13 * abs(got)

    def test_lemniscatic_from_infinity_reproduces_inverse(self):
        from abeltau.weier import wp_inverse_lemniscatic

        got = incomplete_integral_2f1(IncompleteIntegralSpec(0.5, 0.5, 2, 2.0, "from_infinity"))
        assert abs(got + 2.0 * wp_inverse_lemniscatic(2.0)) < 1e-12

    def test_trivial_unit_integrand(self):
        got = oracle_incomplete_integral(IncompleteIntegralSpec(1.0, 0.0, 1, 0.7, "from_zero"))
        assert abs(got - 0.7) < 1e-10

    def test_arcsine_phase_and_value(self):
        # real part of e^(-i pi/2) * integral = 2 arcsin(sqrt(1/2)) = pi/2
        got = oracle_incomplete_integral(IncompleteIntegralSpec(0.5, 0.5, 1, 0.5, "from_zero"))
        assert abs(got - 0.5j * math.pi) < 1e-9

    def test_oracle_is_the_lemniscatic_integral(self):
        spec = IncompleteIntegralSpec(0.5, 0.5, 2, 3.0, "from_infinity")
        quad = oracle_incomplete_integral(spec)
        closed = incomplete_integral_2f1(spec)
        assert abs(quad - closed) < 1e-9 * (1.0 + abs(closed))

    def test_oracle_path_independence_within_branch_region(self):
        spec = IncompleteIntegralSpec(0.5, 0.5, 1, 0.5, "from_zero")
        straight = oracle_incomplete_integral(spec)
        bent = oracle_incomplete_integral(spec, Polyline([0.0, 0.2 + 0.1j, 0.5]))
        assert abs(straight - bent) < 1e-9

    def test_formula_branch_matches_oracle_on_real_interval(self):
        # the e^(i pi beta) convention is pinned by agreement for z in (0, 1)
        for z in (0.3, 0.6, 0.85):
            spec = IncompleteIntegralSpec(0.75, 0.5, 2, z, "from_zero")
            closed = incomplete_integral_2f1(spec)
            quad = oracle_incomplete_integral(spec)
            assert abs(closed - quad) < 1e-9 * (1.0 + abs(closed)), z
