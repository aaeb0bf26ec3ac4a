"""Gauss 2F1, Gamma/Beta, elliptic integrals, and the incomplete-integral
identities against their quadrature oracle."""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abeltau import hypergeom
from abeltau.errors import AbeltauError, AccuracyError, DomainError, DomainNotSupported
from abeltau.hypergeom import (
    HypergeometricParams,
    IncompleteIntegralSpec,
    _f21,
    elliptic_F,
    elliptic_K,
    euler_beta,
    gamma_fn,
    gauss_2f1,
    incomplete_integral_2f1,
    oracle_incomplete_integral,
)
from abeltau.numerics import Polyline, _Jet, contour_quadrature, principal_power
from abeltau.registry import REGISTRY


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_params_rejected(self, bad, slot):
        # refused at once, not after the whole term budget of the series
        params = [0.5, 0.25, 1.25]
        params[slot] = bad
        with pytest.raises(DomainError):
            HypergeometricParams(*params)

    # 0 <= a, b <= 1 <= c: the coefficients are positive and non-increasing,
    # so 2F1 has no zero in the unit disk (Enestrom-Kakeya) and a relative
    # error is well defined; the Pfaff series (a, c - b; c) keeps that shape
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), c=st.floats(1.0, 2.0),
           r=st.floats(0.0, 0.95), phi=st.floats(-math.pi, math.pi), pfaff=st.booleans())
    def test_against_mpmath(self, a, b, c, r, phi, pfaff):
        z = cmath.rect(r, phi)
        if pfaff:  # z/(z - 1) is an involution: w in the disk maps to z
            z = z / (z - 1.0)
        # the round trip back to w can round past the disk's edge, where the
        # gate refuses by design; the region is what the gate computes
        assume(abs(z) <= 0.95 or abs(z / (z - 1.0)) <= 0.95)
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(f21(a, b, c, z) - ref) <= 1e-13 * abs(ref)

    def test_max_terms_exhaustion_on_numbers_and_jets(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "_MAX_TERMS", 3)
        for z in (0.5, -3.0, _Jet(0.5, 1.0), _Jet(-3.0, 1.0)):  # series and Pfaff
            with pytest.raises(AccuracyError):
                _f21(0.5, 0.25, 1.25, z)


def complement_region_z(r, s):
    """A z with |z| = r in [0.5, 0.95] and Re z >= 1/2, i.e. |1 - z| <= |z|,
    s in [-1, 1] sweeping its arc."""
    return cmath.rect(r, s * math.acos(0.5 / r))


class TestComplementRoute:
    """_f21 with c = b + 1 where z is nearer to 1 than to 0: the half of the
    disk where the series in z converges slowest."""

    # 0 <= a, b and c = b + 1: positive, non-increasing coefficients for
    # a <= 1, so no zero in the disk and a well-defined relative error
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 3.0),
           r=st.floats(0.5, 0.95), s=st.floats(-1.0, 1.0))
    def test_against_mpmath(self, a, b, r, s):
        z = complement_region_z(r, s)
        assume(abs(z) <= 0.95)  # r = 0.95 can round past the gate's disk
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(a, b, b + 1.0, z))
        assert abs(_f21(a, b, b + 1.0, z) - ref) <= 1e-13 * abs(ref)

    def test_gates_unchanged(self):
        # Re z > 1/2 beyond the series disk stays refused
        for z in (0.96, 0.6 + 0.8j, 0.99):
            with pytest.raises(DomainNotSupported):
                _f21(0.5, 0.25, 1.25, z)


# b real in (0, 3] or complex with Re b in that range and |Im b| <= 1
ROUTE_B = st.one_of(
    st.floats(0.0, 3.0, exclude_min=True),
    st.builds(complex, st.floats(0.0, 3.0, exclude_min=True), st.floats(-1.0, 1.0)),
)
ROUTE_Z = st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(-math.pi, math.pi))


class TestQuadraticRoute:
    """_f21 sums 2F1(1/2, b; b+1 | z) as 2F1(1, 2b; b+1 | w), w = (1 - sqrt(1-z))/2."""

    @settings(max_examples=400, deadline=None)
    @given(b=ROUTE_B, z=ROUTE_Z)
    # near the edge with Re z < 0, where the series in z converges slowest
    @example(b=1.0 / 6.0, z=-0.931 - 0.085j)
    def test_against_mpmath(self, b, z):
        assume(abs(z) <= 0.95)  # |z| = 0.95 can round past the gate's disk
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(0.5, b, b + 1.0, z))
        assert abs(_f21(0.5, b, b + 1.0, z) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("a, b, c", [
        (0.5, 1.0 / 6.0, 7.0 / 6.0),  # 1/6 + 1 == 7/6 in floats, 1/2 + 1/6 + 1/2 is not
        (0.5, 0.875, 1.875),
        (0.5, 0.25 + 0.5j, 1.25 + 0.5j),
        (0.5, 1.0 / 6.0, math.nextafter(7.0 / 6.0, 2.0)),  # c one ulp above b + 1
        (0.5, 0.25, 1.5),
        (0.0, 1.0, 2.0),
        (0.75, 0.25 + 0.5j, 1.25 + 0.5j),
    ])
    def test_route_runs_exactly_when_a_is_half_and_c_is_b_plus_one(self, monkeypatch,
                                                                    a, b, c):
        # the route hands the kernel (1, 2b; c), the series in z (a, b; c)
        calls = []
        series = hypergeom._f21_series
        monkeypatch.setattr(hypergeom, "_f21_series",
                            lambda *args: calls.append(args[:3]) or series(*args))
        params = HypergeometricParams(a, b, c)
        kernel_params = (1.0, 2.0 * b, c) if a == 0.5 and c == b + 1.0 else (a, b, c)
        for z in (0.0, 0.8, -0.8, 0.8j, 0.48 - 0.64j, -0.6 + 0.5j, 0.3 + 0.1j):
            calls.clear()
            value = _f21(a, b, c, z)
            jet = _f21(a, b, c, _Jet(z, 1.0))
            assert calls == [kernel_params] * 2, (z, calls)
            assert abs(value - hypergeom._gauss_2f1(params, complex(z))) <= 1e-14 * abs(value)
            # relative to F itself where a derivative vanishes (a = 0: F = 1)
            for got, want in zip(jet.derivatives(),
                                 hypergeom._gauss_2f1(params, _Jet(z, 1.0)).derivatives()):
                assert abs(got - want) <= 1e-13 * max(abs(want), abs(value)), (z, got, want)


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

    def test_large_arguments_against_mpmath(self):
        # the Lanczos power t^(z+1/2) alone overflows from 142.4 on, Gamma
        # itself past 171.62
        for x in [143.0 + 0.25 * k for k in range(115)] + [150.0, 170.5, 171.6]:
            ref = mpmath.gamma(x)
            assert abs(gamma_fn(x) - ref) <= 2e-13 * ref, x

    @pytest.mark.parametrize("z", [172.5, -171.5, 180.0 + 1.0j])
    def test_past_the_float_range_is_an_abeltau_error(self, z):
        # a value or an AbeltauError, never a bare OverflowError
        try:
            value = gamma_fn(z)
        except AbeltauError:
            return
        ref = complex(mpmath.gamma(z))
        assert abs(value - ref) <= 2e-13 * abs(ref)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-175.0, 0.49), y=st.floats(1.0, 400.0), s=st.sampled_from([1.0, -1.0]))
    # the sine of the reflection overflows here, and Gamma(172.5) there
    @example(x=0.2, y=300.0, s=1.0)
    @example(x=-171.5, y=0.0, s=1.0)
    def test_reflection_in_logs_against_mpmath(self, x, y, s):
        # the condition number of Gamma grows as |z| log|z| (its phase), and
        # so does the bound, above the 2e-13 of the other Gamma tests
        z = complex(x, s * y)
        with mpmath.workdps(40):
            ref = complex(mpmath.gamma(mpmath.mpmathify(z)))
        if abs(ref) < 2.0**-1031:
            with pytest.raises(AccuracyError):
                gamma_fn(z)
            return
        bound = 2e-13 + 1e-15 * abs(z) * math.log(2.0 + abs(z))
        assert abs(gamma_fn(z) - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("a, b", [(150.0, 0.5), (0.5, 150.0),
                                      (2.2250738585072014e-308, 0.125),
                                      (0.125, 2.2250738585072014e-308)])
    def test_beta_against_mpmath_where_gamma_is_large(self, a, b):
        # the second pair: Gamma(a) Gamma(b) = 3.4e308 overflows, B = 4.49e307
        ref = complex(mpmath.beta(a, b))
        assert abs(euler_beta(a, b) - ref) <= 2e-13 * abs(ref)

    def test_beta_past_the_float_range_raises(self):
        with pytest.raises(AccuracyError):
            euler_beta(5e-324, 5e-324)

    def test_beta_pole(self):
        with pytest.raises(DomainError):
            euler_beta(0.5, -0.5)  # a + b = 0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_arguments_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)
        with pytest.raises(DomainError):
            euler_beta(bad, 0.5)
        with pytest.raises(DomainError):
            euler_beta(0.5, bad)


class TestEllipticIntegrals:
    def test_complete_at_zero(self):
        assert abs(elliptic_K(0.0) - math.pi / 2.0) < 1e-15

    def test_incomplete_at_one_is_complete(self):
        k = 0.3
        assert abs(elliptic_F(1.0, k) - elliptic_K(k)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)),
        k=st.one_of(st.floats(0.0, 0.95), st.floats(0.0, 2.0).map(lambda y: 1j * y),
                    st.floats(0.95, 1.0 - 1e-9)),
    )
    @example(x=1.0 - 2.0**-53, k=0.95)  # quadrature straight to x was 1.6e-9 off here
    @example(x=1.0, k=1.0 - 1e-7)  # the endpoint fit was 2e-4 off here
    @example(x=-1.0, k=1.0 - 1e-9)
    # the principal root of the integrand's product jumps along this path
    @example(x=1.9 + 0.1j, k=-0.3 - 0.8j)
    def test_incomplete_matches_mpmath(self, x, k):
        # at 15 digits k^2 rounds, and near k = 1 the reference is 2e-11 off
        with mpmath.workdps(40):
            ref = complex(mpmath.ellipf(mpmath.asin(x), mpmath.mpmathify(k) ** 2))
        assert abs(elliptic_F(x, k) - ref) <= 1e-10 * (1.0 + abs(ref))

    @pytest.mark.parametrize("x", [1.0, -1.0])
    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_divergent_endpoint_raises(self, x, k):
        # F(+-1; +-1) diverges: both branch points of the integrand meet at t = x
        with pytest.raises(DomainError):
            elliptic_F(x, k)

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

    @pytest.mark.parametrize("k", (math.nan, complex(1.0, math.nan), complex(0.0, math.inf)))
    def test_non_finite_modulus_rejected(self, k):
        with pytest.raises(DomainError):
            elliptic_K(k)

    def test_agm_that_does_not_converge_raises(self):
        # 1 - k^2 overflows to inf, and R_F's duplication never converges
        with pytest.raises(AccuracyError):
            elliptic_K(1e200j)


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

    @pytest.mark.parametrize("base", ["from_zero", "from_infinity"])
    @pytest.mark.parametrize("alpha, beta, z", [
        (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, complex(math.inf, 0.0)),
        (complex(0.5, math.inf), 0.5, 0.5), (0.5, 0.5, complex(0.5, math.nan)),
    ])
    def test_non_finite_parameters_rejected(self, alpha, beta, z, base):
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(alpha, beta, 2, z, base)

    def test_from_infinity_at_zero_rejected(self):
        # neither 1/z, the oracle's endpoint, nor z^-n exists there
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(0.5, 0.5, 2, 0.0, "from_infinity")

    def test_named_tuple_coerces_and_validates_on_replace(self):
        spec = IncompleteIntegralSpec(0.5, 0.5, 2, 3, "from_infinity")
        assert repr(spec) == ("IncompleteIntegralSpec(alpha=(0.5+0j), beta=(0.5+0j), n=2,"
                              " z=(3+0j), base='from_infinity')")
        assert spec._fields == ("alpha", "beta", "n", "z", "base")
        assert repr(spec._replace(z=2)).endswith("z=(2+0j), base='from_infinity')")
        with pytest.raises(DomainError):
            spec._replace(z=0.0)
        with pytest.raises(AttributeError):
            spec.z = 2.0


@st.composite
def oracle_specs(draw):
    """An oracle spec whose base-point exponent e has Re(e) in [-0.99, 0),
    with complex alpha and |endpoint| <= 0.9 in the integration variable."""
    re_e = draw(st.one_of(st.just(-0.99), st.floats(-0.99, 0.0, exclude_max=True)))
    im_alpha = draw(st.floats(-1.0, 1.0))
    beta = draw(st.floats(-1.0, 1.5))
    n = draw(st.integers(1, 4))
    w = draw(st.floats(1e-3, 0.9)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    if draw(st.booleans()):
        return IncompleteIntegralSpec(1.0 + re_e + 1j * im_alpha, beta, n, w, "from_zero")
    alpha = n * beta - 1.0 - re_e + 1j * im_alpha
    return IncompleteIntegralSpec(alpha, beta, n, 1.0 / w, "from_infinity")


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

    @settings(max_examples=100, deadline=None)
    @given(spec=oracle_specs())
    # exponent -0.95: tanh-sinh without the substitution u = v1 w^(1/g) needs
    # nodes beyond |t| = 4 here
    @example(spec=IncompleteIntegralSpec(0.05, 0.3, 2, 0.5 + 0.2j, "from_zero"))
    def test_oracle_matches_closed_form_on_its_domain(self, spec):
        ref = incomplete_integral_2f1(spec)
        try:
            got = oracle_incomplete_integral(spec)
        except AbeltauError:
            return
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    @pytest.mark.parametrize("spec", [
        IncompleteIntegralSpec(0.01, 0.3, 2, 0.5 + 0.2j, "from_zero"),
        IncompleteIntegralSpec(0.59 - 0.3j, 0.3, 2, 2.0 - 1.0j, "from_infinity"),
    ])
    def test_oracle_accurate_as_exponent_nears_minus_one(self, spec):
        # base-point exponent -0.99 (+ 0.3i for the second): the substitution
        # u = v1 w^(1/0.01) leaves a bounded integrand in w
        ref = incomplete_integral_2f1(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_oracle_overflow_is_an_accuracy_error(self):
        # (1 - u)^-300 leaves the float range as u nears z = 0.999
        with pytest.raises(AccuracyError):
            oracle_incomplete_integral(IncompleteIntegralSpec(1.0, 300.0, 1, 0.999, "from_zero"))

    @pytest.mark.parametrize("z", [1e-200, complex(1e-200, -0.0)])
    @pytest.mark.parametrize("evaluate", [incomplete_integral_2f1, oracle_incomplete_integral])
    def test_tiny_from_infinity_argument_is_refused(self, evaluate, z):
        # z^-2 overflows and |z|^2, the oracle's divisor for 1/z, underflows
        with pytest.raises(DomainNotSupported):
            evaluate(IncompleteIntegralSpec(0.5, 0.5, 2, z, "from_infinity"))

    @pytest.mark.parametrize("alpha, n", [(0.5, 2), (0.3, 1)])
    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_oracle_keeps_the_sign_of_a_zero_imaginary_part(self, alpha, n, imag):
        # z = -2 -0i lies on the cut with argument -pi; 1/z must get argument
        # +pi, which plain complex division loses
        spec = IncompleteIntegralSpec(alpha, 0.5, n, complex(-2.0, imag), "from_infinity")
        ref = incomplete_integral_2f1(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-9 * (1.0 + abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), from_zero=st.booleans(), beta=st.floats(0.1, 0.9),
           radius=st.floats(0.3, 0.9), angle=st.floats(-math.pi, math.pi),
           e=st.floats(-0.8, -0.1, exclude_min=True, exclude_max=True))
    def test_oracle_matches_closed_form_on_the_benchmark_region(
            self, n, from_zero, beta, radius, angle, e):
        # base-point exponent e, endpoint w in the integration variable
        w = radius * cmath.exp(1j * angle)
        if from_zero:
            spec = IncompleteIntegralSpec(1.0 + e, beta, n, w, "from_zero")
        else:
            spec = IncompleteIntegralSpec(n * beta - 1.0 - e, beta, n, 1.0 / w, "from_infinity")
        ref = incomplete_integral_2f1(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_fused_integrands_match_the_principal_power_products(self, monkeypatch):
        # each integrand takes one exp of a sum of principal logs; the
        # reference multiplies the principal powers as written in the docstring
        captured = []
        monkeypatch.setattr(hypergeom, "contour_quadrature",
                            lambda f, path, tol: captured.append(f) or 0j)
        rng = random.Random(20240611)
        worst = 0.0
        for _ in range(200):
            n, beta, e = rng.randint(1, 4), rng.uniform(0.1, 0.9), rng.uniform(-0.8, -0.1)
            z = rng.uniform(0.3, 0.9) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            if rng.random() < 0.5:
                spec = IncompleteIntegralSpec(1.0 + e, beta, n, z, "from_zero")
            else:
                spec = IncompleteIntegralSpec(n * beta - 1.0 - e, beta, n, 1.0 / z, "from_infinity")
                z = 1.0 / spec.z
            v1 = 0.5 * z * cmath.exp(0.3j)  # the bend of a two-segment path
            captured.clear()
            oracle_incomplete_integral(spec, Polyline([0.0, v1, z]))
            mapped, integrand = captured
            # the exponent as the oracle forms it, so that only the fusion differs
            x = spec.alpha - 1.0 if spec.base == "from_zero" else n * spec.beta - spec.alpha - 1.0
            g = 1.0 + x.real
            scale, spin = principal_power(v1, x + 1.0) / g, 1j * x.imag / g
            for _ in range(5):
                w = rng.choice((rng.random(), 10.0 ** rng.uniform(-300.0, 0.0)))
                u = v1 * principal_power(w, 1.0 / g)
                ref = scale * principal_power(w, spin) * principal_power(1.0 - u**n, -spec.beta)
                worst = max(worst, abs(mapped(complex(w)) - ref) / abs(ref))
                u = v1 + rng.random() * (z - v1)
                ref = principal_power(u, x) * principal_power(1.0 - u**n, -spec.beta)
                worst = max(worst, abs(integrand(u) - ref) / abs(ref))
        assert worst <= 1e-15, worst

    @pytest.mark.parametrize("spec, path", [
        # mapped leg: the midpoint w = 1/2 gives u = 2 w = 1
        (IncompleteIntegralSpec(1.0, 0.5, 1, 2.0, "from_zero"), None),
        # second leg: the midpoint of [1/2, 3/2] is u = 1, for n = 1 and 2
        (IncompleteIntegralSpec(1.0, 0.5, 1, 1.5, "from_zero"), Polyline([0.0, 0.5, 1.5])),
        (IncompleteIntegralSpec(1.0, 0.5, 2, 1.5, "from_zero"), Polyline([0.0, 0.5, 1.5])),
        # second leg through u = 0, with a negative exponent there
        (IncompleteIntegralSpec(0.5, 0.5, 1, -1j, "from_zero"), Polyline([0.0, 1j, -1j])),
    ])
    def test_node_at_a_zero_base_is_a_domain_error(self, spec, path):
        # 1 - u^n (or u) is exactly 0 at a node: the principal power of 0 to
        # a negative exponent, not a bare ValueError from the logarithm
        with pytest.raises(DomainError, match="zero base"):
            oracle_incomplete_integral(spec, path)

    def test_oracle_sample_count_on_eq12_rows(self, monkeypatch):
        # a cost guard: these rows take 56-109 samples each from the base point
        evals = [0]

        def counting(f, path, tol):
            def g(z):
                evals[0] += 1
                return f(z)
            return contour_quadrature(g, path, tol)

        monkeypatch.setattr(hypergeom, "contour_quadrature", counting)
        for spec in REGISTRY["eq12-oracle"].samples:
            evals[0] = 0
            oracle_incomplete_integral(spec, tol=1e-10)
            assert evals[0] < 300, spec
