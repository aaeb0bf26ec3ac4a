"""Weierstrass P / sigma / zeta, the hypergeometric inverses, the P-zero
constant, and the second/third-kind integrals."""

import cmath
import functools
import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abeltau.errors import (AbeltauError, AccuracyError, DomainError, DomainNotSupported,
                            PoleError)
from abeltau.hypergeom import _carlson_rf, gamma_fn
from abeltau.numerics import contour_quadrature, holomorphic_derivatives
from abeltau.weier import (
    EQUIANHARMONIC,
    LEMNISCATIC,
    EllipticInvariants,
    ThirdKindParam,
    integral_second_kind,
    integral_third_kind,
    u0_constant,
    weier_sigma,
    weier_zeta,
    wp,
    wp_inverse_equianharmonic,
    wp_inverse_lemniscatic,
    wp_prime,
)
from abeltau.uniform import CoverConstants
from abeltau.weier import _lattice

LEMNISCATE_HALF_PERIOD = 1.3110287771460599  # Gamma(5/4) Gamma(1/2) / Gamma(3/4)

_COVER = CoverConstants.from_parameters(-1.0, 1j)
FOUR_CURVES = (LEMNISCATIC, EQUIANHARMONIC,
               _COVER.quotient_invariants(1), _COVER.quotient_invariants(-1))


def _roots_mp(inv):
    """The roots of 4x^3 - g2 x - g3; the caller sets 40 digits.  They are
    s times those of 4y^3 - (g2/s^2) y - g3/s^3, whose size polyroots' start
    points suit; s = 1 for invariants up to 1 in size."""
    s = max(1.0, abs(inv.g2) ** 0.5, abs(inv.g3) ** (1.0 / 3.0))
    return [s * y for y in mp.polyroots([4, 0, -mp.mpc(inv.g2) / s**2, -mp.mpc(inv.g3) / s**3],
                                        extraprec=100)]


def _wp_mp(u, inv):
    """(P(u), P'(u)) at 40 digits from Jacobi's sn: with e1, e2, e3 the roots
    of 4x^3 - g2 x - g3, a = sqrt(e1 - e3) and m = (e2 - e3)/(e1 - e3),
    P(u) = e3 + a^2/sn^2(a u | m) (DLMF 23.6(ii)), whose derivative is
    -2 a^3 cn dn/sn^3."""
    with mp.workdps(40):
        e1, e2, e3 = _roots_mp(inv)
        a = mp.sqrt(e1 - e3)
        sn, cn, dn = (mp.ellipfun(f, a * mp.mpc(u), m=(e2 - e3) / (e1 - e3))
                      for f in ("sn", "cn", "dn"))
        return complex(e3 + a**2 / sn**2), complex(-2 * a**3 * cn * dn / sn**3)


def _rf_inverse(z, inv):
    """R_F(z - e1, z - e2, z - e3), a u with P(u) = z (DLMF 19.25(vi))."""
    with mp.workdps(40):
        e1, e2, e3 = (complex(e) for e in _roots_mp(inv))
    return _carlson_rf(z - e1, z - e2, z - e3)


def _lattice_invariants(tau):
    """(g2, g3) of the period lattice Z + tau Z, rounded from 40 digits: the
    Eisenstein series E4 and E6 in q = e^(2 pi i tau), Im tau >= 1."""
    with mp.workdps(40):
        q = mp.exp(2j * mp.pi * mp.mpc(tau))
        e4 = 1 + 240 * mp.fsum(k**3 * q**k / (1 - q**k) for k in range(1, 40))
        e6 = 1 - 504 * mp.fsum(k**5 * q**k / (1 - q**k) for k in range(1, 40))
        return EllipticInvariants(complex(4 * mp.pi**4 / 3 * e4),
                                  complex(8 * mp.pi**6 / 27 * e6))


def _off_lattice(d, inv):
    """Distance from d to the nearest point of the period lattice 2(Z a + Z b)."""
    a, b = _lattice(inv.g2, inv.g3)[:2]
    det = (a * b.conjugate()).imag
    m = round((d * b.conjugate()).imag / det / 2.0)
    n = round(-(d * a.conjugate()).imag / det / 2.0)
    return abs(d - 2.0 * (m * a + n * b))


class TestWpBasics:
    def test_leading_laurent_term(self):
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            assert abs(wp(1e-3, inv) - 1e6) < 1.0

    def test_parity(self):
        u = 0.3 + 0.2j
        assert abs(wp(-u, LEMNISCATIC) - wp(u, LEMNISCATIC)) < 1e-10 * abs(wp(u, LEMNISCATIC))
        assert abs(wp_prime(-u, LEMNISCATIC) + wp_prime(u, LEMNISCATIC)) \
            < 1e-10 * abs(wp_prime(u, LEMNISCATIC))

    def test_differential_equation(self):
        rng = random.Random(99)
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            for _ in range(50):
                u = rng.uniform(0.15, 1.25) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                p = wp(u, inv)
                pp = wp_prime(u, inv)
                resid = abs(pp * pp - (4 * p**3 - inv.g2 * p - inv.g3))
                assert resid < 1e-9 * (1.0 + abs(p) ** 3)

    def test_duplication_consistency(self):
        # P(2u) = lam^2/4 - 2 P(u), lam = (6 P(u)^2 - g2/2)/P'(u)
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            for u in (0.31 + 0.17j, 0.42 - 0.1j):
                direct = wp(2.0 * u, inv)
                p, pp = wp(u, inv), wp_prime(u, inv)
                lam = (6.0 * p * p - 0.5 * inv.g2) / pp
                assert abs(direct - (0.25 * lam * lam - 2.0 * p)) < 1e-8 * (1.0 + abs(direct))

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            wp(0.0, LEMNISCATIC)
        with pytest.raises(PoleError):
            wp(2.0 * LEMNISCATE_HALF_PERIOD, LEMNISCATIC)  # a lattice point

    def test_degenerate_invariants_rejected(self):
        with pytest.raises(DomainError):
            EllipticInvariants(3.0, 1.0)  # g2^3 = 27 g3^2

    @pytest.mark.parametrize("g2, g3", ((math.nan, 1.0), (1.0, complex(0.0, math.inf))))
    def test_non_finite_invariants_rejected(self, g2, g3):
        with pytest.raises(DomainError):
            EllipticInvariants(g2, g3)

    @pytest.mark.parametrize("g2, g3", ((1e300, 0.0), (0.0, 1e200)))
    def test_overflowing_discriminant_rejected(self, g2, g3):
        # finite invariants whose g2^3 or 27 g3^2 is past the float range
        with pytest.raises(DomainError, match="overflows"):
            EllipticInvariants(g2, g3)

    def test_shipped_invariants_unchanged(self):
        assert LEMNISCATIC.as_tuple == (4.0 + 0j, 0j)
        assert EQUIANHARMONIC.as_tuple == (0j, 4.0 + 0j)
        assert EllipticInvariants(4, 0) == LEMNISCATIC
        assert EllipticInvariants(0, 4) == EQUIANHARMONIC


class TestWpLattice:
    """P and P' reduced modulo the half-periods from Carlson's R_F, against
    P from Jacobi's sn at 40 digits."""

    @settings(max_examples=150, deadline=None)
    @given(inv=st.sampled_from([LEMNISCATIC, EQUIANHARMONIC]),
           r=st.floats(0.1, 6.0), phi=st.floats(-math.pi, math.pi))
    # 2 u_equianharmonic_root(0.85i): argument halving was 3.3e-12 off here
    @example(inv=EQUIANHARMONIC, r=2.1888387672220326, phi=0.0)
    def test_against_jacobi_on_the_six_disk(self, inv, r, phi):
        u = r * cmath.exp(1j * phi)
        p_ref, pp_ref = _wp_mp(u, inv)
        assume(abs(p_ref) < 100.0)  # 0.1 or more from every lattice point
        assert abs(wp(u, inv) - p_ref) <= 1e-13 * max(1.0, abs(p_ref))
        assert abs(wp_prime(u, inv) - pp_ref) <= 1e-13 * max(1.0, abs(pp_ref))

    @settings(max_examples=100, deadline=None)
    @given(inv=st.sampled_from([LEMNISCATIC, EQUIANHARMONIC]),
           lam_abs=st.floats(0.05, 20.0), lam_arg=st.floats(-math.pi, math.pi),
           r=st.floats(0.1, 3.0), phi=st.floats(-math.pi, math.pi))
    # (g2, g3) = (2500, 0): argument halving, which sums only at |v| <= 0.5,
    # was 0.14 off here without raising
    @example(inv=LEMNISCATIC, lam_abs=0.2, lam_arg=0.0, r=2.4, phi=0.5)
    @example(inv=EQUIANHARMONIC, lam_abs=0.05, lam_arg=0.3, r=2.0, phi=1.0)
    def test_homogeneity(self, inv, lam_abs, lam_arg, r, phi):
        # P(lam u; lam^-4 g2, lam^-6 g3) = lam^-2 P(u; g2, g3)  (DLMF 23.10.17)
        lam = lam_abs * cmath.exp(1j * lam_arg)
        u = r * cmath.exp(1j * phi)
        p_ref, pp_ref = _wp_mp(u, inv)
        assume(abs(p_ref) < 100.0)
        scaled = EllipticInvariants(inv.g2 * lam**-4, inv.g3 * lam**-6)
        try:
            p, pp = wp(lam * u, scaled), wp_prime(lam * u, scaled)
        except AbeltauError:
            return
        assert abs(lam**2 * p - p_ref) <= 1e-12 * max(1.0, abs(p_ref))
        assert abs(lam**3 * pp - pp_ref) <= 1e-12 * max(1.0, abs(pp_ref))

    @settings(max_examples=100, deadline=None)
    @given(inv=st.sampled_from(FOUR_CURVES), x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
           m=st.integers(-3, 3), n=st.integers(-3, 3))
    def test_rf_inverse_round_trip_across_the_lattice(self, inv, x, y, m, n):
        a, b = _lattice(inv.g2, inv.g3)[:2]
        z = complex(x, y)
        u = _rf_inverse(z, inv) + 2.0 * (m * a + n * b)
        assume(u != 0)
        assert abs(wp(u, inv) - z) <= 1e-13 * max(1.0, abs(z))

    @settings(max_examples=100, deadline=None)
    @given(lemniscatic=st.booleans(), r=st.floats(1.03, 50.0), phi=st.floats(-math.pi, math.pi))
    def test_hypergeometric_inverses_are_rf_modulo_the_lattice(self, lemniscatic, r, phi):
        inverse, inv = ((wp_inverse_lemniscatic, LEMNISCATIC) if lemniscatic
                        else (wp_inverse_equianharmonic, EQUIANHARMONIC))
        x = r * cmath.exp(1j * phi)
        u, w = inverse(x), _rf_inverse(x, inv)
        assert min(_off_lattice(u - w, inv), _off_lattice(u + w, inv)) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(j_abs=st.floats(1.0, 1e6), j_arg=st.floats(-math.pi, math.pi),
           x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
    @example(j_abs=1e6, j_arg=math.pi, x=0.5, y=0.5)  # tau = 1/2 + 2.2i, the longest cell
    def test_never_refused_up_to_j_of_a_million(self, j_abs, j_arg, x, y):
        # g2 = g3 = 27 j/(j - 1728) has the absolute invariant j
        j = j_abs * cmath.exp(1j * j_arg)
        assume(abs(j - 1728.0) > 1e-6)
        c = 27.0 * j / (j - 1728.0)
        inv = EllipticInvariants(c, c)
        a, b = _lattice(c, c)[:2]
        u = 2.0 * (x * a + y * b)
        p_ref, pp_ref = _wp_mp(u, inv)
        assume(abs(p_ref) < 100.0 / abs(a) ** 2)
        p = wp(u, inv)
        assert abs(p - p_ref) <= 1e-12 * max(1.0 / abs(a) ** 2, abs(p_ref))

    def test_reduction_stops_at_a_tie(self):
        # a rotated hexagonal lattice: the reduction computes Re(b/a) as
        # 0.5000000000000001 and -0.5000000000000001 in turn, and looped for
        # ever while it subtracted a whenever that ratio rounded to +-1
        inv = EllipticInvariants(0.0, 6366146.388404077 - 33442060.957685918j)
        for u in (0.05 + 0.02j, -0.11 + 0.07j):
            p_ref, pp_ref = _wp_mp(u, inv)
            assert abs(wp(u, inv) - p_ref) <= 1e-13 * abs(p_ref)
            assert abs(wp_prime(u, inv) - pp_ref) <= 1e-13 * abs(pp_ref)

    def test_laurent_table_past_the_float_range_raises(self):
        # a cell of size 7e-9 whose c_k overflow: P and P' were nan+nanj
        inv = EllipticInvariants(-5.56e-301 - 8.17e-51j, -9.93e9 + 9.48e49j)
        for fn in (wp, wp_prime):
            with pytest.raises(AccuracyError, match="Laurent"):
                fn(0.000946j, inv)

    def test_elongated_lattice_refused(self):
        # tau = 1/2 + 2.45i: |j| = 4.7e6, past what 64 Laurent terms certify
        with pytest.raises(DomainNotSupported):
            wp(0.3, _lattice_invariants(0.5 + 2.45j))

    # Twice the worst error of P over these 40 u, relative to max(1, |P|), at
    # tau of growing |j| up to near the refusal.  Two roots of 4x^3 - g2 x - g3
    # nearly coincide there, and _cubic_roots loses digits that P inherits:
    # with correctly rounded roots the same u stay within 5e-14.  The bounds
    # pin that loss so that it cannot grow unseen.
    @pytest.mark.parametrize("tau, bound", [
        (1j, 5.8e-16),  # |j| = 1.7e3
        (0.5 + 1.5j, 2.3e-14),  # 1.2e4
        (0.5 + 2.2j, 1.9e-12),  # 1.0e6
        (0.3 + 2.3j, 8.5e-12),  # 1.9e6
        (0.5 + 2.39j, 2.3e-11),  # 3.3e6
    ])
    def test_accuracy_envelope_toward_the_refusal(self, tau, bound):
        inv = _lattice_invariants(tau)
        rng = random.Random(1)
        us = [rng.uniform(0.0, 8.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(40)]
        refs = [_wp_mp(u, inv)[0] for u in us]
        worst = max(abs(wp(u, inv) - ref) / max(1.0, abs(ref)) for u, ref in zip(us, refs))
        assert worst <= bound


class TestWpInverses:
    def test_large_argument_asymptotics(self):
        x = 1e4
        assert abs(wp_inverse_lemniscatic(x) * math.sqrt(x) - 1.0) < 1e-4
        assert abs(wp_inverse_equianharmonic(x) * math.sqrt(x) - 1.0) < 1e-4

    def test_round_trips(self):
        for x in (2, 3, 5, 10, 2j, 3j, -2 + 2j, 4 - 3j, 1.5 + 1.5j, 6 + 0.5j):
            u = wp_inverse_lemniscatic(x)
            assert abs(wp(u, LEMNISCATIC) - x) < 1e-9
        for z in (2, 3, 4, 10, 2j, 5j, -2 + 2j, 3 - 2j, 1.2 + 1.2j, 1.5):
            u = wp_inverse_equianharmonic(z)
            assert abs(wp(u, EQUIANHARMONIC) - z) < 1e-9

    def test_domain_refusals(self):
        with pytest.raises(DomainNotSupported):
            wp_inverse_lemniscatic(1.0)  # |1/x^2| = 1 > 0.95
        with pytest.raises(DomainNotSupported):
            wp_inverse_equianharmonic(0.9)

    def test_equianharmonic_inverse_vs_quadrature(self):
        # u(2) = -(1/2) int_inf^2 (u^3-1)^(-1/2) du, oracle row alpha=1,
        # beta=1/2, n=3 rescaled by the sqrt(4) under the curve radical
        from abeltau.hypergeom import IncompleteIntegralSpec, oracle_incomplete_integral

        oracle = oracle_incomplete_integral(
            IncompleteIntegralSpec(1.0, 0.5, 3, 2.0, "from_infinity")
        )
        assert abs(wp_inverse_equianharmonic(2.0) + oracle / 2.0) < 1e-9

    def test_gauss_summation_limit_at_one(self):
        # x -> 1 limit of the lemniscatic inverse: Gamma(5/4)Gamma(1/2)/Gamma(3/4),
        # half the lemniscate constant
        value = (gamma_fn(1.25) * gamma_fn(0.5) / gamma_fn(0.75)).real
        assert abs(value - LEMNISCATE_HALF_PERIOD) < 1e-12
        # quadrature oracle: int_0^1 dt/sqrt(1-t^4) after x = 1/t^2, in s = 1 - t,
        # where 1 - t^4 = s (2 - s) (1 + (1 - s)^2)
        f = lambda s: (s * (2.0 - s) * (1.0 + (1.0 - s) ** 2)) ** -0.5
        quad = contour_quadrature(f, [0.0, 1.0], 1e-11)
        assert abs(quad - LEMNISCATE_HALF_PERIOD) < 1e-9


class TestU0Constant:
    def test_digits_and_exact_real_part(self):
        u0 = u0_constant()
        assert u0.real == 0.0
        assert abs(u0.imag - 1.402182105325) < 5e-12

    def test_wp_zero(self):
        assert abs(wp(u0_constant(), EQUIANHARMONIC)) < 1e-9

    def test_quadrature_along_recorded_path(self):
        # int from +infinity to 0 of du/sqrt(4u^3-4): analytic tail past R,
        # then [R, R e^(0.9 i), 0]; the principal branch of (u^3-1)^(-1/2) is
        # continuous along that polyline.  The integral lands on the rotated
        # P-zero u0 e^(i pi/3) (same modulus as u0; P vanishes there).
        R = 100.0
        tail = -(R**-0.5 + R**-3.5 / 14.0 + 3.0 / 104.0 * R**-6.5)
        f = lambda u: 0.5 * (u**3 - 1.0) ** -0.5
        quad = contour_quadrature(f, [R, R * cmath.exp(0.9j), 0.0], 1e-10)
        total = tail + quad
        u0 = u0_constant()
        assert abs(total - u0 * cmath.exp(1j * math.pi / 3.0)) < 1e-8
        assert abs(wp(total, EQUIANHARMONIC)) < 1e-7
        assert abs(abs(total) - abs(u0)) < 1e-8


class TestSigmaZeta:
    def test_sigma_leading_term(self):
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            assert abs(weier_sigma(1e-2, inv) / 1e-2 - 1.0) < 1e-6

    def test_zeta_leading_term(self):
        assert abs(weier_zeta(1e-3, LEMNISCATIC) - 1e3) < 1e-3

    def test_zeta_derivative_is_minus_wp(self):
        u = 0.4
        (zp,) = holomorphic_derivatives(
            lambda w: weier_zeta(w, LEMNISCATIC), u, 1, 0.15
        )
        assert abs(zp + wp(u, LEMNISCATIC)) < 1e-8

    def test_parity(self):
        u = 0.37 + 0.21j
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            s = weier_sigma(u, inv)
            assert abs(weier_sigma(-u, inv) + s) < 1e-10 * abs(s)
            z = weier_zeta(u, inv)
            assert abs(weier_zeta(-u, inv) + z) < 1e-10 * abs(z)

    def test_domain_and_poles(self):
        with pytest.raises(DomainNotSupported):
            weier_sigma(2.5, LEMNISCATIC)
        with pytest.raises(PoleError):
            weier_zeta(0.0, LEMNISCATIC)


class TestSecondKind:
    def test_matches_quadrature_increment(self):
        z1, z2 = 3.0, 5.0
        delta = integral_second_kind(z2, LEMNISCATIC) - integral_second_kind(z1, LEMNISCATIC)
        # dz/du branch of the inverse is the negative principal root here
        quad = contour_quadrature(
            lambda z: z / (-cmath.sqrt(4.0 * z**3 - 4.0 * z)), [z1, z2], 1e-11
        )
        assert abs(delta - quad) < 1e-8

    def test_sign_branch_parity(self):
        # with the opposite root of u the integral negates (zeta is odd)
        u = wp_inverse_lemniscatic(3.0)
        assert abs(weier_zeta(-u, LEMNISCATIC) + weier_zeta(u, LEMNISCATIC)) < 1e-10

    def test_sqrt_growth_at_infinity(self):
        r1 = integral_second_kind(1e4, LEMNISCATIC) / math.sqrt(1e4)
        r2 = integral_second_kind(4e4, LEMNISCATIC) / math.sqrt(4e4)
        assert abs(r1 - r2) < 0.1 * abs(r1)

    def test_unsupported_invariants(self):
        with pytest.raises(DomainError):
            integral_second_kind(3.0, EllipticInvariants(4.0, 1.0))


class TestThirdKind:
    def test_pair_sum_is_plain_logarithm(self):
        alpha = 0.5
        pa = wp(alpha, LEMNISCATIC)
        z1, z2 = 3.0, 3.8
        both = []
        for z in (z1, z2):
            plus = integral_third_kind(z, ThirdKindParam(alpha), LEMNISCATIC)
            minus = integral_third_kind(z, ThirdKindParam(-alpha), LEMNISCATIC)
            both.append(plus + minus)
        expected = cmath.log((z2 - pa) / (z1 - pa))
        assert abs((both[1] - both[0]) - expected) < 1e-8

    def test_logarithmic_growth_rate(self):
        # coefficient of log|z - P(alpha)| is 1 on the sheet through alpha
        alpha = 0.5
        pa = wp(alpha, LEMNISCATIC)
        param = ThirdKindParam(alpha)
        v1 = integral_third_kind(pa + 1e-3, param, LEMNISCATIC)
        v2 = integral_third_kind(pa + 1e-4, param, LEMNISCATIC)
        rate = (v2 - v1) / math.log(1e-4 / 1e-3)
        assert abs(rate - 1.0) < 0.05

    def test_pole_at_parameter_point(self):
        alpha = 0.5
        pa = wp(alpha, LEMNISCATIC)
        with pytest.raises(PoleError):
            integral_third_kind(pa, ThirdKindParam(alpha), LEMNISCATIC)


@functools.cache
def _gauss_legendre_48(prec):
    return mp.calculus.quadrature.GaussLegendre(mp.mp).get_nodes(0, 1, 5, prec)


class TestSigmaDisk:
    """sigma and zeta on the widened disk |u| <= 2.0, and the third-kind
    integrals that need it, against a 40-digit reference: P from Jacobi's sn,
    zeta(u) = 1/u - int_0^u (P - 1/s^2) ds and
    log(sigma(u)/u) = -int_0^u (u - s)(P - 1/s^2) ds by 48-point Gauss-Legendre
    (the nearest lattice point is beyond 2.6 on the shipped curves, and beyond
    2.1 r in a sample of other invariants, r the scale of their disk, so on
    the disk the rule's error is far below the checks).  tanh-sinh nodes,
    mp.quad's default, would cancel catastrophically in P - 1/s^2 near 0."""

    @staticmethod
    def _zeta_sigma(u, inv):
        """(zeta(u), sigma(u)); the caller sets 40 digits."""
        if inv is LEMNISCATIC:
            e1, e2, e3 = mp.mpf(1), mp.mpf(0), mp.mpf(-1)
        elif inv is EQUIANHARMONIC:
            e1, e2, e3 = mp.mpf(1), mp.expjpi(mp.mpf(2) / 3), mp.expjpi(mp.mpf(-2) / 3)
        else:
            e1, e2, e3 = _roots_mp(inv)
        a, m = mp.sqrt(e1 - e3), (e2 - e3) / (e1 - e3)
        nodes = _gauss_legendre_48(mp.mp.prec)
        u = mp.mpc(u)
        flat = tilted = 0
        for r, w in nodes:
            d = w * (e3 + (e1 - e3) / mp.ellipfun("sn", a * u * r, m=m) ** 2 - 1 / (u * r) ** 2)
            flat += d
            tilted += d * (1 - r)
        return 1 / u - u * flat, u * mp.exp(-u * u * tilted)

    @pytest.mark.parametrize("inv", [LEMNISCATIC, EQUIANHARMONIC])
    def test_sigma_and_zeta_on_the_disk_edge(self, inv):
        rng = random.Random(20)
        for _ in range(4):
            u = rng.uniform(1.7, 1.99) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            with mp.workdps(40):
                zeta, sigma = map(complex, self._zeta_sigma(u, inv))
            assert abs(weier_sigma(u, inv) - sigma) <= 1e-14 * abs(sigma), u
            assert abs(weier_zeta(u, inv) - zeta) <= 5e-14 * abs(zeta), u

    @pytest.mark.parametrize("u", [1e-310, 5e-324j])
    def test_zeta_past_the_float_range_raises(self, u):
        # sigma(u) ~ u is subnormal and zeta ~ 1/u overflows: it was inf+nanj
        with pytest.raises(AccuracyError, match="zeta"):
            weier_zeta(u, LEMNISCATIC)

    @pytest.mark.parametrize("inv", [LEMNISCATIC, EQUIANHARMONIC])
    @pytest.mark.parametrize("modulus", [1.95, 1.985, 1.9885, 1.99, 1.998, 1.9989999999, 1.9999])
    def test_zeta_near_the_edge_is_accurate_or_refused(self, inv, modulus):
        # the Cauchy circle shrinks past |u| = 1.749 and stops at radius 1e-2,
        # |u| = 1.989; at 1.9989999999 (radius 1e-10) zeta was 3.4e-8 off
        u = modulus * cmath.exp(0.7j)
        if modulus > 1.989:
            with pytest.raises(DomainNotSupported):
                weier_zeta(u, inv)
            return
        with mp.workdps(40):
            zeta = complex(self._zeta_sigma(u, inv)[0])
        assert abs(weier_zeta(u, inv) - zeta) <= 1e-13 * abs(zeta)

    @settings(max_examples=15, deadline=None)
    @given(exponent=st.floats(0.7, 30.0), large=st.sampled_from(("g2", "g3", "both")),
           small=st.floats(0.0, 5.0), fraction=st.floats(0.02, 1.2),
           phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
    # sigma was 3.4e-5 off at (1024, 0), zeta 2.0e-9 at (324, 0), both at
    # u = 1.5 e^(i pi/8), and (1e80, 0) overflowed at any u
    @example(exponent=math.log10(1024.0), large="g2", small=0.0, fraction=2.84, phases=(0, 0, 0.39))
    @example(exponent=math.log10(324.0), large="g2", small=0.0, fraction=2.13, phases=(0, 0, 0.39))
    @example(exponent=80.0, large="g2", small=0.0, fraction=0.5, phases=(0, 0, 0.3))
    def test_large_invariants_accurate_or_refused(self, exponent, large, small, fraction,
                                                  phases):
        # the disk of (g2, g3) is |u| <= 2r, r = min(1, (5/|g2|)^(1/4), (5/|g3|)^(1/6)):
        # inside it, and on the way out, each value is within 1e-13 or refused
        big = 10.0**exponent
        g2 = (small if large == "g3" else big) * cmath.exp(1j * phases[0])
        g3 = (small if large == "g2" else big**1.5) * cmath.exp(1j * phases[1])
        inv = EllipticInvariants(g2, g3)
        r = 1.0 / max(1.0, (abs(g2) / 5.0) ** 0.25, (abs(g3) / 5.0) ** (1.0 / 6.0))
        u = 2.0 * r * fraction * cmath.exp(1j * phases[2])
        with mp.workdps(40):
            zeta, sigma = map(complex, self._zeta_sigma(u, inv))
        for f, want, edge in ((weier_sigma, sigma, 1.0), (weier_zeta, zeta, 0.994)):
            try:
                got = f(u, inv)
            except DomainNotSupported:
                assert fraction > 0.999 * edge, (f, u)
                continue
            assert abs(got - want) <= 1e-13 * abs(want), (f, u, got, want)

    @pytest.mark.parametrize("z, alpha, inv", [
        # the integral_third_kind calls of the eval-mix benchmark at seeds 10,
        # 16 and 17, whose |u - alpha| = 1.779, 1.703 and 1.765 passed the old
        # disk radius 1.7
        (-1.1382153083324007 - 0.06117708904412606j, 0.05581080751321401 - 0.7289232434955939j,
         LEMNISCATIC),
        (-0.7289785803931226 - 0.8569431225810548j, -0.35276047054880294 - 0.7023443699744738j,
         LEMNISCATIC),
        (-0.6261300455444924 + 0.930944207789321j, -0.06903282899747484 + 0.7828161042079633j,
         EQUIANHARMONIC),
    ])
    def test_third_kind_beyond_the_old_disk(self, z, alpha, inv):
        with mp.workdps(40):
            x = mp.mpc(z)
            if inv is LEMNISCATIC:
                u = x ** mp.mpf(-0.5) * mp.hyp2f1(0.5, 0.25, 1.25, x**-2)
            else:
                u = x ** mp.mpf(-0.5) * mp.hyp2f1(0.5, mp.mpf(1) / 6, mp.mpf(7) / 6, x**-3)
            assert abs(u - alpha) > 1.7
            zeta_alpha, _ = self._zeta_sigma(alpha, inv)
            ratio = self._zeta_sigma(u - alpha, inv)[1] / self._zeta_sigma(u, inv)[1]
            expected = complex(mp.log(ratio) + zeta_alpha * u)
        got = integral_third_kind(z, ThirdKindParam(alpha), inv)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), (got, expected)
