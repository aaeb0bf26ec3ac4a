"""Weierstrass P / sigma / zeta, the hypergeometric inverses, the P-zero
constant, and the second/third-kind integrals."""

import cmath
import functools
import math
import random

import mpmath as mp
import pytest

from abeltau.errors import DomainError, DomainNotSupported, PoleError
from abeltau.hypergeom import gamma_fn
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
from abeltau.weier import WP_SERIES_RADIUS, _duplicate, _wp_series_pair

LEMNISCATE_HALF_PERIOD = 1.3110287771460599  # Gamma(5/4) Gamma(1/2) / Gamma(3/4)


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
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            for u in (0.31 + 0.17j, 0.42 - 0.1j):
                direct = wp(2.0 * u, inv)
                doubled, _ = _duplicate(wp(u, inv), wp_prime(u, inv), inv.g2)
                assert abs(direct - doubled) < 1e-8 * (1.0 + abs(direct))

    def test_series_radius_calibration(self):
        # direct series at the radius vs one extra halving + duplication
        for inv in (LEMNISCATIC, EQUIANHARMONIC):
            u = WP_SERIES_RADIUS * cmath.exp(0.7j) * 0.98
            p_direct, pp_direct = _wp_series_pair(u, inv)
            p_half, pp_half = _wp_series_pair(u / 2.0, inv)
            p_doubled, pp_doubled = _duplicate(p_half, pp_half, inv.g2)
            assert abs(p_direct - p_doubled) < 1e-12 * (1.0 + abs(p_direct))
            assert abs(pp_direct - pp_doubled) < 1e-12 * (1.0 + abs(pp_direct))

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
    (the nearest lattice point is beyond 2.6, so the rule is exact to 40 digits)."""

    @staticmethod
    def _zeta_sigma(u, inv):
        """(zeta(u), sigma(u)); the caller sets 40 digits."""
        if inv is LEMNISCATIC:
            e1, e2, e3 = mp.mpf(1), mp.mpf(0), mp.mpf(-1)
        else:
            e1, e2, e3 = mp.mpf(1), mp.expjpi(mp.mpf(2) / 3), mp.expjpi(mp.mpf(-2) / 3)
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
