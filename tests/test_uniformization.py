"""The tau-representations, Schwarz-residual verifier, and covering algebra."""

import cmath
import math

import pytest

from abeltau.errors import (
    AccuracyError,
    CriticalPointError,
    DomainError,
    DomainNotSupported,
    PoleError,
)
from abeltau.modular import (
    hauptmodul_equianharmonic,
    hauptmodul_hyperelliptic,
    hauptmodul_lemniscatic,
    sqrt_theta_ratio,
)
from abeltau.numerics import holomorphic_derivatives
from abeltau.uniform import (
    CoverConstants,
    CurvePoint,
    EQUIANHARMONIC_Z_EQUATION,
    LEMNISCATIC_CHI_EQUATION,
    bracket_schwarzian,
    covering_map,
    eq5_equation,
    k_pm,
    reduce_differential,
    schwarz_residual,
    u_equianharmonic_root,
    u_equianharmonic_rootfree,
    u_hyperelliptic,
    u_lemniscatic,
)
from abeltau.weier import EQUIANHARMONIC, LEMNISCATIC, u0_constant, wp, wp_inverse_lemniscatic

# z(tau) vanishes on the Re = 1/2 line at this height (up to rounding)
ROOTFREE_ZERO_TAU = 0.5 + 0.2886751345948129j


def jet_exp(t):
    """exp on the Taylor jet that bracket_schwarzian passes in."""
    return t.exp()


class TestBracketSchwarzian:
    """f is called on a Taylor jet in tau: arithmetic and the jet's exp work."""

    def test_moebius_annihilated(self):
        mob = lambda t: (2.0 * t + 1.0) / (t - 3.0j)
        assert abs(bracket_schwarzian(mob, 1 + 1j)) < 1e-12

    def test_exponential(self):
        assert abs(bracket_schwarzian(jet_exp, 0.0) + 0.5) < 1e-12
        tau0 = 0.3j
        expected = -cmath.exp(-2.0 * tau0) / 2.0
        assert abs(bracket_schwarzian(jet_exp, tau0) - expected) < 1e-12

    def test_square(self):
        assert abs(bracket_schwarzian(lambda t: t * t, 1.0) + 0.375) < 1e-12

    def test_critical_point(self):
        with pytest.raises(CriticalPointError):
            bracket_schwarzian(lambda t: t * t, 0.0)

    def test_dropping_the_derivatives_raises(self):
        # a jet has no __complex__, so cmath cannot silently take its value
        with pytest.raises(TypeError):
            bracket_schwarzian(cmath.exp, 0.0)

    def test_non_finite_derivative_raises(self):
        with pytest.raises(AccuracyError):
            bracket_schwarzian(lambda t: t * complex(math.inf, 0.0), 1.0)


class TestSchwarzEquationType:
    """The right-hand sides Q of [x, tau] = Q(x) are plain functions of x."""

    def test_rational_evaluation(self):
        for x in (0.3 + 0.1j, 2.0, -0.7j):
            expected = -0.5 * (x**2 + 1.0) ** 2 / (x**3 - x) ** 2
            assert abs(LEMNISCATIC_CHI_EQUATION(x) - expected) < 1e-13 * abs(expected)
        for z in (0.4, 1.3 + 0.2j):
            expected = -0.5 * z * (z**3 + 8.0) / (z**3 - 1.0) ** 2
            assert abs(EQUIANHARMONIC_Z_EQUATION(z) - expected) < 1e-13 * abs(expected)
        u = 0.3 + 0.2j
        assert eq5_equation(LEMNISCATIC)(u) == -2.0 * wp(2.0 * u, LEMNISCATIC)

    def test_singular_set(self):
        for x in (0.0, 1.0, -1.0):
            with pytest.raises(PoleError):
                LEMNISCATIC_CHI_EQUATION(x)
        for k in (0, 1, -1):
            with pytest.raises(PoleError):
                EQUIANHARMONIC_Z_EQUATION(cmath.exp(2j * math.pi * k / 3))

    def test_moebius_solves_trivial_equation(self):
        zero_q = lambda x: 0.0
        mob = lambda t: (t - 1.0) / (2.0 * t + 5.0j)
        r = schwarz_residual(zero_q, mob, 0.8j)
        assert r <= 1e-14, r


class TestHauptmodulEquations:
    def test_lemniscatic_grid(self):
        for tau in (1.2j, 1.1j, 1.3j, 0.1 + 1.2j, -0.1 + 1.25j):
            r = schwarz_residual(LEMNISCATIC_CHI_EQUATION, hauptmodul_lemniscatic, tau)
            assert r <= 1e-8, (tau, r)

    def test_equianharmonic_grid(self):
        for tau in (0.5j, 0.55j, 0.6j, 0.05 + 0.55j, -0.05 + 0.6j):
            r = schwarz_residual(EQUIANHARMONIC_Z_EQUATION, hauptmodul_equianharmonic, tau)
            assert r <= 1e-8, (tau, r)

    def test_equianharmonic_near_cusp(self):
        # near tau = 1.1i the right side is ~6e3; the jets resolve it
        tau = 1.1j
        bracket = bracket_schwarzian(hauptmodul_equianharmonic, tau)
        r = abs(bracket - EQUIANHARMONIC_Z_EQUATION(hauptmodul_equianharmonic(tau)))
        assert r <= 1e-8, r


class TestTauRepresentations:
    def test_lemniscatic_factoring_consistency(self):
        tau = 1 + 0.8j
        composed = wp_inverse_lemniscatic(hauptmodul_lemniscatic(tau))
        assert abs(u_lemniscatic(tau) - composed) < 1e-12

    def test_lemniscatic_inverts_wp_on_grid(self):
        for tau in (1 + 0.8j, 1 + 0.9j, -1 + 0.85j, 1 + 0.75j, 0.98 + 0.8j):
            assert abs(wp(u_lemniscatic(tau), LEMNISCATIC)
                       - hauptmodul_lemniscatic(tau)) < 1e-9, tau

    def test_lemniscatic_eq5_grid(self):
        q = eq5_equation(LEMNISCATIC)
        for tau in (1 + 0.8j, 1 + 0.9j, -1 + 0.85j, 1 + 0.75j, 0.98 + 0.8j):
            r = schwarz_residual(q, u_lemniscatic, tau)
            assert r <= 1e-7, (tau, r)

    def test_lemniscatic_domain_refusal(self):
        with pytest.raises(DomainNotSupported):
            u_lemniscatic(2j)  # |chi| << 1 high on the imaginary axis

    def test_equianharmonic_root_inverts_wp_on_grid(self):
        for tau in (0.55j, 0.6j, 0.65j, 0.75j, 0.85j):
            assert abs(wp(u_equianharmonic_root(tau), EQUIANHARMONIC)
                       - hauptmodul_equianharmonic(tau)) < 1e-9, tau

    def test_equianharmonic_root_refuses_spec_example_point(self):
        # |z(1.2i)| = 1.0048 < 0.95^(-1/3): the series domain excludes it
        with pytest.raises(DomainNotSupported):
            u_equianharmonic_root(1.2j)

    def test_equianharmonic_root_eq5_grid(self):
        q = eq5_equation(EQUIANHARMONIC)
        for tau in (0.55j, 0.6j, 0.65j, 0.75j, 0.85j):
            r = schwarz_residual(q, u_equianharmonic_root, tau)
            assert r <= 1e-7, (tau, r)

    def test_rootfree_small_z_limit(self):
        tau = ROOTFREE_ZERO_TAU
        z = hauptmodul_equianharmonic(tau)
        assert abs(z) < 1e-3
        u = u_equianharmonic_rootfree(tau)
        assert abs(u - u0_constant() - 0.5j * z) < 1e-6

    def test_rootfree_inverts_wp_on_grid(self):
        for tau in (0.5 + 0.6j, 0.5 + 0.65j, 0.5 + 0.7j, 0.5 + 0.75j, 0.5 + 0.8j):
            assert abs(wp(u_equianharmonic_rootfree(tau), EQUIANHARMONIC)
                       - hauptmodul_equianharmonic(tau)) < 1e-9, tau

    def test_rootfree_refuses_spec_example_point(self):
        # |z(1/2 + i)|^3 = 0.9507, marginally past the series gate
        with pytest.raises(DomainNotSupported):
            u_equianharmonic_rootfree(0.5 + 1j)

    def test_rootfree_eq5_grid(self):
        q = eq5_equation(EQUIANHARMONIC)
        for tau in (0.5 + 0.6j, 0.5 + 0.65j, 0.5 + 0.7j, 0.5 + 0.75j, 0.5 + 0.8j):
            r = schwarz_residual(q, u_equianharmonic_rootfree, tau)
            assert r <= 1e-7, (tau, r)

    def test_eq5_bracket_sign_invariance(self):
        # [u,tau] and P(2u) are both even in u, so either sign of +-u passes
        tau = 0.5 + 0.7j
        plus = bracket_schwarzian(u_equianharmonic_rootfree, tau)
        minus = bracket_schwarzian(lambda t: -u_equianharmonic_rootfree(t), tau)
        assert abs(plus - minus) < 1e-9 * abs(plus)

    def test_predicate_gate_in_schwarz_residual(self):
        # the refusal is u_lemniscatic's own gate, met before any bracket sample
        with pytest.raises(DomainNotSupported, match=r"\|chi\(tau\)\|"):
            schwarz_residual(eq5_equation(LEMNISCATIC), u_lemniscatic, 2j)


class TestHyperellipticFamily:
    def test_decay_ordering(self):
        for m in range(4):
            a, b, c = (abs(u_hyperelliptic(m, t)) for t in (3j, 2j, 1.5j))
            assert a < b < c, m

    def test_frozen_value(self):
        v = u_hyperelliptic(0, 1.5j)
        assert abs(v - 1.5677557573854314j) < 1e-12

    def test_m_validation(self):
        for m in (-1, 4, 2.5):
            with pytest.raises(DomainError):
                u_hyperelliptic(m, 1.5j)

    def test_predicate_refusal(self):
        with pytest.raises(DomainNotSupported):
            u_hyperelliptic(0, 0.5j)  # theta ratio ~ 0.97 there

    def test_derivative_identity_spot(self):
        tau = 1.5j
        z = hauptmodul_hyperelliptic(tau)
        (zp,) = holomorphic_derivatives(hauptmodul_hyperelliptic, tau, 1)
        for m in range(4):
            (lhs,) = holomorphic_derivatives(lambda s: u_hyperelliptic(m, s), tau, 1)
            rhs = 1j * z**m * zp / (sqrt_theta_ratio(tau) * cmath.sqrt(1.0 - z**4))
            assert abs(lhs - rhs) < 1e-6 * abs(rhs), m


class TestCoveringAlgebra:
    COVER = CoverConstants.from_parameters(-1.0, 1j)

    def test_k_pm_shipped_curve(self):
        kp, km = k_pm(-1.0, 1j)
        assert abs(kp - (1.0 + math.sqrt(2.0)) / 2.0) < 1e-14
        assert abs(km - (1.0 - math.sqrt(2.0)) / 2.0) < 1e-14

    def test_k_pm_coincident_roots(self):
        kp, km = k_pm(0.3, 0.3)
        assert km == 0.0

    def test_k_pm_zero_parameter(self):
        kp, km = k_pm(0.0, -1.0)
        assert abs(kp - 0.5) < 1e-15 and abs(km - 0.5) < 1e-15

    def test_k_pm_domain(self):
        with pytest.raises(DomainError):
            k_pm(1.0, 1j)

    def test_curve_point_membership(self):
        with pytest.raises(DomainError):
            CurvePoint(1.3, 0.5, 1)
        with pytest.raises(DomainError):
            CurvePoint(1.3, cmath.sqrt(1.3**5 - 1.3), 2)

    def test_e_roots_sum_and_symmetric_functions(self):
        for sign in (1, -1):
            e1, e2, e3 = self.COVER.branch(sign)[2]
            assert abs(e1 + e2 + e3) < 1e-14
            inv = self.COVER.quotient_invariants(sign)
            assert abs(inv.g2 - 5.0 / 3.0) < 1e-12
            assert abs(inv.g3 + sign * 7.0 * math.sqrt(2.0) / 27.0) < 1e-12

    def test_cubic_identity_spot(self):
        for sign in (1, -1):
            inv = self.COVER.quotient_invariants(sign)
            for x in (1.7 + 0.3j, -0.6 + 1.1j, 0.5 - 1.4j):
                y = cmath.sqrt(x**5 - x)
                P, Pp = covering_map(CurvePoint(x, y, sign), self.COVER)
                assert abs(Pp**2 - (4.0 * P**3 - inv.g2 * P - inv.g3)) < 1e-9

    def test_branch_point_maps_to_two_torsion(self):
        for sign in (1, -1):
            e1 = self.COVER.branch(sign)[2][0]
            P, Pp = covering_map(CurvePoint(0.0, 0.0, sign), self.COVER)
            assert abs(Pp) < 1e-10
            assert abs(P - e1) < 1e-10  # the x = 0 fiber lands on -(k+1)/3

    def test_cover_pole(self):
        x = self.COVER.A
        with pytest.raises(PoleError):
            covering_map(CurvePoint(x, cmath.sqrt(x**5 - x), 1), self.COVER)

    def test_reduce_differential_sign_flip(self):
        x = 1.4 + 0.6j
        y = cmath.sqrt(x**5 - x)
        plus = reduce_differential(CurvePoint(x, y, 1), self.COVER)
        # the minus sheet negates the sqrt(A)sqrt(B) shift
        shifted = 0.5 * self.COVER.sqrt_one_minus * (x + self.COVER.s_ab) / y
        assert abs(reduce_differential(CurvePoint(x, y, -1), self.COVER) - shifted) < 1e-15

    def test_reduce_differential_scaling(self):
        # factor ~ x^(-3/2): quadrupling x scales it by ~ 4^(-3/2) = 1/8
        vals = []
        for scale in (100.0, 400.0):
            x = scale * cmath.exp(0.35j)
            y = cmath.sqrt(x**5 - x)
            vals.append(abs(reduce_differential(CurvePoint(x, y, 1), self.COVER)))
        assert abs(vals[1] / vals[0] - 0.125) < 0.05 * 0.125

    def test_reduce_differential_pole(self):
        with pytest.raises(PoleError):
            reduce_differential(CurvePoint(0.0, 0.0, 1), self.COVER)
