"""tau-representations of the base Abelian integrals, the bracket-Schwarzian
residual verifier, and the Jacobi-Legendre covering algebra of the genus-2
curve w^2 = z^5 - z.

Branch policy: every square root of a theta quotient goes through
sqrt_theta_ratio (a ratio of holomorphic series, hence tau-continuous); all
remaining roots are principal, with the +- cover sign an explicit parameter.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable

from .errors import CriticalPointError, DomainError, DomainNotSupported, PoleError
from .hypergeom import _f21
from .modular import (
    hauptmodul_equianharmonic,
    theta2,
    theta3,
    _tau_value,
)
from .numerics import _Jet, _value_type, principal_power
from .weier import EllipticInvariants, u0_constant, wp

__all__ = [
    "CurvePoint",
    "CoverConstants",
    "LEMNISCATIC_CHI_EQUATION",
    "EQUIANHARMONIC_Z_EQUATION",
    "eq5_equation",
    "bracket_schwarzian",
    "u_lemniscatic",
    "u_equianharmonic_root",
    "u_equianharmonic_rootfree",
    "u_hyperelliptic",
    "schwarz_residual",
    "covering_map",
    "reduce_differential",
    "k_pm",
]

# Convergence regions of the shipped uniformizers.  Each u_* function tests
# its own region and refuses a point outside it, never extrapolates.
LEMNISCATIC_PREDICATE_MODULUS = 1.0 / 0.95          # |chi(tau)| must exceed this
EQUIANHARMONIC_ROOT_PREDICATE_MODULUS = 0.95 ** (-1.0 / 3.0)
ROOTFREE_PREDICATE_CUBE = 0.95                      # |z(tau)|^3 at most this
HYPERELLIPTIC_PREDICATE_RATIO = 0.95                # |theta2^4/theta3^4| at most this

# The right-hand sides Q of the bracket equations [x, tau] = Q(x).  The
# rational ones are evaluated in Horner form; each raises PoleError at its
# singular points.

_CUBE_ROOTS_OF_UNITY = (1.0, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3))


def LEMNISCATIC_CHI_EQUATION(x: complex) -> complex:
    """Q(x) = -(1/2)(x^2+1)^2 / (x^3-x)^2, singular at the branch points 0, +-1."""
    x = complex(x)
    if x in (0.0, 1.0, -1.0):
        raise PoleError(f"Q(lemniscatic-chi) is singular at {x!r}")
    num = (((-0.5 * x) * x - 1.0) * x) * x - 0.5
    den = ((((x * x - 2.0) * x) * x + 1.0) * x) * x
    return num / den


def EQUIANHARMONIC_Z_EQUATION(x: complex) -> complex:
    """Q(x) = -(1/2) x(x^3+8) / (x^3-1)^2, singular at the cube roots of unity."""
    x = complex(x)
    if x in _CUBE_ROOTS_OF_UNITY:
        raise PoleError(f"Q(equianharmonic-z) is singular at {x!r}")
    num = (((-0.5 * x) * x) * x - 4.0) * x
    den = ((((x * x) * x - 2.0) * x) * x) * x + 1.0
    return num / den


def eq5_equation(inv: EllipticInvariants) -> Callable[[complex], complex]:
    """Q(u) = -2 P(2u; g2, g3) of the torus-form equation [u, tau] = Q(u)."""
    return lambda u: -2.0 * wp(2.0 * complex(u), inv)


class CurvePoint(_value_type("CurvePoint", "x y sign")):
    """A point (x, y) on w^2 = z^5 - z with the +-1 cover-sheet tag."""

    __slots__ = ()

    def __new__(cls, x: complex, y: complex, sign: int = 1):
        x, y = complex(x), complex(y)
        if sign not in (1, -1):
            raise DomainError(f"cover sign must be +1 or -1, got {sign!r}")
        quintic = x**5 - x
        if abs(y * y - quintic) > 1e-10 * max(1.0, abs(quintic)):
            raise DomainError(f"(x, y) = ({x!r}, {y!r}) is not on w^2 = z^5 - z")
        return super().__new__(cls, x, y, sign)


class CoverConstants(_value_type(
        "CoverConstants", "A B k_plus k_minus e_plus e_minus sqrt_A sqrt_B s_ab sqrt_one_minus")):
    """Constants of the Jacobi-Legendre cover of y^2 = x(x-1)(x-A)(x-B)(x-AB).

    The printed cover mixes "sqrt(AB)" and "sqrt(A) sqrt(B)"; with principal
    roots those differ by a sign for the shipped parameters (A, B) = (-1, i),
    and only the product sqrt(A)*sqrt(B), used consistently in both P' and
    du, satisfies the cubic identity (verified numerically and by the chain
    rule).  That product is what s_ab stores; e_plus and e_minus are the
    e-roots of the two sheets, sqrt_one_minus is sqrt((1-A)(1-B)), principal.
    """

    __slots__ = ()

    @classmethod
    def from_parameters(cls, A: complex, B: complex) -> "CoverConstants":
        A, B = complex(A), complex(B)
        kp, km = k_pm(A, B)
        sqrt_A = cmath.sqrt(A)
        sqrt_B = cmath.sqrt(B)

        def roots(k: complex):
            # images of the six branch points: {0, inf} -> e1, {1, AB} -> e2,
            # {A, B} -> the lattice point; e3 closes the depressed cubic
            return (-(k + 1.0) / 3.0, (2.0 * k - 1.0) / 3.0, (2.0 - k) / 3.0)

        return cls(
            A=A, B=B, k_plus=kp, k_minus=km,
            e_plus=roots(kp), e_minus=roots(km),
            sqrt_A=sqrt_A, sqrt_B=sqrt_B, s_ab=sqrt_A * sqrt_B,
            sqrt_one_minus=cmath.sqrt((1.0 - A) * (1.0 - B)),
        )

    def branch(self, sign: int) -> tuple[complex, complex, tuple[complex, complex, complex]]:
        """(squared root sum C, k, e-roots) for the requested sheet."""
        c = (self.sqrt_A + sign * self.sqrt_B) ** 2
        if sign == 1:
            return c, self.k_plus, self.e_plus
        return c, self.k_minus, self.e_minus

    def quotient_invariants(self, sign: int) -> EllipticInvariants:
        e1, e2, e3 = self.branch(sign)[2]
        g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
        g3 = 4.0 * e1 * e2 * e3
        return EllipticInvariants(g2, g3)


def _bracket(jet: _Jet, tau0: complex) -> tuple[complex, complex]:
    """(f(tau0), [f, tau] at tau0) from the Taylor jet of f at tau0."""
    d0, d1, d2, d3 = jet.derivatives()
    if abs(d1) < 1e-10:
        raise CriticalPointError(f"f'({tau0!r}) ~ 0; bracket undefined at a critical point")
    return d0, d3 / d1**3 - 1.5 * d2 * d2 / d1**4


def bracket_schwarzian(f: Callable[[complex], complex], tau0: complex) -> complex:
    """[f, tau] = f'''/f'^3 - (3/2) f''^2/f'^4 at tau0, i.e. the classical
    Schwarzian {f, tau} divided by f'(tau0)^2, from the Taylor jet f returns
    on a jet in tau.  f must accept a jet: arithmetic, integer powers and the
    package's theta, eta, 2F1 and principal powers do.  Vanishes on Moebius
    maps."""
    tau0 = complex(tau0)
    return _bracket(f(_Jet(tau0, 1.0)), tau0)[1]


def u_lemniscatic(tau) -> complex:
    """u(tau) = (theta3/theta2) 2F1(1/2, 1/4; 5/4 | theta3^4/theta2^4),
    the holomorphic integral of y^2 = 4x^3 - 4x as a function of tau.

    Equals wp_inverse_lemniscatic(hauptmodul_lemniscatic(tau)) where both are
    defined; requires |chi(tau)| > 1/0.95.
    """
    t = _tau_value(tau)
    t2 = theta2(t)
    t3 = theta3(t)
    chi = t2 * t2 / (t3 * t3)
    if not abs(chi) > LEMNISCATIC_PREDICATE_MODULUS:
        raise DomainNotSupported(
            f"|chi(tau)| = {abs(chi):g} <= {LEMNISCATIC_PREDICATE_MODULUS:g} at tau = {t!r}"
        )
    ratio = t3 / t2
    return ratio * _f21(0.5, 0.25, 1.25, ratio**4)


def u_equianharmonic_root(tau) -> complex:
    """u(tau) = z(tau)^(-1/2) 2F1(1/2, 1/6; 7/6 | z(tau)^-3) with the
    equianharmonic Hauptmodul z; principal square root."""
    t = _tau_value(tau)
    z = hauptmodul_equianharmonic(t)
    if not abs(z) > EQUIANHARMONIC_ROOT_PREDICATE_MODULUS:
        raise DomainNotSupported(
            f"|z(tau)| = {abs(z):g} <= {EQUIANHARMONIC_ROOT_PREDICATE_MODULUS:g} at tau = {t!r}"
        )
    return principal_power(z, -0.5) * _f21(0.5, 1.0 / 6.0, 7.0 / 6.0, z**-3)


def u_equianharmonic_rootfree(tau) -> complex:
    """Root-free sibling of u_equianharmonic_root on the complementary region:

        u(tau) = u0 + (i/2) z(tau) 2F1(1/2, 1/3; 4/3 | z(tau)^3),  |z|^3 <= 0.95.
    """
    t = _tau_value(tau)
    z = hauptmodul_equianharmonic(t)
    if abs(z) ** 3 > ROOTFREE_PREDICATE_CUBE:
        raise DomainNotSupported(
            f"|z(tau)|^3 = {abs(z) ** 3:g} > {ROOTFREE_PREDICATE_CUBE:g} at tau = {t!r}"
        )
    return u0_constant() + 0.5j * z * _f21(0.5, 1.0 / 3.0, 4.0 / 3.0, z**3)


def _hyperelliptic_thetas(tau):
    """(theta2(tau), theta3(tau), theta2(tau/2), lam = theta2^4/theta3^4) for a
    number or a jet tau: the series U(m, tau) is made of, for every m at once.
    Refuses tau outside the region |lam| <= 0.95 before it sums theta2(tau/2).
    """
    t = _tau_value(tau)
    t2 = theta2(t)
    t3 = theta3(t)
    lam = (t2 / t3) ** 4
    if abs(lam) > HYPERELLIPTIC_PREDICATE_RATIO:
        raise DomainNotSupported(
            f"|theta2^4/theta3^4| = {abs(lam):g} > {HYPERELLIPTIC_PREDICATE_RATIO:g} at tau = {t!r}"
        )
    return t2, t3, theta2(0.5 * t), lam


def _u_hyperelliptic(m: int, thetas) -> complex:
    """U(m, tau) from the _hyperelliptic_thetas of tau."""
    t2, t3, t2_half, lam = thetas
    prefactor = (2.0 * math.sqrt(2.0) * 1j / (2 * m + 1)) * t2 ** (m + 1) / (t3**m * t2_half)
    return prefactor * _f21(0.5, 0.25 * m + 0.125, 0.25 * m + 1.125, lam)


def u_hyperelliptic(m: int, tau) -> complex:
    """The base Abelian integrals of w^2 = z^5 - z as functions of tau:

        U(m, tau) = (2 sqrt(2) i/(2m+1)) theta2^(m+1) / (theta3^m theta2(tau/2))
                    * 2F1(1/2, m/4 + 1/8; m/4 + 9/8 | theta2^4/theta3^4)

    m = 0, 1 are the holomorphic pair, m = 2, 3 the meromorphic ones.
    """
    if not isinstance(m, int) or not (0 <= m <= 3):
        raise DomainError(f"m must be an integer in 0..3, got {m!r}")
    return _u_hyperelliptic(m, _hyperelliptic_thetas(tau))


def schwarz_residual(q: Callable[[complex], complex],
                     candidate: Callable[[complex], complex],
                     tau) -> float:
    """|[candidate, tau] - q(candidate(tau))|, the value and the bracket from
    one evaluation of candidate on a jet in tau, so a uniformizer's own gate
    refuses a point outside its region.
    """
    t = _tau_value(tau)
    value, bracket = _bracket(candidate(_Jet(t, 1.0)), t)
    return abs(bracket - q(value))


def covering_map(p: CurvePoint, c: CoverConstants) -> tuple[complex, complex]:
    """(P(u), P'(u)) of the curve point under the Jacobi-Legendre cover:

        P  = -C x/((x-A)(x-B)) - (k+1)/3
        P' = 2C/sqrt((1-A)(1-B)) * (x + sign * sqrt(A) sqrt(B)) * y
             / ((x-A)^2 (x-B)^2),        C = (sqrt(A) + sign sqrt(B))^2.
    """
    x, y = p.x, p.y
    if x == c.A or x == c.B:
        raise PoleError(f"cover has a pole over x = {x!r}")
    C, k, _ = c.branch(p.sign)
    denom = (x - c.A) * (x - c.B)
    big_p = -C * x / denom - (k + 1.0) / 3.0
    big_p_prime = 2.0 * C / c.sqrt_one_minus * (x + p.sign * c.s_ab) * y / denom**2
    return big_p, big_p_prime


def reduce_differential(p: CurvePoint, c: CoverConstants) -> complex:
    """du/dx = (1/2) sqrt((1-A)(1-B)) (x - sign * sqrt(A) sqrt(B)) / y,
    the pullback factor of the holomorphic differential du to the curve."""
    if p.y == 0:
        raise PoleError("du/dx has a pole at a branch point (y = 0)")
    return 0.5 * c.sqrt_one_minus * (p.x - p.sign * c.s_ab) / p.y


def k_pm(A: complex, B: complex) -> tuple[complex, complex]:
    """k_+- = -(sqrt(A) +- sqrt(B))^2 / ((1-A)(1-B)), principal roots."""
    A, B = complex(A), complex(B)
    if A == 1 or B == 1:
        raise DomainError("k_pm undefined for A = 1 or B = 1")
    sa, sb = cmath.sqrt(A), cmath.sqrt(B)
    denom = (1.0 - A) * (1.0 - B)
    return (-((sa + sb) ** 2) / denom, -((sa - sb) ** 2) / denom)
