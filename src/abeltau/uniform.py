"""tau-representations of the base Abelian integrals, the bracket-Schwarzian
residual verifier, and the Jacobi-Legendre covering algebra of the genus-2
curve w^2 = z^5 - z.

Branch policy: every square root of a theta quotient goes through
sqrt_theta_ratio (a ratio of holomorphic series, hence tau-continuous); all
remaining roots are principal, with the +- cover sign an explicit parameter.
On a jet in tau, that root s takes its branch from the number
s0 = sqrt(2) theta2(tau0)/theta2(tau0/2) and its derivatives from the jet of
r = theta2/theta3 by the chain rule of the square root.

The four genus-2 integrals U(m, tau), m = 0..3, share r, s and one 2F1
argument.  Several m of a jet at one tau are summed in one Horner pass over
a table whose row n joins the four b's coefficients; a number, and a single
m of a jet, sums each m over its own columns of that table, with the same
arithmetic per accumulator, so each U(m, tau) gets the same bits either
way, and an underflow refuses only the m it belongs to when that m is asked
for alone.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import lru_cache

from .errors import AccuracyError, CriticalPointError, DomainError, DomainNotSupported, PoleError
from .hypergeom import _f21, _f21_half, _f21_horner, _f21_rows, _f21_table, _f21_w
from .modular import (
    hauptmodul_equianharmonic,
    _I2,
    _I3,
    _TINY,
    _modular,
    _tau_value,
    _theta_quotients,
)
from .numerics import _Jet, _value_type
from .weier import EllipticInvariants, _wp_inverse, u0_constant, wp

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

# Each u_* function sums its 2F1 where hypergeom._f21_w puts w in its disk.
# Past it a jet is refused, and a number goes to gauss_2f1, which sums it by
# the Pfaff transformation where |x/(x-1)| <= 0.95 and refuses it elsewhere.
# Either way no value is taken within 0.01 of the cut x in [1, inf) of the
# 2F1 argument x, so none is taken on either side of it.

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


def _bracket(jet: _Jet, tau0: complex) -> tuple[complex, complex, float]:
    """(f, [f, tau], |f'''/f'^3| + 1.5|f''^2/f'^4|) at tau0, from the Taylor jet of f there."""
    d0, d1, d2, d3 = jet.derivatives()
    if abs(d1) < 1e-10:
        raise CriticalPointError(f"f'({tau0!r}) ~ 0; bracket undefined at a critical point")
    a, b = d3 / d1**3, 1.5 * d2 * d2 / d1**4
    return d0, a - b, abs(a) + abs(b)


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

    Equals wp_inverse_lemniscatic(hauptmodul_lemniscatic(tau)) up to the sign
    of its root where both are defined.
    """
    t2, t3 = _modular(_tau_value(tau), (_I2, _I3))
    ratio = t3 / t2
    try:
        x = ratio**4
    except OverflowError:  # far outside the disk of _f21, which would refuse it
        raise DomainNotSupported(f"2F1 argument (theta3/theta2)^4 overflows at tau = {tau!r}") \
            from None
    return ratio * _f21(0.5, 0.25, 1.25, x)


def u_equianharmonic_root(tau) -> complex:
    """u(tau) = z(tau)^(-1/2) 2F1(1/2, 1/6; 7/6 | z(tau)^-3) with the
    equianharmonic Hauptmodul z; principal square root.  This is
    wp_inverse_equianharmonic(z(tau)), for a number or a jet tau."""
    return _wp_inverse(hauptmodul_equianharmonic(tau), 1.0 / 6.0, 3)


def u_equianharmonic_rootfree(tau) -> complex:
    """u(tau) = u0 + (i/2) z(tau) 2F1(1/2, 1/3; 4/3 | z(tau)^3), the root-free
    sibling of u_equianharmonic_root, summed at small z.  Both invert P(.; 0, 4)
    at z(tau), and their regions overlap (from |z| = 0.44 to 2.6); there they
    are branches of the same P^-1, u_root = +-u_rootfree modulo the period
    lattice, with either sign."""
    z = hauptmodul_equianharmonic(tau)
    return u0_constant() + 0.5j * z * _f21(0.5, 1.0 / 3.0, 4.0 / 3.0, z**3)


def _hyperelliptic_thetas(tau):
    """(r, s) = (theta2/theta3, sqrt(2) theta2(tau)/theta2(tau/2)) for a number
    or a jet tau: z = r and its root s, as sqrt_theta_ratio takes it, are the
    two quotients that U(m, tau) is made of, for every m at once.  tau is
    checked once; theta2(tau/2) is served down to Im(tau)/2 = MIN_IM_TAU/2,
    and for a jet is summed as a number alone (modular._theta_quotients)."""
    return _theta_quotients(_tau_value(tau))


@lru_cache(maxsize=1)
def _u_tables():
    """(columns, rows) of the 2F1 of U(m, tau), built on first use from
    hypergeom._f21_table(b), b = m/4 + 1/8: columns[m] is b's table times
    2i/(2m+1), the constant of U folded in, and rows[n] joins the four
    columns' row n, 16 numbers.  Each m of a number, and a single m of a jet,
    sums its own columns with hypergeom._f21_horner; several m of a jet sum
    rows in one Horner pass."""
    columns = tuple(tuple(tuple(2j / (2 * m + 1) * c for c in row)
                          for row in _f21_table(0.25 * m + 0.125)) for m in range(4))
    return columns, tuple(sum(row, ()) for row in zip(*columns))


def _u_f21(ms, lam, w) -> dict:
    """{m: (2i/(2m+1)) 2F1(1/2, m/4 + 1/8; m/4 + 9/8 | lam)} for the
    increasing ms, from w = hypergeom._f21_w(lam).  Past the w disk a number
    goes to gauss_2f1 once per m.  In the shared pass of a jet, each
    accumulator does the arithmetic of hypergeom._f21_horner on its column,
    so it gives each m the bits it gets alone."""
    if w is None:
        return {m: 2j / (2 * m + 1) * _f21_half(0.25 * m + 0.125, lam, None) for m in ms}
    columns, table = _u_tables()
    if len(ms) == 1 or not isinstance(w, _Jet):
        return {m: _f21_horner(columns[m], w) for m in ms}
    x, rows = _f21_rows(table, w)
    # one jet per m: accumulators p*, q*, u*, v* for m = 0, 1, 2, 3
    p0 = p1 = p2 = p3 = q0 = q1 = q2 = q3 = u0 = u1 = u2 = u3 = v0 = v1 = v2 = v3 = 0j
    for a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 in rows:
        p0 = p0 * x + a0
        p1 = p1 * x + a1
        p2 = p2 * x + a2
        p3 = p3 * x + a3
        q0 = q0 * x + b0
        q1 = q1 * x + b1
        q2 = q2 * x + b2
        q3 = q3 * x + b3
        u0 = u0 * x + c0
        u1 = u1 * x + c1
        u2 = u2 * x + c2
        u3 = u3 * x + c3
        v0 = v0 * x + d0
        v1 = v1 * x + d1
        v2 = v2 * x + d2
        v3 = v3 * x + d3
    return {0: w.compose(p0, p1, p2, p3), 1: w.compose(q0, q1, q2, q3),
            2: w.compose(u0, u1, u2, u3), 3: w.compose(v0, v1, v2, v3)}


def _u_hyperelliptic(ms, thetas) -> dict:
    """{m: U(m, tau)} for each m of the increasing ms, from the
    _hyperelliptic_thetas (r, s) of tau.  The prefactor
    2 sqrt(2) i theta2^(m+1)/(theta3^m theta2(tau/2)) = 2i s r^m is a chain of
    products, p_(m+1) = p_m r, its 2i/(2m+1) folded into _u_f21, and every m
    sums its 2F1 at lam = r^4 from the one w = hypergeom._f21_w(lam), so
    every m refuses the same tau.  A U below the normal float range is an
    AccuracyError, not a silent zero."""
    r, s = thetas
    lam = r**4
    fs = _u_f21(ms, lam, _f21_w(lam))
    pref = s
    us = {}
    for m in range(ms[-1] + 1):
        if m:
            pref = pref * r
        if m in ms:
            u = pref * fs[m]
            if abs(u.c[0] if isinstance(u, _Jet) else u) < _TINY:
                raise AccuracyError(f"U({m}, tau) underflows")
            us[m] = u
    return us


def u_hyperelliptic(m: int, tau) -> complex:
    """The base Abelian integrals of w^2 = z^5 - z as functions of tau:

        U(m, tau) = (2 sqrt(2) i/(2m+1)) theta2^(m+1) / (theta3^m theta2(tau/2))
                    * 2F1(1/2, m/4 + 1/8; m/4 + 9/8 | theta2^4/theta3^4)

    m = 0, 1 are the holomorphic pair, m = 2, 3 the meromorphic ones.
    """
    if not isinstance(m, int) or not (0 <= m <= 3):
        raise DomainError(f"m must be an integer in 0..3, got {m!r}")
    return _u_hyperelliptic((m,), _hyperelliptic_thetas(tau))[m]


def schwarz_residual(q: Callable[[complex], complex],
                     candidate: Callable[[complex], complex],
                     tau) -> float:
    """|[f, tau] - Q(f)| / (|f'''/f'^3| + 1.5|f''^2/f'^4| + |Q(f)|), f = candidate, Q = q:
    relative to the terms that cancel, so rounding-sized near a pole of Q too.  f
    is evaluated once, on a jet in tau, so a uniformizer refuses a point outside
    its region before any bracket is formed."""
    t = _tau_value(tau)
    value, bracket, size = _bracket(candidate(_Jet(t, 1.0)), t)
    rhs = q(value)
    return abs(bracket - rhs) / (size + abs(rhs) or 1.0)


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
