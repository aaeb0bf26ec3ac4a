"""Weierstrass functions for given invariants (g2, g3): P and P' by Laurent
series plus repeated argument halving, sigma by its classical double series,
zeta = sigma'/sigma, the hypergeometric inverses of P on the lemniscatic
(4, 0) and equianharmonic (0, 4) curves, and the second/third-kind integrals
expressed through zeta and sigma.

No periods are ever computed: argument reduction is by the duplication
formula alone, and sigma/zeta live on a validated disk with no
quasi-periodic extension.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import DomainError, DomainNotSupported, PoleError
from .hypergeom import _f21, euler_beta
from .numerics import ensure_finite, holomorphic_derivatives, principal_power

__all__ = [
    "EllipticInvariants",
    "ThirdKindParam",
    "LEMNISCATIC",
    "EQUIANHARMONIC",
    "WP_SERIES_RADIUS",
    "SIGMA_RADIUS",
    "wp",
    "wp_prime",
    "wp_inverse_lemniscatic",
    "wp_inverse_equianharmonic",
    "u0_constant",
    "weier_sigma",
    "weier_zeta",
    "integral_second_kind",
    "integral_third_kind",
]

# Laurent series is summed only for |u| <= this radius; larger arguments are
# halved first.  Calibrated against doubly-reduced evaluation (see tests):
# for the invariant scales used here the nearest pole sits at distance > 2.6,
# so 30 coefficients leave truncation far below double-precision rounding.
WP_SERIES_RADIUS = 0.5
_WP_COEFF_COUNT = 30

# sigma's double series is summed over weights 2m + 3n <= 22 (powers of u up
# to 45); the terms left out sum to below 2e-19 for |u| <= this radius at
# |g2|, |g3| <= 5.  Against a 40-digit evaluation, sigma and zeta agree to
# ~1e-15 on this disk on both shipped curves (tests).
SIGMA_RADIUS = 2.0

_POLE_MAGNITUDE = 1e12


@dataclass(frozen=True)
class EllipticInvariants:
    """The (g2, g3) of a nondegenerate Weierstrass cubic y^2 = 4x^3 - g2 x - g3."""

    g2: complex
    g3: complex

    def __post_init__(self):
        g2, g3 = complex(self.g2), complex(self.g3)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "g3", g3)
        if not (cmath.isfinite(g2) and cmath.isfinite(g3)):
            raise DomainError(f"invariants must be finite: {self!r}")
        if g2**3 - 27.0 * g3**2 == 0:
            raise DomainError(f"degenerate invariants (zero discriminant): {self!r}")

    @property
    def as_tuple(self) -> tuple[complex, complex]:
        return (self.g2, self.g3)


LEMNISCATIC = EllipticInvariants(4.0, 0.0)
EQUIANHARMONIC = EllipticInvariants(0.0, 4.0)


def _invariants(inv) -> EllipticInvariants:
    if isinstance(inv, EllipticInvariants):
        return inv
    g2, g3 = inv
    return EllipticInvariants(g2, g3)


@dataclass(frozen=True)
class ThirdKindParam:
    """Parameter point of a third-kind integral, given as a P-argument."""

    alpha_point: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha_point", complex(self.alpha_point))


@lru_cache(maxsize=32)
def _wp_laurent_coeffs(g2: complex, g3: complex) -> tuple[complex, ...]:
    """c_k of P(u) = u^-2 + sum_{k>=2} c_k u^(2k-2), by the standard recursion."""
    c = [0j, 0j, g2 / 20.0, g3 / 28.0]
    for k in range(4, _WP_COEFF_COUNT):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c.append(3.0 * s / ((2 * k + 1) * (k - 3)))
    return tuple(c)


def _wp_series_pair(v: complex, inv: EllipticInvariants) -> tuple[complex, complex]:
    c = _wp_laurent_coeffs(inv.g2, inv.g3)
    p = 1.0 / (v * v)
    pp = -2.0 / (v * v * v)
    v2 = v * v
    vpow = v2  # v^(2k-2), starting at k = 2
    for k in range(2, _WP_COEFF_COUNT):
        p += c[k] * vpow
        pp += (2 * k - 2) * c[k] * vpow / v
        vpow *= v2
    return p, pp


def _duplicate(p: complex, pp: complex, g2: complex) -> tuple[complex, complex]:
    if pp == 0:
        raise PoleError("duplication from a two-torsion point lands on a pole")
    lam = (6.0 * p * p - 0.5 * g2) / pp
    p2 = 0.25 * lam * lam - 2.0 * p
    pp2 = -pp - lam * (p2 - p)
    return p2, pp2


def _wp_pair(u: complex, inv: EllipticInvariants) -> tuple[complex, complex]:
    u = complex(u)
    if u == 0:
        raise PoleError("P has a pole at u = 0")
    halvings = 0
    v = u
    while abs(v) > WP_SERIES_RADIUS:
        v *= 0.5
        halvings += 1
    p, pp = _wp_series_pair(v, inv)
    for _ in range(halvings):
        p, pp = _duplicate(p, pp, inv.g2)
    ensure_finite(p, "P value")
    ensure_finite(pp, "P' value")
    if abs(p) > _POLE_MAGNITUDE:
        raise PoleError(
            f"u = {u!r} is within ~{abs(p) ** -0.5:.2g} of a lattice point (|P| > 1e12)"
        )
    return p, pp


def wp(u: complex, inv) -> complex:
    """Weierstrass P(u; g2, g3)."""
    return _wp_pair(u, _invariants(inv))[0]


def wp_prime(u: complex, inv) -> complex:
    """Derivative P'(u; g2, g3)."""
    return _wp_pair(u, _invariants(inv))[1]


def wp_inverse_lemniscatic(x: complex) -> complex:
    """Principal branch of P^-1 on the curve y^2 = 4x^3 - 4x:

        u = x^(-1/2) 2F1(1/2, 1/4; 5/4 | x^-2),   valid for |x^-2| <= 0.95.

    P is even, so the opposite sign -u inverts P equally; callers that care
    about the sign get the principal root.
    """
    x = complex(x)
    if x == 0 or abs(1.0 / (x * x)) > 0.95:
        raise DomainNotSupported(f"|1/x^2| > 0.95 at x = {x!r}; series form not valid")
    return principal_power(x, -0.5) * _f21(0.5, 0.25, 1.25, x**-2)


def wp_inverse_equianharmonic(z: complex) -> complex:
    """Principal branch of P^-1 on y^2 = 4z^3 - 4:

        u = z^(-1/2) 2F1(1/2, 1/6; 7/6 | z^-3),   valid for |z^-3| <= 0.95.
    """
    z = complex(z)
    if z == 0 or abs(z**-3) > 0.95:
        raise DomainNotSupported(f"|1/z^3| > 0.95 at z = {z!r}; series form not valid")
    return principal_power(z, -0.5) * _f21(0.5, 1.0 / 6.0, 7.0 / 6.0, z**-3)


@cache
def u0_constant() -> complex:
    """The purely imaginary zero of P(.; 0, 4): u0 = (i/6) B(1/6, 1/3).

    Constructed as complex(0, .) so the real part is exactly zero.
    """
    b = euler_beta(1.0 / 6.0, 1.0 / 3.0)
    return complex(0.0, b.real / 6.0)


_SIGMA_WMAX = 22  # weights 2m + 3n, i.e. powers of u up to 4m + 6n + 1 = 45


@lru_cache(maxsize=1)
def _sigma_coeff_table() -> tuple[tuple[int, int, float, float], ...]:
    """(m, n, a_mn, 1/(4m+6n+1)!) for the sigma double series, by the
    classical recursion ordered by increasing weight 2m + 3n."""
    a: dict[tuple[int, int], float] = {}

    def get(m: int, n: int) -> float:
        return a.get((m, n), 0.0) if m >= 0 and n >= 0 else 0.0

    for w in range(_SIGMA_WMAX + 1):
        for m in range(w // 2 + 1):
            rem = w - 2 * m
            if rem % 3:
                continue
            n = rem // 3
            if (m, n) == (0, 0):
                a[(m, n)] = 1.0
                continue
            a[(m, n)] = (
                3.0 * (m + 1) * get(m + 1, n - 1)
                + (16.0 / 3.0) * (n + 1) * get(m - 2, n + 1)
                - (1.0 / 3.0) * (2 * m + 3 * n - 1) * (4 * m + 6 * n - 1) * get(m - 1, n)
            )
    return tuple(
        (m, n, amn, 1.0 / math.factorial(4 * m + 6 * n + 1)) for (m, n), amn in a.items()
    )


def weier_sigma(u: complex, inv) -> complex:
    """sigma(u; g2, g3) on the validated disk |u| <= 2.0 (no quasi-periodic
    extension; larger arguments are refused rather than extrapolated)."""
    inv = _invariants(inv)
    u = complex(u)
    if abs(u) > SIGMA_RADIUS:
        raise DomainNotSupported(
            f"|u| = {abs(u):g} outside the validated sigma disk (radius {SIGMA_RADIUS})"
        )
    half_g2 = 0.5 * inv.g2
    two_g3 = 2.0 * inv.g3
    acc = 0.0 + 0.0j
    for m, n, amn, inv_fact in _sigma_coeff_table():
        acc += amn * half_g2**m * two_g3**n * u ** (4 * m + 6 * n + 1) * inv_fact
    return ensure_finite(acc, "sigma value")


def weier_zeta(u: complex, inv) -> complex:
    """zeta(u) = sigma'(u)/sigma(u), sigma' by Cauchy-circle differentiation.

    Domain: 0 < |u| < 1.999.  The sampling circle has radius 0.25 up to
    |u| = 1.749 and shrinks beyond, so that it stays inside the sigma disk;
    the only sigma zero there is u = 0 (nearest lattice points of both
    shipped curves lie beyond the disk).
    """
    inv = _invariants(inv)
    u = complex(u)
    if u == 0:
        raise PoleError("zeta has a pole at u = 0")
    radius = min(0.25, SIGMA_RADIUS - abs(u) - 1e-3)
    if radius <= 0:
        raise DomainNotSupported(
            f"|u| = {abs(u):g} leaves no room for the differentiation circle"
        )
    sigma_u = weier_sigma(u, inv)
    if sigma_u == 0:
        raise PoleError(f"sigma vanishes at u = {u!r}")
    (sigma_prime,) = holomorphic_derivatives(lambda w: weier_sigma(w, inv), u, 1, radius)
    return sigma_prime / sigma_u


def _wp_inverse_for(inv: EllipticInvariants):
    if inv.as_tuple == LEMNISCATIC.as_tuple:
        return wp_inverse_lemniscatic
    if inv.as_tuple == EQUIANHARMONIC.as_tuple:
        return wp_inverse_equianharmonic
    raise DomainError(
        "second/third-kind integrals are implemented for invariants (4, 0) and (0, 4) only"
    )


def integral_second_kind(z: complex, inv) -> complex:
    """II(z) = -zeta(u(z)) with u(z) the hypergeometric inverse of P."""
    inv = _invariants(inv)
    u = _wp_inverse_for(inv)(z)
    return -weier_zeta(u, inv)


def integral_third_kind(z: complex, p: ThirdKindParam, inv) -> complex:
    """III(z) = log(sigma(u - alpha)/sigma(u)) + zeta(alpha) u, principal log."""
    inv = _invariants(inv)
    alpha = p.alpha_point
    u = _wp_inverse_for(inv)(z)
    if abs(u - alpha) < 1e-12 * (1.0 + abs(alpha)):
        raise PoleError(f"z = {z!r} sits on the third-kind logarithmic singularity")
    s_shift = weier_sigma(u - alpha, inv)
    s_plain = weier_sigma(u, inv)
    if s_shift == 0 or s_plain == 0:
        raise PoleError("third-kind integral evaluated at a logarithmic singularity")
    return cmath.log(s_shift / s_plain) + weier_zeta(alpha, inv) * u
