"""Weierstrass functions for given invariants (g2, g3): P and P' reduced
modulo the half-periods, which come from Carlson's R_F, sigma by its classical
double series, zeta = sigma'/sigma, the hypergeometric inverses of P on the
lemniscatic (4, 0) and equianharmonic (0, 4) curves, and the second/third-kind
integrals expressed through zeta and sigma.  sigma and zeta live on a
validated disk with no quasi-periodic extension: |u| <= 2 for |g2|, |g3| <= 5,
and for larger invariants the disk homogeneity maps that box to,
|u| <= 2 min(1, (5/|g2|)^(1/4), (5/|g3|)^(1/6)).
"""

from __future__ import annotations

import cmath
import math
from functools import cache, lru_cache

from .errors import AccuracyError, DomainError, DomainNotSupported, PoleError
from .hypergeom import _carlson_rf, _f21, euler_beta
from .numerics import _value_type, ensure_finite, holomorphic_derivatives, principal_power

__all__ = [
    "EllipticInvariants",
    "ThirdKindParam",
    "LEMNISCATIC",
    "EQUIANHARMONIC",
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

# sigma's double series is summed over weights 2m + 3n <= 22 (powers of u up
# to 45); the terms left out sum to below 2e-19 for |u| <= this radius at
# |g2|, |g3| <= _SIGMA_BOX.  Against a 40-digit evaluation, sigma and zeta agree
# to ~1e-15 on this disk on both shipped curves (tests).  Larger invariants are
# brought into the box by homogeneity, sigma(r v; r^-4 g2, r^-6 g3) =
# r sigma(v; g2, g3) (DLMF 23.10.17), so their disk has radius SIGMA_RADIUS r.
SIGMA_RADIUS = 2.0
_SIGMA_BOX = 5.0
# zeta's Cauchy circle shrinks near the disk's edge, and its rounding error
# grows as 1/radius: 4e-15 relative at radius 9e-3, 3e-8 at 1e-10
_ZETA_MIN_RADIUS = 1e-2

_WP_MAX_TERMS = 64
_OMEGA = cmath.exp(2j * math.pi / 3.0)


class EllipticInvariants(_value_type("EllipticInvariants", "g2 g3")):
    """The (g2, g3) of a nondegenerate Weierstrass cubic y^2 = 4x^3 - g2 x - g3."""

    __slots__ = ()

    def __new__(cls, g2: complex, g3: complex):
        self = super().__new__(cls, complex(g2), complex(g3))
        g2, g3 = self
        if not (cmath.isfinite(g2) and cmath.isfinite(g3)):
            raise DomainError(f"invariants must be finite: {self!r}")
        try:
            disc = g2**3 - 27.0 * g3**2
        except OverflowError:  # complex ** int raises where the result is infinite
            disc = math.inf
        if not cmath.isfinite(disc):
            raise DomainError(f"the discriminant of the invariants overflows: {self!r}")
        if disc == 0:
            raise DomainError(f"degenerate invariants (zero discriminant): {self!r}")
        return self

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


class ThirdKindParam(_value_type("ThirdKindParam", "alpha_point")):
    """Parameter point of a third-kind integral, given as a P-argument."""

    __slots__ = ()

    def __new__(cls, alpha_point: complex):
        return super().__new__(cls, complex(alpha_point))


def _cubic_roots(g2: complex, g3: complex) -> tuple[complex, ...]:
    """Roots of 4x^3 - g2 x - g3 = 4(x^3 + p x + q): Cardano, then a Newton step."""
    p, q = -0.25 * g2, -0.25 * g3
    s = cmath.sqrt(0.25 * q * q + p**3 / 27.0)
    c = max(-0.5 * q + s, -0.5 * q - s, key=abs) ** (1.0 / 3.0)  # 0 only if g2 = g3 = 0
    xs = [c * w - p / (3.0 * c * w) for w in (1.0, _OMEGA, _OMEGA.conjugate())]
    return tuple(x - (x**3 + p * x + q) / (3.0 * x * x + p) for x in xs)


def _half_period(e: complex, f: complex, g: complex) -> complex:
    """The half-period with P = e: the integral of dx/sqrt(4(x-e)(x-f)(x-g)) from
    e to infinity along the ray that bisects the directions from f and from g to
    e, d^(-1/2) R_F(0, (e - f)/d, (e - g)/d) (DLMF 19.25(vi))."""
    s = (e - f) / abs(e - f) + (e - g) / abs(e - g)
    d = s / abs(s)
    return cmath.sqrt(d.conjugate()) * _carlson_rf(0j, (e - f) / d, (e - g) / d)


@lru_cache(maxsize=32)
def _lattice(g2: complex, g3: complex):
    """(a, b, class of a, class of b, steps, Horner table of the c_k): a, b a
    Lagrange-Gauss reduced basis of the half-periods, from the two on rays from
    the ends of the longest side of the root triangle (the rays run away from
    its incentre and do not cross, so the two span the lattice).  A class is a
    bit mask over those two; steps[class] = (e_j, D_j) gives P(v + w_j) =
    e_j + D_j/(P(v) - e_j), D_j = (e_j - e_k)(e_j - e_l), the addition law at P' = 0.

    P(v) - v^-2 = sum_{k>=2} c_k v^(2k-2), c_k = (2k-1) G_2k, |G_2k| <= 7 R^-2k for
    k >= 4, R = 2|a| the shortest period: the terms from k = K >= 4 sum to at most
    |v|^-2 7 x^K ((2K-1)/(1-x) + 2x/(1-x)^2), x = (|v|/R)^2.  The table has the
    fewest terms that keep this below 2^-53 on the whole reduced cell; a
    coefficient past the float range (g3 = 1e50 with a 1e-8 cell) is an
    AccuracyError."""
    r0, r1, r2 = _cubic_roots(g2, g3)
    e, f, g = max(((r0, r1, r2), (r1, r2, r0), (r2, r0, r1)), key=lambda t: abs(t[0] - t[1]))
    a, ca, b, cb = _half_period(e, f, g), 1, _half_period(f, e, g), 2
    steps = (None, (e, (e - f) * (e - g)), (f, (f - e) * (f - g)), (g, (g - e) * (g - f)))
    while abs(a) > abs(b) or abs(b - round((b / a).real) * a) < abs(b):  # ties would cycle
        if abs(a) > abs(b):
            a, ca, b, cb = b, cb, a, ca
        n = round((b / a).real)
        b, cb = b - n * a, cb ^ (ca if n % 2 else 0)
    x = (max(abs(a + b), abs(a - b)) / (4.0 * abs(a))) ** 2  # the cell's corner
    terms = next((k for k in range(4, _WP_MAX_TERMS + 1) if x < 1.0 and 7.0 * x**k
                  * ((2 * k - 1) / (1.0 - x) + 2.0 * x / (1.0 - x) ** 2) <= 2.0**-53), 0)
    if not terms:
        raise DomainNotSupported(f"lattice of {(g2, g3)} needs over {_WP_MAX_TERMS} Laurent terms")
    c = [0j, 0j, g2 / 20.0, g3 / 28.0]
    for k in range(4, terms):
        c.append(3.0 * sum(c[m] * c[k - m] for m in range(2, k - 1)) / ((2 * k + 1) * (k - 3)))
    if not all(map(cmath.isfinite, c)):  # P and P' would be nan
        raise AccuracyError(f"the Laurent coefficients of the lattice of {(g2, g3)} "
                            "leave the float range")
    return a, b, ca, cb, steps, tuple((c[k], (2 * k - 2) * c[k]) for k in range(terms - 1, 1, -1))


def _wp_pair(u: complex, inv: EllipticInvariants) -> tuple[complex, complex]:
    """(P(u), P'(u)): u = v + m a + n b with v in the reduced cell about 0, P and
    P' at v by the Laurent series, then for an odd class the step, written with
    r = 1/(v^2 (P(v) - e_j)) so that it holds at v = 0 too."""
    u = complex(u)
    a, b, ca, cb, steps, table = _lattice(inv.g2, inv.g3)
    det = (a * b.conjugate()).imag
    x, y = (u * b.conjugate()).imag / det, -(u * a.conjugate()).imag / det
    if not max(abs(x), abs(y)) < 2.0**20:  # and not inf or nan
        raise DomainNotSupported(f"u = {u!r} lies 2^20 cells or more from 0")
    m, n = round(x), round(y)
    v = u - m * a - n * b
    cls = (ca if m % 2 else 0) ^ (cb if n % 2 else 0)
    if not cls and abs(v) < 1e-6:
        raise PoleError(f"u = {u!r} is within {abs(v):.2g} of a lattice point (|P| > 1e12)")
    w = v * v
    s = t = 0j
    for c, d in table:
        s = s * w + c
        t = t * w + d
    if cls:
        e, d = steps[cls]
        r = 1.0 / (1.0 + w * (w * s - e))
        return e + d * w * r, -d * v * (t * w * w - 2.0) * r * r
    return 1.0 / w + w * s, (t * w - 2.0 / w) / v


def wp(u: complex, inv) -> complex:
    """Weierstrass P(u; g2, g3).

    Its error relative to max(1, |P|) grows as the lattice elongates, where
    two roots of 4x^3 - g2 x - g3 nearly coincide and _cubic_roots loses
    digits: over 1000 u with |u| < 8, against 40 digits, 2e-15 on the lattice
    Z + iZ (|j| = 1.7e3), 6e-14 at |j| = 1.2e4, 9e-12 at 1e6 and 2e-11 from
    1.9e6 up to the refusal near 3.5e6."""
    return _wp_pair(u, _invariants(inv))[0]


def wp_prime(u: complex, inv) -> complex:
    """Derivative P'(u; g2, g3)."""
    return _wp_pair(u, _invariants(inv))[1]


def _wp_inverse(x, b: float, k: int):
    """x^(-1/2) 2F1(1/2, b; b+1 | x^-k) for a number or a jet x: P^-1 on the
    lemniscatic (b, k) = (1/4, 2) or equianharmonic (1/6, 3) curve."""
    try:
        y = x**-k
    except (OverflowError, ZeroDivisionError):  # complex ** -k divides by x^k
        raise DomainNotSupported(f"x^-{k} is not finite at x = {x!r}") from None
    return principal_power(x, -0.5) * _f21(0.5, b, b + 1.0, y)


def wp_inverse_lemniscatic(x: complex) -> complex:
    """Principal branch of P^-1 on the curve y^2 = 4x^3 - 4x:

        u = x^(-1/2) 2F1(1/2, 1/4; 5/4 | x^-2).

    P is even, so the opposite sign -u inverts P equally; callers that care
    about the sign get the principal root.
    """
    return _wp_inverse(complex(x), 0.25, 2)


def wp_inverse_equianharmonic(z: complex) -> complex:
    """Principal branch of P^-1 on y^2 = 4z^3 - 4:

        u = z^(-1/2) 2F1(1/2, 1/6; 7/6 | z^-3).
    """
    return _wp_inverse(complex(z), 1.0 / 6.0, 3)


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


def _sigma_frame(u: complex, inv: EllipticInvariants):
    """(v, g2, g3, r) with u = r v and sigma(u; inv) = r sigma(v; g2, g3), where
    |g2|, |g3| <= _SIGMA_BOX: r = 1 unless an invariant of inv is larger.  A v
    outside the sigma disk |v| <= SIGMA_RADIUS is refused."""
    g2, g3, r = inv.g2, inv.g3, 1.0
    if abs(g2) > _SIGMA_BOX or abs(g3) > _SIGMA_BOX:
        r = 1.0 / max((abs(g2) / _SIGMA_BOX) ** 0.25, (abs(g3) / _SIGMA_BOX) ** (1.0 / 6.0))
        g2, g3 = g2 * r**4, g3 * r**6
    u = complex(u)
    try:
        size = abs(u)
    except OverflowError:  # finite parts, a modulus past the float range
        size = math.inf
    if size > SIGMA_RADIUS * r:
        raise DomainNotSupported(
            f"|u| = {size:g} outside the validated sigma disk (radius {SIGMA_RADIUS * r:g})"
        )
    return u / r, g2, g3, r


def _sigma_series(v: complex, g2: complex, g3: complex) -> complex:
    """sigma(v; g2, g3) by the double series, |v| <= SIGMA_RADIUS, |g2|, |g3| <= _SIGMA_BOX."""
    half_g2, two_g3 = 0.5 * g2, 2.0 * g3
    acc = 0.0 + 0.0j
    for m, n, amn, inv_fact in _sigma_coeff_table():
        acc += amn * half_g2**m * two_g3**n * v ** (4 * m + 6 * n + 1) * inv_fact
    return ensure_finite(acc, "sigma value")


def weier_sigma(u: complex, inv) -> complex:
    """sigma(u; g2, g3) on the validated disk of the module docstring (no
    quasi-periodic extension; larger arguments are refused rather than
    extrapolated)."""
    v, g2, g3, r = _sigma_frame(u, _invariants(inv))
    return r * _sigma_series(v, g2, g3)


def weier_zeta(u: complex, inv) -> complex:
    """zeta(u) = sigma'(u)/sigma(u), sigma' by Cauchy-circle differentiation.

    Domain: 0 < |u| < 1.989 r, r = 1 for |g2|, |g3| <= 5 (module docstring).
    The sampling circle has radius 0.25 r up to |u| = 1.749 r and shrinks
    beyond, so that it stays inside the sigma disk, down to _ZETA_MIN_RADIUS r;
    the only sigma zero there is u = 0 (nearest lattice points of both
    shipped curves lie beyond the disk).
    """
    v, g2, g3, r = _sigma_frame(u, _invariants(inv))
    if v == 0:
        raise PoleError("zeta has a pole at u = 0")
    radius = min(0.25, SIGMA_RADIUS - abs(v) - 1e-3)
    if radius < _ZETA_MIN_RADIUS:
        raise DomainNotSupported(
            f"|u| = {abs(v) * r:.10g} leaves no room for the differentiation circle"
        )
    sigma_v = _sigma_series(v, g2, g3)
    if sigma_v == 0:
        raise PoleError(f"sigma vanishes at u = {u!r}")
    (sigma_prime,) = holomorphic_derivatives(lambda w: _sigma_series(w, g2, g3), v, 1, radius)
    # past the float range for 0 < |u| < 5.6e-309, where sigma(u) ~ u is subnormal
    return ensure_finite(sigma_prime / sigma_v / r, "zeta value")


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
    try:
        on_pole = abs(u - alpha) < 1e-12 * (1.0 + abs(alpha))
    except OverflowError:  # an alpha past the float range in modulus, which sigma refuses
        on_pole = False
    if on_pole:
        raise PoleError(f"z = {z!r} sits on the third-kind logarithmic singularity")
    s_shift = weier_sigma(u - alpha, inv)
    s_plain = weier_sigma(u, inv)
    if s_shift == 0 or s_plain == 0:
        raise PoleError("third-kind integral evaluated at a logarithmic singularity")
    return cmath.log(s_shift / s_plain) + weier_zeta(alpha, inv) * u
