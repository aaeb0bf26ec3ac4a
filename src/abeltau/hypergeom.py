"""Gauss 2F1 series with Pfaff fallback, Gamma/Beta via Lanczos, Legendre
elliptic integrals, and the incomplete-integral <-> 2F1 identities

    int_0^z u^(a-1) (u^n - 1)^(-b) du
        = (e^(i pi b)/a) z^a 2F1(b, a/n; a/n + 1 | z^n),        Re(a) > 0,
    int_inf^z u^(a-1) (u^n - 1)^(-b) du
        = z^(a-nb)/(a-nb) 2F1(b, b - a/n; b - a/n + 1 | z^-n),  Re(nb-a) > 0,

together with a brute-force contour-quadrature oracle for both.

Branch convention (fixed so formula and oracle agree for real z in (0,1)):
the from-zero integrand is read as  u^(a-1) e^(i pi b) (1 - u^n)^(-b)  with
principal powers, i.e. (u^n - 1) = e^(-i pi) (1 - u^n) on the base interval.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

from .errors import AccuracyError, DomainError, DomainNotSupported
from .modular import DEFAULT_TRUNCATION, TruncationPolicy
from .numerics import Polyline, contour_quadrature, ensure_finite, principal_power

__all__ = [
    "HypergeometricParams",
    "IncompleteIntegralSpec",
    "gauss_2f1",
    "incomplete_integral_2f1",
    "oracle_incomplete_integral",
    "gamma_fn",
    "euler_beta",
    "elliptic_K",
    "elliptic_F",
]

_SERIES_DISK = 0.95
_ORACLE_ENDPOINT_OFFSET = 1e-8


def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0 and z.real <= 0 and z.real == int(z.real)


@dataclass(frozen=True)
class HypergeometricParams:
    """The (a, b; c) parameter triple of a Gauss hypergeometric series."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if _is_nonpositive_integer(self.c):
            raise DomainError(f"2F1 lower parameter c={self.c} is a nonpositive integer")


def _f21_series(a: complex, b: complex, c: complex, z: complex,
                policy: TruncationPolicy) -> complex:
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    mag = 1.0
    small_run = 0
    for k in range(policy.max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        acc += term
        mag += abs(term)
        if abs(term) <= policy.rel_tol * mag:
            small_run += 1
            if small_run >= 2:
                return ensure_finite(acc, "2F1 series")
        else:
            small_run = 0
    raise AccuracyError("2F1 series did not converge within max_terms")


def gauss_2f1(params: HypergeometricParams, z: complex,
              policy: TruncationPolicy = DEFAULT_TRUNCATION) -> complex:
    """2F1(a, b; c | z) by power series for |z| <= 0.95, else by the Pfaff
    transformation (1-z)^(-a) 2F1(a, c-b; c | z/(z-1)) when that argument is
    in the series disk.  Anything else is a hard DomainNotSupported: no
    silent analytic continuation.
    """
    z = complex(z)
    a, b, c = params.a, params.b, params.c
    if abs(z) <= _SERIES_DISK:
        return _f21_series(a, b, c, z, policy)
    w = z / (z - 1.0)
    if abs(w) <= _SERIES_DISK:
        return principal_power(1.0 - z, -a) * _f21_series(a, c - b, c, w, policy)
    raise DomainNotSupported(
        f"2F1 argument {z!r} outside both the series disk and the Pfaff-reachable region"
    )


def _f21(a, b, c, z, policy=DEFAULT_TRUNCATION) -> complex:
    return gauss_2f1(HypergeometricParams(a, b, c), z, policy)


@dataclass(frozen=True)
class IncompleteIntegralSpec:
    """Parameters (alpha, beta, n, z) of one incomplete integral, anchored
    either at 0 or at infinity."""

    alpha: complex
    beta: complex
    n: int
    z: complex
    base: Literal["from_zero", "from_infinity"]

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "z", complex(self.z))
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if self.base == "from_zero":
            if not self.alpha.real > 0:
                raise DomainError("from_zero integral needs Re(alpha) > 0")
        elif self.base == "from_infinity":
            if not (self.n * self.beta - self.alpha).real > 0:
                raise DomainError("from_infinity integral needs Re(n beta - alpha) > 0")
        else:
            raise DomainError(f"unknown base {self.base!r}")


def incomplete_integral_2f1(spec: IncompleteIntegralSpec,
                            policy: TruncationPolicy = DEFAULT_TRUNCATION) -> complex:
    """Closed hypergeometric form of the incomplete integral."""
    a, b, n, z = spec.alpha, spec.beta, spec.n, spec.z
    if spec.base == "from_zero":
        arg = z**n
        return (cmath.exp(1j * math.pi * b) / a) * principal_power(z, a) \
            * _f21(b, a / n, a / n + 1.0, arg, policy)
    arg = z**(-n)
    return principal_power(z, a - n * b) / (a - n * b) \
        * _f21(b, b - a / n, b - a / n + 1.0, arg, policy)


def _power_endpoint_tail(f, p: complex, exponent: complex) -> complex:
    """int_0^p of f along the ray to p, where f(u) ~ u^exponent * analytic.

    Two-scale fit: samples at p and p/2 determine the first two Taylor
    coefficients of the analytic factor, which integrate in closed form.
    Residual error is O(|p|^(Re exponent + 3)).
    """
    a0 = complex(exponent)
    fa = f(p) * principal_power(p, -a0)
    fb = f(0.5 * p) * principal_power(0.5 * p, -a0)
    g0 = 2.0 * fb - fa
    g1_p = 2.0 * (fa - fb)  # g'(0) * p
    return principal_power(p, a0 + 1.0) * (g0 / (a0 + 1.0) + g1_p / (a0 + 2.0))


def oracle_incomplete_integral(spec: IncompleteIntegralSpec,
                               path: Polyline | None = None,
                               tol: float = 1e-10) -> complex:
    """Quadrature cross-check of incomplete_integral_2f1, no hypergeometrics.

    from_zero integrates u^(alpha-1) e^(i pi beta) (1-u^n)^(-beta) from 0 to
    z; from_infinity substitutes u -> 1/v and integrates v^(n beta - alpha - 1)
    (1-v^n)^(-beta) from 0 to 1/z (with an overall minus sign).  A base-point
    power singularity with Re(exponent) in (-1, 0) is handled by starting the
    path a small offset away and adding a Richardson-style local power fit
    for the clipped piece.

    The path is in the integration variable (u for from_zero, v = 1/u for
    from_infinity), must start at 0, and must stay where the principal branch
    of (1 - .^n)^(-beta) is continuous, i.e. avoid {w : w^n in [1, inf)}.
    """
    a, b, n = spec.alpha, spec.beta, spec.n
    if spec.base == "from_zero":
        exponent = a - 1.0
        target = spec.z
        phase = cmath.exp(1j * math.pi * b)

        def integrand(u: complex) -> complex:
            return phase * principal_power(u, exponent) \
                * principal_power(1.0 - u**n, -b)

        outer_sign = 1.0
    else:
        exponent = n * b - a - 1.0
        target = 1.0 / spec.z

        def integrand(v: complex) -> complex:
            return principal_power(v, exponent) * principal_power(1.0 - v**n, -b)

        outer_sign = -1.0

    vertices = list(path.vertices) if path is not None else [0.0 + 0.0j, target]
    if vertices[0] != 0:
        raise DomainError("oracle path must start at the integral's base point 0")

    tail = 0.0 + 0.0j
    if exponent.real < 0:
        if exponent.real <= -1:
            raise DomainError("endpoint exponent must be integrable (> -1)")
        direction = vertices[1] - vertices[0]
        p = _ORACLE_ENDPOINT_OFFSET * direction / abs(direction)
        tail = _power_endpoint_tail(integrand, p, exponent)
        vertices[0] = p
    quad = contour_quadrature(integrand, Polyline(vertices), tol)
    return outer_sign * (tail + quad)


# Lanczos approximation, g = 7, 9 coefficients: ~15 correct digits on the
# right half-plane, comfortably above the 12-digit targets here.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(z: complex) -> complex:
    """Gamma(z) by the Lanczos series, reflection formula for Re(z) < 1/2."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise DomainError(f"gamma_fn pole at {z!r}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma_fn(1.0 - z))
    z -= 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return ensure_finite(
        math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x, "gamma_fn"
    )


def euler_beta(a: complex, b: complex) -> complex:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b); symmetric as computed."""
    a, b = complex(a), complex(b)
    for v in (a, b, a + b):
        if _is_nonpositive_integer(v):
            raise DomainError(f"euler_beta pole: argument {v!r}")
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


def elliptic_K(k: complex) -> complex:
    """Complete elliptic integral K(k), Legendre modulus convention, by the
    arithmetic-geometric mean of 1 and sqrt(1 - k^2)."""
    k = complex(k)
    m = k * k
    if m.imag == 0 and m.real >= 1.0:
        raise DomainError(f"elliptic_K needs k^2 outside [1, inf), got k={k!r}")
    a = 1.0 + 0.0j
    b = cmath.sqrt(1.0 - m)
    for _ in range(64):
        if abs(a - b) <= 1e-17 * abs(a):
            break
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        # right-choice branch: keep the means in the same half-plane
        if abs(a - b) > abs(a + b):
            b = -b
    return math.pi / (2.0 * a)


def elliptic_F(x: complex, k: complex) -> complex:
    """Incomplete elliptic integral F(x; k) = int_0^x dt / sqrt((1-t^2)(1-k^2 t^2)),
    sine-of-amplitude form, by quadrature along the straight path from 0.

    Real x within 1e-8 of +-1 (a branch point of the integrand, included) is
    handled by an endpoint power fit; other branch points on the path are a
    domain error.
    """
    x = complex(x)
    k = complex(k)
    if x == 0:
        return 0.0 + 0.0j

    def integrand(t: complex) -> complex:
        w = (1.0 - t * t) * (1.0 - k * k * t * t)
        if w == 0:
            raise DomainError(f"elliptic_F path hits branch point at t={t!r}")
        return 1.0 / cmath.sqrt(w)

    edge = 1.0 - 1e-8
    gap = 1.0 - abs(x.real)   # exact for |x| >= 1/2, as is 1 - edge
    if x.imag == 0 and 0 <= gap < 1.0 - edge:
        # F is odd in x.  Near t = 1 the integrand is c s^(-1/2) * analytic in
        # s = 1 - t: integrate to edge and fit the clipped pieces beyond edge
        # and beyond |x| at two scales.  The fit takes s itself, because t
        # carries s only to an absolute 1e-16.
        def from_end(s: float) -> complex:
            return 1.0 / cmath.sqrt(s * (2.0 - s) * (1.0 - k * k * (1.0 - s) ** 2))

        value = contour_quadrature(integrand, [0.0, edge], 1e-11) \
            + _power_endpoint_tail(from_end, 1.0 - edge, -0.5)
        if gap > 0:
            value -= _power_endpoint_tail(from_end, gap, -0.5)
        return math.copysign(1.0, x.real) * value
    return contour_quadrature(integrand, [0.0, x], 1e-11)
