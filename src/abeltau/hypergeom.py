"""Gauss 2F1 series with Pfaff fallback, Gamma/Beta via Lanczos, Legendre
elliptic integrals, and the incomplete-integral <-> 2F1 identities

    int_0^z u^(a-1) (u^n - 1)^(-b) du
        = (e^(i pi b)/a) z^a 2F1(b, a/n; a/n + 1 | z^n),        Re(a) > 0,
    int_inf^z u^(a-1) (u^n - 1)^(-b) du
        = z^(a-nb)/(a-nb) 2F1(b, b - a/n; b - a/n + 1 | z^-n),  Re(nb-a) > 0,

together with a brute-force contour-quadrature oracle for both.

Every 2F1 the uniformizers and the P inverses need is 2F1(1/2, b; b+1 | z),
where c = b + 1 = a + b + 1/2, so the quadratic transformation
F(a, b; a+b+1/2 | 4w(1-w)) = F(2a, 2b; a+b+1/2 | w) (DLMF 15.8(iii)) gives

    2F1(1/2, b; b+1 | z) = 2F1(1, 2b; b+1 | w),   w = (1 - sqrt(1-z))/2,

principal root.  The private _f21 sums that series in w: on the series disk
|z| <= 0.95, |w| <= 0.39, so it needs far fewer terms than the one in z.

Branch convention (fixed so formula and oracle agree for real z in (0,1)):
the from-zero integrand is read as  u^(a-1) e^(i pi b) (1 - u^n)^(-b)  with
principal powers, i.e. (u^n - 1) = e^(-i pi) (1 - u^n) on the base interval.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import AccuracyError, DomainError, DomainNotSupported
from .modular import _MAX_TERMS, _REL_TOL
from .numerics import (Polyline, _Jet, _value_type, contour_quadrature, ensure_finite,
                       principal_power)

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


def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0 and z.real <= 0 and z.real.is_integer()


class HypergeometricParams(_value_type("HypergeometricParams", "a b c")):
    """The (a, b; c) parameter triple of a Gauss hypergeometric series."""

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, c: complex):
        self = super().__new__(cls, complex(a), complex(b), complex(c))
        a, b, c = self
        if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
            raise DomainError(f"2F1 parameters must be finite: {self!r}")
        if _is_nonpositive_integer(c):
            raise DomainError(f"2F1 lower parameter c={c} is a nonpositive integer")
        return self


def _f21_series(a: complex, b: complex, c: complex, z):
    """2F1(a, b; c | z) for a number z, or its jet for a jet z.  With t_n the
    series coefficients, x the value of z and Q_n = t_n x^(n-3), one pass sums

        F    = 1 + t1 x + t2 x^2 + x^3 sum Q_n,
        F'   = t1 + 2 t2 x + x^2 sum n Q_n,
        F''  = 2 t2 + x sum n (n-1) Q_n,
        F''' = sum n (n-1)(n-2) Q_n,                n >= 3,

    and a number F alone, from its own terms x^3 Q_n = t_n x^n.  The stop
    rule watches the terms of the highest derivative summed: those of F,
    after its leading 1, for a number; those of F''' for a jet, which decay
    slowest.  A jet's magnitude starts at the smallest normal float over the
    relative tolerance, so that a term below the normal range counts as
    small: with a tiny t1, Q_n can stall at the smallest subnormal while
    n(n-1)(n-2) Q_n grows.
    """
    jet = isinstance(z, _Jet)
    x = z.c[0] if jet else z
    t1 = a * b / c
    t2 = t1 * (a + 1.0) * (b + 1.0) / ((c + 1.0) * 2.0)
    q = t2 * (a + 2.0) * (b + 2.0) / ((c + 2.0) * 3.0)
    if not jet:
        q *= x * x * x
    s0 = s1 = s2 = s3 = 0j
    mag = sys.float_info.min / _REL_TOL if jet else 1.0
    small_run = 0
    for n in range(3, _MAX_TERMS + 3):
        s0 += q
        d = q
        if jet:
            m = n * (n - 1)
            s1 += n * q
            s2 += m * q
            d = (n - 2) * m * q
            s3 += d
        size = abs(d)
        mag += size
        if size <= _REL_TOL * mag:
            small_run += 1
            if small_run >= 2:
                if jet:
                    return z.compose(1.0 + (t1 + (t2 + x * s0) * x) * x,
                                     t1 + (2.0 * t2 + x * s1) * x, 2.0 * t2 + x * s2, s3)
                return ensure_finite(1.0 + (t1 + t2 * x) * x + s0, "2F1 series")
        else:
            small_run = 0
        q *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
    raise AccuracyError("2F1 series did not converge within max_terms")


def _gauss_2f1(params: HypergeometricParams, z):
    """gauss_2f1 on a number or a jet z."""
    a, b, c = params.a, params.b, params.c
    if abs(z) <= _SERIES_DISK:
        return _f21_series(a, b, c, z)
    w = z / (z - 1.0)
    if abs(w) <= _SERIES_DISK:
        return principal_power(1.0 - z, -a) * _f21_series(a, c - b, c, w)
    raise DomainNotSupported(
        f"2F1 argument {z!r} outside both the series disk and the Pfaff-reachable region"
    )


def gauss_2f1(params: HypergeometricParams, z: complex) -> complex:
    """2F1(a, b; c | z) by power series for |z| <= 0.95, else by the Pfaff
    transformation (1-z)^(-a) 2F1(a, c-b; c | z/(z-1)) when that argument is
    in the series disk.  Anything else is a hard DomainNotSupported: no
    silent analytic continuation.
    """
    return _gauss_2f1(params, complex(z))


def _f21(a, b, c, z):
    """2F1(a, b; c | z) for a number z, or its jet for a jet z, under the
    domain gates of gauss_2f1.

    With a = 1/2, c = b + 1 and z in the series disk it sums the quadratic
    form of the module docstring, 2F1(1, 2b; b+1 | w), with w written free
    of cancellation as z/(2(1 + s)), s = sqrt(1 - z); a jet z gets the jet of
    w from w' = 1/(4s), w'' = 1/(8s^3) and w''' = 3/(16s^5).  Otherwise a
    number goes through the public gauss_2f1, a jet to its kernel directly:
    the public function takes numbers.
    """
    params = HypergeometricParams(a, b, c)
    jet = isinstance(z, _Jet)
    if params.a == 0.5 and params.c == params.b + 1.0 and abs(z) <= _SERIES_DISK:
        x = z.c[0] if jet else z
        s = cmath.sqrt(1.0 - x)
        w = x / (2.0 * (1.0 + s))
        if jet:
            r = 0.25 / s
            s2 = s * s
            w = z.compose(w, r, 0.5 * r / s2, 0.75 * r / (s2 * s2))
        return _f21_series(1.0, 2.0 * params.b, params.c, w)
    return (_gauss_2f1 if jet else gauss_2f1)(params, z)


class IncompleteIntegralSpec(_value_type("IncompleteIntegralSpec", "alpha beta n z base")):
    """Parameters (alpha, beta, n, z) of one incomplete integral, anchored
    either at 0 or at infinity: base is "from_zero" or "from_infinity"."""

    __slots__ = ()

    def __new__(cls, alpha: complex, beta: complex, n: int, z: complex, base: str):
        self = super().__new__(cls, complex(alpha), complex(beta), n, complex(z), base)
        alpha, beta, n, z, base = self
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"n must be a positive integer, got {n!r}")
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta) and cmath.isfinite(z)):
            raise DomainError(f"alpha, beta and z must be finite: {self!r}")
        if base == "from_zero":
            if not alpha.real > 0:
                raise DomainError("from_zero integral needs Re(alpha) > 0")
        elif base == "from_infinity":
            if not (n * beta - alpha).real > 0:
                raise DomainError("from_infinity integral needs Re(n beta - alpha) > 0")
            if z == 0:
                raise DomainError("from_infinity integral needs z != 0")
        else:
            raise DomainError(f"unknown base {base!r}")
        return self


def incomplete_integral_2f1(spec: IncompleteIntegralSpec) -> complex:
    """Closed hypergeometric form of the incomplete integral."""
    a, b, n, z, base = spec
    k = n if base == "from_zero" else -n
    try:
        arg = z**k
    except (OverflowError, ZeroDivisionError):  # complex ** int past the float range
        raise DomainNotSupported(f"2F1 argument z^{k} overflows at z = {z!r}") from None
    if base == "from_zero":
        return (cmath.exp(1j * math.pi * b) / a) * principal_power(z, a) \
            * _f21(b, a / n, a / n + 1.0, arg)
    return principal_power(z, a - n * b) / (a - n * b) \
        * _f21(b, b - a / n, b - a / n + 1.0, arg)


def oracle_incomplete_integral(spec: IncompleteIntegralSpec,
                               path: Polyline | None = None,
                               tol: float = 1e-10) -> complex:
    """Quadrature cross-check of incomplete_integral_2f1, no hypergeometrics.

    from_zero integrates u^(alpha-1) e^(i pi beta) (1-u^n)^(-beta) from 0 to
    z; from_infinity substitutes u -> 1/v and integrates v^(n beta - alpha - 1)
    (1-v^n)^(-beta) from 0 to 1/z (with an overall minus sign).  Both
    integrate c u^e (1-u^n)^(-beta) from the base point 0 itself: on the first
    segment [0, v1], u = v1 w^(1/g) with g = 1 + Re(e) turns u^e du into the
    bounded (v1^(e+1)/g) w^(i Im(e)/g) dw on w in [0, 1], so the tanh-sinh
    quadrature stays accurate as Re(e) nears -1.  Each node takes one exp of
    a sum of principal logs, which is the product of the principal powers.

    The path is in the integration variable (u for from_zero, v = 1/u for
    from_infinity), must start at 0, and must stay where the principal branch
    of (1 - .^n)^(-beta) is continuous, i.e. avoid {w : w^n in [1, inf)}.
    """
    a, b, n = spec.alpha, spec.beta, spec.n
    if spec.base == "from_zero":
        exponent = a - 1.0
        target = spec.z
        coeff = cmath.exp(1j * math.pi * b)
    else:
        exponent = n * b - a - 1.0
        m = abs(spec.z) ** 2  # by components: 1.0 / z drops the sign of a zero Im(z)
        if m < sys.float_info.min:  # subnormal or zero: 1/z would lose its bits or divide by 0
            raise DomainNotSupported(f"|z|^2 underflows at z = {spec.z!r}; 1/z is not computed")
        target = complex(spec.z.real / m, -spec.z.imag / m)
        coeff = -1.0

    vertices = path.vertices if path is not None else (0.0 + 0.0j, target)
    if vertices[0] != 0:
        raise DomainError("oracle path must start at the integral's base point 0")

    def integrand(u: complex) -> complex:
        d = 1.0 - u**n
        if u == 0 or d == 0:  # a principal power of 0: the value 0, or a DomainError
            return principal_power(u, exponent) * principal_power(d, -b)
        return cmath.exp(exponent * cmath.log(u) - b * cmath.log(d))

    v1 = vertices[1]
    g = 1.0 + exponent.real
    scale = principal_power(v1, exponent + 1.0) / g
    spin = 1j * exponent.imag / g

    def mapped(w: complex) -> complex:
        log_w = math.log(w.real)  # w runs over the real segment (0, 1]
        u = v1 * math.exp(log_w / g)
        d = 1.0 - u**n
        if d == 0:  # the value 0, or a DomainError
            return scale * principal_power(d, -b)
        return scale * cmath.exp(spin * log_w - b * cmath.log(d))

    try:
        value = contour_quadrature(mapped, (0.0, 1.0), tol)
        if len(vertices) > 2:
            value += contour_quadrature(integrand, vertices[1:], tol)
    except OverflowError:  # from cmath.exp or u**n at a node
        raise AccuracyError(f"the oracle integrand overflows on the path of {spec!r}") from None
    return coeff * value


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


def _finite(z: complex, name: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} needs a finite argument, got {z!r}")
    return z


def _lanczos(z: complex) -> tuple[complex, complex]:
    """(x, t) with Gamma(z) = sqrt(2 pi) x t^(z-1/2) e^(-t), Re(z) >= 1/2."""
    w = z - 1.0
    x = sum((c / (w + i) for i, c in enumerate(_LANCZOS_C[1:], 1)), _LANCZOS_C[0])
    return x, w + _LANCZOS_G + 0.5


def gamma_fn(z: complex) -> complex:
    """Gamma(z) by the Lanczos series, for Re(z) < 1/2 by the reflection
    pi / (sin(pi z) Gamma(1 - z)) in logs: Gamma(0.2 + 300i) and the subnormal
    Gamma(-171.5) are finite although the sine or Gamma(1 - z) overflows.
    Gamma past the float range, or below 2^-1031, is an AccuracyError."""
    z = _finite(z, "gamma_fn")
    if _is_nonpositive_integer(z):
        raise DomainError(f"gamma_fn pole at {z!r}")
    try:
        if z.real < 0.5:
            # past |Im z| = 1, log sin(pi z) = -s i pi z + log(s i/2) + log(1 - e^(2 s i pi z)),
            # s = sign(Im z): sin(pi z) itself overflows from |Im z| = 226 on
            s, piz = math.copysign(1.0, z.imag), math.pi * z
            log_sin = cmath.log(cmath.sin(piz)) if abs(z.imag) < 1.0 else (
                -s * 1j * piz + cmath.log(0.5j * s) + cmath.log(1.0 - cmath.exp(2j * s * piz)))
            x, t = _lanczos(1.0 - z)
            g = cmath.exp(0.5 * math.log(0.5 * math.pi) - log_sin - cmath.log(x)
                          - (0.5 - z) * cmath.log(t) + t)
        else:
            x, t = _lanczos(z)
            # t^(z-1/2) e^(-t) as p (p e^(-t)): t^(z-1/2) alone overflows
            # from z = 142.4 on, although Gamma is finite up to 171.6
            p = t ** (0.5 * (z - 0.5))
            g = math.sqrt(2.0 * math.pi) * x * p * (p * cmath.exp(-t))
    except OverflowError:
        raise AccuracyError(f"gamma_fn({z!r}) overflows") from None
    if abs(g) < 2.0**-1031:  # a subnormal below this keeps fewer than 43 bits
        raise AccuracyError(f"gamma_fn({z!r}) underflows")
    return ensure_finite(g, "gamma_fn")


def euler_beta(a: complex, b: complex) -> complex:
    """B(a, b) = Gamma(a) (Gamma(b) / Gamma(a+b)), the arguments in a fixed
    order so that it is symmetric as computed; dividing first keeps a finite
    B whose product Gamma(a) Gamma(b) would overflow."""
    a, b = _finite(a, "euler_beta"), _finite(b, "euler_beta")
    for v in (a, b, a + b):
        if _is_nonpositive_integer(v):
            raise DomainError(f"euler_beta pole: argument {v!r}")
    a, b = sorted((a, b), key=lambda v: (v.real, v.imag))
    return ensure_finite(gamma_fn(a) * (gamma_fn(b) / gamma_fn(a + b)), "euler_beta")


def elliptic_K(k: complex) -> complex:
    """Complete elliptic integral K(k) = R_F(0, 1 - k^2, 1) (DLMF 19.25.1), Legendre
    modulus convention: the R_F call elliptic_F(1, k) makes, 1 - k^2 as (1 - k)(1 + k)."""
    k = complex(k)
    m = k * k
    if not cmath.isfinite(k) or (m.imag == 0 and m.real >= 1.0):
        raise DomainError(f"elliptic_K needs a finite k with k^2 outside [1, inf), got k={k!r}")
    return _carlson_rf(0j, (1.0 - k) * (1.0 + k), 1.0 + 0j)


# Carlson's R_F: with r = 1e-16 in Q = (3r)^(-1/6) max|A0 - arg|, the
# fifth-order series below leaves a relative error under r (DLMF 19.36.1).
_RF_Q_SCALE = (3.0e-16) ** (-1.0 / 6.0)
_RF_MAX_STEPS = 64


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """R_F(x, y, z) by the duplication algorithm (Carlson, Numer. Algorithms
    10, 1995), principal roots; arguments off (-inf, 0], at most one zero."""
    a0 = a = (x + y + z) / 3.0
    q = _RF_Q_SCALE * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    scale = 1.0  # 4^-m after m duplications
    x0, y0 = x, y
    for _ in range(_RF_MAX_STEPS):
        if q * scale < abs(a):
            dx = (a0 - x0) * scale / a
            dy = (a0 - y0) * scale / a
            dz = -dx - dy
            e2 = dx * dy - dz * dz
            e3 = dx * dy * dz
            return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) \
                / cmath.sqrt(a)
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    raise AccuracyError("R_F duplication did not converge (non-finite argument)")


def elliptic_F(x: complex, k: complex) -> complex:
    """Incomplete elliptic integral F(x; k) = int_0^x dt / sqrt((1-t^2)(1-k^2 t^2)),
    sine-of-amplitude form, continued along the straight path from 0:

        F(x; k) = x R_F(1 - x^2, 1 - k^2 x^2, 1)        (DLMF 19.25.5).

    A branch point on the path [0, x] is a domain error, apart from x = +-1
    itself (F(+-1; k) = +-K(k) for k^2 != 1).
    """
    x = complex(x)
    k = complex(k)
    a = (1.0 - x) * (1.0 + x)
    b = (1.0 - k * x) * (1.0 + k * x)
    if (a.imag == 0 and a.real < 0) or (b.imag == 0 and b.real <= 0):
        raise DomainError(f"elliptic_F path [0, {x!r}] meets a branch point for k={k!r}")
    return x * _carlson_rf(a, b, 1.0 + 0.0j)
