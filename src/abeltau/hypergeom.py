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

principal root.  The private _f21_half(b, z), the one place that picks the
route, sums that series in w for |w| <= 0.45: the series disk |z| <= 0.95
(|w| <= 0.39), and on the real axis z in [-2.61, 0.99].  For a real b in
(0, 1] it runs Horner's rule over a cached coefficient table per b; any
other b is summed term by term, numbers only; past the disk gauss_2f1 takes
a number, and a jet is refused.

Branch convention (fixed so formula and oracle agree for real z in (0,1)):
the from-zero integrand is read as  u^(a-1) e^(i pi b) (1 - u^n)^(-b)  with
principal powers, i.e. (u^n - 1) = e^(-i pi) (1 - u^n) on the base interval.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from functools import lru_cache

from .errors import AccuracyError, DomainError, DomainNotSupported
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
_MAX_TERMS = 10_000  # the most terms a 2F1 series sums
_REL_TOL = 1e-16  # the stop rule of _f21_series
_TAIL = 2.0**-53  # what the rows a Horner sum leaves out may add up to, relative
# _f21_w's disk in w = (1 - sqrt(1-z))/2.  On it the Horner sum, which serves a
# real b in (0, 1] (the seven b of the uniformizers among them), takes at most
# 47 rows for a number and 61 for a jet; any other b goes to _f21_series.
# The cut z in [1, inf) maps to the line Re w = 1/2: the disk keeps 0.01 from
# it (at z = 0.99), so no value is taken on either side of the cut.
_W_DISK = 0.45


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


def _f21_series(a: complex, b: complex, c: complex, z: complex) -> complex:
    """2F1(a, b; c | z) for a number z, term by term: with t_n the series
    coefficients, 1 + t1 z + t2 z^2 plus the sum of t_n z^n from n = 3 on,
    each term from the one before by its coefficient ratio.  Its term sizes
    depend on a, b and c, so it owns its stop rule: two consecutive terms below
    _REL_TOL of the magnitude summed from 1; _MAX_TERMS terms without it is an
    AccuracyError, and so is a term whose size passes the float range."""
    t1 = a * b / c
    t2 = t1 * (a + 1.0) * (b + 1.0) / ((c + 1.0) * 2.0)
    q = t2 * (a + 2.0) * (b + 2.0) / ((c + 2.0) * 3.0)
    q *= z * z * z
    s = 0j
    mag = 1.0
    small_run = 0
    try:
        for n in range(3, _MAX_TERMS + 3):
            s += q
            size = abs(q)
            mag += size
            small_run = small_run + 1 if size <= _REL_TOL * mag else 0
            if small_run == 2:
                return ensure_finite(1.0 + (t1 + t2 * z) * z + s, "2F1 series")
            q *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
    except OverflowError:  # abs() of a term with finite parts past the float range
        raise AccuracyError(f"2F1 series term overflows at the series argument {z!r}") from None
    raise AccuracyError("2F1 series did not converge within max_terms")


def gauss_2f1(params: HypergeometricParams, z: complex) -> complex:
    """2F1(a, b; c | z) by power series for |z| <= 0.95, else by the Pfaff
    transformation (1-z)^(-a) 2F1(a, c-b; c | z/(z-1)) when that argument is
    in the series disk.  Anything else, z = 1 included, is a hard
    DomainNotSupported: no silent analytic continuation.
    """
    a, b, c = params
    z = complex(z)
    try:
        size = abs(z)
    except OverflowError:  # finite parts, a modulus past the float range: z/(z-1) is near 1
        size = math.inf
    if size <= _SERIES_DISK:
        return _f21_series(a, b, c, z)
    w = z / (z - 1.0) if z != 1 else math.inf  # z = 1, the pole of z/(z-1), is refused
    if abs(w) <= _SERIES_DISK:
        return principal_power(1.0 - z, -a) * _f21_series(a, c - b, c, w)
    raise DomainNotSupported(
        f"2F1 argument {z!r} outside both the series disk and the Pfaff-reachable region"
    )


def _f21_w(z):
    """The disk of _f21_half, the same for every b: its 2F1(1/2, b; b+1 | z)
    is summed as the quadratic form of the module docstring, 2F1(1, 2b; b+1 | w),
    wherever |w| <= 0.45.  There it returns w = z/(2(1 + s)), free of
    cancellation, s = sqrt(1 - z), for a number z, and the jet of w for a jet
    z from w' = 1/(4s), w'' = 1/(8s^3), w''' = 3/(16s^5).  Past it a number
    gets None, for gauss_2f1, and a jet is refused."""
    jet = isinstance(z, _Jet)
    x = z.c[0] if jet else z
    s = cmath.sqrt(1.0 - x)
    w = x / (2.0 * (1.0 + s))
    if abs(w) <= _W_DISK:
        if jet:
            r, s2 = 0.25 / s, s * s
            w = z.compose(w, r, 0.5 * r / s2, 0.75 * r / (s2 * s2))
        return w
    if jet:
        raise DomainNotSupported(f"2F1 jet at {z!r}: |w| > {_W_DISK}")
    return None


@lru_cache(maxsize=1)
def _f21_edges():
    """([number edges], [jet edges]) of the Horner sum over _f21_table(b), the
    same for every real b in (0, 1].  Edge N-1 is the largest |w| at which the
    first N rows leave out less than 2^-53 of each |c_0j|: of j = 0 for a
    number, of every j for a jet.

    There the t_n fall from t_0 = 1, so |c_nj| <= |c_0j| (n+1)...(n+j)/j!, and
    for n >= N |c_(n+1)j / c_nj| <= rho = (N+1+j)/(N+1): the rows left out add
    up to at most |c_0j| (N+1)...(N+j)/j! |w|^N/(1 - rho |w|), and |w| <= _W_DISK
    bounds the denominator.  The edges end where a jet's reaches _W_DISK, or
    after _MAX_TERMS."""
    edges = ([], [])
    n = 0
    while n < _MAX_TERMS and not (edges[1] and edges[1][-1] >= _W_DISK):
        n += 1
        reach = []
        for j, bound in enumerate((1.0, n + 1.0, (n + 1) * (n + 2) / 2.0,
                                   (n + 1) * (n + 2) * (n + 3) / 6.0)):
            rho = (n + 1 + j) / (n + 1)
            reach.append((_TAIL * (1.0 - rho * _W_DISK) / bound) ** (1.0 / n)
                         if rho * _W_DISK < 1.0 else 0.0)
        # N + 1 rows serve wherever N do: each edge is at least the one before
        for k, edge in enumerate((reach[0], min(reach))):
            edges[k].append(max(edge, edges[k][-1]) if edges[k] else edge)
    return edges


@lru_cache(maxsize=32)
def _f21_table(b):
    """The rows of 2F1(1, 2b; b+1 | w) = sum t_n w^n, t_0 = 1,
    t_(n+1) = t_n (2b + n)/(b + 1 + n), for a real b in (0, 1]: rows[n] holds
    the w^n coefficients c_nj = (n+1)...(n+j) t_(n+j) of the value (j = 0) and
    of its first three derivatives in w, as many rows as _f21_edges reach."""
    count = len(_f21_edges()[1])
    t = [1.0]
    for k in range(count + 2):
        t.append(t[k] * (2.0 * b + k) / (b + 1.0 + k))
    return tuple((t[m], (m + 1) * t[m + 1], (m + 1) * (m + 2) * t[m + 2],
                  (m + 1) * (m + 2) * (m + 3) * t[m + 3]) for m in range(count))


def _f21_rows(table, w):
    """(x, rows): w's value x, and the rows of an _f21_table, or of a table of
    rows built alike, that a Horner sum at w takes, last first: as many as
    _f21_edges ask for at |x|, for a number or for a jet w of _f21_w's disk,
    which both edge lists reach."""
    jet = isinstance(w, _Jet)
    x = w.c[0] if jet else w
    return x, table[bisect_left(_f21_edges()[jet], abs(x))::-1]


def _f21_horner(table, w):
    """sum_n c_n0 w^n over the rows (c_n0, c_n1, c_n2, c_n3) of table that
    _f21_rows takes at w, by Horner's rule: the value for a number w, and for
    a jet w the jet composed from the four sums."""
    x, rows = _f21_rows(table, w)
    s0 = s1 = s2 = s3 = 0j
    if isinstance(w, _Jet):
        for c0, c1, c2, c3 in rows:
            s0 = s0 * x + c0
            s1 = s1 * x + c1
            s2 = s2 * x + c2
            s3 = s3 * x + c3
        return w.compose(s0, s1, s2, s3)
    for c0, _, _, _ in rows:
        s0 = s0 * x + c0
    return ensure_finite(s0, "2F1 series")


def _f21_half(b, z):
    """2F1(1/2, b; b+1 | z) for a number z, or its jet for a jet z: the one
    place that picks its route.  Where w = _f21_w(z) is in the disk it is
    2F1(1, 2b; b+1 | w), by _f21_horner over _f21_table(b) for a real b in
    (0, 1], the seven b of the uniformizers among them, and by _f21_series
    for any other b, numbers only; past the disk a number goes to gauss_2f1,
    and _f21_w refuses a jet."""
    w = _f21_w(z)
    if w is None:
        return gauss_2f1(HypergeometricParams(0.5, b, b + 1.0), z)
    if b.imag == 0 and 0.0 < b.real <= 1.0:
        return _f21_horner(_f21_table(b), w)
    return _f21_series(1.0, 2.0 * b, b + 1.0, w)


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


def _branch_factor(beta: complex) -> complex:
    """e^(i pi beta), the from-zero branch factor, with Re(beta) taken mod 2
    (exactly, so a huge Re(beta) keeps its phase); past the float range, from
    Im(beta) < -226 on, an AccuracyError."""
    try:
        factor = cmath.exp(complex(-math.pi * beta.imag, math.pi * math.fmod(beta.real, 2.0)))
    except OverflowError:
        factor = math.inf
    if cmath.isinf(factor):  # exp(inf), from Im(beta) = -5.7e307 on, does not raise
        raise AccuracyError(f"e^(i pi beta) overflows at beta = {beta!r}")
    return factor


def _reciprocal(z: complex) -> complex:
    """1/z as conj(z)/|z|^2 by components, as complex division drops the sign
    of a zero Im(z).  z is scaled by a power of 2 first, so that |z|^2 cannot
    overflow; wherever the unscaled |z|^2 is a normal float the value is the
    unscaled one to the bit."""
    k = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    x, y = math.ldexp(z.real, -k), math.ldexp(z.imag, -k)
    m = abs(complex(x, y)) ** 2
    return complex(math.ldexp(x / m, -k), math.ldexp(-y / m, -k))


def incomplete_integral_2f1(spec: IncompleteIntegralSpec) -> complex:
    """Closed hypergeometric form of the incomplete integral.  A value past
    the float range, or below sys.float_info.min, whose subnormal has lost
    digits, is an AccuracyError; from_zero at z = 0 keeps its exact 0."""
    a, b, n, z, base = spec
    k = n if base == "from_zero" else -n
    try:  # z^-n as (1/z)^n: z^n first would overflow from |z| = 1.34e154 on (n = 2)
        arg = z**n if base == "from_zero" else _reciprocal(z) ** n
    except (OverflowError, ZeroDivisionError):  # past the float range, raised
        arg = math.inf
    if not cmath.isfinite(arg):  # past the float range, as inf or nan
        raise DomainNotSupported(f"2F1 argument z^{k} overflows at z = {z!r}")
    if base == "from_zero":
        p, lead = a / n, (_branch_factor(b) / a) * principal_power(z, a)
    else:
        p, lead = b - a / n, principal_power(z, a - n * b) / (a - n * b)
    value = lead * (_f21_half(p, arg) if b == 0.5
                    else gauss_2f1(HypergeometricParams(b, p, p + 1.0), arg))
    if abs(value) < sys.float_info.min and z != 0:
        raise AccuracyError(f"the incomplete integral underflows at {spec!r}")
    return ensure_finite(value, "incomplete integral")


# A vertex closer to a branch point w^n = 1 than _branch_gap(beta, tol) is
# refused.  At distance d from one, 1 - w^n is off by about eps/d relative, the
# oracle by about eps d^(-Re beta), and its error estimate does not see it: ending
# at 1 - 1e-12 for beta = 1/2 it was 1.0e-10 off at tol 1e-10, and at 1 - 2e-5
# for beta = 0.9 it was 1.5e-12 off at tol 1e-12.  So the gap is where that
# error reaches tol/_BRANCH_MARGIN, and never below _BRANCH_GAP.  In a sweep
# over n = 1..4, both bases, every branch point, four directions of approach,
# beta in {0.5, 0.9, 0.95, 1, 1.5}, tol in {1e-10, 1e-12} and d from 1e-6 to
# 3e-3, the error was at most 1.14 eps d^(-beta) against a 30-digit 2F1; with
# the margin 4, the ends served stay within 0.16 tol.
_BRANCH_GAP = 1e-5
_BRANCH_MARGIN = 4.0


def _branch_gap(beta: complex, tol: float) -> float:
    """The distance to a branch point within which the oracle refuses a
    vertex: where eps d^(-Re beta) = tol/_BRANCH_MARGIN, at most 1, so that the
    base point 0 is served, and at least _BRANCH_GAP."""
    if beta.real <= 0:  # (1 - w^n)^(-beta) stays bounded
        return _BRANCH_GAP
    excess = _BRANCH_MARGIN * sys.float_info.epsilon
    ratio = excess / tol if tol > excess else 1.0
    return max(_BRANCH_GAP, ratio ** (1.0 / beta.real))


def _near_branch_point(vertices, n: int, gap: float) -> bool:
    """Whether a vertex lies within gap of a branch point w^n = 1; those lie on |w| = 1."""
    turn = 2.0 * math.pi / n
    return any(abs(v - cmath.exp(1j * turn * round(cmath.phase(v) / turn))) < gap
               for v in set(vertices) if abs(abs(v) - 1.0) < gap)


def _meets_cut(vertices, n: int) -> bool:
    """Whether the polyline meets the cut {w : w^n in [1, inf)}: each segment, turned
    by e^(-2 pi i k/n), against [1, inf), where within 4 ulp counts as on it."""
    tol = 4.0 * sys.float_info.epsilon
    if max(map(abs, vertices)) < 1.0 - tol:
        return False  # the unit disk is convex and the cut lies outside it
    for k in range(n):
        turn = cmath.exp(-2j * math.pi * k / n)
        turned = [v * turn for v in vertices]
        for p, q in zip(turned, turned[1:]):
            y0, y1 = (v.imag if abs(v.imag) > tol * abs(v) else 0.0 for v in (p, q))
            if min(y0, y1) <= 0.0 <= max(y0, y1):  # the segment meets the real line
                t = y0 / (y0 - y1) if y0 != y1 else float(q.real > p.real)  # along it: far end
                if p.real + t * (q.real - p.real) >= 1.0 - tol:
                    return True
    return False


_UNIT_SEGMENT = Polyline((0.0, 1.0))  # the first leg, in t
# A far end v1 whose reach, (n Re(beta) - Re(e + 1)) ln|v1|, passes _FAR_REACH
# is refused.  Past |u| = 1 the integrand, per unit of ln|u|, falls like
# e^(-reach) from the unit circle to v1, so the leg out to v1 holds its bulk on
# a stretch of the tanh-sinh variable about 1/reach wide, which coarse levels
# step over, agreeing on the tail alone.  In a seeded sweep of 3 800 specs
# (both bases, n = 1..4, Re(e + 1) in [0.08, 1.8], Re(beta) in [0.24, 1.56],
# |v1| up to 1e160, tol 1e-6 to 1e-12, against a 30-digit closed form) every
# value served with reach <= 40.6 was within 0.011 tol (1 + |ref|), and every
# one from 44.5 on was 1.9e4 tol off or more; 3 000 specs with reach in
# [30, 50] put the first wrong value at 42.2.  The bound stays e^8 below it,
# and refused 26 right values of the 3 800.
_FAR_REACH = 34.0


def oracle_incomplete_integral(spec: IncompleteIntegralSpec,
                               path: Polyline | None = None,
                               tol: float = 1e-10) -> complex:
    """Quadrature cross-check of incomplete_integral_2f1, no hypergeometrics.

    from_zero integrates u^(alpha-1) e^(i pi beta) (1-u^n)^(-beta) from 0 to
    z; from_infinity substitutes u -> 1/v and integrates v^(n beta - alpha - 1)
    (1-v^n)^(-beta) from 0 to 1/z (with an overall minus sign).  Both
    integrate c u^e (1-u^n)^(-beta) from the base point 0 itself, with its
    singular part u^e subtracted (Davis & Rabinowitz, Methods of Numerical
    Integration, 1984, 2.12.7): with rho = v1 if the first vertex v1 has
    |v1| <= 1, else v1/|v1|, and u = rho t for a real t, the ray to v1 is

        rho^(e+1) (1/(e+1) + int_0^1 t^e ((1 - rho^n t^n)^(-beta) - 1) dt
                   + int_1^|v1| t^e (1 - rho^n t^n)^(-beta) dt).

    The first integrand is about beta rho^n t^(e+n) near 0, bounded however
    near Re(e) is to -1; the split at |u| = 1 keeps the subtracted u^e from
    outgrowing the value, and a real t keeps the principal powers and the
    sign of a zero Im(v1) exact.  e + 1 is alpha or n beta - alpha itself:
    1 + Re(e) would cancel Re(alpha) as it nears 0.  rho^(e+1)/(e+1) is also
    the leading term of the closed form under check; the quadrature checks
    everything past it.  A node is a product of principal powers, Python's
    ** (one of a nonzero base takes the principal log):
    t^e (1 - rho^n t^n)^(-beta), rho^n computed once per call, or
    u^e (1 - u^n)^(-beta) on a later segment.  A base 0 goes to
    principal_power, for its value 0 or its DomainError, and a power past the
    float range, in modulus or in phase, is an AccuracyError.

    The path is in the integration variable (u for from_zero, v = 1/u for
    from_infinity), must start at 0, and must stay where the principal branch
    of (1 - .^n)^(-beta) is continuous, i.e. avoid the cut {w : w^n in [1, inf)}:
    a path that meets it, the default straight one included, is refused, also
    at a branch point w^n = 1 (ending at u = 1 gave i B(1/4, 1/2)/2 to 1.6e-8),
    and so is a vertex, rho among them, within _branch_gap(beta, tol) of one.
    A first vertex v1 whose reach passes _FAR_REACH is refused too.

    Its accuracy is absolute, about tol, so a value far below tol, a
    subnormal one included, is returned as the quadrature gives it; only
    incomplete_integral_2f1 refuses a value that underflows.
    """
    a, b, n = spec.alpha, spec.beta, spec.n
    if spec.base == "from_zero":
        lead = a  # e + 1, for the base-point exponent e
        target = spec.z
        coeff = _branch_factor(b)
    else:
        lead = n * b - a
        try:
            target = _reciprocal(spec.z)
        except OverflowError:  # a subnormal z
            raise DomainNotSupported(f"1/z overflows at z = {spec.z!r}") from None
        coeff = -1.0
    exponent = lead - 1.0 if lead.imag else lead.real - 1.0  # a float power costs less

    vertices = path.vertices if path is not None else (0.0 + 0.0j, target)
    if vertices[0] != 0:
        raise DomainError("oracle path must start at the integral's base point 0")
    try:
        meets = _meets_cut(vertices, n)
    except OverflowError:  # a vertex with finite parts and a modulus past the float range
        raise DomainNotSupported(f"the oracle path {vertices!r} passes the float range") from None
    if meets:
        raise DomainNotSupported(f"the oracle path {vertices!r} meets the cut w^{n} in [1, inf)")
    v1 = vertices[1]
    size = abs(v1)
    if size > 1.0 and (n * b.real - lead.real) * math.log(size) > _FAR_REACH:
        raise DomainNotSupported(f"the far end {v1!r} is out of the quadrature's reach")
    # by components, as complex division drops the sign of a zero Im(v1)
    rho = complex(v1.real / size, v1.imag / size) if size > 1.0 else v1
    gap = _branch_gap(b, tol)
    if _near_branch_point((rho, *vertices), n, gap):
        raise DomainNotSupported(f"a vertex of the oracle path {vertices!r} lies within "
                                 f"{gap:.3g} of a branch point w^{n} = 1")
    minus_b, rho_n = -b, rho**n

    def integrand(u: complex) -> complex:
        d = 1.0 - u**n
        if u == 0 or d == 0:  # a principal power of 0: the value 0, or a DomainError
            return principal_power(u, exponent) * principal_power(d, minus_b)
        return u**exponent * d**minus_b

    def radial(t: float) -> complex:  # u = rho t; on (0, 1) less t^e, integrated in closed form
        p = t**exponent
        d = (1.0 - rho_n * t**n) ** minus_b
        return p * (d - 1.0) if t < 1.0 else p * d

    try:
        ray = _UNIT_SEGMENT if rho == v1 else Polyline((0.0, 1.0, size))
        value = principal_power(rho, lead) * (1.0 / lead + contour_quadrature(radial, ray, tol))
        if len(vertices) > 2:
            value += contour_quadrature(integrand, vertices[1:], tol)
    except ZeroDivisionError:  # a power of a nonzero base whose phase is past the float range
        raise AccuracyError(f"the phase of the oracle integrand is past the float range "
                            f"on the path of {spec!r}") from None
    return ensure_finite(coeff * value, "oracle value")


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
    Gamma past the float range, or below 2^-1031, is an AccuracyError, and so
    is a z whose pi z or power t^(z-1/2) leaves it (sin(pi z) at
    Re(z) = -9.2e307, t^(z-1/2) at Im(z) = -6.9e307)."""
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
    except (ValueError, ZeroDivisionError):  # sin or a power of an argument past the float range
        raise AccuracyError(f"gamma_fn({z!r}) leaves the float range") from None
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
