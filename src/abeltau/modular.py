"""Jacobi theta constants, the Dedekind eta function, and the Hauptmoduln
built from them, all as truncated q-series in the nome q = exp(pi i tau),
summed at tau reduced to the fundamental domain.

Only zero-argument theta values (theta constants) are provided, on the upper
half-plane with Im(tau) >= MIN_IM_TAU = 1e-2; below that line every public
function refuses with AccuracyError.  The one internal value taken below it
is theta2(tau/2) of sqrt_theta_ratio, at Im(tau)/2 >= 5e-3, which the
reduction serves as it serves the rest.

Reduction (DLMF 20.7(viii), 23.15(ii)).  _modular takes tau, a number or a
jet, by shifts tau -> tau - n with n = round(Re(tau)) and inversions
tau -> -1/tau until Im(tau) >= 0.866 (just below sqrt(3)/2), sums the
series there, and carries each value back by

    theta2(tau + 1) = exp(i pi/4) theta2(tau),
    theta3(tau + 1) = theta4(tau),   theta4(tau + 1) = theta3(tau),
    eta(tau + 1) = exp(i pi/12) eta(tau),
    (theta2, theta3, theta4, eta)(-1/tau) = sqrt(-i tau) (theta4, theta3, theta2, eta)(tau),

with the principal root, Re(-i tau) > 0.  Every series so runs at
|q| <= exp(-0.866 pi) < 0.066, with at most 4 terms for a number and 5 for a
jet.  A shift is exact (x - round(x) is, for every double x), and its
multipliers depend on n mod 24 alone, an exact integer even at
Re(tau) = 1e300.  After a shift |Re(tau)| <= 1/2, so an inversion multiplies
Im(tau) = y by 1/|tau|^2 >= 1/(1/4 + y^2) > 1 and the chain ends: within 4
inversions from Im(tau) >= 5e-3.  Near the cusps Re(tau) in {0, +-1} the
true values are exponentially small; the reduction forms them as products of
O(1) factors and of a q-series with no cancellation, so
theta3(1 + 0.0101i) = 3.4e-33 comes out 1.2e-15 relative off.  What is left
is the rounding of each inverted tau, amplified by the conditioning of the
function at tau: up to 3e-13 relative on Im(tau) >= 1e-2 (tests).

No conditioning guard is needed on a reduced series: there
sum |term| / |sum| <= 1.3 (theta4 at 0.866i), so cancellation costs it at
most half a bit.

Far up the half-plane theta2 and eta leave the normal float range (theta2
from Im(tau) = 903 on, eta from 2706 on) and raise AccuracyError.  The
equianharmonic Hauptmodul is 1 to the last bit once exp(2 pi i tau)
underflows (from Im(tau) = 118.6 on), and is not formed as a quotient there;
below that height eta(9 tau) is within the float range.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from operator import itemgetter

from .errors import AccuracyError, DomainError
from .numerics import _Jet

__all__ = [
    "MIN_IM_TAU",
    "theta2",
    "theta3",
    "theta4",
    "dedekind_eta",
    "hauptmodul_lemniscatic",
    "hauptmodul_equianharmonic",
    "hauptmodul_hyperelliptic",
    "sqrt_theta_ratio",
]

MIN_IM_TAU = 1e-2

_PI_I = 1j * math.pi


def _tau_value(tau):
    """tau as a complex number, or the jet in tau itself, its value checked:
    finite, in the upper half-plane and with Im(tau) >= MIN_IM_TAU."""
    jet = isinstance(tau, _Jet)
    t = tau.c[0] if jet else complex(tau)
    if not (cmath.isfinite(t) and t.imag > 0):
        raise DomainError(f"tau must be finite and in the upper half-plane, got {t!r}")
    if t.imag < MIN_IM_TAU:
        raise AccuracyError(f"Im(tau) = {t.imag:g} < {MIN_IM_TAU:g}: outside the served domain")
    return tau if jet else t


_TINY = sys.float_info.min  # a value below it is an AccuracyError

# The q-series term tables: rows (a_k, lam_k, w_k), w_k = Im(lam_k) increasing.
# At y = Im(tau) a number sums the terms with w_k <= w_0 + _TAIL_LOG/y and a jet
# those with w_k <= w_f + _JET_TAIL_LOG/y, w_f the first w_k != 0; at the least
# reduced y, _Y_REDUCED, that is at most 4 and 5 of a table's _TERMS.  Why it
# suffices: |term k| = |a_k| exp(-w_k y) (DLMF 20.2) and |a_k/a_m| <= 2, so term
# k is below 2^-54 of term m once (w_k - w_m) y >= _TAIL_LOG = ln(2^53 4); the
# ln 2 to spare covers the tail, which falls off faster than by halves.  A
# number measures each term against the first, the largest.  A jet's
# derivatives of order j <= 3 carry lam_k^j, adding 3 ln(w_k/w_m): against
# m = max(f, k//4), term k needs (w_k - w_f) y >= (_TAIL_LOG + 3 ln(w_k/w_m))
# (w_k - w_f)/(w_k - w_m), which is at most 52.51 over all tables (eta's k = 3,
# w_3/w_0 = 121; a test checks each term).  What is left out of each order sums
# below 2^-53 of a summed term.
_Y_REDUCED = 0.866
_TERMS = 6
_TAIL_LOG = 53.0 * math.log(2.0) + math.log(4.0)
_JET_TAIL_LOG = 52.6
_W = itemgetter(2)


def _rows(terms) -> tuple:
    """The table of the terms (a_k, lam_k): each with w_k = Im(lam_k) appended."""
    return tuple((a, lam, lam.imag) for a, lam in terms)


def _pentagonal(shift: float) -> tuple:
    """The table of Euler's series sum_n (-1)^n x^(n(3n-1)/2), x = exp(2 pi i tau),
    times exp(shift pi i tau); n = 0, 1, -1, 2, -2, ... raises the exponent."""
    ns = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(_TERMS)]
    return _rows((-1.0 if n % 2 else 1.0, (n * (3 * n - 1) + shift) * _PI_I) for n in ns)


_THETA2 = _rows((2.0, (k * k + k + 0.25) * _PI_I) for k in range(_TERMS))
_THETA3 = _rows([(1.0, 0j)] + [(2.0, k * k * _PI_I) for k in range(1, _TERMS)])
_THETA4 = _rows([(1.0, 0j)] + [(-2.0 if k % 2 else 2.0, k * k * _PI_I) for k in range(1, _TERMS)])
_ETA = _pentagonal(1.0 / 12.0)  # exp(pi i tau/12) folded in

# The four series by index, and what the reduction's steps do to the indices
# (module docstring): an odd shift swaps theta3 and theta4, a unit shift
# multiplies theta2 by exp(3 pi i/12) and eta by exp(pi i/12), and an
# inversion swaps theta2 and theta4.
_TABLES = (_THETA2, _THETA3, _THETA4, _ETA)
_I2, _I3, _I4, _IETA = range(4)
_ODD_SHIFT = (_I2, _I4, _I3, _IETA)
_SHIFT_PHASE = (3, 0, 0, 1)
_INVERSION = (_I4, _I3, _I2, _IETA)
# exp(pi i k/12), k mod 24; the multiples of pi/2 exactly
_PHASES = tuple((1.0, 1j, -1.0, -1j)[k // 6] if k % 6 == 0 else cmath.exp(k * _PI_I / 12.0)
                for k in range(24))


def _q_sums(t: complex, terms, jet: bool):
    """sum_k a_k exp(lam_k t) over the terms t's count takes from a table; for
    jet true, the tuple of its derivatives of order j <= 3 in t, the sums of
    a_k lam_k^j exp(lam_k t).  t is reduced, Im(t) >= _Y_REDUCED.  A sum below
    the normal float range, theta2 or eta far up the half-plane, is an
    AccuracyError: as a subnormal or a zero it would lose its digits and be
    divided by."""
    w0 = terms[0][2]
    f0 = f1 = f2 = f3 = 0j
    if jet:
        for a, lam, _ in terms[:bisect_right(terms, (w0 or terms[1][2]) + _JET_TAIL_LOG / t.imag,
                                             key=_W)]:
            e = a * cmath.exp(lam * t)
            f0 += e
            e *= lam
            f1 += e
            e *= lam
            f2 += e
            f3 += e * lam
    else:
        for a, lam, _ in terms[:bisect_right(terms, w0 + _TAIL_LOG / t.imag, key=_W)]:
            f0 += a * cmath.exp(lam * t)
    if abs(f0) < _TINY:
        raise AccuracyError(f"q-series: the value at tau = {t!r} underflows")
    return (f0, f1, f2, f3) if jet else f0


def _modular(tau, kinds) -> list:
    """The series _TABLES[k] for each k of kinds, at tau, a number or a jet
    with Im(tau) > 0, through the reduction of the module docstring.  The
    chain runs on tau's value t: each shift by n multiplies a value by
    exp(pi i p/12), p counted mod 24, each inversion multiplies every value
    by sqrt(-i t), and the series are summed at the reduced t.  tau is not
    checked against MIN_IM_TAU.

    A jet takes its derivatives from the chain's Moebius map
    g(tau) = (a tau + b)/(c tau + d), ad - bc = 1, whose c the chain tracks.
    u = c tau + d is the product of the t inverted (each inversion's
    automorphy factor is t itself), so the derivatives of g are 1/u^2,
    -2c/u^3 and 6c^2/u^4.  The product of the roots is a constant times
    u^(-1/2) = (1 + rho (g - g0))^(1/2) u0^(-1/2), rho = -c u0, so each value
    is (1 + rho (g - g0))^(1/2) times its series: its derivatives in g go to
    tau by g's, and to tau's jet by one compose."""
    jet = isinstance(tau, _Jet)
    t = tau.c[0] if jet else tau
    if t.imag >= _Y_REDUCED and -0.5 <= t.real <= 0.5:  # reduced already
        if jet:
            return [tau.compose(*_q_sums(t, _TABLES[k], True)) for k in kinds]
        return [_q_sums(t, _TABLES[k], False) for k in kinds]
    shifts = []
    scale = u = 1.0
    a, c = 1, 0
    while True:
        n = round(t.real)
        t -= n
        a -= n * c
        shifts.append(n % 24)
        if t.imag >= _Y_REDUCED:
            break
        u *= t
        t = -1.0 / t
        scale *= cmath.sqrt(-1j * t)
        a, c = -c, a
    if jet and c:
        g1 = 1.0 / (u * u)  # the first derivative of g, the second and third over it,
        r = c / u  # and the derivatives of (1 + rho x)^(1/2) at 0
        g2, g3 = -2.0 * r, 6.0 * r * r
        h1 = -0.5 * c * u
        h2 = -h1 * h1
        h3 = -3.0 * h1 * h2
    values = []
    for k in kinds:
        p = 0
        for i, n in enumerate(shifts):
            if i:
                k = _INVERSION[k]
            p += n * _SHIFT_PHASE[k]
            if n % 2:
                k = _ODD_SHIFT[k]
        m = scale * _PHASES[p % 24]
        if not jet:
            values.append(m * _q_sums(t, _TABLES[k], False))
            continue
        f0, f1, f2, f3 = _q_sums(t, _TABLES[k], True)
        if c:  # the derivatives in g of (1 + rho (g - g0))^(1/2) F(g), then in tau
            f1, f2, f3 = (f1 + h1 * f0, f2 + 2.0 * h1 * f1 + h2 * f0,
                          f3 + 3.0 * (h1 * f2 + h2 * f1) + h3 * f0)
            f1, f2, f3 = (f1 * g1, (f2 * g1 + f1 * g2) * g1,
                          (f3 * g1 * g1 + 3.0 * f2 * g1 * g2 + f1 * g3) * g1)
        values.append(tau.compose(m * f0, m * f1, m * f2, m * f3))
    return values


def theta2(tau) -> complex:
    """theta_2(tau) = exp(pi i tau/4) * sum_k exp((k^2+k) pi i tau), k over Z.

    The k and -(k+1) terms coincide, so the symmetric sum is twice the k >= 0
    half.  The quarter-power prefactor is exp(pi i tau/4) itself (holomorphic
    in tau), never a principal root of the nome; it folds into the exponents.
    """
    return _modular(_tau_value(tau), (_I2,))[0]


def theta3(tau) -> complex:
    """theta_3(tau) = sum_k exp(k^2 pi i tau)."""
    return _modular(_tau_value(tau), (_I3,))[0]


def theta4(tau) -> complex:
    """theta_4(tau) = sum_k (-1)^k exp(k^2 pi i tau)."""
    return _modular(_tau_value(tau), (_I4,))[0]


def dedekind_eta(tau) -> complex:
    """eta(tau) = exp(pi i tau/12) prod_k (1 - exp(2 pi i k tau)).

    Evaluated through Euler's pentagonal-number series for the product,
    sum_n (-1)^n x^(n(3n-1)/2) over n in Z with x = exp(2 pi i tau), which
    needs far fewer terms than the raw product at equal accuracy.
    """
    return _modular(_tau_value(tau), (_IETA,))[0]


def hauptmodul_lemniscatic(tau) -> complex:
    """chi(tau) = theta_2(tau)^2 / theta_3(tau)^2, formed as (theta_2/theta_3)^2."""
    t2, t3 = _modular(_tau_value(tau), (_I2, _I3))
    return (t2 / t3) ** 2


def hauptmodul_equianharmonic(tau) -> complex:
    """z(tau) = 9 eta(9 tau)^3 / eta(tau)^3 + 1, formed as 9 (eta(9 tau)/eta(tau))^3 + 1.

    z has period 1, so tau is first shifted by round(Re(tau)), exactly, and
    9 tau is formed from what is left: finite, and with the digits of its
    real part.  Once exp(2 pi i tau) underflows, z is 1 to the last bit and
    the quotient is not formed: 9 tau may not even be finite.
    """
    t = _tau_value(tau)
    t0 = t.c[0] if isinstance(t, _Jet) else t
    if math.exp(-2.0 * math.pi * t0.imag) == 0.0:
        return 0.0 * t + 1.0
    n = round(t0.real)
    if n:
        t = t - n
    (e9,), (e1,) = _modular(9.0 * t, (_IETA,)), _modular(t, (_IETA,))
    return 9.0 * (e9 / e1) ** 3 + 1.0


def hauptmodul_hyperelliptic(tau) -> complex:
    """z(tau) = theta_2(tau) / theta_3(tau), the degree-one theta quotient."""
    t2, t3 = _modular(_tau_value(tau), (_I2, _I3))
    return t2 / t3


def _theta_quotients(tau):
    """(r, s) = (theta2/theta3, sqrt(2) theta2(t)/theta2(t/2)) at t, tau checked,
    a number or a jet: the quotients of every U(m, tau), s the root of r that
    sqrt_theta_ratio names.  theta2(t/2) is taken at Im(t)/2 >= MIN_IM_TAU/2,
    unchecked: the reduction serves it there.  For a jet t, the quotient s is
    taken at the number t0 alone, s0 = sqrt(2) theta2(t0)/theta2(t0/2), which
    fixes the branch, and s's jet is r's by the chain rule of the square root
    at s0.  That sums no jet of theta2(t/2)."""
    t = _tau_value(tau)
    t2, t3 = _modular(t, (_I2, _I3))
    r = t2 / t3
    if not isinstance(t, _Jet):
        return r, math.sqrt(2.0) * t2 / _modular(0.5 * t, (_I2,))[0]
    s0 = math.sqrt(2.0) * t2.c[0] / _modular(0.5 * t.c[0], (_I2,))[0]
    s2 = s0 * s0
    s5 = s2 * s2 * s0
    if abs(s5) < _TINY:  # from Im(t) = 362 on, where 1/s0^5 overflows
        raise AccuracyError(f"sqrt_theta_ratio: the jet's derivatives overflow at tau = {t!r}")
    return r, r.compose(s0, 0.5 / s0, -0.25 / (s2 * s0), 0.375 / s5)


def sqrt_theta_ratio(tau) -> complex:
    """Single-valued square root of theta_2/theta_3:

        sqrt(theta_2(tau)/theta_3(tau)) = sqrt(2) theta_2(tau) / theta_2(tau/2).

    The right side is a ratio of holomorphic series, so it is continuous in
    tau; it is the branch used everywhere a square root of the theta quotient
    is needed.  Served on the whole domain Im(tau) >= MIN_IM_TAU: theta2(tau/2)
    is taken at Im(tau)/2, below that floor, by the same reduction.  A jet's
    derivatives are those of sqrt(theta_2/theta_3) on that branch
    (_theta_quotients).
    """
    return _theta_quotients(tau)[1]
