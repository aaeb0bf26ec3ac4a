"""Jacobi theta constants, the Dedekind eta function, and the Hauptmoduln
built from them, all as truncated q-series in the nome q = exp(pi i tau).

Only zero-argument theta values (theta constants) are provided, on the upper
half-plane with Im(tau) >= 1e-2.  No modular-transformation fallback is
attempted below that line; the series simply refuse.  Above it, near the
cusps Re(tau) in {0, +-1}, the series return numbers with unbounded error and
raise nothing: the true value is exponentially small there while the terms
are O(1), and theta3(1 + 0.0101i) is 9e17 relative off.  Modular reduction
with a conditioning guard (ROADMAP item 2) is the open fix.  Far up the
half-plane theta2 and eta leave the normal float range (theta2 from
Im(tau) = 903 on, eta from 2706 on) and raise AccuracyError; the
equianharmonic Hauptmodul, a quotient with their prefactors taken out, does
not, and is 1 to the last bit once exp(2 pi i tau) underflows.

Every q-series quantity formed here has period 48 in tau (theta2: 8,
theta2(tau/2): 16, eta: 24, theta3 and theta4: 2, exp(2 pi i tau): 1), so a
tau with |Re(tau)| > 24 is first folded into [-24, 24] by an exact fmod.  Far
out on the real axis the exponents lam_k tau would otherwise lose the digits
of Re(tau) mod 2: unfolded, theta3 was 6e-6 relative off at Re(tau) = 1e12
and wrong outright at 1e300.
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


_PERIOD = 48.0  # of every q-series quantity the package forms (module docstring)
_HALF_PERIOD = 0.5 * _PERIOD


def _tau_value(tau):
    """tau as a complex number, or a jet in tau, its value checked and its
    real part folded into [-24, 24] (a jet's c0 alone moves).  fmod is exact,
    and so is the shift by 48 of a remainder past 24 (Sterbenz), so every
    tau with |Re(tau)| <= 24 comes back unchanged."""
    jet = isinstance(tau, _Jet)
    t = tau.c[0] if jet else complex(tau)
    if not (cmath.isfinite(t) and t.imag > 0):
        raise DomainError(f"tau must be finite and in the upper half-plane, got {t!r}")
    if t.imag < MIN_IM_TAU:
        raise AccuracyError(f"Im(tau) = {t.imag:g} < {MIN_IM_TAU:g}: the q-series would lose digits")
    if abs(t.real) > _HALF_PERIOD:
        x = math.fmod(t.real, _PERIOD)
        if abs(x) > _HALF_PERIOD:
            x -= math.copysign(_PERIOD, x)
        t = complex(x, t.imag)
        return _Jet(t, *tau.c[1:]) if jet else t
    return tau if jet else t


_TINY = sys.float_info.min  # a value below it is an AccuracyError

# The q-series term tables: rows (a_k, lam_k, w_k), w_k = Im(lam_k) increasing.
# At y = Im(tau) a number sums the terms with w_k <= w_0 + _TAIL_LOG/y and a jet
# those with w_k <= w_f + _JET_TAIL_LOG/y, w_f the first w_k != 0; at MIN_IM_TAU
# that is at most 40 and 47 of a table's _TERMS.  Why it suffices: |term k| =
# |a_k| exp(-w_k y) (DLMF 20.2) and |a_k/a_m| <= 2, so term k is below 2^-54 of
# term m once (w_k - w_m) y >= _TAIL_LOG = ln(2^53 4); the ln 2 to spare covers
# the tail, which falls off faster than by halves for y >= MIN_IM_TAU.  A number
# measures each term against the first, the largest.  A jet's derivatives of
# order j <= 3 carry lam_k^j, adding 3 ln(w_k/w_m): against m = max(f, k//4),
# where w_m is near w_k/16 as the exponents grow like k^2, term k needs
# (w_k - w_f) y >= (_TAIL_LOG + 3 ln(w_k/w_m)) (w_k - w_f)/(w_k - w_m), which is
# at most 52.51 over all tables (eta's k = 3, w_3/w_0 = 121; a test checks each
# term).  What is left out of each order sums below 2^-53 of a summed term.
_TERMS = 64
_TAIL_LOG = 53.0 * math.log(2.0) + math.log(4.0)
_JET_TAIL_LOG = 52.6
_W = itemgetter(2)


def _rows(terms) -> tuple:
    """The table of the terms (a_k, lam_k): each with w_k = Im(lam_k) appended."""
    return tuple((a, lam, lam.imag) for a, lam in terms)


_THETA2 = _rows((2.0, (k * k + k + 0.25) * _PI_I) for k in range(_TERMS))
_THETA3 = _rows([(1.0, 0j)] + [(2.0, k * k * _PI_I) for k in range(1, _TERMS)])
_THETA4 = _rows([(1.0, 0j)] + [(-2.0 if k % 2 else 2.0, k * k * _PI_I) for k in range(1, _TERMS)])


def _pentagonal(shift: float) -> tuple:
    """The table of Euler's series sum_n (-1)^n x^(n(3n-1)/2), x = exp(2 pi i tau),
    times exp(shift pi i tau); n = 0, 1, -1, 2, -2, ... raises the exponent."""
    ns = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(_TERMS)]
    return _rows((-1.0 if n % 2 else 1.0, (n * (3 * n - 1) + shift) * _PI_I) for n in ns)


_ETA = _pentagonal(1.0 / 12.0)  # exp(pi i tau/12) folded in
_PENTAGONAL = _pentagonal(0.0)


def _q_series(tau, terms):
    """sum_k a_k exp(lam_k tau) over the terms tau's count takes from a table,
    for a number tau; for a jet in tau, its jet from the termwise derivatives
    a_k lam_k^j exp(lam_k tau0), j <= 3.  A sum below the normal float range,
    theta2 or eta far up the half-plane, is an AccuracyError: as a subnormal
    or a zero it would lose its digits and be divided by."""
    jet = isinstance(tau, _Jet)
    t = tau.c[0] if jet else tau
    w0 = terms[0][2]
    bound = (w0 or terms[1][2]) + _JET_TAIL_LOG / t.imag if jet else w0 + _TAIL_LOG / t.imag
    n = bisect_right(terms, bound, key=_W)
    if n == len(terms):
        raise AccuracyError(f"q-series: tau = {t!r} needs more terms than the table holds")
    f0 = f1 = f2 = f3 = 0j
    for a, lam, _ in terms[:n]:
        e = a * cmath.exp(lam * t)
        f0 += e
        if jet:
            e *= lam
            f1 += e
            e *= lam
            f2 += e
            e *= lam
            f3 += e
    if abs(f0) < _TINY:
        raise AccuracyError(f"q-series: the value at tau = {t!r} underflows")
    return tau.compose(f0, f1, f2, f3) if jet else f0


def theta2(tau) -> complex:
    """theta_2(tau) = exp(pi i tau/4) * sum_k exp((k^2+k) pi i tau), k over Z.

    The k and -(k+1) terms coincide, so the symmetric sum is twice the k >= 0
    half.  The quarter-power prefactor is exp(pi i tau/4) itself (holomorphic
    in tau), never a principal root of the nome; it folds into the exponents.
    """
    return _q_series(_tau_value(tau), _THETA2)


def theta3(tau) -> complex:
    """theta_3(tau) = sum_k exp(k^2 pi i tau)."""
    return _q_series(_tau_value(tau), _THETA3)


def theta4(tau) -> complex:
    """theta_4(tau) = sum_k (-1)^k exp(k^2 pi i tau)."""
    return _q_series(_tau_value(tau), _THETA4)


def dedekind_eta(tau) -> complex:
    """eta(tau) = exp(pi i tau/12) prod_k (1 - exp(2 pi i k tau)).

    Evaluated through Euler's pentagonal-number series for the product,
    sum_n (-1)^n x^(n(3n-1)/2) over n in Z with x = exp(2 pi i tau), which
    needs far fewer terms than the raw product at equal accuracy.
    """
    return _q_series(_tau_value(tau), _ETA)


def hauptmodul_lemniscatic(tau) -> complex:
    """chi(tau) = theta_2(tau)^2 / theta_3(tau)^2, formed as (theta_2/theta_3)^2."""
    t = _tau_value(tau)
    return (_q_series(t, _THETA2) / _q_series(t, _THETA3)) ** 2


def hauptmodul_equianharmonic(tau) -> complex:
    """z(tau) = 9 eta(9 tau)^3 / eta(tau)^3 + 1 = 9 x (P(9 tau)/P(tau))^3 + 1,
    x = exp(2 pi i tau), P = eta/exp(pi i tau/12) the pentagonal sum alone.

    Taken out of the quotient, the prefactors leave nothing to underflow but
    x itself, so z tends to 1 far up the half-plane where eta(9 tau) leaves
    the float range (from Im(tau) = 301 on).  Once x underflows, z is 1 to
    the last bit and the quotient is not formed: 9 tau may not even be finite.
    """
    t = _tau_value(tau)
    w = 2.0 * _PI_I * t
    jet = isinstance(w, _Jet)
    x = w.exp() if jet else cmath.exp(w)
    if (x.c[0] if jet else x) == 0:
        return x + 1.0
    return 9.0 * x * (_q_series(9.0 * t, _PENTAGONAL) / _q_series(t, _PENTAGONAL)) ** 3 + 1.0


def hauptmodul_hyperelliptic(tau) -> complex:
    """z(tau) = theta_2(tau) / theta_3(tau), the degree-one theta quotient."""
    t = _tau_value(tau)
    return _q_series(t, _THETA2) / _q_series(t, _THETA3)


def _theta_root(t, t2, r):
    """s = sqrt(2) theta2(t)/theta2(t/2), the root of r = theta2/theta3 that
    sqrt_theta_ratio names, from the checked tau t and t2 = theta2(t).  For a
    number t it is that quotient, and r is not read.  For a jet t, r is r's
    jet: the quotient is taken at the number t0 alone,
    s0 = sqrt(2) t2(t0)/theta2(t0/2), which fixes the branch and checks
    Im(t0)/2, and s's jet is r's by the chain rule of the square root at s0:
    1/(2 s0), -1/(4 s0^3), 3/(8 s0^5).  That sums no jet of theta2(t/2), the
    longest of the three series."""
    if not isinstance(t, _Jet):
        return math.sqrt(2.0) * t2 / theta2(0.5 * t)
    s0 = math.sqrt(2.0) * t2.c[0] / theta2(0.5 * t.c[0])
    s2 = s0 * s0
    return r.compose(s0, 0.5 / s0, -0.25 / (s2 * s0), 0.375 / (s2 * s2 * s0))


def sqrt_theta_ratio(tau) -> complex:
    """Single-valued square root of theta_2/theta_3:

        sqrt(theta_2(tau)/theta_3(tau)) = sqrt(2) theta_2(tau) / theta_2(tau/2).

    The right side is a ratio of holomorphic series, so it is continuous in
    tau; it is the branch used everywhere a square root of the theta quotient
    is needed.  theta_2(tau/2) checks its own argument, so Im(tau)/2 must
    reach MIN_IM_TAU.  A jet's derivatives are those of sqrt(theta_2/theta_3)
    on that branch (_theta_root).
    """
    t = _tau_value(tau)
    t2 = _q_series(t, _THETA2)
    return _theta_root(t, t2, t2 / _q_series(t, _THETA3) if isinstance(t, _Jet) else None)
