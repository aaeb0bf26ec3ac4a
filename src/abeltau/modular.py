"""Jacobi theta constants, the Dedekind eta function, and the Hauptmoduln
built from them, all as truncated q-series in the nome q = exp(pi i tau).

Only zero-argument theta values (theta constants) are provided, on the upper
half-plane with Im(tau) >= 1e-2.  No modular-transformation fallback is
attempted below that line; the series simply refuse.
"""

from __future__ import annotations

import cmath
import math

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

_PI = math.pi


def _tau_value(tau):
    """tau as a complex number, or a jet in tau unchanged; its value checked."""
    jet = isinstance(tau, _Jet)
    t = tau.c[0] if jet else complex(tau)
    if not (t.imag > 0):
        raise DomainError(f"tau must lie in the upper half-plane, got {t!r}")
    if t.imag < MIN_IM_TAU:
        raise AccuracyError(
            f"Im(tau) = {t.imag:g} below supported minimum {MIN_IM_TAU:g}; "
            "q-series would lose digits"
        )
    return tau if jet else t


# Series stop rule, shared with the 2F1 series: quit after two consecutive
# terms fall below _REL_TOL times the accumulated magnitude (guards parity
# cancellation); _MAX_TERMS terms without that is an AccuracyError.
_REL_TOL = 1e-16
_MAX_TERMS = 10_000


class _StopRule:
    """Two-consecutive-small-terms accumulator."""

    def __init__(self):
        self.acc = 0.0 + 0.0j
        self.mag = 0.0
        self.small_run = 0

    def add(self, term: complex) -> bool:
        """Accumulate; return True once the stop rule has fired."""
        self.acc += term
        self.mag += abs(term)
        if abs(term) <= _REL_TOL * self.mag:
            self.small_run += 1
        else:
            self.small_run = 0
        return self.small_run >= 2


def _jet_series(tau: _Jet, terms) -> _Jet:
    """The jet of sum_k a_k exp(lam_k tau) for (a_k, lam_k) in terms, |lam_k|
    increasing, from the termwise derivatives a_k lam_k^j exp(lam_k tau0).
    The stop rule watches the third derivative's terms, which decay slowest;
    where they are small, so are the lower ones."""
    t = tau.c[0]
    f0 = f1 = f2 = 0j
    s = _StopRule()
    for a, lam in terms:
        e = a * cmath.exp(lam * t)
        f0 += e
        e *= lam
        f1 += e
        e *= lam
        f2 += e
        if s.add(e * lam):
            return tau.compose(f0, f1, f2, s.acc)
    raise AccuracyError("q-series jet: truncation budget exhausted")


def theta2(tau) -> complex:
    """theta_2(tau) = exp(pi i tau/4) * sum_k exp((k^2+k) pi i tau), k over Z.

    The k and -(k+1) terms coincide, so the symmetric sum is twice the k >= 0
    half.  The quarter-power prefactor is exp(pi i tau/4) itself (holomorphic
    in tau), never a principal root of the nome.
    """
    t = _tau_value(tau)
    if isinstance(t, _Jet):  # the prefactor folds into the exponents
        return _jet_series(t, ((2.0, (k * k + k + 0.25) * 1j * _PI) for k in range(_MAX_TERMS)))
    s = _StopRule()
    for k in range(_MAX_TERMS):
        if s.add(2.0 * cmath.exp((k * k + k) * 1j * _PI * t)):
            return cmath.exp(0.25j * _PI * t) * s.acc
    raise AccuracyError("theta2: truncation budget exhausted")


def _theta34(t, alternating: bool):
    if isinstance(t, _Jet):
        sign = -1.0 if alternating else 1.0
        return _jet_series(t, ((2.0 * sign**k if k else 1.0, k * k * 1j * _PI)
                               for k in range(_MAX_TERMS)))
    s = _StopRule()
    s.add(1.0 + 0.0j)
    for k in range(1, _MAX_TERMS):
        term = 2.0 * cmath.exp(k * k * 1j * _PI * t)
        if alternating and (k % 2):
            term = -term
        if s.add(term):
            return s.acc
    raise AccuracyError("theta series: truncation budget exhausted")


def theta3(tau) -> complex:
    """theta_3(tau) = sum_k exp(k^2 pi i tau)."""
    return _theta34(_tau_value(tau), False)


def theta4(tau) -> complex:
    """theta_4(tau) = sum_k (-1)^k exp(k^2 pi i tau)."""
    return _theta34(_tau_value(tau), True)


def _pentagonal_terms():
    """(sign, exponent) of Euler's series, exponents increasing."""
    yield 1.0, 0
    for n in range(1, _MAX_TERMS):
        sign = -1.0 if n % 2 else 1.0
        yield sign, n * (3 * n - 1) // 2
        yield sign, n * (3 * n + 1) // 2


def dedekind_eta(tau) -> complex:
    """eta(tau) = exp(pi i tau/12) prod_k (1 - exp(2 pi i k tau)).

    Evaluated through Euler's pentagonal-number series for the product,
    sum_n (-1)^n x^(n(3n-1)/2) over n in Z with x = exp(2 pi i tau), which
    needs far fewer terms than the raw product at equal accuracy.
    """
    t = _tau_value(tau)
    if isinstance(t, _Jet):  # the prefactor folds into the exponents
        return _jet_series(t, ((sign, 2j * _PI * (e + 1.0 / 24.0))
                               for sign, e in _pentagonal_terms()))
    x = 2j * _PI * t  # log of the expansion variable
    s = _StopRule()
    s.add(1.0 + 0.0j)
    for n in range(1, _MAX_TERMS):
        sign = -1.0 if n % 2 else 1.0
        fired = s.add(sign * cmath.exp(n * (3 * n - 1) // 2 * x))
        fired = s.add(sign * cmath.exp(n * (3 * n + 1) // 2 * x)) and fired
        if fired:
            return cmath.exp(1j * _PI * t / 12.0) * s.acc
    raise AccuracyError("dedekind_eta: truncation budget exhausted")


def hauptmodul_lemniscatic(tau) -> complex:
    """chi(tau) = theta_2(tau)^2 / theta_3(tau)^2."""
    return theta2(tau) ** 2 / theta3(tau) ** 2


def hauptmodul_equianharmonic(tau) -> complex:
    """z(tau) = 9 eta(9 tau)^3 / eta(tau)^3 + 1."""
    t = _tau_value(tau)
    return 9.0 * dedekind_eta(9.0 * t) ** 3 / dedekind_eta(t) ** 3 + 1.0


def hauptmodul_hyperelliptic(tau) -> complex:
    """z(tau) = theta_2(tau) / theta_3(tau), the degree-one theta quotient."""
    return theta2(tau) / theta3(tau)


def sqrt_theta_ratio(tau) -> complex:
    """Single-valued square root of theta_2/theta_3:

        sqrt(theta_2(tau)/theta_3(tau)) = sqrt(2) theta_2(tau) / theta_2(tau/2).

    The right side is a ratio of holomorphic series, so it is continuous in
    tau; it is the branch used everywhere a square root of the theta quotient
    is needed.
    """
    t = _tau_value(tau)
    return math.sqrt(2.0) * theta2(t) / theta2(0.5 * t)
