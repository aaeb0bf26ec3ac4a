"""Complex-arithmetic primitives: principal powers, Cauchy-circle derivatives,
and tanh-sinh contour quadrature over polylines.

Everything here is pure and reentrant; values are plain Python complex numbers
(IEEE double, ~15.95 significant digits).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import AccuracyError, DomainError

__all__ = [
    "Polyline",
    "ensure_finite",
    "principal_power",
    "holomorphic_derivatives",
    "contour_quadrature",
]

_MAX_QUAD_EVALS = 400_000
_STENCIL_NODES = 64  # samples on the Cauchy circle of holomorphic_derivatives


def ensure_finite(value: complex, context: str = "value") -> complex:
    """Reject non-finite complex values instead of propagating them silently."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise AccuracyError(f"non-finite {context}: {value!r}")
    return value


@dataclass(frozen=True)
class Polyline:
    """An integration path given by straight segments between vertices."""

    vertices: tuple[complex, ...]

    def __init__(self, vertices: Sequence[complex]):
        vv = tuple(complex(v) for v in vertices)
        if len(vv) < 2:
            raise DomainError("polyline needs at least two vertices")
        for a, b in zip(vv, vv[1:]):
            if a == b:
                raise DomainError("polyline has two equal consecutive vertices")
        object.__setattr__(self, "vertices", vv)

    def segments(self) -> list[tuple[complex, complex]]:
        return list(zip(self.vertices, self.vertices[1:]))

    @property
    def length(self) -> float:
        return sum(abs(b - a) for a, b in self.segments())


def principal_power(z: complex, a: complex) -> complex:
    """z**a = exp(a Log z) with the principal logarithm, Im(Log) in (-pi, pi].

    z = 0 is allowed only for Re(a) > 0 (the limit value 0).
    """
    z = complex(z)
    a = complex(a)
    if z == 0:
        if a.real <= 0:
            raise DomainError("principal_power: zero base needs Re(exponent) > 0")
        return 0.0 + 0.0j
    if a == 0:
        return 1.0 + 0.0j
    return ensure_finite(cmath.exp(a * cmath.log(z)), "principal_power result")


@functools.cache
def _unit_roots(k: int) -> tuple[complex, ...]:
    """w^(jk), j = 0..n-1, with w = e^(2 pi i / n) and n = _STENCIL_NODES: the
    stencil nodes at k = 1, and at k = -m the Fourier row w^(-jm) of the
    Taylor coefficient c_m."""
    n = _STENCIL_NODES
    return tuple(cmath.exp(2j * math.pi * (j * k % n) / n) for j in range(n))


def holomorphic_derivatives(
    f: Callable[[complex], complex],
    z0: complex,
    order: int,
    radius: float = 1e-2,
) -> tuple[complex, ...]:
    """Derivatives f'(z0) ... f^(order)(z0) by trapezoidal Cauchy integrals
    on the circle of the given radius about z0, at _STENCIL_NODES points.

    f must be holomorphic on the closed disk, which the caller keeps inside
    the function's analyticity domain; the trapezoid rule on the circle then
    converges geometrically in the node count.  Only the Taylor coefficients
    returned are computed, each as a plain discrete Fourier sum
    c_k = (1/n) sum_j f(z0 + r w^j) w^(-jk).  One sample is subtracted from
    all first: c_k for k >= 1 ignores a constant, and this keeps |f(z0)| out
    of the rounding.
    """
    if not isinstance(order, int) or not (1 <= order <= 4):
        raise DomainError(f"derivative order must be an integer in 1..4, got {order}")
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError(f"stencil radius must be positive and finite, got {radius}")
    z0 = complex(z0)
    samples = []
    for w in _unit_roots(1):
        zj = z0 + radius * w
        value = complex(f(zj))
        if not cmath.isfinite(value):  # the message is built only when raised
            raise AccuracyError(f"non-finite sample of f at {zj!r}: {value!r}")
        samples.append(value)
    samples = [s - samples[0] for s in samples]
    return tuple(sum(map(operator.mul, samples, _unit_roots(-k))) * math.factorial(k)
                 / (_STENCIL_NODES * radius**k) for k in range(1, order + 1))


# Tanh-sinh nodes t = k h, |t| <= 6, for the abscissa x = tanh((pi/2) sinh t)
# on [-1, 1].  At t = 6 the distance 1 - |x| is about 1e-275, so the rule
# reaches as close to an endpoint at 0 as doubles allow.
_TS_T_MAX = 6
_TS_FLOOR = 2.0**-60  # a term this far below the contributions so far ends a sweep


@functools.cache
def _ts_level(level: int) -> tuple[array, array]:
    """1 - |x| and the weight at the nodes t > 0 that level adds: t = 1..6 at
    level 0, the odd multiples of 2^-level after that.  1 - |x| is computed
    directly, not as 1 - tanh, so it keeps full relative precision.  Arrays
    keep the cache of all levels a budget allows to about 3 MB."""
    if level == 0:
        ts = range(1, _TS_T_MAX + 1)
    else:
        ts = (j * 2.0**-level for j in range(1, _TS_T_MAX * 2**level, 2))
    gaps, weights = array("d"), array("d")
    for t in ts:
        e = math.exp(-math.pi * math.sinh(t))  # e^(-2u), u = (pi/2) sinh t
        gaps.append(2.0 * e / (1.0 + e))
        weights.append(2.0 * math.pi * math.cosh(t) * e / (1.0 + e) ** 2)
    return gaps, weights


def contour_quadrature(
    f: Callable[[complex], complex],
    path: Polyline | Sequence[complex],
    tol: float = 1e-10,
) -> complex:
    """Integrate f along a polyline to absolute accuracy ~tol.

    Tanh-sinh (double-exponential) quadrature on every segment (Takahasi &
    Mori, Publ. RIMS 9, 1974): the nodes crowd double-exponentially into the
    segment's ends, so algebraic endpoint singularities need no special
    care.  The step h is halved, reusing the coarser levels' samples, until
    two successive estimates agree within tol; levels 0 and 1 are never
    compared, so a chance agreement of the coarsest two cannot stop it.  A
    node that rounds onto an endpoint is skipped, as f may be infinite there;
    a singular endpoint is best placed at 0, where doubles resolve the
    distance to it.  If the estimates disagree by more than tol when the
    next level would pass the evaluation budget, or when they agree only to
    rounding level, the best estimate is surfaced inside an AccuracyError.
    """
    if not isinstance(path, Polyline):
        path = Polyline(path)
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    segments = [(a, b, 0.5 * (b - a)) for a, b in path.segments()]
    evals = len(segments)
    mids = [0.5 * math.pi * half * ensure_finite(f(a + half), "integrand sample")
            for a, b, half in segments]
    total = sum(mids)
    mass = sum(map(abs, mids))  # scale of the contributions so far, for the floor
    value = error = math.inf
    for level in itertools.count():
        gaps, weights = _ts_level(level)
        if evals + 2 * len(gaps) * len(segments) > _MAX_QUAD_EVALS:
            break
        for a, b, half in segments:
            floor = _TS_FLOOR * mass / abs(half)
            acc = 0.0 + 0.0j
            for end, step in ((a, half), (b, -half)):
                for c, w in zip(gaps, weights):  # outward, towards end
                    z = end + step * c
                    if z == end:
                        break  # and so would every node beyond
                    term = w * ensure_finite(f(z), "integrand sample")
                    acc += term
                    evals += 1
                    if abs(term) <= floor:
                        break  # the terms beyond decay double-exponentially
            total += acc * half
            mass += abs(acc * half)
        estimate = total * 2.0**-level  # total holds the sum over the level's grid
        if level >= 2:
            error = abs(estimate - value)
        value = estimate
        if error <= tol or error <= 4e-16 * abs(estimate):
            break
    if not error <= tol:
        raise AccuracyError(
            f"quadrature failed to reach tol={tol:g} (error bound {error:.3g})",
            estimate=value,
            error_bound=error,
        )
    return value
