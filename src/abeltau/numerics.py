"""Complex-arithmetic primitives: principal powers, order-3 Taylor jets,
Cauchy-circle derivatives, and tanh-sinh contour quadrature over polylines.

Everything here is pure and reentrant; values are plain Python complex numbers
(IEEE double, ~15.95 significant digits) or jets of them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from array import array
from collections import namedtuple
from collections.abc import Callable, Sequence

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


def _value_type(name: str, fields: str, defaults=None):
    """A named tuple class for a value type to subclass.  Its _make, and so
    _replace, calls the subclass, whose __new__ then coerces and validates a
    replaced field as it does a constructed one."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, items: cls(*items))
    return base


class Polyline(_value_type("Polyline", "vertices")):
    """An integration path given by straight segments between vertices."""

    __slots__ = ()

    def __new__(cls, vertices: Sequence[complex]):
        vv = tuple(complex(v) for v in vertices)
        if len(vv) < 2:
            raise DomainError("polyline needs at least two vertices")
        if not all(map(cmath.isfinite, vv)):
            raise DomainError(f"polyline vertices must be finite, got {vv!r}")
        for a, b in zip(vv, vv[1:]):
            if a == b:
                raise DomainError("polyline has two equal consecutive vertices")
        return super().__new__(cls, vv)

    def segments(self) -> list[tuple[complex, complex]]:
        return list(zip(self.vertices, self.vertices[1:]))

    @property
    def length(self) -> float:
        return sum(abs(b - a) for a, b in self.segments())


class _Jet:
    """Order-3 Taylor jet f(x0 + h) = c0 + c1 h + c2 h^2 + c3 h^3 + O(h^4)
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).

    Arithmetic with jets and numbers carries the derivatives exactly to
    rounding, so code written for complex numbers runs on jets unchanged.
    There is no __complex__: a path that would drop the derivatives raises
    TypeError.  abs() is |c0|, for the convergence gates, and repr() that of
    c0, so that an error message names the point.
    """

    __slots__ = ("c",)

    def __init__(self, c0, c1=0j, c2=0j, c3=0j):
        self.c = (c0, c1, c2, c3)

    def __repr__(self) -> str:
        return repr(self.c[0])

    def __abs__(self) -> float:
        return abs(self.c[0])

    def derivatives(self) -> tuple[complex, complex, complex, complex]:
        """f, f', f'', f''' at x0; a non-finite one is an AccuracyError."""
        c0, c1, c2, c3 = self.c
        ds = (complex(c0), complex(c1), 2.0 * c2, 6.0 * c3)
        if not all(map(cmath.isfinite, ds)):
            raise AccuracyError(f"non-finite Taylor jet: {ds!r}")
        return ds

    def compose(self, f0, f1, f2, f3) -> "_Jet":
        """The jet of F(self), given F and its first three derivatives at c0."""
        _, a1, a2, a3 = self.c
        return _Jet(f0, f1 * a1, f1 * a2 + 0.5 * f2 * a1 * a1,
                    f1 * a3 + f2 * a1 * a2 + f3 * a1 * a1 * a1 / 6.0)

    def __add__(self, other) -> "_Jet":
        a0, a1, a2, a3 = self.c
        if isinstance(other, _Jet):
            b0, b1, b2, b3 = other.c
            return _Jet(a0 + b0, a1 + b1, a2 + b2, a3 + b3)
        return _Jet(a0 + other, a1, a2, a3)

    __radd__ = __add__

    def __neg__(self) -> "_Jet":
        a0, a1, a2, a3 = self.c
        return _Jet(-a0, -a1, -a2, -a3)

    def __sub__(self, other) -> "_Jet":
        return self + -other

    def __rsub__(self, other) -> "_Jet":
        return -self + other

    def __mul__(self, other) -> "_Jet":
        a0, a1, a2, a3 = self.c
        if isinstance(other, _Jet):
            b0, b1, b2, b3 = other.c
            return _Jet(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
                        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)
        return _Jet(a0 * other, a1 * other, a2 * other, a3 * other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return self * (1.0 / other)
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        q0 = a0 / b0
        q1 = (a1 - q0 * b1) / b0
        q2 = (a2 - q0 * b2 - q1 * b1) / b0
        return _Jet(q0, q1, q2, (a3 - q0 * b3 - q1 * b2 - q2 * b1) / b0)

    def __rtruediv__(self, other) -> "_Jet":
        return _Jet(other) / self

    def __pow__(self, n: int) -> "_Jet":
        if not isinstance(n, int):
            return NotImplemented
        x = self.c[0]
        ds, falling = [], 1  # falling = n (n-1) ... (n-k+1)
        for k in range(4):
            ds.append(falling * x ** (n - k) if falling else 0j)
            falling *= n - k
        return self.compose(*ds)

    def exp(self) -> "_Jet":
        e = cmath.exp(self.c[0])
        return self.compose(e, e, e, e)

    def log(self) -> "_Jet":
        """Principal logarithm."""
        x = self.c[0]
        if x == 0:
            raise DomainError("the logarithm has a branch point at 0")
        r = 1.0 / x
        return self.compose(cmath.log(x), r, -r * r, 2.0 * r * r * r)


def principal_power(z: complex, a: complex) -> complex:
    """z**a = exp(a Log z) with the principal logarithm, Im(Log) in (-pi, pi].

    z = 0 is allowed only for Re(a) > 0 (the limit value 0), and a result
    past the float range is an AccuracyError.  A jet z takes the branch of
    its value c0, so its derivatives are those of that branch.
    """
    try:  # no isinstance test on the scalar path, the common one
        z = complex(z)
    except TypeError:  # a jet has no __complex__
        if not isinstance(z, _Jet):
            raise
        return (complex(a) * z.log()).exp()
    a = complex(a)
    if z == 0:
        if a.real <= 0:
            raise DomainError("principal_power: zero base needs Re(exponent) > 0")
        return 0.0 + 0.0j
    if a == 0:
        return 1.0 + 0.0j
    try:
        return ensure_finite(cmath.exp(a * cmath.log(z)), "principal_power result")
    except OverflowError:
        raise AccuracyError(f"non-finite principal_power result: {z!r}**{a!r} overflows") from None


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
    rounding level, the best estimate is surfaced inside an AccuracyError; its
    error bound is the larger distance to the two estimates before it.
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
    value = older = error = bound = math.inf
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
                    sample = f(z)
                    if not cmath.isfinite(sample):  # ensure_finite, without a call per node
                        raise AccuracyError(f"non-finite integrand sample: {complex(sample)!r}")
                    term = w * sample
                    acc += term
                    evals += 1
                    if abs(term) <= floor:
                        break  # the terms beyond decay double-exponentially
            total += acc * half
            mass += abs(acc * half)
        estimate = total * 2.0**-level  # total holds the sum over the level's grid
        if level >= 2:
            error = abs(estimate - value)
            bound = max(error, abs(estimate - older))  # reported if it gives up
        older, value = value, estimate
        if error <= tol or error <= 4e-16 * abs(estimate):
            break
    if not error <= tol:
        raise AccuracyError(
            f"quadrature failed to reach tol={tol:g} (error bound {bound:.3g})",
            estimate=value,
            error_bound=bound,
        )
    return value
