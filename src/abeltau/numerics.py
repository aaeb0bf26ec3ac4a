"""Complex-arithmetic primitives: principal powers, Cauchy-circle derivatives,
and adaptive contour quadrature over polylines.

Everything here is pure and reentrant; values are plain Python complex numbers
(IEEE double, ~15.95 significant digits).
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "DerivativeStencil",
    "Polyline",
    "DEFAULT_STENCIL",
    "ensure_finite",
    "principal_power",
    "holomorphic_derivatives",
    "contour_quadrature",
]

_MAX_QUAD_DEPTH = 60           # bisections of one panel: caps grading into a singularity
_MAX_QUAD_EVALS = 400_000


def ensure_finite(value: complex, context: str = "value") -> complex:
    """Reject non-finite complex values instead of propagating them silently."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise AccuracyError(f"non-finite {context}: {value!r}")
    return value


@dataclass(frozen=True)
class DerivativeStencil:
    """Sampling circle for Cauchy-integral differentiation.

    The radius must keep the circle inside the caller-declared analyticity
    disk of the function being differentiated.
    """

    radius: float = 1e-2
    nodes: int = 64

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise DomainError(f"stencil radius must be positive and finite, got {self.radius}")
        n = self.nodes
        if n < 16 or (n & (n - 1)) != 0:
            raise DomainError(f"stencil nodes must be a power of two >= 16, got {n}")


DEFAULT_STENCIL = DerivativeStencil()


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


def holomorphic_derivatives(
    f: Callable[[complex], complex],
    z0: complex,
    order: int,
    stencil: DerivativeStencil = DEFAULT_STENCIL,
) -> tuple[complex, ...]:
    """Derivatives f'(z0) ... f^(order)(z0) by trapezoidal Cauchy integrals.

    f must be holomorphic on the closed stencil disk; the trapezoid rule on
    the circle then converges geometrically in the node count.
    """
    if not isinstance(order, int) or not (1 <= order <= 4):
        raise DomainError(f"derivative order must be an integer in 1..4, got {order}")
    z0 = complex(z0)
    n = stencil.nodes
    r = stencil.radius
    samples = np.empty(n, dtype=complex)
    for j in range(n):
        zj = z0 + r * cmath.exp(2j * math.pi * j / n)
        samples[j] = ensure_finite(f(zj), f"sample of f at {zj!r}")
    coeffs = np.fft.fft(samples) / n
    out = []
    fact = 1.0
    for k in range(1, order + 1):
        fact *= k
        out.append(complex(coeffs[k]) * fact / r**k)
    return tuple(out)


# 16-point Gauss-Legendre rule on [-1, 1]; nodes are interior, so integrable
# endpoint singularities are never sampled directly.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _gl16(f, a: complex, b: complex, counter: list[int]) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    counter[0] += 16
    acc = 0.0 + 0.0j
    for x, w in zip(_GL_X, _GL_W):
        acc += w * ensure_finite(f(mid + half * x), "integrand sample")
    return acc * half


def contour_quadrature(
    f: Callable[[complex], complex],
    path: Polyline | Sequence[complex],
    tol: float = 1e-10,
) -> complex:
    """Integrate f along a polyline to absolute accuracy ~tol.

    Globally adaptive composite 16-point Gauss-Legendre (QUADPACK's QAG;
    Piessens et al., 1983).  A panel's error estimate is the disagreement
    between its 16-point value and the sum over its two halves.  The panels of
    every segment share one heap, and the panel with the largest estimate is
    bisected until the summed estimate is <= tol; a bisection reuses the
    parent's halves as its children's coarse values.  A panel retires when its
    estimate is at rounding level or it is 60 bisections deep, so the mesh
    grades into integrable endpoint singularities without chasing rounding
    noise.  If the summed error bound still exceeds tol once no panel is left
    or the evaluation budget is spent, the best estimate is surfaced inside an
    AccuracyError rather than returned.
    """
    if not isinstance(path, Polyline):
        path = Polyline(path)
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    counter = [0]
    order = itertools.count()   # heap tie-break: panels themselves do not compare
    heap: list[tuple[float, int, complex, complex, complex, complex, complex, int]] = []
    value = 0.0 + 0.0j
    err_bound = 0.0

    def add_panel(a: complex, b: complex, coarse: complex, depth: int) -> None:
        nonlocal value, err_bound
        mid = 0.5 * (a + b)
        left = _gl16(f, a, mid, counter)
        right = _gl16(f, mid, b, counter)
        fine = left + right
        est = abs(fine - coarse)
        value += fine
        err_bound += est
        if est > 4e-16 * abs(fine) and depth < _MAX_QUAD_DEPTH:
            heapq.heappush(heap, (-est, next(order), a, mid, b, left, right, depth))

    for a, b in path.segments():
        add_panel(a, b, _gl16(f, a, b, counter), 0)
    while err_bound > tol and heap and counter[0] < _MAX_QUAD_EVALS:
        neg_est, _, a, mid, b, left, right, depth = heapq.heappop(heap)
        value -= left + right
        err_bound += neg_est
        add_panel(a, mid, left, depth + 1)
        add_panel(mid, b, right, depth + 1)
    if err_bound > tol:
        raise AccuracyError(
            f"quadrature failed to reach tol={tol:g} (error bound {err_bound:.3g})",
            estimate=value,
            error_bound=err_bound,
        )
    return value
