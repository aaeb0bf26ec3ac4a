"""Foundation tests: principal powers, Cauchy-circle derivatives, quadrature."""

import cmath
import math
import random

import mpmath
import pytest

from abeltau.errors import AccuracyError, DomainError
from abeltau.numerics import (
    DerivativeStencil,
    Polyline,
    contour_quadrature,
    holomorphic_derivatives,
    principal_power,
)


class TestPrincipalPower:
    def test_identity_base(self):
        for a in (0.5, -2.0, 3 + 4j, 0.0):
            assert principal_power(1.0, a) == 1.0

    def test_principal_sqrt_of_minus_one(self):
        assert abs(principal_power(-1.0, 0.5) - 1j) < 1e-15

    def test_sqrt_four(self):
        assert abs(principal_power(4.0, 0.5) - 2.0) < 1e-15

    def test_zero_base(self):
        assert principal_power(0.0, 2.5) == 0.0
        with pytest.raises(DomainError):
            principal_power(0.0, -0.5)
        with pytest.raises(DomainError):
            principal_power(0.0, 1j)  # Re(a) = 0

    def test_exponent_additivity_right_half_plane(self):
        rng = random.Random(5)
        for _ in range(50):
            z = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = principal_power(z, a) * principal_power(z, b)
            rhs = principal_power(z, a + b)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestStencil:
    def test_validation(self):
        with pytest.raises(DomainError):
            DerivativeStencil(radius=-1.0)
        with pytest.raises(DomainError):
            DerivativeStencil(radius=0.1, nodes=15)
        with pytest.raises(DomainError):
            DerivativeStencil(radius=0.1, nodes=48)  # not a power of two

    def test_defaults(self):
        s = DerivativeStencil()
        assert s.radius == 1e-2 and s.nodes == 64


class TestHolomorphicDerivatives:
    def test_exp_at_zero(self):
        ds = holomorphic_derivatives(cmath.exp, 0.0, 4, DerivativeStencil(0.5))
        for d in ds:
            assert abs(d - 1.0) < 1e-13

    def test_cube_at_one(self):
        ds = holomorphic_derivatives(lambda z: z**3, 1.0, 4, DerivativeStencil(0.5))
        expected = (3.0, 6.0, 6.0, 0.0)
        for d, e in zip(ds, expected):
            assert abs(d - e) < 1e-10

    def test_reciprocal_at_one(self):
        ds = holomorphic_derivatives(lambda z: 1.0 / z, 1.0, 4, DerivativeStencil(0.25))
        expected = (-1.0, 2.0, -6.0, 24.0)
        for d, e in zip(ds, expected):
            assert abs(d - e) < 1e-10 * abs(e)

    def test_polynomials_reproduced_to_1e12_relative(self):
        rng = random.Random(17)
        stencil = DerivativeStencil(radius=1.0)
        for _ in range(20):
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
            z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

            def poly(z):
                acc = 0j
                for c in reversed(coeffs):
                    acc = acc * z + c
                return acc

            # exact derivatives by repeated coefficient differentiation
            exact = []
            work = list(coeffs)
            for order in range(1, 5):
                work = [k * c for k, c in enumerate(work)][1:]
                exact.append(sum(c * z0**k for k, c in enumerate(work)))
            got = holomorphic_derivatives(poly, z0, 4, stencil)
            for g, e in zip(got, exact):
                assert abs(g - e) <= 1e-12 * max(1.0, abs(e))

    def test_order_validation(self):
        with pytest.raises(DomainError):
            holomorphic_derivatives(cmath.exp, 0.0, 5)
        with pytest.raises(DomainError):
            holomorphic_derivatives(cmath.exp, 0.0, 0)

    def test_nonfinite_sample_surfaces(self):
        with pytest.raises(AccuracyError):
            holomorphic_derivatives(lambda z: complex(float("inf"), 0.0), 0.0, 1)


class TestPolyline:
    def test_validation(self):
        with pytest.raises(DomainError):
            Polyline([1.0])
        with pytest.raises(DomainError):
            Polyline([1.0, 1.0, 2.0])

    def test_length(self):
        assert abs(Polyline([0.0, 1.0, 1.0 + 1j]).length - 2.0) < 1e-15


class TestContourQuadrature:
    def test_linear(self):
        v = contour_quadrature(lambda u: u, [0.0, 1.0], 1e-12)
        assert abs(v - 0.5) < 1e-12

    def test_one_over_z_upper_detour(self):
        # polyline 1 -> i -> -1 is homotopic to the upper unit semicircle
        v = contour_quadrature(lambda z: 1.0 / z, [1.0, 1j, -1.0], 1e-11)
        assert abs(v - 1j * math.pi) < 1e-10

    def test_arcsine_with_endpoint_singularities(self):
        f = lambda u: u**-0.5 * (1.0 - u) ** -0.5
        v = contour_quadrature(f, [1e-30, 0.5], 1e-8)
        assert abs(v - math.pi / 2.0) < 1e-7

    def test_additive_over_concatenation(self):
        f = lambda z: cmath.exp(z) / (1.0 + z * z)
        tol = 1e-10
        whole = contour_quadrature(f, [0.0, 1.0, 1.0 + 1j], tol)
        parts = contour_quadrature(f, [0.0, 1.0], tol) + contour_quadrature(f, [1.0, 1.0 + 1j], tol)
        assert abs(whole - parts) <= 2.0 * tol

    @pytest.mark.parametrize("k", [0.3, 0.95, 0.5j])
    def test_endpoint_singularity_stays_far_below_budget(self, k):
        # the quadrature elliptic_F(1, k) makes, clipped 1e-8 short of the
        # t = 1 branch point; refinement that halves each panel's tolerance
        # per level spends its whole 400 000-evaluation budget here
        from abeltau.hypergeom import _power_endpoint_tail

        evals = [0]

        def f(t):
            evals[0] += 1
            return 1.0 / cmath.sqrt((1.0 - t * t) * (1.0 - k * k * t * t))

        quad = contour_quadrature(f, [0.0, 1.0 - 1e-8], 1e-11)
        assert evals[0] < 5000
        tail = _power_endpoint_tail(lambda s: f(1.0 - s), 1e-8, -0.5)
        assert abs(quad + tail - complex(mpmath.ellipk(k * k))) < 1e-10

    def test_accuracy_error_carries_estimate(self):
        f = lambda u: u**-0.5
        with pytest.raises(AccuracyError) as err:
            contour_quadrature(f, [1e-300, 1.0], 1e-14)
        assert err.value.estimate is not None
        assert abs(err.value.estimate - 2.0) < 1e-5
        assert err.value.error_bound > 1e-14

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            contour_quadrature(lambda u: u, [0.0, 1.0], -1e-8)
