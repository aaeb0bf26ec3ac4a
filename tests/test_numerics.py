"""Foundation tests: principal powers, Cauchy-circle derivatives, quadrature."""

import cmath
import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import abeltau
from abeltau.errors import AccuracyError, DomainError
from abeltau.numerics import (
    Polyline,
    _Jet,
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

    @pytest.mark.parametrize("z, a", [(10.0, 400.0), (1e300, 2.0), (1e-300, -2.0)])
    def test_overflow_is_an_accuracy_error(self, z, a):
        # cmath.exp raises OverflowError past the float range
        with pytest.raises(AccuracyError, match="principal_power"):
            principal_power(z, a)

    @pytest.mark.parametrize("make", [complex, lambda z: _Jet(z, 1.0)])
    def test_an_infinite_phase_is_an_accuracy_error(self, make):
        # a Log z = 6.9e310 i: exp of an infinite phase was a bare ValueError
        with pytest.raises(AccuracyError, match="phase"):
            principal_power(make(1e300), 1e308j)

    @pytest.mark.parametrize("z, a", [(10.0, 400.0), (1e300, 2.0), (1e-300, -2.0)])
    def test_jet_overflow_is_an_accuracy_error(self, z, a):
        # the jet's exp of its value overflows as the scalar path does
        with pytest.raises(AccuracyError, match="overflows"):
            principal_power(_Jet(z, 1.0), a)


class TestStencil:
    def test_validation(self):
        for radius in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                holomorphic_derivatives(cmath.exp, 0.0, 1, radius)


class TestHolomorphicDerivatives:
    def test_exp_at_zero(self):
        ds = holomorphic_derivatives(cmath.exp, 0.0, 4, 0.5)
        for d in ds:
            assert abs(d - 1.0) < 1e-13

    def test_cube_at_one(self):
        ds = holomorphic_derivatives(lambda z: z**3, 1.0, 4, 0.5)
        expected = (3.0, 6.0, 6.0, 0.0)
        for d, e in zip(ds, expected):
            assert abs(d - e) < 1e-10

    def test_reciprocal_at_one(self):
        ds = holomorphic_derivatives(lambda z: 1.0 / z, 1.0, 4, 0.25)
        expected = (-1.0, 2.0, -6.0, 24.0)
        for d, e in zip(ds, expected):
            assert abs(d - e) < 1e-10 * abs(e)

    def test_polynomials_reproduced_to_1e12_relative(self):
        rng = random.Random(17)
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
            got = holomorphic_derivatives(poly, z0, 4, 1.0)
            for g, e in zip(got, exact):
                assert abs(g - e) <= 1e-12 * max(1.0, abs(e))

    def test_order_validation(self):
        with pytest.raises(DomainError):
            holomorphic_derivatives(cmath.exp, 0.0, 5)
        with pytest.raises(DomainError):
            holomorphic_derivatives(cmath.exp, 0.0, 0)

    def test_nonfinite_sample_surfaces(self):
        with pytest.raises(AccuracyError, match=r"sample of f at \(0\.01\+0j\)"):
            holomorphic_derivatives(lambda z: complex(float("inf"), 0.0), 0.0, 1)


def test_package_imports_no_numpy():
    # a fresh isolated interpreter: only the directory holding abeltau is added
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import abeltau\n"
        "r = abeltau.schwarz_residual(abeltau.LEMNISCATIC_CHI_EQUATION,"
        " abeltau.hauptmodul_lemniscatic, 1.1j)\n"
        "assert r <= 1e-11, r\n"
        "assert 'numpy' not in sys.modules\n"
    )
    package_root = str(Path(abeltau.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_imports_neither_dataclasses_nor_typing():
    # these modules cost most of the import time; -S because a site .pth may
    # load typing before the package does.  `import abeltau` leaves the
    # registry (identity tables, seeded cover rows) to the CLI, and loading it
    # there adds none of these modules either.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import abeltau\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "import abeltau.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    package_root = str(Path(abeltau.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    library, with_cli = (set(line.split()) for line in proc.stdout.splitlines())
    assert "abeltau.registry" not in library
    assert "abeltau.registry" in with_cli
    for loaded in (library, with_cli):
        assert not loaded & {"dataclasses", "inspect", "typing"}, sorted(loaded)


class TestPolyline:
    def test_validation(self):
        with pytest.raises(DomainError):
            Polyline([1.0])
        with pytest.raises(DomainError):
            Polyline([1.0, 1.0, 2.0])
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            with pytest.raises(DomainError):
                Polyline([0.0, bad])

    def test_length(self):
        assert abs(Polyline([0.0, 1.0, 1.0 + 1j]).length - 2.0) < 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_quadrature_refuses_a_non_finite_path_before_sampling(self, bad):
        # on such a path a finite integrand would run to the evaluation
        # budget and report an error bound of nan
        calls = []
        with pytest.raises(DomainError):
            contour_quadrature(lambda z: calls.append(z) or 1.0, [0.0, bad])
        assert not calls


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
        # K(k) = int_0^1 dt / sqrt((1-t^2)(1-k^2 t^2)), written in s = 1 - t so
        # that the s^(-1/2) branch point sits at 0, where doubles resolve the
        # distance to it; no clip and no endpoint fit
        evals = [0]

        def f(s):
            evals[0] += 1
            return 1.0 / cmath.sqrt(s * (2.0 - s) * (1.0 - k * k * (1.0 - s) ** 2))

        quad = contour_quadrature(f, [0.0, 1.0], 1e-11)
        assert evals[0] < 5000
        with mpmath.workdps(40):
            ref = complex(mpmath.ellipk(mpmath.mpmathify(k) ** 2))
        assert abs(quad - ref) < 1e-10

    def test_accuracy_error_carries_estimate(self):
        # an interior singularity: the nodes cluster at the ends, not at 1/3.
        # The differences rise and fall by turns, so the predicted exit never
        # fires and the budget ends the loop after the samples agreement alone
        # takes; at tol 1e-3 an exit on a predicted 100 tol stopped at level
        # 4, 0.26 off
        evals = [0]

        def f(u):
            evals[0] += 1
            return abs(u - 1.0 / 3.0) ** -0.5

        exact = 2.0 * math.sqrt(1.0 / 3.0) + 2.0 * math.sqrt(2.0 / 3.0)
        for tol in (1e-12, 1e-3):
            evals[0] = 0
            with pytest.raises(AccuracyError) as err:
                contour_quadrature(f, [0.0, 1.0], tol)
            assert evals[0] == 204_422
            assert cmath.isfinite(err.value.estimate)
            assert abs(err.value.estimate - exact) < 1e-2
            assert err.value.error_bound > tol
            assert err.value.error_bound >= abs(err.value.estimate - exact)

    def test_a_slowing_fall_is_not_extrapolated(self):
        # a Runge bump, whose differences fall double-exponentially, plus a
        # small square-root kink at the midpoint, a node of every level, whose
        # differences fall only algebraically: where the kink takes over, the
        # predicted next difference is below tol/100 while the fall slows, and
        # stopping there was 5.6 tol off
        evals = [0]

        def f(u):
            evals[0] += 1
            return 1.0 / (1.0 + 16.0 * (2.0 * u - 1.0) ** 2) + 1e-7 * math.sqrt(abs(u - 0.5))

        exact = math.atan(4.0) / 4.0 + 1e-7 * 2.0 * 0.5**1.5 / 1.5
        v = contour_quadrature(f, [0.0, 1.0], 1e-11)
        assert abs(v - exact) <= 1e-11
        assert evals[0] == 3275  # as many as agreement alone takes

    @pytest.mark.parametrize("bad", [math.nan, complex(math.inf, 0.0)])
    def test_non_finite_sample_is_an_accuracy_error(self, bad):
        # the midpoint 1/2 is finite; the first node below 1/4 is not
        f = lambda z: bad if z.real < 0.25 else 1.0
        with pytest.raises(AccuracyError, match=r"^non-finite integrand sample: \(\w+\+0j\)$"):
            contour_quadrature(f, [0.0, 1.0])

    @pytest.mark.parametrize("path, kind", [
        ([0.0, 1.0], float), ([2.0, 3.0], float),
        ([0, 1j], complex), ([complex(-2.0, -0.0), complex(-1.0, -0.0)], complex)])
    def test_nodes_on_the_real_axis_are_floats(self, path, kind):
        # only a segment between vertices x + 0.0i runs on floats: a -0.0 node
        # picks the lower side of a cut on the negative real axis
        kinds = set()
        contour_quadrature(lambda z: kinds.add(type(z)) or 1.0, path, 1e-10)
        assert kinds == {kind}

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            contour_quadrature(lambda u: u, [0.0, 1.0], -1e-8)
