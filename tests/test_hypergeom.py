"""Gauss 2F1, Gamma/Beta, elliptic integrals, and the incomplete-integral
identities against their quadrature oracle."""

import cmath
import math
import random
import sys
from bisect import bisect_left

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abeltau import hypergeom, numerics, registry
from abeltau.errors import AbeltauError, AccuracyError, DomainError, DomainNotSupported
from abeltau.hypergeom import (
    HypergeometricParams,
    IncompleteIntegralSpec,
    _f21_half,
    elliptic_F,
    elliptic_K,
    euler_beta,
    gamma_fn,
    gauss_2f1,
    incomplete_integral_2f1,
    oracle_incomplete_integral,
)
from abeltau.numerics import Polyline, _Jet, contour_quadrature, principal_power
from abeltau.registry import REGISTRY, run_identity
from abeltau.weier import ThirdKindParam, integral_third_kind, weier_sigma, weier_zeta


def f21(a, b, c, z):
    return gauss_2f1(HypergeometricParams(a, b, c), z)


class TestGauss2F1:
    def test_empty_sum_at_zero(self):
        assert f21(0.3 + 0.1j, -2.0, 1.7, 0.0) == 1.0

    def test_log_closed_form(self):
        assert abs(f21(1, 1, 2, 0.5) - 2.0 * math.log(2.0)) < 1e-14

    def test_lemniscatic_argument_frozen(self):
        # cross-checked against the from-infinity quadrature oracle at x = 2
        assert abs(f21(0.5, 0.25, 1.25, 0.25) - 1.0280568010521267) < 1e-14

    def test_pfaff_agrees_with_series_on_overlap(self):
        # 0.5 <= |z| <= 0.6, Re z < 0: both routes converge
        for z in (-0.55, -0.3 - 0.45j, -0.5 + 0.2j, -0.35 + 0.4j):
            params = HypergeometricParams(0.5, 0.25, 1.25)
            series = gauss_2f1(params, z)
            w = z / (z - 1.0)
            assert abs(w) <= 0.95
            pfaff = (1.0 - z) ** -0.5 * f21(0.5, 1.0, 1.25, w)
            assert abs(series - pfaff) < 1e-10 * abs(series)

    def test_pfaff_region_reachable(self):
        # |z| > 0.95 but z/(z-1) small: the Pfaff route must engage
        z = -3.0
        v = f21(0.5, 0.25, 1.25, z)
        w = z / (z - 1.0)
        expected = (1.0 - z) ** -0.5 * f21(0.5, 1.0, 1.25, w)
        assert abs(v - expected) < 1e-13 * abs(v)

    def test_domain_refusal(self):
        with pytest.raises(DomainNotSupported):
            f21(0.5, 0.25, 1.25, 5.0)
        with pytest.raises(DomainNotSupported):
            f21(0.5, 0.25, 1.25, 0.99)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, -3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_params_rejected(self, bad, slot):
        # refused at once, not after the whole term budget of the series
        params = [0.5, 0.25, 1.25]
        params[slot] = bad
        with pytest.raises(DomainError):
            HypergeometricParams(*params)

    # 0 <= a, b <= 1 <= c: the coefficients are positive and non-increasing,
    # so 2F1 has no zero in the unit disk (Enestrom-Kakeya) and a relative
    # error is well defined; the Pfaff series (a, c - b; c) keeps that shape
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), c=st.floats(1.0, 2.0),
           r=st.floats(0.0, 0.95), phi=st.floats(-math.pi, math.pi), pfaff=st.booleans())
    def test_against_mpmath(self, a, b, c, r, phi, pfaff):
        z = cmath.rect(r, phi)
        if pfaff:  # z/(z - 1) is an involution: w in the disk maps to z
            z = z / (z - 1.0)
        # the round trip back to w can round past the disk's edge, where the
        # gate refuses by design; the region is what the gate computes
        assume(abs(z) <= 0.95 or abs(z / (z - 1.0)) <= 0.95)
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(f21(a, b, c, z) - ref) <= 1e-13 * abs(ref)

    def test_max_terms_exhaustion_of_the_series(self, monkeypatch):
        # the series in w for a b past 1, and at -3.0 (|w| = 1/2) Pfaff; the
        # Horner sum takes at most 61 rows (test_real_b_up_to_one_counts_from_w_alone)
        monkeypatch.setattr(hypergeom, "_MAX_TERMS", 3)
        for b, z in ((1.5, 0.5), (0.25, -3.0)):
            with pytest.raises(AccuracyError):
                _f21_half(b, z)

    @pytest.mark.parametrize("z", [1.0, 1 + 0j, complex(1.0, -0.0)])
    def test_pfaff_pole_at_one_is_refused(self, z):
        # z/(z - 1) divided by zero here
        with pytest.raises(DomainNotSupported):
            f21(0.5, 0.25, 1.25, z)
        with pytest.raises(DomainNotSupported):
            incomplete_integral_2f1(IncompleteIntegralSpec(0.5, 0.3, 2, z, "from_zero"))

    def test_a_term_past_the_float_range_is_an_accuracy_error(self):
        # the Pfaff series at w = z/(z - 1) = 0.8 + 0.4i: a term's parts stay
        # finite while its size passes the float range, where abs() raised a
        # bare OverflowError
        params = HypergeometricParams(700 + 1e-200j, 2.5759123964407227, -3.3418663761209144)
        with pytest.raises(AccuracyError, match="term overflows"):
            gauss_2f1(params, 1e-200 - 2j)


def complement_region_z(r, s):
    """A z with |z| = r in [0.5, 0.95] and Re z >= 1/2, i.e. |1 - z| <= |z|,
    s in [-1, 1] sweeping its arc."""
    return cmath.rect(r, s * math.acos(0.5 / r))


class TestComplementRoute:
    """2F1(a, b; b+1 | z) where z is nearer to 1 than to 0, the half of the
    disk where the series in z converges slowest, as incomplete_integral_2f1
    sums it: by _f21_half for a = 1/2, else by gauss_2f1."""

    # 0 <= a, b and c = b + 1: positive, non-increasing coefficients for
    # a <= 1, so no zero in the disk and a well-defined relative error
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 3.0),
           r=st.floats(0.5, 0.95), s=st.floats(-1.0, 1.0))
    def test_against_mpmath(self, a, b, r, s):
        z = complement_region_z(r, s)
        assume(abs(z) <= 0.95)  # r = 0.95 can round past the gate's disk
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(a, b, b + 1.0, z))
        value = _f21_half(b, z) if a == 0.5 else f21(a, b, b + 1.0, z)
        assert abs(value - ref) <= 1e-13 * abs(ref)


# b real in (0, 3] or complex with Re b in that range and |Im b| <= 1
ROUTE_B = st.one_of(
    st.floats(0.0, 3.0, exclude_min=True),
    st.builds(complex, st.floats(0.0, 3.0, exclude_min=True), st.floats(-1.0, 1.0)),
)
# z = 4w(1 - w) over the disk |w| <= 0.449 that the route serves, less a
# margin for the rounding of w to z and back
ROUTE_Z = st.builds(cmath.rect, st.floats(0.0, 0.449), st.floats(-math.pi, math.pi)).map(
    lambda w: 4.0 * w * (1.0 - w))


class TestQuadraticRoute:
    """_f21_half sums 2F1(1/2, b; b+1 | z) as 2F1(1, 2b; b+1 | w), w = (1 - sqrt(1-z))/2."""

    @settings(max_examples=400, deadline=None)
    @given(b=ROUTE_B, z=ROUTE_Z)
    # near the edge with Re z < 0, where the series in z converges slowest
    @example(b=1.0 / 6.0, z=-0.931 - 0.085j)
    # 0.01 from the branch point z = 1, and the far end z = -2.61 (w = -0.45)
    @example(b=0.25, z=0.99)
    @example(b=1.0 / 6.0, z=-2.6)
    @example(b=0.25, z=0.6 + 0.8j)  # on the unit circle, |w| = 0.27
    def test_against_mpmath(self, b, z):
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(0.5, b, b + 1.0, z))
        assert abs(_f21_half(b, z) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("beta, b", [
        (0.5, 1.0 / 6.0),
        (0.5, 0.875),
        (0.5 + 0j, 0.25 + 0.5j),
        (0.5, 1.5),
        (math.nextafter(0.5, 1.0), 1.0 / 6.0),  # beta one ulp above 1/2
        (0.0, 1.0),
        (0.75, 0.25 + 0.5j),
    ])
    def test_route_runs_exactly_when_beta_is_half(self, monkeypatch, beta, b):
        # the closed form's 2F1(beta, b; b+1 | z^n) goes to _f21_half exactly
        # where beta = 1/2: over b's table for a real b in (0, 1], for a number
        # and a jet, else to the series (1, 2b; b+1) in w; any other beta goes
        # to gauss_2f1 and its series as (beta, b; b+1)
        calls, tables, public = [], [], []
        series, table, gauss = hypergeom._f21_series, hypergeom._f21_table, hypergeom.gauss_2f1
        monkeypatch.setattr(hypergeom, "_f21_series",
                            lambda *args: calls.append(args[:3]) or series(*args))
        monkeypatch.setattr(hypergeom, "_f21_table", lambda b: tables.append(b) or table(b))
        monkeypatch.setattr(hypergeom, "gauss_2f1",
                            lambda *args: public.append(args[0]) or gauss(*args))
        falling = b.imag == 0 and 0.0 < b.real <= 1.0
        for z in (0.8, -0.8, 0.8j, 0.48 - 0.64j, -0.6 + 0.5j, 0.3 + 0.1j):
            for log in (calls, tables, public):
                log.clear()
            value = incomplete_integral_2f1(IncompleteIntegralSpec(b, beta, 1, z, "from_zero"))
            with mpmath.workdps(30):
                ref = complex(mpmath.expjpi(beta) / b * mpmath.power(z, b)
                              * mpmath.hyp2f1(beta, b, b + 1, z))
            assert abs(value - ref) <= 1e-14 * abs(ref), (z, value, ref)
            if beta != 0.5:
                assert public == [HypergeometricParams(beta, b, b + 1.0)], (z, public)
                assert calls == [(beta, b, b + 1.0)] and tables == [], (z, calls, tables)
            elif not falling:
                assert calls == [(1.0, 2.0 * b, b + 1.0)] and tables == public == [], z
            else:
                jet = _f21_half(b, _Jet(z, 1.0))
                assert calls == public == [] and tables == [b] * 2, (z, calls, tables)
                assert abs(jet.derivatives()[0] - _f21_half(b, z)) <= 1e-15 * abs(value)

    @pytest.mark.parametrize("z", [
        -3.0,  # w = -1/2: a number goes on to Pfaff
        0.995,  # w = 0.465, and outside both regions of gauss_2f1
        1.0, 1.5, complex(2.0, 1e-300), complex(2.0, -1e-300),
    ])
    def test_one_gate_on_w(self, monkeypatch, z):
        # past |w| = 0.45 a number is gauss_2f1's, and a jet is refused
        public = []
        gauss = hypergeom.gauss_2f1
        monkeypatch.setattr(hypergeom, "gauss_2f1",
                            lambda *args: public.append(args) or gauss(*args))
        try:
            value = _f21_half(0.25, z)
        except DomainNotSupported:
            value = None
        assert public == [(HypergeometricParams(0.5, 0.25, 1.25), z)]
        if value is not None:
            with mpmath.workdps(40):
                ref = complex(mpmath.hyp2f1(0.5, 0.25, 1.25, z))
            assert abs(value - ref) <= 1e-14 * abs(ref)
        with pytest.raises(DomainNotSupported, match=r"\|w\| > 0.45"):
            _f21_half(0.25, _Jet(z, 1.0))

    def test_no_value_near_the_cut(self):
        # z in [1, inf) maps to Re w = 1/2 and gauss_2f1 serves Re z <= 0.95
        # only, so within 0.01 of the cut, on either side, nothing is summed:
        # every value is that of the principal branch, continuous on C \ [1, inf)
        for x in (1.0, 1.001, 1.5, 3.0, 1e10):
            for y in (0.0, 1e-300, 1e-3, 9e-3):
                for z in (complex(x, y), complex(x, -y)):
                    with pytest.raises(DomainNotSupported):
                        _f21_half(1.0 / 6.0, z)


# the b of U(m, tau) for m = 0..3, of u_lemniscatic and of the two
# equianharmonic uniformizers
UNIFORMIZER_B = (0.125, 0.375, 0.625, 0.875, 0.25, 1.0 / 6.0, 1.0 / 3.0)
# the b that the kernel sums by Horner's rule, numbers and jets: real in (0, 1]
KERNEL_B = st.one_of(st.sampled_from(UNIFORMIZER_B), st.floats(0.0, 1.0, exclude_min=True))
KERNEL_W = st.builds(cmath.rect, st.floats(0.0, 0.45), st.floats(-math.pi, math.pi))
# the size below which a subnormal b leaves its t_n no relative accuracy,
# and a tail counts as none
KERNEL_FLOOR = sys.float_info.min / 2.0**-53


def kernel_rows(b, count):
    """The w^n coefficients (n+1)...(n+j) t_(n+j), j = 0..3, n < count, of
    2F1(1, 2b; b+1 | w) = sum t_n w^n and its first three derivatives."""
    t = [1.0]
    for k in range(count + 3):
        t.append(t[k] * (2.0 * b + k) / (b + 1.0 + k))
    return [[math.prod(range(n + 1, n + j + 1)) * t[n + j] for j in range(4)]
            for n in range(count)]


def kernel(b, w):
    """The value the kernel returns for a number w, and the four derivatives for a jet."""
    table = hypergeom._f21_table(b)
    jet = hypergeom._f21_horner(table, _Jet(w, 1.0))
    return hypergeom._f21_horner(table, w), jet.derivatives()


class TestHornerKernel:
    """2F1(1, 2b; b+1 | w), |w| <= 0.45, by Horner's rule over as many rows of
    b's table as a tail bound asks for at |w|, for a real b in (0, 1]."""

    @settings(max_examples=300, deadline=None)
    @given(b=KERNEL_B, w=KERNEL_W)
    @example(b=0.875, w=-0.45)  # the longest sum of the seven, at the edge
    def test_against_mpmath(self, b, w):
        # the value relative to itself, each derivative relative to the sum of
        # its terms' moduli, the size that rounding in any sum scales with
        assume(abs(w) <= 0.45)
        scale = [max(KERNEL_FLOOR, sum(abs(c) * abs(w) ** n for n, c in enumerate(col)))
                 for col in zip(*kernel_rows(b, 400))]
        with mpmath.workdps(40):
            ref = [complex(mpmath.factorial(k) * mpmath.rf(2 * b, k) / mpmath.rf(b + 1, k)
                           * mpmath.hyp2f1(1 + k, 2 * b + k, b + 1 + k, w)) for k in range(4)]
        value, derivatives = kernel(b, w)
        assert abs(value - ref[0]) <= 1e-15 * abs(ref[0]), (value, ref[0])
        for j, (got, want) in enumerate(zip(derivatives, ref)):
            assert abs(got - want) <= 1e-15 * scale[j], (j, got, want)

    @pytest.mark.parametrize("b", UNIFORMIZER_B + (2.2e-313, 0.5, 1.0, 1.0 + 0j))
    def test_real_b_up_to_one_counts_from_w_alone(self, b):
        # their t_n fall from 1, so one list of edges, free of b, serves them
        # all: at |w| = 0.45 a number takes 47 rows and a jet 61, all of b's
        # table, so every w of _f21_w's disk is in reach
        edges = hypergeom._f21_edges()
        assert [bisect_left(e, 0.45) + 1 for e in edges] == [47, 61]
        assert len(hypergeom._f21_table(b)) == len(edges[1]) == 61

    @pytest.mark.parametrize("b", [0.0, -0.25, 1.0 + 1e-15, 1.5, 3.0, 0.25 + 0.5j, 0.5 - 1e-9j])
    def test_any_other_b_is_summed_by_the_series(self, monkeypatch, b):
        # no table: the w of a number z in the disk goes to _f21_series as (1, 2b; b+1)
        calls = []
        series = hypergeom._f21_series
        monkeypatch.setattr(hypergeom, "_f21_series",
                            lambda *args: calls.append(args) or series(*args))
        monkeypatch.setattr(hypergeom, "_f21_table", lambda b: pytest.fail("a table was built"))
        for z in (0.0, 0.84, -2.61, 1.28 - 0.96j):  # w = 0, 0.3, -0.45, 0.2 - 0.4j
            calls.clear()
            value = _f21_half(b, z)
            w = hypergeom._f21_w(z)
            assert calls == [(1.0, 2.0 * b, b + 1.0, w)]
            with mpmath.workdps(40):
                ref = complex(mpmath.hyp2f1(1, 2 * b, b + 1, w))
            assert abs(value - ref) <= 1e-14 * abs(ref), (w, value, ref)

    @settings(max_examples=300, deadline=None)
    @given(b=KERNEL_B, w=KERNEL_W)
    @example(b=0.875, w=-0.45)
    @example(b=2.2e-313, w=0.25)  # subnormal t_n: a tail below the normal range is none
    def test_twice_the_terms_agree(self, b, w):
        # the rows past the count, as many again, sum below 2^-53 of the
        # leading coefficient or of KERNEL_FLOOR, and the Horner sum over all
        # of them agrees with the kernel's
        assume(abs(w) <= 0.45)
        edges = hypergeom._f21_edges()
        value, derivatives = kernel(b, w)
        for jet, got in ((False, [value]), (True, derivatives)):
            count = bisect_left(edges[jet], abs(w)) + 1
            rows = kernel_rows(b, 2 * count)
            longer = [0j] * 4
            for row in reversed(rows):
                longer = [s * w + c for s, c in zip(longer, row)]
            scale = [max(KERNEL_FLOOR, sum(abs(c) * abs(w) ** n for n, c in enumerate(col)))
                     for col in zip(*rows)]
            for j, sum_ in enumerate(got):
                lead = max(abs(rows[0][j]), KERNEL_FLOOR)
                tail = sum(abs(row[j]) * abs(w) ** n for n, row in enumerate(rows) if n >= count)
                assert tail <= 2.0**-53 * lead, (jet, j, count, tail)
                assert abs(sum_ - longer[j]) <= 1e-15 * scale[j], (jet, j, sum_, longer[j])


class TestGammaBeta:
    def test_half_integer_values(self):
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
        assert abs(gamma_fn(-0.5) + 2.0 * math.sqrt(math.pi)) < 1e-13

    def test_against_stdlib_gamma(self):
        for x in (1.0 / 6.0, 1.0 / 3.0, 0.25, 0.75, 1.25, 4.5, 7.0):
            assert abs(gamma_fn(x) - math.gamma(x)) < 5e-14 * math.gamma(x)

    def test_complex_value_frozen(self):
        expected = 0.4980156681183560 - 0.1549498283018107j
        assert abs(gamma_fn(1 + 1j) - expected) < 1e-13

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma_fn(z)

    def test_beta_trivial(self):
        assert abs(euler_beta(1.0, 1.0) - 1.0) < 1e-12

    def test_beta_half_half(self):
        assert abs(euler_beta(0.5, 0.5) - math.pi) < 1e-12

    def test_beta_sixth_third(self):
        # published truncation 6 * 1.402182105325 = 8.41309263195
        v = euler_beta(1.0 / 6.0, 1.0 / 3.0)
        assert abs(v - 8.413092631952726) < 1e-11
        assert abs(v - 6.0 * 1.402182105325) < 5e-11

    def test_beta_symmetric_as_computed(self):
        for a, b in ((0.3 + 0.2j, 1.7 - 0.4j), (1.0 / 6.0, 1.0 / 3.0)):
            assert euler_beta(a, b) == euler_beta(b, a)

    def test_large_arguments_against_mpmath(self):
        # the Lanczos power t^(z+1/2) alone overflows from 142.4 on, Gamma
        # itself past 171.62
        for x in [143.0 + 0.25 * k for k in range(115)] + [150.0, 170.5, 171.6]:
            ref = mpmath.gamma(x)
            assert abs(gamma_fn(x) - ref) <= 2e-13 * ref, x

    @pytest.mark.parametrize("z", [172.5, -171.5, 180.0 + 1.0j])
    def test_past_the_float_range_is_an_abeltau_error(self, z):
        # a value or an AbeltauError, never a bare OverflowError
        try:
            value = gamma_fn(z)
        except AbeltauError:
            return
        ref = complex(mpmath.gamma(z))
        assert abs(value - ref) <= 2e-13 * abs(ref)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-175.0, 0.49), y=st.floats(1.0, 400.0), s=st.sampled_from([1.0, -1.0]))
    # the sine of the reflection overflows here, and Gamma(172.5) there
    @example(x=0.2, y=300.0, s=1.0)
    @example(x=-171.5, y=0.0, s=1.0)
    def test_reflection_in_logs_against_mpmath(self, x, y, s):
        # the condition number of Gamma grows as |z| log|z| (its phase), and
        # so does the bound, above the 2e-13 of the other Gamma tests
        z = complex(x, s * y)
        with mpmath.workdps(40):
            ref = complex(mpmath.gamma(mpmath.mpmathify(z)))
        if abs(ref) < 2.0**-1031:
            with pytest.raises(AccuracyError):
                gamma_fn(z)
            return
        bound = 2e-13 + 1e-15 * abs(z) * math.log(2.0 + abs(z))
        assert abs(gamma_fn(z) - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("a, b", [(150.0, 0.5), (0.5, 150.0),
                                      (2.2250738585072014e-308, 0.125),
                                      (0.125, 2.2250738585072014e-308)])
    def test_beta_against_mpmath_where_gamma_is_large(self, a, b):
        # the second pair: Gamma(a) Gamma(b) = 3.4e308 overflows, B = 4.49e307
        ref = complex(mpmath.beta(a, b))
        assert abs(euler_beta(a, b) - ref) <= 2e-13 * abs(ref)

    def test_beta_past_the_float_range_raises(self):
        with pytest.raises(AccuracyError):
            euler_beta(5e-324, 5e-324)

    # pi z or the Lanczos power t^(z-1/2) leaves the float range: cmath.sin
    # raised ValueError, and the power's infinite phase ZeroDivisionError
    @pytest.mark.parametrize("z", [7.83 - 6.88e307j, -9.2e307 + 0.0008j])
    def test_gamma_of_an_argument_past_the_float_range_raises(self, z):
        with pytest.raises(AccuracyError, match="gamma_fn"):
            gamma_fn(z)

    def test_beta_of_an_argument_past_the_float_range_raises(self):
        with pytest.raises(AccuracyError, match="gamma_fn"):
            euler_beta(1.0, 1e308 + 1e308j)

    def test_beta_pole(self):
        with pytest.raises(DomainError):
            euler_beta(0.5, -0.5)  # a + b = 0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_arguments_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)
        with pytest.raises(DomainError):
            euler_beta(bad, 0.5)
        with pytest.raises(DomainError):
            euler_beta(0.5, bad)


class TestEllipticIntegrals:
    def test_complete_at_zero(self):
        assert abs(elliptic_K(0.0) - math.pi / 2.0) < 1e-15

    def test_incomplete_at_one_is_complete(self):
        k = 0.3
        assert abs(elliptic_F(1.0, k) - elliptic_K(k)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)),
        k=st.one_of(st.floats(0.0, 0.95), st.floats(0.0, 2.0).map(lambda y: 1j * y),
                    st.floats(0.95, 1.0 - 1e-9)),
    )
    @example(x=1.0 - 2.0**-53, k=0.95)  # quadrature straight to x was 1.6e-9 off here
    @example(x=1.0, k=1.0 - 1e-7)  # the endpoint fit was 2e-4 off here
    @example(x=-1.0, k=1.0 - 1e-9)
    # the principal root of the integrand's product jumps along this path
    @example(x=1.9 + 0.1j, k=-0.3 - 0.8j)
    def test_incomplete_matches_mpmath(self, x, k):
        # at 15 digits k^2 rounds, and near k = 1 the reference is 2e-11 off
        with mpmath.workdps(40):
            ref = complex(mpmath.ellipf(mpmath.asin(x), mpmath.mpmathify(k) ** 2))
        assert abs(elliptic_F(x, k) - ref) <= 1e-10 * (1.0 + abs(ref))

    @pytest.mark.parametrize("x", [1.0, -1.0])
    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_divergent_endpoint_raises(self, x, k):
        # F(+-1; +-1) diverges: both branch points of the integrand meet at t = x
        with pytest.raises(DomainError):
            elliptic_F(x, k)

    def test_frozen_value_for_u0_cross_check(self):
        k = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(2.0))
        assert abs(elliptic_K(k) - 1.5981420021125401) < 1e-13

    def test_complex_modulus_agm_vs_quadrature(self):
        k = 0.3j
        assert abs(elliptic_K(k) - elliptic_F(1.0, k)) < 1e-9

    def test_modulus_on_forbidden_ray(self):
        for k in (1.0, 1.5, -2.0):
            with pytest.raises(DomainError):
                elliptic_K(k)

    @pytest.mark.parametrize("k", (math.nan, complex(1.0, math.nan), complex(0.0, math.inf)))
    def test_non_finite_modulus_rejected(self, k):
        with pytest.raises(DomainError):
            elliptic_K(k)

    def test_agm_that_does_not_converge_raises(self):
        # 1 - k^2 overflows to inf, and R_F's duplication never converges
        with pytest.raises(AccuracyError):
            elliptic_K(1e200j)


class TestIncompleteIntegralSpec:
    def test_base_invariants(self):
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(-0.5, 0.5, 2, 1.0, "from_zero")
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(2.0, 0.5, 2, 3.0, "from_infinity")  # Re(nb-a) < 0
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(0.5, 0.5, 0, 1.0, "from_zero")
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(0.5, 0.5, 2, 1.0, "midpoint")

    @pytest.mark.parametrize("base", ["from_zero", "from_infinity"])
    @pytest.mark.parametrize("alpha, beta, z", [
        (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, complex(math.inf, 0.0)),
        (complex(0.5, math.inf), 0.5, 0.5), (0.5, 0.5, complex(0.5, math.nan)),
    ])
    def test_non_finite_parameters_rejected(self, alpha, beta, z, base):
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(alpha, beta, 2, z, base)

    def test_from_infinity_at_zero_rejected(self):
        # neither 1/z, the oracle's endpoint, nor z^-n exists there
        with pytest.raises(DomainError):
            IncompleteIntegralSpec(0.5, 0.5, 2, 0.0, "from_infinity")

    def test_named_tuple_coerces_and_validates_on_replace(self):
        spec = IncompleteIntegralSpec(0.5, 0.5, 2, 3, "from_infinity")
        assert repr(spec) == ("IncompleteIntegralSpec(alpha=(0.5+0j), beta=(0.5+0j), n=2,"
                              " z=(3+0j), base='from_infinity')")
        assert spec._fields == ("alpha", "beta", "n", "z", "base")
        assert repr(spec._replace(z=2)).endswith("z=(2+0j), base='from_infinity')")
        with pytest.raises(DomainError):
            spec._replace(z=0.0)
        with pytest.raises(AttributeError):
            spec.z = 2.0


@st.composite
def oracle_specs(draw):
    """An oracle spec whose base-point exponent e has Re(e) in [-0.99, 0),
    with complex alpha and |endpoint| <= 0.9 in the integration variable."""
    re_e = draw(st.one_of(st.just(-0.99), st.floats(-0.99, 0.0, exclude_max=True)))
    im_alpha = draw(st.floats(-1.0, 1.0))
    beta = draw(st.floats(-1.0, 1.5))
    n = draw(st.integers(1, 4))
    w = draw(st.floats(1e-3, 0.9)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    if draw(st.booleans()):
        return IncompleteIntegralSpec(1.0 + re_e + 1j * im_alpha, beta, n, w, "from_zero")
    alpha = n * beta - 1.0 - re_e + 1j * im_alpha
    return IncompleteIntegralSpec(alpha, beta, n, 1.0 / w, "from_infinity")


def _incomplete_integral_mp(spec):
    """The closed 2F1 form of the incomplete integral at 30 digits."""
    a, b, n, z, base = spec
    with mpmath.workdps(30):
        a, b, z = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(z)
        if base == "from_zero":
            return complex(mpmath.exp(1j * mpmath.pi * b) / a * mpmath.power(z, a)
                           * mpmath.hyp2f1(b, a / n, a / n + 1, mpmath.power(z, n)))
        e = a - n * b
        return complex(mpmath.power(z, e) / e
                       * mpmath.hyp2f1(b, b - a / n, b - a / n + 1, mpmath.power(z, -n)))


def _count_samples(monkeypatch, *modules):
    """[calls, samples]: contour_quadrature in each module, rerouted to add its
    calls and integrand samples to the list."""
    counts = [0, 0]

    def counting(f, path, tol):
        def g(z):
            counts[1] += 1
            return f(z)
        counts[0] += 1
        return contour_quadrature(g, path, tol)

    for module in modules:
        monkeypatch.setattr(module, "contour_quadrature", counting)
    return counts


class TestIncompleteIntegrals:
    def test_equianharmonic_from_zero_display(self):
        # alpha=1, beta=1/2, n=3: twice the i/2 z 2F1(1/2,1/3;4/3|z^3) display
        z = 0.6
        got = incomplete_integral_2f1(IncompleteIntegralSpec(1.0, 0.5, 3, z, "from_zero"))
        display = 0.5j * z * f21(0.5, 1.0 / 3.0, 4.0 / 3.0, z**3)
        assert abs(got - 2.0 * display) < 1e-13 * abs(got)

    def test_lemniscatic_from_infinity_reproduces_inverse(self):
        from abeltau.weier import wp_inverse_lemniscatic

        got = incomplete_integral_2f1(IncompleteIntegralSpec(0.5, 0.5, 2, 2.0, "from_infinity"))
        assert abs(got + 2.0 * wp_inverse_lemniscatic(2.0)) < 1e-12

    def test_trivial_unit_integrand(self):
        got = oracle_incomplete_integral(IncompleteIntegralSpec(1.0, 0.0, 1, 0.7, "from_zero"))
        assert abs(got - 0.7) < 1e-10

    def test_arcsine_phase_and_value(self):
        # real part of e^(-i pi/2) * integral = 2 arcsin(sqrt(1/2)) = pi/2
        got = oracle_incomplete_integral(IncompleteIntegralSpec(0.5, 0.5, 1, 0.5, "from_zero"))
        assert abs(got - 0.5j * math.pi) < 1e-9

    def test_oracle_is_the_lemniscatic_integral(self):
        spec = IncompleteIntegralSpec(0.5, 0.5, 2, 3.0, "from_infinity")
        quad = oracle_incomplete_integral(spec)
        closed = incomplete_integral_2f1(spec)
        assert abs(quad - closed) < 1e-9 * (1.0 + abs(closed))

    def test_oracle_path_independence_within_branch_region(self):
        spec = IncompleteIntegralSpec(0.5, 0.5, 1, 0.5, "from_zero")
        straight = oracle_incomplete_integral(spec)
        bent = oracle_incomplete_integral(spec, Polyline([0.0, 0.2 + 0.1j, 0.5]))
        assert abs(straight - bent) < 1e-9

    def test_formula_branch_matches_oracle_on_real_interval(self):
        # the e^(i pi beta) convention is pinned by agreement for z in (0, 1)
        for z in (0.3, 0.6, 0.85):
            spec = IncompleteIntegralSpec(0.75, 0.5, 2, z, "from_zero")
            closed = incomplete_integral_2f1(spec)
            quad = oracle_incomplete_integral(spec)
            assert abs(closed - quad) < 1e-9 * (1.0 + abs(closed)), z

    @settings(max_examples=100, deadline=None)
    @given(spec=oracle_specs())
    # exponent -0.95: tanh-sinh on the integrand with u^e left in needs nodes
    # beyond |t| = 4 here
    @example(spec=IncompleteIntegralSpec(0.05, 0.3, 2, 0.5 + 0.2j, "from_zero"))
    def test_oracle_matches_closed_form_on_its_domain(self, spec):
        ref = incomplete_integral_2f1(spec)
        try:
            got = oracle_incomplete_integral(spec)
        except AbeltauError:
            return
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    @settings(max_examples=100, deadline=None)
    @given(spec=oracle_specs(), tol=st.sampled_from([1e-8, 1e-12]))
    # with an exit on a predicted error of 100 tol the oracle stopped a level
    # early here, 1.6e-11 off at tol 1e-8
    @example(spec=IncompleteIntegralSpec(0.39560106256180205 + 0.7091213944790207j,
                                         1.1800031873892802, 3,
                                         -0.16847510769823096 + 0.12058759397026077j,
                                         "from_zero"), tol=1e-8)
    # Re(e) = -0.99: a first leg mapped by u = v1 w^100 was 7.3e-12 and
    # 1.6e-11 (1 + |ref|) off here, w^100 a step at w = 1 on its segment
    @example(spec=IncompleteIntegralSpec(0.24, 0.25, 1, 4, "from_infinity"), tol=1e-8)
    @example(spec=IncompleteIntegralSpec(-0.3225, -0.3125, 1, 2.2857142857142856,
                                         "from_infinity"), tol=1e-8)
    def test_predicted_exit_keeps_the_oracle_accurate(self, spec, tol):
        # over 3 000 seeded specs of this domain, 10% of them at Re(e) = -0.99,
        # the worst error was 3.6e-14 (1 + |ref|) at tol 1e-8 and 5.9e-16 at 1e-12
        ref = incomplete_integral_2f1(spec)
        try:
            got = oracle_incomplete_integral(spec, tol=tol)
        except AbeltauError:
            return
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    @pytest.mark.parametrize("alpha", [1050.0, 1100.0])
    def test_an_underflowing_value_is_an_accuracy_error(self, alpha):
        # 0.5^alpha: at 1050 the subnormal 1.1159e-319j kept five digits of
        # 1.1158964252585623e-319j, and at 1100 9.4608482856774435e-335j came out 0
        with pytest.raises(AccuracyError, match="underflows"):
            incomplete_integral_2f1(IncompleteIntegralSpec(alpha, 0.5, 1, 0.5, "from_zero"))

    def test_a_tiny_normal_value_is_served(self):
        got = incomplete_integral_2f1(IncompleteIntegralSpec(1000.0, 0.5, 1, 0.5, "from_zero"))
        ref = 1.3191757932426119e-304j
        assert abs(got - ref) <= 1e-13 * abs(ref)
        # the base point keeps its exact 0
        assert incomplete_integral_2f1(IncompleteIntegralSpec(1050.0, 0.5, 1, 0.0,
                                                              "from_zero")) == 0

    @pytest.mark.parametrize("spec", [
        IncompleteIntegralSpec(0.01, 0.3, 2, 0.5 + 0.2j, "from_zero"),
        IncompleteIntegralSpec(0.59 - 0.3j, 0.3, 2, 2.0 - 1.0j, "from_infinity"),
    ])
    def test_oracle_accurate_as_exponent_nears_minus_one(self, spec):
        # base-point exponent -0.99 (+ 0.3i for the second): with u^e subtracted
        # the first leg's integrand is about beta u^(e+n) near 0, bounded
        ref = incomplete_integral_2f1(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_oracle_overflow_is_an_accuracy_error(self):
        # (1 - u)^-300 leaves the float range where the middle leg passes u = 0.95,
        # while every vertex keeps the refusal distance, 0.96 at beta = 300; the
        # first vertex lies in the unit disk, where no far end is refused
        spec = IncompleteIntegralSpec(1.0, 300.0, 1, -0.5, "from_zero")
        with pytest.raises(AccuracyError):
            oracle_incomplete_integral(spec, Polyline([0.0, 0.95j, 0.95 + 2j, 0.95 - 2j, -0.5]))
        # the far end v1 = 1/z = 1e80 e^(-i pi/4): t^4 leaves the float range on
        # the leg out to |v1|, whose reach is only 18 at alpha = 0.1
        far = IncompleteIntegralSpec(0.1, 0.5, 4, 1e-80 * cmath.exp(0.25j * math.pi),
                                     "from_infinity")
        with pytest.raises(AccuracyError, match="passes the float range"):
            oracle_incomplete_integral(far)
        # the straight path to 0.999 ends inside that distance
        with pytest.raises(DomainNotSupported, match="within 0.962 "):
            oracle_incomplete_integral(spec._replace(z=0.999))

    @pytest.mark.parametrize("z", [1e-200, complex(1e-200, -0.0)])
    @pytest.mark.parametrize("evaluate", [incomplete_integral_2f1, oracle_incomplete_integral])
    def test_tiny_from_infinity_argument_is_refused(self, evaluate, z):
        # (1/z)^2 overflows, and 1/z is a far end out of the oracle's reach
        with pytest.raises(DomainNotSupported):
            evaluate(IncompleteIntegralSpec(0.5, 0.5, 2, z, "from_infinity"))

    @pytest.mark.parametrize("alpha, n", [(0.5, 2), (0.3, 1)])
    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_oracle_keeps_the_sign_of_a_zero_imaginary_part(self, alpha, n, imag):
        # z = -2 -0i lies on the cut with argument -pi; 1/z must get argument
        # +pi, which plain complex division loses
        spec = IncompleteIntegralSpec(alpha, 0.5, n, complex(-2.0, imag), "from_infinity")
        ref = incomplete_integral_2f1(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-9 * (1.0 + abs(ref))

    @pytest.mark.parametrize("alpha, z", [
        (1e-10, 1e200 + 1j), (0.5, 1e200 + 1j), (0.5, complex(-1e200, 0.0)),
        (0.5, complex(-1e200, -0.0)), (0.5, 2e307 - 1e307j)])
    def test_oracle_inverts_a_z_whose_square_overflows(self, alpha, z):
        # |z|^2 leaves the float range from |z| = 1.34e154 on, where forming
        # 1/z as conj(z)/|z|^2 raised a bare OverflowError.  The reference is
        # the 30-digit closed form; mpmath has no -0.0, and for real alpha and
        # beta the value at conj(z) is the conjugate
        spec = IncompleteIntegralSpec(alpha, 0.5, 2, z, "from_infinity")
        ref = _incomplete_integral_mp(spec._replace(z=complex(z.real, abs(z.imag))))
        if math.copysign(1.0, z.imag) < 0:
            ref = ref.conjugate()
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-12 * abs(ref)

    def test_closed_form_serves_a_far_from_infinity_z(self):
        # z^-2 formed as 1/z^2 gave nan from |z| = 1.34e154 on, and the 2F1
        # refused "(nan+nanj)"; (1/z)^2 underflows to an argument of 0 instead
        spec = IncompleteIntegralSpec(0.5, 0.5, 2, 1e200 + 1j, "from_infinity")
        ref = _incomplete_integral_mp(spec)
        assert abs(incomplete_integral_2f1(spec) - ref) <= 1e-13 * abs(ref)

    def test_closed_form_far_from_infinity_sweep(self):
        # |z| in [1e150, 1e300]: served to 1e-13, or refused for what it is.
        # z^(a - n b) multiplies the rounding of a - n b, eps (|a| + n |b|), by
        # |Log z| <= 691, which no method on these float parameters avoids
        rng = random.Random(20261020)
        served = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            beta = complex(rng.uniform(0.1, 1.5), rng.choice((0.0, rng.uniform(-0.3, 0.3))))
            alpha = n * beta - complex(rng.uniform(0.02, 1.0), rng.uniform(-0.2, 0.2))
            z = cmath.rect(10.0 ** rng.uniform(150.0, 300.0), rng.uniform(-math.pi, math.pi))
            spec = IncompleteIntegralSpec(alpha, beta, n, z, "from_infinity")
            try:
                got = incomplete_integral_2f1(spec)
            except AbeltauError as exc:
                assert "nan" not in str(exc), (spec, exc)
                continue
            ref = _incomplete_integral_mp(spec)
            rounding = sys.float_info.epsilon * abs(cmath.log(z)) * (abs(alpha) + n * abs(beta))
            assert abs(got - ref) <= (1e-13 + 2.0 * rounding) * abs(ref), (spec, got, ref)
            served += 1
        assert served >= 150, served

    def test_oracle_serves_a_far_end_right_or_refuses_it(self):
        # past |u| = 1 the integrand falls from its bulk near the unit circle to
        # v1; where that bulk was a narrow stretch of the tanh-sinh variable the
        # coarse levels stepped over it and agreed on the tail alone: the first
        # spec gave -1.2e-11+9.6e-11i for -5.2441+5.2441i
        rng = random.Random(20261021)
        specs = [IncompleteIntegralSpec(0.25, 0.5, 1, 8.78e117 + 4.79e117j, "from_zero")]
        for _ in range(150):
            n = rng.randint(1, 4)
            g, beta = rng.uniform(0.08, 1.8), rng.uniform(0.24, 1.56)
            turn = 2.0 * math.pi / n  # keep the path off the cut
            far = cmath.rect(10.0 ** rng.uniform(5.0, 160.0),
                             rng.choice((1, -1)) * rng.uniform(0.15, turn - 0.15))
            specs.append(IncompleteIntegralSpec(g, beta, n, far, "from_zero") if rng.random() < 0.5
                         else IncompleteIntegralSpec(n * beta - g, beta, n, 1.0 / far,
                                                     "from_infinity"))
        served = 0
        for spec in specs:
            try:
                got = oracle_incomplete_integral(spec)
            except AbeltauError:
                continue
            ref = _incomplete_integral_mp(spec)
            assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref)), (spec, got, ref)
            served += 1
        assert served >= 10, served

    @pytest.mark.parametrize("spec", [
        IncompleteIntegralSpec(1e-4, 0.5, 1, 0.5, "from_zero"),
        IncompleteIntegralSpec(1e-7, 0.5, 1, 0.5, "from_zero"),
        IncompleteIntegralSpec(0.5 - 1e-7, 0.5, 1, 2.0, "from_infinity"),
    ])
    def test_oracle_accurate_as_the_real_part_of_e_plus_1_nears_0(self, spec):
        # g = Re(e + 1) was formed as 1 + Re(e), which cancels it: at alpha = 1e-4
        # the value was 1.1e-9 off, at 1e-7 5.3e-3 (the from-infinity row 5.6e-3).
        # Now the error is about tol, or eps |value| where that is larger
        ref = _incomplete_integral_mp(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-10 + 1e-15 * abs(ref)

    @pytest.mark.parametrize("spec", [
        IncompleteIntegralSpec(4.83e-283 - 0.671j, 0.698, 3, 1.21e-90, "from_zero"),
        *(IncompleteIntegralSpec(alpha, 0.5, 1, 0.5, "from_zero")
          for alpha in (1e-8, 1e-9, 1e-10, 3.9e-42)),
    ])
    def test_oracle_serves_a_base_point_exponent_near_minus_one(self, monkeypatch, spec):
        # a first leg mapped by u = v1 w^(1/Re(alpha)) turned w^(n/Re(alpha)) into
        # a step at w = 1: the first spec took 210 439 samples and then raised,
        # and alpha = 1e-8 was refused while 1e-9 was served.  At 3.9e-42,
        # 1 + Re(e) rounds to 0, so e + 1 is taken from alpha itself
        counts = _count_samples(monkeypatch, hypergeom)
        ref = _incomplete_integral_mp(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-12 * (1.0 + abs(ref))
        assert counts[1] < 100, counts

    @pytest.mark.parametrize("evaluate", [incomplete_integral_2f1, oracle_incomplete_integral])
    def test_a_value_past_the_float_range_is_an_accuracy_error(self, evaluate):
        # 1/alpha, and with it the value, passes the float range at alpha = 1e-310
        with pytest.raises(AccuracyError, match="non-finite"):
            evaluate(IncompleteIntegralSpec(1e-310, 0.5, 1, 0.5, "from_zero"))

    @pytest.mark.parametrize("evaluate", [incomplete_integral_2f1, oracle_incomplete_integral])
    def test_a_branch_factor_past_the_float_range_is_an_accuracy_error(self, evaluate):
        # e^(i pi beta) overflows from Im(beta) < -226 on: a bare OverflowError
        spec = IncompleteIntegralSpec(0.5, 0.5 - 300j, 1, 0.5, "from_zero")
        with pytest.raises(AccuracyError, match="e\\^\\(i pi beta\\) overflows"):
            evaluate(spec)

    def test_a_phase_past_the_float_range_is_not_a_zero_base(self):
        # (1 - v)^(-beta) = (1 - v)^(1/2 - 1e308 i) near v = 0.95: complex **
        # reports its infinite phase with the ZeroDivisionError of a zero
        # base, whose principal power would be 0
        spec = IncompleteIntegralSpec(-1 + 1e308j, -0.5 + 1e308j, 1, 1 / 0.95, "from_infinity")
        with pytest.raises(AccuracyError, match="phase"):
            oracle_incomplete_integral(spec)

    def test_a_closed_form_past_the_float_range_is_an_accuracy_error(self):
        # e^(i pi beta) is 1e253 here, and the product with the 2F1 came out inf - inf i
        spec = IncompleteIntegralSpec(0.5312203712896473,
                                      -3.2186981497647005e-244 - 185.74796025095668j, 3,
                                      -1.5212943081885075, "from_zero")
        with pytest.raises(AccuracyError, match="non-finite"):
            incomplete_integral_2f1(spec)

    @pytest.mark.parametrize("call, error", [
        (lambda z: f21(0.5, 0.5, 1.5, z), DomainNotSupported),
        (lambda z: weier_sigma(z, (4.0, 0.0)), DomainNotSupported),
        (lambda z: weier_zeta(z, (4.0, 0.0)), DomainNotSupported),
        (lambda z: integral_third_kind(2.0, ThirdKindParam(z), (4.0, 0.0)), DomainNotSupported),
        (lambda z: incomplete_integral_2f1(IncompleteIntegralSpec(0.5, 0.5, 1, z, "from_zero")),
         DomainNotSupported),
        (lambda z: oracle_incomplete_integral(IncompleteIntegralSpec(0.5, 0.5, 1, z, "from_zero")),
         DomainNotSupported),
        (lambda z: contour_quadrature(lambda u: u, [0.0, z]), AccuracyError),
        (lambda z: contour_quadrature(lambda u: 1.0, [0.0, z]), AccuracyError),
    ], ids=["gauss_2f1", "weier_sigma", "weier_zeta", "integral_third_kind",
            "incomplete_integral_2f1", "oracle_incomplete_integral", "quadrature of u",
            "quadrature of 1"])
    def test_a_modulus_past_the_float_range_is_refused(self, call, error):
        # both parts finite, the modulus past the float range: abs(z) raised a
        # bare OverflowError
        for z in (1.5e308 + 1.5e308j, -1.5e308 + 1.5e308j, 1.3e308 - 1.7e308j,
                  -1.7e308 - 1.3e308j):
            with pytest.raises(error):
                call(z)

    def test_extreme_specs_give_a_finite_value_or_an_abeltau_error(self, monkeypatch):
        # parts from 1e-320 to 1e308, zeros, and n up to 40, so that powers,
        # phases and 1/z leave the float range: before the oracle took g from
        # e + 1 itself and every such case was caught, these 500 specs gave 129
        # other exceptions and 2 non-finite values.  Where Re(e + 1) is tiny
        # the quadrature runs to its budget; a smaller one only gives up sooner.
        # One z in ten has both parts near 1e308, a modulus past the float range
        monkeypatch.setattr(numerics, "_MAX_QUAD_EVALS", 20_000)
        rng = random.Random(20261020)

        def part():
            r = rng.random()
            if r < 0.15:
                return 0.0
            size = rng.uniform(0.0, 3.0) if r < 0.5 else 10.0 ** rng.uniform(-320.0, 308.0)
            return rng.choice((-1.0, 1.0)) * size

        def number():
            return complex(part(), part() if rng.random() < 0.6 else 0.0)

        def endpoint():
            if rng.random() < 0.1:
                return complex(*(rng.choice((-1.0, 1.0)) * rng.uniform(1e308, 1.7e308)
                                 for _ in range(2)))
            return number()

        served = 0
        while served < 500:
            try:
                spec = IncompleteIntegralSpec(
                    number(), number(), rng.choice((1, 2, 3, 4, rng.randint(5, 40))),
                    endpoint(), rng.choice(("from_zero", "from_infinity")))
            except DomainError:
                continue
            served += 1
            for evaluate in (incomplete_integral_2f1, oracle_incomplete_integral):
                try:
                    value = evaluate(spec)
                except AbeltauError:
                    continue
                assert cmath.isfinite(value), (evaluate.__name__, spec)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), from_zero=st.booleans(), beta=st.floats(0.1, 0.9),
           radius=st.floats(0.3, 0.9), angle=st.floats(-math.pi, math.pi),
           e=st.floats(-0.8, -0.1, exclude_min=True, exclude_max=True))
    def test_oracle_matches_closed_form_on_the_benchmark_region(
            self, n, from_zero, beta, radius, angle, e):
        # base-point exponent e, endpoint w in the integration variable
        w = radius * cmath.exp(1j * angle)
        if from_zero:
            spec = IncompleteIntegralSpec(1.0 + e, beta, n, w, "from_zero")
        else:
            spec = IncompleteIntegralSpec(n * beta - 1.0 - e, beta, n, 1.0 / w, "from_infinity")
        ref = incomplete_integral_2f1(spec)
        assert abs(oracle_incomplete_integral(spec) - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_integrands_match_the_principal_power_products_at_complex_parameters(
            self, monkeypatch):
        # each integrand multiplies a few Python powers; the reference takes
        # every principal power as written in the docstring.  Complex alpha
        # and beta give t^e and (1 - rho^n t^n)^(-beta) complex exponents.
        # Below t = 1 the first leg subtracts 1 from the second power, so its
        # rounding is relative to the terms before that cancellation
        captured = []
        monkeypatch.setattr(hypergeom, "contour_quadrature",
                            lambda f, path, tol: captured.append(f) or 0j)
        rng = random.Random(20240611)
        worst = 0.0
        for _ in range(200):
            n, e = rng.randint(1, 4), rng.uniform(-0.8, -0.1) + 1j * rng.uniform(-1.0, 1.0)
            beta = complex(rng.uniform(0.1, 0.9), rng.uniform(-1.0, 1.0))
            z = rng.uniform(0.3, 0.9) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            if rng.random() < 0.5:
                spec = IncompleteIntegralSpec(1.0 + e, beta, n, z, "from_zero")
            else:
                spec = IncompleteIntegralSpec(n * beta - 1.0 - e, beta, n, 1.0 / z, "from_infinity")
                z = 1.0 / spec.z
            v1 = 0.5 * z * cmath.exp(0.3j)  # the bend of a two-segment path
            captured.clear()
            oracle_incomplete_integral(spec, Polyline([0.0, v1, z]))
            radial, integrand = captured
            # e + 1 as the oracle forms it, so that only the products differ
            lead = spec.alpha if spec.base == "from_zero" else n * spec.beta - spec.alpha
            for _ in range(5):
                t = rng.choice((rng.random(), 10.0 ** rng.uniform(-300.0, 0.0)))
                p = principal_power(t, lead - 1.0)
                d = principal_power(1.0 - v1**n * t**n, -spec.beta)
                worst = max(worst, abs(radial(t) - p * (d - 1.0)) / (abs(p) * (abs(d) + 1.0)))
                t = 1.0 + rng.random()  # past t = 1, as on a far leg, nothing is subtracted
                ref = principal_power(t, lead - 1.0) * principal_power(1.0 - v1**n * t**n,
                                                                        -spec.beta)
                worst = max(worst, abs(radial(t) - ref) / abs(ref))
                u = v1 + rng.random() * (z - v1)
                ref = principal_power(u, lead - 1.0) * principal_power(1.0 - u**n, -spec.beta)
                worst = max(worst, abs(integrand(u) - ref) / abs(ref))
        assert worst <= 1e-15, worst

    def test_node_at_a_zero_base_is_a_domain_error(self):
        # u is exactly 0 at the midpoint of the second leg: the principal power
        # of 0 to a negative exponent, not a bare ValueError from the logarithm
        spec = IncompleteIntegralSpec(0.5, 0.5, 1, -1j, "from_zero")
        with pytest.raises(DomainError, match="zero base"):
            oracle_incomplete_integral(spec, Polyline([0.0, 1j, -1j]))

    @pytest.mark.parametrize("spec, path", [
        # the straight path from 0 through the branch point u = 1 to u = 2
        (IncompleteIntegralSpec(1.0, 0.5, 1, 2.0, "from_zero"), None),
        # from infinity, v = 1/u runs from 0 through v = 1 to 1e100 and to 2
        (IncompleteIntegralSpec(0.5, 0.5, 2, 1e-100, "from_infinity"), None),
        (IncompleteIntegralSpec(0.5, 0.5, 2, 0.5, "from_infinity"), None),
        # along the ray e^(2 pi i/3) of the n = 3 cut, to within rounding
        (IncompleteIntegralSpec(1.0, 0.5, 3, cmath.rect(2.0, 2.0 * math.pi / 3.0), "from_zero"),
         None),
        # a second leg along the cut, for n = 1 and 2
        (IncompleteIntegralSpec(1.0, 0.5, 1, 1.5, "from_zero"), Polyline([0.0, 0.5, 1.5])),
        (IncompleteIntegralSpec(1.0, 0.5, 2, 1.5, "from_zero"), Polyline([0.0, 0.5, 1.5])),
        # across the ray (-inf, -1] of n = 2 at -2, and back inside the unit disk
        (IncompleteIntegralSpec(1.0, 0.5, 2, 0.5j, "from_zero"),
         Polyline([0.0, -2.0 + 1j, -2.0 - 1j, 0.5j])),
        # ending at the branch point u = 1, where the value was 1.6e-8 off
        (IncompleteIntegralSpec(0.5, 0.5, 2, 1.0, "from_zero"), None),
        (IncompleteIntegralSpec(0.5, 0.5, 2, 1.0, "from_zero"), Polyline([0.0, 1j, 1.0])),
    ])
    def test_a_path_that_meets_the_cut_is_refused(self, spec, path):
        # the principal integrand jumps there: the straight path at 1e-100
        # returned -4.5e-28+7.3e-12i, while the integral has modulus 3.7
        with pytest.raises(DomainNotSupported, match="meets the cut"):
            oracle_incomplete_integral(spec, path)

    @pytest.mark.parametrize("base", ["from_zero", "from_infinity"])
    @pytest.mark.parametrize("far_end, served", [(1.0 - 1e-12, False), (0.9, True)])
    def test_a_path_ending_next_to_a_branch_point(self, base, far_end, served):
        # at 1 - 1e-12 the value was 1.0e-10 off at tol 1e-10 and nothing was
        # raised.  Either base integrates v^(-1/2) (1 - v^2)^(-1/2) from 0 to
        # the far end, 2 sqrt(v) 2F1(1/2, 1/4; 5/4 | v^2), here at 30 digits.
        z = far_end if base == "from_zero" else 1.0 / far_end
        spec = IncompleteIntegralSpec(0.5, 0.5, 2, z, base)
        with mpmath.workdps(30):
            v = mpmath.mpf(far_end)
            ref = complex((1j if base == "from_zero" else -1) * 2 * mpmath.sqrt(v)
                          * mpmath.hyp2f1(0.5, 0.25, 1.25, v**2))
        try:
            got = oracle_incomplete_integral(spec, tol=1e-10)
        except AbeltauError:
            assert not served
            return
        assert abs(got - ref) <= 1e-10

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.95, 1.0, 1.5])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_the_refusal_distance_follows_tol_and_beta(self, beta, tol):
        # the error at distance d from a branch point is about eps d^(-beta):
        # at the fixed distance 1e-5, beta = 0.9 at tol 1e-12 was 3.9e-12 off,
        # and (0.9, 1 - 2e-5, from zero) 1.5e-12
        cases = [IncompleteIntegralSpec(0.5, 0.9, 1, 1 - 2e-5, "from_zero")] if beta == 0.9 else []
        for n in range(1, 5):
            branch_point = cmath.exp(-2j * math.pi / n)
            for d in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                v = branch_point * (1.0 - d)
                cases.append(IncompleteIntegralSpec(0.5, beta, n, v, "from_zero"))
                cases.append(IncompleteIntegralSpec(n * beta - 0.5, beta, n, 1.0 / v,
                                                    "from_infinity"))
        served = 0
        for spec in cases:
            try:
                got = oracle_incomplete_integral(spec, tol=tol)
            except DomainNotSupported:
                continue
            assert abs(got - _incomplete_integral_mp(spec)) <= tol, spec
            served += 1
        assert served >= 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_refusal_distance_is_a_disk_about_each_branch_point(self, n):
        # the branch points lie on |w| = 1: a vertex 0.9 gap from one is
        # refused from every side, and one with ||v| - 1| = 1.1 gap is served
        beta, tol = 1.5, 1e-10
        gap = hypergeom._branch_gap(beta, tol)
        assert gap > 10.0 * hypergeom._BRANCH_GAP
        for k in range(n):
            w = cmath.exp(2j * math.pi * k / n)
            for side in (1.0, -1.0, 1j, -1j):
                assert hypergeom._near_branch_point((0j, w * (1.0 + 0.9 * gap * side)), n, gap)
            for size in (1.0 - 1.1 * gap, 1.0 + 1.1 * gap):
                assert not hypergeom._near_branch_point((0j, size * w), n, gap)
            spec = IncompleteIntegralSpec(0.5, beta, n, (1.0 - 0.9 * gap) * w, "from_zero")
            with pytest.raises(DomainNotSupported, match="lies within"):
                oracle_incomplete_integral(spec, tol=tol)
            spec = spec._replace(z=(1.0 - 1.1 * gap) * w)
            assert abs(oracle_incomplete_integral(spec, tol=tol)
                       - _incomplete_integral_mp(spec)) <= tol, spec

    def test_a_far_end_just_off_a_branch_direction(self):
        # |v1| > 1 within 1e-4/n of the direction of a branch point: the
        # straight path passes it at about that distance, and the old single
        # first leg gave up on every one of these at tol 1e-10.  Split at
        # rho = v1/|v1|, the peak sits at the legs' shared end, where tanh-sinh
        # resolves it, and rho keeps the refusal distance like any vertex:
        # without that, 144 of these were served up to 66 tol off
        tol, served = 1e-10, 0
        for n in range(1, 5):
            for k, offset in enumerate((1e-4, -1e-4, 3e-5, -3e-5, 1e-5, -1e-5)):
                for size in (1.5, 4.0, 30.0):
                    for beta in (0.5, 0.9, 1.5):
                        v = cmath.rect(size, 2.0 * math.pi * (k % n) / n + offset / n)
                        for spec in (IncompleteIntegralSpec(0.5, beta, n, v, "from_zero"),
                                     IncompleteIntegralSpec(n * beta - 0.5, beta, n, 1.0 / v,
                                                            "from_infinity")):
                            try:
                                got = oracle_incomplete_integral(spec, tol=tol)
                            except DomainNotSupported as exc:
                                assert "lies within" in str(exc), spec
                                continue
                            assert abs(got - _incomplete_integral_mp(spec)) <= tol, spec
                            served += 1
        assert served >= 120, served

    def test_a_path_off_the_cut_is_accepted(self):
        # out past u = 1 above the cut and back to 0.5: no branch point lies
        # between this path and the straight one, so the two integrals agree
        spec = IncompleteIntegralSpec(0.75, 0.5, 2, 0.5, "from_zero")
        bent = oracle_incomplete_integral(spec, Polyline([0.0, 1.2 + 0.5j, 0.5]))
        assert abs(bent - incomplete_integral_2f1(spec)) <= 1e-9

    def test_oracle_sample_count_on_eq12_rows(self, monkeypatch):
        # a cost guard: these rows take 56-109 samples each from the base point
        counts = _count_samples(monkeypatch, hypergeom)
        for spec in REGISTRY["eq12-oracle"].samples:
            counts[1] = 0
            oracle_incomplete_integral(spec, tol=1e-10)
            assert counts[1] < 300, spec

    def test_verify_all_takes_the_same_quadrature_nodes(self, monkeypatch):
        # the registry's quadrature calls, counted: a cheaper node must not
        # change which nodes the rule takes or where it stops.  Agreement of
        # two levels alone took 1564 samples, the exit on a predicted error
        # 1305 with a first leg mapped by u = v1 w^(1/g); with u^e subtracted
        # it takes 1096, and U-quadrature's rows for m = 1, 2, 3 add 3 calls
        # and 126 samples
        counts = _count_samples(monkeypatch, hypergeom, registry)
        for name in REGISTRY:
            run_identity(name)
        assert counts == [26, 1222]
