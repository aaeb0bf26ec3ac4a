"""Taylor jets: f', f'' and f''' of the Hauptmoduln, the tau-representations
and their kernels against mpmath's numerical derivatives at 40 digits."""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeltau.errors import AccuracyError, DomainError
from abeltau.hypergeom import _f21_half
from abeltau.modular import (
    dedekind_eta,
    hauptmodul_equianharmonic,
    hauptmodul_lemniscatic,
    theta4,
)
from abeltau.numerics import _Jet, principal_power
from abeltau.uniform import (
    u_equianharmonic_root,
    u_equianharmonic_rootfree,
    u_hyperelliptic,
    u_lemniscatic,
)

REL = 1e-11


def _theta2(t):  # the package's quarter power is exp(pi i tau/4), not q^(1/4)
    q = mp.expjpi(t)
    return mp.jtheta(2, 0, q) / q**0.25 * mp.expjpi(t / 4)


def _theta3(t):
    return mp.jtheta(3, 0, mp.expjpi(t))


def _z_equi(t):
    return 9 * mp.eta(9 * t) ** 3 / mp.eta(t) ** 3 + 1


def _u_lemn(t):
    r = _theta3(t) / _theta2(t)
    return r * mp.hyp2f1(0.5, 0.25, 1.25, r**4)


def _u_equi_root(t):
    z = _z_equi(t)
    return z ** mp.mpf(-0.5) * mp.hyp2f1(0.5, mp.mpf(1) / 6, mp.mpf(7) / 6, z**-3)


def _u_equi_rootfree(t):
    u0 = 1j * mp.beta(mp.mpf(1) / 6, mp.mpf(1) / 3) / 6
    z = _z_equi(t)
    return u0 + 0.5j * z * mp.hyp2f1(0.5, mp.mpf(1) / 3, mp.mpf(4) / 3, z**3)


def _u_hyper(m):
    def u(t):
        t2, t3 = _theta2(t), _theta3(t)
        b = mp.mpf(m) / 4 + mp.mpf(1) / 8
        return (2 * mp.sqrt(2) * 1j / (2 * m + 1)) * t2 ** (m + 1) / (t3**m * _theta2(t / 2)) \
            * mp.hyp2f1(0.5, b, b + 1, (t2 / t3) ** 4)
    return u


# The whole rectangles the tau-grid benchmark draws its sweeps from: centre
# range plus or minus half-width (benchmarks/workloads.py, _GRID_RECTS).
RECT_CHI = (-0.1, 0.1, 1.1, 1.3)
RECT_Z = (-0.05, 0.05, 0.5, 0.6)
RECT_U_LEMN = (0.95, 1.05, 0.75, 0.9)
RECT_U_ROOT = (-0.02, 0.02, 0.63, 0.77)
RECT_U_ROOTFREE = (0.45, 0.55, 0.6, 0.8)
RECT_U_HYPER = (-0.1, 0.1, 1.2, 1.8)

CASES = {
    "chi": (hauptmodul_lemniscatic, lambda t: (_theta2(t) / _theta3(t)) ** 2, RECT_CHI),
    "theta4": (theta4, lambda t: mp.jtheta(4, 0, mp.expjpi(t)), RECT_CHI),
    "eta": (dedekind_eta, mp.eta, RECT_Z),
    "z-equi": (hauptmodul_equianharmonic, _z_equi, RECT_Z),
    "u-lemn": (u_lemniscatic, _u_lemn, RECT_U_LEMN),
    "u-equi-root": (u_equianharmonic_root, _u_equi_root, RECT_U_ROOT),
    "u-equi-rootfree": (u_equianharmonic_rootfree, _u_equi_rootfree, RECT_U_ROOTFREE),
    **{f"u-hyper-{m}": ((lambda m: lambda t: u_hyperelliptic(m, t))(m), _u_hyper(m), RECT_U_HYPER)
       for m in range(4)},
}


def _assert_derivatives_match(jet, expected, x, rel=REL):
    """Each derivative within rel of its expected value, relative to its own
    size or, where it passes through zero (the third of u_hyperelliptic(0, .)
    does near 1.46i), to 1e-3 of the largest one."""
    floor = 1e-3 * max(map(abs, expected))
    for order, (got, want) in enumerate(zip(jet.derivatives(), expected)):
        assert abs(got - want) <= rel * max(abs(want), floor), (x, order, got, want)


def _assert_jet_matches(jet, reference, x):
    """_assert_derivatives_match against mpmath's numerical derivatives of
    reference at 40 digits."""
    with mp.workdps(40):
        expected = [complex(d) for d in mp.diffs(reference, mp.mpc(x), 3)]
    _assert_derivatives_match(jet, expected, x)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=6, deadline=None)
@given(fr=st.floats(0.0, 1.0), fi=st.floats(0.0, 1.0))
def test_tau_jets_match_mpmath(name, fr, fi):
    f, reference, (re0, re1, im0, im1) = CASES[name]
    tau = complex(re0 + (re1 - re0) * fr, im0 + (im1 - im0) * fi)
    _assert_jet_matches(f(_Jet(tau, 1.0)), reference, tau)


# b real in (0, 1], the only b whose jets the route sums; z = 4w(1 - w) over
# the disk |w| <= 0.449 that the route serves, less a margin for the rounding
# of w to z and back
@settings(max_examples=400, deadline=None)
@given(b=st.floats(0.0, 1.0, exclude_min=True),
       z=st.builds(cmath.rect, st.floats(0.0, 0.449), st.floats(-math.pi, math.pi))
       .map(lambda w: 4.0 * w * (1.0 - w)))
# near the edge of |z| <= 0.95 with Re z < 0, where a series in z loses
# about 3 digits in F'''
@example(b=1.0 / 6.0, z=-0.931 - 0.085j)
# 0.01 from the branch point z = 1, and near the far end z = -2.61
@example(b=0.25, z=0.99)
@example(b=1.0 / 6.0, z=-2.6 + 0.1j)
# a subnormal b: the terms must not stall at the smallest subnormal and run
# the series out of terms
@example(b=2.2e-313, z=0.75)
def test_2f1_jets_on_the_quadratic_route(b, z):
    # a = 1/2, c = b + 1, the only 2F1 whose jets are summed; the reference takes
    # F^(k) = (a)_k (b)_k / (c)_k 2F1(a+k, b+k; c+k | z) from mpmath at 40
    # digits, exact and much faster than mpmath's numerical diffs
    a, c = 0.5, b + 1.0
    with mp.workdps(40):
        expected = [complex(mp.rf(a, k) * mp.rf(b, k) / mp.rf(c, k)
                            * mp.hyp2f1(a + k, b + k, c + k, z)) for k in range(4)]
    _assert_derivatives_match(_f21_half(b, _Jet(z, 1.0)), expected, z, rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(x=st.floats(-3.0, -0.2), y=st.floats(1e-6, 0.5), below=st.booleans(),
       a=st.sampled_from((-0.5, 1.0 / 3.0, 0.25 - 0.5j)))
def test_principal_power_jets_across_the_negative_axis(x, y, below, a):
    # each side of the cut carries the derivatives of its own branch
    z = complex(x, -y if below else y)
    _assert_jet_matches(principal_power(_Jet(z, 1.0), a),
                        lambda s: s ** mp.mpc(a), z)


def test_jet_arithmetic_is_exact_on_polynomials():
    t = _Jet(2.0 + 1.0j, 1.0)
    p = 3.0 * t**3 - t * t + 1.0 / t - 2.0
    z = 2.0 + 1.0j
    want = (3 * z**3 - z * z + 1 / z - 2, 9 * z * z - 2 * z - z**-2,
            18 * z - 2 + 2 * z**-3, 18 - 6 * z**-4)
    for got, w in zip(p.derivatives(), want):
        assert abs(got - w) <= 1e-14 * abs(w)


@pytest.mark.parametrize("n", range(-3, 6))
@pytest.mark.parametrize("c", [(0.7 - 1.3j, 1.0, 0.5j, -2.0), (0.0, 1.5 - 0.5j, 0.25, 1j)])
def test_integer_power_is_repeated_multiplication(n, c):
    # at c0 = 0 the derivatives of x^n past the n-th are 0 for n = 0..3, not
    # 0 to a negative power; a negative power of a jet at 0 divides by 0
    x = _Jet(*c)
    if c[0] == 0 and n < 0:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    want = _Jet(1.0)
    for _ in range(abs(n)):
        want = want * x
    if n < 0:
        want = 1.0 / want
    got = (x**n).c
    for g, w in zip(got, want.c):
        assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (n, got, want.c)


def test_principal_power_jet_refuses_zero():
    with pytest.raises(DomainError):
        principal_power(_Jet(0.0, 1.0), 0.5)


def test_a_jet_has_no_value_conversion():
    # complex() and abs() would drop the derivatives
    for drop in (complex, abs):
        with pytest.raises(TypeError):
            drop(_Jet(1.0 + 1.0j, 1.0))


def test_non_finite_jet_is_an_accuracy_error():
    with pytest.raises(AccuracyError):
        (_Jet(1.0, 1.0) * complex(math.nan, 0.0)).derivatives()
