"""Theta-constant, eta, and Hauptmodul tests.

Expected decimals were frozen from the stated oracles (brute-force q-series
with 10x tighter truncation, the raw eta product, closed Gamma forms); the
oracles themselves are re-implemented below, independent of the package's
term tables and term counts.
"""

import bisect
import cmath
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeltau import modular
from abeltau.errors import AbeltauError, AccuracyError, DomainError
from abeltau.modular import (
    dedekind_eta,
    hauptmodul_equianharmonic,
    hauptmodul_hyperelliptic,
    hauptmodul_lemniscatic,
    sqrt_theta_ratio,
    theta2,
    theta3,
    theta4,
)
from abeltau.numerics import _Jet
from abeltau.uniform import u_hyperelliptic

TAU_GRID = (0.3j, 0.2 + 0.5j, 1j, -0.4 + 1.7j, 1 + 2j, 0.05j)
TABLES = ("_THETA2", "_THETA3", "_THETA4", "_ETA")


# brute-force oracles: fixed wide summation range, no term count
def theta_oracle(kind, tau, kmax=400):
    q_log = 1j * math.pi * tau
    if kind == 2:
        return cmath.exp(q_log / 4.0) * sum(
            2.0 * cmath.exp((k * k + k) * q_log) for k in range(kmax)
        )
    acc = 1.0 + 0.0j
    for k in range(1, kmax):
        term = 2.0 * cmath.exp(k * k * q_log)
        acc += -term if (kind == 4 and k % 2) else term
    return acc


def eta_product_oracle(tau, kmax=4000):
    x = cmath.exp(2j * math.pi * tau)
    prod = 1.0 + 0.0j
    for k in range(1, kmax):
        t = x**k
        prod *= 1.0 - t
        if abs(t) < 1e-20:
            break
    return cmath.exp(1j * math.pi * tau / 12.0) * prod


class TestThetaValues:
    def test_theta3_at_i_closed_form(self):
        expected = math.pi**0.25 / math.gamma(0.75)
        assert abs(theta3(1j) - expected) < 1e-14
        assert abs(theta3(1j) - 1.0864348112133080) < 1e-14

    def test_theta2_at_i_frozen(self):
        assert abs(theta2(1j) - 0.9135791381561168) < 1e-14

    def test_theta2_equals_theta4_at_i(self):
        assert abs(theta2(1j) - theta4(1j)) < 1e-13 * abs(theta4(1j))

    def test_against_brute_force_oracle(self):
        for tau in (0.3j, 0.2 + 0.5j, 1j, -0.4 + 1.7j, 0.05j):
            for kind, fn in ((2, theta2), (3, theta3), (4, theta4)):
                v = fn(tau)
                o = theta_oracle(kind, tau)
                assert abs(v - o) <= 1e-13 * max(1.0, abs(o)), (kind, tau)

    def test_theta2_shift_phase(self):
        tau = 0.3 + 1.1j
        got = theta2(tau + 2.0)
        expected = cmath.exp(0.5j * math.pi) * theta2(tau)
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_theta2_vanishes_at_wide_tau(self):
        tau = 40j
        v = theta2(tau)
        assert abs(v) < 1e-13
        assert abs(v / (2.0 * cmath.exp(0.25j * math.pi * tau)) - 1.0) < 1e-12

    def test_theta4_tends_to_one(self):
        assert abs(theta4(40j) - 1.0) < 1e-14

    def test_periodicity_mod_two(self):
        # Im >= 0.3: the tau + 2 phase reduction alone costs ~1e-12 below that
        for tau in (0.3j, 0.2 + 0.5j, 1j, -0.4 + 1.7j, 1 + 2j):
            assert abs(theta3(tau + 2.0) - theta3(tau)) < 1e-12 * abs(theta3(tau))
            assert abs(theta4(tau + 2.0) - theta4(tau)) < 1e-12 * abs(theta4(tau))

    def test_jacobi_quartic_identity(self):
        for tau in (0.3j, 0.2 + 0.5j, 1j, -0.4 + 1.7j, 1 + 2j):
            lhs = theta2(tau) ** 4 + theta4(tau) ** 4 - theta3(tau) ** 4
            assert abs(lhs) < 1e-12 * abs(theta3(tau) ** 4)


class TestDedekindEta:
    def test_value_at_i_closed_form(self):
        expected = math.gamma(0.25) / (2.0 * math.pi**0.75)
        assert abs(dedekind_eta(1j) - expected) < 1e-14
        assert abs(dedekind_eta(1j) - 0.7682254223260567) < 1e-14

    def test_value_at_2i_frozen(self):
        # product oracle value; closed form Gamma(1/4) / (2^(11/8) pi^(3/4))
        expected = math.gamma(0.25) / (2.0 ** (11.0 / 8.0) * math.pi**0.75)
        assert abs(dedekind_eta(2j) - 0.5923827813324159) < 1e-14
        assert abs(dedekind_eta(2j) - expected) < 1e-14

    def test_against_product_oracle(self):
        for tau in TAU_GRID:
            v = dedekind_eta(tau)
            o = eta_product_oracle(tau)
            assert abs(v - o) <= 1e-13 * abs(o), tau

    def test_shift_by_one(self):
        for tau in TAU_GRID:
            got = dedekind_eta(tau + 1.0)
            expected = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(tau)
            assert abs(got - expected) < 1e-12 * abs(expected)


def _mp_references(tau):
    """theta2, theta3, theta4 and eta at tau from mpmath's jtheta and its
    q-Pochhammer symbol; theta2's quarter power is exp(pi i tau/4)."""
    t = mp.mpc(tau)
    q = mp.expjpi(t)
    return {theta2: mp.jtheta(2, 0, q) / q**0.25 * mp.expjpi(t / 4),
            theta3: mp.jtheta(3, 0, q), theta4: mp.jtheta(4, 0, q),
            dedekind_eta: mp.expjpi(t / 12) * mp.qp(q**2)}


@settings(max_examples=150, deadline=None)
@given(re=st.floats(-1.0, 1.0), im=st.floats(0.2, 3.0))
def test_theta_and_eta_against_mpmath(re, im):
    tau = complex(re, im)
    with mp.workdps(40):
        refs = {fn: complex(v) for fn, v in _mp_references(tau).items()}
    for fn, ref in refs.items():
        assert abs(fn(tau) - ref) <= 1e-13 * abs(ref), fn.__name__


def _mp_theta(n, t):
    """theta_n and d theta_n/d tau at the mpc t: jtheta's second derivative
    in z at z = 0 by the heat equation, d/d tau = -(i pi/4) d^2/dz^2; theta2
    takes exp(pi i tau/4) as its quarter power."""
    q = mp.expjpi(t)
    c = mp.expjpi(t / 4) / q**0.25 if n == 2 else 1
    return c * mp.jtheta(n, 0, q), c * (-0.25j * mp.pi) * mp.jtheta(n, 0, q, 2)


def _mp_eta(t):
    """eta and d eta/d tau at the mpc t: eta'/eta is a third of the sum of the
    theta_n'/theta_n, from 2 eta^3 = theta2 theta3 theta4."""
    v = mp.expjpi(t / 12) * mp.qp(mp.expjpi(2 * t))
    return v, v * sum(d / f for f, d in (_mp_theta(n, t) for n in (2, 3, 4))) / 3


CUSP_FUNCTIONS = (theta2, theta3, theta4, dedekind_eta, hauptmodul_lemniscatic,
                  hauptmodul_equianharmonic, hauptmodul_hyperelliptic, sqrt_theta_ratio)


def _mp_cusp_references(tau):
    """{fn: (f, f', size)} at tau for each of CUSP_FUNCTIONS, to 40 digits: the
    working precision adds the 1/Im(tau) digits that the q-series lose to
    cancellation near the cusps (theta2(tau/2) loses 0.68/Im(tau)).  size
    scales an error in f: |f|, or for the equianharmonic z = Q + 1 the sizes
    of its summands, |Q| + 1."""
    with mp.workdps(40 + int(1.0 / tau.imag)):
        t = mp.mpc(tau)
        (t2, d2), (t3, d3), (t4, d4) = (_mp_theta(n, t) for n in (2, 3, 4))
        (e1, f1), (e9, f9) = _mp_eta(t), _mp_eta(9 * t)
        log_r = d2 / t2 - d3 / t3  # r = theta2/theta3
        r = t2 / t3
        s = mp.sqrt(2) * t2 / _mp_theta(2, t / 2)[0]
        quotient = 9 * (e9 / e1) ** 3
        refs = {theta2: (t2, d2), theta3: (t3, d3), theta4: (t4, d4), dedekind_eta: (e1, f1),
                hauptmodul_lemniscatic: (r**2, 2 * r**2 * log_r),
                hauptmodul_equianharmonic: (quotient + 1, 3 * quotient * (9 * f9 / e9 - f1 / e1)),
                hauptmodul_hyperelliptic: (r, r * log_r), sqrt_theta_ratio: (s, s * log_r / 2)}
        out = {fn: (complex(v), complex(d), float(abs(v))) for fn, (v, d) in refs.items()}
        z, dz, _ = out[hauptmodul_equianharmonic]
        out[hauptmodul_equianharmonic] = (z, dz, float(abs(quotient)) + 1.0)
    return out


@settings(max_examples=120, deadline=None)
@given(re=st.floats(-1.0, 1.0), im=st.floats(modular.MIN_IM_TAU, 3.0))
@example(re=1.0, im=0.0101)  # theta3 was 9e17 relative off
@example(re=1.0, im=0.02)
@example(re=-1.0, im=0.05)
@example(re=0.5, im=0.01)  # sqrt_theta_ratio takes theta2 at 0.25 + 0.005i
def test_values_and_slopes_against_mpmath_down_to_the_cusps(re, im):
    # a value within 1e-12 of its size, a jet's first derivative within 1e-11
    # of |f'| + size, or an AbeltauError: 3.5x and 2.7x the worst, 2.9e-13
    # (sqrt_theta_ratio) and 3.7e-12 (z'), of a seeded sweep of 4 068 tau:
    # 4 000 with Im(tau) log-uniform on [1e-2, 3], the cusp band and these
    # examples.  The errors follow the conditioning of each function at tau
    # near the cusps, where the rounding of -1/tau is amplified.
    tau = complex(re, im)
    for fn, (value, slope, size) in _mp_cusp_references(tau).items():
        try:
            assert abs(fn(tau) - value) <= 1e-12 * size, (fn.__name__, tau)
        except AbeltauError:
            pass
        try:
            d0, d1 = fn(_Jet(tau, 1.0)).derivatives()[:2]
        except AbeltauError:
            continue
        assert abs(d0 - value) <= 1e-12 * size, (fn.__name__, tau)
        assert abs(d1 - slope) <= 1e-11 * (abs(slope) + size), (fn.__name__, tau)


def _mp_far_references(tau):
    """_mp_references at tau, and chi = (theta2/theta3)^2, the equianharmonic
    z = 9 eta(9 tau)^3/eta(tau)^3 + 1 and U(m, tau) for m = 0..3 at
    tau + i/2 (Im >= 1, where the 2F1 of U serves every Re(tau))."""
    refs = _mp_references(tau)
    t2, t3 = refs[theta2], refs[theta3]
    refs[hauptmodul_lemniscatic] = (t2 / t3) ** 2
    eta9 = _mp_references(9 * mp.mpc(tau))[dedekind_eta]
    refs[hauptmodul_equianharmonic] = 9 * eta9**3 / refs[dedekind_eta] ** 3 + 1
    up = mp.mpc(tau + 0.5j)
    u2, u3 = (_mp_references(up)[f] for f in (theta2, theta3))
    half = _mp_references(up / 2)[theta2]
    for m in range(4):
        b = mp.mpf(m) / 4 + mp.mpf(1) / 8
        refs[m] = (2 * mp.sqrt(2) * 1j / (2 * m + 1)) * u2 ** (m + 1) / (u3**m * half) \
            * mp.hyp2f1(0.5, b, b + 1, (u2 / u3) ** 4)
    return refs


@settings(max_examples=30, deadline=None)
@given(re=st.floats(24.0, 1e300, exclude_min=True) | st.floats(-1e300, -24.0, exclude_max=True),
       im=st.floats(0.5, 2.0))
@example(re=25.3, im=0.7)
@example(re=1e6 + 0.3, im=0.7)
@example(re=1e12 + 0.3, im=0.7)
@example(re=1e15 + 0.3, im=0.7)
@example(re=1e300, im=0.7)  # an even integer as a double: theta3(0.7i)
@example(re=-1e307, im=1.3)
@example(re=1.7976931348623157e308, im=0.5)
def test_far_real_part_against_mpmath(re, im):
    # the reduction shifts tau by round(Re(tau)), exactly, and counts the
    # shift mod 24; with the terms summed at tau itself their phases lost the
    # digits of Re(tau) mod 2.  mpmath takes tau as it is, with the digits
    # that Re(tau) itself needs.
    tau = complex(re, im)
    with mp.workdps(40 + math.ceil(math.log10(abs(re)))):
        refs = {fn: complex(v) for fn, v in _mp_far_references(tau).items()}
    for key, ref in refs.items():
        got = u_hyperelliptic(key, tau + 0.5j) if isinstance(key, int) else key(tau)
        assert abs(got - ref) <= 1e-13 * abs(ref), (key, tau, got, ref)


@pytest.mark.parametrize("fn", [theta2, theta3, theta4, dedekind_eta, hauptmodul_lemniscatic,
                                hauptmodul_equianharmonic, sqrt_theta_ratio])
def test_a_jet_far_out_on_the_real_axis_is_the_jet_a_period_in(fn):
    # 48 * 2^20 + 0.25 is exact, and shifts back to 0.25 exactly, with a shift
    # count of 0 mod 24
    near, far = complex(0.25, 0.8), complex(48 * 2**20 + 0.25, 0.8)
    assert fn(far) == fn(near)
    assert fn(_Jet(far, 1.0)).c == fn(_Jet(near, 1.0)).c


class TestHauptmoduln:
    def test_lemniscatic_at_i(self):
        assert abs(hauptmodul_lemniscatic(1j) - 2.0**-0.5) < 1e-14

    def test_lemniscatic_decays(self):
        assert abs(hauptmodul_lemniscatic(30j)) < 1e-13

    def test_lemniscatic_convergence_anchor(self):
        # |chi| > 1 here anchors the from-infinity series region
        v = hauptmodul_lemniscatic(1 + 0.8j)
        assert abs(v) > 1.0
        assert abs(v - 1.6421708839130180j) < 1e-12

    def test_equianharmonic_tends_to_one(self):
        assert abs(hauptmodul_equianharmonic(6j) - 1.0) < 1e-13

    @pytest.mark.parametrize("tau", [301j, 400j, 0.3 + 1e5j, 1e308 + 1e308j])
    def test_equianharmonic_far_up_the_half_plane(self, tau):
        # eta(9 tau) leaves the normal float range from Im(tau) = 301 on, but
        # z - 1 = 9 exp(2 pi i tau) (P(9 tau)/P(tau))^3 is only exp(2 pi i tau)
        # small; at 1e308 i, where 9 tau overflows, z was nan
        assert hauptmodul_equianharmonic(tau) == 1.0
        assert hauptmodul_equianharmonic(_Jet(tau, 1.0)).derivatives() == (1.0, 0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(re=st.floats(-1.0, 1.0), im=st.floats(modular.MIN_IM_TAU, 3.0))
    def test_equianharmonic_is_the_eta_quotient(self, re, im):
        # z is the eta form's quotient, relative to the sizes of its two
        # summands, down to the cusps.  z has period 1 and is formed at
        # tau - round(Re(tau)): 9 tau rounds differently at tau itself, an
        # error that eta's conditioning near the cusps amplifies to 1e-14
        tau = complex(re, im)
        t = tau - round(re)
        quotient = 9.0 * dedekind_eta(9.0 * t) ** 3 / dedekind_eta(t) ** 3
        z = hauptmodul_equianharmonic(tau)
        assert abs(z - (quotient + 1.0)) <= 4e-15 * (abs(quotient) + 1.0)

    def test_equianharmonic_at_fricke_fixed_point(self):
        # tau = i/3 is fixed by tau -> -1/(9 tau); frozen eta-oracle value 1 + sqrt(3)
        v = hauptmodul_equianharmonic(1j / 3.0)
        assert abs(v - (1.0 + math.sqrt(3.0))) < 1e-13

    def test_equianharmonic_inside_unit_disk_anchor(self):
        v = hauptmodul_equianharmonic(0.5 + 1j)
        assert abs(v) < 1.0
        assert abs(v - 0.9832866485504677) < 1e-13

    def test_hyperelliptic_at_i(self):
        assert abs(hauptmodul_hyperelliptic(1j) - 2.0**-0.25) < 1e-14

    def test_hyperelliptic_decays(self):
        # leading term 2 exp(pi i tau / 4) ~ 1.2e-10 at tau = 30i
        assert abs(hauptmodul_hyperelliptic(30j)) < 1e-9

    def test_hyperelliptic_on_imaginary_axis(self):
        v = hauptmodul_hyperelliptic(1.5j)
        assert abs(v.imag) < 1e-15 and 0.0 < v.real < 1.0
        assert abs(v - 0.6049094681389514) < 1e-14

    def test_lemniscatic_is_square_of_hyperelliptic(self):
        for tau in TAU_GRID:
            chi = hauptmodul_lemniscatic(tau)
            z = hauptmodul_hyperelliptic(tau)
            assert abs(chi - z * z) < 1e-13 * abs(chi)


class TestSqrtThetaRatio:
    def test_square_recovers_ratio(self):
        for tau in (0.5j, 0.3 + 0.9j, -0.2 + 2.2j, 1.5j, 0.8j):
            s = sqrt_theta_ratio(tau)
            z = hauptmodul_hyperelliptic(tau)
            assert abs(s * s - z) < 1e-12 * abs(z)

    def test_value_at_i(self):
        assert abs(sqrt_theta_ratio(1j) - 2.0**-0.125) < 1e-14

    def test_leading_asymptotics(self):
        tau = 40j
        expected = math.sqrt(2.0) * cmath.exp(1j * math.pi * tau / 8.0)
        assert abs(sqrt_theta_ratio(tau) / expected - 1.0) < 1e-12


class TestDomainsAndPolicies:
    def test_minimum_imaginary_part_gate(self):
        for fn in (theta2, theta3, theta4, dedekind_eta, hauptmodul_lemniscatic):
            with pytest.raises(AccuracyError):
                fn(0.5 + 0.005j)

    def test_tau_point_requires_upper_half_plane(self):
        # every operation on tau shares one gate: Im(tau) > 0
        fns = (theta2, theta3, theta4, dedekind_eta, hauptmodul_lemniscatic,
               hauptmodul_equianharmonic, hauptmodul_hyperelliptic,
               sqrt_theta_ratio)
        for fn in fns:
            for tau in (1.0 - 0.2j, 1.0):  # Im(tau) <= 0
                with pytest.raises(DomainError):
                    fn(tau)
        assert theta3(0.5j) == theta3(complex(0.0, 0.5))

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            theta3(-1j)

    def test_tighter_policy_agrees(self):
        # the term count against the brute-force sum, which never stops early
        for tau in (0.4j, 0.2 + 0.9j):
            a = theta3(tau)
            b = theta_oracle(3, tau)
            assert abs(a - b) < 1e-15 * abs(b)

    @pytest.mark.parametrize("table", TABLES)
    def test_tables_end_past_the_stop_rule(self, table):
        # a count depends on Im(tau) alone and grows as it falls: at the
        # lowest Im(tau) a series is summed at, numbers and jets, every
        # q-series stops before the end of its table, so the rule and never
        # the table's length ends the sum.  The exponents increase down the
        # table, as the bisection that counts needs, and the table is the
        # head of the series it names.
        terms = getattr(modular, table)
        assert [(a, lam) for a, lam, _ in terms] == _long_table(table)[:len(terms)], table
        w = [row[2] for row in terms]
        assert w == sorted(w), table
        y = modular._Y_REDUCED
        for bound in (w[0] + modular._TAIL_LOG / y, (w[0] or w[1]) + modular._JET_TAIL_LOG / y):
            count = bisect.bisect_right(w, bound)
            assert count <= 5 < len(terms), (table, count, len(terms))

    @pytest.mark.parametrize("table", TABLES)
    def test_jet_tail_log_covers_every_term(self, table):
        # a jet leaves out term k once (w_k - w_f) y >= _JET_TAIL_LOG; against
        # term m = max(f, k//4) that must give (w_k - w_m) y >= _TAIL_LOG +
        # 3 ln(w_k/w_m), the bound for its derivatives up to the third
        w = [row[2] for row in getattr(modular, table)]
        f = 1 if w[0] == 0 else 0
        for k in range(f + 1, len(w)):
            m = max(f, k // 4)
            need = (modular._TAIL_LOG + 3.0 * math.log(w[k] / w[m])) * (w[k] - w[f]) / (w[k] - w[m])
            assert need <= modular._JET_TAIL_LOG, (table, k, need)

    @settings(max_examples=200, deadline=None)
    @given(re=st.floats(-0.5, 0.5), im=st.floats(modular._Y_REDUCED, 3.0),
           table=st.sampled_from(TABLES))
    def test_count_against_the_full_table(self, re, im, table):
        # on the reduced domain, every derivative order of the counted sum,
        # for a number and for a jet, is within 2^-52 of its sum of |terms|
        # from the sum of 24 terms, summed in the same order
        tau = complex(re, im)
        terms = getattr(modular, table)
        full, size = [0j] * 4, [0.0] * 4
        for a, lam in _long_table(table):
            e = a * cmath.exp(lam * tau)
            for j in range(4):
                full[j] += e
                size[j] += abs(e)
                e *= lam
        got = modular._q_sums(tau, terms, True)
        assert abs(modular._q_sums(tau, terms, False) - full[0]) <= 2.0**-52 * size[0], (table, tau)
        for j in range(4):
            assert abs(got[j] - full[j]) <= 2.0**-52 * size[j], (table, tau, j)

    @pytest.mark.parametrize("tau", (complex(math.nan, 1.0), complex(0.3, math.inf),
                                     complex(math.inf, 1.0), _Jet(complex(math.nan, 1.0), 1.0)))
    def test_non_finite_tau_rejected(self, monkeypatch, tau):
        # refused at the gate, before any series term is summed
        monkeypatch.setattr(modular, "_TABLES", ())
        with pytest.raises(DomainError):
            theta3(tau)

    @settings(max_examples=200, deadline=None)
    @given(re=st.floats(-1e6, 1e6), im=st.floats(modular.MIN_IM_TAU, 3.0),
           fn=st.sampled_from(CUSP_FUNCTIONS))
    @example(re=0.5, im=0.01, fn=sqrt_theta_ratio)  # theta2 at 0.25 + 0.005i
    @example(re=-0.5833333333333334, im=0.01, fn=sqrt_theta_ratio)  # 4 inversions
    def test_every_series_is_summed_on_the_reduced_domain(self, re, im, fn):
        # on a number and on a jet, every q-series runs at |Re| <= 1/2 and
        # Im >= _Y_REDUCED, so |q| < 0.066
        seen = []
        real = modular._q_sums

        def recording(t, terms, jet):
            seen.append(t)
            return real(t, terms, jet)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modular, "_q_sums", recording)
            fn(complex(re, im))
            fn(_Jet(complex(re, im), 1.0))
        assert seen and all(abs(t.real) <= 0.5 and t.imag >= modular._Y_REDUCED for t in seen)
        assert math.exp(-math.pi * min(t.imag for t in seen)) < 0.066


def _long_table(name, count=24):
    """The first count terms (a_k, lam_k) of a table's series, from its
    definition: theta2 2 exp((k^2+k+1/4) pi i tau), theta3 and theta4
    (+-1)^k 2 exp(k^2 pi i tau) after the 1, eta (-1)^n exp((n(3n-1) + 1/12)
    pi i tau) with n = 0, 1, -1, 2, -2, ..."""
    pi_i = 1j * math.pi
    if name == "_THETA2":
        return [(2.0, (k * k + k + 0.25) * pi_i) for k in range(count)]
    if name == "_ETA":
        ns = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(count)]
        return [(-1.0 if n % 2 else 1.0, (n * (3 * n - 1) + 1.0 / 12.0) * pi_i) for n in ns]
    sign = -1.0 if name == "_THETA4" else 1.0
    return [(1.0, 0j)] + [(2.0 * sign**k, k * k * pi_i) for k in range(1, count)]
