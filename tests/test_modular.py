"""Theta-constant, eta, and Hauptmodul tests.

Expected decimals were frozen from the stated oracles (brute-force q-series
with 10x tighter truncation, the raw eta product, closed Gamma forms); the
oracles themselves are re-implemented below, independent of the package's
stop-rule machinery.
"""

import cmath
import math

import pytest

from abeltau import modular
from abeltau.errors import AccuracyError, DomainError
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

TAU_GRID = (0.3j, 0.2 + 0.5j, 1j, -0.4 + 1.7j, 1 + 2j, 0.05j)


# brute-force oracles: fixed wide summation range, no stop rule
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
        # the stop rule against the brute-force sum, which never stops early
        for tau in (0.4j, 0.2 + 0.9j):
            a = theta3(tau)
            b = theta_oracle(3, tau)
            assert abs(a - b) < 1e-15 * abs(b)

    def test_max_terms_exhaustion(self, monkeypatch):
        monkeypatch.setattr(modular, "_MAX_TERMS", 3)
        with pytest.raises(AccuracyError):
            theta3(0.011j)
