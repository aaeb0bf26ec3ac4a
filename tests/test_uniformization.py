"""The tau-representations, Schwarz-residual verifier, and covering algebra."""

import cmath
import math
import random

import mpmath
import pytest

from abeltau.errors import (
    AbeltauError,
    AccuracyError,
    CriticalPointError,
    DomainError,
    DomainNotSupported,
    PoleError,
)
from abeltau.modular import (
    dedekind_eta,
    hauptmodul_equianharmonic,
    hauptmodul_hyperelliptic,
    hauptmodul_lemniscatic,
    sqrt_theta_ratio,
    theta2,
)
from abeltau.hypergeom import IncompleteIntegralSpec, oracle_incomplete_integral
from abeltau.numerics import _Jet, holomorphic_derivatives
from abeltau.uniform import (
    CoverConstants,
    CurvePoint,
    EQUIANHARMONIC_Z_EQUATION,
    LEMNISCATIC_CHI_EQUATION,
    bracket_schwarzian,
    covering_map,
    eq5_equation,
    k_pm,
    reduce_differential,
    schwarz_residual,
    u_equianharmonic_root,
    u_equianharmonic_rootfree,
    u_hyperelliptic,
    u_lemniscatic,
    _hyperelliptic_thetas,
    _u_hyperelliptic,
)
from abeltau.weier import (
    EQUIANHARMONIC,
    LEMNISCATIC,
    _lattice,
    u0_constant,
    wp,
    wp_inverse_equianharmonic,
    wp_inverse_lemniscatic,
    wp_prime,
)

# z(tau) vanishes on the Re = 1/2 line at this height (up to rounding)
ROOTFREE_ZERO_TAU = 0.5 + 0.2886751345948129j


def jet_exp(t):
    """exp on the Taylor jet that bracket_schwarzian passes in."""
    return t.exp()


class TestBracketSchwarzian:
    """f is called on a Taylor jet in tau: arithmetic and the jet's exp work."""

    def test_moebius_annihilated(self):
        mob = lambda t: (2.0 * t + 1.0) / (t - 3.0j)
        assert abs(bracket_schwarzian(mob, 1 + 1j)) < 1e-12

    def test_exponential(self):
        assert abs(bracket_schwarzian(jet_exp, 0.0) + 0.5) < 1e-12
        tau0 = 0.3j
        expected = -cmath.exp(-2.0 * tau0) / 2.0
        assert abs(bracket_schwarzian(jet_exp, tau0) - expected) < 1e-12

    def test_square(self):
        assert abs(bracket_schwarzian(lambda t: t * t, 1.0) + 0.375) < 1e-12

    def test_critical_point(self):
        with pytest.raises(CriticalPointError):
            bracket_schwarzian(lambda t: t * t, 0.0)

    def test_dropping_the_derivatives_raises(self):
        # a jet has no __complex__, so cmath cannot silently take its value
        with pytest.raises(TypeError):
            bracket_schwarzian(cmath.exp, 0.0)

    def test_non_finite_derivative_raises(self):
        with pytest.raises(AccuracyError):
            bracket_schwarzian(lambda t: t * complex(math.inf, 0.0), 1.0)


class TestSchwarzEquationType:
    """The right-hand sides Q of [x, tau] = Q(x) are plain functions of x."""

    def test_rational_evaluation(self):
        for x in (0.3 + 0.1j, 2.0, -0.7j):
            expected = -0.5 * (x**2 + 1.0) ** 2 / (x**3 - x) ** 2
            assert abs(LEMNISCATIC_CHI_EQUATION(x) - expected) < 1e-13 * abs(expected)
        for z in (0.4, 1.3 + 0.2j):
            expected = -0.5 * z * (z**3 + 8.0) / (z**3 - 1.0) ** 2
            assert abs(EQUIANHARMONIC_Z_EQUATION(z) - expected) < 1e-13 * abs(expected)
        u = 0.3 + 0.2j
        assert eq5_equation(LEMNISCATIC)(u) == -2.0 * wp(2.0 * u, LEMNISCATIC)

    def test_singular_set(self):
        for x in (0.0, 1.0, -1.0):
            with pytest.raises(PoleError):
                LEMNISCATIC_CHI_EQUATION(x)
        for k in (0, 1, -1):
            with pytest.raises(PoleError):
                EQUIANHARMONIC_Z_EQUATION(cmath.exp(2j * math.pi * k / 3))

    def test_moebius_solves_trivial_equation(self):
        zero_q = lambda x: 0.0
        mob = lambda t: (t - 1.0) / (2.0 * t + 5.0j)
        r = schwarz_residual(zero_q, mob, 0.8j)
        assert r <= 1e-14, r
        # an affine map: every term of the scale is 0, and so is the residual
        assert schwarz_residual(zero_q, lambda t: 2.0 * t + 1.0, 0.8j) == 0.0


class TestHauptmodulEquations:
    def test_lemniscatic_grid(self):
        for tau in (1.2j, 1.1j, 1.3j, 0.1 + 1.2j, -0.1 + 1.25j):
            r = schwarz_residual(LEMNISCATIC_CHI_EQUATION, hauptmodul_lemniscatic, tau)
            assert r <= 1e-11, (tau, r)

    def test_equianharmonic_grid(self):
        for tau in (0.5j, 0.55j, 0.6j, 0.05 + 0.55j, -0.05 + 0.6j):
            r = schwarz_residual(EQUIANHARMONIC_Z_EQUATION, hauptmodul_equianharmonic, tau)
            assert r <= 1e-11, (tau, r)

    def test_equianharmonic_near_cusp(self):
        # near tau = 1.1i the right side is ~6e3; the jets resolve it
        tau = 1.1j
        bracket = bracket_schwarzian(hauptmodul_equianharmonic, tau)
        r = abs(bracket - EQUIANHARMONIC_Z_EQUATION(hauptmodul_equianharmonic(tau)))
        assert r <= 1e-8, r


class TestTauRepresentations:
    def test_lemniscatic_factoring_consistency(self):
        tau = 1 + 0.8j
        composed = wp_inverse_lemniscatic(hauptmodul_lemniscatic(tau))
        assert abs(u_lemniscatic(tau) - composed) < 1e-12

    def test_lemniscatic_inverts_wp_on_grid(self):
        for tau in (1 + 0.8j, 1 + 0.9j, -1 + 0.85j, 1 + 0.75j, 0.98 + 0.8j):
            assert abs(wp(u_lemniscatic(tau), LEMNISCATIC)
                       - hauptmodul_lemniscatic(tau)) < 1e-9, tau

    def test_lemniscatic_eq5_grid(self):
        q = eq5_equation(LEMNISCATIC)
        for tau in (1 + 0.8j, 1 + 0.9j, -1 + 0.85j, 1 + 0.75j, 0.98 + 0.8j):
            r = schwarz_residual(q, u_lemniscatic, tau)
            assert r <= 1e-11, (tau, r)

    def test_lemniscatic_domain_refusal(self):
        with pytest.raises(DomainNotSupported):
            u_lemniscatic(2j)  # |chi| << 1 high on the imaginary axis

    def test_equianharmonic_root_inverts_wp_on_grid(self):
        for tau in (0.55j, 0.6j, 0.65j, 0.75j, 0.85j):
            assert abs(wp(u_equianharmonic_root(tau), EQUIANHARMONIC)
                       - hauptmodul_equianharmonic(tau)) < 1e-9, tau

    def test_equianharmonic_root_serves_spec_example_point(self):
        # |z(1.2i)^-3| = 0.986, past the old series disk; |w| = 0.44
        tau = 1.2j
        z = hauptmodul_equianharmonic(tau)
        assert abs(wp(u_equianharmonic_root(tau), EQUIANHARMONIC) - z) <= 1e-13 * abs(z)

    def test_equianharmonic_root_eq5_grid(self):
        q = eq5_equation(EQUIANHARMONIC)
        for tau in (0.55j, 0.6j, 0.65j, 0.75j, 0.85j):
            r = schwarz_residual(q, u_equianharmonic_root, tau)
            assert r <= 1e-11, (tau, r)

    def test_rootfree_small_z_limit(self):
        tau = ROOTFREE_ZERO_TAU
        z = hauptmodul_equianharmonic(tau)
        assert abs(z) < 1e-3
        u = u_equianharmonic_rootfree(tau)
        assert abs(u - u0_constant() - 0.5j * z) < 1e-6

    def test_rootfree_inverts_wp_on_grid(self):
        for tau in (0.5 + 0.6j, 0.5 + 0.65j, 0.5 + 0.7j, 0.5 + 0.75j, 0.5 + 0.8j):
            assert abs(wp(u_equianharmonic_rootfree(tau), EQUIANHARMONIC)
                       - hauptmodul_equianharmonic(tau)) < 1e-9, tau

    def test_rootfree_serves_spec_example_point(self):
        # |z(1/2 + i)|^3 = 0.9507, marginally past the old series disk
        tau = 0.5 + 1j
        z = hauptmodul_equianharmonic(tau)
        assert abs(wp(u_equianharmonic_rootfree(tau), EQUIANHARMONIC) - z) <= 1e-13 * abs(z)

    def test_rootfree_eq5_grid(self):
        q = eq5_equation(EQUIANHARMONIC)
        for tau in (0.5 + 0.6j, 0.5 + 0.65j, 0.5 + 0.7j, 0.5 + 0.75j, 0.5 + 0.8j):
            r = schwarz_residual(q, u_equianharmonic_rootfree, tau)
            assert r <= 1e-11, (tau, r)

    def test_eq5_bracket_sign_invariance(self):
        # [u,tau] and P(2u) are both even in u, so either sign of +-u passes
        tau = 0.5 + 0.7j
        plus = bracket_schwarzian(u_equianharmonic_rootfree, tau)
        minus = bracket_schwarzian(lambda t: -u_equianharmonic_rootfree(t), tau)
        assert abs(plus - minus) < 1e-9 * abs(plus)

    def test_2f1_gate_in_schwarz_residual(self):
        # the refusal is that of _f21 on the jet in tau, before any bracket
        with pytest.raises(DomainNotSupported, match=r"\|w\| > 0.45"):
            schwarz_residual(eq5_equation(LEMNISCATIC), u_lemniscatic, 2j)


# A seeded sample of the tau rectangle [-0.5, 0.5] x [0.6, 2].
JET_TAUS = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
                 for rng in [random.Random(20261020)] for _ in range(20))


def _quotients_mp(t):
    """[s, U(0, t), ..., U(3, t)] at mpmath's precision, from the theta and
    2F1 forms, s = sqrt(2) theta2(t)/theta2(t/2)."""
    q = mpmath.exp(1j * mpmath.pi * t)
    th2, th3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)
    s = mpmath.sqrt(2) * th2 / mpmath.jtheta(2, 0, mpmath.exp(0.5j * mpmath.pi * t))
    r = th2 / th3
    return [s] + [2j * s * r**m / (2 * m + 1) * mpmath.hyp2f1(0.5, b, b + 1, r**4)
                  for m in range(4) for b in [mpmath.mpf(2 * m + 1) / 8]]


def _quotient_derivatives(tau):
    """The value and first three derivatives at tau of each of _quotients_mp:
    central differences with step 1e-18 at 90 digits, which leave more than
    30."""
    with mpmath.workdps(90):
        h = mpmath.mpf(10) ** -18
        f = {k: _quotients_mp(mpmath.mpc(tau) + k * h) for k in (-2, -1, 0, 1, 2)}
        return [[complex(f[0][i]), complex((f[1][i] - f[-1][i]) / (2 * h)),
                 complex((f[1][i] - 2 * f[0][i] + f[-1][i]) / h**2),
                 complex((f[2][i] - 2 * f[1][i] + 2 * f[-1][i] - f[-2][i]) / (2 * h**3))]
                for i in range(5)]


class TestHyperellipticFamily:
    def test_decay_ordering(self):
        for m in range(4):
            a, b, c = (abs(u_hyperelliptic(m, t)) for t in (3j, 2j, 1.5j))
            assert a < b < c, m

    def test_frozen_value(self):
        v = u_hyperelliptic(0, 1.5j)
        assert abs(v - 1.5677557573854314j) < 1e-12

    def test_m_validation(self):
        for m in (-1, 4, 2.5):
            with pytest.raises(DomainError):
                u_hyperelliptic(m, 1.5j)

    def test_serves_past_the_old_theta_ratio_disk(self):
        # theta2^4/theta3^4 = 0.971 at 0.5i, |w| = 0.41; the old gate refused it
        tau = 0.5j
        spec = IncompleteIntegralSpec(0.5, 0.5, 4, hauptmodul_hyperelliptic(tau), "from_zero")
        value = u_hyperelliptic(0, tau)
        assert abs(value - oracle_incomplete_integral(spec, tol=1e-12)) <= 1e-12 * abs(value)

    def test_refusal_near_the_cusp_at_zero(self):
        # theta2^4/theta3^4 = 0.9938 at 0.4i, |w| = 0.461
        with pytest.raises(DomainNotSupported):
            u_hyperelliptic(0, 0.4j)

    @pytest.mark.parametrize("tau", [30j, 120j, 250j, 400j, 1000j, 3000j, 0.3 + 1e5j])
    def test_large_im_tau_is_accurate_or_raises(self, tau):
        # theta2 and eta underflow far up the half-plane: sqrt_theta_ratio(1000i)
        # and U(0, 1000i) returned 0, where the values are 4.0e-171 and 8.0e-171
        with mpmath.workdps(40):
            t = mpmath.mpc(tau)
            th2, th3 = (mpmath.jtheta(k, 0, mpmath.exp(mpmath.pi * 1j * t)) for k in (2, 3))
            th2_half = mpmath.jtheta(2, 0, mpmath.exp(mpmath.pi * 1j * t / 2))
            cases = [(theta2, th2), (dedekind_eta, mpmath.eta(t)),
                     (sqrt_theta_ratio, mpmath.sqrt(2) * th2 / th2_half)]
            for m in range(4):
                u = (2 * mpmath.sqrt(2) * 1j / (2 * m + 1) * th2 ** (m + 1) / (th3**m * th2_half)
                     * mpmath.hyp2f1(0.5, m / 4 + 0.125, m / 4 + 1.125, (th2 / th3) ** 4))
                cases.append(((lambda m: lambda t: u_hyperelliptic(m, t))(m), u))
            served = 0
            for f, ref in cases:
                try:
                    value = f(tau)
                except AbeltauError:
                    continue
                assert abs(value - ref) <= 1e-13 * abs(ref), (f, tau, value)
                served += 1
        assert served >= (2 if tau.imag < 1000 else 0)

    def test_an_underflow_refuses_only_its_own_m(self):
        # U(m, tau) shrinks like |r|^m, r = theta2/theta3 ~ 2 exp(i pi tau/4):
        # at 800i U(0) = 1.03e-136i is served and every other m underflows, at
        # 300i only U(3) does
        for tau, refused in ((800j, {1, 2, 3}), (300j, {3})):
            with mpmath.workdps(30):
                refs = [complex(u) for u in _quotients_mp(mpmath.mpc(tau))[1:]]
            for m, ref in enumerate(refs):
                if m in refused:
                    with pytest.raises(AccuracyError, match=rf"U\({m}, tau\) underflows"):
                        u_hyperelliptic(m, tau)
                    continue
                assert abs(u_hyperelliptic(m, tau) - ref) <= 1e-13 * abs(ref), (tau, m)

    @pytest.mark.parametrize("tau", JET_TAUS)
    def test_jets_to_third_order(self, tau):
        # s = sqrt_theta_ratio, whose jet is r's by the chain rule of the
        # square root, and each U(m, .), alone and from the shared pass
        refs = _quotient_derivatives(tau)
        every = _u_hyperelliptic((0, 1, 2, 3), _hyperelliptic_thetas(_Jet(tau, 1.0)))
        jets = [("s", sqrt_theta_ratio(_Jet(tau, 1.0)), refs[0])]
        for m in range(4):
            jets += [(m, u_hyperelliptic(m, _Jet(tau, 1.0)), refs[m + 1]),
                     (m, every[m], refs[m + 1])]
        for name, jet, ref in jets:
            for k, (got, want) in enumerate(zip(jet.derivatives(), ref)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, k, got, want)

    def test_derivative_identity_spot(self):
        tau = 1.5j
        z = hauptmodul_hyperelliptic(tau)
        (zp,) = holomorphic_derivatives(hauptmodul_hyperelliptic, tau, 1)
        for m in range(4):
            (lhs,) = holomorphic_derivatives(lambda s: u_hyperelliptic(m, s), tau, 1)
            rhs = 1j * z**m * zp / (sqrt_theta_ratio(tau) * cmath.sqrt(1.0 - z**4))
            assert abs(lhs - rhs) < 1e-6 * abs(rhs), m


# A seeded sample of the tau rectangle [-1, 1] x [0.05, 3].  The thetas are
# accurate down to Im tau = 1e-2, but below 0.05, near Re tau = +-0.84,
# U(m, tau) is minus its straight-path integral, the root of the other
# sheet (ROADMAP item 10): a scan of Re tau at steps of 1e-3 found the
# highest such tau at Im tau = 0.047.
REGION_TAUS = tuple(complex(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 3.0))
                    for rng in [random.Random(20261019)] for _ in range(1500))


def _served(f, x):
    """f(x), or None where f refuses x."""
    try:
        return f(x)
    except DomainNotSupported:
        return None


def _hyperelliptic_oracle(m, tau):
    """U(m, tau) as the straight-path integral of z^m dz / sqrt(z^5 - z)."""
    z = hauptmodul_hyperelliptic(tau)
    return oracle_incomplete_integral(IncompleteIntegralSpec(m + 0.5, 0.5, 4, z, "from_zero"),
                                      tol=1e-12)


def _u_derivative(m, tau):
    """dU(m, tau)/dtau = i z^m z' / (sqrt_theta_ratio sqrt(1 - z^4)), z = theta2/theta3."""
    z, z_prime = hauptmodul_hyperelliptic(_Jet(tau, 1.0)).derivatives()[:2]
    return 1j * z**m * z_prime / (sqrt_theta_ratio(tau) * cmath.sqrt(1.0 - z**4))


class TestRegions:
    """Each uniformizer serves tau wherever hypergeom._f21 sums its 2F1, and
    refuses the rest.  Every served number and jet agrees with a check that
    shares no 2F1 with it: P(u) and P'(u) u' against the Hauptmodul and its
    derivative, U against its defining integral and dU/dtau."""

    P_CASES = {
        "lemniscatic": (u_lemniscatic, hauptmodul_lemniscatic, LEMNISCATIC,
                        lambda x: (1.0 / x) ** 2),
        "equianharmonic-root": (u_equianharmonic_root, hauptmodul_equianharmonic,
                                EQUIANHARMONIC, lambda z: z**-3),
        "equianharmonic-rootfree": (u_equianharmonic_rootfree, hauptmodul_equianharmonic,
                                    EQUIANHARMONIC, lambda z: z**3),
    }

    @pytest.mark.parametrize("name", sorted(P_CASES))
    def test_p_of_u_is_the_hauptmodul(self, name):
        u_of, x_of, inv, argument = self.P_CASES[name]
        new_numbers = new_jets = 0  # tau the old gates refused: |argument| > 0.95
        for tau in REGION_TAUS:
            u = _served(u_of, tau)
            jet = _served(u_of, _Jet(tau, 1.0))
            if u is None:
                assert jet is None, tau  # jets are served on a subset
                continue
            x, x_prime = x_of(_Jet(tau, 1.0)).derivatives()[:2]
            assert abs(wp(u, inv) - x) <= 1e-12 * max(1.0, abs(x)), tau
            new = abs(argument(x)) > 0.95
            new_numbers += new
            if jet is not None:
                u0, u1 = jet.derivatives()[:2]
                assert abs(u0 - u) <= 1e-14 * max(1.0, abs(u)), tau
                assert abs(wp_prime(u0, inv) * u1 - x_prime) <= 1e-12 * max(1.0, abs(x_prime))
                new_jets += new
        assert new_numbers >= 25 and new_jets >= 25, (new_numbers, new_jets)

    @pytest.mark.parametrize("m", range(4))
    def test_u_hyperelliptic_is_its_integral(self, m):
        new_numbers = new_jets = 0  # tau the old gate refused: |lam| > 0.95
        for tau in REGION_TAUS:
            value = _served(lambda t: u_hyperelliptic(m, t), tau)
            jet = _served(lambda t: u_hyperelliptic(m, t), _Jet(tau, 1.0))
            if value is None:
                assert jet is None, tau
                continue
            scale = max(1.0, abs(value))
            assert abs(value - _hyperelliptic_oracle(m, tau)) <= 1e-12 * scale, tau
            new = abs(hauptmodul_hyperelliptic(tau)) ** 4 > 0.95
            new_numbers += new
            if jet is not None:
                u0, u1 = jet.derivatives()[:2]
                assert abs(u0 - value) <= 1e-14 * scale, tau
                rhs = _u_derivative(m, tau)
                assert abs(u1 - rhs) <= 1e-12 * max(1.0, abs(rhs)), tau
                new_jets += new
        assert new_numbers >= 20 and new_jets >= 20, (new_numbers, new_jets)

    def test_all_m_at_once_is_each_m_alone(self):
        # one chain of prefactors and one 2F1 argument serve every m: each U
        # and each jet is u_hyperelliptic(m, .) bit for bit, and all m refuse
        # the same tau
        served = 0
        for tau in REGION_TAUS:
            for x in (tau, _Jet(tau, 1.0)):
                try:
                    every = _u_hyperelliptic((0, 1, 2, 3), _hyperelliptic_thetas(x))
                except DomainNotSupported:
                    for m in range(4):
                        with pytest.raises(DomainNotSupported):
                            u_hyperelliptic(m, x)
                    continue
                for m in range(4):
                    one, other = u_hyperelliptic(m, x), every[m]
                    if isinstance(x, _Jet):
                        one, other = one.c, other.c
                    assert one == other, (tau, m)
                served += 1
        assert served >= 2500, served

    def test_equianharmonic_forms_differ_by_a_sign_and_a_period(self):
        # where both forms serve tau, u_root = +-u_rootfree + a period: the
        # two are branches of the same P^-1 at z(tau)
        a, b = _lattice(EQUIANHARMONIC.g2, EQUIANHARMONIC.g3)[:2]
        det = (a * b.conjugate()).imag

        def off_lattice(d):
            # distance to the nearest period 2ma + 2nb, in cell coordinates
            x, y = (d * b.conjugate()).imag / det / 2.0, -(d * a.conjugate()).imag / det / 2.0
            return max(abs(x - round(x)), abs(y - round(y)))

        overlap, signs = 0, set()
        for tau in REGION_TAUS:
            root = _served(u_equianharmonic_root, tau)
            rootfree = _served(u_equianharmonic_rootfree, tau)
            if root is None or rootfree is None:
                continue
            error, sign = min((off_lattice(root - s * rootfree), s) for s in (1, -1))
            assert error <= 1e-13, (tau, root, rootfree)
            overlap += 1
            signs.add(sign)
        assert overlap >= 25 and signs == {1, -1}, (overlap, signs)

    @pytest.mark.parametrize("inverse, inv, k", [
        (wp_inverse_lemniscatic, LEMNISCATIC, 2),
        (wp_inverse_equianharmonic, EQUIANHARMONIC, 3),
    ])
    def test_p_inverses_round_trip(self, inverse, inv, k):
        rng = random.Random(7)
        served = past_old_disk = 0
        for _ in range(1000):
            x = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi))
            u = _served(inverse, x)
            if u is None:
                continue
            assert abs(wp(u, inv) - x) <= 1e-13 * max(1.0, abs(x)), x
            served += 1
            past_old_disk += abs(x**-k) > 0.95
        assert past_old_disk >= 100, (served, past_old_disk)


class TestCoveringAlgebra:
    COVER = CoverConstants.from_parameters(-1.0, 1j)

    def test_k_pm_shipped_curve(self):
        kp, km = k_pm(-1.0, 1j)
        assert abs(kp - (1.0 + math.sqrt(2.0)) / 2.0) < 1e-14
        assert abs(km - (1.0 - math.sqrt(2.0)) / 2.0) < 1e-14

    def test_k_pm_coincident_roots(self):
        kp, km = k_pm(0.3, 0.3)
        assert km == 0.0

    def test_k_pm_zero_parameter(self):
        kp, km = k_pm(0.0, -1.0)
        assert abs(kp - 0.5) < 1e-15 and abs(km - 0.5) < 1e-15

    def test_k_pm_domain(self):
        with pytest.raises(DomainError):
            k_pm(1.0, 1j)

    def test_curve_point_membership(self):
        with pytest.raises(DomainError):
            CurvePoint(1.3, 0.5, 1)
        with pytest.raises(DomainError):
            CurvePoint(1.3, cmath.sqrt(1.3**5 - 1.3), 2)

    def test_e_roots_sum_and_symmetric_functions(self):
        for sign in (1, -1):
            e1, e2, e3 = self.COVER.branch(sign)[2]
            assert abs(e1 + e2 + e3) < 1e-14
            inv = self.COVER.quotient_invariants(sign)
            assert abs(inv.g2 - 5.0 / 3.0) < 1e-12
            assert abs(inv.g3 + sign * 7.0 * math.sqrt(2.0) / 27.0) < 1e-12

    def test_cubic_identity_spot(self):
        for sign in (1, -1):
            inv = self.COVER.quotient_invariants(sign)
            for x in (1.7 + 0.3j, -0.6 + 1.1j, 0.5 - 1.4j):
                y = cmath.sqrt(x**5 - x)
                P, Pp = covering_map(CurvePoint(x, y, sign), self.COVER)
                assert abs(Pp**2 - (4.0 * P**3 - inv.g2 * P - inv.g3)) < 1e-9

    def test_branch_point_maps_to_two_torsion(self):
        for sign in (1, -1):
            e1 = self.COVER.branch(sign)[2][0]
            P, Pp = covering_map(CurvePoint(0.0, 0.0, sign), self.COVER)
            assert abs(Pp) < 1e-10
            assert abs(P - e1) < 1e-10  # the x = 0 fiber lands on -(k+1)/3

    def test_cover_pole(self):
        x = self.COVER.A
        with pytest.raises(PoleError):
            covering_map(CurvePoint(x, cmath.sqrt(x**5 - x), 1), self.COVER)

    def test_reduce_differential_sign_flip(self):
        x = 1.4 + 0.6j
        y = cmath.sqrt(x**5 - x)
        plus = reduce_differential(CurvePoint(x, y, 1), self.COVER)
        # the minus sheet negates the sqrt(A)sqrt(B) shift
        shifted = 0.5 * self.COVER.sqrt_one_minus * (x + self.COVER.s_ab) / y
        assert abs(reduce_differential(CurvePoint(x, y, -1), self.COVER) - shifted) < 1e-15

    def test_reduce_differential_scaling(self):
        # factor ~ x^(-3/2): quadrupling x scales it by ~ 4^(-3/2) = 1/8
        vals = []
        for scale in (100.0, 400.0):
            x = scale * cmath.exp(0.35j)
            y = cmath.sqrt(x**5 - x)
            vals.append(abs(reduce_differential(CurvePoint(x, y, 1), self.COVER)))
        assert abs(vals[1] / vals[0] - 0.125) < 0.05 * 0.125

    def test_reduce_differential_pole(self):
        with pytest.raises(PoleError):
            reduce_differential(CurvePoint(0.0, 0.0, 1), self.COVER)
