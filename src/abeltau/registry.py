"""The identity registry: one entry per verified identity, each a check run
at every sample of a tau grid or of a fixed table.

The registry is the coverage map of the verification suite: `verify`, `grid`
(a run on a generated tau grid) and the acceptance tests run it.  A check
takes its sample alone and measures a point, a residual and metadata; the
run judges the residual against the entry's tolerance or its override.  A
record passes, fails, or is skipped where a uniformizer's 2F1 is refused.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .errors import AbeltauError, AccuracyError, DomainError, DomainNotSupported
from .hypergeom import (
    IncompleteIntegralSpec,
    _carlson_rf,
    elliptic_F,
    elliptic_K,
    incomplete_integral_2f1,
    oracle_incomplete_integral,
)
from .modular import (
    dedekind_eta,
    hauptmodul_equianharmonic,
    hauptmodul_hyperelliptic,
    hauptmodul_lemniscatic,
    sqrt_theta_ratio,
    theta2,
    theta3,
    theta4,
)
from .numerics import _Jet, _value_type, contour_quadrature
from .uniform import (
    CoverConstants,
    CurvePoint,
    EQUIANHARMONIC_Z_EQUATION,
    LEMNISCATIC_CHI_EQUATION,
    covering_map,
    eq5_equation,
    reduce_differential,
    k_pm,
    schwarz_residual,
    u_equianharmonic_root,
    u_equianharmonic_rootfree,
    u_hyperelliptic,
    u_lemniscatic,
    _hyperelliptic_thetas,
    _u_hyperelliptic,
)
from .weier import (
    EQUIANHARMONIC,
    LEMNISCATIC,
    EllipticInvariants,
    ThirdKindParam,
    integral_second_kind,
    integral_third_kind,
    u0_constant,
    wp,
    wp_inverse_equianharmonic,
    wp_inverse_lemniscatic,
    wp_prime,
    _wp_inverse_for,
)

__all__ = [
    "RunConfig",
    "RunRecord",
    "IdentityEntry",
    "REGISTRY",
    "run_identity",
]

# Spec-pinned decimal of the P-zero constant (13 digits as published).
U0_IM_DIGITS = 1.402182105325


class RunConfig(_value_type("RunConfig", "tolerances grids", defaults=(None,) * 2)):
    """Options shared by every registry run: tolerance overrides and tau
    grids by identity name.  An override names a registered identity, a
    tolerance is positive and finite, and a grid holds at least one point
    of an identity with a tau grid; both mappings are read-only copies."""

    __slots__ = ()

    def __new__(cls, tolerances: Mapping[str, float] | None = None,
                grids: Mapping[str, tuple[complex, ...]] | None = None):
        tolerances, grids = dict(tolerances or {}), dict(grids or {})
        for key in (*tolerances, *grids):
            if key not in REGISTRY:
                raise DomainError(f"override references unknown identity {key!r}")
        for key, points in grids.items():
            if not REGISTRY[key].tau_grid:
                raise DomainError(f"identity {key!r} has no tau grid to override")
            if not points:  # an empty grid would verify nothing and pass
                raise DomainError(f"grid override of {key!r} has no points")
        for v in tolerances.values():
            if not 0 < v < math.inf:  # an infinite tolerance would pass every record
                raise DomainError("tolerance overrides must be positive and finite")
        return super().__new__(cls, MappingProxyType(tolerances), MappingProxyType(grids))


class RunRecord(_value_type("RunRecord", "identity point residual tolerance status metadata")):
    """One line of the verification stream: one identity at one sample.
    status is pass, fail or skipped; metadata a mapping, by default empty."""

    __slots__ = ()

    def __new__(cls, identity: str, point: complex, residual: float | None, tolerance: float,
                status: str, metadata: Mapping[str, object] | None = None):
        return super().__new__(cls, identity, point, residual, tolerance, status,
                               {} if metadata is None else metadata)

    def to_json_line(self) -> str:
        """The record as one line of the json-lines stream: byte for byte what
        json.dumps writes for the object with keys identity, point ([re, im]),
        residual (a float or None), tolerance (a float), status and metadata
        (complex values as [re, im]).  The fixed fields are formatted by hand;
        a non-empty metadata goes to the C encoder of the json module."""
        p = self.point
        return (f'{{"identity": {encode_basestring_ascii(self.identity)}, '
                f'"point": [{_json_float(p.real)}, {_json_float(p.imag)}], '
                f'"residual": {_json_float(self.residual)}, '
                f'"tolerance": {_json_float(self.tolerance)}, '
                f'"status": {encode_basestring_ascii(self.status)}, '
                f'"metadata": {_METADATA_JSON.encode(self.metadata) if self.metadata else "{}"}}}')


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float | None) -> str:
    if x is None:
        return "null"
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _complex_pair(v) -> list[float]:
    """A complex metadata value as [re, im]; any other value json cannot write is a TypeError."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    raise TypeError(f"metadata value {v!r} of type {type(v).__name__} has no JSON form")


_METADATA_JSON = json.JSONEncoder(default=_complex_pair)


class IdentityEntry(_value_type("IdentityEntry", "name summary tolerance check samples tau_grid",
                                defaults=(False,))):
    """An identity as a check run at each of its samples,
    check(sample) -> (point, residual, metadata), judged against the
    tolerance or its RunConfig override.  The samples of a tau-grid identity
    are tau points, which RunConfig.grids may replace; those of any other
    identity are the rows of a fixed table."""

    __slots__ = ()


# --------------------------------------------------------------------------
# tau-grid checks

def _check_jacobi_quartic(tau):
    # relative to |theta2^4| + |theta4^4|, the size of the terms that cancel:
    # theta3^4 is exponentially small near the cusps +-1, the other two are not
    t2, t3, t4 = theta2(tau) ** 4, theta3(tau) ** 4, theta4(tau) ** 4
    return tau, abs(t2 + t4 - t3) / (abs(t2) + abs(t4)), {}


def _check_eta_shift(tau):
    base = dedekind_eta(tau)
    residual = abs(dedekind_eta(tau + 1.0) - cmath.exp(1j * math.pi / 12.0) * base) / abs(base)
    return tau, residual, {}


def _check_sqrt_ratio(tau):
    target = hauptmodul_hyperelliptic(tau)
    return tau, abs(sqrt_theta_ratio(tau) ** 2 - target) / abs(target), {}


def _schwarz_point_check(q, candidate):
    def check(tau):
        return tau, schwarz_residual(q, candidate, tau), {}
    return check


_Q_LEMN = eq5_equation(LEMNISCATIC)
_Q_EQUI = eq5_equation(EQUIANHARMONIC)


def _check_u_derivative(tau):
    """dU/dtau = z^m z'(tau) / sqrt(z^5 - z) with z = theta2/theta3 and the
    root branch fixed by sqrt_theta_ratio, s = sqrt(2) theta2(tau)/theta2(tau/2):
    1/sqrt(z^5-z) = i/(s sqrt(1-z^4)).  Every U(m, .), z and s come from one
    set of theta jets in tau, and every U(m, .) from one 2F1 argument; tau
    where the 2F1 of U refuses a jet is skipped, and a right side that
    underflows fails."""
    thetas = _hyperelliptic_thetas(_Jet(complex(tau), 1.0))
    us = _u_hyperelliptic((0, 1, 2, 3), thetas)
    r, s = thetas
    z, z_prime = r.derivatives()[:2]
    root = s.derivatives()[0] * cmath.sqrt(1.0 - z**4)
    per_m = {}
    for m, u in us.items():
        rhs = 1j * z**m * (z_prime / root)  # z^m z' alone underflows far up the half-plane
        size = abs(rhs)
        if size < sys.float_info.min:
            raise AccuracyError(f"z^{m} z'/sqrt(z^5 - z) underflows at tau = {tau!r}")
        per_m[f"m{m}"] = abs(u.derivatives()[1] - rhs) / size
    return tau, max(per_m.values()), {"branch": "sqrt_theta_ratio", **per_m}


# --------------------------------------------------------------------------
# table checks; a row puts the point it is reported at first

def _wp_diffeq_rows():
    rng = random.Random(2024)
    rows = []
    for inv in (LEMNISCATIC, EQUIANHARMONIC):
        for _ in range(50):
            r = rng.uniform(0.15, 1.25)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rows.append((r * cmath.exp(1j * phi), inv))
    return tuple(rows)


def _check_wp_diffeq(row):
    u, inv = row
    p = wp(u, inv)
    pp = wp_prime(u, inv)
    residual = abs(pp * pp - (4.0 * p**3 - inv.g2 * p - inv.g3)) / (1.0 + abs(p) ** 3)
    return u, residual, {"invariants": inv.as_tuple}


_ROUNDTRIP_LEMN = (2, 3, 5, 10, 2j, 3j, -2 + 2j, 4 - 3j, 1.5 + 1.5j, 6 + 0.5j)
_ROUNDTRIP_EQUI = (2, 3, 4, 10, 2j, 5j, -2 + 2j, 3 - 2j, 1.2 + 1.2j, 1.5)


def _roundtrip_check(inverse, inv):
    def check(x):
        u = inverse(complex(x))
        return x, abs(wp(u, inv) - x), {"u": u, "invariants": inv.as_tuple}
    return check


def _check_u0_digits(_):
    u0 = u0_constant()
    residual = max(abs(u0.imag - U0_IM_DIGITS), abs(u0.real))
    return u0, residual, {"real_part_exact_zero": u0.real == 0.0}


def _check_u0_wp_zero(_):
    u0 = u0_constant()
    return u0, abs(wp(u0, EQUIANHARMONIC)), {}


def _check_u0_fk(_):
    """i/(2 3^(1/4)) F(3^(1/4)(sqrt3 - 1), sin 75) - 3^(-1/4) K(sin 15), F and K
    taking the modulus, is the rotated P-zero e^(i pi/3) u0: by homogeneity
    (DLMF 23.10.17) P(lambda z; lambda^-4 g2, lambda^-6 g3) = lambda^-2 P(z; g2, g3),
    and with g2 = 0 and lambda = e^(i pi/3), lambda^-6 = 1."""
    x = 3.0 ** 0.25 * (math.sqrt(3.0) - 1.0)
    sin75 = (math.sqrt(6.0) + math.sqrt(2.0)) / 4.0
    sin15 = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(2.0))
    value = 1j / (2.0 * 3.0**0.25) * elliptic_F(x, sin75) - 3.0 ** -0.25 * elliptic_K(sin15)
    return value, abs(value - cmath.exp(1j * math.pi / 3.0) * u0_constant()), {}


_EQ6_ROWS = (
    IncompleteIntegralSpec(0.5, 0.5, 1, 0.5, "from_zero"),
    IncompleteIntegralSpec(1.0, 0.0, 1, 0.7, "from_zero"),
    IncompleteIntegralSpec(1.25, 1.0 / 3.0, 1, 0.6, "from_zero"),
)
_EQ7_ROWS = (
    IncompleteIntegralSpec(0.5, 1.0, 1, 3.0, "from_infinity"),
    IncompleteIntegralSpec(0.25, 0.75, 1, 2.0, "from_infinity"),
)
_EQ12_ROWS = (
    IncompleteIntegralSpec(0.5, 0.5, 2, 3.0, "from_infinity"),   # lemniscatic inverse
    IncompleteIntegralSpec(0.5, 0.5, 2, 2.0, "from_infinity"),
    IncompleteIntegralSpec(1.0, 0.5, 3, 2.0, "from_infinity"),   # equianharmonic inverse
    IncompleteIntegralSpec(1.0, 0.5, 3, 0.6, "from_zero"),
    IncompleteIntegralSpec(0.5, 0.5, 4, 0.7, "from_zero"),       # genus-2 rows, m = 0..3
    IncompleteIntegralSpec(1.5, 0.5, 4, 0.7, "from_zero"),
    IncompleteIntegralSpec(2.5, 0.5, 4, 0.7, "from_zero"),
    IncompleteIntegralSpec(3.5, 0.5, 4, 0.7, "from_zero"),
    IncompleteIntegralSpec(1.5, 0.25, 2, 0.5 + 0.3j, "from_zero"),
    IncompleteIntegralSpec(0.5, 0.75, 2, 4.0, "from_infinity"),
    IncompleteIntegralSpec(2.0, 1.0 / 3.0, 3, 0.6j, "from_zero"),
)


def _check_integral_row(spec):
    value = incomplete_integral_2f1(spec)
    oracle = oracle_incomplete_integral(spec, tol=1e-10)
    residual = abs(value - oracle) / (1.0 + abs(value))
    return spec.z, residual, {"alpha": spec.alpha, "beta": spec.beta,
                              "n": spec.n, "base": spec.base, "value": value}


_COVER = CoverConstants.from_parameters(-1.0, 1j)
_KP_EXPECT = (1.0 + math.sqrt(2.0)) / 2.0
_KM_EXPECT = (1.0 - math.sqrt(2.0)) / 2.0


def _curve_rows(sign, count, seed):
    """(x, y, sign) rows on w^2 = z^5 - z, kept 0.4 away from the special
    points of the cover."""
    rng = random.Random(seed)
    special = (0.0, 1.0, -1.0, 1j, -1j, _COVER.A, _COVER.B)
    rows = []
    while len(rows) < count:
        x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if min(abs(x - s) for s in special) < 0.4:
            continue
        rows.append((x, cmath.sqrt(x**5 - x) * rng.choice((1.0, -1.0)), sign))
    return tuple(rows)


def _check_k_pm(row):
    kp, km = k_pm(*row)
    return row[0], max(abs(kp - _KP_EXPECT), abs(km - _KM_EXPECT)), {}


def _check_cover_cubic(row):
    x, y, sign = row
    inv = _COVER.quotient_invariants(sign)
    P, Pp = covering_map(CurvePoint(x, y, sign), _COVER)
    residual = abs(Pp * Pp - (4.0 * P**3 - inv.g2 * P - inv.g3))
    return x, residual, {"sign": sign, "invariants": inv.as_tuple}


def _check_cover_factored(row):
    x, y, sign = row
    e1, e2, e3 = _COVER.branch(sign)[2]
    P, Pp = covering_map(CurvePoint(x, y, sign), _COVER)
    return x, abs(Pp * Pp - 4.0 * (P - e1) * (P - e2) * (P - e3)), {"sign": sign}


def _check_cover_branch_point(row):
    """The branch point x = 0 maps to the 2-torsion value e1 = -(k+1)/3."""
    x, y, sign = row
    e1 = _COVER.branch(sign)[2][0]
    P, Pp = covering_map(CurvePoint(x, y, sign), _COVER)
    return x, max(abs(Pp), abs(P - e1)), {"sign": sign}


_ARCS = ((1.8 + 0.4j, 0.12 * cmath.exp(0.3j), 1), (1.6 - 0.5j, 0.12 * cmath.exp(-0.2j), -1))


def _check_du_reduction(row):
    """Quadrature of du/dx along a short arc against the increment of u from
    inverting P on the quotient curve, u = +-R_F(P - e1, P - e2, P - e3)
    (DLMF 19.25(vi)), the sign the one whose P' is the cover's."""
    x0, dx, sign = row
    inv = _COVER.quotient_invariants(sign)
    e1, e2, e3 = _COVER.branch(sign)[2]
    x1 = x0 + dx

    def du_dx(x):
        y = cmath.sqrt(x**5 - x)  # principal branch stays continuous on the arc
        return reduce_differential(CurvePoint(x, y, sign), _COVER)

    def u_at(x):
        P, Pp = covering_map(CurvePoint(x, cmath.sqrt(x**5 - x), sign), _COVER)
        u = _carlson_rf(P - e1, P - e2, P - e3)
        return u if abs(wp_prime(u, inv) - Pp) <= abs(wp_prime(u, inv) + Pp) else -u

    delta_u = contour_quadrature(du_dx, [x0, x1], 1e-11)
    residual = abs((u_at(x1) - u_at(x0)) - delta_u)
    return x0, residual, {"sign": sign, "arc": dx, "delta_u": delta_u}


def _check_u_quadrature(row):
    tau, m = row
    z = hauptmodul_hyperelliptic(tau)
    value = u_hyperelliptic(m, tau)
    oracle = oracle_incomplete_integral(IncompleteIntegralSpec(0.5, 0.5, 4, z, "from_zero"),
                                        tol=1e-10)
    return tau, abs(value - oracle), {"m": m, "z": z, "value": value}


def _curve_w(inv: EllipticInvariants, z: complex) -> complex:
    return cmath.sqrt(4.0 * z**3 - inv.g2 * z - inv.g3)


def _branch_sign(inv, z1) -> float:
    """Sign s making s*sqrt(4z^3-g2 z-g3) the dz/du branch of the
    hypergeometric inverse u(z) of P: dz/du = P'(u) at u = u(z1)."""
    w_expected = wp_prime(_wp_inverse_for(inv)(z1), inv)
    w0 = _curve_w(inv, z1)
    return 1.0 if abs(w0 - w_expected) <= abs(-w0 - w_expected) else -1.0


# (z1, z2, invariants)
_II_SAMPLES = ((3.0, 5.0, LEMNISCATIC), (2.5, 4.0, EQUIANHARMONIC))


def _check_ii_oracle(row):
    z1, z2, inv = row
    s = _branch_sign(inv, complex(z1))
    quad = contour_quadrature(lambda z: z / (s * _curve_w(inv, z)), [z1, z2], 1e-11)
    delta = integral_second_kind(z2, inv) - integral_second_kind(z1, inv)
    return z1, abs(delta - quad), {"invariants": inv.as_tuple, "path": [z1, z2],
                                   "w_branch_sign": s}


# (z1, z2, alpha, invariants)
_III_SAMPLES = ((3.0, 3.8, 0.5, LEMNISCATIC), (2.0, 2.5, 0.6, EQUIANHARMONIC))


def _check_iii_oracle(row):
    z1, z2, alpha, inv = row
    pa = wp(alpha, inv)
    ppa = wp_prime(alpha, inv)
    s = _branch_sign(inv, complex(z1))

    def integrand(z):
        w = s * _curve_w(inv, z)
        return 0.5 * (w + ppa) / ((z - pa) * w)

    quad = contour_quadrature(integrand, [z1, z2], 1e-11)
    param = ThirdKindParam(alpha)
    delta = integral_third_kind(z2, param, inv) - integral_third_kind(z1, param, inv)
    return z1, abs(delta - quad), {"invariants": inv.as_tuple, "alpha": alpha,
                                   "path": [z1, z2], "w_branch_sign": s}


# --------------------------------------------------------------------------
# registry

_ONE_ROW = (None,)
# One tolerance for the relative residuals of the six tau-derivative identities: 35x the worst,
# 2.8e-13, of a seeded sweep of the benchmark rectangles and of schwarz-z up to Im tau = 1.2.
_TAU_TOL = 1e-11

REGISTRY: dict[str, IdentityEntry] = {e.name: e for e in (
    IdentityEntry("jacobi-quartic", "theta2^4 + theta4^4 = theta3^4", 1e-12,
                  _check_jacobi_quartic, (0.3j, 0.2 + 0.5j, 1j, -0.4 + 1.7j, 1 + 2j),
                  tau_grid=True),
    IdentityEntry("eta-shift", "eta(tau+1) = e^(i pi/12) eta(tau)", 1e-12,
                  _check_eta_shift, (0.35j, 0.5 + 0.8j, -0.3 + 1.2j, 2.5j, 0.1 + 0.6j),
                  tau_grid=True),
    IdentityEntry("sqrt-ratio", "sqrt_theta_ratio(tau)^2 = theta2/theta3", 1e-12,
                  _check_sqrt_ratio, (0.5j, 0.3 + 0.9j, -0.2 + 2.2j, 1.5j, 0.8j),
                  tau_grid=True),
    IdentityEntry("schwarz-chi", "[chi,tau] = -(1/2)(chi^2+1)^2/(chi^3-chi)^2", _TAU_TOL,
                  _schwarz_point_check(LEMNISCATIC_CHI_EQUATION, hauptmodul_lemniscatic),
                  (1.2j, 1.1j, 1.3j, 0.1 + 1.2j, -0.1 + 1.25j), tau_grid=True),
    IdentityEntry("schwarz-z", "[z,tau] = -(1/2) z(z^3+8)/(z^3-1)^2", _TAU_TOL,
                  _schwarz_point_check(EQUIANHARMONIC_Z_EQUATION, hauptmodul_equianharmonic),
                  (0.5j, 0.55j, 0.6j, 0.05 + 0.55j, -0.05 + 0.6j), tau_grid=True),
    IdentityEntry("schwarz-u-lemn", "[u,tau] = -2 P(2u; 4,0) for the lemniscatic u(tau)",
                  _TAU_TOL, _schwarz_point_check(_Q_LEMN, u_lemniscatic),
                  (1 + 0.8j, 1 + 0.9j, -1 + 0.85j, 1 + 0.75j, 0.98 + 0.8j), tau_grid=True),
    IdentityEntry("schwarz-u-equi-root", "[u,tau] = -2 P(2u; 0,4), root form", _TAU_TOL,
                  _schwarz_point_check(_Q_EQUI, u_equianharmonic_root),
                  (0.55j, 0.6j, 0.65j, 0.75j, 0.85j), tau_grid=True),
    IdentityEntry("schwarz-u-equi-rootfree", "[u,tau] = -2 P(2u; 0,4), root-free form",
                  _TAU_TOL, _schwarz_point_check(_Q_EQUI, u_equianharmonic_rootfree),
                  (0.5 + 0.6j, 0.5 + 0.65j, 0.5 + 0.7j, 0.5 + 0.75j, 0.5 + 0.8j),
                  tau_grid=True),
    IdentityEntry("wp-diffeq", "P'^2 = 4P^3 - g2 P - g3 at random points", 5e-13,
                  _check_wp_diffeq, _wp_diffeq_rows()),
    IdentityEntry("wp-roundtrip-lemn", "P(P^-1(x); 4,0) = x", 1e-9,
                  _roundtrip_check(wp_inverse_lemniscatic, LEMNISCATIC), _ROUNDTRIP_LEMN),
    IdentityEntry("wp-roundtrip-equi", "P(P^-1(z); 0,4) = z", 1e-9,
                  _roundtrip_check(wp_inverse_equianharmonic, EQUIANHARMONIC), _ROUNDTRIP_EQUI),
    IdentityEntry("u0-digits", "u0 = i 1.402182105325..., real part exactly 0", 5e-12,
                  _check_u0_digits, _ONE_ROW),
    IdentityEntry("u0-wp-zero", "P(u0; 0,4) = 0", 4e-13, _check_u0_wp_zero, _ONE_ROW),
    IdentityEntry("u0-fk-conventions",
                  "i/(2 3^(1/4)) F(3^(1/4)(sqrt3-1), sin 75) - 3^(-1/4) K(sin 15) = e^(i pi/3) u0",
                  1e-12, _check_u0_fk, _ONE_ROW),
    IdentityEntry("eq6-oracle", "from-zero incomplete integrals vs quadrature (n=1)", 1e-9,
                  _check_integral_row, _EQ6_ROWS),
    IdentityEntry("eq7-oracle", "from-infinity incomplete integrals vs quadrature (n=1)", 1e-9,
                  _check_integral_row, _EQ7_ROWS),
    IdentityEntry("eq12-oracle", "general-n incomplete integrals vs quadrature", 1e-9,
                  _check_integral_row, _EQ12_ROWS),
    IdentityEntry("cover-cubic", "cover satisfies P'^2 = 4P^3 - (5/3)P +- (7/27)sqrt2", 1e-9,
                  _check_cover_cubic,
                  _curve_rows(1, 100, seed=7) + _curve_rows(-1, 100, seed=8)),
    IdentityEntry("k-pm", "k_pm(-1, i) = (1 +- sqrt 2)/2", 1e-14,
                  _check_k_pm, ((_COVER.A, _COVER.B),)),
    IdentityEntry("cover-factored", "cover cubic in factored e-root form", 1e-9,
                  _check_cover_factored,
                  _curve_rows(1, 100, seed=9) + _curve_rows(-1, 100, seed=10)),
    IdentityEntry("cover-branch-point", "the branch point x = 0 goes to the e-root -(k+1)/3",
                  1e-10, _check_cover_branch_point, ((0.0, 0.0, 1), (0.0, 0.0, -1))),
    IdentityEntry("du-reduction", "du/dx quadrature matches the R_F inverse of P", 4e-14,
                  _check_du_reduction, _ARCS),
    IdentityEntry("U-derivative", "dU/dtau = z^m z' / sqrt(z^5 - z)", _TAU_TOL,
                  _check_u_derivative, (1.2j, 1.35j, 1.5j, 1.8j), tau_grid=True),
    IdentityEntry("U-quadrature", "U(0, tau) equals the direct path integral", 1e-8,
                  _check_u_quadrature, ((1.5j, 0),)),
    IdentityEntry("II-oracle", "second-kind increments match quadrature", 1e-8,
                  _check_ii_oracle, _II_SAMPLES),
    IdentityEntry("III-oracle", "third-kind increments match quadrature", 1e-8,
                  _check_iii_oracle, _III_SAMPLES),
)}


def _sample_point(sample) -> complex:
    """Where a sample whose check raised is reported: the sample itself, the
    first item of a table row, or an integral spec's z; else 0j."""
    if isinstance(sample, IncompleteIntegralSpec):
        sample = sample.z
    head = sample[0] if isinstance(sample, tuple) else sample
    return complex(head) if isinstance(head, (int, float, complex)) else 0j


def _run_sample(entry: IdentityEntry, sample, cfg: RunConfig) -> RunRecord:
    """One record per sample, under one error policy: an out-of-domain
    sample is skipped, any other package error fails that sample only, and a
    residual that is not a finite nonnegative real fails."""
    tol = cfg.tolerances.get(entry.name, entry.tolerance)
    try:
        point, residual, meta = entry.check(sample)
    except DomainNotSupported as exc:
        return RunRecord(entry.name, _sample_point(sample), None, tol, "skipped",
                         {"reason": str(exc)})
    except AbeltauError as exc:
        return RunRecord(entry.name, _sample_point(sample), None, tol, "fail",
                         {"error": f"{type(exc).__name__}: {exc}"})
    residual = float(residual)
    status = "pass" if 0.0 <= residual < math.inf and residual <= tol else "fail"  # NaN fails
    return RunRecord(entry.name, complex(point), residual, float(tol), status, meta)


def run_identity(name: str, cfg: RunConfig) -> list[RunRecord]:
    """Evaluate one identity at each of its samples: its (possibly
    overridden) tau grid or its fixed table."""
    entry = REGISTRY[name]
    return [_run_sample(entry, s, cfg) for s in cfg.grids.get(name, entry.samples)]
