"""The identity registry: one entry per verified identity, each a check run
at every sample of a tau grid or of a fixed table.

The registry is the coverage map of the verification suite; `verify`/`grid`
in the CLI and the acceptance tests all drive it.  Every record passes,
fails or is skipped: a sample outside a uniformizer's convergence region is
refused by that uniformizer's own gate and reported as skipped.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Mapping

from .errors import AbeltauError, DomainError, DomainNotSupported
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
    "identity_names",
    "run_identity",
    "run_identity_at",
]

# Spec-pinned decimal of the P-zero constant (13 digits as published).
U0_IM_DIGITS = 1.402182105325


class RunConfig:
    """Options shared by every registry run; overrides reference registered
    identities only, and grid overrides only identities with a tau grid."""

    def __init__(self, tolerances: dict[str, float] | None = None,
                 grids: dict[str, tuple[complex, ...]] | None = None, output: str = "human",
                 m_filter: int | None = None, report_path: str | None = None):
        self.tolerances = {} if tolerances is None else tolerances
        self.grids = {} if grids is None else grids
        self.output = output
        self.m_filter = m_filter
        self.report_path = report_path

    def __repr__(self) -> str:
        return f"RunConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is RunConfig else NotImplemented

    def validate(self) -> None:
        for key in (*self.tolerances, *self.grids):
            if key not in REGISTRY:
                raise DomainError(f"override references unknown identity {key!r}")
        for key in self.grids:
            self.samples_for(REGISTRY[key])
        for v in self.tolerances.values():
            if not v > 0:
                raise DomainError("tolerance overrides must be positive")
        if self.output not in ("human", "json-lines"):
            raise DomainError(f"unknown output mode {self.output!r}")
        if self.m_filter is not None and self.m_filter not in (0, 1, 2, 3):
            raise DomainError("m filter must be in 0..3")

    def samples_for(self, entry: IdentityEntry) -> tuple:
        if entry.name not in self.grids:
            return entry.samples
        if not entry.tau_grid:
            raise DomainError(f"identity {entry.name!r} has no tau grid to override")
        return self.grids[entry.name]


class RunRecord(_value_type("RunRecord", "identity point residual tolerance status metadata")):
    """One line of the verification stream: one identity at one sample.
    status is pass, fail or skipped; metadata a mapping, by default empty."""

    __slots__ = ()

    def __new__(cls, identity: str, point: complex, residual: float | None, tolerance: float,
                status: str, metadata: Mapping[str, object] | None = None):
        return super().__new__(cls, identity, point, residual, tolerance, status,
                               {} if metadata is None else metadata)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "point": [self.point.real, self.point.imag],
            "residual": self.residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "metadata": {k: _jsonable(v) for k, v in self.metadata.items()},
        }


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


class IdentityEntry(_value_type("IdentityEntry", "name summary tolerance check samples tau_grid",
                                defaults=(False,))):
    """An identity as a check run at each of its samples,
    check(sample, cfg, tol) -> (point, residual, tolerance, metadata).  The
    samples of a tau-grid identity are tau points, which RunConfig.grids may
    replace; those of any other identity are the rows of a fixed table."""

    __slots__ = ()


# --------------------------------------------------------------------------
# tau-grid checks

def _check_jacobi_quartic(tau, cfg, tol):
    t2, t3, t4 = theta2(tau) ** 4, theta3(tau) ** 4, theta4(tau) ** 4
    return tau, abs(t2 + t4 - t3) / abs(t3), tol, {}


def _check_eta_shift(tau, cfg, tol):
    base = dedekind_eta(tau)
    residual = abs(dedekind_eta(tau + 1.0) - cmath.exp(1j * math.pi / 12.0) * base) / abs(base)
    return tau, residual, tol, {}


def _check_sqrt_ratio(tau, cfg, tol):
    target = hauptmodul_hyperelliptic(tau)
    return tau, abs(sqrt_theta_ratio(tau) ** 2 - target) / abs(target), tol, {}


def _schwarz_point_check(q, candidate):
    def check(tau, cfg, tol):
        return tau, schwarz_residual(q, candidate, tau), tol, {}
    return check


_Q_LEMN = eq5_equation(LEMNISCATIC)
_Q_EQUI = eq5_equation(EQUIANHARMONIC)


def _check_u_derivative(tau, cfg, tol):
    """dU/dtau = z^m z'(tau) / sqrt(z^5 - z) with z = theta2/theta3 and the
    root branch fixed by sqrt_theta_ratio, s = sqrt(2) theta2(tau)/theta2(tau/2):
    1/sqrt(z^5-z) = i/(s sqrt(1-z^4)).  Every U(m, .), z and s come from one
    set of theta jets in tau, whose gate refuses tau outside the theta-ratio
    region."""
    thetas = _hyperelliptic_thetas(_Jet(complex(tau), 1.0))
    t2, t3, t2_half, _ = thetas
    ms = (cfg.m_filter,) if cfg.m_filter is not None else (0, 1, 2, 3)
    lhs = {m: _u_hyperelliptic(m, thetas).derivatives()[1] for m in ms}
    z, z_prime = (t2 / t3).derivatives()[:2]
    root = (math.sqrt(2.0) * t2 / t2_half).derivatives()[0] * cmath.sqrt(1.0 - z**4)
    per_m = {}
    for m in ms:
        rhs = 1j * z**m * z_prime / root
        per_m[f"m{m}"] = abs(lhs[m] - rhs) / abs(rhs)
    return tau, max(per_m.values()), tol, {"branch": "sqrt_theta_ratio", **per_m}


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


def _check_wp_diffeq(row, cfg, tol):
    u, inv = row
    p = wp(u, inv)
    pp = wp_prime(u, inv)
    residual = abs(pp * pp - (4.0 * p**3 - inv.g2 * p - inv.g3)) / (1.0 + abs(p) ** 3)
    return u, residual, tol, {"invariants": inv.as_tuple}


_ROUNDTRIP_LEMN = (2, 3, 5, 10, 2j, 3j, -2 + 2j, 4 - 3j, 1.5 + 1.5j, 6 + 0.5j)
_ROUNDTRIP_EQUI = (2, 3, 4, 10, 2j, 5j, -2 + 2j, 3 - 2j, 1.2 + 1.2j, 1.5)


def _roundtrip_check(inverse, inv):
    def check(x, cfg, tol):
        u = inverse(complex(x))
        return x, abs(wp(u, inv) - x), tol, {"u": u, "invariants": inv.as_tuple}
    return check


def _check_u0_digits(_, cfg, tol):
    u0 = u0_constant()
    residual = max(abs(u0.imag - U0_IM_DIGITS), abs(u0.real))
    return u0, residual, tol, {"real_part_exact_zero": u0.real == 0.0}


def _check_u0_wp_zero(_, cfg, tol):
    u0 = u0_constant()
    return u0, abs(wp(u0, EQUIANHARMONIC)), tol, {}


def _check_u0_fk(_, cfg, tol):
    """i/(2 3^(1/4)) F(3^(1/4)(sqrt3 - 1), sin 75) - 3^(-1/4) K(sin 15), F and K
    taking the modulus, is the rotated P-zero e^(i pi/3) u0: by homogeneity
    (DLMF 23.10.17) P(lambda z; lambda^-4 g2, lambda^-6 g3) = lambda^-2 P(z; g2, g3),
    and with g2 = 0 and lambda = e^(i pi/3), lambda^-6 = 1."""
    x = 3.0 ** 0.25 * (math.sqrt(3.0) - 1.0)
    sin75 = (math.sqrt(6.0) + math.sqrt(2.0)) / 4.0
    sin15 = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(2.0))
    value = 1j / (2.0 * 3.0**0.25) * elliptic_F(x, sin75) - 3.0 ** -0.25 * elliptic_K(sin15)
    return value, abs(value - cmath.exp(1j * math.pi / 3.0) * u0_constant()), tol, {}


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


def _check_integral_row(spec, cfg, tol):
    value = incomplete_integral_2f1(spec)
    oracle = oracle_incomplete_integral(spec, tol=1e-10)
    residual = abs(value - oracle) / (1.0 + abs(value))
    return spec.z, residual, tol, {"alpha": spec.alpha, "beta": spec.beta,
                                   "n": spec.n, "base": spec.base, "value": value}


_COVER = CoverConstants.from_parameters(-1.0, 1j)
_KP_EXPECT = (1.0 + math.sqrt(2.0)) / 2.0
_KM_EXPECT = (1.0 - math.sqrt(2.0)) / 2.0
_K_PM_ROW = (_COVER.A, _COVER.B)


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


def _check_cover_cubic(row, cfg, tol):
    if row == _K_PM_ROW:
        kp, km = k_pm(*row)
        residual = max(abs(kp - _KP_EXPECT), abs(km - _KM_EXPECT))
        return row[0], residual, 1e-14, {"check": "k_pm(-1, i) = (1 +- sqrt 2)/2"}
    x, y, sign = row
    inv = _COVER.quotient_invariants(sign)
    P, Pp = covering_map(CurvePoint(x, y, sign), _COVER)
    residual = abs(Pp * Pp - (4.0 * P**3 - inv.g2 * P - inv.g3))
    return x, residual, tol, {"sign": sign, "invariants": inv.as_tuple}


def _check_cover_factored(row, cfg, tol):
    x, y, sign = row
    e1, e2, e3 = _COVER.branch(sign)[2]
    P, Pp = covering_map(CurvePoint(x, y, sign), _COVER)
    if y == 0:  # the branch point x = 0 maps to the 2-torsion value e1 = -(k+1)/3
        return x, max(abs(Pp), abs(P - e1)), 1e-10, {
            "sign": sign, "check": "branch point x=0 -> e-root -(k+1)/3"}
    return x, abs(Pp * Pp - 4.0 * (P - e1) * (P - e2) * (P - e3)), tol, {"sign": sign}


_ARCS = ((1.8 + 0.4j, 0.12 * cmath.exp(0.3j), 1), (1.6 - 0.5j, 0.12 * cmath.exp(-0.2j), -1))


def _check_du_reduction(row, cfg, tol):
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
    return x0, residual, tol, {"sign": sign, "arc": dx, "delta_u": delta_u}


def _check_u_quadrature(row, cfg, tol):
    tau, m = row
    z = hauptmodul_hyperelliptic(tau)
    value = u_hyperelliptic(m, tau)
    oracle = oracle_incomplete_integral(IncompleteIntegralSpec(0.5, 0.5, 4, z, "from_zero"),
                                        tol=1e-10)
    return tau, abs(value - oracle), tol, {"m": m, "z": z, "value": value}


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


def _check_ii_oracle(row, cfg, tol):
    z1, z2, inv = row
    s = _branch_sign(inv, complex(z1))
    quad = contour_quadrature(lambda z: z / (s * _curve_w(inv, z)), [z1, z2], 1e-11)
    delta = integral_second_kind(z2, inv) - integral_second_kind(z1, inv)
    return z1, abs(delta - quad), tol, {"invariants": inv.as_tuple, "path": [z1, z2],
                                        "w_branch_sign": s}


# (z1, z2, alpha, invariants)
_III_SAMPLES = ((3.0, 3.8, 0.5, LEMNISCATIC), (2.0, 2.5, 0.6, EQUIANHARMONIC))


def _check_iii_oracle(row, cfg, tol):
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
    return z1, abs(delta - quad), tol, {"invariants": inv.as_tuple, "alpha": alpha,
                                        "path": [z1, z2], "w_branch_sign": s}


# --------------------------------------------------------------------------
# registry

_ONE_ROW = (None,)

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
    IdentityEntry("schwarz-chi", "[chi,tau] = -(1/2)(chi^2+1)^2/(chi^3-chi)^2", 1e-8,
                  _schwarz_point_check(LEMNISCATIC_CHI_EQUATION, hauptmodul_lemniscatic),
                  (1.2j, 1.1j, 1.3j, 0.1 + 1.2j, -0.1 + 1.25j), tau_grid=True),
    IdentityEntry("schwarz-z", "[z,tau] = -(1/2) z(z^3+8)/(z^3-1)^2", 1e-8,
                  _schwarz_point_check(EQUIANHARMONIC_Z_EQUATION, hauptmodul_equianharmonic),
                  (0.5j, 0.55j, 0.6j, 0.05 + 0.55j, -0.05 + 0.6j), tau_grid=True),
    IdentityEntry("schwarz-u-lemn", "[u,tau] = -2 P(2u; 4,0) for the lemniscatic u(tau)", 1e-7,
                  _schwarz_point_check(_Q_LEMN, u_lemniscatic),
                  (1 + 0.8j, 1 + 0.9j, -1 + 0.85j, 1 + 0.75j, 0.98 + 0.8j), tau_grid=True),
    IdentityEntry("schwarz-u-equi-root", "[u,tau] = -2 P(2u; 0,4), root form", 1e-7,
                  _schwarz_point_check(_Q_EQUI, u_equianharmonic_root),
                  (0.55j, 0.6j, 0.65j, 0.75j, 0.85j), tau_grid=True),
    IdentityEntry("schwarz-u-equi-rootfree", "[u,tau] = -2 P(2u; 0,4), root-free form", 1e-7,
                  _schwarz_point_check(_Q_EQUI, u_equianharmonic_rootfree),
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
                  _curve_rows(1, 100, seed=7) + _curve_rows(-1, 100, seed=8) + (_K_PM_ROW,)),
    IdentityEntry("cover-factored", "cover cubic in factored e-root form", 1e-9,
                  _check_cover_factored,
                  _curve_rows(1, 100, seed=9) + ((0.0, 0.0, 1),)
                  + _curve_rows(-1, 100, seed=10) + ((0.0, 0.0, -1),)),
    IdentityEntry("du-reduction", "du/dx quadrature matches the R_F inverse of P", 4e-14,
                  _check_du_reduction, _ARCS),
    IdentityEntry("U-derivative", "dU/dtau = z^m z' / sqrt(z^5 - z)", 1e-6,
                  _check_u_derivative, (1.2j, 1.35j, 1.5j, 1.8j), tau_grid=True),
    IdentityEntry("U-quadrature", "U(0, tau) equals the direct path integral", 1e-8,
                  _check_u_quadrature, ((1.5j, 0),)),
    IdentityEntry("II-oracle", "second-kind increments match quadrature", 1e-8,
                  _check_ii_oracle, _II_SAMPLES),
    IdentityEntry("III-oracle", "third-kind increments match quadrature", 1e-8,
                  _check_iii_oracle, _III_SAMPLES),
)}


def identity_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


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
        point, residual, tol, meta = entry.check(sample, cfg, tol)
    except DomainNotSupported as exc:
        return RunRecord(entry.name, _sample_point(sample), None, tol, "skipped",
                         {"reason": str(exc)})
    except AbeltauError as exc:
        return RunRecord(entry.name, _sample_point(sample), None, tol, "fail",
                         {"error": f"{type(exc).__name__}: {exc}"})
    residual = float(residual)
    status = "pass" if 0.0 <= residual < math.inf and residual <= tol else "fail"  # NaN fails
    return RunRecord(entry.name, complex(point), residual, float(tol), status, meta)


def run_identity_at(name: str, tau: complex, cfg: RunConfig) -> RunRecord:
    """Evaluate one tau-grid identity at one point."""
    entry = REGISTRY[name]
    if not entry.tau_grid:
        raise DomainError(f"identity {name!r} has no tau-grid form")
    return _run_sample(entry, tau, cfg)


def run_identity(name: str, cfg: RunConfig) -> list[RunRecord]:
    """Evaluate one identity at each of its samples: its (possibly
    overridden) tau grid or its fixed table."""
    entry = REGISTRY[name]
    return [_run_sample(entry, s, cfg) for s in cfg.samples_for(entry)]
