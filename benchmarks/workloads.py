"""The seeded workloads of the benchmark.

A workload is a pool of *rounds*; a round is a list of ops with the same
composition in every round.  Every op carries its inputs (for the digest), a
thunk that makes the call, and a check against a reference computed before
timing starts.  The cost-driving inputs (Im tau, |z|, |u|, distance to an
endpoint) are drawn by stratified sampling, so the seed moves each input
within its stratum and the spread of op costs hardly depends on it.

An op's verdict is one of
  "ok"     - the output matches its reference;
  "failed" - the program flagged the failure itself: it raised an
             AbeltauError or emitted a record with status "fail";
  "wrong"  - a silently wrong value, or CLI output inconsistent with itself.
             Counted as failed, and makes the run incorrect.

Calls go through module attributes (``abeltau.theta2``, ``cli.main``) at call
time, so the tracing wrappers of ``tracing.py`` see them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

import abeltau
from abeltau import cli

mp.mp.dps = 20


@dataclass(frozen=True)
class Op:
    kind: str
    inputs: tuple
    call: Callable[[], object]
    verdict: Callable[[object], str]


def strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one in each stratum [j/n, (j+1)/n), shuffled."""
    u = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(u)
    return u


# --------------------------------------------------------------------------
# tau-grid: `abeltau grid` sweeps through the CLI

def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _summary(records: list[dict]) -> str:
    counts = {s: sum(r["status"] == s for r in records)
              for s in ("pass", "fail", "informational", "skipped")}
    return (f"summary: {counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['informational']} informational, {counts['skipped']} skipped")


# Rectangles inside the convergence region of each identity: centre re
# range, centre im range and half-widths.  Every corner of every allowed
# rectangle passes at the seed, so no point is skipped.  Each rectangle is
# swept on a 2x2 grid: 4 points, the size of the registry's own default grids
# (4 or 5 points per identity).
_GRID_RECTS = {
    "schwarz-chi": ((-0.05, 0.05), (1.15, 1.25), (0.05, 0.05)),
    "schwarz-z": ((-0.02, 0.02), (0.53, 0.57), (0.03, 0.03)),
    "schwarz-u-lemn": ((0.98, 1.02), (0.79, 0.86), (0.03, 0.04)),
    "schwarz-u-equi-root": ((-0.01, 0.01), (0.68, 0.72), (0.01, 0.05)),
    "schwarz-u-equi-rootfree": ((0.48, 0.52), (0.65, 0.75), (0.03, 0.05)),
    "U-derivative": ((-0.05, 0.05), (1.3, 1.7), (0.05, 0.1)),
}
GRID_STEPS = 2
# The near-cusp band is fixed, swept 8x8 as in the probes that found the
# theta-accuracy defect near the real axis; its failing points are kept in.
CUSP_BAND = (-1.0, 1.0, 0.01, 0.3)
CUSP_IDENTITIES = ("jacobi-quartic", "eta-shift", "sqrt-ratio")
CUSP_STEPS = 8


def _grid_op(ident: str, region: tuple[float, float, float, float], steps: int) -> Op:
    re0, re1, im0, im1 = region
    argv = ["grid", ident, "--region", ",".join(repr(v) for v in region),
            "--steps", str(steps)]
    points = [complex(re0 + (re1 - re0) * k / (steps - 1), im0 + (im1 - im0) * j / (steps - 1))
              for j in range(steps) for k in range(steps)]

    def verdict(result) -> str:
        code, out, err = result
        records = [json.loads(line) for line in out.splitlines()]
        if len(records) != len(points) or err.strip() != _summary(records):
            return "wrong"
        for rec, p in zip(records, points):
            res, tol, status = rec["residual"], rec["tolerance"], rec["status"]
            if rec["identity"] != ident or abs(complex(*rec["point"]) - p) > 1e-12:
                return "wrong"
            if status == "pass" and not (res is not None and res <= tol):
                return "wrong"
            if status == "fail" and res is not None and res <= tol:
                return "wrong"
            if status not in ("pass", "fail", "skipped"):
                return "wrong"
        failing = any(r["status"] == "fail" for r in records)
        if code != (1 if failing else 0):
            return "wrong"
        return "failed" if failing else "ok"

    return Op("grid:" + ident, tuple(argv), lambda: _run_cli(argv), verdict)


def tau_grid_rounds(rng: random.Random, count: int = 30) -> list[list[Op]]:
    """Per round: one seeded rectangle per convergence-region identity, then
    the three cusp-band sweeps.  The cusp ops are the same in every round,
    so each counts once among the distinct ops: 6 * count + 3 in all."""
    centres = {}
    for ident, ((r0, r1), (i0, i1), _) in _GRID_RECTS.items():
        centres[ident] = [(r0 + (r1 - r0) * fr, i0 + (i1 - i0) * fi)
                          for fr, fi in zip(strata(rng, count), strata(rng, count))]
    cusp = [_grid_op(ident, CUSP_BAND, CUSP_STEPS) for ident in CUSP_IDENTITIES]
    rounds = []
    for j in range(count):
        ops = []
        for ident, (_, _, (hr, hi)) in _GRID_RECTS.items():
            cre, cim = centres[ident][j]
            ops.append(_grid_op(ident, (cre - hr, cre + hr, cim - hi, cim + hi), GRID_STEPS))
        rounds.append(ops + cusp)
    return rounds


# --------------------------------------------------------------------------
# library ops: references in mpmath at 20 digits

def _value_op(kind: str, inputs: tuple, call: Callable[[], complex], reference, tol: float) -> Op:
    """Op whose output must lie within tol * max(1, |reference|)."""
    ref = complex(reference)
    if not (math.isfinite(ref.real) and math.isfinite(ref.imag)):
        raise ValueError(f"non-finite reference for {kind}{inputs!r}")
    bound = tol * max(1.0, abs(ref))

    def verdict(out) -> str:
        return "ok" if abs(complex(out) - ref) <= bound else "wrong"

    return Op(kind, inputs, call, verdict)


_E_ROOTS = {
    "lemniscatic": (mp.mpf(1), mp.mpf(0), mp.mpf(-1)),
    "equianharmonic": (mp.mpf(1), mp.expjpi(mp.mpf(2) / 3), mp.expjpi(mp.mpf(-2) / 3)),
}
_INVARIANTS = {"lemniscatic": abeltau.LEMNISCATIC, "equianharmonic": abeltau.EQUIANHARMONIC}


def _jacobi(u, curve, names):
    """Jacobi functions of sqrt(e1 - e3) u with m = (e2 - e3)/(e1 - e3), which
    give P(u) = e3 + (e1 - e3)/sn^2 for any labelling of the roots."""
    e1, e2, e3 = _E_ROOTS[curve]
    a = mp.sqrt(e1 - e3)
    m = (e2 - e3) / (e1 - e3)
    w = a * mp.mpc(u)
    return a, [mp.ellipfun(name, w, m=m) for name in names]


def wp_mp(u, curve):
    e1, _, e3 = _E_ROOTS[curve]
    _, (sn,) = _jacobi(u, curve, ("sn",))
    return e3 + (e1 - e3) / sn**2


def wp_prime_mp(u, curve):
    a, (sn, cn, dn) = _jacobi(u, curve, ("sn", "cn", "dn"))
    return -2 * a**3 * cn * dn / sn**3


# 20-point Gauss-Legendre on [0, 1].  The integrands below are analytic on
# [0, 1] with the nearest singularity at r >= 1.5, so the rule's error is far
# below the 1e-10 checks; the double-precision nodes bound it near 1e-16.
_GL = [(mp.mpf(float((x + 1.0) / 2.0)), float(w / 2.0))
       for x, w in zip(*np.polynomial.legendre.leggauss(20))]


def _laurent_tail_integral(u, curve, weight):
    """int_0^1 weight(r) (P(u r) - 1/(u r)^2) dr."""
    u = mp.mpc(u)
    return mp.fsum(w * weight(r) * (wp_mp(u * r, curve) - 1 / (u * r) ** 2) for r, w in _GL)


def zeta_mp(u, curve):
    """zeta(u) = 1/u - int_0^u (P(s) - 1/s^2) ds."""
    u = mp.mpc(u)
    return 1 / u - u * _laurent_tail_integral(u, curve, lambda r: 1)


def sigma_mp(u, curve):
    """log(sigma(u)/u) = -int_0^u (u - s)(P(s) - 1/s^2) ds."""
    u = mp.mpc(u)
    return u * mp.exp(-u * u * _laurent_tail_integral(u, curve, lambda r: 1 - r))


def _wp_inverse_mp(x, curve):
    x = mp.mpc(x)
    if curve == "lemniscatic":
        return x ** mp.mpf(-0.5) * mp.hyp2f1(0.5, 0.25, 1.25, x**-2)
    return x ** mp.mpf(-0.5) * mp.hyp2f1(0.5, mp.mpf(1) / 6, mp.mpf(7) / 6, x**-3)


def _theta_mp(n: int, tau: complex):
    t = mp.mpc(tau)
    q = mp.expjpi(t)
    if n == 2:  # the package's quarter power is exp(pi i tau/4), not q^(1/4)
        return mp.jtheta(2, 0, q) / q**0.25 * mp.expjpi(t / 4)
    return mp.jtheta(n, 0, q)


# Tolerances, relative with an absolute floor of 1: the package's 12-digit
# target, except P at |u| up to 50, where each of up to 7 duplication steps
# amplifies rounding (3e-10 seen against mpmath).
_TOL = 1e-10
_TOL_WP = 1e-8


def _call(name: str, *args) -> Callable[[], complex]:
    return lambda: getattr(abeltau, name)(*args)


def _eval_mix_round(rng: random.Random, f: dict[str, float]) -> list[Op]:
    """One call of each kind; f holds this round's stratified fraction for
    each cost-driving input."""
    ops: list[Op] = []

    def add(kind, name, args, reference, tol=_TOL):
        ops.append(_value_op(kind, args, _call(name, *args), reference, tol))

    def tau(key):  # Im tau sets the q-series length
        return complex(rng.uniform(-1.0, 1.0), 0.1 + 1.9 * f[key])

    def polar(key, r0, r1, log=False):
        r = r0 * (r1 / r0) ** f[key] if log else r0 + (r1 - r0) * f[key]
        return r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    for n in (2, 3, 4):
        t = tau(f"theta{n}")
        add(f"theta{n}", f"theta{n}", (t,), _theta_mp(n, t))
    t = tau("eta")
    add("dedekind_eta", "dedekind_eta", (t,), mp.eta(mp.mpc(t)))
    t = tau("chi")
    add("hauptmodul_lemniscatic", "hauptmodul_lemniscatic", (t,),
        (_theta_mp(2, t) / _theta_mp(3, t)) ** 2)
    t = tau("z_equi")
    add("hauptmodul_equianharmonic", "hauptmodul_equianharmonic", (t,),
        9 * mp.eta(9 * mp.mpc(t)) ** 3 / mp.eta(mp.mpc(t)) ** 3 + 1)
    t = tau("z_hyper")
    add("hauptmodul_hyperelliptic", "hauptmodul_hyperelliptic", (t,),
        _theta_mp(2, t) / _theta_mp(3, t))

    # 2F1 on the series branch (|z| <= 0.95) and on the Pfaff branch
    # (z = w/(w-1) with |w| <= 0.9, so never on the cut [1, inf))
    abc = (rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5), rng.uniform(1.1, 2.5))
    z = polar("f21_series", 0.1, 0.95)
    add("gauss_2f1:series", "gauss_2f1", (abeltau.HypergeometricParams(*abc), z),
        mp.hyp2f1(*abc, z))
    abc = (rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5), rng.uniform(1.1, 2.5))
    w = polar("f21_pfaff", 0.5, 0.9)
    z = w / (w - 1.0)
    while abs(z) <= 0.95:  # keep to the Pfaff branch: redraw the angle
        w = abs(w) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        z = w / (w - 1.0)
    add("gauss_2f1:pfaff", "gauss_2f1", (abeltau.HypergeometricParams(*abc), z),
        mp.hyp2f1(*abc, z))

    curve = rng.choice(("lemniscatic", "equianharmonic"))
    inv = _INVARIANTS[curve]
    u = polar("wp", 0.1, 50.0, log=True)  # |u| sets the number of halvings
    add("wp", "wp", (u, inv), wp_mp(u, curve), _TOL_WP)
    u = polar("wp_prime", 0.1, 50.0, log=True)
    add("wp_prime", "wp_prime", (u, inv), wp_prime_mp(u, curve), _TOL_WP)
    u = polar("sigma", 0.1, 1.7)
    add("weier_sigma", "weier_sigma", (u, inv), sigma_mp(u, curve))
    u = polar("zeta", 0.1, 1.4)
    add("weier_zeta", "weier_zeta", (u, inv), zeta_mp(u, curve))

    for name in ("wp_inverse_lemniscatic", "wp_inverse_equianharmonic"):
        x = polar(name, 1.1, 6.0)
        add(name, name, (x,), _wp_inverse_mp(x, name.rsplit("_", 1)[1]))

    z = polar("second_kind", 1.1, 6.0)
    add("integral_second_kind", "integral_second_kind", (z, inv),
        -zeta_mp(_wp_inverse_mp(z, curve), curve))
    # III takes a principal log of sigma(u - alpha)/sigma(u); redraw angles
    # that put the ratio within 0.1 of the branch cut, where the package's
    # double-precision ratio and the reference may fall on opposite sides.
    while True:
        z = polar("third_kind", 1.1, 6.0)
        alpha = polar("alpha", 0.3, 0.8)
        u = _wp_inverse_mp(z, curve)
        ratio = sigma_mp(u - alpha, curve) / sigma_mp(u, curve)
        if abs(mp.arg(ratio)) < math.pi - 0.1:
            break
    add("integral_third_kind", "integral_third_kind", (z, abeltau.ThirdKindParam(alpha), inv),
        mp.log(ratio) + zeta_mp(alpha, curve) * u)

    z = complex(rng.uniform(-3.5, 5.0), rng.uniform(-2.0, 2.0))
    add("gamma_fn", "gamma_fn", (z,), mp.gamma(mp.mpc(z)))
    k = polar("K", 0.05, 0.95)
    add("elliptic_K", "elliptic_K", (k,), mp.ellipk(mp.mpc(k) ** 2))
    return ops


_EVAL_MIX_KEYS = ("theta2", "theta3", "theta4", "eta", "chi", "z_equi", "z_hyper",
                  "f21_series", "f21_pfaff", "wp", "wp_prime", "sigma", "zeta",
                  "wp_inverse_lemniscatic", "wp_inverse_equianharmonic",
                  "second_kind", "third_kind", "alpha", "K")


def eval_mix_rounds(rng: random.Random, count: int = 30) -> list[list[Op]]:
    fractions = {key: strata(rng, count) for key in _EVAL_MIX_KEYS}
    return [_eval_mix_round(rng, {key: fr[j] for key, fr in fractions.items()})
            for j in range(count)]


# --------------------------------------------------------------------------
# quadrature: elliptic_F and the incomplete-integral oracle

# The mix follows the quadrature calls the repository makes itself.  Per
# block: elliptic_F at x = +-1 twice (the two tier-1 tests of F(1, k)), at
# 1 - |x| in [0.01, 0.1] twice and at |x| < 0.9 twice (the registry's
# u0-fk-conventions row calls F at |x| = 0.963 and 0.821, twice each), and
# 17 oracle calls (the number of oracle_incomplete_integral calls in one
# `verify all` pass).  Two blocks give 46 distinct ops, 4 of them at x = +-1.
QUAD_BLOCK = {"F:endpoint": 2, "F:near-endpoint": 2, "F:interior": 2, "oracle:singular": 17}
QUAD_BLOCKS = 2
QUAD_CHEAP_ROUNDS = 2
_TOL_F = 1e-10
_TOL_ORACLE = 1e-9  # the registry's tolerance for the same oracle rows


def _elliptic_f_op(kind: str, x: float, k: float) -> Op:
    if abs(x) == 1.0:
        ref = math.copysign(1.0, x) * mp.ellipk(mp.mpf(k) ** 2)
    else:
        ref = mp.ellipf(mp.asin(mp.mpf(x)), mp.mpf(k) ** 2)
    return _value_op(kind, (x, k), lambda: abeltau.elliptic_F(x, k), ref, _TOL_F)


def _oracle_op(rng: random.Random, n: int, base: str, f: tuple[float, float, float]) -> Op:
    """oracle_incomplete_integral on a spec whose base-point exponent lies
    in (-0.8, -0.1), an integrable endpoint singularity; f holds stratified
    fractions for beta, |w| and that exponent."""
    beta = 0.1 + 0.8 * f[0]
    w = (0.3 + 0.6 * f[1]) * cmath.exp(1j * rng.uniform(-0.5, 0.5))
    if base == "from_zero":
        spec = abeltau.IncompleteIntegralSpec(0.2 + 0.7 * f[2], beta, n, w, base)
    else:
        alpha = n * beta - 1.0 + 0.1 + 0.7 * f[2]
        spec = abeltau.IncompleteIntegralSpec(alpha, beta, n, 1.0 / w, base)
    ref = abeltau.incomplete_integral_2f1(spec)
    bound = _TOL_ORACLE * (1.0 + abs(ref))
    return Op("oracle:singular", (spec.alpha, spec.beta, spec.n, spec.z, spec.base),
              lambda: abeltau.oracle_incomplete_integral(spec, tol=1e-10),
              lambda out: "ok" if abs(out - ref) <= bound else "wrong")


def quadrature_rounds(rng: random.Random) -> list[list[Op]]:
    """A first round with QUAD_BLOCKS blocks of QUAD_BLOCK, then
    QUAD_CHEAP_ROUNDS rounds of the same ops without the x = +-1 calls.
    Those calls take most of a pass, and the extra rounds give the cheap ops
    more runs; every distinct op still weighs the same in the metrics.  The
    moduli, the distances to the endpoint and the oracle's exponents and
    |z| are stratified; its n and base point cycle."""
    n = {kind: QUAD_BLOCKS * count for kind, count in QUAD_BLOCK.items()}

    def sign() -> float:
        return rng.choice((1.0, -1.0))
    moduli = iter([0.95 * f for f in strata(
        rng, n["F:endpoint"] + n["F:near-endpoint"] + n["F:interior"])])
    endpoint = [_elliptic_f_op("F:endpoint", sign(), next(moduli))
                for _ in range(n["F:endpoint"])]
    cheap = [_elliptic_f_op("F:near-endpoint", sign() * (1.0 - 10.0 ** -(1.0 + f)), next(moduli))
             for f in strata(rng, n["F:near-endpoint"])]
    cheap += [_elliptic_f_op("F:interior", sign() * 0.9 * f, next(moduli))
              for f in strata(rng, n["F:interior"])]
    m = n["oracle:singular"]
    fractions = zip(strata(rng, m), strata(rng, m), strata(rng, m))
    cheap += [_oracle_op(rng, 1 + j % 4, ("from_zero", "from_infinity")[j // 4 % 2], f)
              for j, f in enumerate(fractions)]
    return [endpoint + cheap] + [cheap] * QUAD_CHEAP_ROUNDS


# name -> (pool builder, rounds the traced run makes)
WORKLOADS = {
    "tau-grid": (tau_grid_rounds, 30),
    "eval-mix": (eval_mix_rounds, 30),
    "quadrature": (quadrature_rounds, 1),
}
