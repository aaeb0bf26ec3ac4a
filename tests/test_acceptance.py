"""Acceptance suite: every shipped claim checked at its stated tolerance,
one pass/fail line printed per criterion, driven through the identity
registry (the registry's default grids and tolerances are the contract).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import pytest

from abeltau.registry import _TAU_TOL, REGISTRY, run_identity


def _run_criterion(number, title, identity_names, budget_seconds):
    t0 = time.perf_counter()
    records = []
    for name in identity_names:
        records.extend(run_identity(name))
    elapsed = time.perf_counter() - t0
    failed = [r for r in records if r.status == "fail"]
    skipped = [r for r in records if r.status == "skipped"]
    status = "PASS" if not failed and not skipped else "FAIL"
    print(f"ACCEPTANCE {number:2d} {title}: {status} "
          f"({len(records)} checks, {elapsed:.2f}s, budget {budget_seconds}s)")
    assert not failed, [(r.identity, r.point, r.residual, r.tolerance) for r in failed]
    assert not skipped, [(r.identity, r.point) for r in skipped]
    assert elapsed < budget_seconds, f"{elapsed:.2f}s exceeds the {budget_seconds}s budget"
    return records


def test_criterion_01_u0_digits():
    records = _run_criterion(1, "u0 digits, real part exactly zero", ["u0-digits"], 0.1)
    assert records[0].metadata["real_part_exact_zero"] is True
    assert records[0].tolerance == 5e-12


def test_criterion_02_wp_zero():
    records = _run_criterion(2, "P(u0; 0,4) = 0", ["u0-wp-zero"], 0.1)
    assert records[0].tolerance == 4e-13


def test_criterion_11_u0_elliptic_integral_form():
    # the F/K expression of the P-zero is e^(i pi/3) u0 (DLMF 23.10.17)
    records = _run_criterion(11, "F/K form of u0 = e^(i pi/3) u0 < 1e-12",
                             ["u0-fk-conventions"], 0.1)
    assert len(records) == 1 and records[0].tolerance == 1e-12


def test_criterion_03_hauptmodul_schwarz_residuals():
    # the equianharmonic formula-variant question resolved in favor of the
    # printed Hauptmodul, so schwarz-z asserts rather than reports
    records = _run_criterion(3, "Hauptmodul scaled Schwarz residuals < 1e-11",
                             ["schwarz-chi", "schwarz-z"], 5.0)
    assert all(r.tolerance == _TAU_TOL for r in records)
    assert len(records) == 10


def test_criterion_04_torus_form_residuals():
    records = _run_criterion(4, "[u,tau] = -2 P(2u) scaled residuals < 1e-11",
                             ["schwarz-u-lemn", "schwarz-u-equi-root",
                              "schwarz-u-equi-rootfree"], 10.0)
    assert all(r.tolerance == _TAU_TOL for r in records)
    assert len(records) == 15  # three 5-point grids


def test_criterion_05_integral_identity_oracles():
    records = _run_criterion(5, "incomplete-integral identities vs quadrature < 1e-9",
                             ["eq6-oracle", "eq7-oracle", "eq12-oracle"], 20.0)
    assert len(records) >= 12
    genus2_rows = [r for r in records
                   if r.identity == "eq12-oracle" and r.metadata["n"] == 4]
    assert {r.metadata["alpha"] for r in genus2_rows} == {0.5, 1.5, 2.5, 3.5}


def test_criterion_06_round_trips():
    records = _run_criterion(6, "P(P^-1) round trips < 1e-9",
                             ["wp-roundtrip-lemn", "wp-roundtrip-equi"], 2.0)
    assert len(records) == 20
    assert all(r.tolerance == 1e-9 for r in records)


def test_criterion_07_covering_algebra():
    records = _run_criterion(7, "cover cubic + factored form + k_pm + branch point",
                             ["cover-cubic", "cover-factored", "k-pm", "cover-branch-point"],
                             2.0)
    tolerances = {}
    for r in records:
        tolerances.setdefault(r.identity, []).append(r.tolerance)
    assert len(tolerances["cover-cubic"]) == len(tolerances["cover-factored"]) == 200
    assert tolerances["k-pm"] == [1e-14]
    assert tolerances["cover-branch-point"] == [1e-10, 1e-10]  # one per sign


def test_criterion_08_base_integral_family():
    records = _run_criterion(8, "dU/dtau relative residual < 1e-11 and U quadrature < 1e-8",
                             ["U-derivative", "U-quadrature"], 10.0)
    deriv = [r for r in records if r.identity == "U-derivative"]
    assert len(deriv) == 4
    for r in deriv:
        assert r.tolerance == _TAU_TOL
        assert {"m0", "m1", "m2", "m3"} <= set(r.metadata)


def test_criterion_09_modular_identities():
    records = _run_criterion(9, "Jacobi quartic, eta shift, sqrt ratio < 1e-12",
                             ["jacobi-quartic", "eta-shift", "sqrt-ratio"], 2.0)
    assert all(r.tolerance == 1e-12 for r in records)


def test_criterion_10_second_and_third_kind():
    records = _run_criterion(10, "II and III match quadrature < 1e-8",
                             ["II-oracle", "III-oracle"], 10.0)
    assert len(records) == 4
    lattices = {tuple(r.metadata["invariants"]) for r in records}
    assert lattices == {((4 + 0j), 0j), (0j, (4 + 0j))}


def test_full_registry_under_desk_budget():
    t0 = time.perf_counter()
    failed = []
    for name in REGISTRY:
        for rec in run_identity(name):
            if rec.status == "fail":
                failed.append(rec)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE -- full registry: "
          f"{'PASS' if not failed else 'FAIL'} ({elapsed:.2f}s, budget 120s)")
    assert not failed
    assert elapsed < 120.0
