"""Registry coverage and the command-line interface (eval / verify / grid)."""

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abeltau
from abeltau import cli, modular, registry
from abeltau.cli import format_complex, main, parse_complex
from abeltau.errors import AccuracyError, DomainError, DomainNotSupported
from abeltau.modular import (
    hauptmodul_equianharmonic,
    hauptmodul_hyperelliptic,
    hauptmodul_lemniscatic,
    sqrt_theta_ratio,
)
from abeltau.numerics import _Jet
from abeltau.registry import (
    REGISTRY,
    IdentityEntry,
    RunRecord,
    run_identity,
)
from abeltau.uniform import (
    EQUIANHARMONIC_Z_EQUATION,
    LEMNISCATIC_CHI_EQUATION,
    eq5_equation,
    schwarz_residual,
    u_hyperelliptic,
    u_lemniscatic,
)
from abeltau.weier import LEMNISCATIC


def _fresh_run(argv):
    """`python -m abeltau argv` in a child importing the same abeltau as this
    process, installed or not."""
    package_root = str(Path(abeltau.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "abeltau", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def _run_at(name, *taus):
    """The records of a tau-grid identity at the given points."""
    return run_identity(name, taus)


EXPECTED_IDENTITIES = {
    "jacobi-quartic", "eta-shift", "sqrt-ratio",
    "schwarz-chi", "schwarz-z",
    "schwarz-u-lemn", "schwarz-u-equi-root", "schwarz-u-equi-rootfree",
    "wp-diffeq", "wp-roundtrip-lemn", "wp-roundtrip-equi",
    "u0-digits", "u0-wp-zero", "u0-fk-conventions",
    "eq6-oracle", "eq7-oracle", "eq12-oracle",
    "cover-cubic", "k-pm", "cover-factored", "cover-branch-point", "du-reduction",
    "U-derivative", "U-quadrature", "II-oracle", "III-oracle",
}


class TestRegistry:
    def test_exact_coverage(self):
        assert set(REGISTRY) == EXPECTED_IDENTITIES

    def test_every_entry_has_one_runner(self):
        checks = [f for f in IdentityEntry._fields if "check" in f]
        assert checks == ["check"]
        for entry in REGISTRY.values():
            assert callable(entry.check) and entry.samples, entry.name
            # an infinite tolerance would pass every record
            assert 0 < entry.tolerance < math.inf, entry.name
            if entry.tau_grid:
                assert all(complex(t).imag > 0 for t in entry.samples), entry.name

    def test_u_quadrature_takes_each_m_against_its_own_integral(self, monkeypatch):
        # U(m, tau) integrates u^(m - 1/2) (u^4 - 1)^(-1/2), so alpha = m + 1/2:
        # every m passes, and the U of the next m fails against it by 1e4 or more
        records = run_identity("U-quadrature")
        assert [r.metadata["m"] for r in records] == [0, 1, 2, 3]
        assert all(r.status == "pass" for r in records), records
        monkeypatch.setattr(registry, "u_hyperelliptic",
                            lambda m, tau: u_hyperelliptic((m + 1) % 4, tau))
        for rec in run_identity("U-quadrature"):
            assert rec.status == "fail" and rec.residual >= 1e4 * rec.tolerance, rec

    def test_integral_table_has_at_least_twelve_rows(self):
        rows = sum(len(run_identity(n)) for n in ("eq6-oracle", "eq7-oracle", "eq12-oracle"))
        assert rows >= 12

    @pytest.mark.parametrize("name", sorted(EXPECTED_IDENTITIES))
    def test_taus_only_for_a_tau_grid_identity(self, name):
        # a table has no tau grid, and an empty grid verifies nothing
        if REGISTRY[name].tau_grid:
            taus, reason = (), "no tau points"
        else:
            taus, reason = (1j,), "no tau-grid form"
        with pytest.raises(DomainError, match=reason):
            run_identity(name, taus)

    def test_every_check_takes_its_sample_alone(self):
        for name, entry in REGISTRY.items():
            point, residual, metadata = entry.check(entry.samples[0])
            assert isinstance(point, (int, float, complex)), name
            assert 0.0 <= residual <= entry.tolerance, name
            assert isinstance(metadata, dict), name

    def test_grid_override_and_skip(self):
        assert [r.status for r in _run_at("schwarz-u-lemn", 2j)] == ["skipped"]

    def test_u_derivative_skips_tau_outside_the_2f1_region(self):
        # theta2^4/theta3^4 = 0.994 at tau = 0.4i, where |w| = 0.461 > 0.45
        rec, inside = _run_at("U-derivative", 0.4j, 0.5j)
        assert rec.status == "skipped" and rec.residual is None
        assert "|w| > 0.45" in rec.metadata["reason"]
        assert inside.status == "pass"

    # seeded tau of the benchmark rectangle, far up the half-plane, and of
    # the skip edge, where |w| passes 0.45 between 0.4i and 0.5i
    U_DERIVATIVE_TAUS = {
        name: (*fixed, *(complex(rng.uniform(*re), rng.uniform(*im)) for _ in range(n)))
        for rng in [random.Random(20261022)]
        for name, fixed, re, im, n in (
            ("rectangle", (1.2j, 1.5j, 0.05 + 1.7j), (-0.1, 0.1), (1.2, 1.8), 20),
            ("far-up", (250j,), (-0.5, 0.5), (3.0, 250.0), 20),
            ("skip-edge", (), (-0.1, 0.1), (0.38, 0.52), 40))}

    @pytest.mark.parametrize("region", sorted(U_DERIVATIVE_TAUS))
    def test_u_derivative_as_from_the_public_functions(self, region):
        # one set of theta jets serves all of dU(m, .)/dtau, z and
        # sqrt_theta_ratio; the residuals are those of the public functions,
        # bit for bit, and a tau is skipped where every u_hyperelliptic refuses
        seen = set()
        for tau in self.U_DERIVATIVE_TAUS[region]:
            jet = _Jet(tau, 1.0)
            (rec,) = _run_at("U-derivative", tau)
            try:
                slopes = [u_hyperelliptic(m, jet).derivatives()[1] for m in range(4)]
            except DomainNotSupported:
                seen.add("skipped")
                assert rec.status == "skipped", rec
                continue
            seen.add("served")
            z, z_prime = hauptmodul_hyperelliptic(jet).derivatives()[:2]
            root = sqrt_theta_ratio(tau) * cmath.sqrt(1.0 - z**4)
            for m, lhs in enumerate(slopes):
                rhs = 1j * z**m * (z_prime / root)
                assert rec.metadata[f"m{m}"] == abs(lhs - rhs) / abs(rhs), (tau, m)
        assert seen == ({"served", "skipped"} if region == "skip-edge" else {"served"}), seen

    @pytest.mark.parametrize("tau", [30j, 120j, 250j, 400j, 0.3 + 600j, 1000j, 3000j, 0.3 + 1e5j])
    def test_large_im_tau_gives_records(self, tau):
        # theta2, eta, z^m z' and sqrt_theta_ratio^5 underflow up there;
        # dividing by them raised ZeroDivisionError, and (theta3/theta2)^4 an
        # OverflowError
        for name, entry in REGISTRY.items():
            if entry.tau_grid:
                (rec,) = _run_at(name, tau)
                assert rec.status in ("pass", "fail", "skipped"), rec
                assert rec.status == "pass" or rec.residual is None, rec  # or refused

    def test_u0_fk_conventions_passes(self):
        # the elliptic-integral form lands on the rotated P-zero e^(i pi/3) u0
        (rec,) = run_identity("u0-fk-conventions")
        assert rec.status == "pass" and rec.tolerance == 1e-12
        assert rec.residual <= 1e-12

    def test_every_record_passes_fails_or_is_skipped(self):
        for name in REGISTRY:
            for rec in run_identity(name):
                assert rec.status in ("pass", "fail", "skipped"), (name, rec)
                # the entry's tolerance judges every one of its records
                assert rec.tolerance == REGISTRY[name].tolerance, (name, rec)


TAU_DERIVATIVE_IDENTITIES = ("schwarz-chi", "schwarz-z", "schwarz-u-lemn", "schwarz-u-equi-root",
                             "schwarz-u-equi-rootfree", "U-derivative")


class TestTauDerivativeIdentities:
    """The six identities in tau derivatives report relative residuals, judged
    by one tolerance that a wrong equation or candidate fails by 1e4 or more."""

    def test_one_tolerance(self):
        assert {REGISTRY[name].tolerance for name in TAU_DERIVATIVE_IDENTITIES} == {1e-11}

    @staticmethod
    def _fails_by_1e4(monkeypatch, name, check):
        # every sample of the entry, judged by its tolerance, under check
        entry = REGISTRY[name]
        monkeypatch.setitem(REGISTRY, name, entry._replace(check=check))
        records = run_identity(name)
        assert len(records) == len(entry.samples)
        for rec in records:
            assert rec.status == "fail" and rec.residual >= 1e4 * entry.tolerance, rec

    @pytest.mark.parametrize("name, q, candidate", [
        ("schwarz-chi", EQUIANHARMONIC_Z_EQUATION, hauptmodul_lemniscatic),
        ("schwarz-z", LEMNISCATIC_CHI_EQUATION, hauptmodul_equianharmonic)])
    def test_the_other_hauptmodul_equation_fails(self, monkeypatch, name, q, candidate):
        self._fails_by_1e4(monkeypatch, name,
                           lambda tau: (tau, schwarz_residual(q, candidate, tau), {}))

    def test_a_perturbed_u_fails(self, monkeypatch):
        q = eq5_equation(LEMNISCATIC)
        perturbed = lambda t: u_lemniscatic(t) + 1e-6 * t**3
        self._fails_by_1e4(monkeypatch, "schwarz-u-lemn",
                           lambda tau: (tau, schwarz_residual(q, perturbed, tau), {}))

    def test_a_perturbed_U_fails(self, monkeypatch):
        # U(m, tau) + 1e-6 tau^2 for every m, in the check's own slope pass
        real_slopes, real_check = registry._u_slopes, REGISTRY["U-derivative"].check

        def check(tau):
            monkeypatch.setattr(registry, "_u_slopes", lambda thetas: [
                (u + 1e-6 * tau**2, u_prime + 2e-6 * tau) for u, u_prime in real_slopes(thetas)])
            return real_check(tau)

        self._fails_by_1e4(monkeypatch, "U-derivative", check)


class TestRunRecord:
    """The one record type and its one error policy."""

    @staticmethod
    def _statuses(monkeypatch, residuals):
        entry = IdentityEntry("stub", "residuals as given", 0.5,
                              lambda r: (0j, r, {}), tuple(residuals))
        monkeypatch.setitem(REGISTRY, entry.name, entry)
        return [r.status for r in run_identity(entry.name)]

    def test_status_follows_residual_within_tolerance(self, monkeypatch):
        assert self._statuses(monkeypatch, (0.1, 0.5, 1.0)) == ["pass", "pass", "fail"]

    def test_invalid_residual_fails(self, monkeypatch):
        bad = (math.nan, -1e-3, math.inf)
        assert self._statuses(monkeypatch, bad) == ["fail"] * 3

    def test_raising_table_row_fails_only_that_row(self, monkeypatch):
        entry = REGISTRY["eq6-oracle"]
        raising = {entry.samples[0]: DomainNotSupported("outside"),
                   entry.samples[1]: AccuracyError("budget spent")}

        def check(spec):
            if spec in raising:
                raise raising[spec]
            return entry.check(spec)

        monkeypatch.setitem(REGISTRY, entry.name, entry._replace(check=check))
        recs = run_identity(entry.name)
        assert [r.status for r in recs] == ["skipped", "fail", "pass"]
        assert [r.point for r in recs] == [spec.z for spec in entry.samples]
        assert recs[1].residual is None
        assert recs[1].metadata["error"] == "AccuracyError: budget spent"

    @staticmethod
    def _jsonable(v):
        """v with every complex number as [re, im]."""
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, (list, tuple)):
            return [TestRunRecord._jsonable(x) for x in v]
        if isinstance(v, dict):
            return {k: TestRunRecord._jsonable(x) for k, x in v.items()}
        return v

    @classmethod
    def _reference(cls, rec):
        # the generic encoding the json-lines stream is defined by
        return {
            "identity": rec.identity,
            "point": [rec.point.real, rec.point.imag],
            "residual": rec.residual,
            "tolerance": rec.tolerance,
            "status": rec.status,
            "metadata": cls._jsonable(rec.metadata),
        }

    _text = st.text(st.sampled_from('ab"\\/\n\t\x00\x7fé€τ😀'))
    _float = st.floats()  # NaN and both infinities included
    _complex = st.builds(complex, _float, _float)
    # every kind of value a check may report, nested in lists, tuples and dicts
    _value = st.recursive(
        _float | _text | _complex | st.integers() | st.booleans() | st.none(),
        lambda inner, keys=_text: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                                   | st.dictionaries(keys, inner, max_size=3)),
        max_leaves=8)

    @settings(max_examples=300, deadline=None)
    @given(identity=_text, point=_complex, residual=st.none() | _float, tolerance=_float,
           status=st.sampled_from(("pass", "fail", "skipped")) | _text,
           metadata=st.dictionaries(_text, _value, max_size=4))
    def test_json_line_is_the_generic_encoding(self, identity, point, residual, tolerance,
                                               status, metadata):
        rec = RunRecord(identity, point, residual, tolerance, status, metadata)
        assert rec.to_json_line() == json.dumps(self._reference(rec))

    def test_json_line_refuses_what_json_cannot_write(self):
        with pytest.raises(TypeError):
            RunRecord("x", 0j, 0.0, 1.0, "pass", {"set": {1}}).to_json_line()


class TestConcurrency:
    def test_pure_functions_thread_safe(self):
        # everything is immutable after construction; a concurrent sweep must
        # reproduce the sequential records exactly
        from concurrent.futures import ThreadPoolExecutor

        grid = REGISTRY["schwarz-chi"].samples
        sequential = [_run_at("schwarz-chi", t) for t in grid]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: _run_at("schwarz-chi", t), grid))
        assert len(threaded) == len(sequential) == len(grid)
        for (a,), (b,) in zip(sequential, threaded):
            assert a.residual == b.residual and a.point == b.point


class TestParseFormat:
    @pytest.mark.parametrize("text,value", [
        ("3", 3.0), ("-2.5e-3", -2.5e-3), ("i", 1j), ("-i", -1j),
        ("2i", 2j), ("1+2i", 1 + 2j), ("1.5e-2-2.5i", 0.015 - 2.5j), ("0.8i", 0.8j),
    ])
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("bad", ["", "abc", "(1+2j)", "1 + 2i", "nan", "inf", "1+2x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_complex(bad)

    def test_format(self):
        assert format_complex(1j) == "0+1i"
        assert format_complex(-1 - 2j) == "-1-2i"
        assert format_complex(0) == "0+0i"
        assert format_complex(1.0864348112133082) == "1.08643481121331+0i"


class TestEval:
    def test_theta3_exact_line(self, capsys):
        assert main(["eval", "theta3", "i"]) == 0
        assert capsys.readouterr().out.strip() == "1.08643481121331+0i"

    def test_beta_ones(self, capsys):
        assert main(["eval", "euler_beta", "1", "1"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("+0i")
        assert abs(parse_complex(printed) - 1.0) < 1e-12

    def test_u0_digits_prefix(self, capsys):
        assert main(["eval", "u0_constant"]) == 0
        assert capsys.readouterr().out.strip().startswith("0+1.402182105325")

    def test_wp_with_invariants(self, capsys):
        assert main(["eval", "wp", "0.001", "4", "0"]) == 0
        v = parse_complex(capsys.readouterr().out.strip())
        assert abs(v - 1e6) < 1.0

    def test_unknown_function_exits_2(self, capsys):
        assert main(["eval", "nosuch", "1"]) == 2

    def test_bad_arity_exits_2(self, capsys):
        assert main(["eval", "theta3"]) == 2
        assert main(["eval", "theta3", "i", "i"]) == 2

    def test_bad_literal_exits_2(self, capsys):
        assert main(["eval", "theta3", "fish"]) == 2

    def test_domain_error_exits_3(self, capsys):
        assert main(["eval", "gauss_2f1", "0.5", "0.25", "1.25", "5"]) == 3
        assert "DomainNotSupported" in capsys.readouterr().err
        # an overflowing literal parses to inf, which is no integer m
        assert main(["eval", "u_hyperelliptic", "1e999", "1i"]) == 3
        assert "DomainError" in capsys.readouterr().err
        # sigma's series overflowed here (a traceback, exit 1), and zeta took
        # a Cauchy circle of radius 1e-10 (a value 3.4e-8 off, exit 0)
        for args in (["weier_sigma", "0.5", "1e80", "0"], ["weier_zeta", "1.9989999999", "4", "0"]):
            assert main(["eval", *args]) == 3
            assert "DomainNotSupported" in capsys.readouterr().err

    def test_pfaff_pole_exits_3(self, capsys):
        # z/(z - 1) divided by zero at z = 1
        assert main(["eval", "gauss_2f1", "0.5", "0.25", "1.25", "1"]) == 3
        assert "DomainNotSupported" in capsys.readouterr().err

    @pytest.mark.parametrize("name, literal", [
        ("theta3", "-0.5+1i"), ("gamma_fn", "-1e-3"), ("gamma_fn", "-2i"), ("gamma_fn", "-i"),
        ("gamma_fn", "-0.5-0.5i"),
    ])
    def test_negative_complex_literals(self, capsys, name, literal):
        # argparse took these for options and exited 2: "unrecognized arguments"
        assert main(["eval", name, "--", literal]) == 0
        expected = capsys.readouterr()
        assert main(["eval", name, literal]) == 0
        assert capsys.readouterr() == expected
        assert main(["eval", "theta3", "--bogus"]) == 2

    def test_accuracy_error_exits_3(self, capsys):
        assert main(["eval", "theta2", "0.005i"]) == 3

    def test_module_entrypoint(self):
        proc = _fresh_run(["eval", "theta3", "i"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.08643481121331+0i"

    def test_one_process_matches_fresh_runs(self, capsys):
        # the parser is built once per process; reusing it changes no output
        region = "-0.1,0.1,1.1,1.3"
        runs = (["grid", "schwarz-chi", "--region", region, "--steps", "2"],
                ["verify", "--steps", "2"],
                ["verify", "schwarz-chi", "U-derivative", "--output", "json"],
                ["grid", "schwarz-chi", "--region", region, "--steps", "2"])
        for argv in runs:
            code = main(list(argv))
            out, err = capsys.readouterr()
            proc = _fresh_run(argv)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert cli._build_parser.cache_info().currsize == 1


class TestUsage:
    @staticmethod
    def _captured(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call()
            except SystemExit as exc:
                code = int(exc.code or 0)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(ident=st.text(max_size=12), region=st.text(max_size=12),
           steps=st.text("0123456789", min_size=1, max_size=3)
           | st.text("0123456789+-_ .e٣²", max_size=4),
           flags=st.sampled_from((("--region", "--steps"), ("--reg", "--steps"),
                                  ("--region", "--st"), ("--region", "--tol"))))
    @example(ident="schwarz-chi", region="-0.1,0.1,1.1,1.3", steps="2",
             flags=("--region", "--steps"))
    # argparse drops the region "--" of --region=-- and reads region=[]
    @example(ident="", region="--", steps="0", flags=("--region", "--steps"))
    def test_a_sweep_is_read_as_argparse_reads_it(self, ident, region, steps, flags):
        # main reads `grid ID --region R --steps N` without argparse, and
        # hands every other command line to it: what it reads must be what
        # argparse reads
        argv = cli._fold_dashed_values(["grid", ident, flags[0], region, flags[1], steps])
        direct = cli._sweep_args(argv)
        if direct is None:
            return
        assert vars(direct) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["grid"], ["grid", "-h"],
        ["grid", "schwarz-chi", "--steps", "2"],
        ["grid", "schwarz-chi", "--steps", "2", "--bogus"],
        ["grid", "schwarz-chi", "--region", "0,1,1,2", "--steps", "two"],
        ["verify", "--steps", "2"], ["verify", "--output", "xml"], ["eval", "theta3", "--bogus"],
    ])
    def test_usage_errors_match_the_full_parse(self, argv):
        # what main prints and its exit code are those of argparse's one full parse
        parser = cli._build_parser()
        expected = self._captured(lambda: parser.parse_args(list(argv)))
        assert expected[0] in (0, 2)  # the parse exited
        assert self._captured(lambda: main(list(argv))) == expected


_GRID_ARGV = ["grid", "schwarz-chi", "--region", "0,0,1.2,1.2", "--steps", "1"]
REMOVED_RUN_OPTIONS = [
    ["grid", "U-derivative", "--region", "0,0,1.2,1.2", "--steps", "1", "--m", "1"],
    ["verify", "u0-digits", "--output", "json-lines"], [*_GRID_ARGV, "--output", "json"],
    *([*argv, *removed] for argv in (["verify", "u0-digits"], _GRID_ARGV)
      for removed in (["--tol", "1e-9"], ["--config", "x"], ["--report", "x"])),
]


class TestVerify:
    def test_single_identity_passes(self, capsys):
        assert main(["verify", "jacobi-quartic"]) == 0
        out = capsys.readouterr().out
        assert "summary: 5 passed, 0 failed" in out

    def test_u0_digits(self, capsys):
        assert main(["verify", "u0-digits"]) == 0

    def test_overtight_tolerance_fails(self, monkeypatch, capsys):
        name = "jacobi-quartic"
        monkeypatch.setitem(REGISTRY, name, REGISTRY[name]._replace(tolerance=1e-30))
        assert main(["verify", name, "--output", "json"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert len(records) == 5 and all(r["status"] == "fail" for r in records), records

    def test_unknown_identity_exits_2(self, capsys):
        assert main(["verify", "bogus-id"]) == 2

    def test_json_lines_schema(self, capsys):
        assert main(["verify", "sqrt-ratio", "--output", "json"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in out_lines[:-1]]  # last line is the summary
        assert len(records) == 5
        for rec in records:
            assert set(rec) == {"identity", "point", "residual", "tolerance",
                                "status", "metadata"}
            assert rec["status"] == "pass"
            assert isinstance(rec["point"], list) and len(rec["point"]) == 2
            assert rec["metadata"] == {}  # the check reports nothing; no settings echoed

    @pytest.mark.parametrize("argv", REMOVED_RUN_OPTIONS, ids=" ".join)
    def test_removed_run_options_exit_2(self, capsys, argv):
        # --output on verify is the one way to set the output mode, U-derivative
        # always certifies every m, and every record is judged by its entry's
        # tolerance; verify --output json > PATH writes what --report wrote
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err, argv

    def test_numerical_settings_are_not_options(self, capsys):
        # the derivatives come from Taylor jets, which have no setting to report
        assert main(["verify", "schwarz-chi", "--output", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[:-1]
        assert lines
        for line in lines:
            assert json.loads(line)["metadata"] == {}
        for flag, value in (("--stencil-radius", "0.02"), ("--stencil-nodes", "128"),
                            ("--max-terms", "100")):
            assert main(["verify", "schwarz-chi", flag, value]) == 2


# The whole rectangles the tau-grid benchmark draws its 2x2 sweeps from:
# centre range plus or minus half-width (benchmarks/workloads.py, _GRID_RECTS).
BENCHMARK_RECTS = {
    "schwarz-chi": (-0.1, 0.1, 1.1, 1.3),
    "schwarz-z": (-0.05, 0.05, 0.5, 0.6),
    "schwarz-u-lemn": (0.95, 1.05, 0.75, 0.9),
    "schwarz-u-equi-root": (-0.02, 0.02, 0.63, 0.77),
    "schwarz-u-equi-rootfree": (0.45, 0.55, 0.6, 0.8),
    "U-derivative": (-0.1, 0.1, 1.2, 1.8),
}


class TestGrid:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_RECTS))
    def test_benchmark_rectangles_never_fail(self, name):
        re0, re1, im0, im1 = BENCHMARK_RECTS[name]
        taus = [complex(re0 + (re1 - re0) * k / 4, im0 + (im1 - im0) * j / 4)
                for j in range(5) for k in range(5)]
        records = _run_at(name, *taus)
        assert len(records) == 25
        for rec in records:
            assert rec.status != "fail", rec

    @pytest.mark.parametrize("name, region", [("schwarz-chi", "-0.1,0.1,1.1,1.3"),
                                              ("U-derivative", "-0.05,0.05,1.2,1.8")])
    def test_grid_is_verify_on_the_generated_points(self, capsys, name, region):
        # one run path: a grid sweep writes the records of the identity's run
        # on the same points
        assert main(["grid", name, "--region", region, "--steps", "3"]) == 0
        grid_out = capsys.readouterr().out.splitlines()
        points = [complex(*json.loads(line)["point"]) for line in grid_out]
        assert len(grid_out) == 9
        assert grid_out == [r.to_json_line() for r in run_identity(name, points)]

    def test_schwarz_chi_rectangle(self, capsys):
        assert main(["grid", "schwarz-chi", "--region", "-0.2,0.2,1.0,1.4",
                     "--steps", "5"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        evaluated = [r for r in records if r["status"] == "pass"]
        assert len(records) == 25 and len(evaluated) >= 20
        assert all(r["residual"] <= 1e-11 for r in evaluated)

    def test_schwarz_z_sweep_up_to_im_tau_1_2(self, capsys):
        # z(tau) nears the pole z = 1 of Q up the imaginary axis: at Im tau =
        # 1.2 |Q| ~ 2.2e4, and an absolute residual of 2e-8 to 4e-8, rounding
        # there, failed 7 of these points against a tolerance of 1e-8
        assert main(["grid", "schwarz-z", "--region=-0.2,0.2,0.4,1.2", "--steps", "13"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 169 and all(r["status"] == "pass" for r in records)

    @pytest.mark.parametrize("name", ["jacobi-quartic", "eta-shift", "sqrt-ratio"])
    def test_the_cusp_band_passes(self, capsys, name):
        # the tau-grid benchmark's fixed band, down to Im tau = 1e-2 at the
        # cusps: before the modular reduction 28 of these 192 records failed
        assert main(["grid", name, "--region=-1,1,0.01,0.3", "--steps", "8"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 64 and all(r["status"] == "pass" for r in records)
        assert captured.err.startswith("summary: 64 passed, 0 failed,")

    @pytest.mark.parametrize("tau", [1 + 0.01j, 1j])
    def test_jacobi_quartic_sees_a_perturbed_theta4(self, monkeypatch, tau):
        # the residual's scale |theta2^4| + |theta4^4| does not vanish at the
        # cusp 1, where theta3^4 does, and theta4 there is as large as theta2
        real = registry.theta4
        monkeypatch.setattr(registry, "theta4", lambda t: real(t) * (1.0 + 1e-9))
        (rec,) = _run_at("jacobi-quartic", tau)
        assert rec.status == "fail" and rec.residual >= 1e3 * rec.tolerance, rec

    def test_schwarz_z_sees_a_perturbed_eta_series(self, monkeypatch):
        # tau and tau + 1 reduce to the same point unless Re tau = 1/2 mod 1,
        # so eta-shift sees an error in eta's q-series at 0.5+0.8i alone;
        # schwarz-z, through eta(9 tau)/eta(tau), sees it at every sample
        tables, i = modular._TABLES, modular._IETA
        head, (a, lam, w), *rest = tables[i]
        eta = (head, (a * (1.0 + 1e-6), lam, w), *rest)
        monkeypatch.setattr(modular, "_TABLES", (*tables[:i], eta, *tables[i + 1:]))
        records = run_identity("schwarz-z")
        assert len(records) == 5 and all(r.status == "fail" for r in records), records
        shift = run_identity("eta-shift")
        assert [r.point for r in shift if r.status == "fail"] == [0.5 + 0.8j], shift

    def test_out_of_domain_region_all_skipped(self, capsys):
        assert main(["grid", "schwarz-u-lemn", "--region", "-0.1,0.1,1.9,2.1",
                     "--steps", "3"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 9
        assert all(r["status"] == "skipped" for r in records)
        assert all(r["residual"] is None for r in records)

    def test_u_derivative_records_every_m(self, capsys):
        # each record keeps the residual of every m; the worst one is judged
        assert main(["grid", "U-derivative", "--region", "-0.05,0.05,1.2,1.8",
                     "--steps", "4"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 16
        for rec in records:
            meta = rec["metadata"]
            assert list(meta) == ["branch", "m0", "m1", "m2", "m3"]
            assert rec["residual"] == max(meta[f"m{m}"] for m in range(4)) <= 1e-11

    def test_large_im_tau_gives_records(self, capsys):
        # at 250i z^3 z' underflows; this printed a ZeroDivisionError traceback
        assert main(["grid", "U-derivative", "--region", "0,0,250,250", "--steps", "1"]) in (0, 1)
        (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert record["point"] == [0.0, 250.0]

    def test_summary_line_format(self, capsys):
        # tools that sweep the tau grid rebuild this line, "0 informational"
        # included, from the records and compare it with stderr
        code = main(["grid", "schwarz-u-lemn", "--region", "0.6,1.0,0.8,1.4", "--steps", "2"])
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        counts = {s: sum(r["status"] == s for r in records) for s in ("pass", "fail", "skipped")}
        assert len(records) == 4 and counts["pass"] and counts["skipped"]
        assert captured.err == (f"summary: {counts['pass']} passed, {counts['fail']} failed, "
                                f"0 informational, {counts['skipped']} skipped\n")
        assert code == (1 if counts["fail"] else 0)

    @pytest.mark.parametrize("flag", ["--r", "--re", "--reg", "--regi", "--regio"])
    def test_abbreviated_region_takes_a_negative_bound(self, capsys, flag):
        # argparse takes the prefix for --region; it read -0.1,... as an option
        tail = ["--steps", "2"]
        assert main(["grid", "schwarz-chi", "--region=-0.1,0.1,1.1,1.2", *tail]) == 0
        expected = capsys.readouterr()
        assert main(["grid", "schwarz-chi", flag, "-0.1,0.1,1.1,1.2", *tail]) == 0
        assert capsys.readouterr() == expected

    def test_fixed_identity_rejected(self, capsys):
        assert main(["grid", "u0-digits", "--region", "0,1,1,2", "--steps", "2"]) == 2

    def test_unknown_identity_rejected(self, capsys):
        assert main(["grid", "bogus", "--region", "0,1,1,2", "--steps", "2"]) == 2

    def test_malformed_region_rejected(self, capsys):
        assert main(["grid", "schwarz-chi", "--region", "0,1,2", "--steps", "2"]) == 2
        # a non-finite bound would sweep nan points and print them as bare NaN
        for region in ("0,1e999,0.5,1", "0,nan,0.5,1"):
            assert main(["grid", "jacobi-quartic", "--region", region, "--steps", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "usage error" in captured.err
