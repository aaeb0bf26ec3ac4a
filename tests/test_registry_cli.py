"""Registry coverage and the command-line interface (eval / verify / grid)."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abeltau
from abeltau import cli
from abeltau.cli import format_complex, main, parse_complex
from abeltau.errors import AccuracyError, DomainError, DomainNotSupported
from abeltau.modular import hauptmodul_hyperelliptic, sqrt_theta_ratio
from abeltau.numerics import _Jet
from abeltau.registry import REGISTRY, IdentityEntry, RunConfig, run_identity, run_identity_at
from abeltau.uniform import u_hyperelliptic


def _fresh_run(argv):
    """`python -m abeltau argv` in a child importing the same abeltau as this
    process, installed or not."""
    package_root = str(Path(abeltau.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "abeltau", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


EXPECTED_IDENTITIES = {
    "jacobi-quartic", "eta-shift", "sqrt-ratio",
    "schwarz-chi", "schwarz-z",
    "schwarz-u-lemn", "schwarz-u-equi-root", "schwarz-u-equi-rootfree",
    "wp-diffeq", "wp-roundtrip-lemn", "wp-roundtrip-equi",
    "u0-digits", "u0-wp-zero", "u0-fk-conventions",
    "eq6-oracle", "eq7-oracle", "eq12-oracle",
    "cover-cubic", "cover-factored", "du-reduction",
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
            if entry.tau_grid:
                assert all(complex(t).imag > 0 for t in entry.samples), entry.name

    def test_integral_table_has_at_least_twelve_rows(self):
        cfg = RunConfig()
        rows = sum(len(run_identity(n, cfg)) for n in ("eq6-oracle", "eq7-oracle", "eq12-oracle"))
        assert rows >= 12

    def test_config_validation(self):
        cfg = RunConfig(tolerances={"no-such-identity": 1e-8})
        with pytest.raises(DomainError):
            cfg.validate()
        cfg = RunConfig(tolerances={"jacobi-quartic": -1.0})
        with pytest.raises(DomainError):
            cfg.validate()
        cfg = RunConfig(output="yaml")
        with pytest.raises(DomainError):
            cfg.validate()
        cfg = RunConfig(grids={"u0-digits": (1j,)})  # a table has no tau grid
        with pytest.raises(DomainError):
            cfg.validate()
        with pytest.raises(DomainError):
            run_identity("u0-digits", cfg)

    def test_grid_override_and_skip(self):
        cfg = RunConfig(grids={"schwarz-u-lemn": (2j,)})
        recs = run_identity("schwarz-u-lemn", cfg)
        assert [r.status for r in recs] == ["skipped"]

    def test_u_derivative_skips_tau_outside_the_theta_ratio_region(self):
        # |theta2^4/theta3^4| = 0.97 > 0.95 at tau = 0.5i
        rec = run_identity_at("U-derivative", 0.5j, RunConfig())
        assert rec.status == "skipped" and rec.residual is None
        assert "theta2^4/theta3^4" in rec.metadata["reason"]

    @pytest.mark.parametrize("tau", [1.2j, 1.5j, 0.05 + 1.7j])
    def test_u_derivative_as_from_the_public_functions(self, tau):
        # one set of theta jets serves all of U(m, .), z and sqrt_theta_ratio;
        # the residuals are those of the public functions, bit for bit
        jet = _Jet(tau, 1.0)
        z, z_prime = hauptmodul_hyperelliptic(jet).derivatives()[:2]
        root = sqrt_theta_ratio(tau) * cmath.sqrt(1.0 - z**4)
        rec = run_identity_at("U-derivative", tau, RunConfig())
        for m in range(4):
            rhs = 1j * z**m * z_prime / root
            lhs = u_hyperelliptic(m, jet).derivatives()[1]
            assert rec.metadata[f"m{m}"] == abs(lhs - rhs) / abs(rhs)

    def test_point_runner_rejects_fixed_identities(self):
        with pytest.raises(DomainError):
            run_identity_at("u0-digits", 1j, RunConfig())

    def test_u0_fk_conventions_passes(self):
        # the elliptic-integral form lands on the rotated P-zero e^(i pi/3) u0
        (rec,) = run_identity("u0-fk-conventions", RunConfig())
        assert rec.status == "pass" and rec.tolerance == 1e-12
        assert rec.residual <= 1e-12

    def test_every_record_passes_fails_or_is_skipped(self):
        cfg = RunConfig()
        for name in REGISTRY:
            for rec in run_identity(name, cfg):
                assert rec.status in ("pass", "fail", "skipped"), (name, rec)


class TestRunRecord:
    """The one record type and its one error policy."""

    @staticmethod
    def _statuses(monkeypatch, residuals):
        entry = IdentityEntry("stub", "residuals as given", 0.5,
                              lambda r, cfg, tol: (0j, r, tol, {}), tuple(residuals))
        monkeypatch.setitem(REGISTRY, entry.name, entry)
        return [r.status for r in run_identity(entry.name, RunConfig())]

    def test_status_follows_residual_within_tolerance(self, monkeypatch):
        assert self._statuses(monkeypatch, (0.1, 0.5, 1.0)) == ["pass", "pass", "fail"]

    def test_invalid_residual_fails(self, monkeypatch):
        bad = (math.nan, -1e-3, math.inf)
        assert self._statuses(monkeypatch, bad) == ["fail"] * 3

    def test_raising_table_row_fails_only_that_row(self, monkeypatch):
        entry = REGISTRY["eq6-oracle"]
        raising = {entry.samples[0]: DomainNotSupported("outside"),
                   entry.samples[1]: AccuracyError("budget spent")}

        def check(spec, cfg, tol):
            if spec in raising:
                raise raising[spec]
            return entry.check(spec, cfg, tol)

        monkeypatch.setitem(REGISTRY, entry.name, entry._replace(check=check))
        recs = run_identity(entry.name, RunConfig())
        assert [r.status for r in recs] == ["skipped", "fail", "pass"]
        assert [r.point for r in recs] == [spec.z for spec in entry.samples]
        assert recs[1].residual is None
        assert recs[1].metadata["error"] == "AccuracyError: budget spent"


class TestConcurrency:
    def test_pure_functions_thread_safe(self):
        # everything is immutable after construction; a concurrent sweep must
        # reproduce the sequential records exactly
        from concurrent.futures import ThreadPoolExecutor

        cfg = RunConfig()
        grid = REGISTRY["schwarz-chi"].samples
        sequential = [run_identity_at("schwarz-chi", t, cfg) for t in grid]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: run_identity_at("schwarz-chi", t, cfg), grid))
        for a, b in zip(sequential, threaded):
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


class TestVerify:
    def test_single_identity_passes(self, capsys):
        assert main(["verify", "jacobi-quartic"]) == 0
        out = capsys.readouterr().out
        assert "summary: 5 passed, 0 failed" in out

    def test_u0_digits(self, capsys):
        assert main(["verify", "u0-digits"]) == 0

    def test_overtight_tolerance_fails(self, capsys):
        assert main(["verify", "jacobi-quartic", "--tol", "1e-30"]) == 1

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

    def test_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        assert main(["verify", "u0-wp-zero", "--report", str(path)]) == 0
        rec = json.loads(path.read_text().strip())
        assert rec["identity"] == "u0-wp-zero" and rec["status"] == "pass"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "jacobi-quartic.tolerance = 1e-30\n"
            "grid.jacobi-quartic = 1i, 0.5+0.8i\n"
        )
        assert main(["verify", "jacobi-quartic", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "2 failed" in out  # two overridden grid points, impossible tolerance

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense line without equals\n")
        assert main(["verify", "jacobi-quartic", "--config", str(cfg)]) == 2
        cfg.write_text("unknown-id.tolerance = 1e-8\n")
        assert main(["verify", "jacobi-quartic", "--config", str(cfg)]) == 2
        cfg.write_text("grid.u0-digits = 1i\n")
        assert main(["verify", "u0-digits", "--config", str(cfg)]) == 2

    def test_numerical_settings_are_not_options(self, tmp_path, capsys):
        # the derivatives come from Taylor jets, which have no setting to report
        assert main(["verify", "schwarz-chi", "--output", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[:-1]
        assert lines
        for line in lines:
            assert json.loads(line)["metadata"] == {}
        for flag, value in (("--stencil-radius", "0.02"), ("--stencil-nodes", "128"),
                            ("--max-terms", "100")):
            assert main(["verify", "schwarz-chi", flag, value]) == 2
        cfg = tmp_path / "run.cfg"
        for key, value in (("stencil.radius", "0.02"), ("stencil.nodes", "128"),
                           ("truncation.rel_tol", "1e-17"), ("truncation.max_terms", "100")):
            cfg.write_text(f"{key} = {value}\n")
            assert main(["verify", "schwarz-chi", "--config", str(cfg)]) == 2


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
        cfg = RunConfig()
        for j in range(5):
            for k in range(5):
                tau = complex(re0 + (re1 - re0) * k / 4, im0 + (im1 - im0) * j / 4)
                rec = run_identity_at(name, tau, cfg)
                assert rec.status != "fail", rec

    def test_schwarz_chi_rectangle(self, capsys):
        assert main(["grid", "schwarz-chi", "--region", "-0.2,0.2,1.0,1.4",
                     "--steps", "5"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        evaluated = [r for r in records if r["status"] == "pass"]
        assert len(records) == 25 and len(evaluated) >= 20
        assert all(r["residual"] < 1e-8 for r in evaluated)

    def test_out_of_domain_region_all_skipped(self, capsys):
        assert main(["grid", "schwarz-u-lemn", "--region", "-0.1,0.1,1.9,2.1",
                     "--steps", "3"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 9
        assert all(r["status"] == "skipped" for r in records)
        assert all(r["residual"] is None for r in records)

    def test_u_derivative_with_m(self, capsys):
        assert main(["grid", "U-derivative", "--region", "-0.05,0.05,1.2,1.8",
                     "--steps", "4", "--m", "1"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 16
        assert all(r["residual"] < 1e-6 for r in records)
        assert all("m1" in r["metadata"] for r in records)

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

    def test_fixed_identity_rejected(self, capsys):
        assert main(["grid", "u0-digits", "--region", "0,1,1,2", "--steps", "2"]) == 2

    def test_unknown_identity_rejected(self, capsys):
        assert main(["grid", "bogus", "--region", "0,1,1,2", "--steps", "2"]) == 2

    def test_malformed_region_rejected(self, capsys):
        assert main(["grid", "schwarz-chi", "--region", "0,1,2", "--steps", "2"]) == 2
