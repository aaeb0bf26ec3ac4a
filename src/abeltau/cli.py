"""Command-line front end: evaluate exposed functions, run named identity
suites, and sweep identities over tau-plane grids.

Exit codes (exactly these, always): 0 all pass, 1 verification failure,
2 usage/config error, 3 domain/accuracy error during eval.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from collections.abc import Sequence

from .errors import AbeltauError, AccuracyError, DomainError
from .hypergeom import (
    HypergeometricParams,
    elliptic_F,
    elliptic_K,
    euler_beta,
    gamma_fn,
    gauss_2f1,
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
from .registry import REGISTRY, RunConfig, RunRecord, run_identity
from .uniform import (
    u_equianharmonic_root,
    u_equianharmonic_rootfree,
    u_hyperelliptic,
    u_lemniscatic,
)
from .weier import (
    u0_constant,
    weier_sigma,
    weier_zeta,
    wp,
    wp_inverse_equianharmonic,
    wp_inverse_lemniscatic,
    wp_prime,
)

USAGE_EXIT = 2
EVAL_ERROR_EXIT = 3

_ALLOWED_LITERAL = set("0123456789+-.eEij")


def parse_complex(text: str) -> complex:
    """Parse `a+bi` / `a-bi` literals (exponents allowed, bare reals allowed,
    `i` alone meaning 1i)."""
    s = text.strip()
    if not s or not set(s) <= _ALLOWED_LITERAL:
        raise DomainError(f"bad complex literal {text!r}")
    try:
        return complex(s.replace("i", "j"))
    except ValueError as exc:
        raise DomainError(f"bad complex literal {text!r}") from exc


def _fmt_part(x: float) -> str:
    if x == 0:
        x = 0.0  # normalize -0.0
    return f"{x:.15g}"


def format_complex(v: complex) -> str:
    v = complex(v)
    sign = "-" if v.imag < 0 else "+"
    return f"{_fmt_part(v.real)}{sign}{_fmt_part(abs(v.imag))}i"


def _wrap_invariants(fn):
    return lambda u, g2, g3: fn(u, (g2, g3))


# name -> (callable taking parsed args, argument names)
EVAL_FUNCTIONS = {
    **{fn.__name__: (fn, ("tau",)) for fn in (
        theta2, theta3, theta4, dedekind_eta, hauptmodul_lemniscatic, hauptmodul_equianharmonic,
        hauptmodul_hyperelliptic, sqrt_theta_ratio, u_lemniscatic, u_equianharmonic_root,
        u_equianharmonic_rootfree)},
    **{fn.__name__: (_wrap_invariants(fn), ("u", "g2", "g3"))
       for fn in (wp, wp_prime, weier_sigma, weier_zeta)},
    "gauss_2f1": (lambda a, b, c, z: gauss_2f1(HypergeometricParams(a, b, c), z),
                  ("a", "b", "c", "z")),
    "gamma_fn": (gamma_fn, ("z",)),
    "euler_beta": (euler_beta, ("a", "b")),
    "elliptic_K": (elliptic_K, ("k",)),
    "elliptic_F": (elliptic_F, ("x", "k")),
    "wp_inverse_lemniscatic": (wp_inverse_lemniscatic, ("x",)),
    "wp_inverse_equianharmonic": (wp_inverse_equianharmonic, ("z",)),
    "u0_constant": (u0_constant, ()),
    "u_hyperelliptic": (lambda m, tau: u_hyperelliptic(_as_small_int(m), tau),
                        ("m", "tau")),
}


def _as_small_int(v: complex) -> int:
    if v.imag != 0 or not v.real.is_integer():  # an inf or nan literal too
        raise DomainError(f"expected a small integer, got {v!r}")
    return int(v.real)


# Built once per process; parsing leaves the parser unchanged.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abeltau",
        description="evaluate special functions and verify the identity suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one exposed function")
    p_eval.add_argument("function")
    p_eval.add_argument("args", nargs="*")

    def add_run_flags(p):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override for the selected identities")
        p.add_argument("--report", default=None, metavar="PATH",
                       help="also write the json-lines stream to PATH")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key-value config file")

    p_verify = sub.add_parser("verify", help="run named identities (or all)")
    p_verify.add_argument("ids", nargs="*", default=[])
    p_verify.add_argument("--output", choices=("human", "json"), default="human")
    add_run_flags(p_verify)

    p_grid = sub.add_parser("grid", help="sweep one identity over a tau rectangle")
    p_grid.add_argument("id")
    p_grid.add_argument("--region", required=True, metavar="re0,re1,im0,im1")
    p_grid.add_argument("--steps", type=int, required=True)
    add_run_flags(p_grid)
    return parser


def _read_config_file(path: str) -> tuple[dict[str, float], dict[str, tuple]]:
    """The tolerances and grids a config file sets."""
    tolerances, grids = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key.endswith(".tolerance"):
                tolerances[key[: -len(".tolerance")]] = float(value)
            elif key.startswith("grid."):
                grids[key[len("grid."):]] = tuple(
                    parse_complex(v) for v in value.split(",") if v.strip())
            else:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
    return tolerances, grids


def _run_options(args, selected_ids: Sequence[str], grids: dict | None = None):
    """The RunConfig of the command line, whose grids override the config
    file's, and the report file opened for writing (a null context without
    --report), so that a path that cannot be written is a config error
    before any check runs."""
    tolerances, file_grids = _read_config_file(args.config) if args.config else ({}, {})
    if args.tol is not None:
        tolerances.update(dict.fromkeys(selected_ids, args.tol))
    cfg = RunConfig(tolerances, {**file_grids, **(grids or {})})
    report = open(args.report, "w", encoding="utf-8") if args.report else contextlib.nullcontext()
    return cfg, report


def _human_line(rec: RunRecord) -> str:
    res = "-" if rec.residual is None else f"{rec.residual:.3e}"
    return (f"{rec.identity:28s} point={format_complex(rec.point):>24s} "
            f"residual={res:>10s} tol={rec.tolerance:.1e} {rec.status.upper()}")


def _report(records: list[RunRecord], json_lines: bool, report, summary_to) -> int:
    """Write the records to stdout (and to the open report file, if any),
    then the summary line to summary_to; return the exit code."""
    text = ("".join(f"{r.to_json_line()}\n" for r in records)
            if json_lines or report is not None else "")
    if json_lines:
        sys.stdout.write(text)
    else:
        for rec in records:
            print(_human_line(rec))
    if report is not None:
        report.write(text)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for rec in records:
        counts[rec.status] += 1
    # Every record passes, fails or is skipped.  "0 informational" stays in
    # the line: benchmarks/workloads.py rebuilds this exact line to judge a sweep.
    print(f"summary: {counts['pass']} passed, {counts['fail']} failed, "
          f"0 informational, {counts['skipped']} skipped", file=summary_to)
    return 1 if counts["fail"] else 0


def _cmd_eval(args) -> int:
    name = args.function
    if name not in EVAL_FUNCTIONS:
        print(f"unknown function {name!r}; known: {', '.join(sorted(EVAL_FUNCTIONS))}",
              file=sys.stderr)
        return USAGE_EXIT
    fn, argnames = EVAL_FUNCTIONS[name]
    if len(args.args) != len(argnames):
        print(f"usage: abeltau eval {name} {' '.join('<%s>' % a for a in argnames)}",
              file=sys.stderr)
        return USAGE_EXIT
    try:
        parsed = [parse_complex(a) for a in args.args]
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_EXIT
    try:
        value = fn(*parsed)
    except AbeltauError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EVAL_ERROR_EXIT
    print(format_complex(value))
    return 0


def _cmd_verify(args) -> int:
    ids = list(args.ids)
    if not ids or ids == ["all"]:
        ids = list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        print(f"unknown identities: {', '.join(unknown)}", file=sys.stderr)
        return USAGE_EXIT
    try:
        cfg, report = _run_options(args, ids)
    except (DomainError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    with report as fh:
        records = [rec for name in ids for rec in run_identity(name, cfg)]
        return _report(records, args.output == "json", fh, sys.stdout)


def _cmd_grid(args) -> int:
    name = args.id
    if name not in REGISTRY:
        print(f"unknown identity {name!r}", file=sys.stderr)
        return USAGE_EXIT
    if not REGISTRY[name].tau_grid:
        print(f"identity {name!r} has no tau-grid form", file=sys.stderr)
        return USAGE_EXIT
    try:
        parts = [float(v) for v in args.region.split(",")]
        if len(parts) != 4 or not all(map(math.isfinite, parts)):
            raise ValueError("region needs four comma-separated finite reals")
        re0, re1, im0, im1 = parts
        n = args.steps
        if n < 1:
            raise ValueError("steps must be >= 1")
        fractions = [k / (n - 1) if n > 1 else 0.5 for k in range(n)]
        points = tuple(complex(re0 + (re1 - re0) * fk, im0 + (im1 - im0) * fj)
                       for fj in fractions for fk in fractions)
        cfg, report = _run_options(args, [name], {name: points})
    except (DomainError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    # grid sweeps are machine-readable by contract
    with report as fh:
        return _report(run_identity(name, cfg), True, fh, sys.stderr)


def _is_literal(text: str) -> bool:
    try:
        parse_complex(text)
    except DomainError:
        return False
    return True


# The prefixes argparse takes for --region; "--re" could also be --report.
_REGION_FLAGS = frozenset("--region"[:n] for n in range(5, 9))


def _fold_dashed_values(argv: list[str]) -> list[str]:
    # argparse mistakes a value that starts with "-" for an option: fold the
    # region "-0.2,0.2,..." into --region=, and end eval's options before its
    # first literal of that kind (-0.5+1i, -1e-3, -i)
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _REGION_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
            continue
        if (out[:1] == ["eval"] and "--" not in out and argv[i].startswith("-")
                and _is_literal(argv[i])):
            out.append("--")
        out.append(argv[i])
        i += 1
    return out


def _sweep_args(argv: list[str]) -> argparse.Namespace | None:
    """The arguments of `grid ID --region=R --steps N`, the form of a sweep
    once _fold_dashed_values has joined --region to its value, read as
    argparse reads them; None for any other command line and for the region
    "--", which argparse drops: argparse reads those.  Its general machinery
    took a third of the time of a 4-point schwarz-chi sweep."""
    if (len(argv) == 5 and argv[0] == "grid" and not argv[1].startswith("-")
            and argv[2].startswith("--region=") and argv[2] != "--region=--"
            and argv[3] == "--steps" and argv[4].isdecimal()):
        return argparse.Namespace(id=argv[1], region=argv[2][len("--region="):],
                                  steps=int(argv[4]), tol=None, report=None, config=None,
                                  command="grid")
    return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = _fold_dashed_values(list(sys.argv[1:] if argv is None else argv))
    args = _sweep_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
            return int(exc.code or 0)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_grid(args)
    except AccuracyError as exc:
        print(f"AccuracyError: {exc}", file=sys.stderr)
        return EVAL_ERROR_EXIT
    except AbeltauError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if args.command in ("verify", "grid") else EVAL_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
