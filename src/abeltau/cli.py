"""Command-line front end: evaluate exposed functions, run named identity
suites, and sweep identities over tau-plane grids.

Exit codes (exactly these, always): 0 all pass, 1 verification failure,
2 usage/config error, 3 domain/accuracy error during eval.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
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
from .registry import REGISTRY, RunConfig, RunRecord, run_identity, run_identity_at
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
    "theta2": (theta2, ("tau",)),
    "theta3": (theta3, ("tau",)),
    "theta4": (theta4, ("tau",)),
    "dedekind_eta": (dedekind_eta, ("tau",)),
    "hauptmodul_lemniscatic": (hauptmodul_lemniscatic, ("tau",)),
    "hauptmodul_equianharmonic": (hauptmodul_equianharmonic, ("tau",)),
    "hauptmodul_hyperelliptic": (hauptmodul_hyperelliptic, ("tau",)),
    "sqrt_theta_ratio": (sqrt_theta_ratio, ("tau",)),
    "gauss_2f1": (lambda a, b, c, z: gauss_2f1(HypergeometricParams(a, b, c), z),
                  ("a", "b", "c", "z")),
    "gamma_fn": (gamma_fn, ("z",)),
    "euler_beta": (euler_beta, ("a", "b")),
    "elliptic_K": (elliptic_K, ("k",)),
    "elliptic_F": (elliptic_F, ("x", "k")),
    "wp": (_wrap_invariants(wp), ("u", "g2", "g3")),
    "wp_prime": (_wrap_invariants(wp_prime), ("u", "g2", "g3")),
    "weier_sigma": (_wrap_invariants(weier_sigma), ("u", "g2", "g3")),
    "weier_zeta": (_wrap_invariants(weier_zeta), ("u", "g2", "g3")),
    "wp_inverse_lemniscatic": (wp_inverse_lemniscatic, ("x",)),
    "wp_inverse_equianharmonic": (wp_inverse_equianharmonic, ("z",)),
    "u0_constant": (u0_constant, ()),
    "u_lemniscatic": (u_lemniscatic, ("tau",)),
    "u_equianharmonic_root": (u_equianharmonic_root, ("tau",)),
    "u_equianharmonic_rootfree": (u_equianharmonic_rootfree, ("tau",)),
    "u_hyperelliptic": (lambda m, tau: u_hyperelliptic(_as_small_int(m), tau),
                        ("m", "tau")),
}


def _as_small_int(v: complex) -> int:
    if v.imag != 0 or v.real != int(v.real):
        raise DomainError(f"expected a small integer, got {v!r}")
    return int(v.real)


@functools.cache  # built once per process; parse_args leaves it unchanged
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
        p.add_argument("--output", choices=("human", "json", "json-lines"),
                       default=None)
        p.add_argument("--report", default=None, metavar="PATH",
                       help="also write the json-lines stream to PATH")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key-value config file")
        p.add_argument("--m", type=int, default=None,
                       help="restrict U-derivative checks to one m in 0..3")

    p_verify = sub.add_parser("verify", help="run named identities (or all)")
    p_verify.add_argument("ids", nargs="*", default=[])
    add_run_flags(p_verify)

    p_grid = sub.add_parser("grid", help="sweep one identity over a tau rectangle")
    p_grid.add_argument("id")
    p_grid.add_argument("--region", required=True, metavar="re0,re1,im0,im1")
    p_grid.add_argument("--steps", type=int, required=True)
    add_run_flags(p_grid)
    return parser


def _read_config_file(path: str, cfg: RunConfig) -> None:
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
                cfg.tolerances[key[: -len(".tolerance")]] = float(value)
            elif key.startswith("grid."):
                points = tuple(parse_complex(v) for v in value.split(",") if v.strip())
                cfg.grids[key[len("grid."):]] = points
            elif key == "output":
                cfg.output = value
            else:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")


def _config_from_args(args, selected_ids: Sequence[str]) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        _read_config_file(args.config, cfg)
    if args.output is not None:  # explicit flag beats the config file
        cfg.output = "json-lines" if args.output in ("json", "json-lines") else "human"
    if args.tol is not None:
        for name in selected_ids:
            cfg.tolerances[name] = args.tol
    cfg.m_filter = args.m
    cfg.report_path = args.report
    cfg.validate()
    return cfg


def _human_line(rec: RunRecord) -> str:
    res = "-" if rec.residual is None else f"{rec.residual:.3e}"
    return (f"{rec.identity:28s} point={format_complex(rec.point):>24s} "
            f"residual={res:>10s} tol={rec.tolerance:.1e} {rec.status.upper()}")


def _emit(records: list[RunRecord], cfg: RunConfig) -> None:
    lines = [json.dumps(r.to_json_dict()) for r in records]
    if cfg.output == "json-lines":
        for line in lines:
            print(line)
    else:
        for rec in records:
            print(_human_line(rec))
    if cfg.report_path:
        with open(cfg.report_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))


def _summarize(records: list[RunRecord]) -> tuple[str, int]:
    counts = Counter(rec.status for rec in records)
    # Every record passes, fails or is skipped.  "0 informational" stays in
    # the line: benchmarks/workloads.py rebuilds this exact line to judge a sweep.
    summary = (f"summary: {counts['pass']} passed, {counts['fail']} failed, "
               f"0 informational, {counts['skipped']} skipped")
    return summary, (1 if counts["fail"] else 0)


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
        cfg = _config_from_args(args, ids)
    except (DomainError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    records: list[RunRecord] = []
    for name in ids:
        records.extend(run_identity(name, cfg))
    _emit(records, cfg)
    summary, code = _summarize(records)
    print(summary)
    return code


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
        if len(parts) != 4:
            raise ValueError("region needs four comma-separated reals")
        re0, re1, im0, im1 = parts
        if args.steps < 1:
            raise ValueError("steps must be >= 1")
        cfg = _config_from_args(args, [name])
        cfg.output = "json-lines"  # grid sweeps are machine-readable by contract
    except (DomainError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    records: list[RunRecord] = []
    n = args.steps
    for j in range(n):
        for k in range(n):
            re = re0 + (re1 - re0) * (k / (n - 1) if n > 1 else 0.5)
            im = im0 + (im1 - im0) * (j / (n - 1) if n > 1 else 0.5)
            records.append(run_identity_at(name, complex(re, im), cfg))
    _emit(records, cfg)
    summary, code = _summarize(records)
    print(summary, file=sys.stderr)
    return code


def _join_region_flag(argv: list[str]) -> list[str]:
    # argparse mistakes "-0.2,0.2,..." for an option; fold it into --region=
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--region" and i + 1 < len(argv):
            out.append(f"--region={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = _join_region_flag(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv)
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
