"""Per-layer tracing from outside the package.

``install`` wraps every public function of the layer modules and rebinds the
wrapper wherever the package holds the original: module namespaces
(including the ``abeltau`` package itself), closure cells of package
functions, and the dicts, lists, tuples and dataclass instances reachable
from them (``cli.EVAL_FUNCTIONS``, the registry's check closures).  Classes
listed in ``__all__`` are left alone, because rebinding a class name breaks
``isinstance``; their constructors run inside the caller's span.

A span is opened per call: its group, parent span, op and start/end times go
into flat arrays kept in memory and written out at the end.  Self time is a
span's duration minus the time of its child spans.  ``principal_power`` and
``ensure_finite`` run once or twice per integrand sample, so they are
counted but get no span; their time stays in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("numerics", "modular", "hypergeom", "weier", "uniform", "registry", "cli")

# function -> metric group inside its layer; unlisted functions go to "other"
_GROUPS = {
    "numerics": {"contour_quadrature": "quad", "holomorphic_derivatives": "stencil",
                 "principal_power": "prim", "ensure_finite": "prim"},
    "modular": {"theta2": "theta", "theta3": "theta", "theta4": "theta",
                "dedekind_eta": "eta"},
    "hypergeom": {"gauss_2f1": "f21", "elliptic_F": "elliptic_F",
                  "oracle_incomplete_integral": "oracle"},
    "weier": {"wp": "wp", "wp_prime": "wp", "weier_sigma": "sigma", "weier_zeta": "zeta"},
    "uniform": {"u_lemniscatic": "u", "u_equianharmonic_root": "u",
                "u_equianharmonic_rootfree": "u", "u_hyperelliptic": "u",
                "schwarz_residual": "schwarz"},
    "registry": {"run_identity": "run", "run_identity_at": "run"},
    "cli": {"main": "main"},
}
_COUNT_ONLY = {"numerics.prim"}

QUAD_BUDGET = 400_000   # a quadrature call with more evaluations hit its budget
SERIES_DISK = 0.95      # gauss_2f1 sums the series at |z| <= this, else Pfaff

PER_LAYER = (
    ("numerics.quad.calls", "count"), ("numerics.quad.evals", "count"),
    ("numerics.quad.self_ms", "ms"), ("numerics.quad.budget_hits", "count"),
    ("numerics.quad.errors", "count"),
    ("numerics.stencil.calls", "count"), ("numerics.stencil.samples", "count"),
    ("numerics.stencil.self_ms", "ms"),
    ("modular.theta.calls", "count"), ("modular.theta.self_ms", "ms"),
    ("modular.eta.calls", "count"), ("modular.eta.self_ms", "ms"),
    ("modular.errors", "count"),
    ("hypergeom.f21.series_calls", "count"), ("hypergeom.f21.pfaff_calls", "count"),
    ("hypergeom.f21.self_ms", "ms"),
    ("hypergeom.elliptic_F.calls", "count"), ("hypergeom.elliptic_F.self_ms", "ms"),
    ("hypergeom.oracle.calls", "count"), ("hypergeom.oracle.self_ms", "ms"),
    ("weier.wp.calls", "count"), ("weier.wp.self_ms", "ms"),
    ("weier.sigma.calls", "count"), ("weier.sigma.self_ms", "ms"),
    ("weier.zeta.calls", "count"), ("weier.zeta.self_ms", "ms"),
    ("uniform.u.calls", "count"), ("uniform.u.self_ms", "ms"),
    ("uniform.schwarz.calls", "count"), ("uniform.schwarz.self_ms", "ms"),
    ("registry.records", "count"), ("registry.self_ms", "ms"),
    ("registry.worst_tol_ratio", "ratio"),
    ("cli.invocations", "count"), ("cli.self_ms", "ms"),
)


def public_names(module) -> list[str]:
    """``__all__``, or for a module without one, the public names defined in
    it rather than imported."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [n for n, v in vars(module).items() if not n.startswith("_")
            and getattr(v, "__module__", None) == module.__name__]


class Tracer:
    """Spans and counts of the wrapped layer functions."""

    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()          # per layer, once per exception
        self.counts = Counter()          # work seen in arguments and results
        self.op = -1                     # identifier shared by the spans of one op
        self._last_error: dict[str, BaseException] = {}
        self._stack: list[list] = []     # [span index, child seconds]
        self._registry_depth = 0
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")

    def _group_id(self, group: str) -> int:
        if group not in self._gid:
            self._gid[group] = len(self.groups)
            self.groups.append(group)
        return self._gid[group]

    def wrap(self, layer: str, name: str, fn):
        group = f"{layer}.{_GROUPS[layer].get(name, 'other')}"
        if group in _COUNT_ONLY:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[group] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        inner = getattr(self, "_hook_" + group.replace(".", "_"), None)
        return self._span(layer, group, inner(fn) if inner else fn, fn)

    def _span(self, layer: str, group: str, fn, original):
        gid = self._group_id(group)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        sg, sp, so, s0, s1 = (self.span_group, self.span_parent, self.span_op,
                              self.span_t0, self.span_t1)

        def traced(*args, **kwargs):
            idx = len(sg)
            sg.append(gid)
            sp.append(stack[-1][0] if stack else -1)
            so.append(self.op)
            s0.append(0.0)
            s1.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            s0[idx] = t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                    self.errors[group] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                s1[idx] = t1
                dur = t1 - t0
                calls[group] += 1
                self_s[group] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        traced.__wrapped__ = original
        return traced

    # hooks: count work the wrapper can see from the arguments

    def _counting(self, fn, counter: str, threshold: tuple[int, str] | None = None):
        counts = self.counts

        def hooked(f, *args, **kwargs):
            n = 0

            def g(z):
                nonlocal n
                n += 1
                return f(z)
            try:
                return fn(g, *args, **kwargs)
            finally:
                counts[counter] += n
                if threshold and n > threshold[0]:
                    counts[threshold[1]] += 1
        return hooked

    def _hook_numerics_quad(self, fn):
        return self._counting(fn, "numerics.quad.evals", (QUAD_BUDGET, "numerics.quad.budget_hits"))

    def _hook_numerics_stencil(self, fn):
        return self._counting(fn, "numerics.stencil.samples")

    def _hook_hypergeom_f21(self, fn):
        counts = self.counts

        def hooked(params, z, *args, **kwargs):
            branch = "series_calls" if abs(complex(z)) <= SERIES_DISK else "pfaff_calls"
            counts["hypergeom.f21." + branch] += 1
            return fn(params, z, *args, **kwargs)
        return hooked

    def _hook_registry_run(self, fn):
        def hooked(*args, **kwargs):
            # run_identity calls run_identity_at: count the records once
            self._registry_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._registry_depth -= 1
            if self._registry_depth == 0:
                records = out if isinstance(out, list) else [out]
                self.counts["registry.records"] += len(records)
                for r in records:
                    if r.residual is not None and r.status in ("pass", "fail"):
                        key = "registry.worst_tol_ratio"
                        self.counts[key] = max(self.counts[key], r.residual / r.tolerance)
            return out
        return hooked

    # results

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, _ in PER_LAYER:
            head, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[head]
            elif field == "self_ms":
                out[name] = 1e3 * sum(v for g, v in self.self_s.items()
                                      if g == head or g.startswith(head + "."))
            elif field == "errors":
                out[name] = self.errors[head]
            else:
                out[name] = self.counts[name]
        out["cli.invocations"] = self.calls["cli.main"]
        return out

    def write(self, path) -> None:
        data = {
            "groups": self.groups,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "spans": {"group": self.span_group.tolist(), "parent": self.span_parent.tolist(),
                      "op": self.span_op.tolist(), "t0": self.span_t0.tolist(),
                      "t1": self.span_t1.tolist()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "abeltau" or name.startswith("abeltau."))]


def _is_package_object(obj) -> bool:
    return getattr(type(obj), "__module__", "").startswith("abeltau")


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap and rebind every layer function; return the coverage report
    {"wrapped": [...], "classes": [...]}.  Raises RuntimeError if any
    function in a layer's public list, or any binding of one, is left
    unwrapped."""
    wrappers: dict[int, tuple[object, object]] = {}
    wrapped, classes = [], []
    for layer in LAYERS:
        module = sys.modules[f"abeltau.{layer}"]
        for name in public_names(module):
            obj = getattr(module, name)
            if isinstance(obj, type):
                classes.append(f"{layer}.{name}")
            elif isinstance(obj, types.FunctionType):
                wrappers[id(obj)] = (obj, tracer.wrap(layer, name, obj))
                wrapped.append(f"{layer}.{name}")

    def swap(obj):
        hit = wrappers.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else obj

    memo: dict[int, object] = {}

    def fix(obj):
        """obj with every reachable original replaced: functions' closure
        cells, dicts, lists and package dataclasses in place, tuples rebuilt."""
        if (new := swap(obj)) is not obj:
            return new
        if id(obj) in memo:
            return memo[id(obj)]
        memo[id(obj)] = obj
        if isinstance(obj, types.FunctionType) and (obj.__module__ or "").startswith("abeltau"):
            for cell in obj.__closure__ or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if (repl := fix(value)) is not value:
                    cell.cell_contents = repl
        elif isinstance(obj, dict):
            for k, v in obj.items():
                if (repl := fix(v)) is not v:
                    obj[k] = repl
        elif isinstance(obj, list):
            obj[:] = [fix(v) for v in obj]
        elif isinstance(obj, tuple):
            items = tuple(fix(v) for v in obj)
            if any(a is not b for a, b in zip(items, obj)):
                memo[id(obj)] = items
                return items
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type) and _is_package_object(obj):
            for f in dataclasses.fields(obj):
                v = getattr(obj, f.name)
                if (repl := fix(v)) is not v:
                    object.__setattr__(obj, f.name, repl)
        return obj

    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if not name.startswith("__") and (repl := fix(value)) is not value:
                setattr(module, name, repl)

    missed = [f"{m.__name__}.{n}" for m in _package_modules() for n, v in vars(m).items()
              if id(v) in wrappers and wrappers[id(v)][0] is v]
    if missed:
        raise RuntimeError("tracing coverage: unwrapped bindings " + ", ".join(missed))
    for layer in LAYERS:
        module = sys.modules[f"abeltau.{layer}"]
        for n in public_names(module):
            v = getattr(module, n)
            if callable(v) and not isinstance(v, type) and not hasattr(v, "__wrapped__"):
                raise RuntimeError(f"tracing coverage: abeltau.{layer}.{n} is not wrapped")
    return {"wrapped": wrapped, "classes": classes}
