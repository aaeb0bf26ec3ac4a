"""abeltau benchmark: seeded workloads, end-to-end metrics, and a traced run
that gives per-layer metrics.

    python3 benchmarks/run.py --workload tau-grid --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
single-threaded process generates the workload's inputs from ``--seed``,
computes their references, warms up with one op of each kind, then runs
whole rounds in a closed loop (one client, no think time) until ``--seconds``
have passed.  Every op is checked; the last line of stdout is the JSON result.

Machine speed.  On a shared machine the speed of the CPU drifts by tens of
percent over seconds to minutes, by up to half within one run, and the drift
moves every timing alike.  So a fixed calibration loop of interpreter work is
timed between ops (every 0.25 s), and each run of an op is taken to reference
speed: scaled by CAL_REF_S over the median of the CAL_WINDOW calibration
samples on either side of it.  A median of a few samples keeps one sample's
jitter out.  The raw wall-clock figures are printed beside the scaled ones.

Set-up time is not scaled: it is mostly loading numpy's shared libraries,
which the calibration loop does not track (correlation about 0.2).  Its
repeats are spread evenly over the timed loop instead, so that their median
spans the same stretch of machine speed as the ops.

``--trace 0`` reports the end-to-end metrics, at reference speed except
setup_s:
  setup_s      median time for a fresh interpreter to import abeltau and build
               its lazy tables (P Laurent coefficients, sigma coefficients)
  ops_per_s    the pool's distinct ops over the sum of their latencies
  op_p50_ms    median over the ops of the pool
  op_tail_ms   the highest of p50/p75/p90/p99/p99.9/p99.99 over the ops of the
               pool with at least ten ops beyond it (the rung is printed)
  ok_share     1 - failed_share: the ops of the pool none of whose runs
               raised, returned a wrong value or emitted a "fail" record, over
               the ops of the pool
  peak_rss_mb  ru_maxrss of this process
An op of the pool runs many times; its latency is the median of its runs, and
each op weighs the same in every metric however often it runs.  The JSON
``attempted`` and ``failed`` count runs.

``--trace 1`` runs a fixed number of rounds untraced and then traced, and
reports the per-layer metrics of ``tracing.PER_LAYER`` for the traced pass,
plus traced and untraced ops_per_s (raw).  The spans are written to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

TAIL_RUNGS = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
SETUP_REPEATS = 21
CAL_REF_S = 1.3e-3     # the calibration loop's time at reference speed
CAL_EVERY_S = 0.25
CAL_WINDOW = 2         # calibration samples on each side of an op run

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import abeltau
abeltau.wp(0.5, abeltau.LEMNISCATIC)
abeltau.wp(0.5, abeltau.EQUIANHARMONIC)
abeltau.weier_sigma(0.5, abeltau.LEMNISCATIC)
print(time.perf_counter() - t0, abeltau.__file__)
"""

_CAL_X, _CAL_W = numpy.polynomial.legendre.leggauss(16)


def _calibration_loop() -> None:
    """Complex arithmetic on numpy scalars, then dict updates: the kind of
    interpreter work the package does, without a call into it.  It tracks the
    package's speed better than an integer loop does."""
    acc = 0j
    for _ in range(25):
        for x, w in zip(_CAL_X, _CAL_W):
            acc += w * cmath.sqrt(1.0 - (0.3 + 0.1j + x) ** 2)
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i


class Speed:
    """Timings of the calibration loop, taken between ops."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._last = float("-inf")

    def sample(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.times.append(self._last)
        return self.samples[-1]

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiplier that takes the run as a whole to reference speed."""
        return CAL_REF_S / statistics.median(self.samples)

    def factor_at(self, t: float) -> float:
        """Multiplier that takes a timing started at t to reference speed:
        from the median of the CAL_WINDOW samples on either side of t."""
        j = bisect.bisect_right(self.times, t)
        near = self.samples[max(0, j - CAL_WINDOW):j + CAL_WINDOW]
        return CAL_REF_S / statistics.median(near)


class Setup:
    """Set-up times of fresh interpreters, taken between ops at even
    intervals over the timed loop, so that their median spans the same
    stretch of machine speed as the ops.  A first, discarded interpreter
    compiles the bytecode cache."""

    def __init__(self, seconds: float):
        self.raw: list[float] = []
        self.every = seconds / SETUP_REPEATS
        self.measure()
        self.raw.clear()
        self._last = time.perf_counter()

    def measure(self) -> None:
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported abeltau from {path.strip()}, not {SRC}")
        self.raw.append(float(seconds))
        self._last = time.perf_counter()

    def maybe_measure(self) -> None:
        if len(self.raw) < SETUP_REPEATS and time.perf_counter() - self._last >= self.every:
            self.measure()

    def finish(self) -> float:
        """Median set-up time, after topping up to SETUP_REPEATS."""
        while len(self.raw) < SETUP_REPEATS:
            self.measure()
        return statistics.median(self.raw)


def calibration_s() -> float:
    """Median of five calibration loops, printed before and after a workload."""
    speed = Speed()
    return statistics.median(speed.sample() for _ in range(5))


def environment() -> dict:
    import mpmath
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}


def digest(pool) -> str:
    text = json.dumps([[(op.kind, repr(op.inputs)) for op in rnd] for rnd in pool])
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Latencies, per op of the pool, and verdicts of the ops run."""

    def __init__(self):
        # id(op) -> start and seconds of each run, in arrays to keep the
        # bookkeeping out of peak_rss_mb
        self.starts: dict[int, array] = defaultdict(lambda: array("d"))
        self.latencies: dict[int, array] = defaultdict(lambda: array("d"))
        self.ops = 0
        self.failed = 0
        self.failed_ops: set[int] = set()  # id(op) of ops with a failed run
        self.wrong = 0
        self.examples: list[str] = []

    def run(self, rnd, between=None) -> None:
        from abeltau.errors import AbeltauError
        for op in rnd:
            if between:
                between()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except AbeltauError as exc:
                dt = time.perf_counter() - t0
                verdict, why = "failed", f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t0
                verdict = why = op.verdict(out)
            self.starts[id(op)].append(t0)
            self.latencies[id(op)].append(dt)
            self.ops += 1
            if verdict not in ("ok", "failed", "wrong"):
                raise RuntimeError(f"unknown verdict {verdict!r} for {op.kind}")
            if verdict != "ok":
                self.failed += 1
                self.failed_ops.add(id(op))
                self.wrong += verdict == "wrong"
                if len(self.examples) < 5:
                    self.examples.append(f"{op.kind} {op.inputs!r}: {why}"[:300])

    def busy_s(self) -> float:
        return sum(sum(runs) for runs in self.latencies.values())

    def per_op(self, speed: Speed | None = None) -> list[float]:
        """Median run of each op, each run scaled to reference speed by the
        calibration samples around it if speed is given."""
        if speed is None:
            return [statistics.median(runs) for runs in self.latencies.values()]
        return [statistics.median(dt * speed.factor_at(t0) for t0, dt in zip(self.starts[k], runs))
                for k, runs in self.latencies.items()]


def tail(latencies) -> tuple[float, float, int]:
    """(rung, value, samples beyond) for the highest rung with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for rung in TAIL_RUNGS:
        rank = max(1, -(-int(rung * 1000) * n // 100_000))  # ceil(rung/100 * n)
        if n - rank >= 10:
            best = (rung, ordered[rank - 1], n - rank)
    if best is None:
        raise RuntimeError(f"only {n} distinct ops: too few for a tail percentile")
    return best


def warm_up(pool) -> None:
    """One op of each kind: lazy tables, caches, first-call costs."""
    Tally().run(list({op.kind: op for op in pool[0]}.values()))


def run_timed(pool, seconds: float, speed: Speed, setup: Setup) -> Tally:
    tally = Tally()
    warm_up(pool)

    def between():
        speed.maybe_sample()
        setup.maybe_measure()
    start = time.perf_counter()
    i = 0
    while True:
        tally.run(pool[i % len(pool)], between)
        i += 1
        if time.perf_counter() - start >= seconds:
            speed.sample()  # so that the last runs have samples on both sides
            return tally


def run_traced(name: str, pool, rounds: int, seed: int) -> tuple[Tally, dict]:
    import tracing
    fixed = [pool[i % len(pool)] for i in range(rounds)]
    warm_up(pool)
    plain = Tally()
    for rnd in fixed:
        plain.run(rnd)
    tracer = tracing.Tracer()
    coverage = tracing.install(tracer)
    print(f"coverage: {len(coverage['wrapped'])} functions wrapped; "
          f"classes left unwrapped: {', '.join(coverage['classes'])}")
    traced = Tally()

    def next_op():
        tracer.op += 1
    for rnd in fixed:
        traced.run(rnd, next_op)
    units = dict(tracing.PER_LAYER)
    metrics = {k: (v, units[k]) for k, v in tracer.metrics().items()}
    metrics["trace.ops"] = (traced.ops, "count")
    metrics["trace.ops_per_s_traced"] = (traced.ops / traced.busy_s(), "1/s")
    metrics["trace.ops_per_s_untraced"] = (plain.ops / plain.busy_s(), "1/s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json.gz"
    tracer.write(path)
    print(f"spans: {len(tracer.span_group)} written to {path.relative_to(ROOT)}")
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abeltau" / "__init__.py").is_file():
        print(f"abeltau sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import abeltau
    if not Path(abeltau.__file__).resolve().is_relative_to(SRC):
        print(f"abeltau imported from {abeltau.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("env", json.dumps(environment()))
    build, trace_rounds = workloads.WORKLOADS[args.workload]
    pool = build(random.Random(args.seed))
    ops_per_round = len(pool[0])
    print(f"inputs workload={args.workload} seed={args.seed} rounds={len(pool)} "
          f"ops_per_round={ops_per_round} sha256={digest(pool)}")
    if args.workload == "quadrature":
        kinds = [op.kind for op in pool[0]]
        ends, calls = kinds.count("F:endpoint"), sum(k.startswith("F:") for k in kinds)
        print(f"elliptic_F at x = +-1: {ends} of {calls} elliptic_F calls, "
              f"{ends} of {ops_per_round} ops ({ends / ops_per_round:.4f})")

    before = calibration_s()
    if args.trace:
        tally, metrics = run_traced(args.workload, pool, trace_rounds, args.seed)
    else:
        speed = Speed()
        setup = Setup(args.seconds)
        tally = run_timed(pool, args.seconds, speed, setup)
        setup_s = setup.finish()
        raw = tally.per_op()
        per_op = tally.per_op(speed)
        rung, tail_s, beyond = tail(per_op)
        print(f"raw: {tally.ops} runs in {tally.busy_s():.3f} s of op time, "
              f"{len(raw) / sum(raw):.6g} ops/s, p50 {1e3 * statistics.median(raw):.6g} ms, "
              f"p{rung:g} {1e3 * tail(raw)[1]:.6g} ms; {len(speed.samples)} calibration "
              f"samples, median scale to reference speed x{speed.factor():.4f}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "ok_share": (1.0 - len(tally.failed_ops) / len(per_op), "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    after = calibration_s()
    print(f"calibration_s before={before:.6f} after={after:.6f}")

    for name, (value, unit) in metrics.items():
        note = (f"  (p{rung:g} of {len(tally.latencies)} distinct ops, {beyond} beyond; "
                f"{tally.ops / len(tally.latencies):.1f} runs per op on average)"
                if name == "op_tail_ms" else "")
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed: {len(tally.failed_ops)} of {len(tally.latencies)} distinct ops "
          f"(failed_share {len(tally.failed_ops) / len(tally.latencies):.4f}); "
          f"{tally.failed} of {tally.ops} runs; silently wrong runs {tally.wrong}")
    for example in tally.examples:
        print("  e.g.", example)
    correct = tally.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
