"""Benchmark of the dorroh toolkit: one seeded workload per run.

    python3 perfbench/run.py --workload pair-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  Each workload is a closed loop with one client on one thread:
the next task starts when the previous one has returned, so nothing waits
in a queue and nothing is retried.  A run builds its inputs from the seed
(set-up), runs one warm-up cycle of the workload's ladder, then whole
cycles until the time is spent, checking every task's output.  With
``--trace 0`` it reports the end-to-end metrics and repeats the set-up at
even intervals through the run; with ``--trace 1`` it instead runs the
same cycles untraced, then with layer spans, then once under cProfile,
and reports the per-layer metrics.  ``--scale tiny`` keeps only the first
case of each label of the ladder, for the smoke test.

The end-to-end times are speed-normalised: next to every task and every
set-up the run times ``probe``, a fixed piece of the benchmark's own
pure-Python work, and scales each time by PROBE_S / (median of the probe
times next to it).  A time thus reads as it would on a machine where the
probe takes PROBE_S, however busy the shared machine is; the wall-clock
figures are printed as well.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the sample count, the failure rate, every metric with its unit, a
digest of all emitted documents and witnesses of the warm-up cycle (equal
digests mean byte-identical behaviour on that seed) and the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from bench_inputs import LADDERS
from bench_tasks import WORKLOADS
from bench_trace import SPAN_NAMES, Tracer, profiled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
MODULES = ("fields", "linalg", "tensors", "algebra", "coalgebra", "duality", "findual", "gallery", "exchange", "cli")
# set-ups in a timed run, spread evenly over its --seconds
SETUPS = 9
# probe runs timed after each set-up
SETUP_PROBES = 8
# median time of one probe on the machine of the declared figures (README.md)
PROBE_S = 0.003
# measured cycles below which the latency percentiles are flagged
MIN_REPEATS = 10
# share of --seconds spent on each of the untraced and traced passes of a traced run
TRACE_SHARE = 0.3

END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
KERNEL_METRICS = {
    "algebra.product.calls": "count",
    "linalg.matrix_apply.calls": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.self_ms": "ms",
    "fields.fraction_new.calls": "count",
    "fields.canon.calls": "count",
    "fields.canon.self_ms": "ms",
    "tensors.init.calls": "count",
}


def span_metric(name):
    return "cli.main_self_ms" if name == "cli.main" else name + "_ms"


PER_LAYER_UNITS = {
    **{span_metric(name): "ms" for name in SPAN_NAMES},
    **KERNEL_METRICS,
    "algebra.validate.calls": "count",
    "algebra.validate.box_per_nnz": "ratio",
    "exchange.bytes": "B",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def import_library():
    """Import dorroh afresh from the checkout, so each set-up pays for it."""
    for name in [n for n in sys.modules if n == "dorroh" or n.startswith("dorroh.")]:
        del sys.modules[name]
    package = importlib.import_module("dorroh")
    if Path(package.__file__).resolve().parent != SRC / "dorroh":
        raise ImportError(f"dorroh was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dorroh.{m}") for m in MODULES})


def probe():
    """Fixed pure-Python work that gauges the machine's current speed.

    It mixes the kinds of work the library's inner loops do: small-integer
    arithmetic, dicts keyed by index tuples, and a product through sparse
    structure constants over exact fractions."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    d = {}
    for i in range(24):
        for j in range(24):
            d[i, j] = (i * 31 + j * 17 + i * j) % 10007
    for (i, j), v in d.items():
        s = (s + v * d[j, i]) % 10007
    acc = Fraction(0)
    for i in range(60):
        acc += Fraction(d[i % 24, i * 7 % 24], i + 1)
    mul = {(i, j, (i + j) % 6): Fraction(1, 1 + i * j % 3) for i in range(6) for j in range(6)}
    a = [Fraction(i + 1, 7) for i in range(6)]
    for _ in range(6):
        out = [Fraction(0)] * 6
        for (i, j, k), v in mul.items():
            out[k] += a[i] * a[j] * v
    return s, acc, out


def timed(fn, *args):
    begin = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - begin, out


def speed(probe_times):
    """The factor that normalises a time measured next to these probes."""
    return PROBE_S / statistics.median(probe_times)


def first_of_each_label(cases):
    seen = set()
    return [c for c in cases if not (c.label in seen or seen.add(c.label))]


def setup(workload, seed, scale, docdir):
    lib = import_library()
    cases = LADDERS[workload](lib, random.Random(seed))
    if scale == "tiny":
        cases = first_of_each_label(cases)
    if workload == "wide-check":
        for i, case in enumerate(cases):
            case.path = os.path.join(docdir, f"{i:03d}.json")
            with open(case.path, "w", encoding="utf-8") as fh:
                fh.write(case.text)
    return lib, cases


class Loop:
    """Runs ladder cycles and keeps the failure count and digest."""

    def __init__(self, workload, lib, cases):
        self.task, self.check = WORKLOADS[workload]
        self.lib = lib
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def _fail(self, case, exc):
        self.failed += 1
        if self.failed <= 5:
            print(f"task {case.label} failed: {exc!r}", file=sys.stderr)
            if self.failed == 1:
                traceback.print_exception(exc, file=sys.stderr)

    def cycle(self, tracer=None, digest=False, probes=None):
        """Run every case once, in ladder order; returns task seconds.

        Given a list as ``probes``, times a probe before each task into it."""
        latencies = []
        for i, case in enumerate(self.cases):
            if probes is not None:
                probes.append(timed(probe)[0])
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = self.task(case, self.lib)
                else:
                    with tracer.task(i):
                        out = self.task(case, self.lib)
            except Exception as exc:  # counted as a failed task; the loop goes on
                latencies.append(time.perf_counter() - start)
                self._fail(case, exc)
                continue
            latencies.append(time.perf_counter() - start)
            try:
                parts = self.check(case, out, self.lib)
            except Exception as exc:
                self._fail(case, exc)
                continue
            if digest:
                for part in [case.label, *parts]:
                    self.digest.update(part.encode())
                    self.digest.update(b"\0")
        return latencies


def timed_run(loop, seconds, set_up, first_setup):
    """Warm-up cycle, then whole cycles while the next one still fits.

    ``first_setup`` is the (wall, normalised) time of the run's first
    set-up.  ``set_up()`` repeats the set-up and returns its time; it runs
    whenever the next of SETUPS even fractions of ``seconds`` has passed,
    so that ``setup_s`` samples the same stretch of time as the tasks.
    Each cycle's task times are normalised by the probes timed within
    that cycle; a task's latency is the median of its normalised repeats,
    one per measured cycle.
    """
    start = time.perf_counter()
    loop.cycle(digest=True)
    wall, normalised, factors, setups = [], [], [], [first_setup]
    while True:
        begin = time.perf_counter()
        probes = []
        latencies = loop.cycle(probes=probes)
        factors.append(speed(probes))
        wall.append(latencies)
        normalised.append([t * factors[-1] for t in latencies])
        if len(setups) < SETUPS and time.perf_counter() - start >= len(setups) * seconds / SETUPS:
            setups.append(set_up())
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            break
    while len(setups) < SETUPS:
        setups.append(set_up())

    def figures(cycles, setup_times):
        latencies = [statistics.median(repeats) for repeats in zip(*cycles)]
        q = statistics.quantiles(latencies, n=20, method="inclusive")
        return {
            "tasks_per_s": len(latencies) / sum(latencies),
            "task_p50_ms": q[9] * 1000,
            "task_p90_ms": q[17] * 1000,
            "setup_s": statistics.median(setup_times),
        }

    metrics = figures(normalised, [n for _, n in setups])
    raw = figures(wall, [w for w, _ in setups])
    summary = [
        f"samples {len(loop.cases)} tasks x {len(wall)} repeats, set-ups {len(setups)}",
        f"speed-normalised to a probe time of {PROBE_S * 1000} ms; median factor {statistics.median(factors):.4f}",
        "wall-clock " + " ".join(f"{name} {value}" for name, value in raw.items()),
    ]
    if len(wall) < MIN_REPEATS:
        summary.append(f"warning: {len(wall)} repeats per task, fewer than {MIN_REPEATS}: the percentiles are poorly supported")
    return metrics, summary


def traced_run(loop, seconds, span_path):
    warm = sum(loop.cycle(digest=True))
    reps = max(1, int(TRACE_SHARE * seconds / warm))
    untraced = sum(sum(loop.cycle()) for _ in range(reps))
    tracer = Tracer()
    with tracer.patched():
        traced = sum(sum(loop.cycle(tracer)) for _ in range(reps))
    kernels = Counter()
    with profiled(kernels):
        loop.cycle()
    tracer.dump(span_path)

    n = reps * len(loop.cases)
    self_s = tracer.self_times()
    metrics = {span_metric(name): self_s[name] * 1000 / n for name in SPAN_NAMES}
    for name in KERNEL_METRICS:
        prefix, _, kind = name.rpartition(".")
        value = kernels[prefix + ".calls"] if kind == "calls" else kernels[prefix + ".self_s"] * 1000
        metrics[name] = value / len(loop.cases)
    c = tracer.counters
    metrics["algebra.validate.calls"] = c["algebra.validate.calls"] / n
    metrics["algebra.validate.box_per_nnz"] = c["algebra.validate.box"] / max(1, c["algebra.validate.nnz"])
    metrics["exchange.bytes"] = c["exchange.bytes"] / n
    metrics["trace.overhead"] = traced / untraced
    metrics["trace.coverage"] = sum(v for k, v in self_s.items() if k != Tracer.ROOT) / tracer.root_time()
    return metrics, [f"traced {n} tasks ({reps} cycles per pass)"]


def run(workload, seed, seconds, trace, scale="full"):
    """One benchmark run; returns (result object, report lines)."""
    WORKDIR.mkdir(exist_ok=True)
    docdir = tempfile.mkdtemp(prefix="docs-", dir=WORKDIR)
    try:

        def set_up():
            """Set up; returns the library, the cases and the (wall,
            normalised) set-up time."""
            elapsed, (lib, cases) = timed(setup, workload, seed, scale, docdir)
            factor = speed([timed(probe)[0] for _ in range(SETUP_PROBES)])
            return lib, cases, (elapsed, elapsed * factor)

        lib, cases, first = set_up()
        loop = Loop(workload, lib, cases)

        def set_up_again():
            # discard the result and free it, so that peak memory does not
            # depend on how many set-ups ran
            times = set_up()[2]
            gc.collect()
            return times

        if trace:
            span_path = WORKDIR / f"spans-{workload}-seed{seed}.jsonl"
            values, summary = traced_run(loop, seconds, span_path)
            units = PER_LAYER_UNITS
            lines = [f"spans written to {span_path.relative_to(ROOT)}"]
        else:
            values, summary = timed_run(loop, seconds, set_up_again, first)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
            lines = []
    finally:
        shutil.rmtree(docdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines += [
        f"workload {workload}: seed {seed}, closed loop with one client, {len(cases)} tasks per cycle",
        *summary,
        f"attempted {loop.attempted} failed {loop.failed} fail_rate {loop.failed / loop.attempted} ratio",
        *(f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()),
        f"digest {workload} seed {seed} {loop.digest.hexdigest()}",
        f"env python {platform.python_version()} nproc {os.cpu_count()} platform {platform.platform()}",
    ]
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LADDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"), help="tiny ladders for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "dorroh" / "__init__.py").is_file():
        print(f"error: no dorroh package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
