"""mapvir benchmark: seeded closed-loop workloads with every answer checked.

    python3 bench/run.py --workload classical --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
One client sends one query at a time (in ``cli``, one ``mapvir`` process at a
time), so a slower library receives less load.  Whole batches of queries run
until ``--seconds`` are used up.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: time to answer the whole batch, as the sum over its queries of
  each query's fastest latency in the run (bursts of load from other tenants
  only ever slow a query down, so the fastest is the steadiest estimate);
* ``setup_s``: median of several set-ups, each importing mapvir afresh,
  generating the inputs and building the algebras, functionals and handles;
* ``peak_rss_mb``: peak resident memory of the process that did the work
  (for ``cli``, the largest ``mapvir`` process).

Both times are scaled to a reference host by a fixed job that shares no code
with mapvir (``reference.py``): ``wall_s`` by the job's nominal time over its
fastest run, one run after each batch; ``setup_s`` by the nominal time over
its median run, one run before each set-up.  For ``cli`` the median and tail
latency of single ``mapvir`` calls are printed as well.

``--trace 1`` prints the per-layer metrics from a traced pass (wrapped entry
points, alternated with untraced batches to give the tracing overhead), a
counting pass under cProfile and timed bare interpreters.  These are not
scaled.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when a result was printed and 2 when the library could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing as tr
import workloads as wls
from reference import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
PROBE_REPEATS = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "verma.quotient_dims_s": "s", "verma.pairing_self_s": "s", "verma.raising_s": "s",
    "verma.raising_calls": "count", "verma.act_basis_calls": "count",
    "verma.act_cache_entries": "count", "verma.singular_s": "s", "verma.maxsub_s": "s",
    "verma.check_s": "s", "pbw.basis_s": "s", "pbw.basis_monomials": "count",
    "pbw.left_mult_calls": "count", "pbw.left_mult_cache_entries": "count",
    "linalg.rref_s": "s", "linalg.rref_calls": "count", "linalg.rref_cells": "count",
    "linalg.rank_yield": "ratio", "linalg.kernel_s": "s", "linalg.solve_s": "s",
    "recurrence.detect_s": "s", "recurrence.detect_calls": "count",
    "recurrence.solve_calls": "count", "algebra.mul_coeffs_calls": "count",
    "algebra.decomp_s": "s", "evalmod.weights_s": "s", "evalmod.annihilator_s": "s",
    "classify.classify_s": "s", "classify.trichotomy_s": "s", "cli.interp_s": "s",
    "cli.import_s": "s", "cli.main_s": "s", "scalars.fraction_ops": "count",
    "trace.overhead_s": "s",
}


# workload -> (the layer it is meant to stress, the metric timing it in a
# traced batch); for cli the share comes from the interpreter probes
DOMINANT = {
    "classical": ("the Verma action (apply_raising)", "verma.raising_s"),
    "map_algebra": ("exact rank (linalg.rref)", "linalg.rref_s"),
    "decide": ("recurrence detection with its solves", "recurrence.detect_s"),
    "cli": ("interpreter start plus import", None),
}


class LoadError(Exception):
    """The library under test could not be imported from this checkout."""


def fresh_import():
    """Import mapvir (and its CLI) from this checkout's src, from scratch."""
    for name in [n for n in sys.modules if n == "mapvir" or n.startswith("mapvir.")]:
        del sys.modules[name]
    if not (SRC / "mapvir" / "__init__.py").is_file():
        raise LoadError(f"no mapvir package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        mv = importlib.import_module("mapvir")
        importlib.import_module("mapvir.cli")
    except ImportError as exc:
        raise LoadError(f"cannot import mapvir: {exc}") from exc
    if SRC.resolve() not in Path(mv.__file__).resolve().parents:
        raise LoadError(f"mapvir resolved to {mv.__file__}, outside {SRC}")
    return mv


def set_up(workload: str, seed: int, golden: dict):
    """Import the library, generate the inputs and build every query's objects."""
    mv = fresh_import()
    wl = wls.WORKLOADS[workload](mv, seed, golden)
    wl.build_all()
    return wl


class Batch:
    """One pass over a workload's queries."""

    def __init__(self, wl, in_process: bool, tracer: tr.Tracer | None = None):
        self.latencies: list[float] = []
        self.answers: list = []
        self.gauges: list[dict] = []
        self.failures: list[str] = []
        start = time.perf_counter()
        for q in wl.queries:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    answer, gauges = q.run(in_process)
                else:
                    with tracer.span("query"):
                        answer, gauges = q.run(in_process)
            except Exception as exc:  # a failed query is counted, not fatal
                answer, gauges = f"error: {type(exc).__name__}: {exc}", {}
            self.latencies.append(time.perf_counter() - t0)
            self.answers.append(answer)
            self.gauges.append(gauges)
            if q.expected is None or answer != q.expected:
                self.failures.append(q.name)
        self.seconds = time.perf_counter() - start


def run_timed(seconds: float, step) -> list:
    """Call step() until the next call would end after the deadline (at least once)."""
    deadline = time.perf_counter() + seconds
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(step())
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return out


def fastest_total(batches: list[Batch]) -> float:
    """Sum over the queries of each one's fastest latency in the batches;
    bursts of load from other tenants only ever slow a query down."""
    return sum(min(lat) for lat in zip(*(b.latencies for b in batches)))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"one sample {values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, median {q2:.4f}, q3 {q3:.4f}"


def probe(code: str) -> float:
    """Fastest wall time of a fresh interpreter running code."""
    env = wls.cli_env(SRC)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        # pipes, not DEVNULL: with no pipe to read, the timeout makes the wait
        # poll, and its sleeps would be timed as well
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return min(times)


def end_to_end(wl, args, setup_times, setup_speed: HostSpeed) -> tuple[dict, list]:
    """Untraced batches, each followed by one run of the reference job.

    Each query's fastest latency over the batches is scaled by the reference
    job's fastest time over as many runs, taken in the same stretch of time;
    the median set-up is scaled by the job's median time during the set-ups.
    """
    speed = HostSpeed()

    def step():
        batch = Batch(wl, in_process=False)
        speed.sample()
        return batch

    batches = run_timed(args.seconds, step)
    scale = speed.scale(min)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": fastest_total(batches) * scale,
        "setup_s": statistics.median(setup_times) * setup_speed.scale(statistics.median),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    walls = [b.seconds for b in batches]
    print(f"host speed: reference job {min(speed.times) * 1e3:.2f} ms at its fastest, "
          f"{statistics.median(speed.times) * 1e3:.2f} ms median; wall_s is scaled by "
          f"{scale:.4f}")
    print(f"wall_s: sum over {len(wl.queries)} queries of each one's fastest of "
          f"{len(batches)} batches; unscaled batches: {quartiles(walls)}")
    print(f"setup_s: median of {len(setup_times)} set-ups, scaled by "
          f"{setup_speed.scale(statistics.median):.4f} (unscaled {quartiles(setup_times)})")
    if wl.name == "cli":
        latencies = [x for b in batches for x in b.latencies]
        value, pct = tail(latencies)
        print(f"call_p50_s {statistics.median(latencies):.6g} s; call_tail_s {value:.6g} s "
              f"(p{pct:.1f} of {len(latencies)} mapvir calls, 10 beyond it; unscaled)")
    return metrics, batches


def per_layer(wl, args) -> tuple[dict, list]:
    """Traced batches alternated with untraced in-process ones, then one
    counted batch and the interpreter probes."""
    tracer = tr.Tracer()
    plain, traced = [], []

    def pair():
        plain.append(Batch(wl, in_process=True))
        tracer.spans = []
        tracer.install()
        try:
            batch = Batch(wl, in_process=True, tracer=tracer)
        finally:
            tracer.restore()
        traced.append((batch, tr.layer_metrics(tracer.spans, batch.gauges),
                       tr.layer_shares(tracer.spans)))

    run_timed(args.seconds, pair)
    counted = []
    counts = tr.count_calls(lambda: counted.append(Batch(wl, in_process=True)))
    interp = probe("pass")
    imported = probe("import mapvir, mapvir.cli")

    metrics = {name: statistics.median_low([m[name] for _, m, _ in traced])
               for name in traced[0][1]}
    metrics.update(counts)
    metrics["cli.interp_s"] = interp
    metrics["cli.import_s"] = imported - interp
    metrics["trace.overhead_s"] = (fastest_total([b for b, _, _ in traced])
                                   - fastest_total(plain))
    batches = plain + [b for b, _, _ in traced] + counted
    traced_wall = statistics.median_low([b.seconds for b, _, _ in traced])
    print(f"traced pass: {len(traced)} batches; counting pass: 1 batch")
    print("layer self-time shares (traced): "
          + ", ".join(f"{k} {v:.1%}" for k, v in traced[len(traced) // 2][2].items()))
    if wl.name == "cli":
        processes = Batch(wl, in_process=False)
        batches.append(processes)
        share = imported * len(processes.latencies) / processes.seconds
    else:
        share = metrics[DOMINANT[wl.name][1]] / traced_wall
    print(f"intended dominant layer, {DOMINANT[wl.name][0]}: {share:.1%} of the batch")
    if any(b.answers != batches[0].answers for b in batches):
        print("answers differ between passes", file=sys.stderr)
        batches[-1].failures.append("pass parity")
    return metrics, batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("MAPVIR_")]:
        del os.environ[key]

    golden = wls.load_expected()
    speed = HostSpeed()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            speed.sample()
            t0 = time.perf_counter()
            wl = set_up(args.workload, args.seed, golden)
            setup_times.append(time.perf_counter() - t0)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, batches = per_layer(wl, args)
        units = PER_LAYER_UNITS
    else:
        metrics, batches = end_to_end(wl, args, setup_times, speed)
        units = END_TO_END_UNITS
    attempted = sum(len(b.answers) for b in batches)
    failures = [name for b in batches for name in b.failures]
    for name in sorted(set(failures))[:10]:
        print(f"mismatch: {name}", file=sys.stderr)
    print(f"workload {wl.name}, seed {args.seed}: {attempted} queries, "
          f"{len(failures)} failed, error_rate {len(failures) / attempted:.4f}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
