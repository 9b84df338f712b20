"""Self-tests of the benchmark itself.

    python3 bench/test_bench.py

Run from the root of a repository checkout.  Takes about a minute: every
workload runs a few batches.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import closed_forms as cf
import run
import tracing as tr
import workloads as wls

RUN = [sys.executable, str(Path(run.__file__).resolve())]


def _bench(*args, cwd=run.ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def _set_up(name: str, seed: int = 0):
    return run.set_up(name, seed, wls.load_expected())


class ClosedForms(unittest.TestCase):
    def test_minimal_model_characters(self):
        # measured graded dimensions of the Ising sigma and Lee-Yang modules
        self.assertEqual(cf.minimal_model_character(4, 3, 1, 2, 10),
                         [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10])
        self.assertEqual(cf.minimal_model_character(2, 5, 2, 1, 10),
                         [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6])
        self.assertEqual(cf.minimal_model_weight(2, 5, 2, 1), (Fraction(-1, 5), Fraction(-22, 5)))

    def test_kac_determinant_zeros(self):
        self.assertTrue(cf.kac_vanishes(Fraction(1, 16), Fraction(1, 2), 2))
        self.assertFalse(cf.kac_vanishes(Fraction(1, 16), Fraction(1, 2), 1))
        self.assertTrue(cf.kac_vanishes(Fraction(0), Fraction(7), 1))
        self.assertTrue(cf.kac_vanishes(Fraction(1, 4), Fraction(1), 2))

    def test_berlekamp_massey(self):
        p = cf.poly_from_roots([(2, 2), (-1, 1)])
        seq = cf.extend_recurrence([Fraction(1), Fraction(3), Fraction(-2)], p, 12)
        self.assertEqual(cf.berlekamp_massey(seq), p)
        self.assertEqual(cf.berlekamp_massey([Fraction(2) ** k for k in range(9)]),
                         (Fraction(-2), Fraction(1)))


class Harness(unittest.TestCase):
    def test_smoke_run_prints_a_checked_result(self):
        for name in sorted(wls.WORKLOADS):
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                                  "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_other_seeds_give_valid_inputs(self):
        for name in ("classical", "map_algebra", "decide"):
            for seed in (1, 2, 987654321):
                with self.subTest(workload=name, seed=seed):
                    batch = run.Batch(_set_up(name, seed), in_process=True)
                    self.assertEqual(batch.failures, [])

    def test_passes_agree_and_wrappers_are_restored(self):
        for name in ("decide", "cli"):
            wl = _set_up(name)
            modules = {n: dict(vars(m)) for n, m in sys.modules.items()
                       if n == "mapvir" or n.startswith("mapvir.")}
            plain = run.Batch(wl, in_process=True)
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced = run.Batch(wl, in_process=True, tracer=tracer)
            finally:
                tracer.restore()
            self.assertGreater(len(tracer.spans), len(wl.queries))
            for n, before in modules.items():
                after = vars(sys.modules[n])
                for key, value in before.items():
                    self.assertIs(after[key], value, f"{n}.{key} not restored")
            counted = []
            tr.count_calls(lambda: counted.append(run.Batch(wl, in_process=True)))
            self.assertEqual(plain.failures, [])
            self.assertEqual(traced.answers, plain.answers)
            self.assertEqual(counted[0].answers, plain.answers)

    def test_counts_repeat_exactly_across_processes(self):
        counts = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = _bench("--workload", "classical", "--seed", "5", "--seconds", "0.1",
                          "--trace", "1", env=env)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            counts.append({k: metrics[k]["value"] for k in tr.COUNTED})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["scalars.fraction_ops"], 0)

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
