"""The four benchmark workloads: seeded inputs, queries and expected answers.

A workload is a fixed batch of queries.  Each query builds fresh algebras,
functionals and handles from plain inputs, so every library cache starts cold,
as a CLI user's does; the benchmark times the whole query.  The seed drives a
``random.Random`` that generates the inputs; the library only ever sees the
generated values.

Expected answers come from two places:

* closed forms computed from the seeded inputs (``closed_forms``), for
  answers that depend on the seed;
* ``expected.json``, recorded at the seed commit by ``record.py``, for answers
  that do not (fixed inputs, or seed-independent verdicts).  The CLI golden
  stdout files live in ``cli/golden``.

Answers are compared in a canonical JSON-like form (lists, strings, ints), so
the check does not depend on object identity or on dict order.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import closed_forms as cf

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
CLI_DIR = BENCH_DIR / "cli"

# -- sizes ----------------------------------------------------------------------

CLASSICAL_DEPTH = 8
SINGULAR_DEPTHS = (1, 2, 3, 4)
GENERIC_POINTS = 3
# (name, textbook minimal model (p, p', r, s)); mapvir's weight is -h_{r,s}
MINIMAL_MODEL_POINTS = (
    ("ising_sigma", (4, 3, 1, 2)),
    ("ising_epsilon", (4, 3, 2, 1)),
    ("tricritical_1_10", (4, 5, 2, 1)),
    ("tricritical_3_80", (4, 5, 2, 2)),
    ("lee_yang", (2, 5, 2, 1)),
)
# (name, product_local factors, depth)
MAP_ALGEBRAS = (
    ("dual", ((0, 2),), 6),
    ("split", ((0, 1), (1, 1)), 5),
    ("cubic", ((0, 3),), 4),
)
PULLBACK_DEPTH = 6
EXACT_ORDERS = (1, 2, 3, 4, 5, 6)
FREE_LENGTHS = (29, 33)
ROOTS = (-3, -2, -1, 1, 2, 3, 4)
DIM5_FACTORS = ((0, 2), (1, 2), (-1, 1))
DIM5_SINGULAR_DEPTHS = (1, 2)
MAXSUB_DEPTHS = (0, 1, 2)
MAXSUB_WINDOW = (0, 40)
MAXSUB_COLORS = (0, 3)
TENSOR_HALF_WIDTH = 10
TENSOR_OFFSETS = (-6, 6)

_DENOMS = (17, 19, 23, 29, 31, 37)


def _generic_scalar(rng: random.Random, slot: int) -> Fraction:
    """A rational of fixed size: a 7-bit numerator over the slot's prime.

    Every seed uses the same denominator in the same place and numerators
    of the same length, so the cost of exact arithmetic stays the same from
    seed to seed.
    """
    den = _DENOMS[slot]
    while True:
        num = rng.randrange(64, 128)
        if num % den:
            return Fraction(rng.choice((-1, 1)) * num, den)


def _small_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randrange(2, 10), rng.randrange(1, 6))


def _poly(p) -> list[str] | None:
    return None if p is None else [str(Fraction(x)) for x in p]


# -- queries --------------------------------------------------------------------


@dataclass
class Query:
    """One library call on freshly built inputs.

    ``build`` returns the objects the call needs; ``call`` runs the library
    and returns the canonical answer; ``gauges`` reads cache sizes from the
    built objects afterwards, from outside the library.
    """

    name: str
    build: Callable[[], Any]
    call: Callable[[Any], Any]
    expected: Any
    gauges: Callable[[Any], dict] = field(default=lambda objs: {})

    def run(self, in_process: bool = True) -> tuple[Any, dict]:
        """Build and call; every query runs in this process."""
        objs = self.build()
        answer = self.call(objs)
        return answer, self.gauges(objs)


@dataclass
class CliQuery:
    """One ``mapvir`` command.  Out of process it is a fresh interpreter, as a
    user's shell would start; in process it is ``mapvir.cli.main``."""

    name: str
    argv: list[str]
    expected: Any
    mv: Any
    env: dict

    def build(self):
        """Parse the spec files the command names, as the command will."""
        def load(flag):
            with open(self.argv[self.argv.index(flag) + 1], encoding="utf-8") as fh:
                return json.load(fh)

        alg = self.mv.algebra_from_spec(load("-A")) if "-A" in self.argv else None
        for flag, loader in (("-phi", self.mv.functional_from_spec),
                             ("-M", self.mv.module_from_spec)):
            if flag in self.argv:
                loader(alg or self.mv.Algebra.rationals(), load(flag))

    def run(self, in_process: bool = False) -> tuple[Any, dict]:
        if in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = self.mv.cli.main(list(self.argv))
            return [code, buf.getvalue()], {}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mapvir.cli import main; sys.exit(main())",
             *self.argv],
            env=self.env, capture_output=True, text=True, timeout=120)
        return [proc.returncode, proc.stdout], {}


@dataclass
class Workload:
    name: str
    queries: list

    def build_all(self):
        """Build every query's inputs once (the set-up's share of the work)."""
        for q in self.queries:
            q.build()


def _phi_gauges(phi) -> dict:
    act = getattr(phi, "_act_cache", None)
    caches = getattr(phi.algebra, "_caches", {})
    return {"act_cache_entries": len(act) if act is not None else 0,
            "left_mult_cache_entries": len(caches.get("pbw_left_mult", ()))}


def _verdict(v) -> dict:
    witness = getattr(v, "witness", None)
    if witness is None:
        witness = getattr(v, "witness_ideal", None)
    return {"status": v.status,
            "witness": None if witness is None else _poly(witness.generator_poly()),
            "candidate": None if v.candidate is None else _poly(v.candidate.generator_poly())}


def _record(rec) -> dict:
    return {"verdict": rec.verdict,
            "components": [[None if c.point is None else str(c.point), c.order]
                           for c in rec.components]}


def _table(t) -> dict:
    return {"mult": [[o, m] for o, m in sorted(t.mult.items()) if m],
            "truncated": t.truncated}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- classical -------------------------------------------------------------------


def classical(mv, seed: int, golden: dict | None) -> Workload:
    """quotient_dims and singular_vectors over A = Q at minimal-model and
    seeded generic weights."""
    rng = random.Random(seed)
    exp = (golden or {}).get("classical", {}).get
    points = []
    for name, (p, pp, r, s) in MINIMAL_MODEL_POINTS:
        h, c = cf.minimal_model_weight(p, pp, r, s)
        dims = cf.minimal_model_character(p, pp, r, s, CLASSICAL_DEPTH)
        sing = [exp(f"singular_vectors/{name}/{n}") for n in SINGULAR_DEPTHS]
        points.append((name, -h, c, dims, sing))
    for i in range(GENERIC_POINTS):
        while True:
            h, c = _generic_scalar(rng, 0), _generic_scalar(rng, 1)
            if not cf.kac_vanishes(-h, c, CLASSICAL_DEPTH):
                break
        points.append((f"generic{i}", h, c, cf.colored_partitions(1, CLASSICAL_DEPTH),
                       [0] * len(SINGULAR_DEPTHS)))

    queries = []
    for name, h, c, dims, sing in points:
        build = (lambda h=h, c=c: mv.Functional.classical(h, c))
        queries.append(Query(
            f"quotient_dims/{name}", build,
            lambda phi: list(mv.quotient_dims(phi, CLASSICAL_DEPTH)), dims, _phi_gauges))
        for n, expected in zip(SINGULAR_DEPTHS, sing):
            queries.append(Query(
                f"singular_vectors/{name}/{n}", build,
                lambda phi, n=n: len(mv.singular_vectors(phi, n)), expected, _phi_gauges))
    return Workload("classical", queries)


# -- map_algebra -----------------------------------------------------------------


def _local_generic_values(rng, dim: int, depth: int) -> tuple[dict, dict]:
    """Values on the monomial basis of Q[t]/t^dim with a nondegenerate top form."""
    while True:
        d0 = {i: _generic_scalar(rng, i) for i in range(dim)}
        c = {i: _generic_scalar(rng, dim + i) for i in range(dim)}
        if not cf.top_form_degenerate(d0[dim - 1], c[dim - 1], depth):
            return d0, c


def _split_generic_values(rng, depth: int) -> tuple[dict, dict, list[int]]:
    """Values on {1, t} of Q x Q = Q[t]/(t (t - 1)); returns the expected
    quotient dims as the CRT convolution of the two factor characters."""
    while True:
        d0 = {0: _generic_scalar(rng, 0), 1: _generic_scalar(rng, 1)}
        c = {0: _generic_scalar(rng, 2), 1: _generic_scalar(rng, 3)}
        # idempotents: e_0 = 1 - t at the point 0, e_1 = t at the point 1
        factors = [(d0[0] - d0[1], c[0] - c[1]), (d0[1], c[1])]
        if not any(cf.kac_vanishes(-h, cc, depth) for h, cc in factors):
            p = cf.colored_partitions(1, depth)
            return d0, c, cf.convolve(p, p, depth)


def map_algebra(mv, seed: int, golden: dict | None) -> Workload:
    """quotient_dims over dual numbers, Q x Q and Q[t]/t^3, plus a pullback."""
    rng = random.Random(seed)
    queries = []
    for name, factors, depth in MAP_ALGEBRAS:
        if name == "split":
            d0, c, dims = _split_generic_values(rng, depth)
        else:
            dim = factors[0][1]
            d0, c = _local_generic_values(rng, dim, depth)
            dims = cf.colored_partitions(dim, depth)

        def build(factors=factors, d0=d0, c=c):
            return mv.Functional(mv.Algebra.product_local(factors), d0, c)

        queries.append(Query(
            f"quotient_dims/{name}", build,
            lambda phi, depth=depth: list(mv.quotient_dims(phi, depth)), dims, _phi_gauges))
    h, cc = cf.minimal_model_weight(4, 3, 1, 2)
    queries.append(Query(
        "quotient_dims/ising_sigma_pullback",
        lambda: mv.Functional(mv.Algebra.product_local(((0, 2),)), {0: -h}, {0: cc}),
        lambda phi: list(mv.quotient_dims(phi, PULLBACK_DEPTH)),
        cf.minimal_model_character(4, 3, 1, 2, PULLBACK_DEPTH), _phi_gauges))
    return Workload("map_algebra", queries)


# -- decide ----------------------------------------------------------------------


def _recurrent_values(rng, order: int, length: int):
    """Roots, char poly and two sequences whose minimal recurrence is exactly
    that poly (checked by Berlekamp-Massey, independent of the library)."""
    distinct = order - 1 if order >= 3 else order
    while True:
        roots = sorted(rng.sample(ROOTS, distinct))
        mults = [1] * distinct
        if order >= 3:
            mults[rng.randrange(distinct)] = 2
        pairs = list(zip(roots, mults))
        p = cf.poly_from_roots(pairs)
        lam = cf.extend_recurrence([_small_scalar(rng) for _ in range(order)], p, length)
        kap = cf.extend_recurrence([_small_scalar(rng) for _ in range(order)], p, length)
        if cf.berlekamp_massey(lam) == p and cf.berlekamp_massey(kap) == p:
            return sorted(pairs), p, lam, kap


def _free_values(rng, length: int):
    """Two sequences with no recurrence of order <= (length - 1) // 2."""
    cap = (length - 1) // 2
    while True:
        lam = [_small_scalar(rng) for _ in range(length)]
        kap = [_small_scalar(rng) for _ in range(length)]
        if len(cf.berlekamp_massey(lam)) - 1 > cap:
            return lam, kap


def decide(mv, seed: int, golden: dict | None) -> Workload:
    """The decision procedures, CRT splitting, the maximal-submodule sweep and
    module tables."""
    rng = random.Random(seed)
    exp = (golden or {}).get("decide", {}).get
    queries = []

    def verdict_queries(label, build, expected, assume_exact=False):
        queries.append(Query(
            f"check_quasifinite/{label}", build,
            lambda phi: _verdict(mv.check_quasifinite(phi, assume_exact=assume_exact)),
            expected[0], _phi_gauges))
        queries.append(Query(
            f"check_verma_reducible/{label}", build,
            lambda phi: _verdict(mv.check_verma_reducible(phi, assume_exact=assume_exact)),
            expected[1], _phi_gauges))
        queries.append(Query(
            f"classify_module/{label}", build,
            lambda phi: _record(mv.classify_module(phi, assume_exact=assume_exact)),
            expected[2], _phi_gauges))

    for order in EXACT_ORDERS:
        length = 2 * order + 2
        pairs, p, lam, kap = _recurrent_values(rng, order, length)
        window = (0, 2 * order + 8)
        exact_p = _poly(p)
        components = [[str(Fraction(a)), m] for a, m in pairs]
        verdict_queries(
            f"exact{order}",
            lambda lam=lam, kap=kap, p=p, window=window: mv.Functional.from_sequences(
                mv.Algebra.polynomial(window), lam, kap, exact_ideal=p),
            [{"status": "quasifinite_certified", "witness": exact_p, "candidate": None},
             {"status": "reducible_certified", "witness": exact_p, "candidate": None},
             {"verdict": "hw_tensor_of_generalized_evals", "components": components}])
        verdict_queries(
            f"sampled{order}",
            lambda lam=lam, kap=kap, window=window: mv.Functional.from_sequences(
                mv.Algebra.polynomial(window), lam, kap),
            [{"status": "no_witness_up_to_bound", "witness": None, "candidate": exact_p},
             {"status": "no_witness_up_to_bound", "witness": None, "candidate": exact_p},
             {"verdict": "undetermined_at_bound", "components": []}])
    for length in FREE_LENGTHS:
        lam, kap = _free_values(rng, length)
        verdict_queries(
            f"free{length}",
            lambda lam=lam, kap=kap, length=length: mv.Functional.from_sequences(
                mv.Algebra.polynomial((0, length + 4)), lam, kap),
            [{"status": "no_witness_up_to_bound", "witness": None, "candidate": None},
             {"status": "irreducible_certified", "witness": None, "candidate": None},
             {"verdict": "not_quasifinite", "components": []}],
            assume_exact=True)

    # a fixed functional over a 5-dimensional product of local algebras, with
    # singular vectors at every depth queried
    def dim5():
        alg = mv.Algebra.product_local(DIM5_FACTORS)
        return mv.Functional(alg, {0: Fraction(3), 1: Fraction(1, 2)},
                             {0: Fraction(1, 2), 1: Fraction(2)})

    queries.append(Query("split_phi/dim5", dim5,
                         lambda phi: [mv.functional_to_spec(x) for x in mv.split_phi(phi)],
                         exp("split_phi/dim5"), _phi_gauges))
    queries.append(Query("classify_module/dim5", dim5,
                         lambda phi: mv.classify_module(phi).to_json_dict(),
                         exp("classify_module/dim5"), _phi_gauges))
    for n in DIM5_SINGULAR_DEPTHS:
        queries.append(Query(f"singular_vectors/dim5/{n}", dim5,
                             lambda phi, n=n: len(mv.singular_vectors(phi, n)),
                             exp(f"singular_vectors/dim5/{n}"), _phi_gauges))

    # criterion 4: (Vir (x) (t - 2)) V lands in the maximal submodule
    lam0, kap0 = _small_scalar(rng), _small_scalar(rng)

    def maxsub_phi():
        P = mv.Algebra.polynomial(MAXSUB_WINDOW)
        lam = [lam0 * 2 ** k for k in range(11)]
        kap = [kap0 * 2 ** k for k in range(11)]
        return mv.Functional.from_sequences(P, lam, kap, exact_ideal=(Fraction(-2), Fraction(1)))

    def maxsub_sweep(phi, depth):
        P = phi.algebra
        gen = P.from_poly((Fraction(-2), Fraction(1)))
        pieces = outside = 0
        for mono in mv.pbw_basis(depth, P, window=MAXSUB_COLORS):
            w = mv.VermaVector(phi, mv.EnvElement(P, {mono: Fraction(1)}))
            for mode in (-2, -1, 0, 1, 2):
                for piece in mv.verma_act(mv.d_term(P, mode, gen), w):
                    pieces += 1
                    outside += not mv.in_maximal_submodule(piece, window=MAXSUB_COLORS)
        return [pieces, outside]

    for depth in MAXSUB_DEPTHS:
        pieces = exp(f"in_maximal_submodule/depth{depth}")
        queries.append(Query(f"in_maximal_submodule/depth{depth}", maxsub_phi,
                             lambda phi, depth=depth: maxsub_sweep(phi, depth),
                             None if pieces is None else [pieces[0], 0], _phi_gauges))

    # module tables: a two-point tensor of intermediate-series evaluations, a
    # generalized evaluation at an order-2 point, and a classical quotient
    w = TENSOR_HALF_WIDTH
    series = []
    for _ in range(2):
        while True:
            a, b = _small_scalar(rng), _small_scalar(rng)
            if (a + b).denominator != 1:
                series.append((a, b))
                break

    def tensor():
        split = mv.Algebra.product_local(((0, 1), (1, 1)))
        return mv.TensorHandle([
            mv.IntSeriesEvalHandle(split, mv.IntSeriesSpec(a, b, (-w, w)), point)
            for point, (a, b) in enumerate(series)])

    lo, hi = TENSOR_OFFSETS
    queries.append(Query(
        "weight_multiplicities/tensor", tensor,
        lambda hd: _table(mv.weight_multiplicities(hd, TENSOR_OFFSETS)),
        {"mult": [[o, 2 * w + 1 - abs(o)] for o in range(lo, hi + 1)], "truncated": True}))
    queries.append(Query("annihilator_support/tensor", tensor,
                         lambda hd: mv.annihilator_support(hd).to_json_dict(),
                         exp("annihilator_support/tensor")))
    queries.append(Query("trichotomy_profile/tensor", tensor,
                         lambda hd: _trichotomy_shape(mv.trichotomy_profile(hd, (-8, 8))),
                         exp("trichotomy_profile/tensor")))

    gd0, gc = _local_generic_values(rng, 2, 4)

    def generalized():
        alg = mv.Algebra.product_local(((0, 2), (1, 1)))
        quotient, _ = mv.local_quotient(alg, 0, 2)
        inner = mv.IrreducibleQuotientHandle(mv.Functional(quotient, gd0, gc))
        return mv.GeneralizedEvalHandle(alg, 0, 2, inner)

    two = cf.colored_partitions(2, 4)
    queries.append(Query(
        "weight_multiplicities/generalized_eval", generalized,
        lambda hd: _table(mv.weight_multiplicities(hd, (-4, 0))),
        {"mult": [[-n, two[n]] for n in range(4, -1, -1)], "truncated": False}))
    queries.append(Query("annihilator_support/generalized_eval", generalized,
                         lambda hd: mv.annihilator_support(hd).to_json_dict(),
                         exp("annihilator_support/generalized_eval")))

    while True:
        qh, qc = _generic_scalar(rng, 0), _generic_scalar(rng, 1)
        if not cf.kac_vanishes(-qh, qc, 6):
            break

    def quotient_handle():
        return mv.IrreducibleQuotientHandle(mv.Functional.classical(qh, qc))

    part = cf.colored_partitions(1, 6)
    queries.append(Query(
        "weight_multiplicities/irreducible_quotient", quotient_handle,
        lambda hd: _table(mv.weight_multiplicities(hd, (-6, 0))),
        {"mult": [[-n, part[n]] for n in range(6, -1, -1)], "truncated": False}))
    queries.append(Query("annihilator_support/irreducible_quotient", quotient_handle,
                         lambda hd: mv.annihilator_support(hd).to_json_dict(),
                         exp("annihilator_support/irreducible_quotient")))
    queries.append(Query("trichotomy_profile/irreducible_quotient", quotient_handle,
                         lambda hd: _trichotomy_shape(mv.trichotomy_profile(hd, (-6, 2))),
                         exp("trichotomy_profile/irreducible_quotient")))
    return Workload("decide", queries)


def _trichotomy_shape(profile) -> list:
    return [profile.shape, profile.bound, profile.window_truncated]


# -- cli -------------------------------------------------------------------------


def cli_env(src: Path) -> dict:
    """Environment of a ``mapvir`` process: this checkout's sources only."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MAPVIR_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    return env


def cli(mv, seed: int, golden: dict | None) -> Workload:
    """A fixed script of ``mapvir`` commands, in a seeded order."""
    rng = random.Random(seed)
    env = cli_env(BENCH_DIR.parent / "src")
    with open(CLI_DIR / "script.json", encoding="utf-8") as fh:
        script = json.load(fh)
    rng.shuffle(script)
    queries = []
    for entry in script:
        argv = [str(CLI_DIR / a) if a.startswith("specs/") else a for a in entry["argv"]]
        golden_path = CLI_DIR / "golden" / f"{entry['name']}.out"
        expected = [0, golden_path.read_text(encoding="utf-8")] if golden_path.exists() else None
        queries.append(CliQuery(entry["name"], argv, expected, mv, env))
    return Workload("cli", queries)


WORKLOADS = {
    "classical": classical,
    "map_algebra": map_algebra,
    "decide": decide,
    "cli": cli,
}
