"""Record the expected answers that do not depend on the seed.

    python3 bench/record.py

Run from the root of a repository checkout.  Answers are taken from the
library as it stands, so run this only on a commit whose answers are trusted
(the benchmark's seed commit).  Before writing, every recorded answer that
has an independent source is cross-checked against it: ``tests/oracles.py``
(the dense worklist rewriter and fraction-free rank), the minimal-model
characters and colored-partition counts in ``closed_forms``, and plain
polynomial arithmetic for the depth-1 singular space over product_local.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import closed_forms as cf
import run
import workloads as wls

SEED = 0


def answers(name: str) -> dict:
    """name -> answer for every query of one workload batch at SEED."""
    mv = run.fresh_import()
    wl = wls.WORKLOADS[name](mv, SEED, None)
    batch = run.Batch(wl, in_process=name != "cli")
    return {q.name: a for q, a in zip(wl.queries, batch.answers)}


def _product_local_mul(factors, a: list, b: list) -> list:
    """Multiply two coefficient vectors in Q[t] / prod (t - p)^n."""
    modulus = cf.poly_from_roots([(Fraction(p), n) for p, n in factors])
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    dim = len(modulus) - 1
    for k in range(len(prod) - 1, dim - 1, -1):
        f = prod[k]
        if f:
            for i in range(dim + 1):
                prod[k - dim + i] -= f * modulus[i]
    return prod[:dim]


def cross_check(recorded: dict) -> list[str]:
    """Compare recorded answers with independent sources; return problems."""
    sys.path.insert(0, str(run.ROOT / "tests"))
    import oracles

    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: recorded {got!r}, independent {want!r}")

    classical = recorded["classical"]
    for name, (p, pp, r, s) in wls.MINIMAL_MODEL_POINTS:
        h, c = cf.minimal_model_weight(p, pp, r, s)
        for n in wls.SINGULAR_DEPTHS:
            expect(f"classical singular {name}/{n}", classical[f"singular_vectors/{name}/{n}"],
                   oracles.classical_singular_dim(n, -h, c))
        dims = classical[f"quotient_dims/{name}"]
        for n in range(7):
            expect(f"classical rank {name}/{n}", dims[n],
                   oracles.oracle_rank(oracles.classical_pairing_matrix(n, -h, c)))
        expect(f"minimal-model character {name}", dims,
               cf.minimal_model_character(p, pp, r, s, wls.CLASSICAL_DEPTH))
    for n in range(wls.CLASSICAL_DEPTH + 1):
        expect(f"partitions {n}", cf.colored_partitions(1, n)[n],
               oracles.colored_partition_series(1, n)[n])
    for colors in (2, 3):
        expect(f"colored partitions {colors}", cf.colored_partitions(colors, 6),
               oracles.colored_partition_series(colors, 6))

    decide = recorded["decide"]
    # depth-1 singular vectors over product_local are (d_{-1} (x) J0) v, with J0
    # the radical of (f, g) -> phi(d_0 (x) f g)
    dim = sum(n for _, n in wls.DIM5_FACTORS)
    d0 = [Fraction(3), Fraction(1, 2)] + [Fraction(0)] * (dim - 2)
    basis = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    form = [[sum(x * y for x, y in zip(d0, _product_local_mul(wls.DIM5_FACTORS, bi, bj)))
             for bj in basis] for bi in basis]
    expect("dim5 singular depth 1", decide["singular_vectors/dim5/1"],
           dim - oracles.oracle_rank(form))
    for depth in wls.MAXSUB_DEPTHS:
        expect(f"maxsub depth {depth} outside", decide[f"in_maximal_submodule/depth{depth}"][1], 0)
    tensor_support = decide["annihilator_support/tensor"]["support"]
    expect("tensor support", tensor_support, ["0", "1"])
    return problems


def main() -> int:
    recorded = {name: answers(name) for name in ("classical", "map_algebra", "decide")}
    problems = cross_check(recorded)
    for p in problems:
        print(f"cross-check failed: {p}", file=sys.stderr)
    if problems:
        return 1
    print("cross-checks passed")

    # keep only what the workloads look up; seed-dependent answers come from closed forms
    mv = run.fresh_import()
    keep = {}
    for name in recorded:
        wl = wls.WORKLOADS[name](mv, SEED, None)
        keep[name] = {q.name: recorded[name][q.name] for q in wl.queries if q.expected is None}
    with open(wls.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(keep, fh, indent=1, sort_keys=True)
        fh.write("\n")
    golden = wls.CLI_DIR / "golden"
    for name, (code, stdout) in answers("cli").items():
        if code != 0:
            print(f"{name} exited with {code}", file=sys.stderr)
            return 1
        Path(golden / f"{name}.out").write_text(stdout, encoding="utf-8")
    print(f"wrote {wls.EXPECTED_PATH.name} and {len(list(golden.glob('*.out')))} CLI goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
