"""Seeded invariant suites behind ``mapvir selftest``.

Each suite draws its own Random(seed) stream, so results are byte-identical
for identical seeds regardless of suite order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Algebra, crt_idempotents, ideal_closure, ideal_intersection, ideal_product
from .liealg import LieElement, bracket, c_term, d_term, grade_decompose
from .pbw import colored_partition_counts, pbw_basis, straighten


def rand_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_element(rng: random.Random, algebra: Algebra):
    coeffs = {}
    for i in algebra.basis_indices():
        if rng.random() < 0.7:
            coeffs[i] = rand_scalar(rng)
    return algebra.element(coeffs)


def rand_lie(rng: random.Random, algebra: Algebra, modes=(-4, 4)) -> LieElement:
    x = LieElement(algebra, {})
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(*modes)
        x = x + d_term(algebra, n, rand_element(rng, algebra))
    if rng.random() < 0.4:
        x = x + c_term(algebra, rand_element(rng, algebra))
    return x


def rand_lowering(rng: random.Random, algebra: Algebra) -> LieElement:
    x = LieElement(algebra, {})
    while x.is_zero():
        for _ in range(rng.randint(1, 2)):
            n = -rng.randint(1, 3)
            x = x + d_term(algebra, n, rand_element(rng, algebra))
    return x


def _test_algebras():
    return [Algebra.rationals(),
            Algebra.product_local([(0, 2)]),
            Algebra.product_local([(0, 1), (1, 1)]),
            Algebra.product_local([(0, 2), (1, 1)])]


def suite_algebra_axioms(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for alg in _test_algebras():
        one = alg.one()
        for _ in range(40):
            x, y, z = (rand_element(rng, alg) for _ in range(3))
            if x * y != y * x:
                return False, f"commutativity fails in {alg!r}"
            if (x * y) * z != x * (y * z):
                return False, f"associativity fails in {alg!r}"
            if one * x != x:
                return False, f"unit law fails in {alg!r}"
    return True, "40 triples per algebra"


def suite_idempotents(seed: int) -> tuple[bool, str]:
    for alg in _test_algebras()[1:]:
        idems = [alg.from_poly(e) for e in crt_idempotents(alg)]
        if any(e * e != e for e in idems):
            return False, f"e^2 != e in {alg!r}"
        if sum(idems, alg.zero()) != alg.one():
            return False, f"sum of idempotents != 1 in {alg!r}"
        if any(not (e * f).is_zero() for i, e in enumerate(idems) for f in idems[i + 1:]):
            return False, f"idempotents not orthogonal in {alg!r}"
    return True, "all product_local test algebras"


def suite_ideal_product(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    checked = 0
    for alg in _test_algebras()[1:]:
        for _ in range(10):
            a = rand_element(rng, alg)
            b = rand_element(rng, alg)
            if a.is_zero() or b.is_zero():
                continue
            i1 = ideal_closure([a])
            i2 = ideal_closure([b])
            prod = ideal_product(i1, i2)
            inter = ideal_intersection(i1, i2)
            for row in prod.basis_elements():
                if not inter.contains(row):
                    return False, f"product not inside intersection in {alg!r}"
            checked += 1
    return True, f"{checked} random ideal pairs"


def suite_antisymmetry(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    algs = [Algebra.rationals(), Algebra.product_local([(0, 2)])]
    for _ in range(200):
        alg = rng.choice(algs)
        x = rand_lie(rng, alg)
        y = rand_lie(rng, alg)
        if bracket(x, y) != bracket(y, x).scale(-1):
            return False, "antisymmetry fails"
    return True, "200 random pairs"


def suite_jacobi(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    algs = [Algebra.rationals(), Algebra.product_local([(0, 2)])]
    for _ in range(200):
        alg = rng.choice(algs)
        x, y, z = (rand_lie(rng, alg, modes=(-3, 3)) for _ in range(3))
        total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        if not total.is_zero():
            return False, "Jacobi identity fails"
    return True, "200 random triples"


def suite_grading(seed: int) -> tuple[bool, str]:
    alg = Algebra.product_local([(0, 2)])
    for i in range(-6, 7):
        for j in range(-6, 7):
            out = bracket(d_term(alg, i, alg.basis_element(1)),
                          d_term(alg, j, alg.one()))
            for comp in grade_decompose(out):
                if comp.mode != i + j:
                    return False, f"bracket of modes {i},{j} leaked to {comp.mode}"
    return True, "|i|,|j| <= 6"


def suite_straighten_order(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    algs = [Algebra.rationals(), Algebra.product_local([(0, 2)])]
    for _ in range(100):
        alg = rng.choice(algs)
        x = rand_lowering(rng, alg)
        y = rand_lowering(rng, alg)
        lhs = straighten([x, y]) - straighten([y, x])
        rhs = straighten([bracket(x, y)]) if not bracket(x, y).is_zero() else lhs - lhs
        if lhs != rhs:
            return False, "straighten(xy) - straighten(yx) != straighten([x,y])"
    return True, "100 random pairs"


def suite_pbw_counts(seed: int) -> tuple[bool, str]:
    algebras = {1: Algebra.rationals(),
                2: Algebra.product_local([(0, 2)]),
                3: Algebra.product_local([(0, 3)])}
    for colors, alg in algebras.items():
        expected = colored_partition_counts(colors, 8)
        for n in range(9):
            if len(pbw_basis(n, alg)) != expected[n]:
                return False, f"count mismatch at weight {n}, {colors} colors"
    return True, "dims 1..3, weights <= 8"


SUITES = [
    ("algebra_axioms", suite_algebra_axioms),
    ("idempotents", suite_idempotents),
    ("ideal_product_in_intersection", suite_ideal_product),
    ("bracket_antisymmetry", suite_antisymmetry),
    ("jacobi", suite_jacobi),
    ("grading", suite_grading),
    ("straighten_order_independence", suite_straighten_order),
    ("pbw_partition_counts", suite_pbw_counts),
]


def run_selftest(seed: int = 0) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in SUITES:
        ok, detail = fn(seed)
        results.append((name, ok, detail))
    return results
