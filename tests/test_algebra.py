import ast
import json
import math
import pathlib
import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest

import mapvir
from mapvir import (
    Algebra,
    AlgebraMismatch,
    ImproperIdeal,
    Ideal,
    PrincipalIdeal,
    UnsupportedKind,
    WindowOverflow,
    algebra_from_spec,
    algebra_to_spec,
    format_element,
    ideal_closure,
    ideal_intersection,
    ideal_power,
    ideal_product,
    point_ideal,
    quotient_algebra,
)
from mapvir import algebra as algebra_module
from mapvir import polyutil
from mapvir.algebra import crt_idempotents
from oracles import (
    oracle_crt_idempotents,
    oracle_ideal_closure,
    oracle_modulus,
    oracle_product_local_mul,
    oracle_rank,
    oracle_reduce,
    oracle_row_space_intersection,
    oracle_taylor,
    poly_divmod_oracle,
    principal_quotient_tensor,
)


def rand_elt(rng, alg):
    return alg.element({i: F(rng.randint(-5, 5), rng.randint(1, 3))
                        for i in alg.basis_indices() if rng.random() < 0.8})


def idempotent_splitting_algebra():
    return Algebra.product_local([(0, 1), (1, 1)])  # Q[t]/(t^2 - t)


# -- multiplication ----------------------------------------------------------

def test_nilpotent_square():
    alg = Algebra.product_local([(0, 2)])  # Q[t]/(t^2)
    t = alg.basis_element(1)
    assert (t * t).is_zero()


def test_unit_law():
    for alg in (Algebra.rationals(), Algebra.product_local([(0, 3)]),
                Algebra.polynomial((0, 8))):
        one = alg.one()
        f = alg.element({0: F(2), **({1: F(-1, 3)} if alg.kind != "structure_constants" else {})})
        assert one * f == f


def test_split_quadratic_square():
    # t * t in Q[t]/(t^2 - t); expected value from the long-division oracle
    quo, rem = poly_divmod_oracle([1, 0, 0], [1, -1, 0])  # t^2 mod (t^2 - t)
    assert rem == [F(1), F(0)]  # remainder t
    alg = idempotent_splitting_algebra()
    t = alg.basis_element(1)
    assert t * t == t


def test_structure_constants_kind_matches_product_local():
    # same algebra presented through an explicit tensor
    tensor = [[[F(1), F(0)], [F(0), F(1)]],
              [[F(0), F(1)], [F(0), F(1)]]]  # e1*e1 = e1 (t^2 = t)
    alg = Algebra.structure_constants(tensor, (F(1), F(0)), labels=("1", "t"))
    t = alg.basis_element(1)
    assert t * t == t


def test_algebra_mismatch():
    a = Algebra.product_local([(0, 2)])
    b = Algebra.product_local([(0, 3)])
    with pytest.raises(AlgebraMismatch):
        a.one() * b.one()


def test_window_overflow():
    alg = Algebra.polynomial((0, 3))
    t2 = alg.basis_element(2)
    with pytest.raises(WindowOverflow):
        t2 * t2


def test_laurent_negative_exponents():
    alg = Algebra.laurent((-4, 4))
    tinv = alg.basis_element(-1)
    t = alg.basis_element(1)
    assert tinv * t == alg.one()


def test_axioms_random():
    rng = random.Random(11)
    for alg in (Algebra.rationals(), Algebra.product_local([(0, 2), (1, 1)]),
                Algebra.product_local([(F(1, 2), 2)])):
        for _ in range(30):
            x, y, z = (rand_elt(rng, alg) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert alg.one() * x == x


# -- ideals ------------------------------------------------------------------

def test_ideal_closure_monomial():
    alg = Algebra.product_local([(0, 3)])  # Q[t]/(t^3)
    ideal = ideal_closure([alg.basis_element(1)])
    assert ideal.dim == 2
    assert ideal.contains(alg.basis_element(2))
    assert not ideal.contains(alg.one())


def test_ideal_closure_unit_gives_whole():
    alg = Algebra.product_local([(0, 2), (1, 1)])
    assert ideal_closure([alg.one()]).is_whole()


def test_ideal_closure_idempotent_complement():
    # (1 - t) in Q[t]/(t^2 - t): (1-t)*t = t - t^2 = 0, so span stays 1-dim
    alg = idempotent_splitting_algebra()
    gen = alg.from_poly((F(1), F(-1)))
    t = alg.basis_element(1)
    assert (gen * t).is_zero()  # oracle identity behind the example
    ideal = ideal_closure([gen])
    assert ideal.dim == 1
    assert ideal.contains(gen)
    assert not ideal.contains(t)


def test_ideal_closure_stability():
    rng = random.Random(5)
    alg = Algebra.product_local([(0, 2), (2, 2)])
    for _ in range(10):
        gens = [rand_elt(rng, alg)]
        if all(g.is_zero() for g in gens):
            continue
        ideal = ideal_closure(gens)
        for b in ideal.basis_elements():
            for j in alg.basis_indices():
                assert ideal.contains(b * alg.basis_element(j))


def test_ideal_product_and_power():
    alg = Algebra.product_local([(0, 3)])
    t_ideal = ideal_closure([alg.basis_element(1)])
    sq = ideal_product(t_ideal, t_ideal)
    assert sq.dim == 1 and sq.contains(alg.basis_element(2))
    assert ideal_power(t_ideal, 3).is_zero()


def test_ideal_product_split_points():
    # (t)(t-1) = 0 in Q[t]/(t^2 - t); the oracle reduces t(t-1) = t^2 - t to 0
    quo, rem = poly_divmod_oracle([1, -1, 0], [1, -1, 0])
    assert rem == []
    alg = idempotent_splitting_algebra()
    i1 = ideal_closure([alg.basis_element(1)])
    i2 = ideal_closure([alg.from_poly((F(-1), F(1)))])
    assert ideal_product(i1, i2).is_zero()


def test_ideal_product_inside_intersection():
    rng = random.Random(17)
    alg = Algebra.product_local([(0, 2), (1, 2)])
    for _ in range(15):
        a, b = rand_elt(rng, alg), rand_elt(rng, alg)
        if a.is_zero() or b.is_zero():
            continue
        i1, i2 = ideal_closure([a]), ideal_closure([b])
        prod = ideal_product(i1, i2)
        inter = ideal_intersection(i1, i2)
        assert all(inter.contains(x) for x in prod.basis_elements())


def test_product_local_products_match_the_fraction_oracle():
    # non-integral points make the monic modulus fractional; orders 1-3;
    # empty operands, and factor products that multiply out to zero
    rng = random.Random(2811)
    pool = [F(0), F(1), F(-3), F(1, 2), F(-2, 3), F(5, 4)]
    for _ in range(30):
        factors = [(p, rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(1, 3))]
        alg = Algebra.product_local(factors)
        elems = [alg.zero(), alg.one(), *(rand_elt(rng, alg) for _ in range(4))]
        cut = rng.randint(1, len(factors)) if len(factors) > 1 else 0
        if cut:
            pair = [oracle_modulus(factors[:cut]), oracle_modulus(factors[cut:])]
        else:
            (point, order), = factors
            pair = [oracle_modulus([(point, k)]) for k in (1, order - 1)]
        elems += [alg.from_poly(q) for q in pair]
        for x in elems:
            for y in elems:
                assert alg._mul_coeffs(x._terms, y._terms) == oracle_product_local_mul(
                    factors, x._terms, y._terms)
        assert (elems[-2] * elems[-1]).is_zero()
        for length in (0, 1, alg.dim, 2 * alg.dim + 1):
            poly = [F(rng.randint(-7, 7), rng.randint(1, 6)) if rng.random() < 0.8 else F(0)
                    for _ in range(length)]
            assert alg.from_poly(poly)._terms == oracle_reduce(poly, factors)


def test_ideal_intersection_matches_the_row_space_oracle():
    # I = (s, a x), J = (s, b y) with x, y non-units and s shared half the
    # time, so the intersection ranges from (0) to proper pieces of both
    rng = random.Random(4402)
    t3 = Algebra.structure_constants(*principal_quotient_tensor((F(0), F(0), F(0), F(1))))
    cases = [(t3, [t3.basis_element(1), t3.basis_element(2)]),
             (_three_points(), [_three_points().basis_element(i) for i in range(3)])]
    for factors in ([(0, 2), (1, 2)], [(F(1, 2), 2), (-1, 1), (2, 1)], [(0, 4)]):
        alg = Algebra.product_local(factors)
        cases.append((alg, [alg.from_poly((-p, F(1))) for p, _ in alg.factors]))
    proper = 0
    for alg, nonunits in cases:
        for _ in range(12):
            shared = [rand_elt(rng, alg) * rng.choice(nonunits)] if rng.random() < 0.5 else []
            gens = [shared + [rand_elt(rng, alg) * rng.choice(nonunits)] for _ in range(2)]
            if any(all(g.is_zero() for g in gs) for gs in gens):
                continue
            i1, i2 = map(ideal_closure, gens)
            meet = ideal_intersection(i1, i2)
            assert [list(r) for r in meet.rows] == oracle_row_space_intersection(
                i1.rows, i2.rows, alg.dim)
            for ideal in (i1, i2):
                assert all(oracle_rank(list(ideal.rows) + [r]) == ideal.dim for r in meet.rows)
            total = ideal_closure(i1.basis_elements() + i2.basis_elements())
            assert meet.dim + total.dim == i1.dim + i2.dim
            proper += 0 < meet.dim < min(i1.dim, i2.dim)
    assert proper >= 10


def _gaussian_rationals():
    # Q(i): e0 = 1, e1 = i, i^2 = -1
    return Algebra.structure_constants([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
                                       (1, 0), labels=("1", "i"))


def _three_points():
    # Q x Q x Q through its orthogonal idempotents e0, e1, e2
    return Algebra.structure_constants(
        [[[int(i == j == k) for k in range(3)] for j in range(3)] for i in range(3)],
        (1, 1, 1))


def _structure_constant_algebras():
    """Fresh copies, so every product_terms call below starts cold."""
    tensor, unit = principal_quotient_tensor((F(-2), F(0), F(1)))  # Q[t]/(t^2 - 2)
    poly = Algebra.polynomial((0, 12))
    return {
        "Q": Algebra.rationals(),
        "e0^2=2e0": Algebra.structure_constants([[[2]]], [F(1, 2)]),
        "Q[t]/(t^2-t)": Algebra.structure_constants(
            [[[1, 0], [0, 1]], [[0, 1], [0, 1]]], (1, 0), labels=("1", "t")),
        "Q(i)": _gaussian_rationals(),
        "QxQ": Algebra.structure_constants([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 1)),
        "QxQxQ": _three_points(),
        "Q[t]/(t^2-2)": Algebra.structure_constants(tensor, unit, labels=("1", "t")),
        "quotient(t^2-2)": quotient_algebra(
            poly, PrincipalIdeal(poly, poly.from_poly((F(-2), F(0), F(1)))))[0],
    }


@pytest.mark.parametrize("name", sorted(_structure_constant_algebras()))
def test_product_terms_read_off_the_tensor_equal_the_basis_products(name):
    alg = _structure_constant_algebras()[name]
    assert alg.kind == "structure_constants"
    for i in range(alg.dim):
        for j in range(alg.dim):
            terms = alg.product_terms(i, j)
            assert all(n and d > 0 and math.gcd(n, d) == 1 for _, n, d in terms)
            assert alg.element({k: F(n, d) for k, n, d in terms}) == (
                alg.basis_element(i) * alg.basis_element(j))
    with pytest.raises(ValueError, match="out of range"):
        _structure_constant_algebras()[name].product_terms(0, alg.dim)


@pytest.mark.parametrize("alg", [
    _gaussian_rationals(),
    _three_points(),
    Algebra.product_local([(0, 3)]),
    Algebra.product_local([(0, 2), (1, 2)]),
    Algebra.product_local([(F(1, 2), 2), (-1, 1), (2, 1)]),
], ids=["Q(i)", "QxQxQ", "t^3", "two_points", "three_points"])
def test_ideal_closure_and_product_match_the_fixpoint(alg):
    rng = random.Random(alg.dim)
    for _ in range(12):
        gens = [rand_elt(rng, alg) for _ in range(rng.randint(1, 2))]
        if all(g.is_zero() for g in gens):
            continue
        ideal = ideal_closure(gens)
        span = oracle_ideal_closure(gens)
        assert ideal.dim == len(span) == oracle_rank(span + list(map(list, ideal.rows)))
        other = ideal_closure([rand_elt(rng, alg) + alg.basis_element(alg.dim - 1)])
        prods = [a * b for a in ideal.basis_elements() for b in other.basis_elements()]
        prod = ideal_product(ideal, other)
        span = oracle_ideal_closure(prods)
        assert prod.dim == len(span) == oracle_rank(span + list(map(list, prod.rows)))


def test_principal_ideals_polynomial():
    alg = Algebra.polynomial((0, 12))
    gen = alg.from_poly((F(-2), F(1)))  # t - 2
    ideal = ideal_closure([gen, gen * gen])
    assert isinstance(ideal, PrincipalIdeal)
    assert ideal.generator == gen
    assert ideal.contains(gen * alg.basis_element(3))
    assert not ideal.contains(alg.one())
    # t is not a unit: (t^2) stays (t^2)
    sq = ideal_closure([alg.basis_element(2)])
    assert not sq.contains(alg.basis_element(1))


# -- the shared ideal interface ------------------------------------------------

PL = Algebra.product_local([(0, 2), (1, 1)])     # Q[t]/(t^3 - t^2)
POLY = Algebra.polynomial((0, 12))
LAUR = Algebra.laurent((-6, 6))
QQ = Algebra.rationals()


def _interface(ideal):
    return ([format_element(g) for g in ideal.generators()], ideal.points(),
            ideal.is_closed(), str(ideal))


@pytest.mark.parametrize("ideal, answers", [
    (Ideal(PL, []), ([], [0, 1], True, "(0)")),
    (ideal_closure([PL.one()]), (["1", "t", "t^2"], [], True, "(1, t, t^2)")),
    (ideal_closure([PL.basis_element(1)]), (["t", "t^2"], [0], True, "(t, t^2)")),
    (ideal_closure([PL.from_poly((F(-1), F(1)))]),
     (["-t^2 + 1", "-t^2 + t"], [1], True, "(-t^2 + 1, -t^2 + t)")),
    (Ideal(PL, [[0, 1, 0]]), (["t"], [0], False, "(t)")),          # t*t is not in span{t}
    (Ideal(PL, [[1, 0, -1]]), (["-t^2 + 1"], [1], False, "(-t^2 + 1)")),
    (Ideal(QQ, []), ([], None, True, "(0)")),
    (ideal_closure([QQ.one()]), (["1"], None, True, "(1)")),
    (ideal_closure([POLY.zero()]), ([], None, True, "(0)")),
    (ideal_closure([POLY.one().scale(3)]), (["1"], [], True, "(1)")),
    (ideal_closure([POLY.from_poly((F(0), F(-2), F(2)))]),
     (["t^2 - t"], [0, 1], True, "(t^2 - t)")),
    (ideal_closure([POLY.from_poly((F(-2), F(0), F(1))) * POLY.from_poly((F(-3), F(1)))]),
     (["t^3 - 3*t^2 - 2*t + 6"], [3], True, "(t^3 - 3*t^2 - 2*t + 6)")),
    (ideal_closure([POLY.from_poly((F(4), F(-4), F(1)))]), (["t^2 - 4*t + 4"], [2], True,
                                                            "(t^2 - 4*t + 4)")),
    (ideal_closure([LAUR.zero()]), ([], None, True, "(0)")),
    (ideal_closure([LAUR.element({-1: 1, 1: F(1, 2)})]), (["t^2 + 2"], [], True, "(t^2 + 2)")),
    (ideal_closure([LAUR.element({1: -4, 2: 2})]), (["t - 2"], [2], True, "(t - 2)")),
], ids=["pl-zero", "pl-whole", "pl-at-0", "pl-at-1", "pl-unclosed-t", "pl-unclosed-1-t2",
        "qq-zero", "qq-whole", "poly-zero", "poly-whole", "poly-two-points",
        "poly-irrational-factor", "poly-double-root", "laurent-zero",
        "laurent-no-rational-point", "laurent-shifted"])
def test_both_ideal_flavors_answer_the_same_interface(ideal, answers):
    gens, points, closed, text = answers
    assert _interface(ideal) == (gens, points, closed, text)
    assert ideal.is_zero() == (gens == [])
    assert repr(ideal) == type(ideal).__name__ + text
    if ideal.algebra.is_finite and gens:
        # closed exactly when the oracle's closure adds nothing to the span
        assert (len(oracle_ideal_closure(ideal.generators())) == len(gens)) == closed


def test_points_are_the_maximal_ideals_containing_the_ideal():
    # points() on a finite kind agrees with containment in point_ideal
    rng = random.Random(71)
    alg = Algebra.product_local([(0, 2), (F(1, 2), 1), (-1, 2)])
    for _ in range(40):
        ideal = Ideal(alg, [[F(rng.randint(-2, 2)) for _ in range(alg.dim)]
                            for _ in range(rng.randint(1, 2))])
        expected = [p for p, _ in alg.factors
                    if all(point_ideal(alg, p).contains(g) for g in ideal.generators())]
        assert ideal.points() == expected


def test_ideal_flavor_is_decided_only_in_algebra():
    # evalmod, cli and classify ask an ideal for its answers, never its class
    src = pathlib.Path(mapvir.__file__).parent
    for name in ("evalmod.py", "cli.py", "classify.py"):
        for node in ast.walk(ast.parse((src / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", None) or getattr(n, "attr", None)
                         for arg in node.args[1:] for n in ast.walk(arg)}
                assert not named & {"Ideal", "PrincipalIdeal"}, f"{name}:{node.lineno}"


def _imported_roots(tree):
    """Top-level names of the modules a parsed file imports, by statement or
    by a call such as importlib.import_module("x") or importorskip("x")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
              in ("import_module", "__import__", "importorskip")):
            yield node.args[0].value.split(".")[0]


def test_library_and_tests_import_no_scratch_only_packages():
    # sympy and hypothesis may serve scratch cross-checks, never src/ or tests/
    roots = (pathlib.Path(mapvir.__file__).parent.parent, pathlib.Path(__file__).parent)
    files = [path for root in roots for path in sorted(root.rglob("*.py"))]
    assert any(path.name == "verma.py" for path in files)
    assert any(path.name == "oracles.py" for path in files)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not set(_imported_roots(tree)) & {"sympy", "hypothesis"}, path.name
    planted = ast.parse("import sympy.core\nfrom hypothesis import given\n"
                        "pytest.importorskip('sympy')")
    assert sorted(_imported_roots(planted)) == ["hypothesis", "sympy", "sympy"]


# -- quotients ---------------------------------------------------------------

def test_quotient_monomial():
    alg = Algebra.product_local([(0, 3)])
    ideal = ideal_closure([alg.basis_element(2)])
    quo, proj = quotient_algebra(alg, ideal)
    assert quo.dim == 2
    tbar = proj(alg.basis_element(1))
    assert (tbar * tbar).is_zero()  # isomorphic to Q[t]/(t^2)


def test_quotient_by_zero_is_identity():
    alg = Algebra.product_local([(0, 2), (1, 1)])
    quo, proj = quotient_algebra(alg, Ideal(alg, []))
    assert quo is alg
    x = alg.basis_element(1)
    assert proj(x) == x


def test_quotient_by_whole_rejected():
    alg = Algebra.product_local([(0, 2)])
    with pytest.raises(ImproperIdeal):
        quotient_algebra(alg, ideal_closure([alg.one()]))


def test_quotient_polynomial_evaluation():
    # Q[t] / (t - 2): projection is evaluation at 2
    alg = Algebra.polynomial((0, 10))
    ideal = ideal_closure([alg.from_poly((F(-2), F(1)))])
    quo, proj = quotient_algebra(alg, ideal)
    assert quo.dim == 1
    for k in range(7):
        image = proj(alg.basis_element(k))
        assert image.coeff(0) == F(2) ** k


def test_quotient_dimension_and_homomorphism():
    rng = random.Random(23)
    alg = Algebra.product_local([(0, 2), (1, 2)])
    ideal = ideal_closure([alg.from_poly((F(0), F(-1), F(1)))])  # (t^2 - t)
    quo, proj = quotient_algebra(alg, ideal)
    assert quo.dim == alg.dim - ideal.dim
    for _ in range(100):
        x, y = rand_elt(rng, alg), rand_elt(rng, alg)
        assert proj(x * y) == proj(x) * proj(y)
        assert proj(x + y) == proj(x) + proj(y)


def test_quotient_laurent_inverts_t():
    # Q[t, 1/t] / ((t - 2)(t - 3)): t^-1 reduces through the inverse of t
    alg = Algebra.laurent((-6, 6))
    ideal = ideal_closure([alg.from_poly((F(6), F(-5), F(1)))])
    quo, proj = quotient_algebra(alg, ideal)
    assert quo.dim == 2
    tinv = proj(alg.basis_element(-1))
    assert tinv * proj(alg.basis_element(1)) == quo.one()
    assert tinv == quo.element({0: F(5, 6), 1: F(-1, 6)})
    rng = random.Random(24)
    for _ in range(30):
        x = alg.element({k: F(rng.randint(-3, 3)) for k in range(-3, 4)})
        y = alg.element({k: F(rng.randint(-3, 3)) for k in range(-3, 4)})
        assert proj(x * y) == proj(x) * proj(y)


# split generators, low degree first, with their rational_roots factors
SPLIT_PRINCIPALS = {
    "(t-1)(t+3)": (Algebra.polynomial((0, 12)), (-3, 2, 1), [(-3, 1), (1, 1)]),
    "(t-2)^2(t+1)": (Algebra.polynomial((0, 12)), (4, 0, -3, 1), [(-1, 1), (2, 2)]),
    "t(t-1)": (Algebra.polynomial((0, 12)), (0, -1, 1), [(0, 1), (1, 1)]),
    "laurent (t-2)(t-3)": (Algebra.laurent((-6, 6)), (6, -5, 1), [(2, 1), (3, 1)]),
}


@pytest.mark.parametrize("name", SPLIT_PRINCIPALS)
def test_split_principal_quotient_is_product_local(name):
    alg, gen, roots = SPLIT_PRINCIPALS[name]
    p = tuple(map(F, gen))
    quo, proj = quotient_algebra(alg, PrincipalIdeal(alg, alg.from_poly(p)))
    assert polyutil.rational_roots(p) == (roots, (F(1),))
    assert quo == Algebra.product_local(roots) and list(quo.factors) == roots
    tensor, unit = principal_quotient_tensor(p)  # the same algebra on 1, t, ...
    assert quo.one().to_vector() == list(unit)
    for a in range(quo.dim):
        for b in range(quo.dim):
            assert quo.basis_product(a, b).to_vector() == list(tensor[a][b])
    rng = random.Random(len(name))
    for _ in range(20):
        x = alg.element({k: F(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(7)})
        red = polyutil.pmod(x.as_poly(), p)
        assert proj(x).to_vector() == list(red) + [F(0)] * (quo.dim - len(red))
        assert proj.lift(proj(x)) == alg.element(dict(enumerate(red)))
    if alg.kind == "laurent":
        assert proj(alg.basis_element(-1)) * proj(alg.basis_element(1)) == quo.one()


def test_irrational_principal_quotient_keeps_structure_constants():
    P = Algebra.polynomial((0, 12))
    p = (F(-2), F(0), F(1))  # t^2 - 2 has no rational root
    quo, proj = quotient_algebra(P, PrincipalIdeal(P, P.from_poly(p)))
    tensor, unit = principal_quotient_tensor(p)
    assert quo == Algebra.structure_constants(tensor, unit, labels=("1", "t"))
    assert proj(P.basis_element(3)) == quo.element({1: F(2)})


def test_rational_roots_recover_planted_roots():
    rng = random.Random(61)
    points = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4), F(7)]
    # no rational root: t^2 + 1, t^2 - 2, t^2 + t + 3, t^3 - 1/2
    rootless = [(F(1), F(0), F(1)), (F(-2), F(0), F(1)), (F(3), F(1), F(1)),
                (F(-1, 2), F(0), F(0), F(1))]
    for _ in range(200):
        planted = sorted((r, rng.randint(1, 3)) for r in rng.sample(points, rng.randint(0, 4)))
        cofactor = (F(rng.choice([1, 2, -3]), rng.randint(1, 5)),)
        for f in rng.sample(rootless, rng.randint(0, 2)):
            cofactor = polyutil.pmul(cofactor, f)
        p = cofactor
        for r, m in planted:
            p = polyutil.pmul(p, polyutil.ppow((-r, F(1)), m))
        assert polyutil.rational_roots(p) == (planted, cofactor)


# -- local decomposition -----------------------------------------------------

def test_local_decomposition_two_points():
    alg = idempotent_splitting_algebra()
    assert [point for point, _ in alg.factors] == [0, 1]
    e0, e1 = (alg.from_poly(e) for e in crt_idempotents(alg))
    assert format_element(e0) == "-t + 1"
    assert format_element(e1) == "t"
    assert e0 * e0 == e0 and e1 * e1 == e1
    assert (e0 * e1).is_zero()
    assert e0 + e1 == alg.one()


def test_local_decomposition_single_local():
    alg = Algebra.product_local([(0, 2)])
    (e,) = crt_idempotents(alg)
    assert alg.from_poly(e) == alg.one()
    maximal = point_ideal(alg, 0)
    assert maximal.dim == 1
    assert maximal.contains(alg.basis_element(1))


def test_local_decomposition_mixed_orders():
    # Q[t]/(t^2 (t-1)): e_0 = 1 mod t^2, e_0 = 0 mod (t-1)
    alg = Algebra.product_local([(0, 2), (1, 1)])
    e0, e1 = (alg.from_poly(e) for e in crt_idempotents(alg))
    assert e0 + e1 == alg.one()
    assert (e0 * e1).is_zero()
    # congruences through the long-division oracle: e0 = 1 mod t^2, 0 mod t-1
    diff = list(reversed((e0 - alg.one()).as_poly()))
    assert poly_divmod_oracle(diff, [1, 0, 0])[1] == []
    assert poly_divmod_oracle(list(reversed(e0.as_poly())), [1, -1])[1] == []
    # and through the library's ideal membership
    m0 = ideal_power(point_ideal(alg, 0), 2)
    m1 = point_ideal(alg, 1)
    assert m0.contains(e0 - alg.one())
    assert m1.contains(e0)


def test_local_decomposition_unsupported():
    alg = Algebra.rationals()
    with pytest.raises(UnsupportedKind):
        crt_idempotents(alg)


def _random_layout(rng, least=1):
    points = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3), F(2, 3), F(-5, 4)]
    return [(p, rng.randint(1, 3)) for p in rng.sample(points, rng.randint(least, 4))]


def test_crt_idempotents_are_certified_by_products():
    rng = random.Random(1517)
    for _ in range(200):
        factors = _random_layout(rng)
        alg = Algebra.product_local(factors)
        idems = [alg.from_poly(e) for e in crt_idempotents(alg)]
        # the product identities, by products in A, and e_i(a_i) = 1
        assert sum(idems, alg.zero()) == alg.one()
        for i, e in enumerate(idems):
            assert sum(c * factors[i][0] ** k for k, c in e.coeffs.items()) == 1
            for j, g in enumerate(idems):
                assert e * g == (e if i == j else alg.zero())


def test_crt_idempotents_run_the_certificate_once_per_algebra(monkeypatch):
    calls = []
    real = algebra_module._certify_crt_idempotents
    monkeypatch.setattr(algebra_module, "_certify_crt_idempotents",
                        lambda alg, idems: calls.append(alg) or real(alg, idems))
    rng = random.Random(1518)
    for _ in range(20):
        alg = Algebra.product_local(_random_layout(rng, least=2))
        crt_idempotents(alg)
        crt_idempotents(alg)
        assert calls == [alg]
        calls.clear()


def test_a_wrong_crt_idempotent_raises():
    rng = random.Random(1519)
    for _ in range(100):
        alg = Algebra.product_local(_random_layout(rng))
        idems = [list(e) + [F(0)] * (alg.dim - len(e)) for e in crt_idempotents(alg)]
        algebra_module._certify_crt_idempotents(alg, idems)
        i, k = rng.randrange(len(idems)), rng.randrange(alg.dim)
        idems[i][k] += rng.choice([F(1), F(-1, 3), F(2)])
        with pytest.raises(ValueError, match="CRT idempotent"):
            algebra_module._certify_crt_idempotents(alg, idems)
    # t^2 = t in Q[t]/(t^2 - t): the right image, but not reduced
    alg = Algebra.product_local([(0, 1), (1, 1)])
    with pytest.raises(ValueError, match="not reduced"):
        algebra_module._certify_crt_idempotents(alg, [(F(1), F(-1)), (F(0), F(0), F(1))])


def _rational_layout(rng, count, orders, dens=range(1, 10)):
    """count distinct points u/v, |u| <= 20 and v in dens, with orders drawn from orders."""
    points = set()
    while len(points) < count:
        points.add(F(rng.randint(-20, 20), rng.choice(dens)))
    return [(a, rng.choice(orders)) for a in sorted(points)]


def test_modulus_and_idempotents_match_the_fraction_oracle():
    # the integer modulus and idempotents against the Fraction algorithm they
    # replaced: the same Fraction tuples, trimmed the same way
    rng = random.Random(2601)
    layouts = [_rational_layout(rng, rng.randint(1, 4), range(1, 6)) for _ in range(300)]
    # e_0 = 1 - t^2 on Q[t]/(t^2 (t^2 - 1)) has degree below dim - 1
    layouts += [[(0, 1), (1, 1)], [(0, 5)], [(F(-20, 9), 5), (F(20, 9), 5), (F(19, 7), 5), (0, 5)],
                [(0, 2), (-1, 1), (1, 1)]]
    trimmed = 0
    for factors in layouts:
        alg = Algebra.product_local(factors)
        idems = crt_idempotents(alg)
        assert alg._modulus == oracle_modulus(factors), factors
        assert idems == oracle_crt_idempotents(factors), factors
        assert all(type(x) is F for poly in (alg._modulus, *idems) for x in poly)
        trimmed += any(0 < len(e) < alg.dim for e in idems)
    assert trimmed


def test_wrong_idempotents_raise_on_large_denominators_and_orders():
    rng = random.Random(2602)
    for _ in range(60):
        alg = Algebra.product_local(_rational_layout(rng, rng.randint(2, 3), (4, 5),
                                                     dens=range(5, 10)))
        idems = [list(e) for e in crt_idempotents(alg)]
        algebra_module._certify_crt_idempotents(alg, idems)
        i, k = rng.randrange(len(idems)), rng.randrange(alg.dim)
        idems[i] += [F(0)] * (alg.dim - len(idems[i]))
        idems[i][k] += F(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 9))
        with pytest.raises(ValueError, match="wrong image"):
            algebra_module._certify_crt_idempotents(alg, idems)


def test_a_wrong_higher_taylor_coefficient_raises():
    # e_0 + (t - a_0) r_0, r_0 the product of the other factors: still 0 to
    # every order at the other points and 1 at a_0, but its s^1 coefficient
    # at a_0 is r_0(a_0) != 0, so a certificate reading only s^0 passes it
    for factors in ([(0, 2), (1, 1)], [(F(3, 5), 4), (F(-7, 8), 2), (2, 1)]):
        alg = Algebra.product_local(factors)
        (a, order), others = factors[0], factors[1:]
        bump = oracle_modulus([(a, 1)] + others)
        idems = [list(e) for e in crt_idempotents(alg)]
        idems[0] = [x + y for x, y in zip_longest(idems[0], bump, fillvalue=F(0))]
        assert len(idems[0]) <= alg.dim
        for j, (b, n) in enumerate(factors):
            image = oracle_taylor(idems[0], b, n)
            assert image[0] == (j == 0) and (j == 0 or not any(image))
        assert oracle_taylor(idems[0], a, order)[1] != 0
        with pytest.raises(ValueError, match="CRT idempotent 0 has the wrong image at"):
            algebra_module._certify_crt_idempotents(alg, idems)


# -- serialization -----------------------------------------------------------

@pytest.mark.parametrize("alg", [
    Algebra.rationals(),
    Algebra.product_local([(0, 2), (F(1, 2), 1)]),
    Algebra.polynomial((0, 16)),
    Algebra.laurent((-5, 5)),
])
def test_spec_roundtrip(alg):
    spec = algebra_to_spec(alg)
    json.dumps(spec)  # serializable
    back = algebra_from_spec(spec)
    assert back.compatible(alg)


def test_spec_examples_parse():
    spec = {"kind": "product_local",
            "factors": [{"point": "0", "order": 2}, {"point": "1", "order": 1}]}
    alg = algebra_from_spec(spec)
    assert alg.dim == 3
    spec2 = {"kind": "polynomial", "window": [0, 6]}
    assert algebra_from_spec(spec2).window == (0, 6)


def test_spec_rationals_parses():
    alg = algebra_from_spec({"kind": "rationals"})
    assert alg == Algebra.rationals() and alg.dim == 1


def test_distinct_points_required():
    with pytest.raises(ValueError):
        Algebra.product_local([(0, 1), (0, 2)])


def test_pstr_matches_format_element_on_polynomials():
    P = Algebra.polynomial((0, 8))
    rng = random.Random(1718)
    scalars = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3)]
    for _ in range(200):
        p = polyutil.trim([rng.choice(scalars) for _ in range(rng.randint(0, 7))])
        assert polyutil.pstr(p) == format_element(P.from_poly(p))
