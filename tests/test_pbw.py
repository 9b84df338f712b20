import ast
import gc
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from mapvir import (
    Algebra,
    EnvElement,
    Functional,
    GeneralizedEvalHandle,
    IrreducibleQuotientHandle,
    LieElement,
    NotLowering,
    annihilator_support,
    bracket,
    c_term,
    check_verma_reducible,
    classify_module,
    d_term,
    depth_one_vector,
    format_env,
    format_monomial,
    height_hm,
    in_maximal_submodule,
    local_quotient,
    monomial_weight,
    pbw_basis,
    quotient_dims,
    singular_vectors,
    split_phi,
    straighten,
    weight_multiplicities,
)
from mapvir.pbw import _lincomb
from oracles import colored_partition_series, reference_lincomb


A1 = Algebra.rationals()
A2 = Algebra.product_local([(0, 2)])


def rand_elt(rng, alg):
    return alg.element({i: F(rng.randint(-4, 4), rng.randint(1, 3))
                        for i in alg.basis_indices() if rng.random() < 0.8})


def rand_lowering(rng, alg, max_depth=3):
    x = LieElement(alg, {})
    while x.is_zero():
        for _ in range(rng.randint(1, 2)):
            x = x + d_term(alg, -rng.randint(1, max_depth), rand_elt(rng, alg))
    return x


def test_straighten_swap():
    env = straighten([d_term(A1, -1), d_term(A1, -2)])
    # d_{-1} d_{-2} = d_{-2} d_{-1} + [d_{-1}, d_{-2}] = d_{-2} d_{-1} - d_{-3}
    assert env.coeff(((2, 0), (1, 0))) == 1
    assert env.coeff(((3, 0),)) == -1
    assert len(env.terms) == 2


def test_straighten_ordered_word_is_monomial():
    env = straighten([d_term(A1, -2), d_term(A1, -1)])
    assert env.terms == {((2, 0), (1, 0)): F(1)}


def test_straighten_equal_modes_commute():
    # [d_{-1} (x) t, d_{-1} (x) 1] = 0, so the word reorders freely;
    # basis order puts 1 before t within equal depths
    xt = d_term(A2, -1, A2.basis_element(1))
    x1 = d_term(A2, -1)
    assert bracket(xt, x1).is_zero()
    env = straighten([xt, x1])
    assert env.terms == {((1, 0), (1, 1)): F(1)}
    assert straighten([x1, xt]) == env


def test_straighten_weight_preserving():
    # single-mode letters: the output stays in the word's total weight
    rng = random.Random(31)
    for _ in range(50):
        alg = rng.choice([A1, A2])
        word = []
        while len(word) < rng.randint(1, 3):
            coeff = rand_elt(rng, alg)
            if not coeff.is_zero():
                word.append(d_term(alg, -rng.randint(1, 3), coeff))
        total = sum(next(iter(letter.d_part)) for letter in word)
        env = straighten(word)
        assert env.weights() <= {total}


def test_straighten_order_independence():
    rng = random.Random(41)
    for _ in range(100):
        alg = rng.choice([A1, A2])
        x, y = rand_lowering(rng, alg), rand_lowering(rng, alg)
        lhs = straighten([x, y]) - straighten([y, x])
        br = bracket(x, y)
        rhs = (EnvElement(alg, {}) if br.is_zero() else straighten([br]))
        assert lhs == rhs


def test_straighten_rejects_raising():
    with pytest.raises(NotLowering):
        straighten([d_term(A1, 1)])
    with pytest.raises(NotLowering):
        straighten([c_term(A1)])
    with pytest.raises(NotLowering):
        straighten([d_term(A1, -1) + d_term(A1, 0)])


# -- the shared element core (algebra._Vector) ---------------------------------

def _rand_vectors(rng, kind):
    """Nine seeded AlgebraElements over Q[t]/(t^2) x Q, or EnvElements over
    Q[t]/(t^2), or LieElements over Q[t]/(t^2) with d parts in modes -3..3
    and a c part, the zero element first."""
    if kind == "lie":
        def coeff():
            return A2.element({i: F(rng.randint(-4, 4), rng.randint(1, 3))
                               for i in A2.basis_indices() if rng.random() < 0.6})
        return [LieElement(A2)] + [
            LieElement(A2, {n: coeff() for n in range(-3, 4) if rng.random() < 0.6}, coeff())
            for _ in range(8)]
    if kind == "algebra":
        alg = Algebra.product_local([(0, 2), (1, 1)])
        keys, make = list(alg.basis_indices()), alg.element
    else:
        keys, make = pbw_basis(3, A2) + pbw_basis(2, A2), lambda terms: EnvElement(A2, terms)
    out = [make({})]
    for _ in range(8):
        out.append(make({k: F(rng.randint(-4, 4), rng.randint(1, 3))
                         for k in keys if rng.random() < 0.6}))
    return out


@pytest.mark.parametrize("kind", ["algebra", "env", "lie"])
def test_element_core_arithmetic_identities(kind):
    rng = random.Random(2501)
    xs = _rand_vectors(rng, kind)
    for x in xs:
        assert -x == x.scale(-1) == -1 * x == x * -1 == x.scale("-1")
        assert (x + x) == 2 * x == x * F(2) and hash(x + x) == hash(x.scale(2))
        assert (x - x).is_zero() and (x - x) == x.scale(0)
        for y in xs:
            assert x - y == x + (-y)
            assert x + y == y + x and hash(x + y) == hash(y + x)
            assert (x + y) - y == x and hash((x + y) - y) == hash(x)
            assert (x == y) == (x._terms == y._terms)


def test_algebra_elements_never_meet_env_or_lie_elements():
    zero_alg, zero_env, zero_lie = A2.zero(), EnvElement(A2, {}), LieElement(A2)
    t = A2.basis_element(1)
    env = EnvElement(A2, {((1, 0),): F(1)})
    for other in (zero_env, zero_lie, env, d_term(A2, -1)):
        for x in (zero_alg, t):
            assert x != other and other != x
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                other + x
            with pytest.raises(TypeError):
                x - other
    for lie in (zero_lie, d_term(A2, -1)):
        for other in (zero_env, env):
            assert lie != other and other != lie
            with pytest.raises(TypeError):
                lie + other
            with pytest.raises(TypeError):
                other + lie
    # * of two algebra elements is the algebra product; of two env elements, nothing
    assert t * t == A2.zero() and (A2.one() + t) * (A2.one() - t) == A2.one()
    i = Algebra.structure_constants([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], (1, 0)).basis_element(1)
    assert i * i == -i.algebra.one()
    with pytest.raises(TypeError):
        env * env


def test_height_hm():
    env = EnvElement(A1, {((2, 0), (1, 0)): F(2), ((3, 0),): F(5)})
    height, hm = height_hm(env)
    assert height == 2
    assert hm.terms == {((2, 0), (1, 0)): F(2)}


def test_height_of_zero_and_unit():
    height, hm = height_hm(EnvElement(A1, {}))
    assert height == -1 and hm.is_zero()
    height, hm = height_hm(EnvElement(A1, {(): F(3)}))
    assert height == 0 and hm.coeff(()) == 3
    height, _ = height_hm(straighten([d_term(A2, -1, A2.basis_element(1))]))
    assert height == 1


def test_filtration_height_bound():
    rng = random.Random(53)
    for _ in range(40):
        alg = rng.choice([A1, A2])
        word = [rand_lowering(rng, alg) for _ in range(rng.randint(1, 4))]
        env = straighten(word)
        height, _ = height_hm(env)
        assert height <= len(word)
    # single-generator letters achieve the bound
    word = [d_term(A1, -2), d_term(A1, -1), d_term(A1, -1)]
    height, _ = height_hm(straighten(word))
    assert height == 3


@pytest.mark.parametrize("colors,alg", [
    (1, A1), (2, A2), (3, Algebra.product_local([(0, 3)]))])
def test_basis_counts(colors, alg):
    expected = colored_partition_series(colors, 10)
    for n in range(11):
        assert len(pbw_basis(n, alg)) == expected[n]


def test_basis_weight_4_one_color():
    monos = pbw_basis(4, A1)
    shapes = {tuple(m for m, _ in mono) for mono in monos}
    assert shapes == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert all(monomial_weight(m) == -4 for m in monos)


def test_basis_weight_1_two_colors():
    monos = pbw_basis(1, A2)
    assert monos == [((1, 0),), ((1, 1),)]


def test_basis_sorted_descending():
    from mapvir.pbw import monomial_key
    monos = pbw_basis(5, A2)
    keys = [monomial_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def _cyclic_garbage(query) -> int:
    """Objects that only the cycle collector frees after running query."""
    gc.collect()
    gc.disable()
    try:
        query()
        return gc.collect()
    finally:
        gc.enable()


def test_basis_leaves_no_reference_cycle():
    # a cycle would keep each returned basis alive until the next gc pass
    assert _cyclic_garbage(lambda: pbw_basis(5, A2)) == 0


def _fresh_phi(factors, d0, c):
    # each query builds its own algebra: a cycle through its caches would
    # leave the whole algebra to the cycle collector
    return Functional.from_values(Algebra.product_local(factors), d0, c)


def _dual_phi():
    return _fresh_phi([(0, 2)], {"1": F(2, 7), "t": F(1, 3)}, {"1": F(1, 2), "t": 5})


def _depth_one_vector():
    phi = _dual_phi()
    return depth_one_vector(phi, phi.algebra.one())


@pytest.mark.parametrize("query", [
    lambda: quotient_dims(_dual_phi(), 4),
    lambda: singular_vectors(_dual_phi(), 2),
    lambda: in_maximal_submodule(_depth_one_vector()),
    lambda: check_verma_reducible(_fresh_phi([(0, 2)], {"1": 1}, {"t": 2})),
    lambda: split_phi(_fresh_phi([(0, 1), (1, 1)], {"1": 1, "t": 3}, {"t": 2})),
], ids=["quotient_dims", "singular_vectors", "in_maximal_submodule",
        "check_verma_reducible", "split_phi"])
def test_verma_queries_leave_no_reference_cycle(query):
    # the algebra caches hold plain data, so an Algebra dies by refcount
    assert _cyclic_garbage(query) == 0


def _generalized_eval_queries():
    P = Algebra.polynomial((0, 16))
    quotient, _ = local_quotient(P, 0, 2)
    psi = Functional.from_values(quotient, {"t": 1}, {"1": F(1, 2)})
    handle = GeneralizedEvalHandle(P, 0, 2, IrreducibleQuotientHandle(psi))
    annihilator_support(handle)
    weight_multiplicities(handle, (-2, 0), window=(0, 2))


def _exact_polynomial_phi():
    P = Algebra.polynomial((0, 32))
    return Functional.from_sequences(P, [3 * F(2) ** k for k in range(6)],
                                     [F(2) ** k for k in range(6)],
                                     exact_ideal=(F(-2), F(1)))


@pytest.mark.parametrize("query", [
    lambda: local_quotient(Algebra.polynomial((0, 16)), 2, 3),
    _generalized_eval_queries,
    lambda: classify_module(_fresh_phi([(0, 2), (1, 2), (F(1, 2), 1)],
                                       {"1": 1, "t": 3, "t^3": 2}, {"t^2": 2, "t^4": -1})),
    lambda: classify_module(_exact_polynomial_phi()),
], ids=["local_quotient", "generalized_eval", "classify_product_local",
        "classify_polynomial"])
def test_ideal_queries_leave_no_reference_cycle(query):
    # local quotients are rebuilt, not cached on the source algebra
    assert _cyclic_garbage(query) == 0


def test_window_basis():
    P = Algebra.polynomial((0, 2))
    monos = pbw_basis(2, P)
    # depths (2) and (1,1), colors t^0..t^2: 3 + 6 = 9
    assert len(monos) == 9


def test_format_monomial():
    mono = ((2, 1), (1, 0))
    assert format_monomial(mono, A2) == "d[-2]*t . d[-1]*1"
    env = EnvElement(A2, {mono: F(1)})
    assert format_env(env) == "d[-2]*t . d[-1]*1"


@pytest.mark.parametrize("terms, shown", [
    # the empty word prints as its bare scalar
    ({(): F(1)}, "1"),
    ({(): F(-3, 4)}, "-3/4"),
    # a coefficient of +-1 leaves the bare monomial
    ({((1, 0),): F(1)}, "d[-1]*1"),
    ({((1, 1),): F(-1)}, "-d[-1]*t"),
    # any other coefficient multiplies the bracketed monomial
    ({((2, 1), (1, 0)): F(-5, 2), ((3, 0),): F(2), (): F(-1)},
     "-5/2*(d[-2]*t . d[-1]*1) + 2*(d[-3]*1) - 1"),
    ({((1, 1),): F(-1), ((1, 0),): F(7), (): F(1, 3)}, "7*(d[-1]*1) - d[-1]*t + 1/3"),
])
def test_format_env_signed_terms(terms, shown):
    assert format_env(EnvElement(A2, terms)) == shown


# -- the accumulator ----------------------------------------------------------


def _random_result(rng, monos, max_den: int) -> tuple:
    """A frozen (den, monomials, numerators) result in lowest terms on up to
    four of ``monos``, its denominator at most max_den."""
    picked = rng.sample(monos, rng.randint(0, 4))
    den = rng.randint(1, max_den)
    nums = [rng.choice((-1, 1)) * rng.randint(1, 12) for _ in picked]
    g = math.gcd(den, *nums)
    return den // g, tuple(picked), tuple([n // g for n in nums])


def test_lincomb_matches_the_list_and_lcm_reference():
    a, b, c = ((1, 0),), ((1, 1),), ((2, 0),)
    # no parts, and parts that cancel to zero
    assert _lincomb([]) == reference_lincomb([]) == (1, (), ())
    r = (7, (a, b), (3, -2))
    assert _lincomb([(5, 12, r), (-5, 12, r)]) == (1, (), ())
    # a part whose denominator does not divide the running one rescales the
    # terms already present; monomials keep their first-seen order, and one
    # that cancels leaves the others in place
    parts = [(1, 1, (1, (c, a), (1, 1))), (1, 3, (1, (b, a), (1, -3)))]
    assert _lincomb(parts) == reference_lincomb(parts) == (3, (c, b), (3, 1))
    # seeded parts on denominators up to 60, with repeated monomials
    rng = random.Random(3401)
    monos = [m for n in range(1, 4) for m in pbw_basis(n, A2)]
    for _ in range(400):
        parts = [(rng.choice((-1, 1)) * rng.randint(0, 30), rng.randint(1, 60),
                  _random_result(rng, monos, 60)) for _ in range(rng.randint(0, 6))]
        if parts and rng.random() < 0.2:  # a part and its negative
            num, d, res = rng.choice(parts)
            parts.append((-num, d, res))
        out = _lincomb(parts)
        assert out == reference_lincomb(parts), parts
        den, out_monos, nums = out
        assert den > 0 and math.gcd(den, *nums) == 1 and 0 not in nums
        total: dict = {}
        for num, d, (rden, rmonos, rnums) in parts:
            for mono, x in zip(rmonos, rnums):
                total[mono] = total.get(mono, 0) + F(num * x, d * rden)
        assert out_monos == tuple([m for m, x in total.items() if x])
        assert all(F(x, den) == total[m] for m, x in zip(out_monos, nums))


def test_the_oracles_sum_without_the_library_accumulator():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    used = {node.name.split(".")[-1] for node in ast.walk(tree) if isinstance(node, ast.alias)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"_lincomb", "_add_scaled", "_frozen"}
