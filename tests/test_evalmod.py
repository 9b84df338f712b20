import itertools
import random
from fractions import Fraction as F

import pytest

from mapvir import (
    Algebra,
    Functional,
    GeneralizedEvalHandle,
    IntSeriesEvalHandle,
    IntSeriesSpec,
    IrreducibleQuotientHandle,
    MissingWindow,
    TensorHandle,
    VermaHandle,
    WindowOverflow,
    annihilator_support,
    d_term,
    c_term,
    eval_act,
    highest_weight_vector,
    ideal_closure,
    int_series_act,
    local_quotient,
    module_from_spec,
    module_to_spec,
    quotient_dims,
    split_phi,
    weight_multiplicities,
)
from oracles import colored_partition_series, oracle_eval_at_point

QQ = Algebra.rationals()
SPLIT = Algebra.product_local([(0, 1), (1, 1)])
POLY = Algebra.polynomial((0, 16))


# -- intermediate series ------------------------------------------------------

def test_action_coefficient_examples():
    spec = IntSeriesSpec(F(0), F(0), (-10, 10))
    for n in (-3, 0, 2, 5):
        coeff, target = int_series_act(spec, n, 0)
        assert coeff == 0 and target == n  # constant vector spans a trivial sub
    spec2 = IntSeriesSpec(F(1, 2), F(1, 3), (-10, 10))
    for n in (-4, 0, 1, 6):
        coeff, _ = int_series_act(spec2, 0, n if abs(n) <= 10 else 0)
    coeff, target = int_series_act(spec2, 2, 1)
    assert coeff == F(17, 6) and target == 3
    coeff, _ = int_series_act(spec2, 0, 4)
    assert coeff == 4 + F(1, 2) + F(1, 3)  # the weight


def test_window_overflow():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3))
    with pytest.raises(WindowOverflow):
        int_series_act(spec, 2, 2)
    with pytest.raises(WindowOverflow):
        int_series_act(spec, 0, 7)


def test_lie_consistency():
    rng = random.Random(9)
    for _ in range(5):
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        b = F(rng.randint(-4, 4), rng.randint(1, 3))
        spec = IntSeriesSpec(a, b, (-40, 40))
        for m in range(-6, 7):
            for n in range(-6, 7):
                for k in range(-10, 11):
                    lhs = (spec.coefficient(n, k) * spec.coefficient(m, n + k)
                           - spec.coefficient(m, k) * spec.coefficient(n, m + k))
                    rhs = (n - m) * spec.coefficient(m + n, k)
                    assert lhs == rhs


def test_reducibility_locus():
    window = range(-6, 7)
    for a in (F(0), F(1), F(1, 2), F(2)):
        for b in (F(-2), F(0), F(1, 3), F(3)):
            spec = IntSeriesSpec(a, b, (-20, 20))
            # a vector t^k annihilated by every d_n
            killed = [k for k in window
                      if all(spec.coefficient(n, k) == 0 for n in range(-8, 9))]
            if a == 0 and b.denominator == 1 and -int(b) in window:
                assert killed == [-int(b)]
            else:
                assert killed == []
            # a one-dimensional quotient at position k: t^k never hit from outside
            quot = [k for k in window
                    if all(spec.coefficient(n, k - n) == 0
                           for n in range(-8, 9) if n != 0)]
            if a == 1 and b.denominator == 1 and -int(b) - 1 in window:
                assert quot == [-int(b) - 1]
            else:
                assert quot == []


# -- evaluation actions -------------------------------------------------------

def test_eval_act_scales_by_point():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-8, 8))
    handle = IntSeriesEvalHandle(POLY, spec, 2)
    v = {1: F(1)}
    plain = eval_act(handle, d_term(POLY, 1), v)
    twisted = eval_act(handle, d_term(POLY, 1, POLY.basis_element(1)), v)
    assert plain == {2: spec.coefficient(1, 1)}
    assert twisted == {2: 2 * spec.coefficient(1, 1)}


def test_eval_act_kills_point_ideal():
    rng = random.Random(21)
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-8, 8))
    handle = IntSeriesEvalHandle(POLY, spec, 2)
    gen = POLY.from_poly((F(-2), F(1)))  # t - 2
    for _ in range(100):
        n = rng.randint(-3, 3)
        k = rng.randint(-4, 4)
        mult = POLY.basis_element(rng.randint(0, 3))
        out = eval_act(handle, d_term(POLY, n, gen * mult), {k: F(1)})
        assert out == {}


def test_eval_act_central_zero():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-8, 8))
    handle = IntSeriesEvalHandle(POLY, spec, 2)
    assert eval_act(handle, c_term(POLY), {0: F(1), 3: F(-2)}) == {}


NO_MAXIMAL_IDEAL = [  # points where A has no maximal ideal, with local_quotient's error
    pytest.param(Algebra.laurent((-4, 4)), 0, "t is not invertible at the point 0",
                 id="laurent-at-0"),
    pytest.param(SPLIT, 5, "no factor dominating this point/order", id="split-at-5"),
]


@pytest.mark.parametrize("alg, point, message", NO_MAXIMAL_IDEAL)
def test_int_series_eval_rejects_points_outside_the_spectrum(alg, point, message):
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-8, 8))
    with pytest.raises(ValueError, match=message):
        IntSeriesEvalHandle(alg, spec, point)
    with pytest.raises(ValueError, match=message):
        module_from_spec(alg, {"variant": "int_series_eval", "a": "1/2", "b": "1/3",
                               "point": str(point), "window": [-8, 8]})


@pytest.mark.parametrize("alg, point, exponents", [
    pytest.param(POLY, F(2), (0, 5), id="polynomial"),
    pytest.param(Algebra.laurent((-6, 6)), F(-3, 2), (-4, 4), id="laurent"),
    pytest.param(Algebra.product_local([(0, 2), (1, 1)]), F(0), (0, 2), id="order-2-factor"),
    pytest.param(Algebra.product_local([(0, 2), (1, 1)]), F(1), (0, 2), id="order-1-factor"),
])
def test_int_series_eval_act_matches_horner(alg, point, exponents):
    rng = random.Random(f"horner-{alg.kind}-{point}")
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-12, 12))
    handle = IntSeriesEvalHandle(alg, spec, point)
    for _ in range(30):
        x = c_term(alg, alg.basis_element(rng.randint(*exponents)))  # c acts by zero
        for n in rng.sample(range(-3, 4), 2):
            f = sum((alg.basis_element(k).scale(F(rng.randint(-5, 5), rng.randint(1, 4)))
                     for k in range(exponents[0], exponents[1] + 1)), alg.zero())
            x = x + d_term(alg, n, f)
        v = {k: F(rng.randint(-3, 3)) for k in range(-6, 7, 3)}
        expected: dict[int, F] = {}
        for n, f in x.d_part.items():
            for k, cv in v.items():
                val = oracle_eval_at_point(f, point) * spec.coefficient(n, k) * cv
                expected[n + k] = expected.get(n + k, F(0)) + val
        assert eval_act(handle, x, v) == {k: c for k, c in expected.items() if c}


def test_int_series_spec_evaluates_no_coefficient(monkeypatch):
    calls = []
    real = IntSeriesSpec.coefficient

    def counting(self, n, k):
        calls.append((n, k))
        return real(self, n, k)

    monkeypatch.setattr(IntSeriesSpec, "coefficient", counting)
    IntSeriesSpec(F(1, 2), F(1, 3), (-8, 8))
    assert calls == []


def test_generalized_eval_keeps_nilpotent_direction():
    quotient, _ = local_quotient(POLY, 0, 2)
    psi = Functional.from_values(quotient, {"1": 3, "t": F(1, 2)}, {})
    handle = GeneralizedEvalHandle(POLY, 0, 2, VermaHandle(psi))
    v = highest_weight_vector(psi)
    pieces = eval_act(handle, d_term(POLY, 0, POLY.basis_element(1)), v)
    assert len(pieces) == 1
    assert pieces[0].env.terms == {(): F(1, 2)}  # d_0 (x) tbar acts nontrivially
    # order-2 powers die
    assert eval_act(handle, d_term(POLY, 0, POLY.basis_element(2)), v) == []


def test_generalized_eval_needs_matching_inner():
    other = Algebra.product_local([(1, 2)])
    psi = Functional.from_values(other, {"1": 3}, {})
    from mapvir import UnsupportedKind
    with pytest.raises(UnsupportedKind):
        GeneralizedEvalHandle(POLY, 0, 2, VermaHandle(psi))


# -- weight tables ------------------------------------------------------------

def test_int_series_table_multiplicity_one():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-20, 20))
    handle = IntSeriesEvalHandle(QQ, spec)
    table = weight_multiplicities(handle, (-15, 15))
    assert all(table.multiplicity(o) == 1 for o in range(-15, 16))
    assert not table.notes  # a + b not an integer: no special offset


def test_int_series_table_integer_a_plus_b():
    spec = IntSeriesSpec(F(0), F(2), (-10, 10))
    handle = IntSeriesEvalHandle(QQ, spec)
    table = weight_multiplicities(handle, (-5, 5))
    assert any("trivial submodule at offset -2" in n for n in table.notes)
    spec2 = IntSeriesSpec(F(1), F(2), (-10, 10))
    table2 = weight_multiplicities(IntSeriesEvalHandle(QQ, spec2), (-5, 5))
    assert any("trivial quotient at offset -3" in n for n in table2.notes)


def test_int_series_over_q_notes_the_identity_and_its_window():
    handle = IntSeriesEvalHandle(QQ, IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3)))
    report = annihilator_support(handle)
    assert report.ideal.is_zero() and report.support is None
    assert report.notes == ("one-dimensional algebra: evaluation is the identity",)
    table = weight_multiplicities(handle, (-5, 2))
    assert table.truncated
    assert table.notes == ("offsets outside the module window reported as 0",)
    assert [table.multiplicity(o) for o in range(-5, 3)] == [0, 0, 1, 1, 1, 1, 1, 1]


def test_tensor_factor_with_an_empty_offset_range():
    # offsets 7..9 need a factor offset >= 7 - 3 = 4, past its window top 3
    handle = IntSeriesEvalHandle(QQ, IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3)))
    table = weight_multiplicities(TensorHandle([handle, handle]), (7, 9))
    assert table.mult == {} and table.truncated
    assert weight_multiplicities(TensorHandle([handle, handle]), (5, 9)).mult == {5: 2, 6: 1}


def test_verma_table():
    phi = Functional.classical(F(5, 7), 2)
    table = weight_multiplicities(VermaHandle(phi), (-4, 1))
    assert [table.multiplicity(o) for o in range(-4, 2)] == [5, 3, 2, 1, 1, 0]
    assert table.base == F(5, 7)
    assert not table.truncated


def test_irreducible_quotient_table():
    phi = Functional.classical(0, 0)
    table = weight_multiplicities(IrreducibleQuotientHandle(phi), (-3, 0))
    assert [table.multiplicity(o) for o in range(-3, 1)] == [0, 0, 0, 1]


def test_tensor_middle_multiplicity():
    previous = 0
    for w in range(1, 21):
        spec1 = IntSeriesSpec(F(1, 2), F(1, 3), (-w, w))
        spec2 = IntSeriesSpec(F(1, 5), F(2, 3), (-w, w))
        h1 = IntSeriesEvalHandle(SPLIT, spec1, 0)
        h2 = IntSeriesEvalHandle(SPLIT, spec2, 1)
        table = weight_multiplicities(TensorHandle([h1, h2]), (0, 0))
        count = table.multiplicity(0)
        assert count == 2 * w + 1 >= w
        assert count >= previous  # nondecreasing in the window
        assert table.truncated
        previous = count


def test_tensor_of_vermas_is_exact_convolution():
    phi = Functional.classical(F(5, 7), 2)
    psi = Functional.classical(F(1, 3), 1)
    tens = TensorHandle([VermaHandle(phi), VermaHandle(psi)])
    table = weight_multiplicities(tens, (-4, 0))
    # conv of partition counts: 1, 2, 5, 10, 20
    assert [table.multiplicity(-n) for n in range(5)] == [1, 2, 5, 10, 20]
    assert not table.truncated
    assert table.base == F(5, 7) + F(1, 3)


def test_generalized_table_delegates():
    quotient, _ = local_quotient(POLY, 0, 2)
    psi = Functional.from_values(quotient, {"1": 3, "t": F(1, 2)}, {})
    handle = GeneralizedEvalHandle(POLY, 0, 2, VermaHandle(psi))
    table = weight_multiplicities(handle, (-3, 0))
    assert [table.multiplicity(-n) for n in range(4)] == [1, 2, 5, 10]


def test_table_requires_offsets():
    phi = Functional.classical(0, 0)
    with pytest.raises(MissingWindow):
        weight_multiplicities(VermaHandle(phi), None)


def test_table_serialization():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3))
    table = weight_multiplicities(IntSeriesEvalHandle(QQ, spec), (-2, 2))
    d = table.to_json_dict()
    assert d["base_weight"] == "5/6"
    assert d["multiplicities"]["0"] == 1
    tsv = table.to_tsv()
    assert tsv.splitlines()[0] == "offset\tweight\tmultiplicity"
    assert len(tsv.splitlines()) == 6


# -- annihilators -------------------------------------------------------------

def test_annihilator_int_series_eval():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-10, 10))
    handle = IntSeriesEvalHandle(SPLIT, spec, 0)
    report = annihilator_support(handle)
    assert report.support == [0]
    assert report.closure_verified
    t = SPLIT.basis_element(1)
    assert report.ideal.contains(t)       # Ann = (t), the other factor's line
    assert not report.ideal.contains(SPLIT.one())


def test_annihilator_verma_is_zero():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    report = annihilator_support(VermaHandle(phi))
    assert report.ideal.is_zero()
    assert report.support == [0, 1]  # every point supports a free module


def test_annihilator_split_quotient():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    report = annihilator_support(IrreducibleQuotientHandle(phi))
    assert report.support == [0, 1]
    # a piece supported at one point drops the other from its support
    p0, _ = split_phi(phi)
    report0 = annihilator_support(IrreducibleQuotientHandle(p0))
    assert report0.support == [0]
    assert report0.closure_verified


def test_annihilator_trivial_module():
    phi = Functional.from_values(SPLIT, {}, {})
    report = annihilator_support(IrreducibleQuotientHandle(phi))
    assert report.ideal.is_whole()
    assert report.support == []


def test_annihilator_closure_property():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {"1": 1, "t": 0})
    report = annihilator_support(IrreducibleQuotientHandle(phi))
    for f in report.generators:
        for j in SPLIT.basis_indices():
            assert report.ideal.contains(f * SPLIT.basis_element(j))


def test_annihilator_generalized_eval():
    quotient, _ = local_quotient(POLY, 0, 2)
    psi = Functional.from_values(quotient, {"1": 3, "t": F(1, 2)}, {})
    handle = GeneralizedEvalHandle(POLY, 0, 2, VermaHandle(psi))
    report = annihilator_support(handle)
    assert report.support == [0]
    assert report.ideal.contains(POLY.basis_element(2))     # t^2 dies
    assert not report.ideal.contains(POLY.basis_element(1))  # t survives


@pytest.mark.parametrize("inner_cls, inner_values, generator, support", [
    (VermaHandle, ({"1": 3, "t": F(1, 2)}, {}), (0, 0, 1), [0]),      # Ann = (t^2)
    (IrreducibleQuotientHandle, ({"1": 1}, {}), (0, 1), [0]),          # kills t too
    (IrreducibleQuotientHandle, ({}, {}), (1,), []),                   # trivial module
], ids=["verma", "quotient-killing-t", "trivial"])
def test_generalized_eval_annihilator_is_the_same_ideal_on_both_flavors(
        inner_cls, inner_values, generator, support):
    # Ann = m^order + the lifted inner annihilator, over Q[t] as over Q[t]/(t^3 - t^2)
    for alg in (POLY, Algebra.product_local([(0, 2), (1, 1)])):
        quotient, _ = local_quotient(alg, 0, 2)
        inner = inner_cls(Functional.from_values(quotient, *inner_values))
        report = annihilator_support(GeneralizedEvalHandle(alg, 0, 2, inner))
        assert report.ideal == ideal_closure([alg.from_poly([F(c) for c in generator])])
        assert report.support == support and report.closure_verified


def test_zero_annihilator_has_no_generators_on_either_flavor():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-6, 6))
    sampled = Functional.from_sequences(POLY, [F(2) ** k for k in range(6)], [F(0)] * 6)
    split = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    for handle in (TensorHandle([VermaHandle(sampled), IntSeriesEvalHandle(POLY, spec, 2)]),
                   TensorHandle([VermaHandle(split), IntSeriesEvalHandle(SPLIT, spec, 1)]),
                   VermaHandle(sampled), VermaHandle(split)):
        report = annihilator_support(handle)
        assert report.ideal.is_zero() and report.generators == []
        assert report.to_json_dict()["annihilator_generators"] == []


def test_annihilator_tensor_union_support():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    p0, p1 = split_phi(phi)
    tens = TensorHandle([IrreducibleQuotientHandle(p0),
                         IrreducibleQuotientHandle(p1)])
    report = annihilator_support(tens)
    assert report.support == [0, 1]
    # intersection of the factor annihilators is killed by both points
    phi_total = p0 + p1
    dims = quotient_dims(phi_total, 2)
    assert dims[0] == 1  # sanity: the reassembled functional is nontrivial


# -- serialization ------------------------------------------------------------

def test_module_spec_roundtrip():
    spec = {"variant": "tensor", "factors": [
        {"variant": "int_series_eval", "a": "1/2", "b": "1/3",
         "point": "0", "window": [-20, 20]},
        {"variant": "int_series_eval", "a": "1/5", "b": "2/3",
         "point": "1", "window": [-20, 20]},
    ]}
    handle = module_from_spec(SPLIT, spec)
    assert handle.variant == "tensor"
    assert module_to_spec(handle) == spec


def test_generalized_module_spec():
    spec = {"variant": "generalized_eval", "point": "0", "order": 2,
            "inner": {"variant": "verma",
                      "functional": {"d0": {"1": "3", "t": "1/2"}, "c": {}}}}
    handle = module_from_spec(POLY, spec)
    assert handle.variant == "generalized_eval"
    assert handle.inner.variant == "verma"
    assert handle.inner.functional.highest_weight == 3
    assert module_to_spec(handle)["inner"]["functional"]["d0"]["t"] == "1/2"


def test_module_spec_roundtrip_every_handle_class():
    dual_phi = {"d0": {"1": "3", "t": "1/2"}, "c": {"1": "1/2"}}
    poly_phi = {"d0_seq": ["1", "2", "4"], "c_seq": ["0", "0", "0"],
                "exact_ideal": "t - 2"}
    iseries = {"variant": "int_series_eval", "a": "1/2", "b": "1/3",
               "point": "2", "window": [-5, 5]}
    cases = [
        (QQ, {"variant": "verma", "functional": {"d0": {"1": "5/7"}, "c": {"1": "2"}}},
         VermaHandle),
        (POLY, {"variant": "irreducible_quotient", "functional": poly_phi},
         IrreducibleQuotientHandle),
        (QQ, {"variant": "int_series_eval", "a": "0", "b": "2", "window": [-3, 3]},
         IntSeriesEvalHandle),
        (POLY, iseries, IntSeriesEvalHandle),
        (POLY, {"variant": "generalized_eval", "point": "0", "order": 2,
                "inner": {"variant": "irreducible_quotient", "functional": dual_phi}},
         GeneralizedEvalHandle),
        (POLY, {"variant": "tensor", "factors": [
            iseries,
            {"variant": "verma", "functional": poly_phi},
            {"variant": "tensor", "factors": [iseries]}]},
         TensorHandle),
    ]
    for alg, spec, cls in cases:
        handle = module_from_spec(alg, spec)
        assert type(handle) is cls
        assert handle.variant == spec["variant"]
        assert module_to_spec(handle) == spec
    with pytest.raises(ValueError, match="unknown module variant 'bogus'"):
        module_from_spec(QQ, {"variant": "bogus"})


# -- pinned behaviour of less travelled branches --------------------------------

def _dual_generalized_verma():
    quotient, _ = local_quotient(POLY, 0, 2)
    psi = Functional.from_values(quotient, {"1": 3, "t": F(1, 2)}, {})
    return GeneralizedEvalHandle(POLY, 0, 2, VermaHandle(psi))


def test_nested_tensor_generalized_weight_tables():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-2, 3))
    inner = TensorHandle([_dual_generalized_verma(),
                          IntSeriesEvalHandle(POLY, spec, 1)])
    outer = TensorHandle([inner, IntSeriesEvalHandle(POLY, spec, 2)])
    p2 = colored_partition_series(2, 12)
    window = range(-2, 4)

    def expect(o, factors):
        # offsets j_1 + ... + j_f + (Verma depth) = o, each j_i in the window
        total = 0
        for js in itertools.product(window, repeat=factors):
            depth = sum(js) - o
            if depth >= 0:
                total += p2[depth]
        return total

    t_inner = weight_multiplicities(inner, (-3, 3))
    assert [t_inner.multiplicity(o) for o in range(-3, 4)] == \
        [expect(o, 1) for o in range(-3, 4)] == [138, 74, 38, 18, 8, 3, 1]
    assert t_inner.base == 3 + F(5, 6)
    assert t_inner.truncated
    assert t_inner.notes == ("tensor counts are window-limited lower bounds",)
    t_outer = weight_multiplicities(outer, (-4, 4))
    assert [t_outer.multiplicity(o) for o in range(-4, 5)] == \
        [expect(o, 2) for o in range(-4, 5)]
    assert t_outer.base == 3 + 2 * F(5, 6)
    assert t_outer.truncated
    # a generalized evaluation of a quotient over a finite algebra stays exact
    alg = Algebra.product_local([(0, 2), (1, 1)])
    quotient, _ = local_quotient(alg, 0, 2)
    psi = Functional.from_values(quotient, {"t": 1}, {})
    handle = GeneralizedEvalHandle(alg, 0, 2, IrreducibleQuotientHandle(psi))
    table = weight_multiplicities(handle, (-3, 0))
    assert [table.multiplicity(o) for o in range(-3, 1)] == [10, 5, 2, 1]
    assert not table.truncated
    assert table.notes == ("pulled back through the order-2 quotient at point 0",)


def test_nested_tensor_of_highest_weight_factors_is_exact():
    phi = Functional.classical(F(5, 7), 2)
    psi = Functional.classical(F(1, 3), 1)
    trivial = IrreducibleQuotientHandle(Functional.classical(0, 0))
    tens = TensorHandle([TensorHandle([VermaHandle(phi), VermaHandle(psi)]), trivial])
    table = weight_multiplicities(tens, (-3, 1))
    assert [table.multiplicity(o) for o in range(-3, 2)] == [10, 5, 2, 1, 0]
    assert not table.truncated and table.notes == ()
    assert table.base == F(5, 7) + F(1, 3)


def test_highest_weight_tables_reject_color_window_past_algebra_window():
    P = Algebra.polynomial((0, 4))
    phi = Functional.from_sequences(P, [F(1)], [F(1)])
    for handle in (VermaHandle(phi), IrreducibleQuotientHandle(phi)):
        with pytest.raises(WindowOverflow):
            weight_multiplicities(handle, (-2, 0), window=(0, 9))


def test_highest_weight_tables_over_polynomial_are_windowed():
    P = Algebra.polynomial((0, 16))
    phi = Functional.from_sequences(P, [F(2) ** k for k in range(10)], [F(0)] * 10,
                                    exact_ideal=(F(-2), F(1)))
    verma = weight_multiplicities(VermaHandle(phi), (-2, 1), window=(0, 3))
    assert [verma.multiplicity(o) for o in range(-2, 2)] == [14, 4, 1, 0]
    quot = weight_multiplicities(IrreducibleQuotientHandle(phi), (-2, 1), window=(0, 3))
    assert [quot.multiplicity(o) for o in range(-2, 2)] == [2, 1, 1, 0]
    for table in (verma, quot):
        assert table.truncated
        assert table.notes == ("weight spaces counted inside the algebra window only",)


def test_annihilator_irreducible_quotient_polynomial():
    P = Algebra.polynomial((0, 32))
    exact = Functional.from_sequences(P, [3 * F(2) ** k for k in range(6)],
                                      [F(2) ** k for k in range(6)],
                                      exact_ideal=(F(-2), F(1)))
    report = annihilator_support(IrreducibleQuotientHandle(exact))
    assert report.to_json_dict() == {"annihilator_generators": ["t - 2"],
                                     "support": ["2"], "closure_verified": True,
                                     "notes": []}
    sampled = Functional.from_sequences(P, [F(2) ** k for k in range(6)], [F(0)] * 6)
    report = annihilator_support(IrreducibleQuotientHandle(sampled))
    assert report.ideal is None
    assert report.to_json_dict() == {
        "annihilator_generators": [], "support": None, "closure_verified": False,
        "notes": ["no certified annihilator within the window"]}
    irrational = Functional.from_sequences(P, [F(1), F(0), F(2), F(0)], [F(0)] * 4,
                                           exact_ideal=(F(-2), F(0), F(1)))
    report = annihilator_support(IrreducibleQuotientHandle(irrational))
    assert report.to_json_dict() == {
        "annihilator_generators": ["t^2 - 2"], "support": [], "closure_verified": True,
        "notes": ["annihilator has irrational factors; support incomplete"]}


def test_annihilator_tensor_principal_and_mixed_factors():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-6, 6))
    intersection = "intersection of factor annihilators (exact when supports are disjoint)"
    principal = TensorHandle([IntSeriesEvalHandle(POLY, spec, 0),
                              IntSeriesEvalHandle(POLY, spec, 1)])
    assert annihilator_support(principal).to_json_dict() == {
        "annihilator_generators": ["t^2 - t"], "support": ["0", "1"],
        "closure_verified": True, "notes": [intersection]}
    sampled = Functional.from_sequences(POLY, [F(2) ** k for k in range(6)], [F(0)] * 6)
    mixed = TensorHandle([IntSeriesEvalHandle(POLY, spec, 2),
                          IrreducibleQuotientHandle(sampled)])
    report = annihilator_support(mixed)
    assert report.ideal is None
    assert report.to_json_dict() == {
        "annihilator_generators": [], "support": None, "closure_verified": False,
        "notes": ["mixed factor annihilators; no common ideal computed", intersection]}
    with_verma = TensorHandle([VermaHandle(sampled), IntSeriesEvalHandle(POLY, spec, 2)])
    report = annihilator_support(with_verma)
    assert report.ideal.is_zero()
    assert report.support is None and report.closure_verified
    assert annihilator_support(VermaHandle(sampled)).to_json_dict() == {
        "annihilator_generators": [], "support": None, "closure_verified": True,
        "notes": ["no point presentation; support unavailable",
                  "Verma modules are free over the lowering half; "
                  "their annihilator is zero"]}
    nested = TensorHandle([_dual_generalized_verma(), IntSeriesEvalHandle(POLY, spec, 1)])
    assert annihilator_support(nested).to_json_dict() == {
        "annihilator_generators": ["t^3 - t^2"], "support": ["0", "1"],
        "closure_verified": True, "notes": [intersection]}


def test_handle_queries_undefined_on_the_base_class():
    from mapvir import ModuleHandle, UnsupportedKind
    bare = ModuleHandle(QQ)
    with pytest.raises(UnsupportedKind):
        weight_multiplicities(bare, (0, 1))
    with pytest.raises(UnsupportedKind):
        annihilator_support(bare)
    with pytest.raises(UnsupportedKind):
        module_to_spec(bare)
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3))
    tens = TensorHandle([IntSeriesEvalHandle(QQ, spec)])
    with pytest.raises(UnsupportedKind, match="eval_act is not defined on tensor handles"):
        eval_act(tens, d_term(QQ, 1), {0: F(1)})


# -- local quotients ------------------------------------------------------------

def _check_local_projection(alg, point, order, elements):
    quotient, proj = local_quotient(alg, point, order)
    assert quotient == Algebra.product_local([(point, order)])
    assert proj(alg.one()) == quotient.one()
    m = proj(alg.from_poly((F(-point), F(1))))
    power = quotient.one()
    for _ in range(order):
        power = power * m
    assert power.is_zero()                       # (t - point)^order dies
    for x in elements:
        for y in elements:
            assert proj(x * y) == proj(x) * proj(y)
    return quotient, proj


def test_local_quotient_polynomial():
    rng = random.Random(31)
    elements = [POLY.element({k: F(rng.randint(-3, 3)) for k in range(5)})
                for _ in range(6)]
    quotient, proj = _check_local_projection(POLY, 2, 3, elements)
    # t^3 = (t - 2)^3 + 6t^2 - 12t + 8
    assert proj(POLY.basis_element(3)) == quotient.from_poly((F(8), F(-12), F(6)))
    assert proj.lift(quotient.basis_element(2)) == POLY.basis_element(2)
    assert local_quotient(POLY, 2, 3)[0] == quotient   # equal, not cached


def test_local_quotient_laurent():
    rng = random.Random(32)
    laur = Algebra.laurent((-8, 8))
    elements = [laur.element({k: F(rng.randint(-3, 3)) for k in range(-3, 4)})
                for _ in range(6)]
    quotient, proj = _check_local_projection(laur, 2, 2, elements)
    tinv = proj(laur.basis_element(-1))
    assert tinv * proj(laur.basis_element(1)) == quotient.one()
    # 1/t = 1/2 - (t - 2)/4 + ... = 1 - t/4 modulo (t - 2)^2
    assert tinv == quotient.from_poly((F(1), F(-1, 4)))
    with pytest.raises(ValueError, match="t is not invertible at the point 0"):
        local_quotient(laur, 0, 2)


def test_local_quotient_product_local_needs_dominating_factor():
    alg = Algebra.product_local([(0, 2), (1, 1)])
    quotient, proj = local_quotient(alg, 0, 2)
    # t^2 = 0 and t = t modulo t^2
    assert proj(alg.basis_element(2)).is_zero()
    assert proj(alg.from_poly((F(1), F(3), F(5)))) == quotient.from_poly((F(1), F(3)))
    with pytest.raises(ValueError, match="no factor dominating"):
        local_quotient(alg, 1, 2)
    with pytest.raises(ValueError, match="order must be positive"):
        local_quotient(alg, 0, 0)
