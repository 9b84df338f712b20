import ast
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
    IntSeriesEvalHandle,
    IntSeriesSpec,
    IrreducibleQuotientHandle,
    PrincipalIdeal,
    TensorHandle,
    UnsupportedKind,
    VermaHandle,
    VermaVector,
    annihilator_support,
    check_quasifinite,
    classify_module,
    d_term,
    depth_one_vector,
    functional_to_spec,
    ideal_closure,
    in_maximal_submodule,
    involute_functional,
    largest_v0_ideal,
    pairing_matrix,
    pbw_basis,
    quotient_algebra,
    quotient_dims,
    split_phi,
    trichotomy_profile,
    verma_act,
    weight_multiplicities,
)
from mapvir import classify as classify_source
from mapvir import linalg, polyutil, verma
from oracles import convolve, oracle_minimal_order, principal_quotient_tensor

QQ = Algebra.rationals()
SPLIT = Algebra.product_local([(0, 1), (1, 1)])


def test_classify_two_point_example():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    record = classify_module(phi)
    assert record.verdict == "hw_tensor_of_generalized_evals"
    assert [(c.point, c.order) for c in record.components] == [(0, 1), (1, 1)]
    assert record.components[0].functional.highest_weight == 3
    assert record.components[1].functional.highest_weight == 2


def test_classify_roundtrip_characters():
    rng = random.Random(33)
    phi = Functional(SPLIT,
                     {i: F(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(2)},
                     {i: F(rng.randint(-4, 4)) for i in range(2)})
    record = classify_module(phi)
    # the CRT pieces over A sum back to phi
    total = None
    for c in record.components:
        total = c.phi_piece if total is None else total + c.phi_piece
    if total is not None:
        assert total == phi
    # characters convolve back to the original graded dimensions
    dims = [1]
    for c in record.components:
        dims = convolve(dims, list(quotient_dims(c.functional, 4)))
    assert tuple(dims[:5]) == quotient_dims(phi, 4)


def test_classify_orders_detect_nilpotents():
    dual = Algebra.product_local([(0, 2)])
    phi_flat = Functional(dual, {0: F(3), 1: F(0)}, {0: F(1), 1: F(0)})
    rec = classify_module(phi_flat)
    assert [(c.point, c.order) for c in rec.components] == [(0, 1)]
    phi_nilp = Functional(dual, {0: F(3), 1: F(7)}, {0: F(1), 1: F(0)})
    rec2 = classify_module(phi_nilp)
    assert [(c.point, c.order) for c in rec2.components] == [(0, 2)]


def test_classify_trivial():
    phi = Functional.from_values(SPLIT, {}, {})
    record = classify_module(phi)
    assert record.components == []
    assert record.notes.get("trivial") is True


def test_classify_int_series_descriptor():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-10, 10))
    record = classify_module(spec, point=2)
    assert record.verdict == "int_series_single_point"
    assert len(record.components) == 1
    comp = record.components[0]
    assert comp.point == 2 and comp.order == 1
    assert comp.int_series == (F(1, 2), F(1, 3))


def test_classify_polynomial_exact_two_points():
    P = Algebra.polynomial((0, 32))
    # lam_k = 2^k + 3^k, kap_k = 3^k: both killed by (t-2)(t-3)
    char = (F(6), F(-5), F(1))
    lam = [F(2) ** k + F(3) ** k for k in range(10)]
    kap = [F(3) ** k for k in range(10)]
    phi = Functional.from_sequences(P, lam, kap, exact_ideal=char)
    record = classify_module(phi)
    assert record.verdict == "hw_tensor_of_generalized_evals"
    assert [(c.point, c.order) for c in record.components] == [(2, 1), (3, 1)]
    weights = [c.functional.highest_weight for c in record.components]
    assert sum(weights) == lam[0]


def test_classify_polynomial_undetermined():
    P = Algebra.polynomial((0, 32))
    lam = [F(math.factorial(k)) for k in range(13)]
    phi = Functional.from_sequences(P, lam, [F(0)] * 13)
    record = classify_module(phi, bound=12)
    assert record.verdict == "undetermined_at_bound"
    record2 = classify_module(phi, bound=12, assume_exact=True)
    assert record2.verdict == "not_quasifinite"


def test_classify_rejects_negative_bound():
    P = Algebra.polynomial((0, 16))
    phi = Functional.from_sequences(P, [F(2) ** k for k in range(6)], [F(0)] * 6)
    with pytest.raises(ValueError, match="bound"):
        classify_module(phi, bound=-1, assume_exact=True)


def test_classify_lowest_weight():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    record = classify_module(phi, lowest=True)
    assert record.verdict == "lw_tensor_of_generalized_evals"
    total = None
    for c in record.components:
        total = c.phi_piece if total is None else total + c.phi_piece
    assert total == phi
    assert involute_functional(involute_functional(phi)) == phi


def test_classify_rejects_bare_structure_constants():
    tensor = (((F(1),),),)
    alg = Algebra.structure_constants(tensor, (F(1),))
    phi = Functional(alg, {0: F(2)}, {0: F(0)})
    with pytest.raises(UnsupportedKind):
        classify_module(phi)


def test_classified_components_rebuild_as_handles():
    dual = Algebra.product_local([(0, 2)])
    phi = Functional(dual, {0: F(3), 1: F(7)}, {0: F(1), 1: F(0)})
    record = classify_module(phi)
    (comp,) = record.components
    handle = GeneralizedEvalHandle(dual, comp.point, comp.order,
                                   IrreducibleQuotientHandle(comp.functional))
    assert handle.variant == "generalized_eval"


def _main_theorem_holds(phi, depth=4):
    """L(phi) against the tensor of the generalized evaluation modules that
    classify_module finds: equal weight multiplicities at offsets -depth..0
    and equal annihilators.  With no component L(phi) is trivial."""
    alg = phi.algebra
    dims = quotient_dims(phi, depth)
    ann = annihilator_support(IrreducibleQuotientHandle(phi)).ideal
    components = classify_module(phi).components
    if not components:
        assert ann.is_whole() and dims == (1,) + (0,) * depth
        return
    tensor = TensorHandle([GeneralizedEvalHandle(alg, c.point, c.order,
                                                 IrreducibleQuotientHandle(c.functional))
                           for c in components])
    table = weight_multiplicities(tensor, (-depth, 0))
    assert tuple(table.multiplicity(-d) for d in range(depth + 1)) == dims
    assert annihilator_support(tensor).ideal == ann


def test_classified_components_tensor_back_to_the_irreducible_module():
    rng = random.Random(2903)
    points = [F(0), F(1), F(-3), F(1, 2), F(-2, 3), F(5, 4)]
    for _ in range(30):
        factors = list(zip(rng.sample(points, 3),
                           [rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)]))
        alg = Algebra.product_local(factors)
        phi = Functional(alg, {i: F(rng.randint(-4, 4), rng.randint(1, 3))
                               for i in range(alg.dim)},
                         {i: F(rng.randint(-3, 3)) for i in range(alg.dim)})
        _main_theorem_holds(phi)
    _main_theorem_holds(Functional(alg, {}, {}))


def _planted_local_values(factors, planted, dim, rng):
    """Values on t^0..t^{dim-1} of sum_i sum_{j < N_i} c_ij (D^j/j!)|_{a_i}:
    the piece at a_i then vanishes exactly on (t - a_i)^k for k >= N_i."""
    coeffs = [[F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)) for _ in range(n)]
              for n in planted]
    return {k: sum((c * math.comb(k, j) * a ** (k - j)
                    for (a, _), cs in zip(factors, coeffs) for j, c in enumerate(cs)
                    if j <= k), F(0))
            for k in range(dim)}


def test_minimal_order_matches_the_ideal_power_oracle():
    rng = random.Random(41)
    points = [F(0), F(1), F(-1), F(1, 2), F(3), F(-2, 3)]
    for _ in range(40):
        factors = [(p, rng.randint(1, 4)) for p in rng.sample(points, rng.randint(1, 2))]
        alg = Algebra.product_local(factors)
        planted_d0 = [rng.randint(0, n) for _, n in factors]
        planted_c = [rng.randint(0, n) for _, n in factors]
        phi = Functional(alg, _planted_local_values(factors, planted_d0, alg.dim, rng),
                         _planted_local_values(factors, planted_c, alg.dim, rng))
        record = classify_module(phi)
        expected = [(point, oracle_minimal_order(piece, point, order))
                    for (point, order), piece in zip(alg.factors, split_phi(phi))
                    if not piece.is_zero()]
        assert [(c.point, c.order) for c in record.components] == expected
        assert expected == [(p, max(nd, nc)) for (p, _), nd, nc
                            in zip(factors, planted_d0, planted_c) if max(nd, nc)]


def _planted_membership_corpus(rng, draws):
    """(phi, vectors) on seeded product_local algebras whose values plant a
    reduced order below the factor's at some points, so phi kills a nonzero
    ideal J = largest_v0_ideal(phi).  Vectors at depths 0-3: random PBW
    combinations; pieces of (Vir (x) J) w and (d_{-1} (x) f) v, f in J, which
    lie in Rad; the depth-2 pairing kernel, with and without a monomial added."""
    points = [F(0), F(1), F(-1), F(1, 2), F(3), F(-2, 3)]
    corpus = []
    while len(corpus) < draws:
        factors = [(p, rng.randint(1, 3)) for p in rng.sample(points, rng.randint(1, 2))]
        alg = Algebra.product_local(factors)
        planted = [[rng.randint(0, n) for _, n in factors] for _ in range(2)]
        phi = Functional(alg, *(_planted_local_values(factors, pl, alg.dim, rng)
                                for pl in planted))
        ideal = largest_v0_ideal(phi)
        if ideal.is_zero() or ideal.is_whole():
            continue
        scalar = lambda: F(rng.randint(-3, 3), rng.randint(1, 2))
        vectors = [VermaVector(phi, EnvElement(alg, {(): scalar() or F(1)}))]
        for depth in range(1, 4):
            basis = pbw_basis(depth, alg)
            vectors += [VermaVector(phi, EnvElement(alg, {mono: scalar() or F(1)
                                                          for mono in rng.sample(basis, 2)}))
                        for _ in range(2) if len(basis) > 1]
        for f in ideal.basis_elements():
            vectors.append(depth_one_vector(phi, f))
            w = VermaVector(phi, EnvElement(alg, {rng.choice(pbw_basis(1, alg)): F(1)}))
            for mode in (-2, -1, 1):
                vectors += [piece for piece in verma_act(d_term(alg, mode, f), w)
                            if not piece.is_zero()]
        basis = pbw_basis(2, alg)
        for vec in linalg.kernel(pairing_matrix(phi, 2), len(basis)):
            terms = dict(zip(basis, vec))
            vectors.append(VermaVector(phi, EnvElement(alg, terms)))
            terms[rng.choice(basis)] += 1
            vectors.append(VermaVector(phi, EnvElement(alg, terms)))
        corpus.append((phi, vectors))
    return corpus


def test_membership_through_the_largest_v0_ideal_answers_as_the_walk(monkeypatch):
    corpus = _planted_membership_corpus(random.Random(47), 12)
    answers = [in_maximal_submodule(v) for _, vectors in corpus for v in vectors]
    assert all(verma._pulled_back(phi) is not None for phi, _ in corpus)
    # patched off, every query walks V(phi) over all dim A colors
    monkeypatch.setattr(verma, "_pulled_back", lambda phi, window=None: None)
    assert answers == [in_maximal_submodule(v) for _, vectors in corpus for v in vectors]
    assert True in answers and False in answers
    assert {v.depth for _, vectors in corpus for v in vectors} == {0, 1, 2, 3}


def test_the_pull_back_reads_the_largest_v0_ideal_off_the_pieces():
    # J = prod (t - a)^k over the pieces, k their minimal orders, is the
    # Fraction kernel of largest_v0_ideal, and phi_bar over A/J = product_local
    # at those (a, k) answers as phi; the structure-constants twin of A has no
    # pieces, gets no pull-back and walks V(phi) to the same answers
    def components(phi):
        return [(c.point, c.order, functional_to_spec(c.functional))
                for c in classify_module(phi).components]

    for phi, vectors in _planted_membership_corpus(random.Random(53), 6):
        alg = phi.algebra
        orders = [(point, oracle_minimal_order(piece, point, order))
                  for (point, order), piece in zip(alg.factors, split_phi(phi))
                  if not piece.is_zero()]
        gen = (F(1),)
        for a, k in orders:
            gen = polyutil.pmul(gen, polyutil.ppow((-a, F(1)), k))
        assert ideal_closure([alg.from_poly(gen)]) == largest_v0_ideal(phi)
        phi_bar = verma._pulled_back(phi)[0]
        assert components(phi_bar) == components(phi)
        assert quotient_dims(phi_bar, 5) == quotient_dims(phi, 5)
        assert phi_bar.algebra == Algebra.product_local(orders)
        twin = Algebra.structure_constants(*principal_quotient_tensor(alg._modulus))
        mirror = Functional(twin, dict(phi._d0), dict(phi._c))
        assert verma._pulled_back(mirror) is None
        assert [in_maximal_submodule(VermaVector(mirror, EnvElement(twin, v.env.terms)))
                for v in vectors] == [in_maximal_submodule(v) for v in vectors]


def test_a_witness_that_does_not_split_builds_no_quotient(monkeypatch):
    built = []
    real_sc, real_q = Algebra.structure_constants.__func__, verma.product_local_quotient

    def structure_constants(cls, *args, **kwargs):
        built.append("structure_constants")
        return real_sc(cls, *args, **kwargs)

    def quotient(*args):
        built.append("product_local_quotient")
        return real_q(*args)

    monkeypatch.setattr(Algebra, "structure_constants", classmethod(structure_constants))
    monkeypatch.setattr(verma, "product_local_quotient", quotient)
    P = Algebra.polynomial((0, 12))
    phi = Functional.from_sequences(P, [F(1), F(3)], [F(2), F(-1)],
                                    exact_ideal=(F(-2), F(0), F(1)))
    record = classify_module(phi)
    assert built == []
    assert record.to_json_dict(explain=True) == {
        "verdict": "undetermined_at_bound", "components": [],
        "notes": {"convention": "bracket [d_m, d_n] = (n-m) d_{m+n} + delta_{m,-n} (m^3-m)/12 c",
                  "bound": 1, "reason": "witness ideal does not split into rational points",
                  "witness": "t^2 - 2", "weight_side": "highest"},
        "witness": "PrincipalIdeal(t^2 - 2)", "idempotents": []}


def test_product_local_split_and_classify_form_no_algebra_product(monkeypatch):
    calls = []
    real = Algebra._mul_coeffs
    monkeypatch.setattr(Algebra, "_mul_coeffs",
                        lambda self, a, b: calls.append(self) or real(self, a, b))
    rng = random.Random(43)
    calls_under_test = [split_phi, lambda phi: classify_module(phi).to_json_dict(explain=True),
                        lambda phi: classify_module(phi, lowest=True).to_json_dict(explain=True)]
    for factors in ([(0, 2), (1, 2), (-1, 1)], [(F(1, 2), 3)], [(0, 1), (2, 1), (-1, 1)]):
        for call in calls_under_test:
            alg = Algebra.product_local(factors)  # fresh: no idempotents cached yet
            call(Functional(alg, {i: F(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(alg.dim)},
                            {i: F(rng.randint(-4, 4)) for i in range(alg.dim)}))
    assert calls == []


def test_classify_reads_no_factor_layout():
    # the CRT pieces come from verma._local_pieces, the one reader of the layout
    tree = ast.parse(Path(classify_source.__file__).read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"factors", "_modulus", "local_decomposition"}


def test_only_algebra_presents_principal_quotients():
    # classify reaches A/(p) through verma._pull_back, and only algebra.py
    # decides its presentation
    def names(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        found |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        return found | {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names}

    package = Path(classify_source.__file__).parent
    assert not names(package / "classify.py") & {"rational_roots", "polynomial_quotient"}
    readers = {path.name for path in package.glob("*.py") if "polynomial_quotient" in names(path)}
    assert readers == {"algebra.py"}


def test_functionals_over_split_quotients_classify():
    # a split quotient is product_local, so classify_module, split_phi and
    # annihilator_support reach it and agree with the exact Q[t] functional
    P = Algebra.polynomial((0, 16))
    p = (F(-3), F(2), F(1))
    quo, proj = quotient_algebra(P, PrincipalIdeal(P, P.from_poly(p)))
    assert quo.kind == "product_local"
    for d0, c in (([5, 2], [1, 0]), ([F(1, 3), -4], [F(1, 2), 3]), ([1, 1], [2, 2]), ([0, 0], [0, 0])):
        seed = Functional.from_sequences(P, d0, c, exact_ideal=p)
        # ten declared values, so detection can find a smaller witness than p
        exact = Functional.from_sequences(P, [seed.value_d0(k) for k in range(10)],
                                          [seed.value_c(k) for k in range(10)], exact_ideal=p)
        phi = Functional(quo, dict(enumerate(d0)), dict(enumerate(c)))
        record, reference = classify_module(phi), classify_module(exact)
        assert record.verdict == reference.verdict == "hw_tensor_of_generalized_evals"
        assert ([comp.to_json_dict() for comp in record.components]
                == [comp.to_json_dict() for comp in reference.components])
        pieces = split_phi(phi)
        assert len(pieces) == 2 and pieces[0] + pieces[1] == phi
        ann = annihilator_support(IrreducibleQuotientHandle(phi))
        ref = annihilator_support(IrreducibleQuotientHandle(exact))
        assert ann.support == ref.support
        # the image of the exact annihilator in A/(p) is phi's annihilator
        assert ann.ideal == ideal_closure([proj(g) for g in ref.generators] or [quo.one()])


def test_exact_functional_on_a_short_window_reports_its_minimal_recurrence():
    # evaluation at 1, declared with (t - 1)(t + 3) on two values: detection
    # reads the extended sequences, so the witness is t - 1, not the declared p
    P = Algebra.polynomial((0, 16))
    phi = Functional.from_sequences(P, [1, 1], [2, 2], exact_ideal=(F(-3), F(2), F(1)))
    ann = annihilator_support(IrreducibleQuotientHandle(phi)).to_json_dict()
    assert (ann["annihilator_generators"], ann["support"]) == (["t - 1"], ["1"])
    record = classify_module(phi)
    assert record.notes["witness"] == "t - 1"
    assert "dropped_zero_components" not in record.notes
    verdict = check_quasifinite(phi)
    assert (str(verdict.witness), verdict.note) == ("(t - 1)", "")


def test_json_record():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    record = classify_module(phi)
    d = record.to_json_dict(explain=True)
    assert d["verdict"] == "hw_tensor_of_generalized_evals"
    assert len(d["components"]) == 2
    assert d["idempotents"] == ["-t + 1", "t"]


# -- trichotomy ---------------------------------------------------------------

def test_profile_verma_truncated_above():
    phi = Functional.classical(F(5, 7), 2)
    profile = trichotomy_profile(VermaHandle(phi), (-6, 2))
    assert profile.shape == "truncated_above"


def test_profile_int_series_bounded_one():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-30, 30))
    profile = trichotomy_profile(IntSeriesEvalHandle(QQ, spec), (-8, 8))
    assert profile.shape == "bounded"
    assert profile.bound == 1


def test_profile_int_series_truncated_below():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-3, 30))
    profile = trichotomy_profile(IntSeriesEvalHandle(QQ, spec), (-8, 8))
    assert (profile.shape, profile.bound) == ("truncated_below", None)


def test_profile_verma_times_int_series_unbounded_both():
    # multiplicity at offset o is sum p(k) over k >= 0 with o + k in -3..3:
    # 1 at the top edge, p(1) + ... + p(7) = 44 at the bottom one
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3))
    tensor = TensorHandle([VermaHandle(Functional.classical(F(5, 7), 2)),
                           IntSeriesEvalHandle(QQ, spec)])
    profile = trichotomy_profile(tensor, (-4, 3))
    assert (profile.shape, profile.bound, profile.window_truncated) == ("unbounded_both", 44, True)
    assert profile.table.multiplicity(3) == 1


def test_profile_of_an_empty_table_is_bounded_by_zero():
    spec = IntSeriesSpec(F(1, 2), F(1, 3), (-3, 3))
    profile = trichotomy_profile(IntSeriesEvalHandle(QQ, spec), (5, 8))
    assert (profile.shape, profile.bound, profile.window_truncated) == ("bounded", 0, True)
    assert not profile.table.mult


def test_profile_two_point_tensor_flags_window():
    w = 10
    h1 = IntSeriesEvalHandle(SPLIT, IntSeriesSpec(F(1, 2), F(1, 3), (-w, w)), 0)
    h2 = IntSeriesEvalHandle(SPLIT, IntSeriesSpec(F(1, 5), F(2, 3), (-w, w)), 1)
    profile = trichotomy_profile(TensorHandle([h1, h2]), (-10, 10))
    assert profile.shape == "bounded"
    assert profile.bound >= w
    assert profile.window_truncated


def test_profile_trivial_module():
    phi = Functional.classical(0, 0)
    profile = trichotomy_profile(IrreducibleQuotientHandle(phi), (-5, 5))
    assert profile.shape == "bounded"
    assert profile.bound == 1  # single weight line strictly inside the window
