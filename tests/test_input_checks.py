"""Every check that rejects outside input raises its documented exception.

One row per check: the call, the exception class and a fragment of the
message.  The CLI rows run ``mapvir.cli.main`` and expect exit status 1
with the message on stderr.  A second table pins public answers on inputs
that no other test feeds in.
"""

import json
from fractions import Fraction as F

import pytest

from mapvir import (
    Algebra,
    EnvElement,
    Functional,
    Ideal,
    ImproperIdeal,
    InfiniteDimensionalAlgebra,
    IntSeriesEvalHandle,
    IntSeriesSpec,
    IrreducibleQuotientHandle,
    PrincipalIdeal,
    TensorHandle,
    UnsupportedKind,
    VermaHandle,
    VermaVector,
    algebra_from_spec,
    annihilator_support,
    classify_module,
    d_term,
    format_lie_element,
    ideal_closure,
    ideal_power,
    ideal_product,
    largest_d0_ideal,
    largest_v0_ideal,
    local_quotient,
    parse_algebra_element,
    parse_lie_element,
    parse_word,
    pbw_basis,
    point_ideal,
    quotient_algebra,
    singular_vectors,
    split_phi,
    straighten,
    weight_multiplicities,
)
from mapvir import cli, polyutil, recurrence
from mapvir.algebra import principal_quotient

QQ = Algebra.rationals()
DUAL = Algebra.product_local([(0, 2)])
POLY = Algebra.polynomial((0, 6))
LAUR = Algebra.laurent((-3, 3))
QXQ = Algebra.structure_constants([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 1))
POLY_PHI = Functional.from_sequences(POLY, [1, 2, 3], [0, 0, 0])
SPEC = IntSeriesSpec(F(1, 2), 0, (-2, 2))


class _UnboundedAbove(VermaHandle):
    """A handle whose weights are bounded below only, as a caller may define."""

    def support_bounds(self):
        return (0, None)


REJECTED = {
    # algebra: constructors, axioms, labels, kinds, ideals, quotients, specs
    "tensor-shape": (lambda: Algebra.structure_constants([[[1, 0]], [[0, 1]]], (1, 0)),
                     ValueError, "dim x dim x dim"),
    "unit-length": (lambda: Algebra.structure_constants([[[1]]], (1, 0)),
                    ValueError, "unit vector has wrong length"),
    "label-count": (lambda: Algebra.structure_constants([[[1]]], (1,), labels=("a", "b")),
                    ValueError, "wrong number of basis labels"),
    "no-factors": (lambda: Algebra.product_local([]), ValueError, "at least one factor"),
    "factor-order": (lambda: Algebra.product_local([(0, 0)]),
                     ValueError, "factor orders must be positive"),
    "poly-window-start": (lambda: Algebra.polynomial((1, 4)), ValueError, "must start at 0"),
    "poly-window-empty": (lambda: Algebra.polynomial((0, -1)), ValueError, "empty window"),
    "laurent-window": (lambda: Algebra.laurent((1, 3)),
                       ValueError, "must contain exponent 0"),
    "not-commutative": (lambda: Algebra.structure_constants(
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], (1, 0)), ValueError, "not commutative at (1,0)"),
    "unit-law": (lambda: Algebra.structure_constants(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 0)), ValueError, "unit law fails"),
    "not-associative": (lambda: Algebra.structure_constants(  # e1 e1 = e2, e2 e2 = e1
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
         [[0, 0, 1], [0, 0, 0], [0, 1, 0]]], (1, 0, 0)), ValueError, "not associative"),
    "infinite-basis": (lambda: POLY.basis_indices(),
                       InfiniteDimensionalAlgebra, "no finite basis"),
    "unknown-label": (lambda: QQ.index_of_label("x"), ValueError, "unknown basis label"),
    "bad-monomial-label": (lambda: POLY.index_of_label("s"), ValueError, "bad monomial label"),
    "from-poly-kind": (lambda: QQ.from_poly([1]), UnsupportedKind, "from_poly needs"),
    "as-poly-kind": (lambda: QQ.one().as_poly(), UnsupportedKind, "as_poly needs"),
    "as-poly-negative": (lambda: LAUR.basis_element(-1).as_poly(),
                         ValueError, "negative exponents"),
    "ideal-infinite": (lambda: Ideal(POLY, []), InfiniteDimensionalAlgebra, "finite-dimensional"),
    "principal-finite": (lambda: PrincipalIdeal(QQ, QQ.one()),
                         UnsupportedKind, "principal-ideal records"),
    "point-ideal-kind": (lambda: point_ideal(QQ, 0), UnsupportedKind, "point ideals need"),
    "closure-empty": (lambda: ideal_closure([]), ValueError, "at least one generator"),
    "product-flavours": (lambda: ideal_product(Ideal(DUAL, []), PrincipalIdeal(POLY, POLY.one())),
                         TypeError, "same flavor"),
    "power-zero": (lambda: ideal_power(Ideal(DUAL, [[0, 1]]), 0),
                   ValueError, "positive exponent"),
    "laurent-t-not-invertible": (lambda: principal_quotient(LAUR, (F(0), F(1))),
                                 ImproperIdeal, "t is not invertible"),
    "spec-dim": (lambda: algebra_from_spec({"kind": "structure_constants", "tensor": [[[1]]],
                                            "unit": [1], "dim": 2}),
                 ValueError, "declared dim"),
    "spec-kind": (lambda: algebra_from_spec({"kind": "octonions"}),
                  ValueError, "unknown algebra kind"),
    # verma: functionals, vectors and the finite-kind procedures
    "sequence-lengths": (lambda: Functional(POLY, [1, 2], [1]), ValueError, "equal length"),
    "functional-kind": (lambda: Functional(Algebra(kind="octonions"), {}, {}),
                        UnsupportedKind, "no functional support"),
    "recurrence-degree": (lambda: Functional.from_sequences(POLY, [1, 1], [0, 0],
                                                            exact_ideal=[3]),
                          ValueError, "positive degree"),
    "recurrence-values": (lambda: Functional.from_sequences(POLY, [1], [0],
                                                            exact_ideal=[0, 0, 1]),
                          ValueError, "not enough values"),
    "recurrence-fails": (lambda: Functional.from_sequences(POLY, [1, 3], [0, 0],
                                                           exact_ideal=[-2, 1]),
                         ValueError, "does not annihilate"),
    "from-values-poly": (lambda: Functional.from_values(POLY, {}, {}),
                         UnsupportedKind, "use from_sequences"),
    "from-sequences-finite": (lambda: Functional.from_sequences(QQ, [1], [0]),
                              UnsupportedKind, "needs a polynomial algebra"),
    "mixed-weight": (lambda: VermaVector(Functional.classical(1, 0),
                                         EnvElement(QQ, {(): 1, ((1, 0),): 1})),
                     ValueError, "mixed-weight"),
    "singular-depth": (lambda: singular_vectors(Functional.classical(1, 0), 0),
                       ValueError, "positive depth"),
    "d0-ideal-kind": (lambda: largest_d0_ideal(POLY_PHI), UnsupportedKind, "largest_d0_ideal"),
    "v0-ideal-kind": (lambda: largest_v0_ideal(POLY_PHI), UnsupportedKind, "largest_v0_ideal"),
    "split-kind": (lambda: split_phi(Functional.classical(1, 0)),
                   UnsupportedKind, "split_phi needs"),
    # exprs
    "character": (lambda: parse_lie_element("d[1] $", QQ), ValueError, "unexpected character"),
    "expected-op": (lambda: parse_lie_element("d 1", QQ), ValueError, "expected '['"),
    "trailing": (lambda: parse_algebra_element("1 1", QQ), ValueError, "trailing input"),
    "exponent": (lambda: parse_algebra_element("t^x", POLY), ValueError, "exponent must"),
    "mode": (lambda: parse_lie_element("d[x]", QQ), ValueError, "mode must"),
    "token": (lambda: parse_lie_element(")", QQ), ValueError, "unexpected token"),
    "add-mixed": (lambda: parse_lie_element("d[1] + 1", QQ),
                  ValueError, "cannot add a coefficient"),
    "lie-power": (lambda: parse_lie_element("d[1]^2", QQ), ValueError, "raised to powers"),
    "no-generator": (lambda: parse_lie_element("1", QQ), ValueError, "no d[n] or c"),
    "empty-word": (lambda: parse_word(" ; ", QQ), ValueError, "empty word"),
    # evalmod
    "eval-point": (lambda: IntSeriesEvalHandle(DUAL, SPEC), ValueError, "needs a point"),
    "eval-kind": (lambda: IntSeriesEvalHandle(QXQ, SPEC), UnsupportedKind, "int-series evaluation needs"),
    "tensor-empty": (lambda: TensorHandle([]), ValueError, "at least one factor"),
    "tensor-unbounded": (lambda: weight_multiplicities(
        TensorHandle([_UnboundedAbove(Functional.classical(1, 0))]), (0, 1)),
        UnsupportedKind, "unbounded above"),
    "local-quotient-kind": (lambda: local_quotient(QQ, 0, 1),
                            UnsupportedKind, "local quotients need"),
    "offsets-empty": (lambda: weight_multiplicities(VermaHandle(Functional.classical(1, 0)),
                                                    (3, 1)),
                      ValueError, "empty offsets interval"),
    # polyutil, recurrence, pbw, classify
    "pdivmod-zero": (lambda: polyutil.pdivmod((F(1),), ()),
                     ZeroDivisionError, "division by zero"),
    "roots-zero": (lambda: polyutil.rational_roots(()), ValueError, "zero polynomial"),
    "extend-order": (lambda: recurrence.extend([1, 2], (F(1),), 4),
                     ValueError, "positive order"),
    "extend-values": (lambda: recurrence.extend([1], (F(0), F(0), F(1)), 4),
                      ValueError, "not enough initial values"),
    "straighten-empty": (lambda: straighten([]), ValueError, "nonempty word"),
    "basis-weight": (lambda: pbw_basis(-1, QQ), ValueError, "nonnegative"),
    "classify-descriptor": (lambda: classify_module("d[1]"),
                            TypeError, "Functional or an IntSeriesSpec"),
    "classify-kind": (lambda: classify_module(Functional.from_values(LAUR, {0: 1}, {})),
                      UnsupportedKind, "unsupported for laurent"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_input_check_raises_its_documented_error(name):
    call, exc, fragment = REJECTED[name]
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and fragment in str(info.value)


CLI_REJECTED = {
    "pbw-basis-depth": (["pbw", "--basis"], "pbw --basis needs -n N"),
    "pbw-mode": (["pbw"], "pbw needs --basis N or --straighten WORD"),
    "verma-depth": (["verma", "--dims"], "verma queries need a depth"),
    "verma-phi": (["verma", "--singular", "-n", "2"], "needs -phi FILE"),
    "verma-mode": (["verma", "-n", "2", "-phi", "{phi}"], "verma needs one of"),
    "check-mode": (["check", "-phi", "{phi}"], "check needs --quasifinite or --reducible"),
    "module-offsets": (["module", "-M", "{module}", "--weights"], "--weights needs --offsets"),
    "module-mode": (["module", "-M", "{module}"], "module needs one of"),
    "classify-input": (["classify"], "classify needs -phi FILE or -M FILE"),
}


@pytest.mark.parametrize("name", sorted(CLI_REJECTED))
def test_cli_missing_argument_exits_1(name, tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"d0": {"1": "1"}, "c": {"1": "0"}}))
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"variant": "verma", "functional": {"d0": {"1": "1"}}}))
    argv, fragment = CLI_REJECTED[name]
    code = cli.main([arg.format(phi=phi, module=module) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and fragment in err


def test_public_answers_on_unprobed_inputs():
    # principal products over Q[t] and over a Laurent algebra
    t = POLY.basis_element(1)
    prod = ideal_product(PrincipalIdeal(POLY, t - POLY.one()), PrincipalIdeal(POLY, t))
    assert prod == PrincipalIdeal(POLY, t * t - t)
    s = LAUR.basis_element(1)
    prod = ideal_product(PrincipalIdeal(LAUR, s + LAUR.one()), PrincipalIdeal(LAUR, s - LAUR.one().scale(2)))
    assert prod.contains(s * s - s - LAUR.one().scale(2)) and not prod.contains(s + LAUR.one())
    # the section of a structure-constants quotient
    quotient, qmap = quotient_algebra(QXQ, Ideal(QXQ, [[1, 0]]))
    assert quotient.kind == "structure_constants" and quotient.dim == 1
    assert qmap.lift(quotient.basis_element(0)) == QXQ.basis_element(1)
    assert qmap(qmap.lift(quotient.one())) == quotient.one()
    # zero against principal ideals
    assert PrincipalIdeal(POLY, t).contains(POLY.zero())
    assert not PrincipalIdeal(POLY, POLY.zero()).contains(POLY.one())
    # the zero recurrence holds only on the zero sequence
    assert recurrence.satisfies([0, 0, 0], ())
    assert not recurrence.satisfies([0, 1], ())
    # hashing and the windowed repr
    assert hash(Algebra.polynomial((0, 6))) == hash(POLY)
    assert len({POLY, Algebra.polynomial((0, 6)), LAUR}) == 2
    assert repr(POLY) == "Algebra(polynomial, window=(0, 6))"
    assert repr(LAUR) == "Algebra(laurent, window=(-3, 3))"
    # a first power of a Lie element, and a scalar coefficient of d_n
    assert parse_lie_element("d[1]^1", QQ) == d_term(QQ, 1)
    assert format_lie_element(d_term(DUAL, 2, 3)) == format_lie_element(d_term(DUAL, 2).scale(3))
    assert d_term(DUAL, 2, F(1, 2)) == d_term(DUAL, 2, DUAL.one().scale(F(1, 2)))
    # an irreducible quotient over a structure-constants algebra has no points
    report = annihilator_support(IrreducibleQuotientHandle(
        Functional.from_values(QXQ, {1: 2}, {1: 1})))
    assert report.ideal == Ideal(QXQ, [[1, 0]]) and report.support is None
    assert "no point presentation; support unavailable" in report.notes
