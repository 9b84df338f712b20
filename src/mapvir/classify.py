"""Classification drivers: canonical forms and windowed shape profiles.

Highest and lowest weight functionals are decided through the quasifiniteness
check and the CRT splitting: a certified witness ideal localizes the
functional at finitely many points, each contributing one generalized
evaluation component whose order is the smallest power of the point ideal the
piece kills.  Intermediate-series descriptors echo their single point.  Shape
profiles only report what a finite weight-table window can support; a window
can falsify boundedness but never prove it, so profiles carry their window.
"""

from __future__ import annotations

from . import polyutil
from .algebra import Algebra, crt_idempotents, format_element, split_quotient
from .errors import UnsupportedKind
from .evalmod import IntSeriesSpec, ModuleHandle, weight_multiplicities
from .liealg import CONVENTION_NOTE
from .records import Record
from .scalars import as_scalar, format_scalar
from .verma import (
    Functional,
    _local_pieces,
    _piece_on,
    _pull_back,
    _reduced_order,
    check_quasifinite,
    functional_to_spec,
)

def involute_functional(phi: Functional) -> Functional:
    """Pull back along d_n -> -d_{-n}, c -> -c (restricted to V_0: negation).

    This is the translation between highest and lowest weight data.
    """
    return phi.negate()


class Component(Record):
    """One tensor factor: a generalized evaluation module at a single point.
    ``functional`` lives over the local quotient; ``phi_piece`` is the CRT
    summand over A."""

    __slots__ = ("point", "order", "functional", "phi_piece", "int_series")
    _defaults = {"functional": None, "phi_piece": None, "int_series": None}

    def to_json_dict(self) -> dict:
        out: dict = {"point": None if self.point is None
                     else format_scalar(self.point),
                     "order": self.order}
        if self.functional is not None:
            out["functional"] = functional_to_spec(self.functional)
        if self.int_series is not None:
            out["a"] = format_scalar(self.int_series[0])
            out["b"] = format_scalar(self.int_series[1])
        return out


class ClassificationRecord(Record):
    __slots__ = ("verdict", "components", "notes", "witness", "idempotents")
    _defaults = {"components": list, "notes": dict, "witness": None, "idempotents": list}

    def to_json_dict(self, explain: bool = False) -> dict:
        out = {"verdict": self.verdict,
               "components": [c.to_json_dict() for c in self.components],
               "notes": dict(self.notes)}
        if explain:
            out["witness"] = None if self.witness is None else repr(self.witness)
            out["idempotents"] = [format_element(e) for e in self.idempotents]
        return out


def classify_module(descriptor, *, point=None, lowest: bool = False,
                    bound: int | None = None,
                    assume_exact: bool = False) -> ClassificationRecord:
    """Canonical form of a highest/lowest weight functional or an
    intermediate-series descriptor.

    Functionals over product_local algebras always split.  A polynomial
    functional with a certified quasifiniteness witness J splits when J's
    generator splits into rational points: it is then pulled back to the
    product_local ``split_quotient`` A/J (``verma._pull_back``).  Otherwise
    it stays undetermined and no quotient is built (or it is reported not
    quasifinite under caller-asserted exactness).  The split forms no
    product in A; its idempotents come certified from ``crt_idempotents``.
    """
    if isinstance(descriptor, IntSeriesSpec):
        comp = Component(point=None if point is None else as_scalar(point),
                         order=1,
                         int_series=(descriptor.a, descriptor.b))
        return ClassificationRecord(
            "int_series_single_point", [comp],
            notes={"convention": CONVENTION_NOTE,
                   "window": list(descriptor.window)})
    if not isinstance(descriptor, Functional):
        raise TypeError("descriptor must be a Functional or an IntSeriesSpec")

    phi = descriptor
    if lowest:
        record = _classify_highest(involute_functional(phi), bound, assume_exact)
        record.verdict = record.verdict.replace("hw_", "lw_")
        for comp in record.components:
            if comp.functional is not None:
                comp.functional = involute_functional(comp.functional)
            if comp.phi_piece is not None:
                comp.phi_piece = involute_functional(comp.phi_piece)
        record.notes["weight_side"] = "lowest (translated through the involution)"
        return record
    record = _classify_highest(phi, bound, assume_exact)
    record.notes["weight_side"] = "highest"
    return record


def _classify_highest(phi: Functional, bound, assume_exact) -> ClassificationRecord:
    alg = phi.algebra
    notes = {"convention": CONVENTION_NOTE}
    if alg.kind == "product_local":
        return _split_product_local(phi, notes)
    if alg.kind == "structure_constants":
        raise UnsupportedKind(
            "structure-constants algebras carry no point presentation; "
            "classification needs product_local or polynomial input")
    if alg.kind != "polynomial":
        raise UnsupportedKind(f"classification unsupported for {alg.kind} kind")

    verdict = check_quasifinite(phi, bound=bound, assume_exact=assume_exact)
    notes["bound"] = bound if bound is not None else phi.declared_max
    if not verdict.certified:
        if assume_exact:
            return ClassificationRecord("not_quasifinite", notes={
                **notes, "reason": verdict.note})
        return ClassificationRecord("undetermined_at_bound", notes={
            **notes, "reason": verdict.note})
    witness = verdict.witness
    if witness.is_whole():
        # phi vanishes identically: the trivial module, an empty tensor product
        return ClassificationRecord("hw_tensor_of_generalized_evals", [],
                                    notes={**notes, "trivial": True},
                                    witness=witness)
    gen = polyutil.pstr(witness.generator_poly())
    split = split_quotient(alg, witness.generator_poly())
    if split is None:
        return ClassificationRecord("undetermined_at_bound", notes={
            **notes, "reason": "witness ideal does not split into rational points",
            "witness": gen}, witness=witness)
    record = _split_product_local(_pull_back(phi, *split), notes)
    record.witness = witness
    record.notes["witness"] = gen
    return record


def _split_product_local(phi: Functional, notes: dict) -> ClassificationRecord:
    """One component per nonzero CRT piece, of order its ``_reduced_order``
    N, with its functional on Q[t]/(t - a)^N and over A by ``_piece_on``."""
    alg = phi.algebra
    components = []
    dropped = 0
    for a, lam, kappa in _local_pieces(phi):
        order = _reduced_order(lam, kappa)
        if not order:
            dropped += 1
            continue
        local = _piece_on(Algebra.product_local([(a, order)]), a, lam, kappa)
        components.append(Component(point=a, order=order, functional=local,
                                    phi_piece=_piece_on(alg, a, lam, kappa)))
    record = ClassificationRecord("hw_tensor_of_generalized_evals", components,
                                  notes=dict(notes),
                                  idempotents=[alg.from_poly(e) for e in crt_idempotents(alg)])
    if dropped:
        record.notes["dropped_zero_components"] = dropped
    if not components:
        record.notes["trivial"] = True
    return record


# -- trichotomy profiling ----------------------------------------------------


class TrichotomyProfile(Record):
    """Sampled weight-table shape over an offset window; ``shape`` is
    "bounded", "truncated_above", "truncated_below" or "unbounded_both"."""

    __slots__ = ("shape", "bound", "table", "window_truncated")

    def to_json_dict(self) -> dict:
        return {"shape": self.shape,
                "bound": self.bound,
                "window_truncated": self.window_truncated,
                "table": self.table.to_json_dict()}


def trichotomy_profile(handle: ModuleHandle, offsets=(-8, 8)) -> TrichotomyProfile:
    """Classify the sampled table: truncated above/below, or bounded.

    A table whose support spans the whole window and whose maximum sits at a
    window edge is reported unbounded_both (growth cut off by the window);
    boundedness claims always carry the window-truncated flag of the table.
    """
    table = weight_multiplicities(handle, offsets)
    lo, hi = table.offsets
    support = sorted(o for o, m in table.mult.items() if m > 0)
    if not support:
        return TrichotomyProfile("bounded", 0, table, table.truncated)
    top, bot = support[-1], support[0]
    peak = table.max_multiplicity()
    if top < hi and bot == lo:
        return TrichotomyProfile("truncated_above", None, table, table.truncated)
    if bot > lo and top == hi:
        return TrichotomyProfile("truncated_below", None, table, table.truncated)
    if bot > lo and top < hi:
        return TrichotomyProfile("bounded", peak, table, table.truncated)
    edge_peak = (table.multiplicity(lo) == peak or table.multiplicity(hi) == peak)
    if edge_peak and peak > 1:
        return TrichotomyProfile("unbounded_both", peak, table, True)
    return TrichotomyProfile("bounded", peak, table, table.truncated)
