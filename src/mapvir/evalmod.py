"""Evaluation-type modules and windowed weight-multiplicity queries.

Covers the intermediate-series action on Laurent monomials, single point
(generalized) evaluation modules obtained by pushing coefficients through
A -> A/m^n, tensor products of module handles, and the annihilator/support
bookkeeping.  Each handle class answers every query for its own variant
(support bounds, base weight, weight table, annihilator, action and spec);
the module-level functions validate the request and dispatch by class, and
``variant`` survives only as the serialization key.  Tensor handles never
materialize product bases; every tensor query is a convolution of factor
weight tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import polyutil
from .algebra import (
    Algebra,
    AlgebraElement,
    Ideal,
    PrincipalIdeal,
    QuotientMap,
    format_element,
    ideal_closure,
    ideal_intersection,
    ideal_power,
    point_ideal,
    product_local_quotient,
)
from .errors import MissingWindow, UnsupportedKind, WindowOverflow
from .liealg import LieElement, _as_plain_scalar
from .records import FrozenRecord, Record
from .scalars import as_scalar, format_scalar
from .verma import (
    Functional,
    functional_from_spec,
    functional_to_spec,
    largest_v0_ideal,
    check_quasifinite,
    module_dims,
    quotient_dims,
    verma_act,
)


class IntSeriesSpec(FrozenRecord):
    """Twisted action of Vir on Laurent monomials t^k, k in the window.

    d_n sends t^k to (k + a(n+1) + b) t^{n+k}; c acts by zero (the action
    comes from vector fields, which leave no room for a central character).
    The bracket identity d_m d_n - d_n d_m = (n - m) d_{m+n} holds on t^k for
    every a and b: with X = k + a + b both sides are (n - m)(X + a(n + m)).
    """

    __slots__ = ("a", "b", "window")

    def __init__(self, a: Fraction, b: Fraction, window: tuple[int, int]):
        object.__setattr__(self, "a", as_scalar(a))
        object.__setattr__(self, "b", as_scalar(b))
        lo, hi = window
        object.__setattr__(self, "window", (int(lo), int(hi)))
        if self.window[0] > self.window[1]:
            raise ValueError("empty intermediate-series window")

    def coefficient(self, n: int, k: int) -> Fraction:
        return k + self.a * (n + 1) + self.b


def int_series_act(spec: IntSeriesSpec, n: int, k: int) -> tuple[Fraction, int]:
    """Coefficient and target exponent of d_n acting on t^k."""
    lo, hi = spec.window
    if not lo <= k <= hi:
        raise WindowOverflow(f"source exponent {k} outside window [{lo}, {hi}]")
    if not lo <= n + k <= hi:
        raise WindowOverflow(f"target exponent {n + k} outside window [{lo}, {hi}]")
    return spec.coefficient(n, k), n + k


# -- weight tables and annihilator reports ----------------------------------


class WeightTable(Record):
    """Multiplicities of the weights base + offset over an offset window."""

    __slots__ = ("base", "offsets", "mult", "truncated", "notes")

    def __init__(self, base: Fraction, offsets: tuple[int, int], mult: dict[int, int],
                 truncated: bool = False, notes: tuple[str, ...] = ()):
        self.base = base
        self.offsets = offsets
        self.mult = mult
        self.truncated = truncated
        self.notes = notes

    def multiplicity(self, offset: int) -> int:
        return self.mult.get(offset, 0)

    def max_multiplicity(self) -> int:
        return max(self.mult.values(), default=0)

    def to_json_dict(self) -> dict:
        return {"base_weight": format_scalar(self.base),
                "offsets": list(self.offsets),
                "multiplicities": {str(o): self.mult.get(o, 0)
                                   for o in range(self.offsets[0], self.offsets[1] + 1)},
                "window_truncated": self.truncated,
                "notes": list(self.notes)}

    def to_tsv(self) -> str:
        lines = ["offset\tweight\tmultiplicity"]
        for o in range(self.offsets[0], self.offsets[1] + 1):
            lines.append(f"{o}\t{format_scalar(self.base + o)}\t{self.mult.get(o, 0)}")
        return "\n".join(lines)


class AnnihilatorReport(Record):
    """The largest computable annihilating ideal and the support points."""

    __slots__ = ("ideal", "generators", "support", "closure_verified", "notes")

    def __init__(self, ideal: Ideal | PrincipalIdeal | None,
                 generators: list[AlgebraElement] | None = None,
                 support: list[Fraction] | None = None, closure_verified: bool = False,
                 notes: tuple[str, ...] = ()):
        self.ideal = ideal
        self.generators = [] if generators is None else generators
        self.support = support
        self.closure_verified = closure_verified
        self.notes = notes

    def to_json_dict(self) -> dict:
        return {
            "annihilator_generators": [format_element(g) for g in self.generators],
            "support": (None if self.support is None
                        else [format_scalar(p) for p in self.support]),
            "closure_verified": self.closure_verified,
            "notes": list(self.notes),
        }


def _report(ann, support, notes=()) -> AnnihilatorReport:
    return AnnihilatorReport(ann, ann.generators(), support, ann.is_closed(),
                             tuple(notes))


# -- module handles ---------------------------------------------------------


class ModuleHandle:
    """A module over Vir (x) A.  Each subclass answers the queries for its
    variant: support_bounds() gives the (lower, upper) offset bounds of
    possibly nonzero weights (None = unbounded), window_limited() says whether
    weight counts only see a window, and base_weight, weight_table,
    annihilator, act and to_spec back the module-level functions.  The base
    class answers none of them."""

    variant = "?"

    def __init__(self, algebra: Algebra):
        self.algebra = algebra

    def _unsupported(self, *args):
        raise UnsupportedKind(self.variant)

    support_bounds = base_weight = weight_table = annihilator = to_spec = _unsupported

    def window_limited(self) -> bool:
        return False

    def act(self, x: LieElement, v):
        raise UnsupportedKind(f"eval_act is not defined on {self.variant} handles")


class _HighestWeightHandle(ModuleHandle):
    """Verma module of a functional or its irreducible quotient; the two
    differ in where the graded dimensions come from and in the annihilator."""

    def __init__(self, functional: Functional):
        super().__init__(functional.algebra)
        self.functional = functional

    @classmethod
    def from_spec(cls, algebra: Algebra, spec: dict) -> "_HighestWeightHandle":
        return cls(functional_from_spec(algebra, spec["functional"]))

    def to_spec(self) -> dict:
        return {"variant": self.variant,
                "functional": functional_to_spec(self.functional)}

    def support_bounds(self):
        return (None, 0)

    def window_limited(self) -> bool:
        return not self.algebra.is_finite

    def base_weight(self) -> Fraction:
        return self.functional.highest_weight

    def weight_table(self, lo, hi, window) -> WeightTable:
        dims = self._dims(max(0, -lo), window)
        mult = {o: dims[-o] for o in range(lo, min(hi, 0) + 1) if dims[-o]}
        truncated = self.window_limited()
        notes = (("weight spaces counted inside the algebra window only",)
                 if truncated else ())
        return WeightTable(self.functional.highest_weight, (lo, hi), mult,
                           truncated, notes)

    def act(self, x, v):
        return verma_act(x, v)


class VermaHandle(_HighestWeightHandle):
    variant = "verma"

    def _dims(self, max_depth, window):
        return module_dims(self.algebra, max_depth, window=window)

    def annihilator(self) -> AnnihilatorReport:
        # free over the lowering half, so every presentation point supports it
        ann = ideal_closure([self.algebra.zero()])
        support = ann.points()
        notes = [] if support is not None else ["no point presentation; "
                                                "support unavailable"]
        notes.append("Verma modules are free over the lowering half; "
                     "their annihilator is zero")
        return _report(ann, support, notes)


class IrreducibleQuotientHandle(_HighestWeightHandle):
    variant = "irreducible_quotient"

    def _dims(self, max_depth, window):
        return quotient_dims(self.functional, max_depth, window=window)

    def annihilator(self) -> AnnihilatorReport:
        # exactly the largest ideal on which the functional vanishes
        phi = self.functional
        alg = self.algebra
        notes: list[str] = []
        if alg.is_finite:
            ann = largest_v0_ideal(phi)
            support = ann.points()
            if support is None:
                notes.append("no point presentation; support unavailable")
            if ann.is_whole():
                support = []
                notes.append("trivial module: annihilator is the whole algebra")
            return _report(ann, support, notes)
        verdict = check_quasifinite(phi)
        if verdict.certified and verdict.witness is not None:
            ann = verdict.witness
            if polyutil.degree(polyutil.rational_roots(ann.generator_poly())[1]) > 0:
                notes.append("annihilator has irrational factors; support incomplete")
            return _report(ann, ann.points(), notes)
        notes.append("no certified annihilator within the window")
        return AnnihilatorReport(None, [], None, False, tuple(notes))


class IntSeriesEvalHandle(ModuleHandle):
    """Evaluation at the maximal ideal of ``point`` of an intermediate-series
    module, read through the projection of the order-1 ``local_quotient``, so
    points it rejects raise (0 over a Laurent algebra, a non-factor point of a
    product_local one).  For a one-dimensional algebra the evaluation is the
    identity and no point is needed."""

    variant = "int_series_eval"

    def __init__(self, algebra: Algebra, spec: IntSeriesSpec, point=None):
        super().__init__(algebra)
        self.spec = spec
        if algebra.kind in ("product_local", "polynomial", "laurent"):
            if point is None:
                raise ValueError("evaluation over this algebra needs a point")
            self.point = as_scalar(point)
            self.projection = local_quotient(algebra, self.point, 1)[1]
        elif algebra.dim == 1:
            self.point = self.projection = None
        else:
            raise UnsupportedKind(
                "int-series evaluation needs a monomial-based or one-dimensional algebra")

    @classmethod
    def from_spec(cls, algebra: Algebra, spec: dict) -> "IntSeriesEvalHandle":
        iss = IntSeriesSpec(spec["a"], spec["b"], tuple(spec["window"]))
        return cls(algebra, iss, spec.get("point"))

    def to_spec(self) -> dict:
        spec = {"variant": self.variant,
                "a": format_scalar(self.spec.a),
                "b": format_scalar(self.spec.b),
                "window": list(self.spec.window)}
        if self.point is not None:
            spec["point"] = format_scalar(self.point)
        return spec

    def support_bounds(self):
        return self.spec.window

    def window_limited(self) -> bool:
        return True

    def base_weight(self) -> Fraction:
        return self.spec.a + self.spec.b

    def weight_table(self, lo, hi, window) -> WeightTable:
        spec = self.spec
        klo, khi = spec.window
        mult = {o: 1 for o in range(max(lo, klo), min(hi, khi) + 1)}
        truncated = False
        notes: list[str] = []
        if lo < klo or hi > khi:
            truncated = True
            notes.append("offsets outside the module window reported as 0")
        s = spec.a + spec.b
        if s.denominator == 1:
            o0 = -int(s)
            if klo <= o0 <= khi:
                if spec.a == 0:
                    notes.append(f"trivial submodule at offset {o0}")
                elif spec.a == 1:
                    notes.append(f"trivial quotient at offset {o0}")
        return WeightTable(s, (lo, hi), mult, truncated, tuple(notes))

    def annihilator(self) -> AnnihilatorReport:
        if self.point is None:
            return _report(Ideal(self.algebra, []), None,
                           ("one-dimensional algebra: evaluation is the identity",))
        return _report(point_ideal(self.algebra, self.point), [self.point])

    def act(self, x, v):
        self.algebra.require_compatible(x.algebra)
        if self.projection is not None:
            x = project_lie(self.projection, x)
        out: dict[int, Fraction] = {}
        for n, f in x.d_part.items():
            scalar = _as_plain_scalar(f)  # A/m is one-dimensional
            if scalar == 0:
                continue
            for k, cv in v.items():
                if cv == 0:
                    continue
                coeff, target = int_series_act(self.spec, n, k)
                val = scalar * coeff * cv
                if val != 0:
                    out[target] = out.get(target, Fraction(0)) + val
        return {k: c for k, c in out.items() if c != 0}  # c (x) A acts by zero


class GeneralizedEvalHandle(ModuleHandle):
    """Pullback of an inner module along A -> A/(t - point)^order."""

    variant = "generalized_eval"

    def __init__(self, algebra: Algebra, point, order: int, inner: ModuleHandle):
        super().__init__(algebra)
        self.point = as_scalar(point)
        self.order = int(order)
        quotient, projection = local_quotient(algebra, self.point, self.order)
        if not inner.algebra.compatible(quotient):
            raise UnsupportedKind(
                "inner module must live over the order-n local quotient "
                "(build it with local_quotient)")
        self.inner = inner
        self.projection = projection

    @classmethod
    def from_spec(cls, algebra: Algebra, spec: dict) -> "GeneralizedEvalHandle":
        point = as_scalar(spec["point"])
        order = int(spec["order"])
        quotient, _ = local_quotient(algebra, point, order)
        return cls(algebra, point, order, module_from_spec(quotient, spec["inner"]))

    def to_spec(self) -> dict:
        return {"variant": self.variant,
                "point": format_scalar(self.point),
                "order": self.order,
                "inner": module_to_spec(self.inner)}

    def support_bounds(self):
        return self.inner.support_bounds()

    def window_limited(self) -> bool:
        return self.inner.window_limited()

    def base_weight(self) -> Fraction:
        return self.inner.base_weight()

    def weight_table(self, lo, hi, window) -> WeightTable:
        inner = weight_multiplicities(self.inner, (lo, hi), window=window)
        note = (f"pulled back through the order-{self.order} quotient at "
                f"point {format_scalar(self.point)}")
        return WeightTable(inner.base, (lo, hi), inner.mult, inner.truncated,
                           inner.notes + (note,))

    def annihilator(self) -> AnnihilatorReport:
        # the order-th power of the point ideal, plus the lifted inner ideal
        mpow = ideal_power(point_ideal(self.algebra, self.point), self.order)
        gens = mpow.generators() + [self.projection.lift(g) for g in
                                    annihilator_support(self.inner).ideal.generators()]
        ann = ideal_closure(gens) if gens else mpow
        notes = [f"contains the order-{self.order} power of the point ideal"]
        support = [self.point]
        if ann.is_whole():
            support = []
            notes.append("trivial module: annihilator is the whole algebra")
        return _report(ann, support, notes)

    def act(self, x, v):
        self.algebra.require_compatible(x.algebra)
        return self.inner.act(project_lie(self.projection, x), v)


class TensorHandle(ModuleHandle):
    variant = "tensor"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("tensor handle needs at least one factor")
        alg = factors[0].algebra
        for f in factors[1:]:
            alg.require_compatible(f.algebra)
        super().__init__(alg)
        self.factors = factors

    @classmethod
    def from_spec(cls, algebra: Algebra, spec: dict) -> "TensorHandle":
        return cls([module_from_spec(algebra, f) for f in spec["factors"]])

    def to_spec(self) -> dict:
        return {"variant": self.variant,
                "factors": [module_to_spec(f) for f in self.factors]}

    def support_bounds(self):
        los, his = zip(*(f.support_bounds() for f in self.factors))
        lo = None if any(l is None for l in los) else sum(los)
        hi = None if any(h is None for h in his) else sum(his)
        return (lo, hi)

    def window_limited(self) -> bool:
        return any(f.window_limited() for f in self.factors)

    def base_weight(self) -> Fraction:
        return sum((f.base_weight() for f in self.factors), Fraction(0))

    def weight_table(self, lo, hi, window) -> WeightTable:
        # Every factor is bounded above (Verma by 0, intermediate series by
        # its window), so each one only needs a finite offset range for an
        # exact convolution over [lo, hi].
        tables = []
        bounds = [f.support_bounds() for f in self.factors]
        if any(b[1] is None for b in bounds):
            raise UnsupportedKind("tensor factor with weights unbounded above")
        for i, f in enumerate(self.factors):
            others_hi = sum(b[1] for j, b in enumerate(bounds) if j != i)
            range_lo, range_hi = lo - others_hi, bounds[i][1]
            if bounds[i][0] is not None:
                range_lo = max(range_lo, bounds[i][0])
            if range_lo > range_hi:
                tables.append(WeightTable(f.base_weight(), (0, 0), {}))
                continue
            tables.append(weight_multiplicities(f, (range_lo, range_hi),
                                                window=window))
        mult: dict[int, int] = {}
        for combo in itertools.product(*[t.mult.items() for t in tables]):
            off = sum(o for o, _ in combo)
            if lo <= off <= hi:
                m = 1
                for _, mm in combo:
                    m *= mm
                mult[off] = mult.get(off, 0) + m
        truncated = self.window_limited()
        notes = ("tensor counts are window-limited lower bounds",) if truncated else ()
        return WeightTable(self.base_weight(), (lo, hi), mult, truncated, notes)

    def annihilator(self) -> AnnihilatorReport:
        # the intersection of the factors' ideals; the factors share one
        # algebra, hence one flavor, so only an uncertified factor has none
        reports = [annihilator_support(f) for f in self.factors]
        supports = [r.support for r in reports]
        support = None if None in supports else sorted(set().union(*supports))
        intersection = ("intersection of factor annihilators "
                        "(exact when supports are disjoint)")
        if any(r.ideal is None for r in reports):
            return AnnihilatorReport(None, [], support, False, (
                "mixed factor annihilators; no common ideal computed", intersection))
        ann = reports[0].ideal
        for r in reports[1:]:
            ann = ideal_intersection(ann, r.ideal)
        return _report(ann, support, (intersection,))


_HANDLE_CLASSES = {cls.variant: cls for cls in (
    VermaHandle, IrreducibleQuotientHandle, IntSeriesEvalHandle,
    GeneralizedEvalHandle, TensorHandle)}


def local_quotient(algebra: Algebra, point, order: int) -> tuple[Algebra, QuotientMap]:
    """The local quotient A/(t - point)^order with its projection map.

    The quotient is presented as the product_local algebra with a single
    factor, so its labels are 1, t, ..., t^{order-1}.
    """
    point = as_scalar(point)
    order = int(order)
    if order < 1:
        raise ValueError("order must be positive")
    if algebra.kind == "product_local":
        match = next((o for p, o in algebra.factors if p == point), None)
        if match is None or match < order:
            raise ValueError(
                "the presentation has no factor dominating this point/order")
    elif algebra.kind == "laurent" and point == 0:
        raise ValueError("t is not invertible at the point 0")
    elif algebra.kind not in ("polynomial", "laurent"):
        raise UnsupportedKind("local quotients need a monomial-based algebra")
    return product_local_quotient(algebra, [(point, order)])


def project_lie(projection: QuotientMap, x: LieElement) -> LieElement:
    """Push a Lie element through a coefficient-algebra projection."""
    d = {n: projection(f) for n, f in x.d_part.items()}
    return LieElement(projection.quotient, d, projection(x.c_part))


# -- queries ----------------------------------------------------------------


def eval_act(handle: ModuleHandle, x: LieElement, v):
    """Act on a module vector after reducing coefficients through the point.

    For ``int_series_eval`` vectors are {exponent: coefficient} maps; for
    ``generalized_eval`` the vector type is the inner module's (a VermaVector
    for an inner Verma, whose action returns homogeneous pieces).
    """
    return handle.act(x, v)


def weight_multiplicities(handle: ModuleHandle, offsets, window=None) -> WeightTable:
    """Exact multiplicity table over the requested offsets.

    Tensor tables are convolutions of factor tables; whenever a factor is
    window-limited (intermediate series, or Verma over an infinite algebra),
    the counts are lower bounds and the table is flagged window-truncated.
    """
    if offsets is None:
        raise MissingWindow("weight_multiplicities needs an offsets interval")
    lo, hi = int(offsets[0]), int(offsets[1])
    if lo > hi:
        raise ValueError("empty offsets interval")
    return handle.weight_table(lo, hi, window)


def annihilator_support(handle: ModuleHandle) -> AnnihilatorReport:
    """Largest representable ideal annihilating the module, and its support.

    Verma modules are free over the lowering half, so their annihilator is
    zero and every presentation point supports them.  Irreducible quotients
    annihilate exactly the largest ideal on which the functional vanishes.
    Evaluation handles annihilate their defining ideal by construction.
    Tensor annihilators are reported as the intersection of the factors'.
    """
    return handle.annihilator()


# -- serialization ----------------------------------------------------------


def module_to_spec(handle: ModuleHandle) -> dict:
    return handle.to_spec()


def module_from_spec(algebra: Algebra, spec: dict) -> ModuleHandle:
    cls = _HANDLE_CLASSES.get(spec.get("variant"))
    if cls is None:
        raise ValueError(f"unknown module variant {spec.get('variant')!r}")
    return cls.from_spec(algebra, spec)
