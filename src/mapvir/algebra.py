"""Finitely generated commutative coefficient algebras over exact rationals.

Four kinds of algebra are supported:

* ``structure_constants`` -- finite dimension, explicit multiplication tensor;
* ``product_local`` -- Q[t]/((t-a_1)^{n_1} ... (t-a_r)^{n_r}) with distinct
  points, realized on the monomial basis 1, t, ..., t^{dim-1};
* ``polynomial`` -- Q[t] restricted to a degree window [0, D];
* ``laurent`` -- Q[t, 1/t] restricted to an exponent window [lo, hi].

The two infinite kinds never truncate silently: any product whose exponents
leave the window raises WindowOverflow.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from types import MappingProxyType

from . import polyutil
from .errors import (
    AlgebraMismatch,
    ImproperIdeal,
    InfiniteDimensionalAlgebra,
    UnsupportedKind,
    WindowOverflow,
)
from .records import FrozenRecord
from .scalars import as_scalar, format_scalar, join_signed, signed_term

FINITE_KINDS = ("structure_constants", "product_local")
MONOMIAL_KINDS = ("product_local", "polynomial", "laurent")


class Algebra:
    """A coefficient algebra.  Immutable after construction."""

    __slots__ = ("kind", "dim", "basis_labels", "factors", "window",
                 "_tensor", "_unit", "_unit_color", "_modulus", "_int_modulus", "_signature",
                 "_caches")

    def __init__(self, *, kind, dim=None, basis_labels=None, factors=None,
                 window=None, tensor=None, unit=None, unit_color=(0, 1, 1), modulus=None):
        self.kind = kind
        self.dim = dim
        self.basis_labels = basis_labels
        self.factors = factors
        self.window = window
        self._tensor = tensor
        self._unit = unit
        # (b, p, q) with e_b = p/q 1, q > 0; b is None when no basis element
        # is a multiple of the unit.  Monomial kinds have e_0 = t^0 = 1.
        self._unit_color = unit_color
        # a product_local modulus comes in integers and is also kept monic
        self._int_modulus = modulus
        self._modulus = None if modulus is None else tuple(
            [Fraction(x, modulus[-1]) for x in modulus])
        if kind == "structure_constants":
            sig = (kind, dim, basis_labels, tensor, unit)
        elif kind == "product_local":
            sig = (kind, factors)
        else:
            sig = (kind, window)
        self._signature = sig
        self._caches: dict = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def rationals(cls) -> "Algebra":
        """The one-dimensional algebra Q (so Vir (x) Q is the plain Virasoro algebra)."""
        one = Fraction(1)
        tensor = (((one,),),)
        return cls(kind="structure_constants", dim=1, basis_labels=("1",),
                   tensor=tensor, unit=(one,))

    @classmethod
    def structure_constants(cls, tensor, unit, labels=None, validate=True) -> "Algebra":
        """Finite-dimensional algebra from e_i e_j = sum_k tensor[i][j][k] e_k."""
        tens = tuple(tuple(tuple(as_scalar(c) for c in vec) for vec in row)
                     for row in tensor)
        dim = len(tens)
        for row in tens:
            if len(row) != dim or any(len(vec) != dim for vec in row):
                raise ValueError("structure tensor must be dim x dim x dim")
        unit_vec = tuple(as_scalar(c) for c in unit)
        if len(unit_vec) != dim:
            raise ValueError("unit vector has wrong length")
        if labels is None:
            labels = tuple(f"e{i}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("wrong number of basis labels")
        support = [i for i, x in enumerate(unit_vec) if x]
        u = unit_vec[support[0]] if len(support) == 1 else None  # 1 = u e_b
        unit_color = (None, 1, 1) if u is None else (
            support[0], u.denominator if u > 0 else -u.denominator, abs(u.numerator))
        alg = cls(kind="structure_constants", dim=dim, basis_labels=labels,
                  tensor=tens, unit=unit_vec, unit_color=unit_color)
        if validate:
            alg._validate_axioms()
        return alg

    @classmethod
    def product_local(cls, factors) -> "Algebra":
        """Q[t] modulo the product of (t - point)^order over the given factors.
        The modulus is formed in integers, as the product of (v t - u)^order
        over the points u/v, and made monic once."""
        facs = tuple((as_scalar(p), int(n)) for p, n in
                     (((f["point"], f["order"]) if isinstance(f, dict) else f)
                      for f in factors))
        if not facs:
            raise ValueError("product_local algebra needs at least one factor")
        pts = [p for p, _ in facs]
        if len(set(pts)) != len(pts):
            raise ValueError("product_local points must be pairwise distinct")
        if any(n < 1 for _, n in facs):
            raise ValueError("factor orders must be positive")
        num = [1]
        for p, n in facs:
            for _ in range(n):
                num = polyutil.times_linear(num, p.numerator, p.denominator)
        dim = len(num) - 1
        labels = tuple(_exponent_label(k) for k in range(dim))
        return cls(kind="product_local", dim=dim, basis_labels=labels,
                   factors=facs, modulus=num)

    @classmethod
    def polynomial(cls, window) -> "Algebra":
        lo, hi = int(window[0]), int(window[1])
        if lo != 0:
            raise ValueError("polynomial window must start at 0")
        if hi < lo:
            raise ValueError("empty window")
        return cls(kind="polynomial", window=(lo, hi))

    @classmethod
    def laurent(cls, window) -> "Algebra":
        lo, hi = int(window[0]), int(window[1])
        if not (lo <= 0 <= hi):
            raise ValueError("laurent window must contain exponent 0")
        return cls(kind="laurent", window=(lo, hi))

    # -- structure ----------------------------------------------------------

    @property
    def signature(self):
        return self._signature

    @property
    def is_finite(self) -> bool:
        return self.kind in FINITE_KINDS

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self._signature == other._signature

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        if self.kind == "product_local":
            facs = ", ".join(f"({format_scalar(p)})^{n}" for p, n in self.factors)
            return f"Algebra(product_local: {facs})"
        if self.kind == "structure_constants":
            return f"Algebra(structure_constants, dim={self.dim})"
        return f"Algebra({self.kind}, window={self.window})"

    def compatible(self, other: "Algebra") -> bool:
        return self._signature == other._signature

    def require_compatible(self, other: "Algebra"):
        if not self.compatible(other):
            raise AlgebraMismatch(f"{self!r} vs {other!r}")

    def _validate_axioms(self):
        dim = self.dim
        for i in range(dim):
            for j in range(i):
                if self._tensor[i][j] != self._tensor[j][i]:
                    raise ValueError(f"structure tensor not commutative at ({i},{j})")
        one = self.one()
        for i in range(dim):
            ei = self.basis_element(i)
            if one * ei != ei:
                raise ValueError(f"unit law fails on basis element {i}")
        for i in range(dim):
            for j in range(i + 1):
                eij = self.basis_element(i) * self.basis_element(j)
                for k in range(dim):
                    ek = self.basis_element(k)
                    if eij * ek != self.basis_element(i) * (self.basis_element(j) * ek):
                        raise ValueError(
                            f"structure tensor not associative at ({i},{j},{k})")

    # -- indices, labels, windows -------------------------------------------

    def basis_indices(self) -> range:
        """Valid coordinate indices; finite kinds only."""
        if not self.is_finite:
            raise InfiniteDimensionalAlgebra(
                f"{self.kind} algebra has no finite basis; use the window")
        return range(self.dim)

    def window_indices(self, window=None, factors: int = 1) -> range:
        """The basis indices of a finite kind; otherwise the exponents of
        ``window`` (default the algebra window).  A caller multiplying up to
        ``factors`` colors of the window [lo, hi] reaches the exponents
        [min(lo, factors * lo), max(hi, factors * hi)], which must lie inside
        the algebra window, so an overflow is raised before any product."""
        if self.is_finite:
            return range(self.dim)
        lo, hi = self.window if window is None else window
        reach = min(lo, factors * lo), max(hi, factors * hi)
        if reach[0] < self.window[0] or reach[1] > self.window[1]:
            products = f" (products of {factors} colors)" if factors > 1 else ""
            raise WindowOverflow(f"color window [{lo}, {hi}]{products} reaches "
                                 f"[{reach[0]}, {reach[1]}], outside window "
                                 f"[{self.window[0]}, {self.window[1]}]")
        return range(lo, hi + 1)

    def check_index(self, i: int):
        if self.is_finite:
            if not 0 <= i < self.dim:
                raise ValueError(f"basis index {i} out of range for {self!r}")
        else:
            lo, hi = self.window
            if not lo <= i <= hi:
                raise WindowOverflow(
                    f"exponent {i} outside window [{lo}, {hi}]")

    def label(self, i: int) -> str:
        if self.kind in ("polynomial", "laurent"):
            return _exponent_label(i)
        return self.basis_labels[i]

    def index_of_label(self, label: str) -> int:
        if self.kind in ("polynomial", "laurent"):
            k = _exponent_from_label(label)
            self.check_index(k)
            return k
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown basis label {label!r} for {self!r}") from None

    # -- elements -----------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        if self.kind == "structure_constants":
            return AlgebraElement(self, {i: c for i, c in enumerate(self._unit)})
        return AlgebraElement(self, {0: Fraction(1)})

    def basis_element(self, i: int) -> "AlgebraElement":
        self.check_index(i)
        return AlgebraElement(self, {i: Fraction(1)})

    def from_poly(self, coeffs: Sequence[Fraction]) -> "AlgebraElement":
        """Element from dense polynomial coefficients (monomial kinds only)."""
        if self.kind == "product_local":
            num, den = polyutil.cleared([Fraction(x) for x in coeffs])
            return AlgebraElement(self, self._reduced(num, den))
        if self.kind in ("polynomial", "laurent"):
            return AlgebraElement(self, {k: c for k, c in enumerate(coeffs)})
        raise UnsupportedKind("from_poly needs a monomial-based algebra")

    def _mul_coeffs(self, a: dict, b: dict) -> dict:
        out: dict = {}
        if self.kind == "structure_constants":
            for i, ca in a.items():
                row = self._tensor[i]
                for j, cb in b.items():
                    f = ca * cb
                    for k, s in enumerate(row[j]):
                        if s:
                            out[k] = out.get(k, Fraction(0)) + f * s
        elif self.kind == "product_local":
            if not a or not b:
                return {}
            na, da = polyutil.cleared(list(a.values()))
            nb, db = polyutil.cleared(list(b.values()))
            b_terms = list(zip(b, nb))
            dense = [0] * (max(a) + max(b) + 1)
            for i, x in zip(a, na):
                for j, y in b_terms:
                    dense[i + j] += x * y
            return self._reduced(dense, da * db)
        else:
            lo, hi = self.window
            for i, ca in a.items():
                for j, cb in b.items():
                    k = i + j
                    if not lo <= k <= hi:
                        raise WindowOverflow(
                            f"product exponent {k} outside window [{lo}, {hi}]")
                    out[k] = out.get(k, Fraction(0)) + ca * cb
        return {k: v for k, v in out.items() if v != 0}

    def _reduced(self, num: list[int], den: int) -> dict:
        """The terms of (num / den) mod the modulus, num dense integer
        coefficients: one pseudo-remainder by the integer modulus, then one
        Fraction per nonzero coefficient."""
        rem, scale = polyutil.pseudo_rem(num, self._int_modulus)
        den *= scale
        return {k: Fraction(x, den) for k, x in enumerate(rem) if x}

    def product_terms(self, i: int, j: int) -> tuple:
        """e_i e_j as cached (index, numerator, denominator) triples of ints:
        plain data, so the cache holds no reference back to the algebra.  A
        structure-constants product is read straight off the tensor."""
        cache = self._caches.setdefault("basis_product", {})
        key = (i, j) if i <= j else (j, i)
        hit = cache.get(key)
        if hit is None:
            if self.kind == "structure_constants":
                self.check_index(i)
                self.check_index(j)
                prod = enumerate(self._tensor[key[0]][key[1]])
            else:
                prod = (self.basis_element(i) * self.basis_element(j))._terms.items()
            hit = cache[key] = tuple((k, c.numerator, c.denominator) for k, c in prod if c)
        return hit

    def basis_product(self, i: int, j: int) -> "AlgebraElement":
        return AlgebraElement(self, {k: Fraction(n, d)
                                     for k, n, d in self.product_terms(i, j)})


class _Vector:
    """A sparse ``{key: coefficient}`` vector over an algebra: the arithmetic
    ``AlgebraElement`` and ``pbw.EnvElement`` (Fraction coefficients) and
    ``liealg.LieElement`` (AlgebraElement coefficients) share.  ``_terms``
    holds only nonzero coefficients, and every result is built by
    ``_like(terms)``, whose constructor drops the zeros.  An operand of
    another class gets NotImplemented, so mixed sums raise TypeError and
    mixed comparisons are False."""

    __slots__ = ("algebra", "_terms")

    def _like(self, terms):
        return type(self)(self.algebra, terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self.algebra.require_compatible(other.algebra)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = as_scalar(s)
        return self._like({k: s * c for k, c in self._terms.items()})

    def __mul__(self, s):
        if isinstance(s, (int, Fraction)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra.signature, frozenset(self._terms.items())))


class AlgebraElement(_Vector):
    """A sparse vector over an algebra's basis (or exponent window); its
    linear arithmetic is ``_Vector``'s, and ``*`` of two elements is the
    algebra product."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, coeffs):
        clean = {}
        for i, c in dict(coeffs).items():
            c = as_scalar(c)
            if c != 0:
                algebra.check_index(i)
                clean[int(i)] = c
        self.algebra = algebra
        self._terms = clean

    @property
    def coeffs(self):
        return MappingProxyType(self._terms)

    def coeff(self, i: int) -> Fraction:
        return self._terms.get(i, Fraction(0))

    def support(self) -> list[int]:
        return sorted(self._terms)

    def items(self):
        return sorted(self._terms.items())

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self.algebra.require_compatible(other.algebra)
            return AlgebraElement(self.algebra,
                                  self.algebra._mul_coeffs(self._terms, other._terms))
        return super().__mul__(other)

    def to_vector(self) -> list[Fraction]:
        """Dense coordinates over the basis (finite) or window (infinite)."""
        idx = list(self.algebra.window_indices())
        pos = {k: n for n, k in enumerate(idx)}
        vec = [Fraction(0)] * len(idx)
        for i, c in self._terms.items():
            vec[pos[i]] = c
        return vec

    def as_poly(self) -> polyutil.Poly:
        """Dense polynomial coefficients; nonnegative exponents only."""
        if self.algebra.kind not in MONOMIAL_KINDS:
            raise UnsupportedKind("as_poly needs a monomial-based algebra")
        if self._terms and min(self._terms) < 0:
            raise ValueError("element has negative exponents")
        dense = [Fraction(0)] * (max(self._terms) + 1 if self._terms else 0)
        for k, c in self._terms.items():
            dense[k] = c
        return polyutil.trim(dense)

    def __repr__(self):
        return f"<{format_element(self)}>"


def _exponent_label(k: int) -> str:
    if k == 0:
        return "1"
    if k == 1:
        return "t"
    return f"t^{k}"


def _exponent_from_label(label: str) -> int:
    label = label.strip()
    if label == "1":
        return 0
    if label == "t":
        return 1
    if label.startswith("t^"):
        return int(label[2:])
    raise ValueError(f"bad monomial label {label!r}")


def format_element(x: AlgebraElement) -> str:
    """Render an element, e.g. "t^2 - 2*t + 1" or "3*e0 + 1/2*e1"."""
    monomial = x.algebra.kind in MONOMIAL_KINDS
    keys = sorted(x._terms, reverse=True) if monomial else sorted(x._terms)
    return join_signed(signed_term(x._terms[i], x.algebra.label(i)) for i in keys)


# -- ideals -----------------------------------------------------------------


class _IdealInterface:
    """What both flavors of ideal answer: generators(), points() (the
    presentation points whose maximal ideal contains the ideal, or None
    when there is no point presentation), is_closed(), and str(), the
    "(g1, g2)" / "(0)" witness form."""

    __slots__ = ()

    def __str__(self):
        return "(" + (", ".join(map(format_element, self.generators())) or "0") + ")"

    def __repr__(self):
        return type(self).__name__ + str(self)


class Ideal(_IdealInterface):
    """An ideal of a finite-dimensional algebra, stored as an RREF basis.

    The rows need not span a product-closed subspace; is_closed() says
    whether they do."""

    __slots__ = ("algebra", "rows", "pivots")

    def __init__(self, algebra: Algebra, rows):
        if not algebra.is_finite:
            raise InfiniteDimensionalAlgebra(
                "basis-matrix ideals need a finite-dimensional algebra")
        from . import linalg  # on first use: most processes never build an Ideal

        red, piv = linalg.rref([list(r) for r in rows])
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in red)
        self.pivots = tuple(piv)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_whole(self) -> bool:
        return self.dim == self.algebra.dim

    def contains(self, x: AlgebraElement) -> bool:
        return self.reduce(x).is_zero()

    def reduce(self, x: AlgebraElement) -> AlgebraElement:
        """The residual of x modulo the rows: each pivot coordinate is
        cleared by its RREF row, which has 0 at every other pivot."""
        self.algebra.require_compatible(x.algebra)
        res = x.to_vector()
        for row, p in zip(self.rows, self.pivots):
            f = res[p]
            if f:
                res = [a - f * b for a, b in zip(res, row)]
        return AlgebraElement(self.algebra, dict(enumerate(res)))

    def basis_elements(self) -> list[AlgebraElement]:
        return [AlgebraElement(self.algebra, {i: c for i, c in enumerate(r)})
                for r in self.rows]

    generators = basis_elements

    def points(self) -> list[Fraction] | None:
        # on the monomial basis a row is a polynomial; (t - p) contains it
        # exactly when it vanishes at p, since (t - p) divides the modulus
        if self.algebra.kind != "product_local":
            return None
        return [p for p, _ in self.algebra.factors
                if all(polyutil.peval(r, p) == 0 for r in self.rows)]

    def is_closed(self) -> bool:
        return all(self.contains(b * self.algebra.basis_element(j))
                   for b in self.basis_elements() for j in self.algebra.basis_indices())

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and self.rows == other.rows

    def __hash__(self):
        return hash((self.algebra.signature, self.rows))


class PrincipalIdeal(_IdealInterface):
    """An ideal of a polynomial/Laurent algebra given by one generator.

    The generator is normalized: monic, and (for Laurent algebras) shifted so
    its lowest exponent is 0.  Q[t] and Q[t, 1/t] are principal ideal domains,
    so this loses no generality.
    """

    __slots__ = ("algebra", "generator")

    def __init__(self, algebra: Algebra, generator: AlgebraElement):
        if algebra.kind not in ("polynomial", "laurent"):
            raise UnsupportedKind("principal-ideal records are for polynomial/laurent kinds")
        algebra.require_compatible(generator.algebra)
        self.algebra = algebra
        self.generator = _normalize_generator(generator)

    def is_zero(self) -> bool:
        return self.generator.is_zero()

    def is_whole(self) -> bool:
        p = self.generator.as_poly()
        return len(p) == 1

    def generator_poly(self) -> polyutil.Poly:
        return self.generator.as_poly()

    def generators(self) -> list[AlgebraElement]:
        return [] if self.is_zero() else [self.generator]

    def points(self) -> list[Fraction] | None:
        # the zero ideal lies in the maximal ideal of every point of Q
        if self.is_zero():
            return None
        return [r for r, _ in polyutil.rational_roots(self.generator_poly())[0]]

    def is_closed(self) -> bool:
        return True  # generated as an ideal by construction

    def contains(self, x: AlgebraElement) -> bool:
        self.algebra.require_compatible(x.algebra)
        if x.is_zero():
            return True
        if self.is_zero():
            return False
        # In the Laurent algebra t is a unit, so x may be shifted to
        # nonnegative exponents; in Q[t] it may not.
        shift = min(x.support()) if self.algebra.kind == "laurent" else 0
        dense = [Fraction(0)] * (max(x.support()) - shift + 1)
        for k, c in x.coeffs.items():
            dense[k - shift] = c
        return not polyutil.pmod(polyutil.trim(dense), self.generator_poly())

    def __eq__(self, other):
        if not isinstance(other, PrincipalIdeal):
            return NotImplemented
        return (self.algebra.compatible(other.algebra)
                and self.generator == other.generator)

    def __hash__(self):
        return hash((self.algebra.signature, self.generator))


def _normalize_generator(g: AlgebraElement) -> AlgebraElement:
    if g.is_zero():
        return g
    shift = min(g.support()) if g.algebra.kind == "laurent" else 0
    lead = g.coeff(max(g.support()))
    return AlgebraElement(g.algebra,
                          {k - shift: c / lead for k, c in g.coeffs.items()})


def ideal_closure(gens: Sequence[AlgebraElement]):
    """Smallest ideal containing the generators.

    Finite-dimensional algebras get an RREF basis; polynomial/Laurent algebras
    get a principal-ideal record (the gcd of the generators).  On finite kinds
    one step suffices: A is commutative and unital, so each g A is already an
    ideal containing g, and the span of all g e_j is their sum.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("ideal_closure needs at least one generator")
    alg = gens[0].algebra
    for g in gens[1:]:
        alg.require_compatible(g.algebra)
    if alg.kind in ("polynomial", "laurent"):
        g: polyutil.Poly = ()
        for x in gens:
            g = polyutil.pgcd(g, _normalize_generator(x).as_poly())
        return PrincipalIdeal(alg, alg.from_poly(g))
    return Ideal(alg, [(g * alg.basis_element(j)).to_vector()
                       for g in gens for j in alg.basis_indices()])


def ideal_product(i1, i2):
    """Ideal spanned by pairwise products of the two bases; their span is
    already an ideal, since (ab)x = a(bx) with bx in the second ideal."""
    if isinstance(i1, PrincipalIdeal) and isinstance(i2, PrincipalIdeal):
        i1.algebra.require_compatible(i2.algebra)
        return PrincipalIdeal(i1.algebra, i1.generator * i2.generator)
    if not isinstance(i1, Ideal) or not isinstance(i2, Ideal):
        raise TypeError("ideal_product needs two ideals of the same flavor")
    i1.algebra.require_compatible(i2.algebra)
    return Ideal(i1.algebra, [(a * b).to_vector() for a in i1.basis_elements()
                              for b in i2.basis_elements()])


def ideal_power(ideal, n: int):
    if n < 1:
        raise ValueError("ideal_power needs a positive exponent")
    out = ideal
    for _ in range(n - 1):
        out = ideal_product(out, ideal)
    return out


def ideal_intersection(i1, i2):
    if isinstance(i1, PrincipalIdeal) and isinstance(i2, PrincipalIdeal):
        i1.algebra.require_compatible(i2.algebra)
        p, q = i1.generator_poly(), i2.generator_poly()
        if not p or not q:
            return PrincipalIdeal(i1.algebra, i1.algebra.zero())
        return PrincipalIdeal(i1.algebra,
                              i1.algebra.from_poly(polyutil.plcm(p, q)))
    # I ∩ J is the kernel of x ↦ (x mod I, x mod J); column j is the image of e_j
    from . import linalg

    alg = i1.algebra
    alg.require_compatible(i2.algebra)
    cols = [i1.reduce(e).to_vector() + i2.reduce(e).to_vector()
            for e in map(alg.basis_element, alg.basis_indices())]
    return Ideal(alg, linalg.kernel(list(zip(*cols)), alg.dim))


# -- quotients --------------------------------------------------------------


class QuotientMap(FrozenRecord):
    """Projection A -> A/I together with a linear section."""

    __slots__ = ("source", "quotient", "_project", "_lift")

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        self.source.require_compatible(x.algebra)
        return self._project(x)

    def lift(self, y: AlgebraElement) -> AlgebraElement:
        self.quotient.require_compatible(y.algebra)
        return self._lift(y)


def quotient_algebra(algebra: Algebra, ideal) -> tuple[Algebra, QuotientMap]:
    """The quotient A/I with its projection: for I = (p), product_local when
    p splits into rational points; otherwise a structure-constants algebra."""
    algebra.require_compatible(ideal.algebra)
    if ideal.is_whole():
        raise ImproperIdeal("cannot form the quotient by the whole algebra")
    if ideal.is_zero():
        return algebra, QuotientMap(algebra, algebra, lambda x: x, lambda x: x)
    if isinstance(ideal, PrincipalIdeal):
        return principal_quotient(algebra, ideal.generator_poly())
    dim = algebra.dim
    pivot_set = set(ideal.pivots)
    complement = [j for j in range(dim) if j not in pivot_set]
    pos = {j: n for n, j in enumerate(complement)}

    def project_coords(x: AlgebraElement) -> dict:
        res = ideal.reduce(x)
        return {pos[i]: c for i, c in res.coeffs.items()}

    labels = tuple(algebra.label(j) for j in complement)
    qdim = len(complement)
    tensor = []
    for a in complement:
        row = []
        for b in complement:
            prod = algebra.basis_product(a, b)
            coords = project_coords(prod)
            row.append(tuple(coords.get(k, Fraction(0)) for k in range(qdim)))
        tensor.append(tuple(row))
    unit_coords = project_coords(algebra.one())
    quotient = Algebra.structure_constants(
        tuple(tensor), tuple(unit_coords.get(k, Fraction(0)) for k in range(qdim)),
        labels=labels, validate=False)

    def project(x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(quotient, project_coords(x))

    def lift(y: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(algebra, {complement[i]: c for i, c in y.coeffs.items()})

    return quotient, QuotientMap(algebra, quotient, project, lift)


def polynomial_quotient(algebra: Algebra, quotient: Algebra,
                        modulus: polyutil.Poly) -> QuotientMap:
    """Reduction of a monomial-kind algebra modulo a polynomial, onto a
    quotient whose basis is 1, t, ..., t^{deg - 1}, with the section that
    keeps coefficients.

    Negative Laurent exponents reduce through the inverse of t modulo the
    modulus, computed once here; it exists exactly when the modulus
    m_0 + t q(t) has m_0 != 0, and it is -q / m_0.  The final reduction runs
    in integers (``polyutil.pseudo_rem``), with one Fraction per coefficient.
    """
    tinv = None
    if algebra.kind == "laurent":
        if not modulus[0]:
            raise ImproperIdeal("t is not invertible modulo the generator")
        tinv = polyutil.pscale(modulus[1:], -1 / modulus[0])
    int_modulus, _ = polyutil.cleared(modulus)

    def project(x: AlgebraElement) -> AlgebraElement:
        dense = [Fraction(0)] * (max(x.coeffs, default=-1) + 1)
        negative: polyutil.Poly = ()
        for k, c in x.coeffs.items():
            if k >= 0:
                dense[k] = c
            else:
                negative = polyutil.padd(negative, polyutil.pscale(
                    polyutil.pmod(polyutil.ppow(tinv, -k), modulus), c))
        num, den = polyutil.cleared(polyutil.padd(dense, negative) if negative else dense)
        red, scale = polyutil.pseudo_rem(num, int_modulus)
        return AlgebraElement(quotient, {k: Fraction(x, den * scale)
                                         for k, x in enumerate(red) if x})

    def lift(y: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(algebra, dict(y.coeffs))

    return QuotientMap(algebra, quotient, project, lift)


def principal_quotient(algebra: Algebra, p: polyutil.Poly):
    """A/(p) with its projection, p monic of positive degree: product_local
    when p splits into rational points, else structure constants; either way
    t^k is basis element k, k < deg p.  No element of A is built, so p need
    not fit in the window of A."""
    split = split_quotient(algebra, p)
    if split is not None:
        return split
    deg = polyutil.degree(p)

    def reduced(k):  # t^k mod p, on 1, t, ..., t^{deg - 1}
        red = polyutil.pmod((Fraction(0),) * k + (Fraction(1),), p)
        return tuple(red) + (Fraction(0),) * (deg - len(red))

    quotient = Algebra.structure_constants(
        tuple(tuple(reduced(a + b) for b in range(deg)) for a in range(deg)), reduced(0),
        labels=tuple(_exponent_label(k) for k in range(deg)), validate=False)
    # t is invertible mod p exactly when p(0) != 0; normalization assures it.
    return quotient, polynomial_quotient(algebra, quotient, p)


def split_quotient(algebra: Algebra, p: polyutil.Poly):
    """``principal_quotient(algebra, p)`` when p splits into rational points,
    else None, before any quotient is built."""
    roots, rest = polyutil.rational_roots(p)
    return product_local_quotient(algebra, roots) if polyutil.degree(rest) == 0 else None


def product_local_quotient(algebra: Algebra, factors) -> tuple[Algebra, QuotientMap]:
    """A/(m) as ``Algebra.product_local(factors)``, m its modulus, with the
    projection; A is monomial-based, and m divides its modulus if it has one."""
    quotient = Algebra.product_local(factors)
    return quotient, polynomial_quotient(algebra, quotient, quotient._modulus)


# -- local structure --------------------------------------------------------


def crt_idempotents(algebra: Algebra) -> tuple[polyutil.Poly, ...]:
    """The orthogonal CRT idempotents of a product_local algebra, one per
    factor in order, as polynomials reduced modulo the modulus.

    Computed in integers, with one Fraction per returned coefficient.  At the
    point a = u/v of order N, with d = dim - N:
    * r = prod over the other factors of (v_j t - u_j)^{n_j}, of degree d;
    * q = v^d r(a + s) mod s^N, by Horner in u + v s; q_0 != 0 as the points
      are distinct;
    * the series inverse of q is sum_k w_k s^k / q_0^{k+1}, fraction-free
      with w_0 = 1 and w_k = -sum_{1 <= j <= k} q_j q_0^{j-1} w_{k-j};
    * h = v^{N-1} sum_k w_k q_0^{N-1-k} (t - a)^k, by Horner in v t - u;
    * e = r h v^d / (v^{N-1} q_0^N), so e = 1 mod (t - a)^N and e = 0 mod
      the other factors, of degree below dim with no reduction.
    Certified by ``_certify_crt_idempotents`` and cached on the algebra."""
    if algebra.kind != "product_local":
        raise UnsupportedKind("CRT idempotents need a product_local presentation")
    cached = algebra._caches.get("crt_idempotents")
    if cached is None and len(algebra.factors) == 1:
        cached = algebra._caches["crt_idempotents"] = ((Fraction(1),),)  # a local algebra
    if cached is None:
        points = [(a.numerator, a.denominator, n) for a, n in algebra.factors]
        cached = []
        for i, (u, v, order) in enumerate(points):
            r = [1]
            for uj, vj, nj in points[:i] + points[i + 1:]:
                for _ in range(nj):
                    r = polyutil.times_linear(r, uj, vj)
            q = polyutil.shifted(r, u, v, order)
            powers = [1]  # q_0^k
            for _ in range(order):
                powers.append(powers[-1] * q[0])
            w = [1]
            for k in range(1, order):
                w.append(-sum([q[j] * powers[j - 1] * w[k - j] for j in range(1, k + 1)]))
            h = polyutil.shifted([x * powers[order - 1 - k] for k, x in enumerate(w)],
                                 -u, v, order)
            e = [0] * (len(r) + order - 1)
            for k, x in enumerate(r):
                for m, y in enumerate(h):
                    e[k + m] += x * y
            scale, den = v ** (len(r) - 1), v ** (order - 1) * powers[order]
            while not e[-1]:
                e.pop()
            cached.append(tuple([Fraction(x * scale, den) for x in e]))
        _certify_crt_idempotents(algebra, cached)
        cached = algebra._caches["crt_idempotents"] = tuple(cached)
    return cached


def _certify_crt_idempotents(algebra: Algebra, idempotents) -> None:
    """Raise ValueError unless idempotents[i] is the i-th CRT idempotent,
    with no product in A: the CRT map A -> prod_j Q[s]/s^{N_j}, taking Taylor
    coefficients at point_j below order_j, is an isomorphism, so a reduced e_i
    is the i-th idempotent exactly when its image is delta_ij (1, 0, ...).
    Each e_i is read as given (a padded list is fine) and cleared of its
    denominators once, e_i = E / m; the images are compared in integers, as
    v^deg E(u/v + s) mod s^N against delta_ij m v^deg."""
    for i, e in enumerate(idempotents):
        if len(e) > algebra.dim:
            raise ValueError(f"CRT idempotent {i} is not reduced")
        num, den = polyutil.cleared(e)
        num = num or [0]
        for j, (point, order) in enumerate(algebra.factors):
            u, v = point.numerator, point.denominator
            target = [den * v ** (len(num) - 1) if i == j else 0] + [0] * (order - 1)
            if polyutil.shifted(num, u, v, order) != target:
                raise ValueError(f"CRT idempotent {i} has the wrong image at {format_scalar(point)}")


def point_ideal(algebra: Algebra, point):
    """The ideal generated by (t - point) in a monomial-based algebra."""
    point = as_scalar(point)
    if algebra.kind not in MONOMIAL_KINDS:
        raise UnsupportedKind("point ideals need a monomial-based algebra")
    return ideal_closure([algebra.from_poly((-point, Fraction(1)))])


# -- serialization ----------------------------------------------------------


def algebra_to_spec(algebra: Algebra) -> dict:
    if algebra.kind == "product_local":
        return {"kind": "product_local",
                "factors": [{"point": format_scalar(p), "order": n}
                            for p, n in algebra.factors]}
    if algebra.kind == "structure_constants":
        return {"kind": "structure_constants",
                "dim": algebra.dim,
                "labels": list(algebra.basis_labels),
                "unit": [format_scalar(c) for c in algebra._unit],
                "tensor": [[[format_scalar(c) for c in vec] for vec in row]
                           for row in algebra._tensor]}
    return {"kind": algebra.kind, "window": list(algebra.window)}


def basis_order_note(algebra: Algebra) -> str:
    if algebra.kind == "structure_constants":
        return "input basis order"
    return "monomial degree order"


def algebra_from_spec(spec: dict) -> Algebra:
    kind = spec.get("kind")
    if kind == "product_local":
        return Algebra.product_local(spec["factors"])
    if kind == "structure_constants":
        alg = Algebra.structure_constants(spec["tensor"], spec["unit"],
                                          labels=spec.get("labels"))
        if "dim" in spec and alg.dim != spec["dim"]:
            raise ValueError("declared dim does not match the tensor")
        return alg
    if kind == "polynomial":
        return Algebra.polynomial(spec["window"])
    if kind == "laurent":
        return Algebra.laurent(spec["window"])
    if kind == "rationals":
        return Algebra.rationals()
    raise ValueError(f"unknown algebra kind {kind!r}")
