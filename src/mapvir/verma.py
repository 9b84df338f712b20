"""Verma modules for Vir (x) A and the decision procedures built on them.

A linear functional phi on V_0 = (d_0 (x) A) + (c (x) A) induces the Verma
module with highest weight vector v; the module is free of rank one over
U(V_-), so vectors are stored as PBW combinations applied to v.  Raising
operators act by commuting through the PBW word; mode-0 pieces that reach v
evaluate through phi and positive modes kill v.

Sign convention: [d_m, d_n] = (n - m) d_{m+n} + delta_{m,-n} (m^3-m)/12 c
throughout.  Under this convention d_{-n} lowers the d_0 eigenvalue, and the
classical depth-2 singular locus at central charge 1 sits at highest weight
-1/4 (it mirrors to +m^2/4 under the opposite convention via d_n -> -d_{-n}).
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from . import linalg, polyutil, recurrence
from .algebra import (
    Algebra,
    AlgebraElement,
    Ideal,
    PrincipalIdeal,
    crt_idempotents,
    principal_quotient,
    product_local_quotient,
)
from .errors import AlgebraMismatch, UnsupportedKind, WindowOverflow
from .liealg import LieElement
from .pbw import (
    EnvElement,
    Monomial,
    _left_mult,
    _lincomb,
    _single,
    colored_partition_counts,
    format_env,
    monomial_weight,
    pbw_basis,
)
from .records import Record
from .scalars import as_scalar, format_scalar


class Functional:
    """A linear functional on V_0, the data defining a Verma module.

    Every kind stores immutable {index: Fraction} maps of the declared values
    phi(d_0 (x) e_k) and phi(c (x) e_k): every basis index for finite kinds,
    the given Laurent exponents, and k < n for polynomial algebras.  When
    ``exact_poly`` is set the polynomial sequences satisfy that monic
    recurrence exactly (equivalently phi kills Vir_0 (x) (p)) and extend on
    demand, otherwise they are sampled and evaluation past the declared
    window is an error.
    """

    __slots__ = ("algebra", "_d0", "_c", "exact_poly", "_extended", "_act_cache", "_pieces",
                 "_pulled")

    def __init__(self, algebra: Algebra, d0, c, exact_poly=None):
        if exact_poly is not None and algebra.kind != "polynomial":
            raise UnsupportedKind("an exact recurrence needs a polynomial algebra")
        if algebra.kind == "polynomial":
            d0, c = dict(enumerate(d0)), dict(enumerate(c))
            if len(d0) != len(c):
                raise ValueError("d0 and c sequences must have equal length")
        elif algebra.is_finite:
            d0 = {i: d0.get(i, 0) for i in range(algebra.dim)}
            c = {i: c.get(i, 0) for i in range(algebra.dim)}
        elif algebra.kind == "laurent":
            d0, c = dict(d0), dict(c)
        else:
            raise UnsupportedKind(f"no functional support for {algebra.kind}")
        # one layout for every kind: scalar values in ascending index order
        d0, c = (dict(sorted({int(k): as_scalar(v) for k, v in m.items()}.items()))
                 for m in (d0, c))
        if exact_poly is not None:
            exact_poly = _coerce_poly(exact_poly)
            if polyutil.degree(exact_poly) < 1:
                raise ValueError("exact recurrence must have positive degree")
            exact_poly = polyutil.pmonic(exact_poly)
            if len(d0) < polyutil.degree(exact_poly):
                raise ValueError("not enough values for the declared recurrence")
            for seq in (d0, c):
                if not recurrence.satisfies(list(seq.values()), exact_poly):
                    raise ValueError(
                        "declared exact recurrence does not annihilate the values")
        self._store(algebra, d0, c, exact_poly)

    def _store(self, algebra, d0: dict, c: dict, exact_poly) -> "Functional":
        """Set the fields from values already in the storage layout."""
        self.algebra = algebra
        self._d0 = MappingProxyType(d0)
        self._c = MappingProxyType(c)
        self.exact_poly = exact_poly
        # Exact sequences, extended on a miss into a new tuple published in
        # one assignment: readers never see a partial extension, and a lost
        # race between two misses only costs a recount.
        self._extended = (None if exact_poly is None
                          else [tuple(d0.values()), tuple(c.values())])
        self._act_cache = {}
        self._pieces = None  # see _local_pieces
        self._pulled = None  # see _pulled_back
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_values(cls, algebra: Algebra, d0_values=None, c_values=None) -> "Functional":
        """Build from {label or index: scalar} maps (finite or Laurent kinds)."""
        def keyed(values):
            out = {}
            for key, val in (values or {}).items():
                idx = key if isinstance(key, int) else algebra.index_of_label(str(key))
                out[idx] = as_scalar(val)
            return out

        if algebra.kind == "polynomial":
            raise UnsupportedKind("polynomial functionals use from_sequences")
        return cls(algebra, keyed(d0_values), keyed(c_values))

    @classmethod
    def from_sequences(cls, algebra: Algebra, d0_seq, c_seq,
                       exact_ideal=None) -> "Functional":
        if algebra.kind != "polynomial":
            raise UnsupportedKind("from_sequences needs a polynomial algebra")
        return cls(algebra, list(d0_seq), list(c_seq), exact_poly=exact_ideal)

    @classmethod
    def classical(cls, d0_value, c_value, algebra: Algebra | None = None) -> "Functional":
        """Functional over A = Q, determined by (phi(d_0), phi(c))."""
        algebra = algebra or Algebra.rationals()
        if algebra.dim != 1:
            raise ValueError("classical functionals need a one-dimensional algebra")
        return cls.__new__(cls)._store(
            algebra, {0: as_scalar(d0_value)}, {0: as_scalar(c_value)}, None)

    # -- evaluation ---------------------------------------------------------

    def _value(self, which: int, k: int) -> Fraction:
        val = (self._c if which else self._d0).get(k)
        if val is not None:
            return val
        if self.exact_poly is not None:
            known = self._extended[which]
            if k >= len(known):
                # grow geometrically so sequential reads cost O(log k) extends
                known = tuple(recurrence.extend(known, self.exact_poly,
                                                max(k + 1, 2 * len(known))))
                self._extended[which] = known
            return known[k]
        if self.algebra.kind == "polynomial":
            raise ValueError(
                f"sampled functional undefined at exponent {k} "
                f"(declared through {self.declared_max})")
        if self.algebra.kind == "laurent":
            raise ValueError(f"functional undefined at exponent {k}")
        self.algebra.check_index(k)  # finite kinds store every basis index
        raise AssertionError(f"basis index {k} has no stored value")

    def value_d0(self, k: int) -> Fraction:
        return self._value(0, k)

    def value_c(self, k: int) -> Fraction:
        return self._value(1, k)

    def eval_d0(self, f: AlgebraElement) -> Fraction:
        """phi(d_0 (x) f)."""
        self.algebra.require_compatible(f.algebra)
        return sum((c * self.value_d0(k) for k, c in f.coeffs.items()), Fraction(0))

    def eval_c(self, f: AlgebraElement) -> Fraction:
        """phi(c (x) f)."""
        self.algebra.require_compatible(f.algebra)
        return sum((c * self.value_c(k) for k, c in f.coeffs.items()), Fraction(0))

    @property
    def highest_weight(self) -> Fraction:
        return self.eval_d0(self.algebra.one())

    @property
    def declared_max(self) -> int | None:
        """Largest exponent with a declared value (polynomial kind)."""
        if self.algebra.kind == "polynomial":
            return len(self._d0) - 1
        return None

    def is_zero(self) -> bool:
        return not any(self._d0.values()) and not any(self._c.values())

    # -- linear structure ---------------------------------------------------

    def negate(self) -> "Functional":
        """The functional x -> phi(involution(x)) for d_n -> -d_{-n}, c -> -c."""
        return Functional.__new__(Functional)._store(
            self.algebra, {k: -v for k, v in self._d0.items()},
            {k: -v for k, v in self._c.items()}, self.exact_poly)

    def __add__(self, other):
        """Sum on the common declared indices; a declared recurrence is dropped."""
        if not isinstance(other, Functional):
            return NotImplemented
        self.algebra.require_compatible(other.algebra)
        if self.algebra.kind == "laurent":
            raise UnsupportedKind("functional addition unsupported for laurent kind")
        return Functional.__new__(Functional)._store(
            self.algebra,
            {k: v + other._d0[k] for k, v in self._d0.items() if k in other._d0},
            {k: v + other._c[k] for k, v in self._c.items() if k in other._c}, None)

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return (self.algebra.compatible(other.algebra)
                and self._d0 == other._d0 and self._c == other._c
                and self.exact_poly == other.exact_poly)

    def __repr__(self):
        return f"Functional(h={format_scalar(self.highest_weight)}, algebra={self.algebra!r})"


def _coerce_poly(obj) -> polyutil.Poly:
    if isinstance(obj, PrincipalIdeal):
        return obj.generator_poly()
    if isinstance(obj, AlgebraElement):
        return obj.as_poly()
    if isinstance(obj, (tuple, list)):
        return polyutil.trim([as_scalar(x) for x in obj])
    raise TypeError("expected a polynomial, element, or principal ideal")


class VermaVector:
    """A homogeneous vector of the Verma module, stored as env * v."""

    __slots__ = ("functional", "env")

    def __init__(self, functional: Functional, env: EnvElement):
        functional.algebra.require_compatible(env.algebra)
        if not env.is_homogeneous():
            raise ValueError("mixed-weight vector; split into homogeneous pieces")
        self.functional = functional
        self.env = env

    @property
    def depth(self) -> int | None:
        ws = self.env.weights()
        return -next(iter(ws)) if ws else None

    @property
    def weight(self) -> Fraction | None:
        d = self.depth
        return None if d is None else self.functional.highest_weight - d

    def is_zero(self) -> bool:
        return self.env.is_zero()

    def __add__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        if other.functional is not self.functional and other.functional != self.functional:
            raise AlgebraMismatch("vectors belong to different Verma modules")
        return VermaVector(self.functional, self.env + other.env)

    def scale(self, s) -> "VermaVector":
        return VermaVector(self.functional, self.env.scale(s))

    def __eq__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.functional == other.functional and self.env == other.env

    def __repr__(self):
        return f"<({format_env(self.env)}) v>"


def highest_weight_vector(phi: Functional) -> VermaVector:
    return VermaVector(phi, EnvElement(phi.algebra, {(): Fraction(1)}))


# -- the action -------------------------------------------------------------


def _act_basis(phi: Functional, j: int, b: int, mono: Monomial) -> tuple:
    """Push d_j (x) e_b through mono * v; the result lives in U(V_-) v.

    Lowering modes straighten into the PBW basis; a mode-0 piece arriving at v
    contributes phi(d_0 (x) e_b); positive modes kill v.  Commuting past the
    head factor d_{-m} (x) e_h of mono = head * rest uses

        [d_j (x) e_b, d_{-m} (x) e_h] = (-m - j) d_{j-m} (x) e_b e_h
                                        + delta_{j,m} (j^3-j)/12 c (x) e_b e_h,

    and central pieces evaluate immediately through phi.  A node adds head
    times d_j (x) e_b rest (prepended where head leads in PBW order, else by
    ``pbw._left_mult``), the commutator and the cocycle into one {monomial:
    int} dict over a running denominator (``_add_scaled``; no Fraction is
    built), is reduced once, and is cached per functional (raising words share
    long suffixes) as a frozen lowest-terms (den, monomials, numerators) triple.
    Two kinds of node are scalars and are neither recursed into nor cached:
    d_j (x) e_b on v itself, and d_0 (x) e_b on a color with e_b = p/q 1
    (``Algebra._unit_color``), which is p/q times the grading operator, so
    it multiplies a depth-n monomial by phi(d_0 (x) e_b) - p/q n."""
    alg = phi.algebra
    if j < 0:
        return _left_mult(alg, (-j, b), mono)
    if not j and (not mono or b == alg._unit_color[0]):  # phi(d_0 (x) e_b) - p/q depth
        _, p, q = alg._unit_color  # e_b = p/q 1 (or mono = ())
        val = phi.value_d0(b)
        den = val.denominator * q
        num = val.numerator * q + p * val.denominator * monomial_weight(mono)
        g = math.gcd(num, den)
        return (den // g, (mono,), (num // g,)) if num else (1, (), ())
    if not mono:  # positive modes kill v
        return 1, (), ()
    key = (j, b, mono)
    hit = phi._act_cache.get(key)
    if hit is not None:
        return hit
    head, rest = mono[0], mono[1:]
    mh, bh = head
    sub, monos, nums = _act_basis(phi, j, b, rest)
    den, acc = sub, {}
    for m2, c2 in zip(monos, nums):
        if not m2 or m2[0][0] < mh or (m2[0][0] == mh and m2[0][1] >= bh):  # head leads
            m2 = (head,) + m2
            acc[m2] = acc.get(m2, 0) + c2 * (den // sub)
        else:
            den = _add_scaled(acc, den, c2, sub, _left_mult(alg, head, m2))
    k = -mh - j  # never 0, as j >= 0 here
    cocycle = j ** 3 - j if j == mh else 0  # 12 times the central scalar
    for bk, nk, dk in alg.product_terms(b, bh):
        den = _add_scaled(acc, den, k * nk, dk, _act_basis(phi, j - mh, bk, rest))
        kappa = phi.value_c(bk) if cocycle else 0
        if kappa:
            den = _add_scaled(acc, den, cocycle * kappa.numerator * nk,
                              12 * kappa.denominator * dk, _single(rest))
    acc = {m3: c3 for m3, c3 in acc.items() if c3}
    g = math.gcd(den, *acc.values())
    out = phi._act_cache[key] = (den // g, tuple(acc), tuple([c3 // g for c3 in acc.values()]))
    return out


def _add_scaled(acc: dict, den: int, num: int, d: int, result: tuple) -> int:
    """Add num/d times a frozen result to the numerators ``acc`` over den in
    place; return their denominator, grown to lcm(den, d rden) only if need be."""
    rden, monos, nums = result
    d *= rden
    if den % d:
        f = d // math.gcd(den, d)
        acc.update({mono: c * f for mono, c in acc.items()})
        den *= f
    num *= den // d
    for mono, c in zip(monos, nums):
        acc[mono] = acc.get(mono, 0) + num * c
    return den


def verma_act(x: LieElement, v: VermaVector) -> list[VermaVector]:
    """Action of a Lie element, returned as homogeneous pieces by depth."""
    phi = v.functional
    phi.algebra.require_compatible(x.algebra)
    c_val = phi.eval_c(x.c_part)
    scaled = [(cm * cb, _act_basis(phi, j, b, mono)) for mono, cm in v.env.terms.items()
              for j, g in x.d_part.items() for b, cb in g.coeffs.items()]
    scaled += [(cm * c_val, _single(mono)) for mono, cm in v.env.terms.items()]
    den, monos, nums = _lincomb([(s.numerator, s.denominator, r) for s, r in scaled if s])
    buckets: dict[int, dict] = {}
    for mono, c in zip(monos, nums):
        buckets.setdefault(monomial_weight(mono), {})[mono] = Fraction(c, den)
    return [VermaVector(phi, EnvElement(phi.algebra, terms))
            for _, terms in sorted(buckets.items(), reverse=True)]


def _raise(phi: Functional, x_mono: Monomial, chains: dict) -> tuple:
    """X w for the raising monomial X = x X', computed as x (X' w).

    ``chains`` maps raising monomials to their frozen results on one fixed w
    and is seeded with {(): w}; a miss computes the suffix X' first and stores
    X, so monomials sharing a suffix share its chain.  Depths act as modes +m.
    """
    hit = chains.get(x_mono)
    if hit is not None:
        return hit
    m, b = x_mono[0]
    den, monos, nums = _raise(phi, x_mono[1:], chains)
    out = chains[x_mono] = _lincomb(
        [(cm, den, _act_basis(phi, m, b, mono)) for mono, cm in zip(monos, nums)])
    return out


def _v_coefficients(phi: Functional, terms, raising):
    """Lazily yield coeff_v(X w), w = sum terms, for each X in ``raising``."""
    chains = {(): _lincomb([(c.numerator, c.denominator, _single(mono))
                            for mono, c in terms.items()])}
    for x_mono in raising:
        den, monos, nums = _raise(phi, x_mono, chains)
        yield Fraction(dict(zip(monos, nums)).get((), 0), den)


# -- singular vectors and graded dimensions ---------------------------------


def _action_rows(phi: Functional, mode: int, b: int, basis) -> dict:
    """Sparse matrix of d_mode (x) e_b on the span of ``basis``, scaled to
    integers by the lcm of its denominators (which moves neither its kernel
    nor its row space): a {column: int} row for each target monomial that
    occurs, including targets whose colors leave a color window."""
    acts = [_act_basis(phi, mode, b, mono) for mono in basis]
    den = math.lcm(*[d for d, _, _ in acts])
    rows: dict = {}
    for col, (d, monos, nums) in enumerate(acts):
        for m2, c2 in zip(monos, nums):
            rows.setdefault(m2, {})[col] = c2 * (den // d)
    return rows


def singular_vectors(phi: Functional, depth: int, window=None) -> list[VermaVector]:
    """Basis of the singular subspace at the given depth.

    Exact kernel of the stacked maps w -> (d_1 (x) e_i) w and
    w -> (d_2 (x) e_i) w over all basis directions i; d_1 and d_2 together
    generate the whole raising half, so members are annihilated by every
    positive mode.  Over a one-dimensional algebra (one unreduced piece, of
    order 1) they are the highest weight vectors of the sub-Vermas, one per
    vertex of ``_embedding_steps`` (Feigin-Fuchs 1984): off the vertices
    the answer is [], and at one the exact kernel runs at once and must hold
    exactly one vector.  On other finite kinds a singular vector lies in Rad,
    so a depth below ``_first_reducible_depth`` returns [], and at that
    theorem's own depth the kernel runs at once.  At every other depth, when
    one mod-p elimination shows that the stacked integer rows have full
    column rank, the kernel is zero and no exact elimination runs.  No basis
    or action is built for a [] by theorem.  A color window multiplies up to
    depth + 1 of its colors, which must stay inside the algebra window.
    """
    if depth < 1:
        raise ValueError("singular vectors live at positive depth")
    (_, lam, kappa), *more = _local_pieces(phi) or [(None, (), ())]
    order_one = len(lam) == 1 and not more  # dim A = 1, read off the unreduced piece
    if order_one and depth not in _embedding_steps(-lam[0], kappa[0], depth):
        return []  # no sub-Verma at this depth
    first = depth if order_one else _first_reducible_depth(phi, depth)
    if depth < first:
        return []  # a singular vector at positive depth lies in Rad
    alg = phi.algebra
    colors = alg.window_indices(window, factors=depth + 1)
    basis = pbw_basis(depth, alg, window=window)
    rows: list[dict] = []
    for mode in (1, 2):
        if mode <= depth:
            for b in colors:
                rows += _action_rows(phi, mode, b, basis).values()
    if depth != first and linalg.full_rank_mod_p(rows, len(basis)):
        return []
    vecs = linalg.kernel(rows, len(basis))
    if order_one and len(vecs) != 1:
        raise AssertionError(f"{len(vecs)} singular vectors at vertex depth {depth}, "
                             "against multiplicity one")
    return [VermaVector(phi, EnvElement(alg, dict(zip(basis, vec)))) for vec in vecs]


def module_dims(algebra: Algebra, max_depth: int, window=None) -> tuple[int, ...]:
    """Graded dimensions of the Verma module itself.  V(phi) is free over
    U(V_-), so depth n has one basis vector per colored partition of n, a
    color per index of the (color) window; they are counted by
    ``colored_partition_counts``, not enumerated.  A window past the algebra
    window raises first."""
    _check_depth(max_depth)
    colors = len(algebra.window_indices(window))
    return tuple(colored_partition_counts(colors, max_depth))


def pairing_matrix(phi: Functional, depth: int, window=None) -> list[list[Fraction]]:
    """Matrix of v-coefficients <X, Y> = coeff_v(X * Y v) over raising/lowering
    monomials of the given weight, one suffix-sharing raising walk per Y.

    X and Y together carry up to 2 * depth colors of the window, and the walk
    multiplies them all, so that product bound is checked before any work."""
    phi.algebra.window_indices(window, factors=2 * depth)
    basis = pbw_basis(depth, phi.algebra, window=window)
    # one walk per column Y; each walk's chains are dropped before the next
    cols = [list(_v_coefficients(phi, {y_mono: Fraction(1)}, basis)) for y_mono in basis]
    return [list(row) for row in zip(*cols)]


def quotient_dims(phi: Functional, max_depth: int, window=None) -> tuple[int, ...]:
    """Graded dimensions of the irreducible quotient V(phi) / Rad.

    Rad is the maximal proper submodule: the vectors w with no v-component in
    any X w, X in U(V_+).  Every raising word of positive degree ends in a
    generator x, so for positive depth w lies in Rad exactly when every x w
    does; and d_1 (x) A, d_2 (x) A generate the raising half, because
    [d_1 (x) 1, d_n (x) b] = (n - 1) d_{n+1} (x) b.  Over a finite-dimensional
    algebra this gives an exact recursion on matrices Q_n with kernel Rad_n:

        Q_0 = [1],   Q_n = row basis of ( Q_{n-1} A_{1,b} ; Q_{n-2} A_{2,b} )
                           stacked over every basis color b,

    where A_{mode,b} is the matrix of d_mode (x) e_b : V_n -> V_{n-mode}.  The
    quotient dimension at depth n is rank Q_n.  This costs one action matrix
    per generator and one elimination per depth, against a raising walk over
    every monomial per column of the pairing matrix.  A layer Q_{n-mode} of
    full rank spans V_{n-mode}, so its block has the row space of A_{mode,b}
    itself and the product is skipped.  The action is integer throughout.

    Every answer is exact.  Layers below ``_first_reducible_depth`` are full
    by the Kac determinant or the top-degree criterion, evaluated exactly;
    their widths are colored-partition counts and they are not built.  The
    theorem's depth and every deeper layer are ranked by the exact
    ``row_basis``.  On the algebras no theorem covers, a layer counts as full
    when one mod-p elimination of its integer rows certifies it (rank mod p
    never exceeds rank over Q) or when ``row_basis`` finds it full.  At a
    generic weight over a product_local algebra or Q no layer is built at all.

    Over a product_local algebra or Q the recursion runs on the reduced CRT
    pieces of ``_local_pieces``, and their characters are convolved.  Both
    steps are theorems.  Vir (x) (A_1 x A_2) = Vir (x) A_1 + Vir (x) A_2, so
    L(phi) is the tensor product of its pieces' L(phi_i).  And if phi kills
    Vir_0 (x) J for an ideal J, then Vir (x) J acts as zero on L(phi), which
    is the irreducible quotient for Vir (x) (A / J).  In a factor Q[s]/s^N the
    largest ideal phi kills is (s^k), k past the last nonzero value pair, so
    the piece runs over Q[s]/s^k with its first k values; k = 0 is the
    trivial module.  A piece equal to phi itself (one factor at 0 with a
    nonzero top pair) runs on phi, and no algebra is rebuilt.

    A reduced piece of order 1 is the Virasoro L(h, c), h = -lam_0,
    c = kappa_0, and ``_order_one_dims`` reads its character off the
    embedding diagram of V(h, c), whatever its type (braid, chain, t < 0 or
    irrational t); only pieces of order 2 or more run the recursion.  When
    every reduced piece has order 1, no layer and no PBW basis is built.
    Each unreduced piece of order 1 is walked once (``_embedding_steps``),
    and ``_first_reducible_depth`` and ``_order_one_dims`` share the walk.
    With one reduced piece, its character is the answer.

    Over the windowed polynomial and Laurent kinds the radical is tested
    against raising monomials whose colors stay in the window, and the
    2 * max_depth color product bound of the pairing is checked before any
    depth is computed.  An exact polynomial phi kills Vir_0 (x) (p), so on a
    window holding the colors 0..deg p - 1 the windowed rank is
    dim L(phi_bar)_n over A/(p) (``_pulled_back``), and the answer is
    quotient_dims(phi_bar).  Elsewhere products of windowed colors leave the
    window, so the generator recursion would compute a different subspace;
    sampled and Laurent functionals and narrower windows keep the pairing
    rank, whose window restriction can only shrink it.  A negative max_depth
    raises ValueError.
    """
    _check_depth(max_depth)
    if not phi.algebra.is_finite:
        phi.algebra.window_indices(window, factors=2 * max_depth)  # before any depth
        pulled = _pulled_back(phi, window)
        if pulled is not None:
            return quotient_dims(pulled[0], max_depth)
        return tuple(linalg.rank(pairing_matrix(phi, n, window=window))
                     for n in range(max_depth + 1))
    pieces = _local_pieces(phi) or ()
    walks = [len(lam) == 1 and _embedding_steps(-lam[0], kappa[0], max_depth)
             for _, lam, kappa in pieces]  # False on the pieces of order N >= 2
    first = _first_reducible_depth(phi, max_depth, walks)
    if first > max_depth:  # Rad = 0 through max_depth by theorem
        return tuple(colored_partition_counts(phi.algebra.dim, max_depth))
    if not first:  # no theorem splits or reduces phi
        return _layered_quotient_dims(phi, max_depth)
    parts = []  # the trivial module (k = 0) has character 1
    for (a, lam, kappa), walk in zip(pieces, walks):
        k = _reduced_order(lam, kappa)
        if k == 1:
            parts.append(_order_one_dims(-lam[0], kappa[0], max_depth, walk))
        elif len(pieces) == 1 and a == 0 and k == len(lam):
            parts.append(_layered_quotient_dims(phi, max_depth))
        elif k:
            parts.append(_layered_quotient_dims(
                _piece_on(Algebra.product_local([(0, k)]), 0, lam, kappa), max_depth))
    dims = parts.pop() if parts else [1] + [0] * max_depth
    for part in parts:  # the product of truncated q-series
        dims = [sum(dims[i] * part[n - i] for i in range(n + 1)) for n in range(max_depth + 1)]
    return tuple(dims)


def _check_depth(max_depth: int):
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")


def _layered_quotient_dims(phi: Functional, max_depth: int) -> tuple[int, ...]:
    """The Q_n recursion of ``quotient_dims``; only Q_{n-1}, Q_{n-2} stay alive.

    Rows are kept as integer echelon bases: scaling a row does not move the
    kernel, so each action block arrives scaled to integers.  A layer of full
    rank is kept as None.  Below ``_first_reducible_depth`` every layer is
    full by theorem: its width is the colored-partition count and nothing is
    built.  The theorem's own depth is deficient, so it goes straight to the
    exact ``row_basis``.  Where no theorem applies (first = 0), every block
    is a sparse A_{mode,b} until the first deficient depth, and one mod-p
    elimination certifies most layers full; a layer it does not certify gets
    the exact ``row_basis``.  Past the first deficient depth the test is
    skipped, since Rad stays nonzero: it is a submodule and d_{-1} (x) 1 acts
    injectively on the Verma module.
    """
    alg = phi.algebra
    colors = list(alg.basis_indices())
    first = _first_reducible_depth(phi, max_depth)
    dims = colored_partition_counts(len(colors), max_depth)[:first]
    layers: list = [None] * min(first, 2)  # depths n-2, n-1: None if full, else (positions, Q)
    deficient = first > 0  # by theorem; row_basis decides it anyway
    for n in range(first, max_depth + 1):
        basis = pbw_basis(n, alg)
        width = len(basis)
        sparse = [{0: 1}] if n == 0 else []  # the A blocks under full layers
        products = []  # dense Q A blocks under deficient layers
        for mode, prev in zip((1, 2), reversed(layers)):
            if prev is not None and not prev[1]:  # Q_{n-mode} = 0 adds no rows
                continue
            for b in colors:
                action = _action_rows(phi, mode, b, basis)
                if prev is None:
                    # Q_{n-mode} spans V_{n-mode}: Q A has the row space of A
                    sparse += action.values()
                    continue
                tpos, q_prev = prev
                action = [(tpos[m2], a_row) for m2, a_row in action.items()]
                for q_row in q_prev:
                    row = [0] * width
                    for t, a_row in action:
                        x = q_row[t]
                        if x:
                            for col, c in a_row.items():
                                row[col] += x * c
                    products.append(row)
        if deficient or not linalg.full_rank_mod_p(sparse, width):
            q = linalg.row_basis(products + sparse, width)
            deficient = len(q) < width
        dims.append(len(q) if deficient else width)
        layers = layers[-1:] + [({mono: i for i, mono in enumerate(basis)}, q) if deficient else None]
    return tuple(dims)


def _local_pieces(phi: Functional) -> tuple[tuple, ...] | None:
    """The CRT pieces of a functional over a product_local algebra or Q, and
    None over every other kind.

    For each local factor (a, N), in order, the triple (a, lam, kappa) of the
    tuples lam_k = phi(d_0 (x) e s^k) and kappa_k = phi(c (x) e s^k), k < N,
    where s = t - a and e is the factor's CRT idempotent.  A one-dimensional
    algebra is the one factor (0, 1) of Q[t]/(t) with e its unit u e_0, read
    off u and two values of phi.  The piece is the functional these values
    define on Q[s]/s^N, and V(phi) is the tensor product of the pieces'
    Verma modules.  Kept on the functional once computed.

    The walk runs in integers: phi's values, e and the modulus are cleared
    of denominators once, e s^k steps by v t - u at a = u/v and reduces by
    the integer modulus, and each lam_k and kappa_k is one Fraction.
    """
    if phi._pieces is not None:
        return phi._pieces
    alg = phi.algebra
    if alg.kind == "structure_constants" and alg.dim == 1:  # 1 = u e_0
        u, lam, kappa = alg._unit[0], phi.value_d0(0), phi.value_c(0)
        if u != 1:
            lam, kappa = u * lam, u * kappa
        phi._pieces = ((Fraction(0), (lam,), (kappa,)),)
        return phi._pieces
    if alg.kind != "product_local":
        return None
    d0, d0_den = polyutil.cleared([phi.value_d0(j) for j in range(alg.dim)])
    c, c_den = polyutil.cleared([phi.value_c(j) for j in range(alg.dim)])
    modulus = alg._int_modulus
    lead = modulus[-1]
    pieces = []
    for (a, order), e in zip(alg.factors, crt_idempotents(alg)):
        f, den = polyutil.cleared(e)  # e s^k = f / den
        lam, kappa = [], []
        for k in range(order):
            if k:  # times v t - u, then one step by the integer modulus
                f = polyutil.times_linear(f, a.numerator, a.denominator)
                den *= a.denominator
                if len(f) > alg.dim:
                    top = f.pop()
                    f = [lead * x - top * m for x, m in zip(f, modulus)]
                    den *= lead
            lam.append(Fraction(sum([x * y for x, y in zip(f, d0)]), den * d0_den))
            kappa.append(Fraction(sum([x * y for x, y in zip(f, c)]), den * c_den))
        pieces.append((a, tuple(lam), tuple(kappa)))
    phi._pieces = tuple(pieces)
    return phi._pieces


def _reduced_order(lam, kappa) -> int:
    """The least k with a piece killing Vir_0 (x) (s^k): one past its last nonzero pair."""
    return max((k + 1 for k, pair in enumerate(zip(lam, kappa)) if any(pair)), default=0)


def _piece_on(algebra: Algebra, a, lam, kappa) -> Functional:
    """The functional with values phi(x e t^j), j < algebra.dim, from a piece's
    phi(x e s^k): t = s + a and e s^k = 0 past the values, so t^j -> t^{j+1}
    maps w_k = phi(x e s^k t^j) to w_{k+1} + a w_k.  On A or a local quotient."""
    values = []
    for w in (list(lam), list(kappa)):
        out = {}
        for j in range(algebra.dim):
            out[j] = w[0]
            w = [x * a + y for x, y in zip(w, w[1:] + [0])]
        values.append(out)
    return Functional(algebra, *values)


def _first_reducible_depth(phi: Functional, max_depth: int, walks=None) -> int:
    """The least depth n <= max_depth at which Rad_n can be nonzero;
    max_depth + 1 when the theorems below prove Rad = 0 through max_depth,
    and 0 when none applies (every kind but product_local and the
    one-dimensional algebra Q).  ``walks``, when given, holds for each piece
    of order 1 its ``_embedding_steps`` to max_depth (and False for the
    others), and that piece's least vertex is read off it.

    V(phi) is the tensor product of the Verma modules of its CRT pieces, so
    the answer is the least depth over the pieces of ``_local_pieces``, each
    read off its top values lambda = lam_{N-1}, kappa = kappa_{N-1}.  The
    pieces are not reduced: a zero top pair makes (d_{-1} (x) e s^{N-1}) v
    singular, at depth 1.

    * N = 1 is the Virasoro algebra at h = -lambda, c = kappa.  Its Kac
      determinant at depth n vanishes iff h = h_{r,s}(c) for some rs <= n
      (Kac 1978; Feigin-Fuchs 1984): the least ``_kac_steps`` from 0.
    * N >= 2 vanishes first at the least n >= 1 with
      -2 n lambda + (n^3 - n) kappa / 12 = 0 (B. J. Wilson, "Highest-weight
      theory for truncated current Lie algebras", J. Algebra 336, 2011),
      i.e. 24 lambda = (n^2 - 1) kappa: for kappa != 0 the one n with
      n^2 = 1 + 24 lambda / kappa, if that is a positive integer, and for
      kappa = 0 the depth 1 exactly when lambda = 0.
    """
    pieces = _local_pieces(phi)
    if pieces is None:
        return 0
    first = max_depth + 1
    for i, (_, lams, kappas) in enumerate(pieces):
        lam, kappa = lams[-1], kappas[-1]
        if len(lams) == 1:
            steps = walks[i][0] if walks else _kac_steps(*_kac_zero(-lam, kappa), 0, first - 1)
            first = min([first, *steps])
        elif kappa:
            square = 1 + 24 * lam / kappa
            first = min(first, polyutil.exact_sqrt(square.numerator, square.denominator)
                        or first)
        elif not lam:
            first = min(first, 1)
    return first


def _kac_zero(h: Fraction, c: Fraction) -> tuple:
    """Where h stands in the Kac table at central charge c, as (t, m).

    Write c = 13 - 6 (t + 1/t) and h_{r,s} = ((rt - s)^2 - (t - 1)^2) / 4t; t and
    1/t swap r and s.  V(h, c) has a singular vector at depth rs for each
    r, s >= 1 with h = h_{r,s} (Kac 1978; Feigin-Fuchs 1984).  With c = a/b and
    u = t + 1/t = (13 - c) / 6, t is rational iff (6b)^2 (u^2 - 4) is a square.

    * t irrational or complex: t = None.  In the basis 1, t of Q(t),
      h_{r,s} = ((r^2 - s^2) t + (s^2 - 1) u) / 4 - (rs - 1) / 2, so only
      h_{r,r} = (r^2 - 1)(u - 2) / 4 is rational; m is the r >= 1 with
      h = h_{r,r}, or None.
    * t = p/p' in lowest terms, p' > 0: t = (p, p').  Then h_{r,s} = h_mu with
      mu = rp - sp' and h_mu = (mu^2 - (p - p')^2) / 4pp'; m is the integer
      |mu| with h = h_mu, or None.
    """
    a, b = c.numerator, c.denominator
    hn, hd = h.numerator, h.denominator
    root = polyutil.exact_sqrt((b - a) * (25 * b - a), 1)  # (6b)^2 (u^2 - 4)
    if root is None:  # a != b here, since c = 1 is t = 1
        den = (b - a) * hd  # r^2 = 1 + 24bh / (b - a), as u - 2 = (b - a)/6b
        return None, polyutil.exact_sqrt(den + 24 * b * hn, den) or None
    num, den = 13 * b - a + root, 12 * b  # t
    g = math.gcd(num, den)
    p, pp = num // g, den // g
    return (p, pp), polyutil.exact_sqrt(4 * p * pp * hn + (p - pp) ** 2 * hd, hd)


def _embedding_steps(h: Fraction, c: Fraction, limit: int) -> dict[int, set]:
    """The vertices d <= limit of the embedding diagram of the Virasoro Verma
    module V(h, c), V(h + d) in V(h), each mapped to its ``_kac_steps``.

    A Kac zero h = h_{r,s} gives a singular vector at depth rs generating
    V(h + rs), and every submodule is a sum of such sub-Vermas, so the
    vertices are the closure of the ``_kac_steps`` from 0 (Feigin-Fuchs 1984;
    Iohara-Koga 2011, ch. 5-6).  After one ``_kac_zero`` the work is integer.
    """
    t, m = _kac_zero(h, c)
    steps: dict[int, set] = {}
    todo = [0]
    while todo:
        d = todo.pop()
        steps[d] = _kac_steps(t, m, d, limit)
        todo += steps[d] - steps.keys()
    return steps


def _embedding_diagram(steps: dict[int, set]) -> dict[int, set]:
    """``_embedding_steps`` closed: each vertex d maps to every e with V(h + e) in V(h + d)."""
    below: dict[int, set] = {}
    for d, step in sorted(steps.items(), reverse=True):  # deepest first
        below[d] = step.union(*(below[e] for e in step))
    return below


def _kac_steps(t, m, d: int, limit: int) -> set:
    """The vertices e <= limit one step below the vertex d at the Kac zero
    (t, m).  At irrational t the one step is 0 -> m^2.  At t = p/p' the vertex
    h + d = h_mu, mu^2 = m^2 + 4pp'd, has the zeros r >= 1, s = (rp -+ |mu|)/p'
    a positive integer, each a step of rs to h_{r,-s} (finitely many at t < 0)."""
    if m is None or t is None:
        return {m * m} if m and not d and m * m <= limit else set()
    p, pp = t
    mu = math.isqrt(m * m + 4 * p * pp * d)  # h + d = h_mu
    return {d + r * (x // pp) for r in range(1, limit - d + 1)
            for x in (r * p - mu, r * p + mu)
            if x > 0 and not x % pp and d + r * (x // pp) <= limit}


def _order_one_dims(h: Fraction, c: Fraction, max_depth: int, steps=None) -> tuple[int, ...]:
    """dim L(h, c)_n for n <= max_depth, off the embedding diagram of V(h, c).

    Verma modules are multiplicity-free: [V(h + d) : L(h + e)] = 1 exactly
    when V(h + e) is in V(h + d) (Feigin-Fuchs 1984).  So, deepest vertex
    first, ch L(h + d) = ch V(h + d) - sum of ch L(h + e) over the e below d,
    each kept as its sparse integer numerator over prod (1 - q^n).  ``steps``
    is V(h, c)'s ``_embedding_steps`` to max_depth when the caller has it.
    """
    diagram = _embedding_diagram(steps or _embedding_steps(h, c, max_depth))
    numerators: dict[int, dict] = {}
    for d in sorted(diagram, reverse=True):
        num = numerators[d] = {d: 1}
        for e in diagram[d]:
            for k, x in numerators[e].items():
                num[k] = num.get(k, 0) - x
    partitions = colored_partition_counts(1, max_depth)
    return tuple(sum(x * partitions[n - k] for k, x in numerators[0].items() if k <= n)
                 for n in range(max_depth + 1))


def in_maximal_submodule(v: VermaVector, window=None) -> bool:
    """Is the vector in the maximal proper submodule (zero image in L(phi))?

    Tests the v-coefficient of X * v for every raising monomial X of matching
    weight (window-restricted for infinite algebras).  X carries up to depth
    colors, and their products with the vector's colors are bounded on the
    caller's window before any action.  Where ``_pulled_back`` applies (an
    exact polynomial phi on a window holding 0..deg p - 1, or a product_local
    phi whose reduced CRT pieces give a nonzero ideal J), the test runs on
    the image of v in V(phi_bar) over A/J and raises by the dim A/J colors
    of its basis; an image of 0 lies in Rad with no walk.
    """
    if v.is_zero():
        return True
    phi = v.functional
    _check_products(v, window, single=False)
    terms = v.env.terms
    pulled = _pulled_back(phi, window)
    if pulled is not None:  # the image of v in V(phi_bar)
        den, monos, nums = _lincomb([(c.numerator, c.denominator, _mono_image(pulled, mono))
                                     for mono, c in terms.items()])
        if not monos:
            return True
        phi, window = pulled[0], None
        terms = {mono: Fraction(c, den) for mono, c in zip(monos, nums)}
    raising = pbw_basis(v.depth, phi.algebra, window=window)
    return not any(_v_coefficients(phi, terms, raising))


def _exact_colors(phi: Functional) -> tuple[int, int] | None:
    """(0, deg r - 1) for a polynomial phi with exact recurrence r, else None.
    phi kills Vir_0 (x) (r), so coeff_v(X w) = coeff_v_bar(X_bar pi(w)) over
    A/(r) reads raising colors only mod (r), and t^0..t^{deg r - 1} map to
    the basis of A/(r).  ``_pulled_back`` takes that route on a window
    holding these colors.  ``check_verma_reducible`` acts by them alone on
    its witness, which lies in (r) and maps to 0, so it is checked in V(phi)."""
    if phi.exact_poly is None:
        return None
    return 0, polyutil.degree(phi.exact_poly) - 1


def _pull_back(phi: Functional, quotient: Algebra, project) -> Functional:
    """phi_bar on the quotient A/J with projection ``project``, for an ideal J
    with phi(Vir_0 (x) J) = 0: phi_bar reads phi at the lift of each basis
    element (t^k for A/(p), whose basis k is t^k)."""
    lifts = [project.lift(quotient.basis_element(k)) for k in range(quotient.dim)]
    return Functional(quotient, {k: phi.eval_d0(f) for k, f in enumerate(lifts)},
                      {k: phi.eval_c(f) for k, f in enumerate(lifts)})


def _pulled_back(phi: Functional, window=None) -> tuple | None:
    """(phi_bar, project, images) when phi kills Vir_0 (x) J for a known
    ideal J, neither 0 nor A, and the raising colors of ``window`` map onto a
    basis of A/J; else None.

    J is the exact recurrence (p) of a polynomial phi, when ``window`` holds
    the colors of ``_exact_colors``, or prod (t - a)^k over the CRT pieces of
    a product_local phi, k their reduced orders: ``largest_v0_ideal(phi)``,
    read off ``_local_pieces``.  Vir (x) J acts as zero on L(phi) = L(phi_bar)
    over A/J, so w is in Rad(phi) iff its image is in Rad(phi_bar).
    phi_bar is ``_pull_back``'s; ``images`` maps a color b to e_b mod J and
    a monomial to its image, as frozen results filled on demand by
    ``_mono_image``.  Kept on the functional once computed (False: no J).
    """
    alg = phi.algebra
    narrow = _exact_colors(phi)
    if narrow is not None:
        colors = alg.window_indices(window)
        if 0 not in colors or narrow[1] not in colors:
            return None
    if phi._pulled is None:
        if narrow is not None:
            quotient = principal_quotient(alg, phi.exact_poly)
        else:
            orders = [(a, _reduced_order(lam, kappa)) for a, lam, kappa in _local_pieces(phi) or ()]
            factors = [(a, k) for a, k in orders if k]  # J = prod (t - a)^k
            size = sum(k for _, k in factors)
            quotient = product_local_quotient(alg, factors) if 0 < size < alg.dim else None
        phi._pulled = ((_pull_back(phi, *quotient), quotient[1], {(): _single(())})
                       if quotient else False)
    return phi._pulled or None


def _mono_image(pulled: tuple, mono: Monomial) -> tuple:
    """The image in U(V_-) over A/J of a PBW monomial x X' over A, as the
    frozen result (see ``pbw._lincomb``) of x_bar X'_bar: each letter
    d_{-m} (x) e_b maps to d_{-m} (x) (e_b mod J), and the product
    straightens by ``_left_mult``.  Kept in ``images`` per monomial, so
    monomials sharing a suffix share its image."""
    phi_bar, project, images = pulled
    hit = images.get(mono)
    if hit is not None:
        return hit
    (m, b), rest = mono[0], mono[1:]
    color = images.get(b)
    if color is None:  # e_b mod J on the basis of A/J, over one denominator
        coeffs = project(project.source.basis_element(b)).coeffs
        color = images[b] = _lincomb([(x.numerator, x.denominator, _single(k))
                                      for k, x in coeffs.items()])
    den, ks, nums = color
    rden, rmonos, rnums = _mono_image(pulled, rest)
    out = images[mono] = _lincomb([(x * y, den * rden, _left_mult(phi_bar.algebra, (m, k), r))
                                   for k, x in zip(ks, nums) for r, y in zip(rmonos, rnums)])
    return out


# -- decision procedures ----------------------------------------------------


class QuasifiniteVerdict(Record):
    """Outcome of the quasifiniteness check; ``status`` is
    "quasifinite_certified" or "no_witness_up_to_bound"."""

    __slots__ = ("status", "witness", "candidate", "note")
    _defaults = {"candidate": None, "note": ""}

    @property
    def certified(self) -> bool:
        return self.status == "quasifinite_certified"


class ReducibilityVerdict(Record):
    """Outcome of the Verma reducibility check; ``status`` is
    "reducible_certified", "irreducible_certified" or "no_witness_up_to_bound"."""

    __slots__ = ("status", "witness_ideal", "singular_vector", "candidate", "note")
    _defaults = {"witness_ideal": None, "singular_vector": None, "candidate": None,
                 "note": ""}


def _certify_recurrence(phi: Functional, values, bound: int | None,
                        assume_exact: bool):
    """Joint minimal-recurrence detection over the ``values`` sequences
    (callables k -> value), then certification; sampled data never certifies.

    Returns (ideal, candidate, note): the certified ideal, the detected one
    when it is not certified, and the verdict note.  An exact functional with
    declared recurrence r is detected on its first 2 deg(r) + 1 values,
    extended on demand: each sequence has linear complexity at most deg(r),
    so Berlekamp-Massey finds the joint minimal recurrence p whatever
    ``bound`` says, and p certifies after a residual re-check against r.  A
    sampled functional is detected on its declared window capped by
    ``bound`` and certifies only when the caller asserts that window exact.
    A negative bound leaves no window to detect on and is rejected.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    alg = phi.algebra
    exact = phi.exact_poly
    if exact is not None:
        d = 2 * polyutil.degree(exact)
    else:
        d = phi.declared_max if bound is None else min(phi.declared_max, bound)
    p = recurrence.minimal_annihilator([[f(k) for k in range(d + 1)] for f in values])
    if p is None:
        common = "common " if len(values) > 1 else ""
        return None, None, f"no {common}recurrence of order <= {d // 2}"
    ideal = PrincipalIdeal(alg, alg.from_poly(p))
    if exact is not None:
        # Every sequence satisfies the declared recurrence r, so the residual
        # k -> sum_i p_i s_{k+i} is r-recurrent; if it vanishes at deg(r)
        # consecutive positions it vanishes identically.
        need = polyutil.degree(exact) + polyutil.degree(p) + 1
        if not all(recurrence.satisfies([f(k) for k in range(need)], p) for f in values):
            raise AssertionError("detected recurrence failed the exact re-check")
        return ideal, None, ""
    if assume_exact:
        return ideal, None, "caller asserted the window is exact"
    return None, ideal, "recurrence found but values are sampled"


def check_quasifinite(phi: Functional, bound: int | None = None,
                      assume_exact: bool = False) -> QuasifiniteVerdict:
    """Find an ideal of finite codimension killed by phi on all of V_0.

    Finite-dimensional algebras are always quasifinite (zero ideal witness).
    Polynomial algebras run joint minimal-recurrence detection on the d_0 and
    c value sequences (``_certify_recurrence``): a functional carrying an
    exact recurrence always reports the minimal one, re-verified against it,
    and ``bound`` limits detection on sampled data only.  Sampled data
    certifies only when the caller asserts exactness; otherwise the detected
    recurrence comes back as the candidate.
    """
    alg = phi.algebra
    if alg.is_finite:
        return QuasifiniteVerdict("quasifinite_certified", Ideal(alg, []),
                                  note="finite-dimensional coefficient algebra")
    if alg.kind != "polynomial":
        return QuasifiniteVerdict("no_witness_up_to_bound", None,
                                  note=f"no recurrence detection for {alg.kind} kind")
    ideal, candidate, note = _certify_recurrence(
        phi, (phi.value_d0, phi.value_c), bound, assume_exact)
    status = "no_witness_up_to_bound" if ideal is None else "quasifinite_certified"
    return QuasifiniteVerdict(status, ideal, candidate=candidate, note=note)


def _largest_killed_ideal(phi: Functional, evals, name: str) -> Ideal:
    """The kernel of f -> (ev(f e_j))_{j, ev}, which is already an ideal: f in
    the kernel forces every multiple into it."""
    alg = phi.algebra
    if not alg.is_finite:
        raise UnsupportedKind(f"{name} needs a finite-dimensional algebra")
    dim = alg.dim
    rows = [[ev(alg.basis_product(i, j)) for i in range(dim)]
            for j in range(dim) for ev in evals]
    ideal = Ideal(alg, linalg.kernel(rows, dim))
    if not ideal.is_closed():
        raise AssertionError("kernel failed ideal stability")  # unreachable
    return ideal


def largest_d0_ideal(phi: Functional) -> Ideal:
    """The largest ideal J with phi(d_0 (x) J) = 0 (finite algebras)."""
    return _largest_killed_ideal(phi, (phi.eval_d0,), "largest_d0_ideal")


def largest_v0_ideal(phi: Functional) -> Ideal:
    """The largest ideal J with phi(Vir_0 (x) J) = 0 (finite algebras)."""
    return _largest_killed_ideal(phi, (phi.eval_d0, phi.eval_c), "largest_v0_ideal")


def depth_one_vector(phi: Functional, f: AlgebraElement) -> VermaVector:
    """The vector (d_{-1} (x) f) v."""
    terms = {((1, b),): c for b, c in f.coeffs.items()}
    return VermaVector(phi, EnvElement(phi.algebra, terms))


def _check_products(v: VermaVector, window, single: bool):
    """Raise WindowOverflow before any action when raising v by colors of the
    window, one raising letter if ``single`` else any raising word of v's
    depth, could form a product outside the algebra window (infinite kinds).

    Every product the action forms multiplies raising colors into a nonempty
    set L of letters (m, b) of one monomial of v.  A raising letter has
    mode >= 1 and meets another only inside a lowering letter, so up to
    sum_L m colors of a word meet L: the reach is additive over the letters.
    """
    alg = v.functional.algebra
    if alg.is_finite:
        return
    lo, hi = alg.window if window is None else window
    reach = []
    for mono in filter(None, v.env.terms):  # v itself meets no raising color
        for color, pick in ((lo, min), (hi, max)):
            # colors past 0 on this side add up, one per mode; else one suffices
            spread = not single and pick(color, 0) == color != 0
            weights = [b + m * color if spread else b for m, b in mono]
            gains = [w for w in weights if pick(w, 0) == w != 0]
            reach.append((sum(gains) if gains else pick(weights)) + (0 if spread else color))
    if reach and (min(reach) < alg.window[0] or max(reach) > alg.window[1]):
        raise WindowOverflow(f"raising colors of [{lo}, {hi}] reach [{min(reach)}, "
                             f"{max(reach)}] on this vector, outside window "
                             f"[{alg.window[0]}, {alg.window[1]}]")


def _is_singular(v: VermaVector, window=None) -> bool:
    """Do d_1 (x) e_b and d_2 (x) e_b kill v for every color b of the window?
    Each ``_action_rows`` row over v's monomials must kill v's coefficients."""
    phi = v.functional
    _check_products(v, window, single=True)
    monos, coeffs = list(v.env.terms), list(v.env.terms.values())
    return not any(sum(c * coeffs[col] for col, c in row.items())
                   for mode in (1, 2) for b in phi.algebra.window_indices(window)
                   for row in _action_rows(phi, mode, b, monos).values())


def check_verma_reducible(phi: Functional, bound: int | None = None,
                          assume_exact: bool = False) -> ReducibilityVerdict:
    """Decide Verma reducibility through ideals killed by phi on d_0 (x) A.

    A nonzero ideal J with phi(d_0 (x) J) = 0 certifies reducibility with
    explicit singular vector (d_{-1} (x) f) v, f in J.  For polynomial
    algebras with exact (or caller-asserted) data the converse holds as well:
    no ideal means irreducible.  For finite-dimensional algebras a zero ideal
    decides nothing (the classical Virasoro Verma modules can be reducible
    with J = 0), so the verdict stays open.

    Polynomial witnesses come from ``_certify_recurrence`` on the d_0 values
    alone (the c values play no role here, unlike in the quasifiniteness
    check): an exact functional always yields its minimal recurrence, and
    ``bound`` limits detection on sampled data only.

    The witness w = (d_{-1} (x) f) v is verified at run time: (d_1 (x) g) w =
    -2 phi(d_0 (x) g f) v and (d_2 (x) g) w = 0, so for exact phi the 2 deg r
    actions on the colors of ``_exact_colors`` prove w singular for every g.
    """
    alg = phi.algebra

    def certify(witness, gen_elt: AlgebraElement, note="") -> ReducibilityVerdict:
        vec = depth_one_vector(phi, gen_elt)
        verify_window = None
        if alg.kind == "polynomial":
            # colors keep products inside the window and sampled evaluations
            # inside the declared values; exact phi needs ``_exact_colors`` only
            deg_gen = max(gen_elt.support())
            narrow = _exact_colors(phi)
            hi = min(alg.window[1] - deg_gen,
                     phi.declared_max - deg_gen if narrow is None else narrow[1])
            verify_window = (0, max(0, hi))
        if not _is_singular(vec, window=verify_window):
            raise AssertionError("witness failed singular-vector verification")
        return ReducibilityVerdict("reducible_certified", witness, vec, note=note)

    if alg.is_finite:
        j0 = largest_d0_ideal(phi)
        if not j0.is_zero():
            return certify(j0, j0.basis_elements()[0])
        return ReducibilityVerdict(
            "no_witness_up_to_bound",
            note="no ideal witness; reducibility may still hold over a "
                 "finite-dimensional algebra")
    if alg.kind != "polynomial":
        return ReducibilityVerdict("no_witness_up_to_bound",
                                   note=f"no detection for {alg.kind} kind")
    ideal, candidate, note = _certify_recurrence(phi, (phi.value_d0,), bound, assume_exact)
    if ideal is not None:
        return certify(ideal, ideal.generator, note=note)
    if assume_exact:
        return ReducibilityVerdict(
            "irreducible_certified",
            note="no annihilating ideal and caller asserted exact values "
                 "(infinite-dimensional integral domain)")
    return ReducibilityVerdict("no_witness_up_to_bound", candidate=candidate, note=note)


def split_phi(phi: Functional) -> list[Functional]:
    """Split along the CRT idempotents of a product_local algebra.

    phi_i(x) = phi(e_i x); the pieces sum to phi exactly and each one kills
    Vir_0 tensored with the other factors' ideals.  Each is read off a piece
    of ``_local_pieces`` by ``_piece_on``, with no product in A.
    """
    alg = phi.algebra
    if alg.kind != "product_local":
        raise UnsupportedKind("split_phi needs a product_local algebra")
    return [_piece_on(alg, a, lam, kappa) for a, lam, kappa in _local_pieces(phi)]


# -- serialization ----------------------------------------------------------


def functional_to_spec(phi: Functional) -> dict:
    alg = phi.algebra
    if alg.kind == "polynomial":
        spec = {"d0_seq": [format_scalar(v) for v in phi._d0.values()],
                "c_seq": [format_scalar(v) for v in phi._c.values()]}
        if phi.exact_poly is not None:
            spec["exact_ideal"] = polyutil.pstr(phi.exact_poly)
        return spec
    # a finite kind reads a missing label as zero; a Laurent label marks an
    # exponent where phi is defined, so its zeros stay
    keep_zeros = not alg.is_finite
    return {name: {alg.label(k): format_scalar(v) for k, v in values.items()
                   if v != 0 or keep_zeros}
            for name, values in (("d0", phi._d0), ("c", phi._c))}


def functional_from_spec(algebra: Algebra, spec: dict) -> Functional:
    if "d0_seq" in spec or "c_seq" in spec:
        exact = spec.get("exact_ideal")
        if isinstance(exact, str):
            from .exprs import parse_poly_text
            exact = parse_poly_text(exact)
        return Functional.from_sequences(algebra,
                                         [as_scalar(x) for x in spec.get("d0_seq", [])],
                                         [as_scalar(x) for x in spec.get("c_seq", [])],
                                         exact_ideal=exact)
    return Functional.from_values(algebra, spec.get("d0", {}), spec.get("c", {}))
