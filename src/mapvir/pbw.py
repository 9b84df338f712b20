"""PBW basis of U(V_-) for the lowering half of Vir (x) A.

Generators are pairs (m, b) standing for d_{-m} (x) e_b with depth m >= 1 and
e_b a basis element of the coefficient algebra.  A monomial is a tuple of
generators stored in non-increasing order under

    (m1, b1) > (m2, b2)  <=>  (m1, -b1) >_lex (m2, -b2),

i.e. deeper generators first, and among equal depths the earlier basis element
first.  Monomials compare by (length, depth tuple, basis tuple), so longer
products always dominate.  The basis order is the input order for
structure-constants algebras and degree order for the monomial kinds; it is
echoed in report metadata.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Sequence

from .algebra import Algebra, _Vector
from .errors import NotLowering
from .liealg import LieElement
from .scalars import as_scalar, join_signed, signed_term

Generator = tuple[int, int]
Monomial = tuple[Generator, ...]


def genkey(gen: Generator):
    m, b = gen
    return (m, -b)


def monomial_key(mono: Monomial):
    return (len(mono),
            tuple([m for m, _ in mono]),
            tuple([-b for _, b in mono]))


def monomial_weight(mono: Monomial) -> int:
    return -sum(m for m, _ in mono)


class EnvElement(_Vector):
    """A finite rational combination of PBW monomials in U(V_-); its linear
    arithmetic is the shared ``algebra._Vector`` core."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, terms=None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = as_scalar(coeff)
            if coeff != 0:
                clean[tuple(mono)] = coeff
        self.algebra = algebra
        self._terms = clean

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def coeff(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def weights(self) -> set[int]:
        return {monomial_weight(m) for m in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def __repr__(self):
        return f"<{format_env(self)}>"


def _lincomb(parts) -> tuple:
    """sum of num/den * result over (num, den, result) parts.

    A result is a frozen (den, monomials, numerators) triple: the combination
    sum_i numerators[i]/den * monomials[i] with integer numerators over one
    positive denominator.  The sum comes back in that form, in lowest terms;
    zero is (1, (), ()).  Two flat tuples keep cached results compact.
    """
    # build tuples and star-args from lists: a tuple built from a generator is
    # resized, which piles freed tuples into free lists that only a full gc empties
    den = math.lcm(*[d * r[0] for _, d, r in parts])
    acc: dict = {}
    for num, d, (rden, monos, nums) in parts:
        f = num * (den // (d * rden))
        for mono, c in zip(monos, nums):
            acc[mono] = acc.get(mono, 0) + f * c
    acc = {mono: c for mono, c in acc.items() if c}
    g = math.gcd(den, *acc.values())
    return den // g, tuple(acc), tuple([c // g for c in acc.values()])


def _single(mono: Monomial) -> tuple:
    """The frozen result of the monomial itself."""
    return 1, (mono,), (1,)


def _left_mult(algebra: Algebra, gen: Generator, mono: Monomial) -> tuple:
    """Normal form of gen * mono in U(V_-), as a frozen result (see
    ``_lincomb``): integer numerators over one denominator, which is 1 unless
    basis products carry denominators.

    Straightening rule for an out-of-order adjacent pair (u smaller than h):

        u h = h u + [u, h],
        [d_{-mu} (x) e_bu, d_{-mh} (x) e_bh] = (mu - mh) d_{-(mu+mh)} (x) e_bu e_bh.

    No central terms arise: -mu = -(-mh) is impossible for positive depths.
    Results are cached per algebra and shared, so they are immutable tuples.
    """
    if not mono or genkey(gen) >= genkey(mono[0]):
        return _single((gen,) + mono)
    cache = algebra._caches.setdefault("pbw_left_mult", {})
    key = (gen, mono)
    hit = cache.get(key)
    if hit is not None:
        return hit
    head, rest = mono[0], mono[1:]
    den, monos, nums = _left_mult(algebra, gen, rest)
    parts = [(c2, den, _left_mult(algebra, head, m2)) for m2, c2 in zip(monos, nums)]
    mu, bu = gen
    mh, bh = head
    if mu != mh:
        parts += [((mu - mh) * nk, dk, _left_mult(algebra, (mu + mh, bk), rest))
                  for bk, nk, dk in algebra.product_terms(bu, bh)]
    out = cache[key] = _lincomb(parts)
    return out


def _letter_generators(letter: LieElement) -> list[tuple[Generator, Fraction]]:
    if not letter.c_part.is_zero():
        raise NotLowering("word letter has a central component")
    gens = []
    for n, f in letter.d_part.items():
        if n >= 0:
            raise NotLowering(f"word letter has a component in mode {n} >= 0")
        for b, cb in f.coeffs.items():
            gens.append(((-n, b), cb))
    return gens


def straighten(word: Sequence[LieElement]) -> EnvElement:
    """Image of the ordered product of the word letters in the PBW basis.

    Every letter must lie in V_- (negative modes, no central part).  The
    result is path-independent and weight-preserving.
    """
    word = list(word)
    if not word:
        raise ValueError("straighten needs a nonempty word")
    alg = word[0].algebra
    for letter in word[1:]:
        alg.require_compatible(letter.algebra)
    den, monos, nums = _single(())
    for letter in reversed(word):
        gens = _letter_generators(letter)
        den, monos, nums = _lincomb([(cm * cg.numerator, den * cg.denominator,
                                      _left_mult(alg, gen, mono))
                                     for mono, cm in zip(monos, nums) for gen, cg in gens])
    return EnvElement(alg, {mono: Fraction(c, den) for mono, c in zip(monos, nums)})


def height_hm(x: EnvElement) -> tuple[int, EnvElement]:
    """Height of the largest monomial and the highest term.

    The zero element has height -1 and highest term 0; the empty monomial
    (the unit of U(V_-)) has height 0.
    """
    if x.is_zero():
        return -1, EnvElement(x.algebra, {})
    top = max(x._terms, key=monomial_key)
    return len(top), EnvElement(x.algebra, {top: x._terms[top]})


def pbw_basis(weight: int, algebra: Algebra, window=None) -> list[Monomial]:
    """All PBW monomials of weight -weight, sorted descending.

    These are colored partitions of ``weight``: parts are generator depths,
    colors are algebra basis indices, or for the infinite kinds the exponents
    of ``window`` (default the algebra window; a wider one raises).
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    idxs = algebra.window_indices(window)
    if weight == 0:
        return [()]
    gens = [(m, b) for m in range(weight, 0, -1) for b in idxs]
    # depth-first over (monomial so far, depth left, first usable generator);
    # a worklist rather than a recursive closure, whose self-reference would
    # be a cycle keeping ``out`` alive until the next gc pass
    out: list[Monomial] = []
    work: list[tuple[Monomial, int, int]] = [((), weight, 0)]
    while work:
        mono, remaining, start = work.pop()
        if remaining == 0:
            out.append(mono)
            continue
        for i in range(start, len(gens)):
            if gens[i][0] <= remaining:
                work.append((mono + (gens[i],), remaining - gens[i][0], i))
    out.sort(key=monomial_key, reverse=True)
    return out


def colored_partition_counts(colors: int, max_n: int) -> list[int]:
    """len(pbw_basis(n, ...)) over ``colors`` colors for n = 0..max_n: the
    coefficients of prod_k (1 - q^k)^(-colors), one factor 1/(1 - q^k) at a
    time."""
    coeffs = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for _ in range(colors):
            for total in range(k, max_n + 1):
                coeffs[total] += coeffs[total - k]
    return coeffs


def format_monomial(mono: Monomial, algebra: Algebra) -> str:
    """Display form, e.g. "d[-2]*t . d[-1]*1"."""
    if not mono:
        return "1"
    return " . ".join(f"d[-{m}]*{algebra.label(b)}" for m, b in mono)


def format_env(x: EnvElement) -> str:
    terms = []
    for mono in sorted(x._terms, key=monomial_key, reverse=True):
        coeff = x._terms[mono]
        body = format_monomial(mono, x.algebra)
        if mono and abs(coeff) != 1:
            body = f"({body})"
        terms.append(signed_term(coeff, body))
    return join_signed(terms)
