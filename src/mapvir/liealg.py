"""The graded Lie algebra Vir (x) A: elements, bracket, grading.

Basis symbols are d_n (x) f for integer modes n and c (x) g for the central
direction, with

    [d_m (x) f, d_n (x) g] = (n - m) d_{m+n} (x) fg
                             + delta_{m,-n} (m^3 - m)/12 c (x) fg,

and c (x) A central.  The central scalar is an exact rational; no
normalization of c is applied.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .algebra import Algebra, AlgebraElement, _Vector, format_element
from .errors import ModeRangeError
from .records import FrozenRecord
from .scalars import as_scalar, join_signed, signed_term

MODE_MAX_DEFAULT = 64


def _read_mode_max(raw: str | None) -> int | str:
    """The bound MAPVIR_MODE_MAX sets, or why the value is invalid."""
    if raw is None:
        return MODE_MAX_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        return f"MAPVIR_MODE_MAX={raw!r} is not an integer"
    return value if value >= 1 else "MAPVIR_MODE_MAX must be positive"


# read once, at import; an invalid value is reported when a mode is checked
_MODE_MAX = _read_mode_max(os.environ.get("MAPVIR_MODE_MAX"))


def mode_max() -> int:
    """The |n| bound on stored modes; override with MAPVIR_MODE_MAX."""
    if isinstance(_MODE_MAX, str):
        raise ModeRangeError(_MODE_MAX)
    return _MODE_MAX


def _check_mode(n: int) -> int:
    n = int(n)
    bound = mode_max()
    if abs(n) > bound:
        raise ModeRangeError(f"mode {n} exceeds the bound |n| <= {bound}")
    return n


_CENTRAL = None  # the _terms key of the central part c (x) g


class LieElement(_Vector):
    """A finite sum  sum_n d_n (x) f_n  +  c (x) g: a sparse vector of
    AlgebraElement coefficients whose ``_terms`` map each mode n to its
    nonzero f_n and the key None to a nonzero g.  Its linear arithmetic is
    the shared ``algebra._Vector`` core."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, d_part=None, c_part=None):
        terms: dict[int | None, AlgebraElement] = {}
        for n, f in (d_part or {}).items():
            algebra.require_compatible(f.algebra)
            if not f.is_zero():
                terms[_check_mode(n)] = f
        if c_part is not None:
            algebra.require_compatible(c_part.algebra)
            if not c_part.is_zero():
                terms[_CENTRAL] = c_part
        self.algebra = algebra
        self._terms = terms

    def _like(self, terms):
        c_part = terms.pop(_CENTRAL, None)
        return LieElement(self.algebra, terms, c_part)

    @property
    def d_part(self) -> dict[int, AlgebraElement]:
        return {n: f for n, f in self._terms.items() if n is not _CENTRAL}

    @property
    def c_part(self) -> AlgebraElement:
        c_part = self._terms.get(_CENTRAL)
        return self.algebra.zero() if c_part is None else c_part

    def modes(self) -> list[int]:
        return sorted(self.d_part)

    def __repr__(self):
        return f"<{format_lie_element(self)}>"


def _coefficient(algebra: Algebra, coeff) -> AlgebraElement:
    """coeff as an element of algebra: 1 for None, s * 1 for a scalar s."""
    if coeff is None:
        return algebra.one()
    if isinstance(coeff, (int, Fraction, str)):
        return algebra.one().scale(as_scalar(coeff))
    return coeff


def d_term(algebra: Algebra, n: int, coeff=None) -> LieElement:
    """The element d_n (x) coeff (coeff defaults to 1)."""
    return LieElement(algebra, {n: _coefficient(algebra, coeff)})


def c_term(algebra: Algebra, coeff=None) -> LieElement:
    """The central element c (x) coeff (coeff defaults to 1)."""
    return LieElement(algebra, {}, _coefficient(algebra, coeff))


def central_scalar(m: int) -> Fraction:
    """The cocycle value (m^3 - m)/12 attached to [d_m, d_{-m}]."""
    return Fraction(m ** 3 - m, 12)


CONVENTION_NOTE = ("bracket [d_m, d_n] = (n-m) d_{m+n} "
                   "+ delta_{m,-n} (m^3-m)/12 c")


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket; bilinear, antisymmetric, with c (x) A central."""
    x.algebra.require_compatible(y.algebra)
    alg = x.algebra
    d_out: dict[int, AlgebraElement] = {}
    c_out = alg.zero()
    y_d = y.d_part
    for m, f in x.d_part.items():
        for n, g in y_d.items():
            fg = f * g
            if fg.is_zero():
                continue
            coeff = n - m
            if coeff != 0:
                k = _check_mode(m + n)
                term = fg.scale(coeff)
                d_out[k] = d_out[k] + term if k in d_out else term
            if m == -n:
                cs = central_scalar(m)
                if cs != 0:
                    c_out = c_out + fg.scale(cs)
    return LieElement(alg, d_out, c_out)


class GradeComponent(FrozenRecord):
    """A single graded piece; the c part always sits in mode 0."""

    __slots__ = ("mode", "element")

    def __init__(self, mode: int, element: LieElement):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "element", element)


def grade_decompose(x: LieElement) -> list[GradeComponent]:
    """Split into graded components, sorted by mode; their sum is x."""
    d, c = x.d_part, x.c_part
    comps = []
    for n in sorted(d):
        if n == 0:
            continue
        comps.append(GradeComponent(n, LieElement(x.algebra, {n: d[n]})))
    if 0 in d or not c.is_zero():
        zero_part = LieElement(x.algebra, {0: d[0]} if 0 in d else {}, c)
        comps.append(GradeComponent(0, zero_part))
    comps.sort(key=lambda gc: gc.mode)
    return comps


def format_lie_element(x: LieElement) -> str:
    """Render, e.g. "-4*d[0] + 1/2*c" over Q or "d[-1]*(t) + c*(1/2)" in general."""
    parts: list[tuple[bool, str]] = []  # (negative, body without sign)

    def push(coeff: AlgebraElement, symbol: str):
        scalar = _as_plain_scalar(coeff)
        if scalar is not None:
            parts.append(signed_term(scalar, symbol))
        else:
            parts.append((False, f"{symbol}*({format_element(coeff)})"))

    for n, f in sorted(x.d_part.items()):
        push(f, f"d[{n}]")
    if not x.c_part.is_zero():
        push(x.c_part, "c")
    return join_signed(parts)


def _as_plain_scalar(f: AlgebraElement):
    """If f is a scalar multiple of 1, return the scalar, else None."""
    one = f.algebra.one()
    for i, c in one.coeffs.items():
        scalar = f.coeff(i) / c
        if f == one.scale(scalar):
            return scalar
        break
    return None
