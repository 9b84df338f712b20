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
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, AlgebraElement, format_element
from .errors import ModeRangeError
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


class LieElement:
    """A finite sum  sum_n d_n (x) f_n  +  c (x) g."""

    __slots__ = ("algebra", "_d", "_c")

    def __init__(self, algebra: Algebra, d_part=None, c_part=None):
        d_clean: dict[int, AlgebraElement] = {}
        for n, f in (d_part or {}).items():
            algebra.require_compatible(f.algebra)
            if not f.is_zero():
                d_clean[_check_mode(n)] = f
        if c_part is None:
            c_part = algebra.zero()
        algebra.require_compatible(c_part.algebra)
        self.algebra = algebra
        self._d = d_clean
        self._c = c_part

    @property
    def d_part(self) -> dict[int, AlgebraElement]:
        return dict(self._d)

    @property
    def c_part(self) -> AlgebraElement:
        return self._c

    def modes(self) -> list[int]:
        return sorted(self._d)

    def is_zero(self) -> bool:
        return not self._d and self._c.is_zero()

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        self.algebra.require_compatible(other.algebra)
        d = dict(self._d)
        for n, f in other._d.items():
            d[n] = d[n] + f if n in d else f
        return LieElement(self.algebra, d, self._c + other._c)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LieElement(self.algebra, {n: -f for n, f in self._d.items()}, -self._c)

    def scale(self, s) -> "LieElement":
        s = as_scalar(s)
        return LieElement(self.algebra,
                          {n: f.scale(s) for n, f in self._d.items()},
                          self._c.scale(s))

    def __mul__(self, s):
        if isinstance(s, (int, Fraction)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return (self.algebra.compatible(other.algebra)
                and self._d == other._d and self._c == other._c)

    def __hash__(self):
        return hash((self.algebra.signature,
                     frozenset(self._d.items()), self._c))

    def __repr__(self):
        return f"<{format_lie_element(self)}>"


def d_term(algebra: Algebra, n: int, coeff=None) -> LieElement:
    """The element d_n (x) coeff (coeff defaults to 1)."""
    if coeff is None:
        coeff = algebra.one()
    elif isinstance(coeff, (int, Fraction, str)):
        coeff = algebra.one().scale(as_scalar(coeff))
    return LieElement(algebra, {n: coeff})


def c_term(algebra: Algebra, coeff=None) -> LieElement:
    """The central element c (x) coeff (coeff defaults to 1)."""
    if coeff is None:
        coeff = algebra.one()
    elif isinstance(coeff, (int, Fraction, str)):
        coeff = algebra.one().scale(as_scalar(coeff))
    return LieElement(algebra, {}, coeff)


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
    for m, f in x._d.items():
        for n, g in y._d.items():
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


@dataclass(frozen=True)
class GradeComponent:
    """A single graded piece; the c part always sits in mode 0."""

    mode: int
    element: LieElement


def grade_decompose(x: LieElement) -> list[GradeComponent]:
    """Split into graded components, sorted by mode; their sum is x."""
    comps = []
    for n in sorted(x._d):
        if n == 0:
            continue
        comps.append(GradeComponent(n, LieElement(x.algebra, {n: x._d[n]})))
    if 0 in x._d or not x._c.is_zero():
        zero_part = LieElement(x.algebra,
                               {0: x._d[0]} if 0 in x._d else {},
                               x._c)
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

    for n in sorted(x._d):
        push(x._d[n], f"d[{n}]")
    if not x._c.is_zero():
        push(x._c, "c")
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
