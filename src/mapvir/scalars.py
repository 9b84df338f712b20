"""Exact rational scalars and their canonical string form.

Every scalar in the library is a ``fractions.Fraction`` (arbitrary precision,
normalized sign and gcd).  The wire format is ``"p/q"``, or ``"p"`` when the
denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Scalar = Fraction


def as_scalar(value) -> Fraction:
    """Coerce an int, string or Fraction to a Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_scalar(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def signed_term(c: Fraction, symbol: str) -> tuple[bool, str]:
    """The (negative, unsigned body) term of c*symbol for ``join_signed``:
    the bare scalar for the symbol "1", the bare symbol when |c| = 1, and
    "|c|*symbol" otherwise."""
    mag = abs(c)
    if symbol == "1":
        return c < 0, format_scalar(mag)
    return c < 0, symbol if mag == 1 else f"{format_scalar(mag)}*{symbol}"


def join_signed(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, unsigned body) terms as "a - b + c": the first term
    takes a bare "-", later ones "+ " or "- "; no terms give "0"."""
    out = []
    for negative, body in terms:
        sign = ("- " if negative else "+ ") if out else ("-" if negative else "")
        out.append(sign + body)
    return " ".join(out) or "0"
