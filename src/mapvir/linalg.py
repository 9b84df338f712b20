"""Dense exact linear algebra over the rationals, plus one mod-p rank test.

What it holds: ``row_basis``, ``rref``, ``rank``, ``kernel`` and
``full_rank_mod_p``.  Matrices are lists of rows of Fractions (ints are
accepted too).  ``row_basis`` and ``kernel`` also take sparse integer rows
``{column: int}``, as the Verma action builds them.  There is one exact
elimination loop, ``row_basis``: it is fraction-free on integer rows, so
``rref``, ``rank`` and ``kernel`` first scale each row of Fractions to
integers, while a sparse integer row goes in as it is.  Fractions appear only
in what ``kernel`` returns and when ``rref`` normalizes pivots and
back-substitutes.  Membership, reduction and intersection of row-reduced
ideals live in ``algebra.Ideal``.

``full_rank_mod_p`` eliminates sparse integer rows over F_p for the fixed
prime ``PRIME``.  It can only certify: an integer matrix's rank mod p never
exceeds its rank over Q, so a full rank mod p is a full rank over Q, while
"not shown" says nothing and callers fall back to ``row_basis``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .polyutil import cleared

Row = list[Fraction]
SparseRow = dict[int, int]

PRIME = 2**31 - 1
_ZERO = Fraction(0)


def _echelon(rows: Sequence[Sequence[Fraction] | SparseRow], ncols: int) -> list[list[int]]:
    """``row_basis`` of the rows, each sequence first scaled by the lcm of its
    denominators, which keeps the row space; sparse integer rows go as they are."""
    return row_basis([row if isinstance(row, dict) else cleared(row)[0] for row in rows], ncols)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices).  Rows are normalized to a
    leading 1 and fully reduced, so equal row spaces give identical output.
    The echelon basis comes from the fraction-free ``row_basis``; only its
    r rows are divided by their pivots and back-substituted upward.
    """
    basis = _echelon(rows, len(rows[0]) if rows else 0)
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    red = [[Fraction(x, b[p]) for x in b] for b, p in zip(basis, pivots)]
    for i in range(len(red) - 1, 0, -1):
        nonzero = [(j, x) for j, x in enumerate(red[i]) if x]
        p = pivots[i]
        for row in red[:i]:
            f = row[p]
            if f:
                for j, x in nonzero:
                    row[j] -= f * x
    return red, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(rows, len(rows[0]) if rows else 0))


def row_basis(rows: Iterable[Sequence[int] | SparseRow], ncols: int) -> list[list[int]]:
    """Echelon basis of the row space of integer rows, fraction-free.

    A row is a sequence of ncols ints or a sparse {column: int} row; either
    is copied once into the dense working row.  Each row is reduced against
    the basis found so far by cross-multiplying with its pivot rows and
    dividing out the content, so entries stay coprime integers and no
    per-entry gcd is paid as with Fractions.  Basis rows have a positive
    leading entry and are ordered by pivot column; they are not reduced
    above their pivots.  Stops once ncols pivots are found.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        if isinstance(row, dict):
            v = [0] * ncols
            for col, x in row.items():
                v[col] = x
        else:
            v = list(row)
        for p in sorted(basis):
            g = v[p]
            if g:
                b = basis[p]
                f = b[p]
                v = [f * x - g * y for x, y in zip(v, b)]
                content = math.gcd(*v)
                if content > 1:
                    v = [x // content for x in v]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        content = math.gcd(*v)
        if v[lead] < 0:
            content = -content
        basis[lead] = [x // content for x in v]
        if len(basis) == ncols:
            break
    return [basis[p] for p in sorted(basis)]


def full_rank_mod_p(rows: Iterable[dict[int, int]], ncols: int) -> bool:
    """True when the sparse integer rows ({column: int}) have rank ncols mod
    ``PRIME``, hence over Q; False only means that the test did not show it.
    Pivot rows have a leading 1, and a row is cleared lowest column first."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        v = {c: x % PRIME for c, x in row.items() if x % PRIME}
        while v:
            lead = min(v)
            f = v.pop(lead)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(f, -1, PRIME)
                pivots[lead] = [(c, x * inv % PRIME) for c, x in v.items()]
                break
            for c, x in piv:
                y = (v.get(c, 0) - f * x) % PRIME
                if y:
                    v[c] = y
                else:  # f and x are units, so c was in v
                    del v[c]
        if len(pivots) == ncols:
            return True
    return len(pivots) == ncols


def kernel(rows: Sequence[Sequence[Fraction] | SparseRow], ncols: int) -> list[Row]:
    """Basis of the right null space {x : M x = 0}: for each non-pivot column
    f, the solution with x_f = 1 and 0 at the other non-pivot columns.  Rows
    are sequences of Fractions or ints, or sparse {column: int} rows.  Each
    vector is back-substituted in integers over ``_echelon``'s fraction-free
    rows, with one common denominator; Fractions are built only for its
    nonzero entries, and its zeros share one Fraction(0)."""
    basis = _echelon(rows, ncols)
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    out = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[fc] = den = 1
        for b, p in zip(reversed(basis), reversed(pivots)):
            s = sum([x * y for x, y in zip(b[p + 1:], v[p + 1:]) if y])
            if s:  # b_p v_p + s = 0
                g = math.gcd(s, b[p])
                f = b[p] // g
                if f > 1:
                    v = [x * f for x in v]
                    den *= f
                v[p] = -s // g
        out.append([Fraction(x, den) if x else _ZERO for x in v])
    return out
