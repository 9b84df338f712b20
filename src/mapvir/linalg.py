"""Dense exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Everything here is small (desk
scale), so plain Gauss-Jordan with exact arithmetic is the right tool.
``row_basis`` works on integer rows instead, where only the row space counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Row = list[Fraction]


def _copy(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices).  Rows are normalized to a
    leading 1 and fully reduced, so equal row spaces give identical output.
    """
    m = _copy(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def row_basis(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Echelon basis of the row space of integer rows, fraction-free.

    Each row is reduced against the basis found so far by cross-multiplying
    with its pivot rows and dividing out the content, so entries stay
    coprime integers and no per-entry gcd is paid as with Fractions.  Basis
    rows have a positive leading entry and are ordered by pivot column; they
    are not reduced above their pivots.  Stops once ncols pivots are found.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
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


def reduce_against(rref_rows: Sequence[Row], pivots: Sequence[int],
                   vec: Sequence[Fraction]) -> Row:
    """Residual of vec modulo the row space (rows must be in RREF)."""
    out = [Fraction(x) for x in vec]
    for row, p in zip(rref_rows, pivots):
        f = out[p]
        if f != 0:
            out = [a - f * b for a, b in zip(out, row)]
    return out


def in_row_span(rref_rows: Sequence[Row], pivots: Sequence[int],
                vec: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in reduce_against(rref_rows, pivots, vec))


def kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Row]:
    """Basis of the right null space {x : M x = 0}."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """One exact solution x of M x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return x


def row_space_intersection(rows_a: Sequence[Sequence[Fraction]],
                           rows_b: Sequence[Sequence[Fraction]],
                           ncols: int) -> list[Row]:
    """Basis (RREF) of the intersection of two row spaces."""
    a = [list(r) for r in rows_a]
    b = [list(r) for r in rows_b]
    if not a or not b:
        return []
    # alpha·A = beta·B  <=>  (alpha, beta) in the kernel of [A^T | -B^T]
    stacked = []
    for c in range(ncols):
        stacked.append([row[c] for row in a] + [-row[c] for row in b])
    combos = kernel(stacked, len(a) + len(b))
    vecs = []
    for combo in combos:
        v = [Fraction(0)] * ncols
        for coef, row in zip(combo[: len(a)], a):
            if coef != 0:
                v = [x + coef * y for x, y in zip(v, row)]
        vecs.append(v)
    red, _ = rref(vecs)
    return red
