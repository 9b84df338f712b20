"""Minimal linear recurrence detection over exact rationals.

Given windowed sequences s_0, ..., s_D, find the smallest monic polynomial
p = p_0 + p_1 x + ... + x^r with

    sum_i p_i s_{k+i} = 0   for every window position k

jointly for all given sequences.  The order is capped at floor(D/2), where
s_D ends the shortest window.  Each window's minimal recurrence comes from
Berlekamp-Massey over Fractions; within the cap it is unique and divides
every annihilator of capped order, so the joint one is the lcm of the
per-window ones.  A returned polynomial annihilates the windows exactly and a
None answer means no recurrence of capped order exists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import polyutil


def minimal_annihilator(seqs: Sequence[Sequence[Fraction]],
                        max_order: int | None = None) -> polyutil.Poly | None:
    """Smallest common monic annihilating polynomial, or None.

    Order 0 (the constant polynomial 1) is reported exactly when every
    sequence is identically zero on its window.
    """
    seqs = [s for s in seqs if len(s) > 0]
    cap = (min(map(len, seqs), default=1) - 1) // 2
    if max_order is not None:
        cap = min(cap, max_order)
    p: polyutil.Poly = (Fraction(1),)
    for s in seqs:
        q = _berlekamp_massey(s, cap)
        if q is None:
            return None
        p = polyutil.plcm(p, q)
        if polyutil.degree(p) > cap:
            return None
    return p


def _berlekamp_massey(seq: Sequence[Fraction], cap: int) -> polyutil.Poly | None:
    """Minimal monic annihilator of one window, or None once its order
    (the linear complexity, which never decreases) passes ``cap``.

    Tracks the connection polynomial c = 1 + c_1 x + ... + c_L x^L with
    s_n + sum_i c_i s_{n-i} = 0; the annihilator is x^L c(1/x).
    """
    c = [Fraction(1)]
    b = [Fraction(1)]
    order, shift, last = 0, 1, Fraction(1)
    for n, x in enumerate(seq):
        disc = x + sum(c[i] * seq[n - i] for i in range(1, len(c)))
        if disc == 0:
            shift += 1
            continue
        f = disc / last
        update = c + [Fraction(0)] * (len(b) + shift - len(c))
        for i, y in enumerate(b):
            update[i + shift] -= f * y
        if 2 * order <= n:
            b, order, shift, last = c, n + 1 - order, 1, disc
            if order > cap:
                return None
        else:
            shift += 1
        c = update
    c += [Fraction(0)] * (order + 1 - len(c))
    return tuple(c[order::-1])


def satisfies(seq: Sequence[Fraction], p: polyutil.Poly) -> bool:
    """Does the windowed sequence satisfy the recurrence with char poly p?"""
    r = polyutil.degree(p)
    if r < 0:
        return all(x == 0 for x in seq)
    for k in range(len(seq) - r):
        if sum(p[i] * seq[k + i] for i in range(r + 1)) != 0:
            return False
    return True


def extend(seq: Sequence[Fraction], p: polyutil.Poly, length: int) -> list[Fraction]:
    """Extend a p-recurrent sequence to the requested length (p monic)."""
    r = polyutil.degree(p)
    if r <= 0:
        raise ValueError("extension needs a recurrence of positive order")
    out = [Fraction(x) for x in seq]
    if len(out) < r:
        raise ValueError("not enough initial values for the recurrence order")
    while len(out) < length:
        k = len(out) - r
        out.append(-sum(p[i] * out[k + i] for i in range(r)))
    return out
