"""Dense univariate polynomial arithmetic over the rationals.

Polynomials are tuples of Fractions indexed by exponent, trailing zeros
stripped; the zero polynomial is the empty tuple.  They are built from lists,
not generators, for the free-list reason given in ``pbw._lincomb``.

The integer helpers at the end work on lists of ints, low degree first and
not trimmed: a rational polynomial enters as its numerators over one
denominator (``cleared``) and leaves as one Fraction per coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .scalars import join_signed, signed_term

Poly = tuple[Fraction, ...]


def trim(coeffs: Sequence[Fraction]) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple([Fraction(x) for x in c])


def degree(p: Poly) -> int:
    """Degree, with deg 0 = -1."""
    return len(p) - 1


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def pscale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple([c * x for x in p])


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def ppow(p: Poly, n: int) -> Poly:
    out: Poly = (Fraction(1),)
    for _ in range(n):
        out = pmul(out, p)
    return out


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i] == 0:
            continue
        f = rem[i] / lead
        quo[i - dq] = f
        for j, b in enumerate(q):
            rem[i - dq + j] -= f * b
    return trim(quo), trim(rem)


def pmod(p: Poly, q: Poly) -> Poly:
    return pdivmod(p, q)[1]


def pmonic(p: Poly) -> Poly:
    if not p:
        return ()
    return tuple([x / p[-1] for x in p])


def pgcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd."""
    a, b = p, q
    while b:
        a, b = b, pmod(a, b)
    return pmonic(a)


def plcm(p: Poly, q: Poly) -> Poly:
    """Monic lcm of two nonzero polynomials."""
    return pmonic(pdivmod(pmul(p, q), pgcd(p, q))[0])


def peval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots with multiplicities, plus the rootless cofactor.

    Uses the rational root bound on the integer-cleared polynomial; this is
    root extraction for univariate polynomials, not general factorization.
    """
    if not p:
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    rem = p
    zero_mult = 0
    while len(rem) > 1 and rem[0] == 0:
        rem = rem[1:]
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    while len(rem) > 1:
        root = _find_rational_root(rem)
        if root is None:
            break
        mult = 0
        while True:
            quo, r = pdivmod(rem, (-root, Fraction(1)))
            if r:
                break
            rem = quo
            mult += 1
        roots.append((root, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, rem


def _find_rational_root(p: Poly) -> Fraction | None:
    from math import gcd

    scale = 1
    for c in p:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p]
    const, lead = ints[0], ints[-1]
    if const == 0:
        return Fraction(0)
    for num in _divisors(abs(const)):
        for den in _divisors(abs(lead)):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if peval(p, cand) == 0:
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def pstr(p: Poly) -> str:
    """Human form, highest degree first: "t^2 - 2*t + 1"."""
    return join_signed(signed_term(p[k], "1" if k == 0 else "t" if k == 1 else f"t^{k}")
                       for k in range(len(p) - 1, -1, -1) if p[k])


# -- integer polynomials ---------------------------------------------------------


def cleared(p: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, d) with p = numerators / d, d the lcm of p's denominators."""
    den = math.lcm(*[x.denominator for x in p])
    return [x.numerator * (den // x.denominator) for x in p], den


def times_linear(p: list[int], u: int, v: int) -> list[int]:
    """p (v t - u), one degree up."""
    return [v * x - u * y for x, y in zip([0, *p], [*p, 0])]


def shifted(p: list[int], u: int, v: int, n: int) -> list[int]:
    """v^deg p((u + v s) / v) mod s^n, deg = len(p) - 1, by Horner in u + v s:
    the first n Taylor coefficients of p at u/v, times v^deg.  With -u and
    n = len(p) it is the whole of v^deg p(t - u/v) instead."""
    acc, scale = [0] * n, 1
    for c in reversed(p):
        acc = [u * x + v * y for x, y in zip(acc, [0, *acc])]
        acc[0] += c * scale
        scale *= v
    return acc
