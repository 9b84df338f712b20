"""Dense univariate polynomial arithmetic over the rationals.

Polynomials are tuples of Fractions indexed by exponent, trailing zeros
stripped; the zero polynomial is the empty tuple.  They are built from lists,
not generators, for the free-list reason given in ``pbw._frozen``.

The integer helpers at the end work on lists of ints, low degree first and
not trimmed: a rational polynomial enters as its numerators over one
denominator (``cleared``) and leaves as one Fraction per coefficient.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

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

    Uses the rational root bound on the integer-cleared polynomial a: a root
    u/v in lowest terms has u | a_0 and v | lead(a), and then v t - u divides
    a in integers (Gauss's lemma), so each candidate is tested and divided
    out by one exact integer division.  This is root extraction for
    univariate polynomials, not general factorization.
    """
    if not p:
        raise ValueError("zero polynomial")
    a, _ = cleared(p)
    zeros = next(k for k, x in enumerate(a) if x)
    a = a[zeros:]
    roots = [(Fraction(0), zeros)] if zeros else []
    while len(a) > 1:
        for u, v in _root_candidates(a):
            q = _divide_linear(a, u, v)
            if q is not None:
                break
        else:
            break  # no rational root left
        mult = 0
        while q is not None:
            a, mult = q, mult + 1
            q = _divide_linear(a, u, v)
        roots.append((Fraction(u, v), mult))
    roots.sort(key=lambda rm: rm[0])
    scale = Fraction(p[-1]) / a[-1]  # the cofactor keeps p's leading coefficient
    return roots, tuple([x * scale for x in a])


def _root_candidates(a: list[int]):
    """(u, v), v > 0 and gcd(u, v) = 1, with u | a_0 and v | lead(a); a_0 != 0."""
    for u in _divisors(abs(a[0])):
        for v in _divisors(abs(a[-1])):
            if math.gcd(u, v) == 1:
                yield u, v
                yield -u, v


def _divide_linear(a: list[int], u: int, v: int) -> list[int] | None:
    """a / (v t - u) when it divides a exactly in integers, else None: the
    quotient's coefficients from the top, q_{k-1} = (a_k + u q_k) / v, with
    remainder a_0 + u q_0."""
    q = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1, 0, -1):
        carry, r = divmod(a[k] + u * carry, v)
        if r:
            return None
        q[k - 1] = carry
    return q if a[0] + u * carry == 0 else None


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


def exact_sqrt(num: int, den: int) -> int | None:
    """The integer y >= 0 with y^2 = num / den (den != 0), when there is one."""
    q, r = divmod(num, den)
    if r or q < 0:
        return None
    y = math.isqrt(q)
    return y if y * y == q else None


def pseudo_rem(p: list[int], m: list[int]) -> tuple[list[int], int]:
    """(r, s) with r / s = p mod m, r padded to deg m coefficients: each step
    that clears a nonzero top coefficient multiplies by lead(m), so
    s = lead(m)^steps and r stays integral."""
    d, lead, scale = len(m) - 1, m[-1], 1
    r = list(p)
    while len(r) > d:
        top = r.pop()
        if top:
            if lead != 1:
                r = [lead * x for x in r]
                scale *= lead
            off = len(r) - d
            for j in range(d):
                r[off + j] -= top * m[j]
    return r + [0] * (d - len(r)), scale


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
