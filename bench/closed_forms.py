"""Closed forms the benchmark checks mapvir's answers against.

Nothing here imports mapvir: plain integer and Fraction arithmetic only, so a
bug in the library cannot hide behind the same bug in its check.

Sign convention: mapvir writes [d_m, d_n] = (n - m) d_{m+n} + ..., so its
highest weight is minus the textbook one (h -> -h); the central charge is
unchanged.  Functions taking ``h`` here take the textbook value.
"""

from __future__ import annotations

from fractions import Fraction


def colored_partitions(colors: int, max_n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k)^(-colors) through q^max_n."""
    series = [1] + [0] * max_n
    for _ in range(colors):
        for k in range(1, max_n + 1):
            for n in range(k, max_n + 1):
                series[n] += series[n - k]
    return series


def convolve(a: list[int], b: list[int], max_n: int) -> list[int]:
    """Product of two power series, truncated after q^max_n."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(max_n + 1)]


def minimal_model_character(p: int, pp: int, r: int, s: int, max_n: int) -> list[int]:
    """Graded dimensions of the irreducible module L(h_{r,s}, c_{p,p'}).

    Rocha-Caridi: the character is sum_k (q^{e1(k)} - q^{e2(k)}) / prod (1 - q^n)
    with e1 = pp' k^2 + k (p r - p' s) and e2 = pp' k^2 + k (p r + p' s) + r s,
    where c = 1 - 6 (p - p')^2 / (p p') and h = ((p r - p' s)^2 - (p - p')^2) / (4 p p').
    """
    num = [0] * (max_n + 1)
    for k in range(-max_n - 1, max_n + 2):
        e1 = p * pp * k * k + k * (p * r - pp * s)
        e2 = p * pp * k * k + k * (p * r + pp * s) + r * s
        if 0 <= e1 <= max_n:
            num[e1] += 1
        if 0 <= e2 <= max_n:
            num[e2] -= 1
    return convolve(num, colored_partitions(1, max_n), max_n)


def minimal_model_weight(p: int, pp: int, r: int, s: int) -> tuple[Fraction, Fraction]:
    """(h_{r,s}, c_{p,p'}) in the textbook convention."""
    h = Fraction((p * r - pp * s) ** 2 - (p - pp) ** 2, 4 * p * pp)
    c = 1 - Fraction(6 * (p - pp) ** 2, p * pp)
    return h, c


def kac_vanishes(h: Fraction, c: Fraction, max_n: int) -> bool:
    """Does the Kac determinant vanish at some level <= max_n?

    Uses the rational factors (h - h_{r,r}) and (h - h_{r,s})(h - h_{s,r}) of
    the Kac determinant, with c = 13 - 6 u and u = t + 1/t.
    """
    h = Fraction(h)
    u = (13 - Fraction(c)) / 6
    for r in range(1, max_n + 1):
        for s in range(r, max_n // r + 1):
            a = Fraction(r * r - 1, 4)
            b = Fraction(1 - r * s, 2)
            cc = Fraction(s * s - 1, 4)
            if r == s:
                if h == a * (u - 2):
                    return True
                continue
            total = (a + cc) * u + 2 * b
            prod = a * a + b * b + cc * cc + b * (a + cc) * u + a * cc * (u * u - 2)
            if h * h - total * h + prod == 0:
                return True
    return False


def top_form_degenerate(lam: Fraction, kap: Fraction, max_n: int) -> bool:
    """Does n -> -2 n lam + (n^3 - n) kap / 12 vanish for some 1 <= n <= max_n?

    (lam, kap) are the functional's values on d_0 and c tensored with the top
    power of the maximal ideal of a local algebra Q[t]/t^k.  When the form is
    nonzero at every level the Verma module is irreducible and the quotient
    has the full colored-partition dimensions.
    """
    return any(-2 * n * lam + Fraction(n ** 3 - n, 12) * kap == 0
               for n in range(1, max_n + 1))


def berlekamp_massey(seq: list[Fraction]) -> tuple[Fraction, ...]:
    """Monic minimal recurrence polynomial of seq, ascending coefficients.

    Returns p with sum_i p_i s_{k+i} = 0 for every window position k; its
    degree is the linear complexity of the sequence.
    """
    conn = [Fraction(1)]
    prev = [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n, x in enumerate(seq):
        disc = x + sum(conn[i] * seq[n - i] for i in range(1, length + 1))
        if disc == 0:
            shift += 1
            continue
        coef = disc / last
        new = conn + [Fraction(0)] * max(0, len(prev) + shift - len(conn))
        for i, v in enumerate(prev):
            new[i + shift] -= coef * v
        if 2 * length <= n:
            prev, length, last, shift = conn, n + 1 - length, disc, 1
        else:
            shift += 1
        conn = new
    conn = conn + [Fraction(0)] * (length + 1 - len(conn))
    return tuple(conn[length - i] for i in range(length + 1))


def poly_from_roots(roots: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Ascending coefficients of prod (t - a)^m over (a, m)."""
    out = [Fraction(1)]
    for a, m in roots:
        for _ in range(m):
            nxt = [Fraction(0)] * (len(out) + 1)
            for i, v in enumerate(out):
                nxt[i + 1] += v
                nxt[i] -= a * v
            out = nxt
    return tuple(out)


def extend_recurrence(init: list[Fraction], p: tuple[Fraction, ...], length: int) -> list[Fraction]:
    """Extend initial values by the monic recurrence p to the given length."""
    r = len(p) - 1
    out = list(init)
    while len(out) < length:
        k = len(out) - r
        out.append(-sum(p[i] * out[k + i] for i in range(r)))
    return out
