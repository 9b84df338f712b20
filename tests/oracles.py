"""Independent oracle implementations for the test suite.

Nothing here reuses the library's linear algebra or PBW action paths: ranks
come from plain Fraction Gauss elimination, the classical Virasoro action is a
worklist rewriter on bare mode tuples (and the action of Vir (x) A another,
on (mode, color) letters over a hand-written product table), the zeros of the
Kac determinant come from the h_{r,s} formula (and their (t, m) position
from Fraction arithmetic), null spaces, reduced row echelon forms and
row-space intersections from Gauss-Jordan elimination,
partition counts come from the generating function, minimal recurrences
from a per-order Hankel search,
ideal closures from a rank-driven worklist over the algebra's product, the
order of a local piece from successive ideal powers, point evaluations by
Horner's rule, the CRT pieces of a functional from products with
product-checked idempotents, the modulus and CRT idempotents of a
product_local algebra from Fraction polynomial products, series inverses
and synthetic division, the first order N >= 2 reducible depth from an
n-by-n search, the structure tensor of Q[t]/(p) from
schoolbook division, and the quotient characters of
Q[t]/t^N Verma modules with one top-degree zero and of the classical Verma
modules at c = 1 from closed forms.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


def oracle_rank(rows) -> int:
    """Row rank by plain Gauss elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    used = set()
    for col in range(ncols):
        piv = None
        for r in range(len(m)):
            if r not in used and m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        used.add(piv)
        rank += 1
        for r in range(len(m)):
            if r != piv and m[r][col] != 0:
                factor = m[r][col] / m[piv][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[piv])]
    return rank


def oracle_det(rows) -> Fraction:
    """Determinant by cofactor-free elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _gauss_jordan(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Plain Fraction Gauss-Jordan elimination: the reduced rows (the first
    len(pivots) of them nonzero, with a leading 1) and the pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def oracle_rref(rows, ncols: int) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan."""
    m, pivots = _gauss_jordan(rows, ncols)
    return m[:len(pivots)]


def oracle_kernel(rows, ncols: int) -> list[list[Fraction]]:
    """Null-space basis by plain Fraction Gauss-Jordan elimination: for each
    non-pivot column f, the vector with 1 at f, 0 at the other non-pivot
    columns and minus column f of the reduced rows at the pivots."""
    m, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(m, pivots):
                v[p] = -row[f]
            basis.append(v)
    return basis


def oracle_row_space_intersection(rows_a, rows_b, ncols: int) -> list[list[Fraction]]:
    """RREF basis of the intersection of two row spaces: alpha A = beta B
    exactly when (alpha, beta) lies in the kernel of [A^T | -B^T], and the
    vectors alpha A of a kernel basis span the intersection."""
    a = [list(r) for r in rows_a]
    b = [list(r) for r in rows_b]
    if not a or not b:
        return []
    stacked = [[row[c] for row in a] + [-row[c] for row in b] for c in range(ncols)]
    combos = oracle_kernel(stacked, len(a) + len(b))
    vecs = [[sum((coef * row[j] for coef, row in zip(combo, a)), Fraction(0))
             for j in range(ncols)] for combo in combos]
    return oracle_rref(vecs, ncols)


def oracle_min_recurrence(seqs, max_order=None):
    """Smallest monic p with sum_i p_i s_{k+i} = 0 on every window, or None.

    Per-order Hankel search: for r = 0, 1, ... up to floor(D/2) (D + 1 the
    shortest window) and max_order, stack the order-r systems of all the
    sequences; the first consistent one (the oracle rank does not grow when
    the right-hand side is appended) is solved by Fraction elimination.
    """
    seqs = [[Fraction(x) for x in s] for s in seqs if len(s) > 0]
    if not seqs:
        return (Fraction(1),)
    cap = (min(len(s) for s in seqs) - 1) // 2
    if max_order is not None:
        cap = min(cap, max_order)
    for r in range(cap + 1):
        aug = [s[k:k + r] + [-s[k + r]] for s in seqs for k in range(len(s) - r)]
        if oracle_rank([row[:r] for row in aug]) == oracle_rank(aug):
            return tuple(_oracle_solve(aug, r)) + (Fraction(1),)
    return None


def _oracle_solve(aug, ncols):
    """One solution of a consistent augmented system, free variables zero,
    by Gauss-Jordan elimination over Fractions."""
    m = [list(row) for row in aug]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        m[top] = [a / m[top][col] for a in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(col)
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return x


def oracle_ideal_closure(gens):
    """Coordinate vectors spanning the smallest ideal containing gens.

    Fixpoint by worklist: an element that grows the oracle rank joins the
    basis and queues its products with every basis element of the algebra,
    so the span ends closed under multiplication.  Assumes nothing of the
    algebra beyond its product.
    """
    alg = gens[0].algebra
    basis, work = [], list(gens)
    while work:
        x = work.pop()
        if oracle_rank(basis + [x.to_vector()]) > len(basis):
            basis.append(x.to_vector())
            work.extend(x * alg.basis_element(j) for j in alg.basis_indices())
    return basis


def oracle_minimal_order(piece, point, order) -> int:
    """Smallest N with the CRT piece vanishing on Vir_0 (x) m^N, m the
    maximal ideal (t - point) of a factor of the given order, searched by
    forming each ideal power m^N in turn."""
    from mapvir import ideal_power, point_ideal

    m = point_ideal(piece.algebra, point)
    for n in range(1, order + 1):
        mpow = ideal_power(m, n)
        if all(piece.eval_d0(b) == 0 and piece.eval_c(b) == 0
               for b in mpow.basis_elements()):
            return n
    return order


def oracle_eval_at_point(f, point) -> Fraction:
    """f(point) for f = sum c_k t^k in a monomial-based algebra (basis
    element k is t^k), by Horner's rule on t^lo times a polynomial, lo the
    lowest exponent; a negative lo needs point != 0."""
    if not f.coeffs:
        return Fraction(0)
    lo, hi = min(f.coeffs), max(f.coeffs)
    if lo < 0 and point == 0:
        raise ValueError("t is not invertible at the point 0")
    total = Fraction(0)
    for k in range(hi, lo - 1, -1):
        total = total * point + f.coeffs.get(k, 0)
    return total * Fraction(point) ** lo


def oracle_split_values(phi):
    """Per CRT factor, the lists phi(d_0 (x) e_i t^j) and phi(c (x) e_i t^j),
    j < dim A, formed by products in A with the idempotents of
    ``crt_idempotents``.  The idempotents are first checked by products:
    e_i e_j = delta_ij e_i, and they sum to 1."""
    from mapvir.algebra import crt_idempotents

    alg = phi.algebra
    idems = [alg.from_poly(e) for e in crt_idempotents(alg)]
    assert sum(idems, alg.zero()) == alg.one()
    for i, e in enumerate(idems):
        for j, g in enumerate(idems):
            assert e * g == (e if i == j else alg.zero())
    out = []
    for e in idems:
        prods = [e * alg.basis_element(j) for j in range(alg.dim)]
        out.append(([phi.eval_d0(x) for x in prods], [phi.eval_c(x) for x in prods]))
    return out


def _fraction_poly(coeffs) -> tuple:
    """Low degree first Fractions, trailing zeros stripped."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fraction_poly_mul(p, q) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _fraction_poly(out)


def oracle_taylor(p, point, order: int) -> list[Fraction]:
    """The first ``order`` Taylor coefficients of p at the point, i.e.
    p(point + s) mod s^order, by rounds of synthetic division by t - point."""
    out, q, a = [], [Fraction(x) for x in p], Fraction(point)
    for _ in range(order):
        acc, quo = Fraction(0), []
        for c in reversed(q):  # the remainder is q(a), the rest the quotient
            acc = acc * a + c
            quo.append(acc)
        out.append(acc)
        q = quo[-2::-1]
    return out


def oracle_modulus(factors) -> tuple:
    """The monic product of (t - point)^order over the factors, multiplied
    out factor by factor in Fractions."""
    out = (Fraction(1),)
    for point, order in factors:
        for _ in range(order):
            out = _fraction_poly_mul(out, (-Fraction(point), Fraction(1)))
    return out


def oracle_crt_idempotents(factors) -> tuple:
    """The CRT idempotents of Q[t]/(oracle_modulus(factors)), in Fractions:
    e_i = r_i w_i, r_i the monic product of the other factors and w_i the
    power series inverse of r_i at point_i below order_i, in s = t - point_i,
    taken back to t by Taylor expansion at -point_i."""
    out = []
    for i, (point, order) in enumerate(factors):
        r_t = oracle_modulus(factors[:i] + factors[i + 1:])
        r_s = oracle_taylor(r_t, point, order)
        inv = [1 / r_s[0]]
        for k in range(1, order):
            inv.append(-sum(r_s[j] * inv[k - j] for j in range(1, k + 1)) / r_s[0])
        out.append(_fraction_poly_mul(r_t, oracle_taylor(inv, -Fraction(point), order)))
    return tuple(out)


def oracle_wilson_depth(lam, kappa, max_depth: int) -> int:
    """The least n in 1..max_depth with 24 n lam = (n^3 - n) kappa, the
    vanishing of the order N >= 2 determinant (Wilson 2011), searched n by
    n; max_depth + 1 when there is none."""
    return next((n for n in range(1, max_depth + 1) if 24 * n * lam == (n ** 3 - n) * kappa),
                max_depth + 1)


def poly_divmod_oracle(num, den):
    """Schoolbook long division over Fractions, highest degree first lists."""
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    while den and den[0] == 0:
        den = den[1:]
    if not den:
        raise ZeroDivisionError
    quo = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = num[:]
    for i in range(len(quo)):
        if rem[i] == 0:
            continue
        f = rem[i] / den[0]
        quo[i] = f
        for j, d in enumerate(den):
            rem[i + j] -= f * d
    while rem and rem[0] == 0:
        rem = rem[1:]
    return quo, rem


def principal_quotient_tensor(p):
    """The structure tensor and unit of Q[t]/(p), p monic and low degree
    first, on 1, t, ..., t^{deg p - 1}: t^a t^b = t^{a+b} mod p by schoolbook
    division."""
    deg = len(p) - 1

    def reduced(k):
        rem = poly_divmod_oracle([1] + [0] * k, list(reversed(p)))[1]
        return tuple(reversed(rem)) + (Fraction(0),) * (deg - len(rem))

    tensor = tuple(tuple(reduced(a + b) for b in range(deg)) for a in range(deg))
    return tensor, reduced(0)


def partitions(n: int):
    """Integer partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining, largest, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(largest, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(n, n, [])


def colored_partition_series(colors: int, max_n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k)^(-colors) through q^max_n."""
    if colors == 0:
        return [1] + [0] * max_n  # the empty product
    series = [Fraction(1)] + [Fraction(0)] * max_n
    for k in range(1, max_n + 1):
        # multiply by (1 - q^k)^(-colors) = sum_j C(j+colors-1, colors-1) q^{kj}
        nxt = [Fraction(0)] * (max_n + 1)
        for total in range(max_n + 1):
            j = 0
            while j * k <= total:
                nxt[total] += series[total - j * k] * math.comb(j + colors - 1,
                                                                colors - 1)
                j += 1
        series = nxt
    return [int(x) for x in series]


def c_one_dims(m: int, n: int) -> int:
    """dim L(m^2/4, 1)_n = p(n) - p(n - m - 1), in the L_0 convention.

    At c = 1 (t = 1) the weight h = m^2/4 is h_{r,s} exactly when |r - s| = m,
    so its least Kac zero is at depth m + 1, and the embedding diagram is the
    chain m^2/4 -> (m + 2)^2/4 -> ...; the character of the irreducible
    quotient is (1 - q^{m+1}) / prod_{k>=1} (1 - q^k) (Kac 1978;
    Feigin-Fuchs 1984).
    """
    p = colored_partition_series(1, n)
    return p[n] - (p[n - m - 1] if n > m else 0)


def top_zero_dims(order: int, n0: int, max_n: int) -> list[int]:
    """Coefficients of (1 - q^{n0}) prod_{k>=1} (1 - q^k)^(-order) through
    q^max_n: the graded dimensions of V(phi)/Rad over Q[t]/t^order when the
    top-degree values lambda = phi(d_0 (x) t^{order-1}), kappa = phi(c (x)
    t^{order-1}) make -2 n lambda + (n^3 - n) kappa / 12 vanish at n = n0
    only, i.e. lambda = (n0^2 - 1) kappa / 24 with kappa != 0.  Observed on
    planted cases with n0 >= 2, not proved; at n0 = 1 the lower-degree
    values can cut the quotient further.
    """
    series = colored_partition_series(order, max_n)
    return [series[n] - (series[n - n0] if n >= n0 else 0) for n in range(max_n + 1)]


def virasoro_apply(modes, h, cprime) -> dict[tuple, Fraction]:
    """Normal form of d_{m_1} ... d_{m_k} v in the classical Verma module.

    Worklist rewriter: canonical words are ascending tuples of negative modes
    (deepest first).  Out-of-order adjacent pairs split into the swap plus the
    bracket terms (n - m) d_{m+n} and delta_{m,-n} (m^3 - m)/12 c', trailing
    positive modes kill v, trailing zeros contribute h.
    """
    h = Fraction(h)
    cprime = Fraction(cprime)
    out: dict[tuple, Fraction] = {}
    work = [(Fraction(1), list(modes))]
    while work:
        coeff, ms = work.pop()
        if coeff == 0:
            continue
        if not ms:
            out[()] = out.get((), Fraction(0)) + coeff
            continue
        last = ms[-1]
        if last > 0:
            continue
        if last == 0:
            work.append((coeff * h, ms[:-1]))
            continue
        pos = next((j for j in range(len(ms) - 1) if ms[j] > ms[j + 1]), None)
        if pos is None:
            key = tuple(ms)
            out[key] = out.get(key, Fraction(0)) + coeff
            continue
        a, b = ms[pos], ms[pos + 1]
        work.append((coeff, ms[:pos] + [b, a] + ms[pos + 2:]))
        work.append((coeff * (b - a), ms[:pos] + [a + b] + ms[pos + 2:]))
        if a == -b:
            central = Fraction(a ** 3 - a, 12) * cprime
            if central != 0:
                work.append((coeff * central, ms[:pos] + ms[pos + 2:]))
    return {k: v for k, v in out.items() if v != 0}


def colored_virasoro_apply(word, table, d0, c) -> dict[tuple, Fraction]:
    """Normal form of (d_{m_1} (x) e_{a_1}) ... (d_{m_k} (x) e_{a_k}) v in the
    Verma module of Vir (x) A, for A given by its structure-constant table.

    ``word`` lists (mode, color) letters; ``table[a, b]`` is the {k: coeff}
    expansion of e_a e_b; ``d0`` and ``c`` map a color k to phi(d_0 (x) e_k)
    and phi(c (x) e_k).  Worklist rewriter like ``virasoro_apply``, on letters
    ordered by (-mode, -color): an adjacent pair whose right letter has the
    smaller mode, or the same mode and an earlier color, splits into the swap
    plus (n - m) d_{m+n} (x) e_a e_b and, when m = -n,
    (m^3 - m)/12 phi(c (x) e_a e_b).
    Trailing positive modes kill v, a trailing mode 0 contributes
    phi(d_0 (x) e_a).  Canonical words come back as PBW monomials
    ((depth, color), ...).

    Every rewrite shortens the word or removes one inversion, so words leave
    the worklist longest first, then most inverted: each word is rewritten
    once, with the coefficients of all its paths merged.
    """
    def key(letter):
        return -letter[0], -letter[1]

    def rank(ls):
        inversions = sum(key(x) < key(y) for i, x in enumerate(ls) for y in ls[i + 1:])
        return -len(ls), -inversions, ls

    out: dict[tuple, Fraction] = {}
    start = tuple(word)
    pending: dict[tuple, Fraction] = {start: Fraction(1)}
    heap = [rank(start)]
    while heap:
        ls = heapq.heappop(heap)[2]
        coeff = pending.pop(ls)
        if coeff == 0 or (ls and ls[-1][0] > 0):
            continue
        if ls and ls[-1][0] == 0:
            nxt = [(ls[:-1], coeff * d0.get(ls[-1][1], 0))]
        else:
            pos = next((j for j in range(len(ls) - 1) if key(ls[j]) < key(ls[j + 1])), None)
            if pos is None:
                mono = tuple((-m, a) for m, a in ls)
                out[mono] = out.get(mono, Fraction(0)) + coeff
                continue
            (m, a), (n, b) = ls[pos], ls[pos + 1]
            head, tail = ls[:pos], ls[pos + 2:]
            nxt = [(head + ((n, b), (m, a)) + tail, coeff)]
            for k, s in table[a, b].items():
                nxt.append((head + ((m + n, k),) + tail, coeff * s * (n - m)))
                if m == -n:
                    central = Fraction(m ** 3 - m, 12) * c.get(k, 0)
                    nxt.append((head + tail, coeff * s * central))
        for w, x in nxt:
            if w not in pending:
                pending[w] = Fraction(0)
                heapq.heappush(heap, rank(w))
            pending[w] += x
    return {k: v for k, v in out.items() if v != 0}


def kac_vanishes(h, c, n: int) -> bool:
    """Does the classical Kac determinant at depth n vanish at L_0 weight h
    and central charge c?

    It vanishes exactly when h = h_{r,s}(c) for some r, s >= 1 with rs <= n,
    where c = 13 - 6 (t + 1/t) and h_{r,s} = ((r t - s)^2 - (t - 1)^2) / (4t).
    With u = t + 1/t = (13 - c)/6, h_{r,s} = A t + B/t - D for
    A = (r^2 - 1)/4, B = (s^2 - 1)/4, D = (rs - 1)/2, so the pair h_{r,s},
    h_{s,r} are the roots of the rational quadratic h^2 - S h + P with
    S = (A + B) u - 2D and P = AB (u^2 - 2) + A^2 + B^2 - D (A + B) u + D^2.
    """
    h, u = Fraction(h), (13 - Fraction(c)) / 6
    for r in range(1, n + 1):
        for s in range(1, n // r + 1):
            a, b, d = Fraction(r * r - 1, 4), Fraction(s * s - 1, 4), Fraction(r * s - 1, 2)
            p = a * b * (u * u - 2) + a * a + b * b - d * (a + b) * u + d * d
            if h * h - ((a + b) * u - 2 * d) * h + p == 0:
                return True
    return False


def _fraction_sqrt(x) -> int | None:
    """The integer y >= 0 with y^2 = x, for a rational x, when there is one."""
    x = Fraction(x)
    if x < 0 or x.denominator != 1:
        return None
    y = math.isqrt(x.numerator)
    return y if y * y == x else None


def oracle_kac_zero(h, c) -> tuple:
    """The (t, m) of ``verma._kac_zero`` by Fraction arithmetic: with c = a/b,
    t is rational iff (b - a)(25b - a) is a square, and then t = p/p' is the
    root (13b - a + sqrt)/12b and m = sqrt(4pp'h + (p - p')^2); at irrational
    t, t = None and m = sqrt(1 + 24bh/(b - a)), None when 0 or irrational."""
    h, c = Fraction(h), Fraction(c)
    a, b = c.numerator, c.denominator
    root = _fraction_sqrt((b - a) * (25 * b - a))
    if root is None:
        return None, _fraction_sqrt(1 + Fraction(24 * b * h, b - a)) or None
    t = Fraction(13 * b - a + root, 12 * b)
    p, pp = t.numerator, t.denominator
    return (p, pp), _fraction_sqrt(4 * p * pp * h + (p - pp) ** 2)


def classical_pairing_matrix(depth: int, h, cprime):
    """Pairing of raising vs lowering partition words in the classical Verma
    module, by the worklist rewriter."""
    parts = list(partitions(depth))
    mat = []
    for x in parts:
        row = []
        raising = [int(p) for p in x]  # positive modes, deepest first
        for y in parts:
            lowering = sorted((-int(p) for p in y))  # ascending negatives
            res = virasoro_apply(raising + lowering, h, cprime)
            row.append(res.get((), Fraction(0)))
        mat.append(row)
    return mat


def classical_singular_dim(depth: int, h, cprime) -> int:
    """Dimension of the depth-n singular subspace via stacked d_1, d_2 maps,
    built with the worklist rewriter and ranked by the oracle elimination."""
    parts = list(partitions(depth))
    col_index = {p: i for i, p in enumerate(parts)}
    rows = []
    for mode in (1, 2):
        if depth - mode < 0:
            continue
        targets = {p: i for i, p in enumerate(partitions(depth - mode))}
        block = [[Fraction(0)] * len(parts) for _ in targets]
        for y in parts:
            lowering = sorted(-int(p) for p in y)
            res = virasoro_apply([mode] + lowering, h, cprime)
            for word, coeff in res.items():
                part = tuple(sorted((-m for m in word), reverse=True))
                block[targets[part]][col_index[y]] += coeff
        rows.extend(block)
    ncols = len(parts)
    return ncols - oracle_rank(rows) if rows else ncols


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def minimal_model_weight(p: int, pp: int, r: int, s: int):
    """(h_{r,s}, c) of the minimal model M(p, p') in the L_0 convention:
    c = 1 - 6 (p' - p)^2 / (p p'), h = ((p' r - p s)^2 - (p' - p)^2) / (4 p p')."""
    c = 1 - Fraction(6 * (pp - p) ** 2, p * pp)
    h = Fraction((pp * r - p * s) ** 2 - (pp - p) ** 2, 4 * p * pp)
    return h, c


def rocha_caridi_dims(p: int, pp: int, r: int, s: int, max_n: int) -> list[int]:
    """Graded dimensions of the irreducible module (r, s) of M(p, p') through
    depth max_n, from the Rocha-Caridi character

        q^{-h} chi = prod_{k>=1} (1 - q^k)^{-1}
                     sum_{k in Z} ( q^{k (p p' k + p' r - p s)} - q^{(p k + r)(p' k + s)} ).

    Both exponents are positive for k != 0 (|p' r - p s| < p p'), so a finite
    range of k covers every depth through max_n.
    """
    numerator = [0] * (max_n + 1)
    for k in range(-max_n - 1, max_n + 2):
        for exponent, sign in ((k * (p * pp * k + pp * r - p * s), 1),
                               ((p * k + r) * (pp * k + s), -1)):
            if exponent <= max_n:
                numerator[exponent] += sign
    return convolve(numerator, colored_partition_series(1, max_n))[: max_n + 1]
