"""A fixed exact-arithmetic job that measures how fast the host is right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from one minute to the next.  Between batches it times this job, which does
the same kind of work as mapvir (Fraction arithmetic driven by dicts and
lists: a worklist rewriter for the classical Virasoro action and Gaussian
elimination) but shares no code with it, so no change to the library can
change its time.  A measured time is reported multiplied by REFERENCE_S over
the job's time measured alongside it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# seconds the job takes on the host the baseline was measured on (see
# baseline.json); scaled times read as seconds on that host
REFERENCE_S = 0.06


def _virasoro_apply(modes: list[int], h: Fraction, c: Fraction) -> dict:
    """Normal form of d_{m_1} ... d_{m_k} v in the classical Verma module."""
    out: dict = {}
    work = [(Fraction(1), modes)]
    while work:
        coeff, ms = work.pop()
        if not ms:
            out[()] = out.get((), 0) + coeff
            continue
        if ms[-1] > 0:
            continue
        if ms[-1] == 0:
            work.append((coeff * h, ms[:-1]))
            continue
        pos = next((j for j in range(len(ms) - 1) if ms[j] > ms[j + 1]), None)
        if pos is None:
            out[tuple(ms)] = out.get(tuple(ms), 0) + coeff
            continue
        a, b = ms[pos], ms[pos + 1]
        work.append((coeff, ms[:pos] + [b, a] + ms[pos + 2:]))
        work.append((coeff * (b - a), ms[:pos] + [a + b] + ms[pos + 2:]))
        if a == -b:
            work.append((coeff * Fraction(a ** 3 - a, 12) * c, ms[:pos] + ms[pos + 2:]))
    return out


def _rank(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def reference_job() -> int:
    """Pairing matrix of the classical Verma module at depth 4 by rewriting,
    then the rank of a fixed 20 x 20 rational matrix."""
    h, c = Fraction(-97, 23), Fraction(113, 29)
    parts = [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    pairing = [[_virasoro_apply(x + sorted(-p for p in y), h, c).get((), Fraction(0))
                for y in parts] for x in parts]
    state = 12345
    dense = []
    for _ in range(20):
        row = []
        for _ in range(20):
            state = (1103515245 * state + 12345) % 2 ** 31
            row.append(Fraction(state % 199 - 99, state % 17 + 1))
        dense.append(row)
    return _rank(pairing) + _rank(dense)


class HostSpeed:
    """Times of the reference job, taken between set-ups and batches."""

    def __init__(self):
        self.times: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        reference_job()
        self.times.append(time.perf_counter() - t0)

    def scale(self, statistic) -> float:
        """REFERENCE_S over the given statistic (min, median) of the job's times."""
        return REFERENCE_S / statistic(self.times)
