from fractions import Fraction as F
import math
import random

from mapvir import linalg, recurrence
from mapvir.recurrence import extend, minimal_annihilator, satisfies
from oracles import oracle_det, oracle_min_recurrence


def test_geometric():
    seq = [F(2) ** k for k in range(9)]
    p = minimal_annihilator([seq])
    assert p == (F(-2), F(1))  # t - 2


def test_fibonacci():
    seq = [F(1), F(1)]
    for _ in range(10):
        seq.append(seq[-1] + seq[-2])
    p = minimal_annihilator([seq])
    assert p == (F(-1), F(-1), F(1))  # t^2 - t - 1


def test_zero_sequence_gives_unit():
    assert minimal_annihilator([[F(0)] * 8]) == (F(1),)


def test_joint_detection_takes_lcm():
    lam = [F(1)] * 10                    # annihilated by t - 1
    kap = [F(2) ** k for k in range(10)]  # annihilated by t - 2
    p = minimal_annihilator([lam, kap])
    assert p == (F(2), F(-3), F(1))      # (t-1)(t-2)


def test_factorial_has_no_low_order_recurrence():
    seq = [F(math.factorial(k)) for k in range(13)]
    assert minimal_annihilator([seq]) is None
    # Hankel determinant oracle: the order-r Hankel matrices are nonsingular,
    # so no recurrence of order <= 6 annihilates the window
    for r in range(1, 7):
        mat = [[seq[i + j] for j in range(r)] for i in range(r)]
        assert oracle_det(mat) != 0


def test_order_cap():
    seq = [F(1), F(1)]
    for _ in range(4):
        seq.append(seq[-1] + seq[-2])
    # 6 samples: cap is 2, Fibonacci is found; 4 samples cap it at 1, and it is not
    assert minimal_annihilator([seq]) is not None
    assert minimal_annihilator([seq[:4]]) is None


def test_satisfies_and_extend():
    p = (F(-2), F(1))
    seq = extend([F(3)], p, 6)
    assert seq == [F(3) * F(2) ** k for k in range(6)]
    assert satisfies(seq, p)
    assert not satisfies([F(1), F(3)], p)


def _recurrent(rng, p, n):
    """n terms from random initial values under the monic recurrence p."""
    r = len(p) - 1
    out = [F(rng.randint(-3, 3)) for _ in range(r)]
    while len(out) < n:
        out.append(-sum(p[i] * out[len(out) - r + i] for i in range(r)))
    return out[:n]


def _random_poly(rng, zero_roots=0):
    deg = rng.randint(0, 3)
    p = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(deg)] + [F(1)]
    return [F(0)] * zero_roots + p


def _oracle_cases():
    """Seeded windows in six families, cycled so each appears as often; every
    fifth case keeps whole windows, the others cut them to 1, 3, 5 or 7
    samples, which caps the order at 0, 1, 2 or 3."""
    rng = random.Random(6601)
    cases = []
    for i in range(1020):
        family = i % 6
        lengths = [rng.randint(0, 14) for _ in range(rng.randint(1, 3))]
        if family == 0:  # all-zero windows
            seqs = [[F(0)] * n for n in lengths]
        elif family == 1:  # a zero root: p = x^z q
            p = _random_poly(rng, zero_roots=rng.randint(1, 2))
            seqs = [_recurrent(rng, p, rng.randint(6, 14)) for _ in lengths]
        elif family == 2:  # one late nonzero value
            seqs = []
            for n in lengths:
                s = [F(0)] * n
                if n:
                    s[rng.randint(n // 3, n - 1)] = F(rng.randint(1, 4))
                seqs.append(s)
        elif family == 3:  # unequal lengths under one recurrence
            p = _random_poly(rng)
            seqs = [_recurrent(rng, p, rng.randint(4, 14)) for _ in range(3)]
        elif family == 4:  # independent recurrences, joined by their lcm
            seqs = [_recurrent(rng, _random_poly(rng), rng.randint(6, 14))
                    for _ in range(2)]
        else:  # noise
            seqs = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for n in lengths]
        cut = [None, 1, 3, 5, 7][i % 5]
        cases.append([s[:cut] for s in seqs])
    return cases


def test_minimal_annihilator_matches_the_hankel_search():
    found = 0
    for seqs in _oracle_cases():
        expected = oracle_min_recurrence(seqs)
        assert minimal_annihilator(seqs) == expected, seqs
        found += expected is not None and len(expected) > 1
    assert found >= 170  # the data exercises positive-order recurrences


def test_minimal_annihilator_calls_nothing_in_linalg(monkeypatch):
    assert not hasattr(recurrence, "linalg")

    def forbidden(*args, **kwargs):
        raise AssertionError("recurrence detection reached linalg")

    for name, value in vars(linalg).items():
        if callable(value) and getattr(value, "__module__", None) == linalg.__name__:
            monkeypatch.setattr(linalg, name, forbidden)
    for seqs in _oracle_cases()[:60]:
        minimal_annihilator(seqs)
