import math
import random
from fractions import Fraction as F

import pytest

from mapvir import linalg, polyutil
from mapvir.recurrence import minimal_annihilator
from oracles import oracle_kernel, oracle_rank


def _low_rank(rng, nrows, ncols, rank, ints=False):
    """nrows x ncols rational matrix of rank at most ``rank``."""
    def entry():
        return rng.randint(-4, 4) if ints else F(rng.randint(-6, 6), rng.randint(1, 5))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((a * b for a, b in zip(lrow, col)), 0 if ints else F(0))
             for col in zip(*right)] if right else [F(0)] * ncols
            for lrow in left]


def _hankel(seq, order):
    """Rows of the tall Hankel system of an order-``order`` recurrence."""
    return [[seq[k + i] for i in range(order)] for k in range(len(seq) - order)]


def _cases():
    rng = random.Random(4401)
    cases = {
        "empty": ([], 3),
        "zero_rows": ([[F(0)] * 4 for _ in range(3)], 4),
        "zero_columns": ([[], [], []], 0),
        "single_zero_entry": ([[F(0)]], 1),
        "ints_full_rank": ([[2, 1, 0], [0, 3, 1], [1, 0, 5]], 3),
    }
    for i in range(12):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rank = rng.randint(0, min(nrows, ncols))
        cases[f"random_{i}"] = (_low_rank(rng, nrows, ncols, rank), ncols)
    for i in range(4):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols))
        cases[f"int_{i}"] = (_low_rank(rng, nrows, ncols, rank, ints=True), ncols)
    # s_{k+3} = s_{k+2} + 1/2 s_{k+1} - 1/3 s_k: order 3, so the order-3
    # system is consistent and the order-2 one is not
    seq = [F(1), F(-2), F(1, 3)]
    while len(seq) < 40:
        seq.append(seq[-1] + seq[-2] / 2 - seq[-3] / 3)
    for order in (2, 3, 5):
        cases[f"hankel_{order}"] = (_hankel(seq, order), order)
    return cases, seq


CASES, HANKEL_SEQ = _cases()


def _apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]


@pytest.mark.parametrize("name", CASES)
def test_rref_is_the_canonical_form_of_the_row_space(name):
    rows, ncols = CASES[name]
    red, pivots = linalg.rref(rows)
    assert pivots == sorted(set(pivots))
    for row, p in zip(red, pivots):
        assert len(row) == ncols and all(type(x) is F for x in row)
        assert row[p] == 1 and not any(row[:p])
    for i, p in enumerate(pivots):
        assert all(other[p] == 0 for k, other in enumerate(red) if k != i)
    # r canonical rows that span every input row, r = rank: the unique RREF
    assert len(red) == linalg.rank(rows) == oracle_rank(rows)
    assert all(oracle_rank(red + [row]) == len(red) for row in rows)


@pytest.mark.parametrize("name", CASES)
def test_kernel_is_a_null_space_basis(name):
    rows, ncols = CASES[name]
    ker = linalg.kernel(rows, ncols)
    assert len(ker) == ncols - oracle_rank(rows)
    assert oracle_rank(ker) == len(ker)
    for x in ker:
        assert not any(_apply(rows, x))


def _kernel_parity_cases():
    rng = random.Random(4403)
    big = 2**64
    cases = {
        "empty_rows": ([], 4),
        "zero_rows": ([[0] * 5 for _ in range(3)], 5),
        "zero_rows_mixed": ([[F(0)] * 4, [F(1), F(2), F(0), F(-1)], [F(0)] * 4], 4),
        "full_column_rank": ([[F(1, 2), 3, 0], [0, F(-2, 7), 1], [5, 0, F(4, 3)], [1, 1, 1]], 3),
        "rank_deficient": ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]], 4),
        "above_2_64": ([[big + 1, 3 * big, -7, 0], [F(big, 3), big - 1, F(1, big), 2],
                        [2 * big + 2, 6 * big, -14, 0]], 4),
    }
    for i in range(10):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rank = rng.randint(0, min(nrows, ncols))
        cases[f"fractions_{i}"] = (_low_rank(rng, nrows, ncols, rank), ncols)
        cases[f"ints_{i}"] = (_low_rank(rng, nrows, ncols, rank, ints=True), ncols)
        # scaling columns by large factors keeps the rank and moves the kernel
        scales = [rng.choice([1, big + 1, 3**45, F(1, 10**30)]) for _ in range(ncols)]
        rows = _low_rank(rng, nrows, ncols, rank, ints=True)
        cases[f"huge_{i}"] = ([[x * f for x, f in zip(row, scales)] for row in rows], ncols)
    return cases


KERNEL_PARITY = _kernel_parity_cases()


@pytest.mark.parametrize("name", sorted(KERNEL_PARITY))
def test_kernel_equals_the_gauss_jordan_oracle(name):
    # the integer back-substitution returns the same vectors, all Fractions
    rows, ncols = KERNEL_PARITY[name]
    ker = linalg.kernel(rows, ncols)
    assert ker == oracle_kernel(rows, ncols)
    assert all(type(x) is F for v in ker for x in v)
    for x in ker:
        assert not any(_apply(rows, x))


def _sparse(rows):
    """Each row scaled to integers by the lcm of its denominators (which keeps
    the kernel), as a sparse {column: int} row."""
    return [{j: x for j, x in enumerate(polyutil.cleared(row)[0]) if x} for row in rows]


@pytest.mark.parametrize("name", sorted(KERNEL_PARITY))
def test_kernel_of_sparse_integer_rows_equals_the_oracle(name):
    rows, ncols = KERNEL_PARITY[name]
    ker = linalg.kernel(_sparse(rows), ncols)
    assert ker == oracle_kernel(rows, ncols)
    assert all(type(x) is F for v in ker for x in v)


@pytest.mark.parametrize("rows", [[], [{}, {}]], ids=["no_rows", "empty_rows"])
def test_kernel_of_sparse_rows_without_columns_is_empty(rows):
    assert linalg.kernel(rows, 0) == [] == oracle_kernel([[] for _ in rows], 0)
    assert linalg.row_basis(rows, 0) == []


def test_row_basis_takes_sparse_and_dense_rows_alike():
    for name, (rows, ncols) in KERNEL_PARITY.items():
        dense = [polyutil.cleared(row)[0] for row in rows]
        sparse = _sparse(rows)
        assert linalg.row_basis(sparse, ncols) == linalg.row_basis(dense, ncols), name
        mixed = [r if i % 2 else d for i, (r, d) in enumerate(zip(sparse, dense))]
        assert linalg.row_basis(mixed, ncols) == linalg.row_basis(dense, ncols), name


def test_kernel_parity_cases_cover_every_shape():
    rank = {name: oracle_rank(rows) for name, (rows, _) in KERNEL_PARITY.items()}
    assert rank["full_column_rank"] == 3 and rank["rank_deficient"] == 2
    huge = [n for n in KERNEL_PARITY if n.startswith(("huge", "above"))]
    assert any(0 < rank[n] < KERNEL_PARITY[n][1] for n in huge)
    entries = [x for n in huge for v in linalg.kernel(*KERNEL_PARITY[n]) for x in v]
    assert any(max(abs(x.numerator), x.denominator) > 2**64 for x in entries)


def test_hankel_solves_find_the_recurrence_order():
    assert minimal_annihilator([HANKEL_SEQ[:6]]) is None  # 6 samples: order <= 2
    assert minimal_annihilator([HANKEL_SEQ]) == (F(1, 3), F(-1, 2), F(-1), F(1))


def test_rref_and_rank_eliminate_through_row_basis(monkeypatch):
    calls = []
    row_basis = linalg.row_basis

    def counting(rows, ncols):
        calls.append(ncols)
        return row_basis(rows, ncols)

    monkeypatch.setattr(linalg, "row_basis", counting)
    rows = [[F(1, 2), F(1, 3)], [F(1), F(2, 3)], [F(0), F(5)]]
    assert linalg.rref(rows) == ([[F(1), F(0)], [F(0), F(1)]], [0, 1])
    assert calls == [2]
    assert linalg.rank(rows) == 2
    assert calls == [2, 2]


def test_certificate_prime_is_prime():
    assert linalg.PRIME == 2**31 - 1
    assert all(linalg.PRIME % d for d in range(2, math.isqrt(linalg.PRIME) + 1))


def test_determinant_equal_to_the_prime_is_not_certified():
    # det = PRIME: full rank over Q, rank 1 mod PRIME
    sparse = [{0: 1}, {1: linalg.PRIME}]
    assert not linalg.full_rank_mod_p(sparse, 2)
    assert len(linalg.row_basis([[1, 0], [0, linalg.PRIME]], 2)) == 2
    assert not linalg.full_rank_mod_p([{0: 3, 1: 1}, {0: linalg.PRIME + 3, 1: 1}], 2)


@pytest.mark.parametrize("rows, ncols, full", [
    ([], 0, True),
    ([], 2, False),
    ([{}, {1: 5}], 2, False),
    ([{0: 2, 2: -1}, {1: 7}, {0: 4, 1: 7, 2: -2}], 3, False),
    ([{0: 2, 2: -1}, {1: 7}, {0: 4, 1: 7, 2: 5}], 3, True),
    ([{0: -1}, {0: 1}, {0: 2, 1: -3}], 2, True),
])
def test_full_rank_mod_p_small_cases(rows, ncols, full):
    assert linalg.full_rank_mod_p(rows, ncols) == full
