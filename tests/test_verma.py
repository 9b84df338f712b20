import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from mapvir import (
    Algebra,
    AlgebraMismatch,
    EnvElement,
    Functional,
    LieElement,
    PrincipalIdeal,
    VermaVector,
    WindowOverflow,
    bracket,
    c_term,
    check_quasifinite,
    check_verma_reducible,
    classify_module,
    d_term,
    depth_one_vector,
    format_element,
    format_scalar,
    functional_to_spec,
    highest_weight_vector,
    in_maximal_submodule,
    largest_d0_ideal,
    largest_v0_ideal,
    module_dims,
    pairing_matrix,
    pbw_basis,
    quotient_algebra,
    quotient_dims,
    singular_vectors,
    split_phi,
    verma_act,
)
from mapvir import linalg, pbw, polyutil, recurrence, verma
from mapvir.algebra import crt_idempotents
from oracles import (
    c_one_dims,
    classical_pairing_matrix,
    classical_singular_dim,
    colored_partition_series,
    colored_virasoro_apply,
    convolve,
    kac_vanishes,
    minimal_model_weight,
    oracle_det,
    oracle_kac_zero,
    oracle_kernel,
    oracle_min_recurrence,
    oracle_minimal_order,
    oracle_rank,
    oracle_split_values,
    oracle_wilson_depth,
    partitions,
    principal_quotient_tensor,
    reference_act_basis,
    rocha_caridi_dims,
    top_zero_dims,
)

QQ = Algebra.rationals()
DUAL = Algebra.product_local([(0, 2)])          # Q[t]/(t^2)
SPLIT = Algebra.product_local([(0, 1), (1, 1)])  # Q[t]/(t^2 - t)


def rand_scalar(rng):
    return F(rng.randint(-5, 5), rng.randint(1, 3))


def rand_functional(rng, alg):
    return Functional(alg,
                      {i: rand_scalar(rng) for i in range(alg.dim)},
                      {i: rand_scalar(rng) for i in range(alg.dim)})


def rand_elt(rng, alg):
    return alg.element({i: rand_scalar(rng) for i in alg.basis_indices()
                        if rng.random() < 0.8})


def single_piece(pieces):
    assert len(pieces) <= 1
    return pieces[0] if pieces else None


# -- the action ---------------------------------------------------------------

def test_act_d1_on_depth_one():
    rng = random.Random(2)
    for _ in range(10):
        phi = rand_functional(rng, DUAL)
        f, g = rand_elt(rng, DUAL), rand_elt(rng, DUAL)
        if f.is_zero():
            continue
        w = depth_one_vector(phi, f)
        out = single_piece(verma_act(d_term(DUAL, 1, g), w))
        expected = -2 * phi.eval_d0(g * f)
        if expected == 0:
            assert out is None
        else:
            assert out.env.terms == {(): expected}


def test_act_high_modes_on_depth_one():
    rng = random.Random(4)
    phi = rand_functional(rng, DUAL)
    f = DUAL.basis_element(1) + DUAL.one()
    w = depth_one_vector(phi, f)
    for m in range(2, 6):
        assert verma_act(d_term(DUAL, m, rand_elt(rng, DUAL)), w) == []


def test_act_d2_on_depth_two_central():
    rng = random.Random(6)
    phi = rand_functional(rng, DUAL)
    f = DUAL.basis_element(1).scale(F(3, 2)) + DUAL.one()
    w = single_piece(verma_act(d_term(DUAL, -2, f), highest_weight_vector(phi)))
    out = single_piece(verma_act(d_term(DUAL, 2), w))
    expected = -4 * phi.eval_d0(f) + F(1, 2) * phi.eval_c(f)
    assert out.env.terms == {(): expected}


def test_d0_eigenvalue_at_depth_one():
    phi = Functional.classical(F(5, 7), 2)
    w = depth_one_vector(phi, QQ.one())
    out = single_piece(verma_act(d_term(QQ, 0), w))
    assert out.env == w.env.scale(F(5, 7) - 1)
    assert w.weight == F(5, 7) - 1


def test_central_element_acts_by_scalar():
    phi = Functional.classical(F(1, 3), F(7, 2))
    w = depth_one_vector(phi, QQ.one())
    out = single_piece(verma_act(c_term(QQ), w))
    assert out.env == w.env.scale(F(7, 2))


def test_weight_bookkeeping():
    rng = random.Random(8)
    phi = rand_functional(rng, DUAL)
    v = highest_weight_vector(phi)
    for _ in range(20):
        depth_word = [d_term(DUAL, -rng.randint(1, 3), rand_elt(rng, DUAL))
                      for _ in range(2)]
        w = v
        for letter in depth_word:
            pieces = verma_act(letter, w)
            if not pieces:
                break
            w = pieces[0]
        else:
            j = rng.randint(-2, 2)
            for piece in verma_act(d_term(DUAL, j, rand_elt(rng, DUAL)), w):
                assert piece.depth == w.depth - j


def test_action_respects_bracket():
    rng = random.Random(10)
    for _ in range(30):
        alg = rng.choice([QQ, DUAL])
        phi = rand_functional(rng, alg)
        x = d_term(alg, rng.randint(-2, 2), rand_elt(rng, alg))
        y = d_term(alg, rng.randint(-2, 2), rand_elt(rng, alg))
        start = depth_one_vector(phi, alg.one())

        def act_total(z, pieces):
            out = {}
            for p in pieces:
                for piece in verma_act(z, p):
                    for mono, c in piece.env.terms.items():
                        out[mono] = out.get(mono, F(0)) + c
            return {m: c for m, c in out.items() if c != 0}

        lhs = act_total(x, verma_act(y, start))
        rhs = act_total(y, verma_act(x, start))
        diff = dict(lhs)
        for mono, c in rhs.items():
            diff[mono] = diff.get(mono, F(0)) - c
        diff = {m: c for m, c in diff.items() if c != 0}
        br = bracket(x, y)
        expected = act_total(br, [start]) if not br.is_zero() else {}
        assert diff == expected


# -- graded dimensions --------------------------------------------------------

def test_module_dims_match_partitions():
    assert module_dims(QQ, 8) == tuple(colored_partition_series(1, 8))
    assert module_dims(DUAL, 8) == tuple(colored_partition_series(2, 8))


@pytest.mark.parametrize("alg, window, colors", [
    (Algebra.polynomial((0, 4)), None, 5),
    (Algebra.polynomial((0, 4)), (1, 3), 3),
    (Algebra.laurent((-3, 3)), None, 7),
    (Algebra.laurent((-3, 3)), (-1, 0), 2),
    (Algebra.laurent((-3, 3)), (1, 0), 0),
], ids=["polynomial", "polynomial_narrow", "laurent", "laurent_narrow", "laurent_empty"])
def test_module_dims_on_windowed_kinds(alg, window, colors):
    dims = module_dims(alg, 6, window=window)
    assert dims == tuple(colored_partition_series(colors, 6))
    assert dims == tuple(len(pbw_basis(n, alg, window=window)) for n in range(7))


def test_widths_are_counted_not_enumerated(monkeypatch):
    calls = _counting(monkeypatch, verma, "pbw_basis")
    direct = _counting(monkeypatch, pbw, "pbw_basis")
    for alg in (QQ, DUAL, CUBIC, GAUSS, POLY4, LAUR):
        assert module_dims(alg, 8) == tuple(colored_partition_series(len(alg.window_indices()), 8))
    assert calls == [] and direct == []
    # the engine enumerates a layer only from the first reducible depth on
    cases = [(phi, depth) for _, phi, depth in PLANTED_LOCAL]
    cases += [(_minimal_model_phi(name), 8) for name in MINIMAL_MODELS]
    built = 0
    for phi, depth in cases:
        calls.clear()
        quotient_dims(phi, depth)
        first = verma._first_reducible_depth(phi, depth)
        assert all(n >= first for n, *_ in calls)
        built += len(calls)
    assert built


def test_quotient_dims_generic():
    phi = Functional.classical(F(5, 7), 2)
    assert quotient_dims(phi, 4) == (1, 1, 2, 3, 5)
    # independent dense determinant oracle: full rank at each depth
    for n in range(1, 5):
        mat = classical_pairing_matrix(n, F(5, 7), 2)
        assert oracle_det(mat) != 0


def test_quotient_dims_trivial_module():
    phi = Functional.classical(0, 0)
    assert quotient_dims(phi, 4) == (1, 0, 0, 0, 0)


def test_quotient_dims_h0_c3():
    phi = Functional.classical(0, 3)
    dims = quotient_dims(phi, 3)
    assert dims[1] == 0  # depth-1 singular vector kills the whole level


def test_quotient_dims_pullback_matches_classical():
    # phi over Q[t]/(t^2) vanishing on (t): the ideal annihilates the
    # quotient, so dims collapse onto the evaluated classical module
    rng = random.Random(12)
    for depth, trials in ((4, 1), (2, 2)):
        for _ in range(trials):
            h, cp = rand_scalar(rng), rand_scalar(rng)
            phi_dual = Functional(DUAL, {0: h}, {0: cp})
            phi_classical = Functional.classical(h, cp)
            assert quotient_dims(phi_dual, depth) == quotient_dims(phi_classical, depth)


def test_pairing_matrix_matches_oracle():
    phi = Functional.classical(F(-1, 4), 1)
    for n in range(1, 4):
        lib = pairing_matrix(phi, n)
        orc = classical_pairing_matrix(n, F(-1, 4), 1)
        assert oracle_rank(lib) == oracle_rank(orc)


# -- the raising walker ---------------------------------------------------------

def _reference_pairing(phi, depth, window=None):
    """coeff_v(X Y v), each X applied generator by generator through verma_act."""
    alg = phi.algebra
    basis = pbw_basis(depth, alg, window=window)

    def entry(x_mono, y_mono):
        w = VermaVector(phi, EnvElement(alg, {y_mono: F(1)}))
        for m, b in reversed(x_mono):
            w = single_piece(verma_act(d_term(alg, m, alg.basis_element(b)), w))
            if w is None:
                return F(0)
        return w.env.coeff(())

    return [[entry(x, y) for y in basis] for x in basis]


WALKER_CASES = {
    # Q[t] with a color window narrower than the algebra window
    "polynomial": (Functional.from_sequences(
        Algebra.polynomial((0, 8)), [F(1), F(3)], [F(1), F(-2)],
        exact_ideal=(F(-6), F(-1), F(1))), 3, (0, 1)),
    "laurent": (Functional(Algebra.laurent((-8, 8)),
                           {k: F(k * k + 1, 3) for k in range(-8, 9)},
                           {k: F(k - 1, 2) for k in range(-8, 9)}), 3, (-1, 1)),
    "dual": (Functional(DUAL, {0: F(1, 3), 1: F(2)}, {0: F(5), 1: F(-1, 2)}), 4, None),
    "rationals": (Functional.classical(F(-1, 16), F(1, 2)), 5, None),
}


@pytest.mark.parametrize("name", WALKER_CASES)
def test_pairing_matrix_matches_reference_chains(name):
    phi, depth, window = WALKER_CASES[name]
    for n in range(depth + 1):
        assert pairing_matrix(phi, n, window=window) == _reference_pairing(phi, n, window)


def test_in_maximal_submodule_on_out_of_window_pieces():
    P = Algebra.polynomial((0, 40))
    phi = Functional.from_sequences(P, [F(2) ** k for k in range(11)],
                                    [F(3) * F(2) ** k for k in range(11)],
                                    exact_ideal=(F(-2), F(1)))
    gen = P.from_poly((F(-2), F(1)))
    colors = (0, 3)
    outside = 0
    for mono in pbw_basis(2, P, window=colors):
        w = VermaVector(phi, EnvElement(P, {mono: F(1)}))
        for mode in (-1, 1):
            for piece in verma_act(d_term(P, mode, gen), w):
                outside += any(b > colors[1] for m in piece.env.terms for _, b in m)
                assert in_maximal_submodule(piece, window=colors)
    assert outside > 0
    generic = Functional.classical(F(2, 7), F(5, 3))
    assert not in_maximal_submodule(depth_one_vector(generic, QQ.one()))
    windowed = depth_one_vector(phi, P.one())
    assert not in_maximal_submodule(windowed, window=colors)


def test_raising_walk_computes_each_suffix_once(monkeypatch):
    misses = []
    real = verma._raise

    def counting(phi, x_mono, chains):
        if x_mono not in chains:
            misses.append(x_mono)
        return real(phi, x_mono, chains)

    monkeypatch.setattr(verma, "_raise", counting)
    phi, depth, _ = WALKER_CASES["dual"]
    basis = pbw_basis(depth, DUAL)
    shorter = {mono for n in range(1, depth + 1) for mono in pbw_basis(n, DUAL)}
    for y_mono in basis:
        misses.clear()
        list(verma._v_coefficients(phi, {y_mono: F(1)}, basis))
        assert len(misses) == len(set(misses))
        assert set(misses) <= shorter
        # fewer generator applications than one fresh chain per monomial
        assert len(misses) < sum(len(x) for x in basis)


# -- the layered radical engine against the pairing rank ---------------------

GAUSS = Algebra.structure_constants(                # Q(i): e_1 e_1 = -e_0
    [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], (1, 0), labels=("1", "i"))
CUBIC = Algebra.product_local([(0, 3)])            # Q[t]/(t^3)
QXQ = Algebra.structure_constants(                  # Q x Q: orthogonal idempotents
    [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 1))

# (p, p', r, s) of the minimal model and the expected (h_{r,s}, c)
MINIMAL_MODELS = {
    "ising_sigma": ((3, 4, 1, 2), (F(1, 16), F(1, 2))),
    "ising_epsilon": ((3, 4, 2, 1), (F(1, 2), F(1, 2))),
    "tricritical_1_10": ((4, 5, 1, 2), (F(1, 10), F(7, 10))),
    "tricritical_3_80": ((4, 5, 2, 3), (F(3, 80), F(7, 10))),
    "lee_yang": ((2, 5, 1, 2), (F(-1, 5), F(-22, 5))),
}


def _minimal_model_phi(name):
    h, c = minimal_model_weight(*MINIMAL_MODELS[name][0])
    # d_n = -L_n here, so the L_0 weight h is phi(d_0) = -h
    return Functional.classical(-h, c)


def _parity_cases():
    rng = random.Random(1203)
    cases = {name: (_minimal_model_phi(name), 6) for name in MINIMAL_MODELS}
    for i in range(3):
        cases[f"generic_{i}"] = (Functional.classical(rand_scalar(rng), rand_scalar(rng)), 6)
    cases["trivial"] = (Functional.classical(0, 0), 6)
    # phi kills d_0 (x) t but not c (x) t: reducible at depth 1, no pullback
    cases["dual"] = (Functional(DUAL, {0: F(1, 3), 1: F(0)}, {0: F(2), 1: F(1)}), 6)
    # Ising sigma at t = 0 times a generic weight at t = 1 (CRT factors)
    cases["q_times_q"] = (Functional(SPLIT, {0: F(-1, 16) + F(2, 3), 1: F(2, 3)},
                                     {0: F(1, 2) + F(-3), 1: F(-3)}), 6)
    # phi kills the ideal (t^2); the depth-6 pairing matrix (221 x 221) is slow
    cases["cubic"] = (Functional(CUBIC, {0: F(-1, 16), 1: F(1)}, {0: F(1, 2)}), 5)
    # phi vanishes on d_0 (x) A, so depth 1 dies while c (x) i survives
    cases["gauss"] = (Functional(GAUSS, {}, {0: F(1, 2), 1: F(1)}), 6)
    return cases


PARITY_CASES = _parity_cases()


def _low_rank_matrices():
    """Seeded integer matrices (rows, ncols) of rank at most 4."""
    rng = random.Random(1207)
    for _ in range(40):
        nrows, ncols, rank = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
        yield [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] or [0] * ncols
               for lrow in left], ncols


def test_row_basis_matches_oracle_rank():
    for rows, ncols in _low_rank_matrices():
        basis = linalg.row_basis(rows, ncols)
        assert len(basis) == oracle_rank(rows)
        leads = [next(j for j, x in enumerate(b) if x) for b in basis]
        assert leads == sorted(set(leads)) and all(b[j] > 0 for b, j in zip(basis, leads))
        # same row space: stacking the basis onto the rows adds no rank
        assert oracle_rank(rows + basis) == len(basis)


def test_seeded_rank_deficient_matrices_are_never_certified():
    deficient = 0
    for rows, ncols in _low_rank_matrices():
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        full = oracle_rank(rows) == ncols
        deficient += not full
        # a deficient matrix is never certified; these small full ones are
        assert linalg.full_rank_mod_p(sparse, ncols) == full
    assert deficient > 20


def _without_skip(monkeypatch):
    monkeypatch.setattr(verma, "_first_reducible_depth", lambda phi, max_depth, walks=None: 0)


def test_uncertified_full_layer_falls_back_to_row_basis(monkeypatch):
    # d_1 d_{-1} v = -2 phi(d_0) v = -PRIME v: the depth-1 layer has full rank
    # over Q and rank 0 mod PRIME, so only row_basis can call it full; the
    # Kac determinant proves every layer full, so the skip is turned off
    h, c = F(-linalg.PRIME, 2), F(1, 3)
    assert not kac_vanishes(h, c, 5)
    _without_skip(monkeypatch)
    answers = []
    real = linalg.full_rank_mod_p

    def recording(rows, ncols):
        rows = list(rows)
        answers.append((rows, real(rows, ncols)))
        return answers[-1][1]

    monkeypatch.setattr(linalg, "full_rank_mod_p", recording)
    assert quotient_dims(Functional.classical(-h, c), 5) == (1, 1, 2, 3, 5, 7)
    assert answers[1] == ([{0: -linalg.PRIME}], False)
    assert len(answers) == 6


def _without_certificate(monkeypatch):
    monkeypatch.setattr(linalg, "full_rank_mod_p", lambda rows, ncols: False)


def _without_character(monkeypatch):
    """Send every order-1 piece to the layered engine."""
    monkeypatch.setattr(verma, "_order_one_dims", lambda h, c, max_depth, steps=None: (
        verma._layered_quotient_dims(Functional.classical(-h, c), max_depth)))


@pytest.mark.parametrize("name", PARITY_CASES)
def test_results_do_not_depend_on_the_certificate(name, monkeypatch):
    _assert_parity_without(_without_certificate, name, monkeypatch)


def _assert_parity_without(disable, name, monkeypatch):
    """quotient_dims and singular_vectors (to depth 4) on a PARITY_CASES
    entry are the same after ``disable(monkeypatch)``."""
    phi, depth = PARITY_CASES[name]
    singular_depth = min(depth, 4)
    before = (quotient_dims(phi, depth),
              [singular_vectors(phi, n) for n in range(1, singular_depth + 1)])
    disable(monkeypatch)
    assert before == (quotient_dims(phi, depth),
                      [singular_vectors(phi, n) for n in range(1, singular_depth + 1)])


@pytest.mark.parametrize("name", MINIMAL_MODELS)
def test_rocha_caridi_without_the_certificate(name, monkeypatch):
    _without_character(monkeypatch)
    _without_certificate(monkeypatch)
    (p, pp, r, s), _ = MINIMAL_MODELS[name]
    assert list(quotient_dims(_minimal_model_phi(name), 14)) == rocha_caridi_dims(p, pp, r, s, 14)


# -- order-1 pieces by their embedding diagram, against the engine -------------

@pytest.mark.parametrize("name", PARITY_CASES)
def test_results_do_not_depend_on_the_character(name, monkeypatch):
    _assert_parity_without(_without_character, name, monkeypatch)


def _braid_vertices():
    """(h, c) = (h_{r,s}, c(t)), t = p/p', r, s <= 4, wherever neither p nor
    p' divides rp - sp': Kac-table weights and braid vertices outside it."""
    points = []
    for p, pp in ((3, 4), (4, 5), (2, 5), (5, 7)):
        t = F(p, pp)
        for r in range(1, 5):
            for s in range(1, 5):
                if (r * p - s * pp) % p and (r * p - s * pp) % pp:
                    points.append((((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t),
                                   13 - 6 * (t + 1 / t)))
    return points


@pytest.mark.parametrize("h, c", _braid_vertices())
def test_braid_character_matches_the_engine(h, c):
    dims = verma._order_one_dims(h, c, 9)
    assert dims == quotient_dims(Functional.classical(-h, c), 9)
    assert dims == verma._layered_quotient_dims(Functional.classical(-h, c), 9)


@pytest.mark.parametrize("c", [F(2), F(3), F(-7, 5), F(30)])
@pytest.mark.parametrize("r", [2, 3])
def test_single_zero_at_irrational_t(r, c, monkeypatch):
    # t + 1/t = u is rational and t is not, so h_{r,r} is the one rational h_{r,s}
    u = (13 - c) / 6
    h = (r * r - 1) * (u - 2) / 4
    assert [kac_vanishes(h, c, n) for n in range(1, 15)] == [n >= r * r for n in range(1, 15)]
    expected = convolve([1] + [0] * (r * r - 1) + [-1], colored_partition_series(1, 14))[:15]
    phi = Functional.classical(-h, c)
    assert list(quotient_dims(phi, 14)) == expected
    _without_character(monkeypatch)
    assert list(quotient_dims(phi, 9)) == expected[:10]


CHAIN_AND_NEGATIVE_T_POINTS = {
    "c_1": (F(1, 4), F(1)),            # t = 1: h_{1,2} = h_{2,1}, a chain
    "c_25": (F(-5, 4), F(25)),         # t = -1: h_{1,2} = h_{2,1}
    "t_negative": (F(-4), F(26)),      # t = -2/3: h_{1,3} = h_{4,1}, zeros at depths 3, 4
    "boundary": (F(5, 3), F(1, 2)),    # t = 3/4: h_{1,3}, rp - sp' = -9 and p = 3 divides it
}


@pytest.mark.parametrize("name", CHAIN_AND_NEGATIVE_T_POINTS)
def test_chains_and_negative_t_go_to_the_engine(name, monkeypatch):
    # the diagram covers them too: no layer is built, and the pairing rank agrees
    h, c = CHAIN_AND_NEGATIVE_T_POINTS[name]
    assert kac_vanishes(h, c, 4)
    phi = Functional.classical(-h, c)
    calls = _counting(monkeypatch, verma, "_layered_quotient_dims")
    dims = quotient_dims(phi, 8)
    assert calls == []
    assert dims == verma._order_one_dims(h, c, 8)
    assert dims == tuple(linalg.rank(pairing_matrix(phi, n)) for n in range(9))


@pytest.mark.parametrize("m", range(6))
def test_c_one_characters_match_the_closed_form(m, monkeypatch):
    layered = _counting(monkeypatch, verma, "_layered_quotient_dims")
    dims = quotient_dims(Functional.classical(F(-m * m, 4), 1), 16)
    assert list(dims) == [c_one_dims(m, n) for n in range(17)]
    assert layered == []


def _kac_grid():
    """(h, c) by diagram type: h_{r,s}, r, s <= 3, at rational t = p/p' (the
    braid where neither p nor p' divides rp - sp', else the chain, and t < 0),
    and h_{r,r}, r <= 2, at irrational or complex t."""
    grid = {"braid": [], "chain": [], "t_negative": [], "irrational": []}
    for t in (F(3, 4), F(2, 5), F(5, 3), F(1), F(2), F(-1), F(-2, 3), F(-3, 2)):
        p, pp = t.numerator, t.denominator
        for r in range(1, 4):
            for s in range(1, 4):
                mu = r * p - s * pp
                kind = "t_negative" if t < 0 else "braid" if mu % p and mu % pp else "chain"
                grid[kind].append((((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t),
                                   13 - 6 * (t + 1 / t)))
    for c in (F(2), F(30), F(-7, 5)):
        u = (13 - c) / 6
        grid["irrational"] += [((r * r - 1) * (u - 2) / 4, c) for r in (1, 2)]
    return grid


KAC_GRID = _kac_grid()


@pytest.mark.parametrize("kind", KAC_GRID)
def test_order_one_character_matches_the_engine_on_the_kac_grid(kind):
    for h, c in KAC_GRID[kind]:
        assert verma._order_one_dims(h, c, 8) == verma._layered_quotient_dims(
            Functional.classical(-h, c), 8), (h, c)


@pytest.mark.parametrize("kind", KAC_GRID)
def test_singular_vector_counts_match_the_oracle_on_the_kac_grid(kind, monkeypatch):
    certificates = _counting(monkeypatch, linalg, "full_rank_mod_p")
    for h, c in KAC_GRID[kind]:
        phi = Functional.classical(-h, c)
        for n in range(1, 7):
            assert len(singular_vectors(phi, n)) == classical_singular_dim(n, -h, c), (h, c, n)
    assert certificates == []  # a vertex depth runs the exact kernel at once


def test_off_vertex_depths_build_no_basis_or_action(monkeypatch):
    actions = _counting(monkeypatch, verma, "_action_rows")
    bases = _counting(monkeypatch, verma, "pbw_basis")
    direct = _counting(monkeypatch, pbw, "pbw_basis")
    past_first = 0
    for points in KAC_GRID.values():
        for h, c in points:
            vertices = verma._embedding_diagram(verma._embedding_steps(h, c, 8))
            phi = Functional.classical(-h, c)
            for n in range(1, 9):
                if n not in vertices:
                    assert singular_vectors(phi, n) == []
                    past_first += n > min(vertices.keys() - {0}, default=9)
    assert past_first > 0
    assert actions == [] and bases == [] and direct == []


@pytest.mark.parametrize("count", [0, 2])
def test_vertex_kernel_must_hold_one_vector(count, monkeypatch):
    real = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda rows, ncols: (real(rows, ncols) * 2)[:count])
    with pytest.raises(AssertionError, match="multiplicity one"):
        singular_vectors(_minimal_model_phi("ising_sigma"), 2)


def test_order_one_pieces_build_no_layer(monkeypatch):
    layered = _counting(monkeypatch, verma, "_layered_quotient_dims")
    bases = _counting(monkeypatch, verma, "pbw_basis")
    direct = _counting(monkeypatch, pbw, "pbw_basis")
    # Ising sigma at t = 0 times a weight with no Kac zero at t = 1
    phi, depth = PARITY_CASES["q_times_q"]
    sigma = rocha_caridi_dims(3, 4, 1, 2, depth)
    assert list(quotient_dims(phi, depth)) == convolve(
        sigma, colored_partition_series(1, depth))[:depth + 1]
    # Ising sigma pulled back to Q[t]/t^2 reduces to one order-1 piece
    assert list(quotient_dims(_pullback("ising_sigma", 2), 10)) == rocha_caridi_dims(
        3, 4, 1, 2, 10)
    assert layered == [] and bases == [] and direct == []


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("phi, depth", [
    (Functional.classical(F(2, 7), F(5, 3)), 10),
    # top form -2 n / 3 + (n^3 - n) / 30 vanishes only at n^2 = 21
    (Functional(DUAL, {0: F(2, 7), 1: F(1, 3)}, {0: F(5, 3), 1: F(2, 5)}), 6),
    (Functional(GAUSS, {0: F(2, 7), 1: F(1, 3)}, {0: F(5, 3), 1: F(2, 5)}), 6),
    # the pieces e_0, e_1 are classical at (2/7, 5/3) and (1/3, 2/5)
    (Functional(QXQ, {0: F(2, 7), 1: F(1, 3)}, {0: F(5, 3), 1: F(2, 5)}), 5),
    # top form -2 n / 8 + (n^3 - n) / 36 vanishes only at n^2 = 10
    (Functional(CUBIC, {0: F(2, 7), 1: F(1, 3), 2: F(1, 8)},
                {0: F(5, 3), 1: F(2, 5), 2: F(1, 3)}), 4),
], ids=["classical", "dual", "gauss", "q_times_q", "cubic"])
def test_generic_weights_make_no_exact_elimination(phi, depth, monkeypatch):
    row_basis_calls = _counting(monkeypatch, linalg, "row_basis")
    kernel_calls = _counting(monkeypatch, linalg, "kernel")
    colors = phi.algebra.dim
    assert list(quotient_dims(phi, depth)) == colored_partition_series(colors, depth)
    assert all(singular_vectors(phi, n) == [] for n in range(1, 5))
    assert row_basis_calls == [] and kernel_calls == []


def test_certificate_stops_at_the_first_deficient_depth(monkeypatch):
    _without_skip(monkeypatch)  # the skip leaves only depth 2 to test
    calls = _counting(monkeypatch, linalg, "full_rank_mod_p")
    # Ising sigma has its singular vector at depth 2
    assert quotient_dims(_minimal_model_phi("ising_sigma"), 8) == (1, 1, 1, 2, 2, 3, 4, 5, 6)
    assert [ncols for _, ncols in calls] == [1, 1, 2]


def test_skip_runs_the_engine_from_the_first_reducible_depth(monkeypatch):
    _without_character(monkeypatch)  # else Ising sigma never reaches the engine
    calls = _counting(monkeypatch, linalg, "full_rank_mod_p")
    actions = _counting(monkeypatch, verma, "_action_rows")
    # h_{1,2} = 1/16 at c = 1/2: depths 0 and 1 are full by the Kac determinant
    assert quotient_dims(_minimal_model_phi("ising_sigma"), 8) == (1, 1, 1, 2, 2, 3, 4, 5, 6)
    assert calls == []  # depth 2 is deficient by theorem and goes to row_basis
    assert actions and all(len(basis) >= 2 for _, _, _, basis in actions)  # depth >= 2
    calls.clear()
    actions.clear()
    # a generic weight builds no layer and no singular-vector action at all
    phi = Functional(DUAL, {0: F(2, 7), 1: F(1, 3)}, {0: F(5, 3), 1: F(2, 5)})
    assert list(quotient_dims(phi, 6)) == colored_partition_series(2, 6)
    assert all(singular_vectors(phi, n) == [] for n in range(1, 5))
    assert calls == [] and actions == []


def test_certificate_runs_only_where_no_theorem_applies(monkeypatch):
    calls = _counting(monkeypatch, linalg, "full_rank_mod_p")
    cases = [(phi, depth) for _, phi, depth in PLANTED_LOCAL]
    cases += [(_minimal_model_phi(name), 10) for name in MINIMAL_MODELS]
    for phi, depth in cases:
        quotient_dims(phi, depth)
        # at the theorem's own depth the stack always has a kernel
        for n in range(1, min(verma._first_reducible_depth(phi, 4), 4) + 1):
            singular_vectors(phi, n)
    # off the embedding diagram the theorem answers: Ising sigma at depth 8
    assert singular_vectors(_minimal_model_phi("ising_sigma"), 8) == []
    assert calls == []
    # past the first reducible depth of an order-2 piece the certificate runs
    phi, _ = PARITY_CASES["dual"]
    assert verma._first_reducible_depth(phi, 4) == 1
    singular_vectors(phi, 3)
    assert len(calls) == 1
    calls.clear()
    # Q(i) is covered by no theorem, so its layers and stacks are certified mod p
    phi, depth = PARITY_CASES["gauss"]
    quotient_dims(phi, depth)
    assert calls
    calls.clear()
    for n in range(1, 5):
        singular_vectors(phi, n)
    assert calls


@pytest.mark.parametrize("name", PARITY_CASES)
def test_results_do_not_depend_on_the_skip(name, monkeypatch):
    _assert_parity_without(_without_skip, name, monkeypatch)


def _local_functional(factors, d0_local, c_local):
    """The product_local functional whose CRT piece at (a, N) takes the value
    mu_j on (t - a)^j, j < N: t^k = sum_j binom(k, j) a^(k-j) (t - a)^j, so
    phi(t^k) is the sum over the pieces of sum_j binom(k, j) a^(k-j) mu_j."""
    alg = Algebra.product_local(factors)

    def value(local, k):
        return sum((math.comb(k, j) * F(a) ** (k - j) * mu[j] for (a, _), mu in zip(factors, local)
                    for j in range(min(len(mu), k + 1))), F(0))

    return Functional(alg, *({k: value(local, k) for k in range(alg.dim)}
                             for local in (d0_local, c_local)))


def _planted_local_cases():
    """(label, functional, depth): seeded values on the CRT pieces of four
    layouts, generic or with one piece planted on a Kac zero h_{r,s}, rs = n0
    (order 1, rational t), or on a top-degree zero
    lambda = (n0^2 - 1) kappa / 24 (order >= 2)."""
    rng = random.Random(1511)
    layouts = [((0, 3),), ((0, 2), (1, 1)), ((0, 1), (2, 1), (-1, 1)), ((F(1, 2), 3),)]
    cases = []
    for factors in layouts:
        for plant in [None] + [(i, n0) for i in range(len(factors)) for n0 in (1, 2, 3, 4)]:
            d0, c = ([[F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                       for _ in range(n)] for _, n in factors] for _ in range(2))
            if plant is not None:
                i, n0 = plant
                if factors[i][1] == 1:
                    r = rng.choice([r for r in range(1, n0 + 1) if n0 % r == 0])
                    t = rng.choice((F(4, 3), F(-2, 3), F(5, 2), F(2), F(-1)))
                    c[i][0] = 13 - 6 * (t + 1 / t)
                    d0[i][0] = -((r * t - n0 // r) ** 2 - (t - 1) ** 2) / (4 * t)
                else:
                    d0[i][-1] = (n0 * n0 - 1) * c[i][-1] / 24
            layout = ",".join(f"{a}^{n}" for a, n in factors)
            label = f"{layout}-" + ("generic" if plant is None else "{}-at-{}".format(*plant))
            cases.append((label, _local_functional(factors, d0, c), 4))
    return cases


PLANTED_LOCAL = _planted_local_cases()


def test_planted_local_corpus_covers_both_criteria():
    first = [verma._first_reducible_depth(phi, depth) for _, phi, depth in PLANTED_LOCAL]
    assert len(PLANTED_LOCAL) == 32
    assert 0 not in first and {1, 2, 3, 4, 5} <= set(first)


@pytest.mark.parametrize("label, phi, depth", PLANTED_LOCAL,
                         ids=[label for label, _, _ in PLANTED_LOCAL])
def test_skip_is_exact_on_planted_local_functionals(label, phi, depth, monkeypatch):
    first = verma._first_reducible_depth(phi, depth)
    skipped = (quotient_dims(phi, depth),
               [singular_vectors(phi, n) for n in range(1, depth)])
    _without_skip(monkeypatch)
    dims = quotient_dims(phi, depth)
    assert skipped == (dims, [singular_vectors(phi, n) for n in range(1, depth)])
    # the predicted depth is the engine's first deficient one
    full = module_dims(phi.algebra, depth)
    assert first == next((n for n in range(depth + 1) if dims[n] < full[n]), depth + 1)


@pytest.mark.parametrize(
    "phi, depth", [PARITY_CASES[name] for name in PARITY_CASES]
    + [(phi, depth) for _, phi, depth in PLANTED_LOCAL],
    ids=list(PARITY_CASES) + [label for label, _, _ in PLANTED_LOCAL])
def test_split_matches_the_unsplit_engine(phi, depth):
    # the layered engine on phi itself, over all dim A colors, skips no CRT piece
    assert quotient_dims(phi, depth) == verma._layered_quotient_dims(phi, depth)


def _reduced_orders(phi):
    """k per CRT piece: one past its last nonzero (lambda_k, kappa_k) pair."""
    return [max((k + 1 for k, pair in enumerate(zip(lam, kappa)) if any(pair)), default=0)
            for _, lam, kappa in verma._local_pieces(phi)]


def _pullback(name, order):
    """A minimal model pulled back to Q[t]/t^order: phi kills Vir_0 (x) (t)."""
    h, c = minimal_model_weight(*MINIMAL_MODELS[name][0])
    return Functional(Algebra.product_local([(0, order)]), {0: -h}, {0: c})


def test_reduced_pieces_match_the_largest_killed_ideal():
    # the pieces' reduced orders add up to the codimension of the largest
    # ideal J with phi(Vir_0 (x) J) = 0, an independent kernel computation
    cases = [phi for _, phi, _ in PLANTED_LOCAL] + [PARITY_CASES["cubic"][0]]
    cases += [_pullback(name, order) for name in MINIMAL_MODELS for order in (2, 3)]
    for phi in cases:
        assert sum(_reduced_orders(phi)) == phi.algebra.dim - largest_v0_ideal(phi).dim
    assert _reduced_orders(PARITY_CASES["cubic"][0]) == [2]
    for name, ((p, pp, r, s), _) in MINIMAL_MODELS.items():
        for order in (2, 3):
            assert list(quotient_dims(_pullback(name, order), 10)) == rocha_caridi_dims(
                p, pp, r, s, 10)


def test_pullback_verma_module_stays_on_the_original_algebra():
    # over Q[t]/t^2 the Ising sigma pullback has (d_{-1} (x) t) v singular at
    # depth 1, although its irreducible quotient is the classical one
    phi = _pullback("ising_sigma", 2)
    assert verma._first_reducible_depth(phi, 4) == 1
    vecs = singular_vectors(phi, 1)
    assert vecs and all(verma._is_singular(v) for v in vecs)
    assert quotient_dims(phi, 6) == (1, 1, 1, 2, 2, 3, 4)


def _loop_first_reducible_depth(phi, max_depth, walks=None):
    """``_first_reducible_depth`` with the order N >= 2 criterion searched
    n by n, as it was before its closed form; it walks every piece itself."""
    pieces = verma._local_pieces(phi)
    if pieces is None:
        return 0
    first = max_depth + 1
    for _, lams, kappas in pieces:
        lam, kappa = lams[-1], kappas[-1]
        if len(lams) == 1:
            first = min(verma._kac_steps(*verma._kac_zero(-lam, kappa), 0, first - 1), default=first)
        else:
            first = min(first, oracle_wilson_depth(lam, kappa, first - 1))
    return first


def _wilson_cases():
    """(lam, kappa, max_depth) for a top pair: planted squares
    1 + 24 lam / kappa = n^2 with max_depth below, at and above n; kappa = 0
    with lam = 0 and lam != 0; negative, zero and non-square values."""
    rng = random.Random(2604)
    cases = []
    for n in range(1, 13):
        kappa = F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))
        cases += [((n * n - 1) * kappa / 24, kappa, depth) for depth in (n - 1, n, n + 1)]
    cases += [(F(0), F(0), depth) for depth in (0, 1, 6)]
    cases += [(F(3, 2), F(0), 12), (F(-1, 7), F(0), 12)]
    for square in (F(-1), F(-48, 5), F(0), F(2), F(7, 4), F(24), F(99), F(143, 4)):
        kappa = F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))
        cases += [((square - 1) * kappa / 24, kappa, 12)]
    return cases


def test_wilson_closed_form_matches_the_search():
    rng = random.Random(2605)
    for lam, kappa, depth in _wilson_cases():
        want = oracle_wilson_depth(lam, kappa, depth)
        for point, order in ((0, 2), (F(3, 5), 3), (F(-7, 2), 5)):
            d0 = [rand_scalar(rng) for _ in range(order - 1)] + [lam]
            c = [rand_scalar(rng) for _ in range(order - 1)] + [kappa]
            phi = _local_functional([(point, order)], [d0], [c])
            assert verma._local_pieces(phi)[0][1:] == (tuple(d0), tuple(c))
            assert verma._first_reducible_depth(phi, depth) == want, (lam, kappa, depth)
    # the planted squares answer every depth 1..12, and 13 past max_depth 12
    wants = [oracle_wilson_depth(lam, kappa, depth) for lam, kappa, depth in _wilson_cases()]
    assert set(range(1, 14)) <= set(wants)


@pytest.mark.parametrize(
    "phi, depth", [PARITY_CASES[name] for name in PARITY_CASES]
    + [(phi, depth) for _, phi, depth in PLANTED_LOCAL],
    ids=list(PARITY_CASES) + [label for label, _, _ in PLANTED_LOCAL])
def test_quotient_dims_agree_with_the_searched_criterion(phi, depth, monkeypatch):
    for max_depth in range(depth + 1):
        first = _loop_first_reducible_depth(phi, max_depth)
        assert verma._first_reducible_depth(phi, max_depth) == first
        # quotient_dims hands over each order-1 piece's walk to max_depth
        walks = [verma._embedding_steps(-lam[0], kappa[0], max_depth) if len(lam) == 1
                 else None for _, lam, kappa in verma._local_pieces(phi) or ()]
        assert verma._first_reducible_depth(phi, max_depth, walks) == first
    dims = quotient_dims(phi, depth)
    monkeypatch.setattr(verma, "_first_reducible_depth", _loop_first_reducible_depth)
    assert quotient_dims(phi, depth) == dims


def test_local_pieces_match_the_product_oracle_at_rational_points():
    # lam_k = phi(d_0 (x) e s^k) = sum_j binom(k, j) (-a)^(k - j) phi(d_0 (x) e t^j),
    # with phi(d_0 (x) e t^j) from products in A
    rng = random.Random(2606)
    for _ in range(40):
        points = rng.sample([F(u, v) for u in range(-9, 10) for v in (1, 2, 5, 9)
                             if math.gcd(u, v) == 1], rng.randint(1, 3))
        alg = Algebra.product_local([(a, rng.randint(1, 4)) for a in points])
        phi = rand_functional(rng, alg)
        expected = []
        for (a, order), values in zip(alg.factors, oracle_split_values(phi)):
            expected.append((a, *(tuple(sum(math.comb(k, j) * (-a) ** (k - j) * w[j]
                                            for j in range(k + 1)) for k in range(order))
                                  for w in values)))
        assert list(verma._local_pieces(phi)) == expected


def test_only_local_pieces_reads_the_factor_layout():
    tree = ast.parse(Path(verma.__file__).read_text(encoding="utf-8"))
    readers = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and node.attr in ("factors", "_modulus"):
                readers.add(owner)
    assert readers == {"_local_pieces"}


def test_order_one_criterion_matches_the_kac_oracle():
    weights = [F(0), F(1, 16), F(-1, 4), F(1), F(2, 3), F(-5), F(3, 80)]
    for t in (F(4, 3), F(-2, 3), F(5, 2), F(1), F(-1), F(-3, 2)):  # c = 1, 25, 26 among them
        for r, s in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (1, 5), (2, 2)):
            weights.append(((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t))
    charges = [13 - 6 * (t + 1 / t) for t in (F(4, 3), F(-2, 3), F(5, 2), F(1), F(-1), F(-3, 2))]
    charges += [F(1, 2), F(7, 10), F(-22, 5), F(0), F(3)]
    assert {F(1), F(25), F(26)} <= set(charges)
    for c in charges:
        for h in weights:
            first = verma._first_reducible_depth(Functional.classical(-h, c), 8)
            assert [n >= first for n in range(1, 9)] == [
                kac_vanishes(h, c, n) for n in range(1, 9)], (h, c)


def _kac_zero_grid():
    """(h, c) covering every branch of ``_kac_zero``: Kac-table and off-table
    weights at t = +-p/p', p, p' <= 7 (c = 1, c = 25 and t < 0 among them),
    at irrational t, and weights with large denominators."""
    off_table = [F(0), F(1, 3), F(-2, 7), F(1, 2**80 + 3), F(-(3**60), 7**41)]
    ts = [F(p, pp) for p in range(1, 8) for pp in range(1, 8) if math.gcd(p, pp) == 1]
    ts += [F(2**40 + 1, 2**41 + 3)]  # Kac-table weights with denominators past 2^64
    points = []
    for t in ts + [-t for t in ts]:
        table = [((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)
                 for r in range(1, 5) for s in range(1, 5)]
        table += [h + F(1, 10**40) for h in table[:3]]
        points += [(h, 13 - 6 * (t + 1 / t)) for h in table + off_table]
    for c in (F(2), F(3), F(-7, 5), F(1, 3), F(30), F(1, 2**70 + 1)):  # t irrational
        u = (13 - c) / 6
        hs = [(r * r - 1) * (u - 2) / 4 for r in range(1, 5)]
        hs += [-(k * k + 1) * (u - 2) / 4 for k in (1, 2)]  # r^2 = -k^2: no zero
        points += [(h, c) for h in hs + [hs[1] + F(1, 7**30)] + off_table]
    return points


def test_kac_zero_matches_the_fraction_oracle():
    grid = _kac_zero_grid()
    zeros = [verma._kac_zero(h, c) for h, c in grid]
    assert zeros == [oracle_kac_zero(h, c) for h, c in grid]
    assert {F(1), F(25)} <= {c for _, c in grid}
    assert any(t is None and c > 1 for (_, c), (t, _) in zip(grid, zeros))  # b - a < 0
    # every branch: irrational t with and without a zero, rational t > 0 and
    # t < 0 with and without one, and a large-denominator weight on a zero
    kinds = {(t is None, t is not None and t[0] < 0, m is None) for t, m in zeros}
    assert kinds == {(True, False, False), (True, False, True), (False, False, False),
                     (False, False, True), (False, True, False), (False, True, True)}
    assert any(m is not None and h.denominator > 2**64 for (h, _), (_, m) in zip(grid, zeros))


def test_vertex_walk_and_diagram_closure_agree_on_the_kac_grids():
    # singular_vectors reads the vertices off the steps, quotient_dims the closure
    points = [(h, c) for grid in KAC_GRID.values() for h, c in grid] + _kac_zero_grid()
    points += [minimal_model_weight(*point) for point, _ in MINIMAL_MODELS.values()]
    reducible = 0
    for h, c in points:
        for limit in (1, 4, 8):
            steps = verma._embedding_steps(h, c, limit)
            below = verma._embedding_diagram(steps)
            assert steps.keys() == below.keys(), (h, c, limit)
            assert all(steps[d] <= below[d] <= below.keys() - {d} for d in below), (h, c, limit)
            reducible += len(below) > 1
    assert reducible > len(points)  # the grids reach vertices below the top


def test_classical_constructor_matches_the_generic_one():
    half = Algebra.structure_constants([[[2]]], [F(1, 2)])  # e_0^2 = 2 e_0, 1 = e_0 / 2
    for alg in (None, QQ, half, Algebra.product_local([(F(1, 3), 1)])):
        for d0, c in ((3, "1/2"), ("-5/7", F(2, 3)), (F(1, 16), -4), (0, "0")):
            lean = Functional.classical(d0, c, alg)
            generic = Functional(alg or QQ, {0: d0}, {0: c})
            assert lean == generic
            assert (lean.algebra, lean._d0, lean._c, lean.exact_poly, lean._extended) == (
                generic.algebra, generic._d0, generic._c, generic.exact_poly, generic._extended)
            assert type(lean._d0) is type(generic._d0) and type(lean._d0[0]) is F
            assert verma._local_pieces(lean) == verma._local_pieces(generic)
    pieces = verma._local_pieces(Functional.classical(F(1, 16), 3, half))
    assert pieces == ((0, (F(1, 32),), (F(3, 2),)),)  # the u != 1 branch: u = 1/2
    assert all(type(x) is F for x in (*pieces[0][1], *pieces[0][2]))


@pytest.mark.parametrize("d0, c, alg, error", [
    (0.5, 1, None, TypeError), (1, 0.5, QQ, TypeError),
    (1, 2, Algebra.polynomial((0, 4)), ValueError), (1, 2, Algebra.laurent((-2, 2)), ValueError),
    (1, 2, DUAL, ValueError), (1, 2, QXQ, ValueError)],
    ids=["float_d0", "float_c", "polynomial", "laurent", "dual", "two_dimensional"])
def test_classical_constructor_rejects_floats_and_wide_algebras(d0, c, alg, error):
    with pytest.raises(error):
        Functional.classical(d0, c, alg)


def test_one_kac_zero_per_order_one_piece(monkeypatch):
    zeros = _counting(monkeypatch, verma, "_kac_zero")
    walks = _counting(monkeypatch, verma, "_embedding_steps")
    diagrams = _counting(monkeypatch, verma, "_embedding_diagram")
    sigma, epsilon = (minimal_model_weight(*MINIMAL_MODELS[name][0])
                      for name in ("ising_sigma", "ising_epsilon"))
    cases = [(_minimal_model_phi(name), 1) for name in MINIMAL_MODELS]
    cases += [(Functional.classical(F(2, 7), F(5, 3)), 1),
              (Functional(SPLIT, {0: -sigma[0], 1: -epsilon[0]}, {0: sigma[1], 1: F(1, 2)}), 2),
              (Functional(SPLIT, {0: F(2, 7), 1: F(1, 3)}, {0: F(5, 3), 1: F(2, 5)}), 2)]
    for phi, pieces in cases:
        for n in range(1, 6):
            zeros.clear()
            singular_vectors(phi, n)
            assert len(zeros) == pieces, (phi, n)
        # quotient_dims walks each order-1 piece once, reads its least vertex
        # off the walk, and closes the walk into a diagram only below max_depth
        for depth in (1, 8):
            zeros.clear()
            walks.clear()
            diagrams.clear()
            dims = quotient_dims(phi, depth)
            reducible = dims != tuple(colored_partition_series(pieces, depth))
            assert len(diagrams) == (pieces if reducible else 0), (phi, depth)
            assert len(zeros) == len(walks) == pieces, (phi, depth)


def test_one_dimensional_pieces_match_the_crt_path():
    half = Algebra.structure_constants([[[2]]], [F(1, 2)])  # e_0^2 = 2 e_0, 1 = e_0 / 2
    for alg in (QQ, half):
        for d0, c in ((F(3, 7), F(1, 2)), (F(-5), F(0)), (F(0), F(0))):
            phi = Functional(alg, {0: d0}, {0: c})
            one = alg.one().to_vector()  # the general path: weights of the idempotent 1
            lam = sum(x * phi.value_d0(j) for j, x in enumerate(one) if x)
            kappa = sum(x * phi.value_c(j) for j, x in enumerate(one) if x)
            pieces = verma._local_pieces(phi)
            assert pieces == ((0, (lam,), (kappa,)),)
            assert all(type(x) is F for x in (*pieces[0][1], *pieces[0][2]))
    # phi(x (x) 1) = phi(x (x) e_0) / 2, so V(phi) over ``half`` is classical
    for name in MINIMAL_MODELS:
        h, c = minimal_model_weight(*MINIMAL_MODELS[name][0])
        phi = Functional(half, {0: -2 * h}, {0: 2 * c})
        assert quotient_dims(phi, 8) == quotient_dims(_minimal_model_phi(name), 8)
        assert [len(singular_vectors(phi, n)) for n in range(1, 5)] == [
            len(singular_vectors(_minimal_model_phi(name), n)) for n in range(1, 5)]


# planted functionals on which the closed form fails: (order, n0, d0, c, dims),
# dims from the layered engine, equal to the exact pairing rank
CLOSED_FORM_EXCEPTIONS = {
    "order2_n0_1": (2, 1, {0: F(1, 2), 1: F(0)}, {0: F(0), 1: F(-3)}, [1, 1, 2, 4]),
    "order3_n0_5": (3, 5, {0: F(2), 1: F(-1, 2), 2: F(-1, 2)},
                    {0: F(1), 1: F(-1, 2), 2: F(-1, 2)}, [1, 3, 9, 22, 51, 106]),
}


def _planted_top_zeros():
    """(order, n0, depth, functional) over Q[t]/t^order with random lower
    values and lambda = (n0^2 - 1) kappa / 24 on the top basis vector; 24
    draws with n0 >= 2, less any listed in CLOSED_FORM_EXCEPTIONS."""
    rng = random.Random(1409)
    plan = [(2, n0, 8) for n0 in (2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 6)]
    plan += [(3, n0, 5) for n0 in (2, 3, 4, 5, 2, 3, 4, 5, 2, 3, 4, 5)]
    exceptions = [(d0, c) for _, _, d0, c, _ in CLOSED_FORM_EXCEPTIONS.values()]
    cases = []
    for order, n0, depth in plan:
        kappa = F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((1, 2)))
        d0, c = ({i: F(rng.randint(-3, 3), rng.choice((1, 2))) for i in range(order - 1)}
                 for _ in range(2))
        d0[order - 1], c[order - 1] = (n0 * n0 - 1) * kappa / 24, kappa
        if (d0, c) not in exceptions:
            alg = Algebra.product_local([(0, order)])
            cases.append((order, n0, depth, Functional(alg, d0, c)))
    return cases


@pytest.mark.parametrize("order, n0, depth, phi", _planted_top_zeros(),
                         ids=lambda x: x if isinstance(x, int) else "phi")
def test_top_zero_quotient_dims_match_closed_form(order, n0, depth, phi):
    # deficient layers from depth n0 on run the exact row_basis fallback
    assert list(quotient_dims(phi, depth)) == top_zero_dims(order, n0, depth)


@pytest.mark.parametrize("name", CLOSED_FORM_EXCEPTIONS)
def test_top_zero_closed_form_exceptions(name):
    order, n0, d0, c, dims = CLOSED_FORM_EXCEPTIONS[name]
    phi = Functional(Algebra.product_local([(0, order)]), d0, c)
    depth = len(dims) - 1
    assert list(quotient_dims(phi, depth)) == dims != top_zero_dims(order, n0, depth)
    if order == 2:
        alg, table, _ = COLORED_CASES["dual"]
        for n in range(depth + 1):
            basis = pbw_basis(n, alg)
            pairing = [[colored_virasoro_apply(list(x) + [(-m, b) for m, b in y],
                                               table, d0, c).get((), 0) for y in basis]
                       for x in basis]
            assert oracle_rank(pairing) == dims[n]


@pytest.mark.parametrize("name", PARITY_CASES)
def test_quotient_dims_equal_pairing_rank(name):
    phi, depth = PARITY_CASES[name]
    assert quotient_dims(phi, depth) == tuple(
        linalg.rank(pairing_matrix(phi, n)) for n in range(depth + 1))


def test_finite_quotient_dims_make_no_raising_calls(monkeypatch):
    calls = []
    real = verma._raise

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(verma, "_raise", counting)
    assert quotient_dims(_minimal_model_phi("ising_sigma"), 8) == (1, 1, 1, 2, 2, 3, 4, 5, 6)
    quotient_dims(PARITY_CASES["dual"][0], 4)
    quotient_dims(PARITY_CASES["gauss"][0], 4)
    assert calls == []


def _frozen_result(result) -> bool:
    """A (den, monomials, numerators) triple of ints in tuples, in lowest terms."""
    den, monos, nums = result
    return (type(result) is tuple and type(monos) is tuple and type(nums) is tuple
            and type(den) is int and den > 0 and len(monos) == len(nums)
            and all(type(mono) is tuple and all(type(g) is tuple for g in mono)
                    for mono in monos)
            and all(type(c) is int and c != 0 for c in nums)
            and math.gcd(den, *nums) == 1)


@pytest.mark.parametrize("phi", [
    _minimal_model_phi("ising_sigma"), PARITY_CASES["dual"][0], PARITY_CASES["gauss"][0]],
    ids=["ising_sigma", "dual", "gauss"])
def test_action_caches_hold_frozen_integer_results(phi):
    verma._layered_quotient_dims(phi, 6)  # the caches fill only in the engine
    caches = (phi._act_cache, phi.algebra._caches["pbw_left_mult"])
    assert all(caches)
    for cache in caches:
        assert all(type(key) is tuple and _frozen_result(result)
                   for key, result in cache.items())


def _action_parity_cases():
    """name -> (functional, colors) with seeded values: Q, product_local at
    integer and at rational points (basis products with denominators), the
    dual numbers and an exact windowed Q[t] functional."""
    rng = random.Random(1311)

    def values(n):
        return {i: F(rng.randint(-9, 9), rng.randint(1, 7)) for i in range(n)}

    def on(alg):
        return Functional(alg, values(alg.dim), values(alg.dim)), tuple(range(alg.dim))

    exact = Functional.from_sequences(
        Algebra.polynomial((0, 8)), values(2).values(), values(2).values(),
        exact_ideal=(F(-6), F(-1), F(1)))
    return {"rationals": (Functional.classical(*values(2).values()), (0,)),
            "integer_points": on(Algebra.product_local([(0, 2), (1, 1)])),
            "rational_points": on(Algebra.product_local([(F(1, 2), 2), (F(-2, 3), 1)])),
            "dual": on(DUAL),
            "exact_polynomial": (exact, (0, 1))}


ACTION_PARITY_CASES = _action_parity_cases()


@pytest.mark.parametrize("name", ACTION_PARITY_CASES)
def test_action_matches_the_reference_on_every_cached_entry(name, monkeypatch):
    # j in -2..3, every color, every monomial through depth 5 (6 at rational
    # points, where a head that leads follows a rescale), in a seeded order
    phi, colors = ACTION_PARITY_CASES[name]
    window = (0, 1) if name == "exact_polynomial" else None
    depth = 6 if name == "rational_points" else 5
    monos = [m for n in range(depth + 1) for m in pbw_basis(n, phi.algebra, window=window)]
    keys = [(j, b, m) for j in range(-2, 4) for b in colors for m in monos]
    random.Random(1312).shuffle(keys)
    real, grown = verma._add_scaled, []

    def add_scaled(acc, den, *args):
        out = real(acc, den, *args)
        grown.append(out != den)
        return out

    monkeypatch.setattr(verma, "_add_scaled", add_scaled)
    reference: dict = {}
    for key in keys:
        assert verma._act_basis(phi, *key) == reference_act_basis(phi, *key, reference), key
    # nodes on v and mode-0 nodes on the color e_b = s 1 (a multiple of the
    # grading operator) are scalars, returned without a cache entry
    scalar = {key for key in reference
              if not key[2] or key[:2] == (0, phi.algebra._unit_color[0])}
    assert scalar and phi._act_cache.keys() == reference.keys() - scalar
    for key, result in phi._act_cache.items():
        assert result == reference[key] and _frozen_result(result), key
    assert any(grown)  # phi's values carry denominators, so some nodes are rescaled
    # at rational points straightening itself carries denominators
    straightened = phi.algebra._caches.get("pbw_left_mult", {}).values()
    assert any(d > 1 for d, _, _ in straightened) == (name == "rational_points")


def _grading_cases():
    """name -> functional with seeded values on algebras with a basis element
    e_b = s 1: Q, e_0^2 = 2 e_0 (1 = e_0 / 2, so s = 2), e_0^2 = e_0 / 3
    (s = 1/3), e_0^2 = -e_0 (s = -1), product_local at integer and at
    rational points, and the dual numbers."""
    rng = random.Random(1314)
    half = Algebra.structure_constants([[[2]]], [F(1, 2)])
    algebras = {"rationals": QQ, "half": half,
                "third": Algebra.structure_constants([[[F(1, 3)]]], [3]),
                "negative": Algebra.structure_constants([[[-1]]], [-1]),
                "integer_points": Algebra.product_local([(0, 2), (1, 1)]),
                "rational_points": Algebra.product_local([(F(1, 2), 2), (F(-2, 3), 1)]),
                "dual": DUAL}
    return {name: Functional(alg, *({i: F(rng.randint(-9, 9), rng.randint(1, 7))
                                     for i in range(alg.dim)} for _ in range(2)))
            for name, alg in algebras.items()}


GRADING_CASES = _grading_cases()


@pytest.mark.parametrize("name", GRADING_CASES)
def test_grading_shortcut_matches_the_reference(name):
    # d_0 (x) s 1 acts on a depth-n monomial as phi(d_0 (x) e_b) - s n
    phi = GRADING_CASES[name]
    alg = phi.algebra
    one = alg.one().coeffs
    colors = [b for b in alg.basis_indices() if one.keys() == {b}]  # e_b = (1 / one_b) 1
    assert [(b, F(1) / one[b]) for b in colors] == [
        (alg._unit_color[0], F(*alg._unit_color[1:]))]
    if name == "half":
        assert alg._unit_color == (0, 2, 1)
    monos = [m for n in range(6) for m in pbw_basis(n, alg)]
    reference: dict = {}
    for b in colors:
        for mono in monos:
            got = verma._act_basis(phi, 0, b, mono)
            assert got == reference_act_basis(phi, 0, b, mono, reference), (b, mono)
            scalar = phi.value_d0(b) - sum(m for m, _ in mono) / one[b]
            assert got == ((scalar.denominator, (mono,), (scalar.numerator,)) if scalar
                           else (1, (), ())), (b, mono)
    assert not phi._act_cache  # no recursion and no cache entry
    # the recursion still runs, and caches, on the other colors
    for b in set(alg.basis_indices()) - set(colors):
        for mono in monos:
            assert verma._act_basis(phi, 0, b, mono) == reference_act_basis(
                phi, 0, b, mono, reference), (b, mono)
    assert bool(phi._act_cache) == (alg.dim > 1)


def _vertex_cases():
    """(h, c, depth) at every vertex depth <= 6 of the minimal-model weights
    and the Kac grid points."""
    points = [MINIMAL_MODELS[name][1] for name in MINIMAL_MODELS]
    points += [point for grid in KAC_GRID.values() for point in grid]
    return [(h, c, n) for h, c in points for n in sorted(verma._embedding_steps(h, c, 6))
            if n]


def test_vertex_vectors_match_the_reference_kernel():
    # coefficient for coefficient: the reference action's rows, the
    # Gauss-Jordan kernel, and the free column set to 1
    cases = _vertex_cases()
    assert len(cases) > 100 and {n for _, _, n in cases} == set(range(1, 7))
    for h, c, n in cases:
        phi = Functional.classical(-h, c)
        basis = pbw_basis(n, QQ)
        reference: dict = {}
        rows: dict = {}
        for mode in (1, 2):
            for col, mono in enumerate(basis):
                den, monos, nums = reference_act_basis(phi, mode, 0, mono, reference)
                for target, x in zip(monos, nums):
                    rows.setdefault((mode, target), [F(0)] * len(basis))[col] = F(x, den)
        (want,) = oracle_kernel(list(rows.values()), len(basis))
        (vec,) = singular_vectors(phi, n)
        assert dict(vec.env.terms) == {m: x for m, x in zip(basis, want) if x}, (h, c, n)


def test_windowed_quotient_dims_keep_pairing_path(monkeypatch):
    depths = []
    real = verma.pairing_matrix

    def counting(phi, depth, window=None):
        depths.append(depth)
        return real(phi, depth, window=window)

    monkeypatch.setattr(verma, "pairing_matrix", counting)
    P = Algebra.polynomial((0, 8))
    phi = Functional.from_sequences(P, [F(1), F(3)], [F(1), F(-2)],
                                    exact_ideal=(F(-6), F(-1), F(1)))
    # deg p = 2: the window (0, 1) holds the colors of A/(p), so phi_bar answers
    dims = quotient_dims(phi, 3, window=(0, 1))
    assert depths == []
    assert dims == quotient_dims(verma._pulled_back(phi, (0, 1))[0], 3)
    assert dims == tuple(linalg.rank(real(phi, n, window=(0, 1))) for n in range(4))
    # a narrower window and a sampled functional keep the pairing rank
    quotient_dims(phi, 3, window=(0, 0))
    assert depths == [0, 1, 2, 3]
    depths.clear()
    sampled = Functional.from_sequences(P, [F(3) ** k for k in range(7)],
                                        [F(-2) ** k for k in range(7)])
    assert quotient_dims(sampled, 3, window=(0, 1)) == dims
    assert depths == [0, 1, 2, 3]


@pytest.mark.parametrize("name", MINIMAL_MODELS)
def test_quotient_dims_match_rocha_caridi(name):
    (p, pp, r, s), weight = MINIMAL_MODELS[name]
    assert minimal_model_weight(p, pp, r, s) == weight
    assert list(quotient_dims(_minimal_model_phi(name), 14)) == rocha_caridi_dims(p, pp, r, s, 14)


def _kac_points():
    """(h, c, planted): seeded generic weights, planted diagonal zeros
    h_{r,r} = (r^2 - 1)(1 - c)/24 and planted h_{r,s}, r != s, at rational t
    with c = 13 - 6 (t + 1/t), all with rs <= 8."""
    rng = random.Random(1301)
    points = [(F(rng.randint(-60, 60), rng.choice((17, 19, 23))),
               F(rng.randint(-60, 60), rng.choice((29, 31))), False) for _ in range(6)]
    for r in (1, 2):
        for _ in range(2):
            c = F(rng.randint(-30, 30), rng.randint(1, 7))
            points.append((F(r * r - 1, 24) * (1 - c), c, True))
    for t in (F(4, 3), F(-2, 3), F(5, 2), F(1), F(-1)):
        for r, s in ((1, 2), (2, 1), (1, 3), (3, 2), (2, 4), (1, 7)):
            points.append((((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t),
                           13 - 6 * (t + 1 / t), True))
    return points


@pytest.mark.parametrize("h, c, planted", _kac_points())
def test_classical_quotient_dims_are_full_exactly_off_the_kac_zeros(h, c, planted):
    # both branches of the layered engine run: full-rank layers until the
    # first zero of the Kac determinant, rank-deficient ones after it
    assert kac_vanishes(h, c, 8) == planted
    dims = quotient_dims(Functional.classical(-h, c), 8)
    full = colored_partition_series(1, 8)
    assert [dims[n] == full[n] for n in range(9)] == [
        not kac_vanishes(h, c, n) for n in range(9)]


# -- the colored action against an independent rewriter ----------------------

def _table(products):
    """Symmetric product table from the expansions of e_a e_b, a <= b."""
    table = {}
    for (a, b), prod in products.items():
        table[a, b] = table[b, a] = {k: F(v) for k, v in prod.items()}
    return table


HALF = Algebra.product_local([(F(1, 2), 2)])       # Q[t]/((t - 1/2)^2): t^2 = t - 1/4

# algebra, its products written out by hand, color window
COLORED_CASES = {
    "dual": (DUAL, _table({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {}}), None),
    "q_times_q": (QXQ, _table({(0, 0): {0: 1}, (0, 1): {}, (1, 1): {1: 1}}), None),
    "gauss": (GAUSS, _table({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: -1}}), None),
    "half_point": (HALF, _table({(0, 0): {0: 1}, (0, 1): {1: 1},
                                 (1, 1): {0: F(-1, 4), 1: 1}}), None),
    # depth-4 words multiply up to 8 colors of the window (-1, 0)
    "laurent": (Algebra.laurent((-8, 8)),
                _table({(a, b): {a + b: 1} for a in range(-8, 1) for b in range(a, 1)
                        if a + b >= -8}), (-1, 0)),
}


def _colored_phi(alg):
    rng = random.Random(1303)
    d0, c = ({k: F(rng.randint(-9, 9), rng.randint(1, 5)) for k in alg.window_indices()}
             for _ in range(2))
    return Functional(alg, d0, c), d0, c


@pytest.mark.parametrize("name", COLORED_CASES)
def test_verma_act_matches_colored_oracle(name):
    alg, table, window = COLORED_CASES[name]
    phi, d0, c = _colored_phi(alg)
    for depth in range(5):
        for mono in pbw_basis(depth, alg, window=window):
            w = VermaVector(phi, EnvElement(alg, {mono: F(1)}))
            lowering = [(-m, b) for m, b in mono]
            for j in range(-2, depth + 2):
                for b in alg.window_indices(window):
                    got = {}
                    for piece in verma_act(d_term(alg, j, alg.basis_element(b)), w):
                        got.update(piece.env.terms)
                    assert got == colored_virasoro_apply([(j, b)] + lowering, table, d0, c)


@pytest.mark.parametrize("name", COLORED_CASES)
def test_pairing_matrix_matches_colored_oracle(name):
    alg, table, window = COLORED_CASES[name]
    phi, d0, c = _colored_phi(alg)
    for depth in range(5):
        basis = pbw_basis(depth, alg, window=window)
        expected = [[colored_virasoro_apply(list(x) + [(-m, b) for m, b in y],
                                            table, d0, c).get((), 0) for y in basis]
                    for x in basis]
        assert pairing_matrix(phi, depth, window=window) == expected


# -- singular vectors ---------------------------------------------------------

def test_singular_depth1_h0():
    phi = Functional.classical(0, 5)
    vecs = singular_vectors(phi, 1)
    assert len(vecs) == 1
    assert vecs[0].env.terms == {((1, 0),): F(1)}


def test_singular_depth2_classical_locus():
    phi = Functional.classical(F(-1, 4), 1)
    vecs = singular_vectors(phi, 2)
    assert len(vecs) == 1
    terms = vecs[0].env.terms
    scale = terms[((2, 0),)]
    normalized = {m: c / scale for m, c in terms.items()}
    assert normalized == {((2, 0),): F(1), ((1, 0), (1, 0)): F(1)}
    # off the locus the singular space is empty
    assert singular_vectors(Functional.classical(F(-1, 4), 2), 2) == []
    assert singular_vectors(Functional.classical(F(1, 4), 1), 2) == []


def test_singular_depth2_matches_oracle_grid():
    for h in (F(-1, 4), F(0), F(1), F(-1)):
        for cp in (F(0), F(1), F(2)):
            phi = Functional.classical(h, cp)
            for depth in (1, 2, 3):
                assert (len(singular_vectors(phi, depth))
                        == classical_singular_dim(depth, h, cp))


def test_singular_dual_numbers():
    phi = Functional(DUAL, {0: F(3), 1: F(0)}, {0: F(1), 1: F(0)})
    vecs = singular_vectors(phi, 1)
    assert len(vecs) == 1
    assert vecs[0].env.terms == {((1, 1),): F(1)}  # (d_{-1} (x) t) v


def test_depth1_exactness_randomized():
    rng = random.Random(14)
    algebras = [Algebra.product_local([(0, n)]) for n in (1, 2, 3, 4)]
    algebras.append(SPLIT)
    algebras.append(Algebra.product_local([(0, 2), (1, 1)]))
    for _ in range(30):
        alg = rng.choice(algebras)
        phi = rand_functional(rng, alg)
        j0 = largest_d0_ideal(phi)
        vecs = singular_vectors(phi, 1)
        assert len(vecs) == j0.dim
        for v in vecs:
            f = alg.element({b: c for ((_, b),), c in
                             [(m, c) for m, c in v.env.terms.items()]})
            assert j0.contains(f)


def test_singular_vectors_land_in_maximal_submodule():
    phi = Functional.classical(F(-1, 4), 1)
    (vec,) = singular_vectors(phi, 2)
    assert in_maximal_submodule(vec)
    phi2 = Functional(DUAL, {0: F(3), 1: F(0)}, {0: F(0), 1: F(0)})
    for vec in singular_vectors(phi2, 1):
        assert in_maximal_submodule(vec)


def test_singular_annihilated_by_higher_modes():
    # d_1, d_2 generate the raising half; spot-check modes 3 and 4
    phi = Functional.classical(F(-1, 4), 1)
    (vec,) = singular_vectors(phi, 2)
    for m in (1, 2, 3, 4):
        assert verma_act(d_term(QQ, m), vec) == []


@pytest.mark.parametrize("exact, depth, window", [
    ((F(-6), F(-1), F(1)), 2, (0, 1)),
    ((F(-6), F(-1), F(1)), 3, (0, 1)),
    ((F(-2), F(1)), 2, (0, 1)),
    ((F(-2), F(1)), 2, (0, 2)),
])
def test_windowed_singular_vectors_keep_out_of_window_targets(exact, depth, window):
    # colors in a narrow window multiply out of it, so d_1, d_2 images leave
    # the windowed basis of the lower depths
    P = Algebra.polynomial((0, 8))
    phi = Functional.from_sequences(P, [F(1), -exact[0]], [F(3), -3 * exact[0]],
                                    exact_ideal=exact)
    vecs = singular_vectors(phi, depth, window=window)
    ops = [d_term(P, m, P.basis_element(b))
           for m in (1, 2) for b in range(window[0], window[1] + 1)]
    for v in vecs:
        assert all(verma_act(x, v) == [] for x in ops)
    basis = pbw_basis(depth, P, window=window)
    rows = []
    for x in ops:
        images = [{t: c for piece in verma_act(x, VermaVector(phi, EnvElement(P, {mono: 1})))
                   for t, c in piece.env.terms.items()} for mono in basis]
        targets = dict.fromkeys(t for image in images for t in image)
        rows.extend([image.get(t, F(0)) for image in images] for t in targets)
    assert len(vecs) == len(basis) - oracle_rank(rows)


WIDE = (0, 9)
POLY4 = Algebra.polynomial((0, 4))
PHI4 = Functional.from_sequences(POLY4, [F(1), F(2)], [F(3), F(6)], exact_ideal=(F(-2), F(1)))


@pytest.mark.parametrize("call", [
    lambda: POLY4.window_indices(WIDE),
    lambda: Algebra.laurent((-3, 3)).window_indices((-4, 0)),
    lambda: pbw_basis(2, POLY4, window=WIDE),
    lambda: pbw_basis(0, POLY4, window=WIDE),
    lambda: module_dims(POLY4, 2, window=WIDE),
    lambda: pairing_matrix(PHI4, 1, window=WIDE),
    lambda: quotient_dims(PHI4, 2, window=WIDE),
    lambda: singular_vectors(PHI4, 1, window=WIDE),
    lambda: in_maximal_submodule(depth_one_vector(PHI4, POLY4.one()), window=WIDE),
    lambda: verma._is_singular(depth_one_vector(PHI4, POLY4.one()), window=WIDE),
    lambda: Algebra.laurent((-3, 3)).window_indices((-1, 1), factors=4),
    lambda: Algebra.laurent((-3, 3)).window_indices((-2, 0), factors=2),
    lambda: POLY4.window_indices((0, 2), factors=3),
    lambda: module_dims(Algebra.laurent((-3, 3)), 2, window=(-4, 0)),
], ids=["window_indices", "laurent_below", "pbw_basis", "pbw_basis_weight0",
        "module_dims", "pairing_matrix", "quotient_dims", "singular_vectors",
        "in_maximal_submodule", "is_singular", "laurent_products", "laurent_products_below",
        "polynomial_products", "module_dims_laurent"])
def test_color_window_past_algebra_window_raises(call):
    with pytest.raises(WindowOverflow):
        call()


def test_pairing_product_bound_raises_before_any_action(monkeypatch):
    calls = _counting(monkeypatch, verma, "_act_basis")
    L = Algebra.laurent((-3, 3))
    phi = Functional(L, {k: F(k + 5, 3) for k in L.window_indices()},
                     {k: F(1, k + 5) for k in L.window_indices()})
    # depth 3 raising and lowering multiply 6 colors of [-1, 1], reaching [-6, 6]
    for call in (lambda: pairing_matrix(phi, 3, window=(-1, 1)),
                 lambda: quotient_dims(phi, 3, window=(-1, 1)),
                 lambda: singular_vectors(phi, 3, window=(-1, 1))):
        with pytest.raises(WindowOverflow, match="products of"):
            call()
    assert calls == []
    assert len(pairing_matrix(phi, 1, window=(-1, 1))) == 3
    assert calls


def test_vector_product_bound_raises_before_any_action(monkeypatch):
    calls = _counting(monkeypatch, verma, "_act_basis")
    L = Algebra.laurent((-3, 3))
    phi = Functional(L, {k: F(k + 5, 3) for k in L.window_indices()},
                     {k: F(1, k + 5) for k in L.window_indices()})
    # two raising colors of [-1, 1] meet both letters t^-2: t^-6
    low = VermaVector(phi, EnvElement(L, {((1, -2), (1, -2)): F(1)}))
    with pytest.raises(WindowOverflow, match="reach \\[-6, "):
        in_maximal_submodule(low, window=(-1, 1))
    # one raising color of [0, 1] meets t^3: t^4
    with pytest.raises(WindowOverflow, match="reach \\[3, 4\\]"):
        verma._is_singular(depth_one_vector(phi, L.basis_element(3)), window=(0, 1))
    assert calls == []
    # inside the bound both run: t^-1 t^-1 meets up to two colors of [0, 1]
    inside = VermaVector(phi, EnvElement(L, {((1, -1), (1, -1)): F(1)}))
    assert isinstance(in_maximal_submodule(inside, window=(0, 1)), bool)
    assert isinstance(verma._is_singular(depth_one_vector(phi, L.basis_element(3)),
                                         window=(0, 0)), bool)
    assert not in_maximal_submodule(highest_weight_vector(phi), window=(-1, 1))
    assert calls


def _windowed_vectors():
    """Seeded (vector, color window) pairs over small polynomial and Laurent
    windows, many of them near the window's edge."""
    rng = random.Random(1601)
    out = []
    for _ in range(60):
        if rng.random() < 0.6:
            alg = Algebra.laurent((-rng.randint(1, 4), rng.randint(1, 4)))
            phi = Functional(alg, {k: rand_scalar(rng) for k in alg.window_indices()},
                             {k: rand_scalar(rng) for k in alg.window_indices()})
        else:
            alg = Algebra.polynomial((0, rng.randint(2, 9)))
            phi = Functional.from_sequences(alg, [F(1), F(3)], [F(1), F(-2)],
                                            exact_ideal=(F(-6), F(-1), F(1)))
        lo, hi = alg.window
        wlo = rng.randint(lo, 0)
        window = (wlo, rng.randint(max(wlo, 0), hi))
        monos = pbw_basis(rng.randint(1, 3), alg)
        terms = {m: F(rng.randint(1, 3)) for m in rng.sample(monos, min(len(monos), 2))}
        out.append((VermaVector(phi, EnvElement(alg, terms)), window))
    return out


def _overflows(call) -> bool:
    try:
        call()
    except WindowOverflow:
        return True
    return False


def test_vector_product_bound_is_reached_by_the_full_walk():
    refused = 0
    for v, window in _windowed_vectors():
        raising = pbw_basis(v.depth, v.functional.algebra, window=window)
        # every raising monomial's walk, with no early exit
        walk = _overflows(lambda: list(verma._v_coefficients(v.functional, v.env.terms, raising)))
        assert _overflows(lambda: verma._check_products(v, window, single=False)) == walk
        refused += walk
        # one raising letter: the bound is sound
        alg = v.functional.algebra
        acts = _overflows(lambda: [verma_act(d_term(alg, mode, alg.basis_element(b)), v)
                                   for mode in (1, 2) for b in alg.window_indices(window)])
        assert _overflows(lambda: verma._check_products(v, window, single=True)) >= acts
    assert 10 < refused < 50


def test_color_window_inside_algebra_window():
    assert POLY4.window_indices() == range(0, 5)
    assert POLY4.window_indices((0, 2)) == range(0, 3)
    assert Algebra.laurent((-3, 3)).window_indices((-3, -1)) == range(-3, 0)
    assert DUAL.window_indices((5, 9)) == range(2)  # finite kinds use their basis
    # products of up to `factors` colors stay inside the algebra window
    assert Algebra.laurent((-3, 3)).window_indices((-1, 1), factors=3) == range(-1, 2)
    assert POLY4.window_indices((0, 2), factors=2) == range(0, 3)
    assert POLY4.window_indices((0, 0), factors=9) == range(0, 1)
    assert DUAL.window_indices((5, 9), factors=9) == range(2)


@pytest.mark.parametrize("call", [
    lambda: quotient_dims(PARITY_CASES["dual"][0], -1),
    lambda: quotient_dims(Functional.classical(F(1, 3), F(2)), -1),
    lambda: quotient_dims(PHI4, -2, window=(0, 1)),
    lambda: module_dims(DUAL, -2),
    lambda: module_dims(POLY4, -1),
], ids=["finite", "classical", "windowed", "module_dims", "module_dims_windowed"])
def test_negative_depth_raises(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call()


# -- quasifiniteness ----------------------------------------------------------

def test_quasifinite_finite_dimensional():
    rng = random.Random(16)
    verdict = check_quasifinite(rand_functional(rng, DUAL))
    assert verdict.status == "quasifinite_certified"
    assert verdict.witness.is_zero()


def test_quasifinite_geometric_pullback():
    P = Algebra.polynomial((0, 32))
    lam = [F(2) ** k for k in range(9)]
    kap = [F(1, 2) * F(2) ** k for k in range(9)]
    phi = Functional.from_sequences(P, lam, kap, exact_ideal=(F(-2), F(1)))
    verdict = check_quasifinite(phi)
    assert verdict.status == "quasifinite_certified"
    assert verdict.witness.generator_poly() == (F(-2), F(1))


def test_quasifinite_factorial_no_witness():
    import math
    P = Algebra.polynomial((0, 32))
    lam = [F(math.factorial(k)) for k in range(13)]
    phi = Functional.from_sequences(P, lam, [F(0)] * 13)
    verdict = check_quasifinite(phi)
    assert verdict.status == "no_witness_up_to_bound"


def test_quasifinite_sampled_not_certified():
    P = Algebra.polynomial((0, 32))
    lam = [F(2) ** k for k in range(9)]
    phi = Functional.from_sequences(P, lam, [F(0)] * 9)
    verdict = check_quasifinite(phi)
    assert verdict.status == "no_witness_up_to_bound"
    assert verdict.candidate is not None
    assert check_quasifinite(phi, assume_exact=True).status == "quasifinite_certified"


def test_negative_bound_is_rejected():
    # a negative bound leaves an empty detection window, whose vacuous
    # annihilator 1 would certify any functional
    phi = Functional.from_sequences(Algebra.polynomial((0, 16)),
                                    [F(2) ** k for k in range(6)], [F(0)] * 6)
    for check in (check_quasifinite, check_verma_reducible):
        for assume_exact in (False, True):
            with pytest.raises(ValueError, match="bound"):
                check(phi, bound=-1, assume_exact=assume_exact)
    verdict = check_quasifinite(phi, bound=0, assume_exact=True)
    assert verdict.status == "no_witness_up_to_bound"


# -- reducibility -------------------------------------------------------------

def test_reducible_dual_numbers():
    phi = Functional(DUAL, {0: F(3), 1: F(0)}, {0: F(1, 2), 1: F(0)})
    verdict = check_verma_reducible(phi)
    assert verdict.status == "reducible_certified"
    assert verdict.witness_ideal.dim == 1
    assert verdict.witness_ideal.contains(DUAL.basis_element(1))
    assert verdict.singular_vector.env.terms == {((1, 1),): F(1)}


def test_reducible_rationals_generic_undecided():
    phi = Functional.classical(5, 0)
    verdict = check_verma_reducible(phi)
    assert verdict.status == "no_witness_up_to_bound"


def test_reducible_exact_geometric():
    P = Algebra.polynomial((0, 32))
    lam = [F(3) * F(2) ** k for k in range(9)]
    kap = [F(0)] * 9
    phi = Functional.from_sequences(P, lam, kap, exact_ideal=(F(-2), F(1)))
    verdict = check_verma_reducible(phi)
    assert verdict.status == "reducible_certified"
    gen = verdict.witness_ideal.generator
    assert gen.as_poly() == (F(-2), F(1))
    # phi(d_0 (x) t^k (t - 2)) = 3*2^{k+1} - 2*3*2^k = 0
    for k in range(6):
        elt = gen * P.basis_element(k)
        assert phi.eval_d0(elt) == 0


def test_reducible_ignores_c_part():
    # c values satisfy no recurrence, but only d_0 matters here
    import math
    P = Algebra.polynomial((0, 32))
    lam = [F(0)] * 13
    kap = [F(math.factorial(k)) for k in range(13)]
    phi = Functional.from_sequences(P, lam, kap)
    verdict = check_verma_reducible(phi, assume_exact=True)
    assert verdict.status == "reducible_certified"
    # while quasifiniteness does look at c
    assert check_quasifinite(phi).status == "no_witness_up_to_bound"


def test_irreducible_certified_needs_assertion():
    import math
    P = Algebra.polynomial((0, 32))
    lam = [F(math.factorial(k + 1)) for k in range(13)]
    phi = Functional.from_sequences(P, lam, [F(0)] * 13)
    assert check_verma_reducible(phi).status == "no_witness_up_to_bound"
    assert (check_verma_reducible(phi, assume_exact=True).status
            == "irreducible_certified")


# -- splitting ----------------------------------------------------------------

def test_split_phi_example():
    phi = Functional.from_values(SPLIT, {"1": 5, "t": 2}, {})
    p0, p1 = split_phi(phi)
    assert p0.highest_weight == 3
    assert p1.highest_weight == 2
    assert p0 + p1 == phi


def test_split_phi_single_factor():
    phi = Functional(DUAL, {0: F(2), 1: F(5)}, {0: F(1), 1: F(0)})
    (piece,) = split_phi(phi)
    assert piece == phi


def test_split_phi_zero():
    phi = Functional.from_values(SPLIT, {}, {})
    assert all(p.is_zero() for p in split_phi(phi))


def test_split_phi_kills_other_factors():
    # the ideal of the complementary factors is the full-order power of the
    # piece's own maximal ideal: it is exactly what vanishes at the point
    rng = random.Random(18)
    alg = Algebra.product_local([(0, 2), (1, 1)])
    from mapvir import ideal_power, point_ideal
    phi = rand_functional(rng, alg)
    pieces = split_phi(phi)
    idems = [alg.from_poly(e) for e in crt_idempotents(alg)]
    for i, (piece, (point, order)) in enumerate(zip(pieces, alg.factors)):
        others = ideal_power(point_ideal(alg, point), order)
        for b in others.basis_elements():
            assert piece.eval_d0(b) == 0
            assert piece.eval_c(b) == 0
        # and the complementary idempotents annihilate the piece
        for j, other in enumerate(idems):
            if j == i:
                continue
            assert piece.eval_d0(other) == 0
            assert piece.eval_c(other) == 0


def test_character_factorization():
    rng = random.Random(20)
    phi = rand_functional(rng, SPLIT)
    p0, p1 = split_phi(phi)
    total = quotient_dims(phi, 4)
    c0 = quotient_dims(p0, 4)
    c1 = quotient_dims(p1, 4)
    assert list(total) == convolve(list(c0), list(c1))[:5]


# the decide benchmark's dim5 functional
DIM5 = Functional(Algebra.product_local([(0, 2), (1, 2), (-1, 1)]),
                  {0: F(3), 1: F(1, 2)}, {0: F(1, 2), 1: F(2)})


def _split_parity_cases():
    """PLANTED_LOCAL, the product_local PARITY_CASES and the dim5 layout."""
    cases = [(label, phi) for label, phi, _ in PLANTED_LOCAL]
    cases += [(name, phi) for name, (phi, _) in PARITY_CASES.items()
              if phi.algebra.kind == "product_local"]
    return cases + [("dim5", DIM5)]


def _exact_polynomial_cases():
    """Q[t] functionals with an exact ideal prod (t - a)^m, in the style of
    the benchmark's exact1..exact6: values sum_{a, k < m} c C(j, k) a^(j-k)
    with every top coefficient nonzero, so the minimal recurrence is the
    whole ideal.  Each case is (functional, sorted (a, m) pairs)."""
    rng = random.Random(1523)
    cases = []
    for order in range(1, 7):
        distinct = order - 1 if order >= 3 else order
        mults = [1] * distinct
        if order >= 3:
            mults[rng.randrange(distinct)] = 2
        pairs = sorted(zip(map(F, rng.sample((-3, -2, -1, 1, 2, 3, 4), distinct)), mults))
        values = [[[rand_scalar(rng) or F(1) for _ in range(m)] for _, m in pairs]
                  for _ in range(2)]
        lam, kap = ([sum((c * math.comb(j, k) * a ** (j - k) for (a, _), cs in zip(pairs, v)
                          for k, c in enumerate(cs) if k <= j), F(0)) for j in range(2 * order + 2)]
                    for v in values)
        modulus = (F(1),)
        for a, m in pairs:
            modulus = polyutil.pmul(modulus, polyutil.ppow((-a, F(1)), m))
        phi = Functional.from_sequences(Algebra.polynomial((0, 2 * order + 8)), lam, kap,
                                        exact_ideal=modulus)
        cases.append((phi, pairs))
    return cases


def _expected_components(phi):
    """(point, order, local functional, piece over A) per nonzero CRT piece,
    all from oracle_split_values and the ideal-power oracle."""
    alg = phi.algebra
    out = []
    for (point, full), (d0, c) in zip(alg.factors, oracle_split_values(phi)):
        piece = Functional(alg, dict(enumerate(d0)), dict(enumerate(c)))
        if piece.is_zero():
            continue
        order = oracle_minimal_order(piece, point, full)
        local = Functional(Algebra.product_local([(point, order)]),
                           dict(enumerate(d0[:order])), dict(enumerate(c[:order])))
        out.append((point, order, local, piece))
    return out


@pytest.mark.parametrize("label, phi", _split_parity_cases(),
                         ids=[label for label, _ in _split_parity_cases()])
def test_split_and_classify_match_the_product_oracle(label, phi):
    alg = phi.algebra
    assert [([p.value_d0(j) for j in range(alg.dim)], [p.value_c(j) for j in range(alg.dim)])
            for p in split_phi(phi)] == oracle_split_values(phi)
    expected = _expected_components(phi)
    for lowest in (False, True):  # the involution is negation, applied twice
        record = classify_module(phi, lowest=lowest)
        assert [(c.point, c.order, c.functional, c.phi_piece)
                for c in record.components] == expected
        report = record.to_json_dict(explain=True)
        assert report["components"] == [
            {"point": format_scalar(a), "order": n, "functional": functional_to_spec(local)}
            for a, n, local, _ in expected]
        assert report["idempotents"] == [format_element(alg.from_poly(e))
                                         for e in crt_idempotents(alg)]


def test_classify_of_exact_polynomial_functionals_matches_the_product_oracle():
    for phi, pairs in _exact_polynomial_cases():
        record = classify_module(phi)
        assert [(c.point, c.order) for c in record.components] == pairs
        quotient = Algebra.product_local(pairs)
        pulled = Functional(quotient, {j: phi.value_d0(j) for j in range(quotient.dim)},
                            {j: phi.value_c(j) for j in range(quotient.dim)})
        expected = _expected_components(pulled)
        assert [(c.point, c.order, c.functional, c.phi_piece)
                for c in record.components] == expected


def test_quotient_dims_computes_the_pieces_once(monkeypatch):
    calls = []
    real = verma.crt_idempotents
    monkeypatch.setattr(verma, "crt_idempotents", lambda alg: calls.append(alg) or real(alg))
    # phi is its own piece, a reduced piece, and two pieces with a planted zero
    cases = [Functional(DUAL, {0: F(1, 3), 1: F(2)}, {0: F(2), 1: F(1)}),
             _pullback("ising_sigma", 2)]
    cases += [phi for label, phi, _ in PLANTED_LOCAL if label == "0^2,1^1-0-at-2"]
    for phi in cases:
        phi = Functional(phi.algebra, dict(phi._d0), dict(phi._c))  # no pieces kept yet
        calls.clear()
        quotient_dims(phi, 5)
        assert sum(alg is phi.algebra for alg in calls) == 1


# -- annihilation descends ----------------------------------------------------

def test_annihilation_descends_geometric():
    from mapvir import pbw_basis
    from mapvir.verma import VermaVector
    P = Algebra.polynomial((0, 40))
    lam = [F(2) ** k for k in range(11)]
    kap = [F(2) ** k for k in range(11)]
    phi = Functional.from_sequences(P, lam, kap, exact_ideal=(F(-2), F(1)))
    gen = P.from_poly((F(-2), F(1)))
    small = (0, 4)  # color window for basis enumeration
    for depth in range(0, 3):
        for mono in pbw_basis(depth, P, window=small):
            w = VermaVector(phi, EnvElement(P, {mono: F(1)}))
            for m in (-2, -1, 1, 2):
                for piece in verma_act(d_term(P, m, gen), w):
                    assert in_maximal_submodule(piece, window=small)


# exact ideals for the membership test on A/J: a rational point, a double
# point beside a simple one, a root at 0, and irrational roots (so A/J is
# not a product of local factors)
REDUCED_IDEALS = {
    "t-2": (F(-2), F(1)),
    "(t-1)^2(t+3)": polyutil.pmul(polyutil.ppow((F(-1), F(1)), 2), (F(3), F(1))),
    "t(t-1)": (F(0), F(-1), F(1)),
    "t^2-2": (F(-2), F(0), F(1)),
}


def _walk_answer(v, window):
    """in_maximal_submodule as the walk over the original algebra answers it."""
    phi = v.functional
    raising = pbw_basis(v.depth, phi.algebra, window=window)
    return not any(verma._v_coefficients(phi, v.env.terms, raising))


# initial values (d0, c) planting (h, c) = (-1/4, 1), reducible at depth 2, on
# a CRT piece of A/J: at 2; at -3, whose idempotent is (t - 1)^2 / 16; at 0,
# whose idempotent is 1 - t; and on both conjugate pieces of Q(sqrt 2)
PLANTED_REDUCIBLE = {
    "t-2": ([F(-1, 4)], [F(1)]),
    "(t-1)^2(t+3)": ([F(1), F(0), F(-5)], [F(0), F(1), F(18)]),
    "t(t-1)": ([F(5, 12), F(2, 3)], [F(4, 5), F(-1, 5)]),
    "t^2-2": ([F(-1, 2), F(0)], [F(2), F(0)]),
}


def _reduced_corpus(name, extra, planted):
    """(phi, colors, vectors) over Q[t] with the exact ideal J = (p) and the
    color window [0, deg p - 1 + extra], at random values or at
    PLANTED_REDUCIBLE.  The vectors are pieces of (Vir (x) J) V and
    (d_{-1} (x) f) v with f in J, which lie in Rad; random combinations of
    PBW monomials, which mostly do not; and when planted, the kernel of the
    depth-2 and depth-3 pairing, which lies in Rad only at the planted
    values, with and without a random monomial added.  Depths 1-4."""
    p = REDUCED_IDEALS[name]
    d = polyutil.degree(p)
    rng = random.Random(f"reduced-{name}-{extra}-{planted}")
    P = Algebra.polynomial((0, 40))
    d0, c = PLANTED_REDUCIBLE[name] if planted else (
        [rand_scalar(rng) or F(1) for _ in range(d)], [rand_scalar(rng) for _ in range(d)])
    phi = Functional.from_sequences(P, d0, c, exact_ideal=p)
    colors = (0, d - 1 + extra)
    gen = P.from_poly(p)
    vectors = []
    for depth in range(4):
        basis = pbw_basis(depth, P, window=colors)
        for mono in rng.sample(basis, min(3, depth + 1, len(basis))):
            w = VermaVector(phi, EnvElement(P, {mono: F(1)}))
            for mode in (-2, -1, 0, 1, 2):
                f = gen * P.from_poly([rand_scalar(rng), rand_scalar(rng)])
                vectors += [piece for piece in verma_act(d_term(P, mode, f), w)
                            if 1 <= piece.depth <= 4]
    for _ in range(3):
        vectors.append(depth_one_vector(phi, gen * P.from_poly([rand_scalar(rng), F(1)])))
    for depth in range(1, 5):
        basis = pbw_basis(depth, P, window=colors)
        for _ in range(3):
            terms = {mono: rand_scalar(rng) for mono in rng.sample(basis, min(3, len(basis)))}
            if any(terms.values()):
                vectors.append(VermaVector(phi, EnvElement(P, terms)))
    for depth in (2, 3) if planted else ():
        basis = pbw_basis(depth, P, window=colors)
        null = linalg.kernel(pairing_matrix(phi, depth, window=colors), len(basis))
        assert null
        for vec in null:
            terms = dict(zip(basis, vec))
            vectors.append(VermaVector(phi, EnvElement(P, terms)))
            terms[rng.choice(basis)] += 1
            vectors.append(VermaVector(phi, EnvElement(P, terms)))
    return phi, colors, vectors


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("name", REDUCED_IDEALS)
def test_reduced_membership_matches_the_walk(name, extra, planted):
    phi, colors, vectors = _reduced_corpus(name, extra, planted)
    answers = [in_maximal_submodule(v, window=colors) for v in vectors]
    assert answers == [_walk_answer(v, colors) for v in vectors]
    assert True in answers and False in answers
    assert {v.depth for v in vectors} == {1, 2, 3, 4}


def _without_pull_back(monkeypatch):
    """Patch the pull-back off: every radical query walks or pairs in V(phi)."""
    monkeypatch.setattr(verma, "_pulled_back", lambda phi, window=None: None)


def _parity_windows(p):
    """Color windows for an exact functional with recurrence p: two that hold
    the colors 0..deg p - 1 of A/(p), then one without 0 and, past degree 1,
    one without deg p - 1."""
    d = polyutil.degree(p)
    return [(0, d - 1), (0, d), (1, d)] + ([(0, d - 2)] if d > 1 else [])


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", REDUCED_IDEALS)
def test_pull_back_answers_as_the_walk_over_v_phi(name, planted, monkeypatch):
    phi, _, vectors = _reduced_corpus(name, 1, planted)
    vectors += [highest_weight_vector(phi).scale(F(-3, 2)),
                VermaVector(phi, EnvElement(phi.algebra))]
    windows = _parity_windows(REDUCED_IDEALS[name])
    routed = [verma._pulled_back(phi, window) is not None for window in windows]
    assert routed[:2] == [True, True] and not any(routed[2:])
    answers = [[in_maximal_submodule(v, window=window) for v in vectors] for window in windows]
    dims = [quotient_dims(phi, 3, window=window) for window in windows[:2]]
    _without_pull_back(monkeypatch)
    assert answers == [[in_maximal_submodule(v, window=window) for v in vectors]
                       for window in windows]
    assert dims == [tuple(linalg.rank(pairing_matrix(phi, n, window=window)) for n in range(4))
                    for window in windows[:2]]
    # vectors inside (p) and outside it, at every depth 0..4
    assert True in answers[0] and False in answers[0]
    assert {v.depth for v in vectors} == {None, 0, 1, 2, 3, 4}
    assert any(b > windows[1][1] for v in vectors for mono in v.env.terms for _, b in mono)


def test_finite_radical_vector_maps_to_zero_modulo_the_largest_v0_ideal(monkeypatch):
    walks = _counting(monkeypatch, verma, "_v_coefficients")
    alg = Algebra.product_local([(0, 3)])
    phi = Functional(alg, {0: F(-1, 16)}, {0: F(1, 2)})  # Ising sigma on Q[t]/t^3
    v = VermaVector(phi, EnvElement(alg, {((5, 0), (1, 1)): F(1), ((6, 2),): F(1)}))
    assert largest_v0_ideal(phi).dim == 2
    # J is read off the CRT pieces, once per functional, with no kernel
    ideals = _counting(monkeypatch, verma, "largest_v0_ideal")
    pieces = _counting(monkeypatch, verma, "_local_pieces")
    assert in_maximal_submodule(v) and walks == []
    # phi killing no ideal, or all of A, keeps the walk over V(phi)
    sigma = Functional.classical(F(-1, 16), F(1, 2))
    for depth in (1, 2):
        assert not in_maximal_submodule(VermaVector(sigma, EnvElement(QQ, {((depth, 0),): F(1)})))
    assert verma._pulled_back(sigma) is None
    zero = Functional(DUAL, {}, {})
    assert verma._pulled_back(zero) is None
    walks.clear()
    assert in_maximal_submodule(depth_one_vector(zero, DUAL.one())) and len(walks) == 1
    assert ideals == [] and [args[0] for args in pieces] == [phi, sigma, zero]
    _without_pull_back(monkeypatch)
    assert in_maximal_submodule(v) and len(walks) == 2


def _raising_colors(raising) -> set:
    return {b for mono in raising for _, b in mono}


def test_reduced_membership_raises_by_colors_below_deg_r(monkeypatch):
    walks = _counting(monkeypatch, verma, "_v_coefficients")
    P = Algebra.polynomial((0, 40))
    phi = Functional.from_sequences(P, [F(2) ** k for k in range(11)],
                                    [F(3) * F(2) ** k for k in range(11)],
                                    exact_ideal=(F(-2), F(1)))
    gen = P.from_poly((F(-2), F(1)))
    for mono in pbw_basis(2, P, window=(0, 3)):
        w = VermaVector(phi, EnvElement(P, {mono: F(1)}))
        for piece in verma_act(d_term(P, -2, gen), w):
            assert in_maximal_submodule(piece, window=(0, 3))
    assert not in_maximal_submodule(depth_one_vector(phi, P.one()), window=(0, 3))
    # every walk runs over V(phi_bar), A/(r) = Q, and raises by its one color
    pulled = verma._pulled_back(phi, (0, 3))[0]
    assert pulled.algebra.dim == 1
    assert walks and all(args[0] is pulled for args in walks)
    assert all(_raising_colors(args[2]) == {0} for args in walks)
    # deg r = 3: the colors 0, 1, 2 of A/(r), from a window [0, 4]
    cubic = Functional.from_sequences(P, [F(1), F(0), F(-5)], [F(0), F(1), F(18)],
                                      exact_ideal=REDUCED_IDEALS["(t-1)^2(t+3)"])
    walks.clear()
    for depth in (1, 2):
        for mono in pbw_basis(depth, P, window=(0, 4)):
            in_maximal_submodule(VermaVector(cubic, EnvElement(P, {mono: F(1)})), window=(0, 4))
    pulled = verma._pulled_back(cubic, (0, 4))[0]
    assert walks and all(args[0] is pulled for args in walks)
    assert all(_raising_colors(args[2]) == {0, 1, 2} for args in walks)


def _walked(walks, v, window=None, module=None):
    """The raising colors of the one walk in_maximal_submodule(v, window)
    made, which runs over ``module`` (by default v's own)."""
    walks.clear()
    assert isinstance(in_maximal_submodule(v, window=window), bool)
    (args,) = walks
    assert args[0] is (module or v.functional)
    return _raising_colors(args[2])


def test_membership_walks_where_no_reduction_applies(monkeypatch):
    walks = _counting(monkeypatch, verma, "_v_coefficients")
    P = Algebra.polynomial((0, 40))
    lam, kap = [F(2) ** k for k in range(11)], [F(3) * F(2) ** k for k in range(11)]
    sampled = Functional.from_sequences(P, lam, kap)
    assert _walked(walks, depth_one_vector(sampled, P.one()), (0, 3)) == {0, 1, 2, 3}
    exact = Functional.from_sequences(P, lam, kap, exact_ideal=(F(-2), F(1)))
    # a window missing exponent 0
    assert _walked(walks, depth_one_vector(exact, P.basis_element(1)), (1, 3)) == {1, 2, 3}
    # a window missing exponent deg r - 1 = 1
    irrational = Functional.from_sequences(P, [F(1), F(1)], [F(0), F(2)],
                                           exact_ideal=REDUCED_IDEALS["t^2-2"])
    assert _walked(walks, depth_one_vector(irrational, P.one()), (0, 0)) == {0}
    # the same exact functional on a window holding 0 walks V(phi_bar) over
    # A/(r) = Q, by its one color
    pulled = verma._pulled_back(exact, (0, 3))[0]
    assert _walked(walks, depth_one_vector(exact, P.one()), (0, 3), pulled) == {0}
    # no product by r is formed, so an algebra window too short to hold r
    # still takes the rule
    tiny = Algebra.polynomial((0, 0))
    short = Functional.from_sequences(tiny, [F(1)], [F(3)], exact_ideal=(F(-2), F(1)))
    pulled = verma._pulled_back(short)[0]
    assert _walked(walks, depth_one_vector(short, tiny.one()), None, pulled) == {0}
    assert not in_maximal_submodule(depth_one_vector(short, tiny.one()))


def test_reduced_membership_keeps_the_product_bound(monkeypatch):
    walks = _counting(monkeypatch, verma, "_v_coefficients")
    # one raising color of [0, 1] meets t^4: t^5, past the window [0, 4]
    with pytest.raises(WindowOverflow, match="reach \\[4, 5\\]"):
        in_maximal_submodule(depth_one_vector(PHI4, POLY4.basis_element(4)), window=(0, 1))
    assert walks == []
    # t^3 stays inside, and that window holds exponent 0: the walk runs over
    # A/(r) = Q, by its one color
    pulled = verma._pulled_back(PHI4, (0, 1))[0]
    assert _walked(walks, depth_one_vector(PHI4, POLY4.basis_element(3)), (0, 1), pulled) == {0}


def _decide_exact(order, rng):
    """(phi, r): an exact Q[t] functional built as the decide benchmark builds
    one, with declared recurrence r of degree ``order`` (distinct integer
    roots, one doubled from order 3 on), 2 order + 2 values per sequence and
    the window [0, 2 order + 8]."""
    distinct = order - 1 if order >= 3 else order
    r = (F(1),)
    for i, a in enumerate(rng.sample(range(-4, 5), distinct)):
        r = polyutil.pmul(r, polyutil.ppow((F(-a), F(1)), 2 if order >= 3 and not i else 1))
    length = 2 * order + 2
    lam = recurrence.extend([rand_scalar(rng) or F(1) for _ in range(order)], r, length)
    kap = recurrence.extend([rand_scalar(rng) for _ in range(order)], r, length)
    P = Algebra.polynomial((0, 2 * order + 8))
    return Functional.from_sequences(P, lam, kap, exact_ideal=r), r


@pytest.mark.parametrize("order", range(1, 7))
def test_exact_certify_checks_the_colors_below_deg_r(monkeypatch, order):
    rng = random.Random(f"certify-{order}")
    phi, r = _decide_exact(order, rng)
    acts = _counting(monkeypatch, verma, "_action_rows")
    verdict = check_verma_reducible(phi)
    assert verdict.status == "reducible_certified"
    assert len(acts) == 2 * order  # d_1 and d_2 at each color below deg r
    # on (d_{-1} (x) f) v the colors below deg r answer as the whole window does
    P, deg = phi.algebra, polyutil.degree(r)
    p, t = verdict.witness_ideal.generator, P.basis_element(1)
    seeded = P.from_poly([rand_scalar(rng) for _ in range(order + 1)] + [F(1)])
    answers = []
    for f in (p, P.one(), t, t * p + P.one(), seeded, seeded * p):
        v = depth_one_vector(phi, f)
        answers.append(verma._is_singular(v, window=(0, deg - 1)))
        assert answers[-1] == verma._is_singular(v, window=(0, P.window[1] - max(f.support())))
    assert answers[0] and answers[-1] and False in answers


def test_exact_certificate_builds_no_quotient(monkeypatch):
    # the witness lies in (r) and maps to 0 in A/(r): it is checked in V(phi)
    def refuse(*args, **kwargs):
        raise AssertionError("quotient built")

    phi, r = _decide_exact(3, random.Random("no-quotient"))
    P = phi.algebra
    with monkeypatch.context() as patch:
        patch.setattr(verma, "product_local_quotient", refuse)
        patch.setattr(verma, "principal_quotient", refuse)
        assert check_verma_reducible(phi).status == "reducible_certified"
    # membership builds A/(r) once and keeps phi_bar on phi
    built = _counting(monkeypatch, verma, "principal_quotient")
    assert in_maximal_submodule(depth_one_vector(phi, P.from_poly(r)), window=(0, 3))
    assert not in_maximal_submodule(depth_one_vector(phi, P.one()), window=(0, 3))
    assert len(built) == 1


SPLIT_GENERATORS = {  # low degree first; each splits into rational points
    "(t-1)(t+3)": (Algebra.polynomial((0, 12)), (-3, 2, 1)),
    "(t-2)^2(t+1)": (Algebra.polynomial((0, 12)), (4, 0, -3, 1)),
    "t(t-1)": (Algebra.polynomial((0, 12)), (0, -1, 1)),
    "laurent (t-2)(t-3)": (Algebra.laurent((-6, 6)), (6, -5, 1)),
}


@pytest.mark.parametrize("name", SPLIT_GENERATORS)
def test_split_quotient_matches_its_structure_constants_twin(name):
    # quotient_algebra presents A/(p) as product_local; the same algebra as
    # structure constants on 1, t, ... gives the same quotient and singular
    # vectors, with no theorem to lean on
    alg, gen = SPLIT_GENERATORS[name]
    p = tuple(map(F, gen))
    quo, _ = quotient_algebra(alg, PrincipalIdeal(alg, alg.from_poly(p)))
    assert quo.kind == "product_local"
    twin = Algebra.structure_constants(*principal_quotient_tensor(p))
    rng = random.Random(len(name))
    # planted pieces: top pairs at the Ising weight h = 1/16, c = 1/2 (order
    # 1) or at the top-degree zero of depth 2 (order 2), both reducible at 2
    planted = None
    for a, order in quo.factors:
        top = [(F(-1, 16), F(1, 2)), (F(3, 2), F(12))][order - 1]
        lam = [rand_scalar(rng) for _ in range(order - 1)] + [top[0]]
        kappa = [rand_scalar(rng) for _ in range(order - 1)] + [top[1]]
        piece = verma._piece_on(quo, a, lam, kappa)
        planted = piece if planted is None else planted + piece
    singular = 0
    for phi in (rand_functional(rng, quo), planted):
        mirror = Functional(twin, dict(phi._d0), dict(phi._c))
        assert quotient_dims(phi, 5) == quotient_dims(mirror, 5)
        for n in range(1, 6):
            vectors = singular_vectors(phi, n)
            assert [v.env.terms for v in vectors] == [
                v.env.terms for v in singular_vectors(mirror, n)]
            singular += len(vectors)
    assert singular


# -- functional storage -------------------------------------------------------

LAUR = Algebra.laurent((-4, 4))


def test_functional_add_finite():
    phi = Functional(DUAL, {0: F(3), 1: F(1, 2)}, {0: F(1)})
    psi = Functional(DUAL, {0: F(-1)}, {1: F(2)})
    total = phi + psi
    assert [total.value_d0(k) for k in range(2)] == [2, F(1, 2)]
    assert [total.value_c(k) for k in range(2)] == [1, 2]
    assert total == Functional(DUAL, {0: F(2), 1: F(1, 2)}, {0: F(1), 1: F(2)})


def test_finite_functional_rejects_indices_outside_the_basis():
    phi = Functional(Algebra.product_local([(0, 2)]), {0: 1}, {0: 2})
    assert (phi.value_d0(1), phi.value_c(1)) == (0, 0)
    for read, k in ((phi.value_d0, 5), (phi.value_c, -1), (phi.value_d0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            read(k)


def test_functional_add_polynomial_truncates_and_drops_recurrence():
    P = Algebra.polynomial((0, 32))
    phi = Functional.from_sequences(P, [F(2) ** k for k in range(6)], [F(0)] * 6,
                                    exact_ideal=(F(-2), F(1)))
    psi = Functional.from_sequences(P, [F(k) for k in range(4)], [F(1)] * 4)
    total = phi + psi
    assert total.declared_max == 3
    assert total.exact_poly is None
    assert [total.value_d0(k) for k in range(4)] == [1, 3, 6, 11]
    assert [total.value_c(k) for k in range(4)] == [1, 1, 1, 1]
    with pytest.raises(ValueError, match="declared through 3"):
        total.value_d0(4)


def test_verma_vector_sum():
    phi = Functional(DUAL, {0: F(3)}, {0: F(1, 2)})
    x = VermaVector(phi, EnvElement(DUAL, {((1, 0),): F(1)}))
    twin = Functional(DUAL, {0: F(3)}, {0: F(1, 2)})  # equal, not the same object
    y = VermaVector(twin, EnvElement(DUAL, {((1, 0),): F(-1), ((1, 1),): F(2)}))
    total = x + y
    assert total.functional is phi and total.env.terms == {((1, 1),): F(2)}
    other = VermaVector(Functional(DUAL, {0: F(1)}, {}), EnvElement(DUAL, {((1, 0),): F(1)}))
    with pytest.raises(AlgebraMismatch, match="different Verma modules"):
        x + other
    with pytest.raises(TypeError):
        x + 1


def test_exact_ideal_given_as_an_ideal_or_an_element():
    P = Algebra.polynomial((0, 12))
    seqs = [F(2) ** k for k in range(4)], [F(0)] * 4
    gen = P.from_poly((F(-6), F(3)))  # 3 (t - 2): made monic
    for exact in (PrincipalIdeal(P, gen), gen, (F(-2), F(1))):
        phi = Functional.from_sequences(P, *seqs, exact_ideal=exact)
        assert phi.exact_poly == (F(-2), F(1))
    with pytest.raises(TypeError, match="expected a polynomial"):
        Functional.from_sequences(P, *seqs, exact_ideal="t - 2")


def test_laurent_checks_note_that_no_detection_runs():
    # phi(d_0 (x) t^k) = 2^k: recurrence detection covers the polynomial kind only
    phi = Functional(LAUR, {k: F(2) ** k for k in range(-4, 5)}, {})
    q = check_quasifinite(phi)
    assert (q.status, q.witness, q.candidate, q.note) == (
        "no_witness_up_to_bound", None, None, "no recurrence detection for laurent kind")
    r = check_verma_reducible(phi)
    assert (r.status, r.witness_ideal, r.candidate, r.note) == (
        "no_witness_up_to_bound", None, None, "no detection for laurent kind")


def test_functional_add_laurent_unsupported():
    from mapvir import UnsupportedKind
    phi = Functional.from_values(LAUR, {"t^-1": 2}, {})
    with pytest.raises(UnsupportedKind):
        phi + phi


@pytest.mark.parametrize("alg", [DUAL, QXQ, LAUR], ids=["product_local", "structure_constants",
                                                        "laurent"])
def test_an_exact_recurrence_off_the_polynomial_kind_raises(alg):
    from mapvir import UnsupportedKind
    with pytest.raises(UnsupportedKind, match="exact recurrence"):
        Functional(alg, {0: F(1)}, {0: F(2)}, exact_poly=(F(-1), F(1)))


def test_laurent_functional_values_negate_eq_spec():
    from mapvir import functional_from_spec, functional_to_spec
    phi = Functional.from_values(LAUR, {"t": 5, "t^-2": 2, "1": 3},
                                 {"1": F(1, 2), "t^-1": 0})
    assert phi.value_d0(-2) == 2 and phi.value_d0(1) == 5
    assert phi.value_c(-1) == 0
    assert phi.highest_weight == 3
    elt = LAUR.element({-2: F(1), 1: F(-1, 5)})
    assert phi.eval_d0(elt) == 1
    with pytest.raises(ValueError, match="undefined at exponent 3"):
        phi.value_d0(3)
    neg = phi.negate()
    assert [neg.value_d0(k) for k in (-2, 0, 1)] == [-2, -3, -5]
    assert neg.negate() == phi and neg != phi
    assert phi.declared_max is None
    spec = functional_to_spec(phi)
    assert spec == {"d0": {"t^-2": "2", "1": "3", "t": "5"},
                    "c": {"t^-1": "0", "1": "1/2"}}
    assert list(spec["d0"]) == ["t^-2", "1", "t"]
    assert functional_from_spec(LAUR, spec) == phi


def test_laurent_is_zero_with_stored_zeros():
    assert Functional.from_values(LAUR, {}, {}).is_zero()
    assert Functional.from_values(LAUR, {"t^-1": 0, "1": 0}, {"t": 0}).is_zero()
    assert not Functional.from_values(LAUR, {"t^-1": 0}, {"t": 1}).is_zero()


def test_exact_extension_grows_geometrically(monkeypatch):
    import math
    lengths = []
    real = recurrence.extend

    def counting(seq, p, length):
        lengths.append(length)
        return real(seq, p, length)

    monkeypatch.setattr(recurrence, "extend", counting)
    P = Algebra.polynomial((0, 8))
    # Fibonacci: killed by t^2 - t - 1
    phi = Functional.from_sequences(P, [F(0), F(1)], [F(0), F(1)],
                                    exact_ideal=(F(-1), F(-1), F(1)))
    a, b = 0, 1
    for k in range(2000):
        assert phi.value_d0(k) == a
        a, b = b, a + b
    assert len(lengths) <= math.ceil(math.log2(2000))


def test_exact_extension_is_thread_safe():
    import sys
    import threading
    P = Algebra.polynomial((0, 8))
    # lam_k = 3^k and kap_k = (-2)^k, both killed by (t - 3)(t + 2)
    phi = Functional.from_sequences(P, [F(1), F(3)], [F(1), F(-2)],
                                    exact_ideal=(F(-6), F(-1), F(1)))
    failures = []

    def worker(stride):
        for k in range(0, 300, stride):
            if phi.value_d0(k) != F(3) ** k or phi.value_c(k) != F(-2) ** k:
                failures.append(k)
                return

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2, 3) * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# -- the certification ladder -------------------------------------------------

def _poly_phi(lam, kap, exact=None):
    P = Algebra.polynomial((0, 32))
    return Functional.from_sequences(P, [F(x) for x in lam], [F(x) for x in kap],
                                     exact_ideal=exact)


def _roots_poly(*roots):
    p = (F(1),)
    for r in roots:
        p = polyutil.pmul(p, (F(-r), F(1)))
    return p


def _ladder_cases():
    import math
    geometric = [2 ** k for k in range(9)]
    fact = [math.factorial(k + 1) for k in range(13)]
    return {
        # detected recurrence re-verified against the declared exact one
        "verified": (_poly_phi(geometric, [0] * 9, (F(-2), F(1))), False),
        # the window fits t - 2, but the extended values need the declared
        # degree-5 recurrence
        "fallback": (_poly_phi([1, 2, 4, 8, 16], [0] * 5, _roots_poly(1, 3, 4, 5, 6)),
                     False),
        # three declared values; detection reads the extension to order 3
        "over_cap": (_poly_phi([1 + 2 ** k + 3 ** k for k in range(3)],
                               [2 ** k for k in range(3)], _roots_poly(1, 2, 3)),
                     False),
        "asserted": (_poly_phi(geometric, [0] * 9), True),
        "sampled": (_poly_phi(geometric, [0] * 9), False),
        "absent": (_poly_phi(fact, [0] * 13), False),
        "absent_asserted": (_poly_phi(fact, [0] * 13), True),
    }


def _ideal_str(ideal):
    return None if ideal is None else polyutil.pstr(ideal.generator_poly())


def test_quasifinite_ladder_notes():
    exact5 = "t^5 - 19*t^4 + 137*t^3 - 461*t^2 + 702*t - 360"
    expected = {
        "verified": ("quasifinite_certified", "t - 2", None, ""),
        "fallback": ("quasifinite_certified", exact5, None, ""),
        "over_cap": ("quasifinite_certified", "t^3 - 6*t^2 + 11*t - 6", None, ""),
        "asserted": ("quasifinite_certified", "t - 2", None,
                     "caller asserted the window is exact"),
        "sampled": ("no_witness_up_to_bound", None, "t - 2",
                    "recurrence found but values are sampled"),
        "absent": ("no_witness_up_to_bound", None, None,
                   "no common recurrence of order <= 6"),
        "absent_asserted": ("no_witness_up_to_bound", None, None,
                            "no common recurrence of order <= 6"),
    }
    for name, (phi, assume) in _ladder_cases().items():
        v = check_quasifinite(phi, assume_exact=assume)
        got = (v.status, _ideal_str(v.witness), _ideal_str(v.candidate), v.note)
        assert got == expected[name], name


def test_reducible_ladder_notes():
    exact5 = "t^5 - 19*t^4 + 137*t^3 - 461*t^2 + 702*t - 360"
    expected = {
        "verified": ("reducible_certified", "t - 2", None, ""),
        "fallback": ("reducible_certified", exact5, None, ""),
        "over_cap": ("reducible_certified", "t^3 - 6*t^2 + 11*t - 6", None, ""),
        "asserted": ("reducible_certified", "t - 2", None,
                     "caller asserted the window is exact"),
        "sampled": ("no_witness_up_to_bound", None, "t - 2",
                    "recurrence found but values are sampled"),
        "absent": ("no_witness_up_to_bound", None, None,
                   "no recurrence of order <= 6"),
        "absent_asserted": ("irreducible_certified", None, None,
                            "no annihilating ideal and caller asserted exact values "
                            "(infinite-dimensional integral domain)"),
    }
    for name, (phi, assume) in _ladder_cases().items():
        v = check_verma_reducible(phi, assume_exact=assume)
        got = (v.status, _ideal_str(v.witness_ideal), _ideal_str(v.candidate), v.note)
        assert got == expected[name], name
        if v.status == "reducible_certified":
            gen = v.witness_ideal.generator
            assert v.singular_vector.env.terms == {((1, b),): c
                                                   for b, c in gen.coeffs.items()}


def test_exact_witnesses_match_the_recurrence_oracle():
    # exact functionals declared on deg r .. 2 deg r values: every witness is
    # the oracle's minimal recurrence of the extended sequences (both for
    # quasifiniteness, d_0 alone for reducibility), whatever the bound
    P = Algebra.polynomial((0, 16))
    rng = random.Random(1717)
    for _ in range(30):
        factors = [tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))) + (F(1),)
                   for _ in range(rng.randint(1, 3))]
        r = (F(1),)
        for f in factors:
            r = polyutil.pmul(r, f)
        deg = polyutil.degree(r)
        seqs = []
        for _ in range(2):  # each sequence obeys a random divisor of r
            q = (F(1),)
            for f in rng.sample(factors, rng.randint(0, len(factors))):
                q = polyutil.pmul(q, f)
            start = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(polyutil.degree(q))]
            seqs.append(recurrence.extend(start, q, 4 * deg + 2) if start else [F(0)] * (4 * deg + 2))
        n = rng.randint(deg, 2 * deg)
        phi = Functional.from_sequences(P, seqs[0][:n], seqs[1][:n], exact_ideal=r)
        joint, alone = oracle_min_recurrence(seqs), oracle_min_recurrence(seqs[:1])
        for bound in (None, *range(2 * deg + 4)):
            v = check_quasifinite(phi, bound=bound)
            assert (v.status, v.witness.generator_poly(), v.candidate, v.note) == (
                "quasifinite_certified", joint, None, "")
            w = check_verma_reducible(phi, bound=bound)
            assert (w.status, w.witness_ideal.generator_poly(), w.candidate, w.note) == (
                "reducible_certified", alone, None, "")


def test_failed_exact_recheck_raises(monkeypatch):
    phi = _poly_phi([2 ** k for k in range(3)], [0] * 3, (F(-2), F(1)))
    monkeypatch.setattr(recurrence, "minimal_annihilator",
                        lambda seqs, max_order=None: (F(-3), F(1)))
    for check in (check_quasifinite, check_verma_reducible):
        with pytest.raises(AssertionError, match="re-check"):
            check(phi)


def _ladder_note_holders(source):
    """(functions holding a dict literal, functions holding the sampled note)."""
    tree = ast.parse(source)
    dicts, sampled = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                dicts.add(fn.name)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "recurrence found but values are sampled" in node.value):
                sampled.add(fn.name)
    return dicts, sampled


def test_only_the_ladder_builds_certification_notes():
    dicts, sampled = _ladder_note_holders(Path(verma.__file__).read_text(encoding="utf-8"))
    assert not dicts & {"check_quasifinite", "check_verma_reducible"}
    assert sampled == {"_certify_recurrence"}
    planted = ("def check_quasifinite():\n    return {'sampled': "
               "'recurrence found but values are sampled'}[0]\n")
    assert _ladder_note_holders(planted) == ({"check_quasifinite"}, {"check_quasifinite"})
