import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mapvir import (
    Algebra,
    LieElement,
    ModeRangeError,
    bracket,
    c_term,
    central_scalar,
    d_term,
    format_lie_element,
    grade_decompose,
    liealg,
)


def rand_elt(rng, alg):
    return alg.element({i: F(rng.randint(-4, 4), rng.randint(1, 3))
                        for i in alg.basis_indices() if rng.random() < 0.8})


def rand_lie(rng, alg, modes=(-4, 4), allow_c=True):
    x = LieElement(alg, {})
    for _ in range(rng.randint(1, 3)):
        x = x + d_term(alg, rng.randint(*modes), rand_elt(rng, alg))
    if allow_c and rng.random() < 0.5:
        x = x + c_term(alg, rand_elt(rng, alg))
    return x


DUAL = Algebra.product_local([(0, 2)])  # Q[t]/(t^2)


def test_bracket_d1_dm1_with_coefficients():
    g = DUAL.one()
    f = DUAL.basis_element(1)
    out = bracket(d_term(DUAL, 1, g), d_term(DUAL, -1, f))
    assert out == d_term(DUAL, 0, f.scale(-2))


def test_bracket_d2_dm2_central():
    f = DUAL.basis_element(1)
    out = bracket(d_term(DUAL, 2), d_term(DUAL, -2, f))
    expected = d_term(DUAL, 0, f.scale(-4)) + c_term(DUAL, f.scale(F(1, 2)))
    assert out == expected


def test_bracket_d3():
    A = Algebra.rationals()
    out = bracket(d_term(A, 3), d_term(A, -3))
    assert out == d_term(A, 0, A.one().scale(-6)) + c_term(A, A.one().scale(2))
    assert central_scalar(3) == 2


def test_centrality():
    rng = random.Random(3)
    for _ in range(25):
        x = rand_lie(rng, DUAL)
        z = c_term(DUAL, rand_elt(rng, DUAL))
        assert bracket(z, x).is_zero()
        assert bracket(x, z).is_zero()


def test_antisymmetry():
    rng = random.Random(7)
    for _ in range(200):
        x, y = rand_lie(rng, DUAL), rand_lie(rng, DUAL)
        assert bracket(x, y) == bracket(y, x).scale(-1)


def test_jacobi():
    rng = random.Random(19)
    algs = [Algebra.rationals(), DUAL]
    for _ in range(200):
        alg = rng.choice(algs)
        x, y, z = (rand_lie(rng, alg, modes=(-3, 3)) for _ in range(3))
        total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        assert total.is_zero()


def test_grading():
    for i in range(-6, 7):
        for j in range(-6, 7):
            out = bracket(d_term(DUAL, i, DUAL.basis_element(1)),
                          d_term(DUAL, j))
            comps = grade_decompose(out)
            assert all(c.mode == i + j for c in comps)
            for c in comps:
                if c.mode != 0:
                    assert c.element.c_part.is_zero()


def test_perfectness_witness():
    # every d_n (x) f with |n| <= 4, and c (x) f, is a bracket
    for n in range(-4, 5):
        f = DUAL.basis_element(1)
        target = d_term(DUAL, n, f)
        if n != 0:
            made = bracket(d_term(DUAL, 0, DUAL.one().scale(F(1, n))),
                           d_term(DUAL, n, f))
        else:
            made = bracket(d_term(DUAL, -1, DUAL.one().scale(F(1, 2))),
                           d_term(DUAL, 1, f))
        assert made == target
    # c (x) f = 2 [d_-2, d_2 (x) f] + 8 d_0 (x) f
    f = DUAL.one()
    br = bracket(d_term(DUAL, -2), d_term(DUAL, 2, f))
    assert br + d_term(DUAL, 0, f.scale(-4)) == c_term(DUAL, f.scale(F(-1, 2)))


def test_grade_decompose_example():
    A = Algebra.rationals()
    x = d_term(A, 2) + d_term(A, -1) + c_term(A)
    comps = grade_decompose(x)
    assert [c.mode for c in comps] == [-1, 0, 2]
    assert comps[1].element == c_term(A)
    total = LieElement(A, {})
    for c in comps:
        total = total + c.element
    assert total == x


def test_grade_decompose_zero_bracket():
    A = Algebra.rationals()
    out = bracket(d_term(A, 1), d_term(A, 1))
    assert out.is_zero()
    assert grade_decompose(out) == []


def test_mode_bound(monkeypatch):
    A = Algebra.rationals()
    with pytest.raises(ModeRangeError):
        d_term(A, 65)
    monkeypatch.setattr(liealg, "_MODE_MAX", 4)  # MAPVIR_MODE_MAX is read at import
    with pytest.raises(ModeRangeError):
        d_term(A, 5)
    assert not d_term(A, 4).is_zero()


@pytest.mark.parametrize("raw, answer", [
    ("4", "mode 5 exceeds the bound |n| <= 4"),
    ("abc", "MAPVIR_MODE_MAX='abc' is not an integer"),
    ("0", "MAPVIR_MODE_MAX must be positive"),
], ids=["valid", "not-an-integer", "not-positive"])
def test_mode_bound_is_read_once_at_import(raw, answer):
    # a later change to the environment does not move the bound, and an
    # invalid value still raises ModeRangeError when a mode is checked
    code = ("import os, mapvir\n"
            "os.environ['MAPVIR_MODE_MAX'] = '64'\n"
            "try:\n"
            "    mapvir.d_term(mapvir.Algebra.rationals(), 5)\n"
            "except mapvir.ModeRangeError as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "MAPVIR_MODE_MAX": raw})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == answer


def test_format():
    A = Algebra.rationals()
    x = d_term(A, 0, A.one().scale(-4)) + c_term(A, A.one().scale(F(1, 2)))
    assert format_lie_element(x) == "-4*d[0] + 1/2*c"
    y = d_term(DUAL, -1, DUAL.basis_element(1)) + c_term(DUAL, DUAL.one().scale(F(1, 2)))
    assert format_lie_element(y) == "d[-1]*(t) + 1/2*c"
