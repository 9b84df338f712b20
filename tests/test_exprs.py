import json
import random
from fractions import Fraction as F

import pytest

from mapvir import (
    Algebra,
    WindowOverflow,
    c_term,
    d_term,
    format_element,
    format_lie_element,
)
from mapvir.cli import main
from mapvir.exprs import parse_algebra_element, parse_lie_element

DUAL = Algebra.product_local([(0, 2)])  # Q[t]/(t^2)
T = DUAL.basis_element(1)
ONE = DUAL.one()


@pytest.mark.parametrize("text, expected", [
    ("t/2", T.scale(F(1, 2))),
    ("(1 + t)/(2*3)", (ONE + T).scale(F(1, 6))),
    ("-t", T.scale(-1)),
    ("-(1 - t)", T - ONE),
    ("-(-t)", T),
    ("1 - -t", ONE + T),
    ("2^-2", ONE.scale(F(1, 4))),
    ("t*(-3)^-1", T.scale(F(-1, 3))),
    ("t^2", DUAL.element({})),
])
def test_parse_algebra_element(text, expected):
    assert parse_algebra_element(text, DUAL) == expected


@pytest.mark.parametrize("text, expected", [
    ("d[2]/3", d_term(DUAL, 2).scale(F(1, 3))),
    ("d[-1]*t/(-2)", d_term(DUAL, -1, T.scale(F(-1, 2)))),
    ("-d[1]", d_term(DUAL, 1).scale(-1)),
    ("-(d[1] - c*t)", c_term(DUAL, T) - d_term(DUAL, 1)),
    ("d[0] - -c", d_term(DUAL, 0) + c_term(DUAL)),
    ("2^-1*d[-3]", d_term(DUAL, -3).scale(F(1, 2))),
    ("d[1]*(-2)^-3", d_term(DUAL, 1).scale(F(-1, 8))),
])
def test_parse_lie_element(text, expected):
    assert parse_lie_element(text, DUAL) == expected


@pytest.mark.parametrize("parse, text, message", [
    (parse_algebra_element, "1/t", "nonzero scalars"),
    (parse_algebra_element, "1/(t - t)", "nonzero scalars"),
    (parse_lie_element, "d[1]/t", "nonzero scalars"),
    (parse_lie_element, "c/d[1]", "divide by a Lie element"),
    (parse_lie_element, "d[1]*d[-1]", "products of Lie generators"),
    (parse_lie_element, "c*(2*d[0])", "products of Lie generators"),
    (parse_algebra_element, "t^-1", "negative powers"),
])
def test_parser_errors(parse, text, message):
    with pytest.raises(ValueError, match=message):
        parse(text, DUAL)


QT = Algebra.polynomial((0, 8))
LAURENT = Algebra.laurent((-6, 6))
T2 = QT.basis_element(2)


@pytest.mark.parametrize("text, expected", [
    ("2*-t^2", T2.scale(-2)),
    ("t^2*-1", T2.scale(-1)),
    ("-t^2*2", T2.scale(-2)),
    ("2*(-t)^2", T2.scale(2)),
    ("-2^2", QT.one().scale(-4)),
])
def test_unary_minus_binds_looser_than_power(text, expected):
    assert parse_algebra_element(text, QT) == expected


def test_unary_minus_after_a_generator_negates_the_power():
    assert parse_lie_element("d[1]*-t^2", QT) == d_term(QT, 1, T2.scale(-1))


def _seeded_laurent(rng):
    exponents = rng.sample(range(-6, 7), rng.randint(1, 4))
    return LAURENT.element({k: F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                            for k in exponents})


def test_negative_exponents_round_trip_through_the_printed_form():
    rng = random.Random(2901)
    for _ in range(30):
        x = _seeded_laurent(rng)
        assert parse_algebra_element(format_element(x), LAURENT) == x
        y = d_term(LAURENT, rng.randint(-3, 3), x) + c_term(LAURENT, _seeded_laurent(rng))
        assert parse_lie_element(format_lie_element(y), LAURENT) == y


@pytest.mark.parametrize("text, expected", [
    ("t^-1", {-1: F(1)}),
    ("(2*t^-3)^-2", {6: F(1, 4)}),
    ("(-t^2/3)^-3", {-6: F(-27)}),
    ("(1/2)^-2", {0: F(4)}),
])
def test_laurent_monomials_take_negative_powers(text, expected):
    assert parse_algebra_element(text, LAURENT) == LAURENT.element(expected)


@pytest.mark.parametrize("text", ["(t^2)^-4", "t^-7", "(t^-3)^-3"])
def test_a_negative_power_that_leaves_the_window_overflows(text):
    with pytest.raises(WindowOverflow):
        parse_algebra_element(text, LAURENT)


@pytest.mark.parametrize("text", ["(1 + t)^-1", "(t - t)^-1", "0^-2"])
def test_only_units_take_negative_powers(text):
    with pytest.raises(ValueError, match="negative powers"):
        parse_algebra_element(text, LAURENT)


def test_the_cli_brackets_a_negative_power(tmp_path, capsys):
    spec = tmp_path / "laurent.json"
    spec.write_text(json.dumps({"kind": "laurent", "window": [-4, 4]}))
    assert main(["bracket", "-A", str(spec), "d[1]*(t^-1)", "d[-1]"]) == 0
    assert capsys.readouterr().out == "d[0]*(-2*t^-1)\n"


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 1023, 1024, 200000])
def test_powers_square_and_multiply(monkeypatch, n):
    products = []
    mul_coeffs = Algebra._mul_coeffs

    def counted(self, a, b):
        products.append(1)
        return mul_coeffs(self, a, b)

    monkeypatch.setattr(Algebra, "_mul_coeffs", counted)
    assert parse_algebra_element(f"(1 + t)^{n}", DUAL) == ONE + T.scale(n)
    assert len(products) <= 2 * (n.bit_length() - 1) + 1


def test_powers_match_repeated_multiplication():
    x = parse_algebra_element("1 - 2*t + t^2/3", QT)
    power = QT.one()
    assert parse_algebra_element("(1 - 2*t + t^2/3)^0", QT) == power
    for n in range(1, 5):
        power = power * x
        assert parse_algebra_element(f"(1 - 2*t + t^2/3)^{n}", QT) == power
    with pytest.raises(WindowOverflow):
        parse_algebra_element("(1 - 2*t + t^2/3)^5", QT)
