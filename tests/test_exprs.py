from fractions import Fraction as F

import pytest

from mapvir import Algebra, c_term, d_term
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
