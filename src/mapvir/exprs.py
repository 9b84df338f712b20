"""Small expression parser for scalars, algebra elements, and Lie elements.

Grammar (whitespace-insensitive):

    expr   := ['+'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ['^' ['-'] INT]
    atom   := INT | NAME | 'd' '[' ['-'] INT ']' | 'c' | '(' expr ')'

Unary minus binds looser than '^', as in Python: -t^2 and 2*-t^2 negate t^2.
NAME resolves through the algebra's basis labels ('t', 'e0', ...).  The
generators d[n] and c are only admitted when parsing Lie elements, where a
term may contain at most one of them; algebra-element factors multiply into
the A-coefficient.  Division is by scalars only.  A negative power takes a
nonzero scalar or, over a Laurent algebra, a monomial c*t^k, the only other
units there, so everything format_element prints (t^-1 included) parses back.
"""

from __future__ import annotations

from fractions import Fraction

from . import polyutil
from .algebra import Algebra, AlgebraElement
from .liealg import LieElement, _as_plain_scalar, c_term, d_term


def _tokenize(text: str) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("INT", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()[]":
            out.append(("OP", ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in expression")
    out.append(("END", None))
    return out


class _Parser:
    def __init__(self, text: str, algebra: Algebra, allow_lie: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.algebra = algebra
        self.allow_lie = allow_lie

    # token plumbing

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def eat_op(self, op: str) -> bool:
        kind, val = self.peek()
        if kind == "OP" and val == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str):
        if not self.eat_op(op):
            raise ValueError(f"expected {op!r} at token {self.peek()!r}")

    # grammar

    def parse(self):
        value = self.expr()
        kind, _ = self.peek()
        if kind != "END":
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self):
        self.eat_op("+")
        value = self.term()
        while True:
            if self.eat_op("+"):
                value = self._add(value, self.term())
            elif self.eat_op("-"):
                value = self._add(value, -self.term())
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            if self.eat_op("*"):
                value = self._mul(value, self.factor())
            elif self.eat_op("/"):
                value = self._div(value, self.factor())
            else:
                return value

    def factor(self):
        if self.eat_op("-"):
            return -self.factor()
        value = self.atom()
        if self.eat_op("^"):
            sign = -1 if self.eat_op("-") else 1
            kind, val = self.next()
            if kind != "INT":
                raise ValueError("exponent must be an integer")
            value = self._pow(value, sign * val)
        return value

    def atom(self):
        if self.eat_op("("):
            value = self.expr()
            self.expect_op(")")
            return value
        kind, val = self.next()
        if kind == "INT":
            return self.algebra.one().scale(Fraction(val))
        if kind == "NAME":
            if self.allow_lie and val == "d":
                self.expect_op("[")
                sign = -1 if self.eat_op("-") else 1
                k2, v2 = self.next()
                if k2 != "INT":
                    raise ValueError("mode must be an integer")
                self.expect_op("]")
                return d_term(self.algebra, sign * v2)
            if self.allow_lie and val == "c":
                return c_term(self.algebra)
            return self.algebra.basis_element(self.algebra.index_of_label(val))
        raise ValueError(f"unexpected token {(kind, val)!r}")

    # value arithmetic over AlgebraElement | LieElement

    def _add(self, a, b):
        if isinstance(a, LieElement) != isinstance(b, LieElement):
            raise ValueError("cannot add a coefficient to a Lie element; "
                             "multiply it into d[n] or c")
        return a + b

    def _mul(self, a, b):
        a_lie = isinstance(a, LieElement)
        b_lie = isinstance(b, LieElement)
        if a_lie and b_lie:
            raise ValueError("products of Lie generators are not Lie elements")
        if a_lie:
            return _scale_lie(a, b)
        if b_lie:
            return _scale_lie(b, a)
        return a * b

    def _div(self, a, b):
        if isinstance(b, LieElement):
            raise ValueError("cannot divide by a Lie element")
        scalar = _as_plain_scalar(b)
        if scalar is None or scalar == 0:
            raise ValueError("division is only by nonzero scalars")
        return a.scale(1 / scalar)

    def _pow(self, a, n: int):
        if isinstance(a, LieElement):
            if n == 1:
                return a
            raise ValueError("Lie elements cannot be raised to powers")
        if n < 0:
            a, n = _inverse(a), -n
        out = a.algebra.one()
        while n:  # square and multiply
            if n & 1:
                out = out * a
            n >>= 1
            if n:
                a = a * a
        return out


def _inverse(a: AlgebraElement) -> AlgebraElement:
    """1/a for a nonzero scalar, or for a monomial c*t^k of a Laurent algebra."""
    if a.algebra.kind == "laurent" and len(a.coeffs) == 1:
        ((k, c),) = a.items()
        return a.algebra.element({-k: 1 / c})
    scalar = _as_plain_scalar(a)
    if scalar is None or scalar == 0:
        raise ValueError("negative powers only apply to scalars and Laurent monomials")
    return a.algebra.one().scale(1 / scalar)


def _scale_lie(x: LieElement, g: AlgebraElement) -> LieElement:
    return LieElement(x.algebra,
                      {n: f * g for n, f in x.d_part.items()},
                      x.c_part * g)


def parse_algebra_element(text: str, algebra: Algebra) -> AlgebraElement:
    value = _Parser(text, algebra, allow_lie=False).parse()
    return value


def parse_lie_element(text: str, algebra: Algebra) -> LieElement:
    value = _Parser(text, algebra, allow_lie=True).parse()
    if isinstance(value, AlgebraElement):
        raise ValueError("expression contains no d[n] or c generator")
    return value


def parse_word(text: str, algebra: Algebra) -> list[LieElement]:
    """Parse a ';'-separated word of Lie elements."""
    letters = [piece for piece in text.split(";") if piece.strip()]
    if not letters:
        raise ValueError("empty word")
    return [parse_lie_element(piece, algebra) for piece in letters]


def parse_poly_text(text: str) -> polyutil.Poly:
    """Parse a univariate polynomial in t with rational coefficients."""
    scratch = Algebra.polynomial((0, 512))
    return parse_algebra_element(text, scratch).as_poly()
