"""Text of scalars, operators and polynomials: one parser, one signed sum.

Grammar (whitespace-insensitive, '*' optional, '^' for powers):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/')? factor)*
    factor := '-'? atom ('^' INT)?
    atom   := NUMBER | 'sqrt' '(' INT ')' | VAR | '(' expr ')'

The caller supplies an adapter that lifts numbers, square roots and named
variables into one value type carrying +, -, * and / (division by scalars):
``scalars.parse`` lifts them to exact values, ``EnvElement.parse`` to
operators of a group and ``Polynomial.parse`` to polynomials in n
variables; only the operator adapter holds state, its group.
A scalar expression computes on exact values (:mod:`carnot.scalars`),
where two ints can meet in a quotient, so a rational divisor is inverted
by ``linalg.reciprocal``: ``int / int`` would be a float.
``signed`` and ``signed_sum`` write the other way: every renderer splits its
coefficients into sign and text and joins its terms with " + " / " - ".
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .linalg import reciprocal

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_]*\d*)|([()+\-*/^]))")


class ExprError(ValueError):
    pass


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"bad character at {text[pos:]!r}")
            break
        num, name, sym = m.groups()
        if num is not None:
            out.append(("num", num))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append((sym, sym))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, adapter):
        self.tokens = tokens
        self.pos = 0
        self.adapter = adapter

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def parse(self):
        value = self.expr()
        if self.peek()[0] is not None:
            raise ExprError(f"trailing input at {self.peek()[1]!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                op = self.next()[0]
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                    continue
                try:
                    if isinstance(rhs, (int, Fraction)):
                        value = value * reciprocal(rhs)
                    else:
                        value = value / rhs
                except ZeroDivisionError:
                    raise ExprError("division by zero") from None
            elif kind in ("num", "name", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.factor()
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            exp = int(self.expect("num")[1])
            out = self.adapter.number(Fraction(1))
            for _ in range(exp):
                out = out * value
            return out
        return value

    def atom(self):
        kind, text = self.next()
        if kind == "num":
            return self.adapter.number(Fraction(text))
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "name":
            if text == "sqrt":
                self.expect("(")
                arg = self.expect("num")[1]
                self.expect(")")
                return self.adapter.sqrt(int(arg))
            return self.adapter.var(text)
        raise ExprError(f"unexpected token {text!r}")


def signed(c, den: int = 1) -> tuple:
    """(sign, text) of the coefficient c / den: "-" and the text after the
    minus when it reads negative; a Scalar of several terms is bracketed,
    sign "+".  ``c`` is an int, a Fraction or a Scalar, and ``den`` a
    positive int, so an operator's numerator is written over its
    denominator with no Fraction built."""
    if isinstance(c, (int, Fraction)):
        num, d = c.numerator, c.denominator * den
        g = gcd(num, d)
        if g != 1:
            num //= g
            d //= g
        return ("-" if num < 0 else "+",
                str(abs(num)) if d == 1 else f"{abs(num)}/{d}")
    terms = c.signed_terms(den)
    if len(terms) > 1:
        return "+", f"({signed_sum(terms)})"
    return terms[0]


def signed_sum(terms) -> str:
    """Join (sign, body) pairs as "a - b + c"; "0" when there are none."""
    text = "".join(f" {sign} {body}" for sign, body in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def parse(text: str, adapter):
    return _Parser(_tokenize(text), adapter).parse()
