"""Polynomial coordinate models of left-invariant vector fields.

This is the independent oracle for the operator algebra: a word in the
generators can be applied to an exact polynomial either directly, field by
field, or after PBW normalization, and the two answers must agree.  The
built-in realization is the exponential-coordinate model of the Cartan
group,

    X1 = d1
    X2 = d2 + x1 d3 + (x1^2/2) d4 + x1 x2 d5
    X3 = d3 + x1 d4 + x2 d5
    X4 = d4
    X5 = d5.

Other groups accept a user-supplied list of vector fields.  Coefficients
are exact values of :mod:`carnot.scalars`, which need no field, so a
:class:`Polynomial` is its number of variables and its terms, and the
parser's adapter holds only that number.
"""

from __future__ import annotations

from fractions import Fraction

from . import _expr
from .env import EnvElement, word_of
from .linalg import accumulate, add_scaled, canonical, reciprocal
from .scalars import Scalar, exact, sqrt


class NoRealization(ValueError):
    pass


class Polynomial:
    """Commutative polynomial in x1..xn with exact coefficients: ints,
    Fractions or Scalars, each in its one form."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def constant(cls, nvars, value):
        c = exact(value)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, i: int):
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    def __add__(self, other):
        terms = dict(self.terms)
        add_scaled(terms, 1, other.terms)
        return Polynomial(self.nvars, terms)

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        c = exact(coeff)
        if not c:
            return Polynomial(self.nvars, {})
        return Polynomial(self.nvars,
                          {e: canonical(c * v) for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        out: dict = {}
        _add_product(out, self.terms, other.terms)
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Polynomial):
            other = other.as_scalar()
        return self.scale(reciprocal(other))

    def as_scalar(self):
        if not self.terms:
            return 0
        unit = (0,) * self.nvars
        if set(self.terms) != {unit}:
            raise ValueError("polynomial is not constant")
        return self.terms[unit]

    def diff(self, i: int) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k:
                ne = list(e)
                ne[i - 1] = k - 1
                out[tuple(ne)] = canonical(c * k)
        return Polynomial(self.nvars, out)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def render(self) -> str:
        def term(e, c):
            mono = "*".join(
                f"x{k + 1}" + (f"^{d}" if d > 1 else "")
                for k, d in enumerate(e) if d)
            sign, coeff = _expr.signed(c)
            body = (mono if coeff == "1" else f"{coeff}*{mono}") if mono else coeff
            return sign, body
        return _expr.signed_sum(term(e, c) for e, c in sorted(
            self.terms.items(), key=lambda t: (sum(t[0]), t[0])))

    __str__ = render

    def __repr__(self):
        return f"Polynomial({self.render()})"

    @classmethod
    def parse(cls, nvars, text):
        return _expr.parse(text, _PolyAdapter(nvars))


def _add_product(out: dict, a: dict, b: dict):
    """out += a * b, for the {exponents: value} terms of two polynomials."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            accumulate(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)


class _PolyAdapter:
    def __init__(self, nvars):
        self.nvars = nvars

    def number(self, q):
        return Polynomial.constant(self.nvars, q)

    def sqrt(self, n):
        return Polynomial.constant(self.nvars, sqrt(n))

    def var(self, name):
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:])
            if 1 <= i <= self.nvars:
                return Polynomial.variable(self.nvars, i)
        raise _expr.ExprError(f"unknown variable {name!r}")


class CoordinateRealization:
    """Vector fields X_i = sum_j a_ij(x) d_j with polynomial coefficients."""

    def __init__(self, nvars: int, fields):
        self.nvars = nvars
        self.fields = fields  # list over generators of list over vars of Polynomial

    def apply_field(self, i: int, p: Polynomial) -> Polynomial:
        out: dict = {}
        for j, coeff in enumerate(self.fields[i - 1], start=1):
            if coeff.terms:
                _add_product(out, coeff.terms, p.diff(j).terms)
        return Polynomial(self.nvars, out)

    def apply_word(self, word, p: Polynomial) -> Polynomial:
        # operator words compose right-to-left
        for i in reversed(tuple(word)):
            p = self.apply_field(i, p)
        return p

    def apply(self, op: EnvElement, p: Polynomial) -> Polynomial:
        out: dict = {}
        for exp, c in op.terms.items():
            add_scaled(out, c, self.apply_word(word_of(exp), p).terms)
        return Polynomial(self.nvars, out)


def cartan_realization() -> CoordinateRealization:
    zero, one = Polynomial(5, {}), Polynomial.constant(5, 1)
    x1, x2 = Polynomial.variable(5, 1), Polynomial.variable(5, 2)
    half_x1sq = x1 * x1 * Fraction(1, 2)
    fields = [
        [one, zero, zero, zero, zero],
        [zero, one, x1, half_x1sq, x1 * x2],
        [zero, zero, one, x1, x2],
        [zero, zero, zero, one, zero],
        [zero, zero, zero, zero, one],
    ]
    return CoordinateRealization(5, fields)


def coordinate_apply(op: EnvElement, p: Polynomial) -> Polynomial:
    """Apply a normal-ordered operator to a polynomial via the coordinates
    attached to its algebra."""
    realization = op.algebra.realization
    if realization is None:
        raise NoRealization(
            "no coordinate realization attached to this algebra")
    return realization.apply(op, p)
