"""Exact values: rationals as Python numbers, irrationals over square roots.

Every exact value has one form: an ``int`` when it is integral, a
``Fraction`` when it is another rational, and a :class:`Scalar` only when it
is irrational.  A Scalar holds only its terms: it maps each square-free
radicand ``r`` (1 for the rational part) to the nonzero coefficient of
``sqrt(r)``, with at least one key above 1.  Square roots of distinct
square-free integers are linearly independent over Q (Besicovitch, 1940),
so this form is canonical, with no tower, order or cap: equal values are
equal dictionaries, whatever made them.  A coefficient is an ``int`` when
integral and a ``Fraction`` only otherwise, never a ``float``.  ``exact(x)``,
``sqrt``, ``parse`` and every Scalar operation return a Python rational
whenever the result is rational.  Sums go through ``linalg.accumulate`` and
``linalg.add_scaled``; products follow sqrt(a)*sqrt(b) = g*sqrt(ab/g^2),
g = gcd(a, b).  Divide through ``linalg.reciprocal``: ``exact(3) /
exact(2)`` is the float ``1.5``.  ``sqrt`` splits by trial division up to
``TRIAL_BOUND``, exact below its cube, and refuses a number it cannot split
with ``TowerInsufficient``.  A :class:`ScalarField` computes nothing: it
records, in ``radicands``, the radicands of the roots taken through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from . import _expr
from .linalg import accumulate, add_scaled, canonical, reciprocal

# trial division stops here, so a square-free split is exact below its cube
TRIAL_BOUND = 10 ** 5


class TowerInsufficient(ValueError):
    """A required square root cannot be put in canonical form."""


def _value(terms: dict):
    """The value of canonical {radicand: coeff} terms: its rational when
    the only radicand is 1 (0 when there is none), else a Scalar."""
    if terms.keys() - {1}:
        return Scalar(terms)
    return terms.get(1, 0)


def _square_free_split(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s^2 * r and r square-free, for n >= 1.

    Trial division by d runs while d^3 <= n, so what it leaves is a square
    or square-free; past ``TRIAL_BOUND`` it may be p^2 * q, and a remainder
    that is not a square raises TowerInsufficient.
    """
    s, r, d = 1, 1, 2
    while d * d * d <= n and d <= TRIAL_BOUND:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            r *= d
        d += 1 if d == 2 else 2
    t = isqrt(n)
    if t * t == n:
        return s * t, r
    if d * d * d <= n:
        raise TowerInsufficient(f"no square-free split of {n} by trial "
                                f"division up to {TRIAL_BOUND}")
    return s, r * n


def exact(value):
    """``value`` in its one form: a number, a Scalar or the text of a
    value."""
    if type(value) is int or isinstance(value, Scalar):
        return value
    if type(value) is Fraction:
        return canonical(value)
    if isinstance(value, str):
        return parse(value)
    return canonical(Fraction(value))


def sqrt(x):
    """Exact square root of a nonnegative rational p/q, as
    sqrt(p) / sqrt(q); the square-free parts of p and q are coprime."""
    q = exact(x)
    if isinstance(q, Scalar):
        raise TowerInsufficient(
            "square roots are only taken of rational scalars")
    if q < 0:
        raise ValueError("square root of a negative scalar")
    if not q:
        return 0
    a, ra = _square_free_split(q.numerator)
    b, rb = _square_free_split(q.denominator)
    coeff = canonical(Fraction(a, b * rb))
    r = ra * rb
    return coeff if r == 1 else Scalar({r: coeff})


class _Leaves:
    """The leaves of a scalar expression as exact values."""

    number = staticmethod(exact)
    sqrt = staticmethod(sqrt)

    @staticmethod
    def var(name):
        raise _expr.ExprError(f"unknown symbol {name!r} in scalar expression")


def parse(text: str):
    """Parse "3/2", "0.5", "-1/2*sqrt(2)", "1 + sqrt(2)/2", etc."""
    return exact(_expr.parse(text, _Leaves))


class ScalarField:
    """The record, in the ordered set ``radicands``, of the radicands of the
    roots taken through it; no value depends on it."""

    __slots__ = ("radicands",)

    def __init__(self):
        self.radicands: dict[int, None] = {}

    def sqrt(self, x):
        root = sqrt(x)
        if type(root) is Scalar:
            self.radicands.update(dict.fromkeys(root.terms))
        return root


class Scalar:
    """An irrational exact value in canonical form; immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # -- arithmetic ---------------------------------------------------

    def _terms(self, other):
        """The {radicand: coeff} terms of an exact value; None for an
        operand of another type, which the operators hand back to it."""
        if isinstance(other, Scalar):
            return other.terms
        if isinstance(other, (int, Fraction)):
            return {1: other} if other else {}
        return None

    def __add__(self, other):
        right = self._terms(other)
        if right is None:
            return NotImplemented
        terms = dict(self.terms)
        add_scaled(terms, 1, right)
        return _value(terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        right = self._terms(other)
        if right is None:
            return NotImplemented
        terms: dict = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in right.items():
                g = gcd(r1, r2)
                c = c1 * c2
                accumulate(terms, r1 * r2 // (g * g), c * g if g > 1 else c)
        return _value(terms)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self, by conjugation.

        The atom starts as the largest radicand and becomes its gcd with
        each radicand it is not coprime with, so every radicand ends a
        multiple of the atom or coprime to it.  For a prime p of the atom,
        the automorphism sqrt(p) -> -sqrt(p) flips exactly the terms whose
        radicand the atom divides: ``conj``.  self * conj has no radicand
        divisible by p, so its reciprocal recurses on fewer primes.
        """
        atom = max(self.terms)
        for r in self.terms:
            g = gcd(atom, r)
            if g != 1:
                atom = g
        conj = Scalar({r: -c if r % atom == 0 else c
                       for r, c in self.terms.items()})
        return conj * reciprocal(self * conj)

    def __truediv__(self, other):
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return other * self.inverse()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        """A Scalar is irrational, so it never equals an int or a Fraction."""
        if isinstance(other, Scalar):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- rendering ------------------------------------------------------

    def signed_terms(self, den: int = 1) -> list:
        """(sign, text) of each term of self / den, by ascending radicand,
        the rational term first."""
        terms = []
        for r in sorted(self.terms):
            sign, text = _expr.signed(self.terms[r], den)
            if r != 1:
                text = f"sqrt({r})" if text == "1" else f"{text}*sqrt({r})"
            terms.append((sign, text))
        return terms

    def __str__(self):
        """Terms by ascending radicand, as in "1 - 3/2*sqrt(6)"."""
        return _expr.signed_sum(self.signed_terms())

    def __repr__(self):
        return f"Scalar({self})"
