"""Exact values: rationals as Python numbers, irrationals in a tower over Q.

Every exact value has one form: an ``int`` when it is integral, a
``Fraction`` when it is another rational, and a :class:`Scalar` only when it
is irrational.  A :class:`ScalarField` holds an ordered list of square-free
integer radicands ``r_1, ..., r_m``; a Scalar is a rational linear
combination of the products ``sqrt(r_i1)*...*sqrt(r_ik)`` over subsets of
the radicands, stored as a map from the subset bitmask to a nonzero
coefficient, with at least one nonzero mask.  A coefficient is an ``int``
when it is integral and a ``Fraction`` only otherwise, never a ``float``, so
equality is plain dictionary comparison and all arithmetic is exact.
``field(x)``, ``sqrt``, ``parse`` and every Scalar operation return a Python
rational whenever the result is rational, so rational code runs on plain
numbers and a value never needs converting.  Sums go through
``linalg.accumulate`` and ``linalg.add_scaled``, so a coefficient is
canonical by the rule every sparse map of the package keeps.  Divide
through ``linalg.reciprocal``: ``field(3) / field(2)`` is the float
``1.5``.  A Scalar inverts by conjugation, one radicand at a time, which
works because the radicands stay independent modulo squares.  The tower
grows on demand when a square root of a new square-free integer is
requested, up to ``MAX_RADICANDS`` radicands; the Cartan-group workflow
only ever needs sqrt(2).

Scalars are immutable values.  A field mutates only by appending radicands,
which never invalidates existing scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import _expr
from .linalg import accumulate, add_scaled, canonical, reciprocal

# the most radicands a tower holds
MAX_RADICANDS = 8


class TowerInsufficient(ValueError):
    """A required square root is not expressible in the extension tower."""


def _mask_product(radicands, mask: int) -> int:
    """The product of the radicands whose bits are set in ``mask``."""
    p = 1
    i = 0
    while mask:
        if mask & 1:
            p *= radicands[i]
        mask >>= 1
        i += 1
    return p


def _value(field, terms: dict):
    """The value of canonical {mask: coeff} terms: its rational when the
    only mask is 0 (0 when there is none), else a Scalar."""
    if terms.keys() - {0}:
        return Scalar(field, terms)
    return terms.get(0, 0)


def _square_free_split(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s^2 * r and r square-free, for n >= 1."""
    s, r, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            r *= d
        d += 1 if d == 2 else 2
    return s, r * n


class ScalarField:
    """A tower Q(sqrt(r_1), ..., sqrt(r_m)) with on-demand extension."""

    __slots__ = ("radicands",)

    def __init__(self, radicands=()):
        self.radicands: list[int] = []
        for r in radicands:
            self._ensure_radicand(int(r))

    def __call__(self, value):
        """``value`` in its one form: a number, a Scalar of this field or
        the text of a value."""
        if type(value) is int:
            return value
        if isinstance(value, Scalar):
            if value.field is not self:
                raise ValueError("scalar belongs to a different field")
            return value
        if type(value) is Fraction:
            return canonical(value)
        if isinstance(value, str):
            return self.parse(value)
        return canonical(Fraction(value))

    def _ensure_radicand(self, r: int):
        """Locate sqrt(r) in the tower, extending it if necessary.

        Returns (mask, multiplier) with sqrt(r) = multiplier * basis[mask].
        ``r`` must be square-free and >= 2.
        """
        m = len(self.radicands)
        for mask in range(1 << m):
            t = r * _mask_product(self.radicands, mask)
            s = isqrt(t)
            if s * s == t:
                # sqrt(r) = s / prod * basis[mask]
                return mask, Fraction(s, _mask_product(self.radicands, mask))
        if m >= MAX_RADICANDS:
            raise TowerInsufficient(
                f"tower extension cap ({MAX_RADICANDS}) reached for sqrt({r})")
        self.radicands.append(r)
        return 1 << m, Fraction(1)

    def sqrt(self, x):
        """Exact square root of a nonnegative rational."""
        q = self(x)
        if isinstance(q, Scalar):
            raise TowerInsufficient(
                "square roots are only taken of rational scalars")
        if q < 0:
            raise ValueError("square root of a negative scalar")
        if not q:
            return 0
        s, r = _square_free_split(q.numerator * q.denominator)
        coeff = Fraction(s, q.denominator)
        if r == 1:
            return canonical(coeff)
        mask, mult = self._ensure_radicand(r)
        return Scalar(self, {mask: canonical(coeff * mult)})

    # -- parsing ------------------------------------------------------

    def parse(self, text: str):
        """Parse "3/2", "0.5", "-1/2*sqrt(2)", "1 + sqrt(2)/2", etc."""
        return _expr.parse_scalar(self, text)

    def __repr__(self):
        return f"ScalarField(radicands={self.radicands})"


class Scalar:
    """An irrational element of a ScalarField in canonical form; immutable."""

    __slots__ = ("field", "terms")

    def __init__(self, field: ScalarField, terms: dict):
        self.field = field
        self.terms = terms

    # -- arithmetic ---------------------------------------------------

    def _terms(self, other):
        """The {mask: coeff} terms of a value of this field; None for an
        operand of another type, which the operators hand back to it."""
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise ValueError("scalars from different fields")
            return other.terms
        if isinstance(other, (int, Fraction)):
            return {0: other} if other else {}
        return None

    def __add__(self, other):
        right = self._terms(other)
        if right is None:
            return NotImplemented
        terms = dict(self.terms)
        add_scaled(terms, 1, right)
        return _value(self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        right = self._terms(other)
        if right is None:
            return NotImplemented
        terms: dict = {}
        rad = self.field.radicands
        for m1, c1 in self.terms.items():
            for m2, c2 in right.items():
                common = m1 & m2
                c = c1 * c2
                if common:
                    c *= _mask_product(rad, common)
                accumulate(terms, m1 ^ m2, c)
        return _value(self.field, terms)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self, by conjugation.

        With ``b`` the highest radicand bit that self uses, ``conj`` flips
        the sign of every term whose mask holds ``b``: the automorphism
        sqrt(r_b) -> -sqrt(r_b), which exists because the radicands are
        independent modulo squares.  self * conj lies in the subfield
        without ``b``, so its reciprocal recurses on fewer radicands.
        """
        b = 1 << (max(self.terms).bit_length() - 1)
        conj = Scalar(self.field, {m: -c if m & b else c
                                   for m, c in self.terms.items()})
        return conj * reciprocal(self * conj)

    def __truediv__(self, other):
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return other * self.inverse()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        """A Scalar is irrational, so it never equals an int or a Fraction."""
        if isinstance(other, Scalar):
            return self.field is other.field and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- rendering ------------------------------------------------------

    def signed_terms(self, den: int = 1) -> list:
        """(sign, text) of each tower term of self / den, by mask."""
        terms = []
        for m in sorted(self.terms):
            sign, text = _expr.signed(self.terms[m], den)
            if m:
                rad = f"sqrt({_mask_product(self.field.radicands, m)})"
                text = rad if text == "1" else f"{text}*{rad}"
            terms.append((sign, text))
        return terms

    def __str__(self):
        """Tower terms by mask, as in "1 - 3/2*sqrt(6)"."""
        return _expr.signed_sum(self.signed_terms())

    def __repr__(self):
        return f"Scalar({self})"
