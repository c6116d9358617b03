"""Exact scalars in a real quadratic-extension tower over the rationals.

A :class:`ScalarField` holds an ordered list of square-free integer radicands
``r_1, ..., r_m``.  A :class:`Scalar` is a rational linear combination of the
products ``sqrt(r_i1)*...*sqrt(r_ik)`` over subsets of the radicands, stored
as a map from the subset bitmask to a nonzero rational coefficient.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` only
otherwise: almost every scalar the Rumin complex produces is an integer, and
``int`` arithmetic is several times faster than ``Fraction`` arithmetic.  No
coefficient is ever a ``float``.  The representation is canonical (an ``int``
and the equal ``Fraction`` also compare and hash equal), so equality is plain
dictionary comparison and all arithmetic is exact.  The tower grows on demand
when a square root of a new square-free integer is requested; the
Cartan-group workflow only ever needs sqrt(2).

Scalars are immutable values.  A field mutates only by appending radicands,
which never invalidates existing scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class TowerInsufficient(ValueError):
    """A required square root is not expressible in the extension tower."""


def _q(c):
    """The canonical coefficient: ``c`` as an ``int`` when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _is_nonzero_rational(terms: dict) -> bool:
    """True for a nonzero rational: its only term is the mask-0 one."""
    return len(terms) == 1 and 0 in terms


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

    __slots__ = ("radicands", "max_radicands", "_zero", "_one")

    def __init__(self, radicands=(), max_radicands: int = 8):
        self.radicands: list[int] = []
        self.max_radicands = max_radicands
        self._zero = Scalar(self, {})
        self._one = Scalar(self, {0: 1})
        for r in radicands:
            self._ensure_radicand(int(r))

    # -- construction -------------------------------------------------

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_rational(self, value) -> "Scalar":
        q = value if type(value) is int else _q(Fraction(value))
        if q == 0:
            return self._zero
        return Scalar(self, {0: q})

    def __call__(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self:
                raise ValueError("scalar belongs to a different field")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self.from_rational(value)

    def _mask_product(self, mask: int) -> int:
        p = 1
        for i, r in enumerate(self.radicands):
            if mask >> i & 1:
                p *= r
        return p

    def _ensure_radicand(self, r: int):
        """Locate sqrt(r) in the tower, extending it if necessary.

        Returns (mask, multiplier) with sqrt(r) = multiplier * basis[mask].
        ``r`` must be square-free and >= 2.
        """
        m = len(self.radicands)
        for mask in range(1 << m):
            t = r * self._mask_product(mask)
            s = isqrt(t)
            if s * s == t:
                # sqrt(r) = s / prod * basis[mask]
                return mask, Fraction(s, self._mask_product(mask))
        if m >= self.max_radicands:
            raise TowerInsufficient(
                f"tower extension cap ({self.max_radicands}) reached for sqrt({r})")
        self.radicands.append(r)
        return 1 << m, Fraction(1)

    def sqrt(self, x) -> "Scalar":
        """Exact square root of a nonnegative rational scalar."""
        x = self(x)
        if not x.terms:
            return self._zero
        if set(x.terms) != {0}:
            raise TowerInsufficient(
                "square roots are only taken of rational scalars")
        q = x.terms[0]
        if q < 0:
            raise ValueError("square root of a negative scalar")
        s, r = _square_free_split(q.numerator * q.denominator)
        coeff = Fraction(s, q.denominator)
        if r == 1:
            return Scalar(self, {0: _q(coeff)})
        mask, mult = self._ensure_radicand(r)
        return Scalar(self, {mask: _q(coeff * mult)})

    def sqrt2(self) -> "Scalar":
        return self.sqrt(2)

    # -- parsing ------------------------------------------------------

    def parse(self, text: str) -> "Scalar":
        """Parse "3/2", "0.5", "-1/2*sqrt(2)", "1 + sqrt(2)/2", etc."""
        from . import _expr

        return _expr.parse_scalar(self, text)

    def format(self, x: "Scalar") -> str:
        return str(x)

    def __repr__(self):
        return f"ScalarField(radicands={self.radicands})"


class Scalar:
    """An element of a ScalarField in canonical form; immutable."""

    __slots__ = ("field", "terms")

    def __init__(self, field: ScalarField, terms: dict):
        self.field = field
        self.terms = terms

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_rational(self) -> bool:
        return set(self.terms) <= {0}

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.terms.get(0, 0))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise ValueError("scalars from different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        if _is_nonzero_rational(a) and _is_nonzero_rational(b):
            s = a[0] + b[0]
            return Scalar(self.field, {0: _q(s)}) if s else self.field._zero
        terms = dict(a)
        for m, c in b.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = _q(s)
            else:
                del terms[m]
        return Scalar(self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        x, y = self, self._coerce(other)
        if not x.terms or not y.terms:
            return self.field._zero
        if _is_nonzero_rational(x.terms):
            x, y = y, x
        if _is_nonzero_rational(y.terms):
            # a rational factor scales each term; the product has no zero term
            c = y.terms[0]
            if c == 1:
                return x
            return Scalar(self.field,
                          {m: _q(v * c) for m, v in x.terms.items()})
        terms: dict = {}
        rad = self.field.radicands
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                common = m1 & m2
                c = c1 * c2
                if common:
                    f = 1
                    i = 0
                    while common >> i:
                        if common >> i & 1:
                            f *= rad[i]
                        i += 1
                    c *= f
                m = m1 ^ m2
                s = terms.get(m, 0) + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Scalar(self.field, {m: _q(c) for m, c in terms.items()})

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.terms:
            raise ZeroDivisionError("scalar division by zero")
        if self.is_rational():
            return Scalar(self.field, {0: _q(Fraction(1) / self.terms[0])})
        # Solve x * y = 1 in the subfield generated by the masks of x.
        union = 0
        for m in self.terms:
            union |= m
        bits = [i for i in range(union.bit_length()) if union >> i & 1]
        basis = []
        for k in range(1 << len(bits)):
            m = 0
            for j, b in enumerate(bits):
                if k >> j & 1:
                    m |= 1 << b
            basis.append(m)
        index = {m: i for i, m in enumerate(basis)}
        n = len(basis)
        # column j = self * basis[j], in coordinates over `basis`
        cols = []
        for bj in basis:
            col = [Fraction(0)] * n
            for m1, c1 in self.terms.items():
                common = m1 & bj
                f = Fraction(1)
                i = 0
                while common >> i:
                    if common >> i & 1:
                        f *= self.field.radicands[i]
                    i += 1
                col[index[m1 ^ bj]] += c1 * f
            cols.append(col)
        rhs = [Fraction(0)] * n
        rhs[index[0]] = Fraction(1)
        sol = _solve_fraction_system(cols, rhs)
        terms = {basis[j]: _q(sol[j]) for j in range(n) if sol[j]}
        return Scalar(self.field, terms)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.terms.get(0, 0) == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            if m == 0:
                parts.append((c, None))
            else:
                parts.append((c, self.field._mask_product(m)))
        out = []
        for i, (c, rad) in enumerate(parts):
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if rad is None:
                body = str(c)
            elif c == 1:
                body = f"sqrt({rad})"
            else:
                body = f"{c}*sqrt({rad})"
            if i == 0:
                out.append(body if sign == "+" else "-" + body)
            else:
                out.append(f" {sign} {body}")
        return "".join(out)

    def __repr__(self):
        return f"Scalar({self})"

    def is_multi_term(self) -> bool:
        return len(self.terms) > 1


def _solve_fraction_system(cols, rhs):
    """Solve A x = rhs where A is given by columns of Fractions."""
    n = len(rhs)
    aug = [[cols[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        row += 1
    x = [Fraction(0)] * n
    for r in range(n):
        lead = next((c for c in range(n) if aug[r][c]), None)
        if lead is None:
            if aug[r][n]:
                raise ZeroDivisionError("inconsistent inverse system")
            continue
        x[lead] = aug[r][n]
    return x
