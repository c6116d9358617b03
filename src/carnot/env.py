"""Left-invariant differential operators as PBW-normal-ordered polynomials.

An :class:`EnvElement` is a finite sum of monomials X_1^{i_1} ... X_n^{i_n}
with exact scalar coefficients, keyed by the exponent vector (i_1, ..., i_n).
Products are renormalized with the rewriting rule

    X_j X_i  ->  X_i X_j + [X_j, X_i]        (j > i)

which terminates because brackets strictly raise the grading and the algebra
is nilpotent.

Every product runs through one kernel that works on raw coefficients, not on
:class:`Scalar` objects, because building and copying scalars, not the
algebra, is what costs time in products of order up to 12:

* **Collection by one generator.**  ``_product(alg, a, e_j)`` is the
  normal form of ``X^a X_j``.  When the last generator ``X_k`` of ``X^a``
  comes after ``X_j`` it is ``(X^{a-e_k} X_j) X_k`` minus the bracket
  ``[X_j, X_k]`` multiplied in after ``X^{a-e_k}``; each part is again a
  product of a normal monomial with one generator.  A general product
  ``X^a X^b``, and the normal form of a word, multiply the generators of
  the right factor in one at a time, adding into one flat accumulator.
* **Cache layout.**  Normal forms are flat maps ``{(exponent, mask):
  coeff}``: ``coeff`` is the plain ``int`` or ``Fraction`` coefficient of
  the tower basis element ``mask``, in the canonical form of
  ``Scalar.terms``.  ``alg._prod_cache`` holds every product of two normal
  monomials computed, keyed by the pair of exponent vectors; the products
  with one generator among them are what the collection reuses.
  ``alg._nf_cache`` holds only the words asked for by ``from_word`` and
  ``formal_adjoint``, keyed by the word.  Multiplying a term
  ``c1 * basis[m1]`` by ``c2 * basis[m2]`` adds
  ``c1 * c2 * (product of the radicands in m1 & m2)`` at mask ``m1 ^ m2``
  directly, so filling the caches builds no scalar.
* **Fused accumulation.**  ``_mul_into`` adds a product ``a*b`` into one
  flat accumulator dict in place, and ``_from_acc`` turns the accumulator
  into an EnvElement once, dropping the zeros.  A sum of products therefore
  costs one pass over its terms instead of one copy of the partial sum per
  term.  ``_scale_into`` adds a scalar multiple the same way; the exterior
  builders sum through it.  ``OperatorMatrix.conjugate``, the product with
  constant matrices on both sides, flattens each entry once (``_flat``) and
  adds it once per nonzero constant product (``_add_into``).
* **Common denominator.**  ``OperatorMatrix.__matmul__``, the exterior
  derivative and ``formal_adjoint`` scale their operands exactly to integer
  coefficients by the lcm of their denominators (``_integral``), accumulate
  in ``int`` arithmetic and divide by the denominator once per coefficient:
  ``Fraction`` arithmetic costs several times more than ``int`` arithmetic.
  Normal-form coefficients may still be fractions or irrational when the
  structure constants are; the same code handles them.

``formal_adjoint`` implements the L2-formal adjoint determined by
X_i* = -X_i together with product reversal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _expr
from .liealg import StratifiedLieAlgebra
from .scalars import Scalar, _mask_product, _q


class AlgebraMismatch(ValueError):
    pass


class ZeroElement(ValueError):
    """Raised when asking for the homogeneity of the zero operator."""


class Mixed:
    """Marker for inhomogeneous operators; lists the degrees present."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        self.degrees = frozenset(degrees)

    def __eq__(self, other):
        if isinstance(other, Mixed):
            return self.degrees == other.degrees
        return NotImplemented

    def __hash__(self):
        return hash(self.degrees)

    def __repr__(self):
        return f"Mixed{{{', '.join(map(str, sorted(self.degrees)))}}}"


def homogeneity_degrees(elements) -> set:
    """Set of homogeneity degrees over the nonzero elements."""
    degs = set()
    for e in elements:
        if e:
            d = e.homogeneity()
            degs |= d.degrees if isinstance(d, Mixed) else {d}
    return degs


def _add_into(rad, acc: dict, nf: dict, c, m: int):
    """Add (c * basis[m]) * nf into the flat accumulator ``acc`` in place.

    ``nf`` is a flat {(exponent, mask): coeff} map and ``c * basis[m]`` one
    raw scalar term.  Sums that cancel stay in ``acc`` as zeros.
    """
    get = acc.get
    if not m:
        if c == 1:
            for key, v in nf.items():
                old = get(key)
                acc[key] = v if old is None else old + v
        else:
            for key, v in nf.items():
                x = c * v
                old = get(key)
                acc[key] = x if old is None else old + x
        return
    for (exp, mk), v in nf.items():
        x = c * v
        common = mk & m
        if common:
            x *= _mask_product(rad, common)
        key = (exp, mk ^ m)
        old = get(key)
        acc[key] = x if old is None else old + x


def _flat(terms: dict) -> dict:
    """The flat {(exponent, mask): coeff} map of EnvElement terms."""
    return {(exp, m): v for exp, s in terms.items() for m, v in s.terms.items()}


def _scale_into(rad, acc: dict, terms: dict, c: dict):
    """Add c * u into ``acc`` in place; ``terms`` is u's {exponent: Scalar}
    map and ``c`` the raw {mask: coeff} terms of a scalar."""
    nf = _flat(terms)
    for m, v in c.items():
        _add_into(rad, acc, nf, v, m)


def _fold(alg: StratifiedLieAlgebra, acc: dict, word) -> dict:
    """The flat accumulator ``acc`` times X_{w1} ... X_{wk}, one generator
    at a time; sums that cancel stay in it as zeros."""
    rad = alg.field.radicands
    cache = alg._prod_cache
    for g in word:
        e = _unit(alg.n, g - 1)
        out: dict = {}
        for (exp, m), c in acc.items():
            if c:
                prod = cache.get((exp, e))
                if prod is None:
                    prod = _product(alg, exp, e)
                _add_into(rad, out, prod, c, m)
        acc = out
    return acc


def _stored(acc: dict) -> dict:
    """A normal form to cache: canonical coefficients, zeros dropped."""
    return {key: _q(v) for key, v in acc.items() if v}


def _normalize_word(alg: StratifiedLieAlgebra, word: tuple) -> dict:
    """Normal form of X_{w1} ... X_{wk} as a flat {(exponent, mask): coeff}."""
    nf = alg._nf_cache.get(word)
    if nf is None:
        nf = alg._nf_cache[word] = _stored(
            _fold(alg, {((0,) * alg.n, 0): 1}, word))
    return nf


def _product(alg: StratifiedLieAlgebra, i_exp: tuple, j_exp: tuple) -> dict:
    """Normal form of X^i_exp X^j_exp, flat as in ``_normalize_word``."""
    key = (i_exp, j_exp)
    prod = alg._prod_cache.get(key)
    if prod is not None:
        return prod
    last = next((k for k in range(alg.n - 1, -1, -1) if i_exp[k]), None)
    first = next((k for k in range(alg.n) if j_exp[k]), None)
    if last is None or first is None or last <= first:
        prod = {(tuple(a + b for a, b in zip(i_exp, j_exp)), 0): 1}
    elif sum(j_exp) == 1:
        # X^a X_j = (X^rest X_j) X_k - sum_l c_l X^rest X_l, where X_k is
        # the last generator of X^a = X^rest X_k and c the bracket (j, k)
        rest = i_exp[:last] + (i_exp[last] - 1,) + i_exp[last + 1:]
        rad = alg.field.radicands
        acc = _fold(alg, _product(alg, rest, j_exp), (last + 1,))
        for l, c in alg.brackets.get((first + 1, last + 1), {}).items():
            sub = _product(alg, rest, _unit(alg.n, l - 1))
            for m, v in c.terms.items():
                _add_into(rad, acc, sub, -v, m)
        prod = _stored(acc)
    else:
        prod = _stored(_fold(alg, {(i_exp, 0): 1}, _word_of(j_exp)))
    alg._prod_cache[key] = prod
    return prod


def _mul_into(alg: StratifiedLieAlgebra, acc: dict, a: dict, b: dict):
    """Add the product of two EnvElement term maps into ``acc`` in place."""
    cache = alg._prod_cache
    rad = alg.field.radicands
    for ea, sa in a.items():
        for eb, sb in b.items():
            prod = cache.get((ea, eb))
            if prod is None:
                prod = _product(alg, ea, eb)
            for ma, ca in sa.terms.items():
                for mb, cb in sb.terms.items():
                    c = ca * cb
                    common = ma & mb
                    if common:
                        c *= _mask_product(rad, common)
                    _add_into(rad, acc, prod, c, ma ^ mb)


def _from_acc(alg: StratifiedLieAlgebra, acc: dict, d=1) -> "EnvElement":
    """The EnvElement of a flat accumulator, every coefficient divided by d."""
    field = alg.field
    terms: dict = {}
    for (exp, m), v in acc.items():
        if not v:
            continue
        if d != 1:
            v = _q(Fraction(v, d))
        elif type(v) is not int:
            v = _q(v)
        s = terms.get(exp)
        if s is None:
            terms[exp] = Scalar(field, {m: v})
        else:
            s.terms[m] = v      # a Scalar still under construction
    return EnvElement(alg, terms)


def _integral(e: "EnvElement", d: int) -> "EnvElement":
    """``d * e`` with ``int`` coefficients; ``d`` clears every denominator."""
    if d == 1:
        return e
    field = e.algebra.field
    return EnvElement(e.algebra, {
        exp: Scalar(field, {m: c.numerator * (d // c.denominator)
                            for m, c in s.terms.items()})
        for exp, s in e.terms.items()})


def _common_denominator(elements) -> int:
    """The lcm of the coefficient denominators of the given EnvElements."""
    d = 1
    for e in elements:
        for s in e.terms.values():
            for c in s.terms.values():
                if type(c) is not int:
                    d = lcm(d, c.denominator)
    return d


def _unit(n: int, k: int) -> tuple:
    """The exponent vector of the generator X_{k+1}."""
    return (0,) * k + (1,) + (0,) * (n - k - 1)


def _word_of(exp: tuple) -> tuple:
    word = []
    for i, e in enumerate(exp):
        word.extend([i + 1] * e)
    return tuple(word)


class EnvElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: StratifiedLieAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, alg) -> "EnvElement":
        return cls(alg, {})

    @classmethod
    def one(cls, alg) -> "EnvElement":
        return cls(alg, {(0,) * alg.n: alg.field.one()})

    @classmethod
    def generator(cls, alg, i: int) -> "EnvElement":
        exp = [0] * alg.n
        exp[i - 1] = 1
        return cls(alg, {tuple(exp): alg.field.one()})

    @classmethod
    def monomial(cls, alg, exp, coeff=1) -> "EnvElement":
        c = alg.field(coeff)
        if not c:
            return cls(alg, {})
        return cls(alg, {tuple(exp): c})

    @classmethod
    def from_word(cls, alg, word, coeff=1) -> "EnvElement":
        """Normal form of a product of generators given by basis indices."""
        nf = _normalize_word(alg, tuple(word))
        acc: dict = {}
        for m, c in alg.field(coeff).terms.items():
            _add_into(alg.field.radicands, acc, nf, c, m)
        return _from_acc(alg, acc)

    # -- ring structure ---------------------------------------------------

    def _check(self, other: "EnvElement"):
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("operands live over different algebras")

    def __add__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp)
            s = c if s is None else s + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return EnvElement(self.algebra, terms)

    def __neg__(self):
        return EnvElement(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "EnvElement":
        c = self.algebra.field(coeff)
        q = c.terms.get(0) if len(c.terms) == 1 else None
        if q is None:   # zero or irrational
            return EnvElement(self.algebra, {e: c * v for e, v in
                                             self.terms.items()} if c else {})
        if q == 1 or q == -1:
            return self if q == 1 else -self
        # a rational factor scales the raw coefficients; no term vanishes
        return EnvElement(self.algebra, {
            e: Scalar(c.field, {m: _q(v * q) for m, v in s.terms.items()})
            for e, s in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, EnvElement):
            return NotImplemented
        self._check(other)
        acc: dict = {}
        _mul_into(self.algebra, acc, self.terms, other.terms)
        return _from_acc(self.algebra, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, EnvElement):
            other = other.as_scalar()
        return self.scale(self.algebra.field(other).inverse())

    def __eq__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((e, c) for e, c in self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def as_scalar(self) -> Scalar:
        """The coefficient of the unit monomial, if the element is scalar."""
        if not self.terms:
            return self.algebra.field.zero()
        unit = (0,) * self.algebra.n
        if set(self.terms) != {unit}:
            raise ValueError("operator is not a scalar multiple of the unit")
        return self.terms[unit]

    # -- grading ----------------------------------------------------------

    def term_degree(self, exp) -> int:
        w = self.algebra.weights
        return sum(e * w[k] for k, e in enumerate(exp))

    def homogeneity(self):
        """Common homogeneity degree d(I), or Mixed, or ZeroElement."""
        if not self.terms:
            raise ZeroElement("homogeneity of the zero operator is undefined")
        degrees = {self.term_degree(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return Mixed(degrees)

    def formal_adjoint(self) -> "EnvElement":
        """Anti-homomorphism with X_i -> -X_i and product reversal."""
        alg = self.algebra
        d = _common_denominator((self,))
        acc: dict = {}
        for exp, s in _integral(self, d).terms.items():
            word = _word_of(exp)
            nf = _normalize_word(alg, word[::-1])
            odd = len(word) % 2
            for m, c in s.terms.items():
                _add_into(alg.field.radicands, acc, nf, -c if odd else c, m)
        return _from_acc(alg, acc, d)

    # -- text ----------------------------------------------------------

    def _sorted_terms(self):
        # display higher-order monomials first, like the matrix listings
        return sorted(
            self.terms.items(),
            key=lambda item: (-self.term_degree(item[0]),
                              tuple(-e for e in item[0])))

    def render(self) -> str:
        def term(exp, c):
            mono = "*".join(f"X{k + 1}" + (f"^{e}" if e > 1 else "")
                            for k, e in enumerate(exp) if e)
            sign, coeff = _expr.signed(c)
            if mono:
                return sign, mono if coeff == "1" else f"{coeff}*{mono}"
            return sign, coeff
        return _expr.signed_sum(term(exp, c) for exp, c in self._sorted_terms())

    __str__ = render

    def __repr__(self):
        return f"EnvElement({self.render()})"

    @classmethod
    def parse(cls, alg, text: str) -> "EnvElement":
        return _expr.parse(text, _EnvAdapter(alg))


class _EnvAdapter:
    def __init__(self, alg):
        self.alg = alg

    def number(self, q):
        return EnvElement.monomial(self.alg, (0,) * self.alg.n, q)

    def one(self):
        return EnvElement.one(self.alg)

    def sqrt(self, n):
        return EnvElement.monomial(self.alg, (0,) * self.alg.n,
                                   self.alg.field.sqrt(n))

    def var(self, name):
        if name.startswith("X") and name[1:].isdigit():
            i = int(name[1:])
            if 1 <= i <= self.alg.n:
                return EnvElement.generator(self.alg, i)
        raise _expr.ExprError(f"unknown generator {name!r}")
