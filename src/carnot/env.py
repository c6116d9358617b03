"""Left-invariant differential operators as PBW-normal-ordered polynomials.

An :class:`EnvElement` is a finite sum of monomials X_1^{i_1} ... X_n^{i_n}
with exact scalar coefficients.  Products are renormalized with the
rewriting rule

    X_j X_i  ->  X_i X_j + [X_j, X_i]        (j > i)

which terminates because brackets strictly raise the grading and the algebra
is nilpotent.

An operator has one representation, and every operation computes on its
integer numerators: building and copying objects, not the algebra, is what
costs time in products of order up to 12.

* **Numerators over one denominator.**  An EnvElement stores one flat dict
  and one positive int: the term ``(p / d) * X^a`` is the item ``code: p``
  of the dict over the denominator ``d``, with ``code = sum a_i << 8*i``
  (one byte per exponent).  A numerator is a nonzero ``int``, or a Scalar
  with ``int`` terms when the coefficient is irrational
  (:mod:`carnot.scalars`).  ``d`` is coprime with every integer the
  numerators hold, so the form is canonical and ``==`` and ``hash`` are
  value equality.  ``+``, ``-``, ``scale``, the products and
  ``formal_adjoint`` run in ``int`` arithmetic and reduce each result by
  one ``gcd``; ``scale`` by one irrational term ``c*sqrt(r)``, as the
  printed view does, builds the Scalar numerators directly.  Multiplying two ordered
  monomials adds their codes, and the first and last generators of a code
  are its lowest and highest set bits.  An exponent above 255 raises
  ``ResourceLimit`` where it is packed (``_pack``) or grows (the
  concatenation branches of ``_fold`` and ``_product``), before it can
  carry into the next byte.
* **The boundary.**  Values (``int``, ``Fraction``, Scalar) appear only in
  the read-only ``EnvElement.terms`` view, ``{exponent tuple: value}``,
  built on each call and never stored, and in ``render``; ``as_scalar``,
  the coordinate realization and the linear systems of the estimates read
  the view.  ``homogeneity`` and ``render`` read the weight of each code
  from the memo ``alg._weight_cache``.  ``render`` sorts the codes once, by
  weight and then exponent bytes, both descending, and formats each
  numerator over the denominator directly.
* **Collection by one generator.**  ``_fold(alg, acc, word)`` multiplies a
  flat map by the generators of a word one at a time.  A term whose last
  generator comes at or before X_j times X_j is a concatenation; otherwise
  it is the cached ``_product`` ``X^a X_j``: with ``X_k`` the last
  generator of ``X^a = X^rest X_k``, that is ``(X^rest X_j) X_k`` minus the
  bracket ``[X_j, X_k]`` multiplied in after ``X^rest``, each part again a
  product of a normal monomial with one generator.  The fold adds each
  term's product into its result inline, with no call per term.
* **Products of operators.**  ``EnvElement.__mul__`` and the left products
  ``X_m * u`` of the exterior derivative (``mul_into``) look each pair of
  monomials up in ``alg._prod_cache``: the derivative multiplies every lift
  by the same few generators, so these pairs repeat across a whole
  complex.  ``matrix_product``, behind ``OperatorMatrix.__matmul__``, forms
  no pair products: it brings each factor's numerators over the lcm of its
  denominators, folds each left entry ``A_ik`` through the monomials of
  row k of the right factor as a prefix trie (the words in lexicographic
  order, walked depth first with a stack of partial products), so ``A_ik *
  X^w`` is computed once for all the monomials that share the prefix ``w``
  and added into every column holding ``X^w``.
* **Cache layout.**  Normal forms are packed maps of values.
  ``alg._prod_cache`` holds the products ``X^a X^b`` computed, keyed by
  ``code_a << 8n | code_b``: the one-generator products the collection
  reuses and the pairs of ``mul_into``.  ``alg._nf_cache`` holds only the
  words asked for by ``from_word``.  ``alg._adj_cache`` holds, keyed by
  code, the formal adjoint of each monomial asked for and of the suffixes
  its rule strips: ``(X_f X^rest)* = -(X^rest)* X_f``, with ``X_f`` the
  first generator, is one fold step per new code.  On a group with integer
  structure constants every cached value is an ``int``; fractional or
  irrational brackets reach the same maps as Fractions or Scalars, run
  through the same code and are normalized where a result is formed.
* **Fused accumulation.**  ``+`` and the exterior, Rumin and estimate
  builders sum operators in accumulators (``Accumulator``), which they
  hold but never read: ``add_into`` adds ``c * u`` for an ``int``,
  ``Fraction`` or Scalar ``c``, ``mul_into`` adds ``a * b``, and
  ``collect`` turns the sum into an EnvElement once, dropping zeros: one
  pass over the terms, not one copy of the partial sum per term.  An
  accumulator keeps numerators over the lcm of the denominators of the
  terms added, so no builder computes a denominator.

``formal_adjoint`` implements the L2-formal adjoint determined by
X_i* = -X_i together with product reversal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import _expr
from .liealg import ResourceLimit, StratifiedLieAlgebra
from .linalg import canonical, reciprocal
from .scalars import Scalar, exact, sqrt

# the largest exponent a packed code holds: one byte per generator
_MAX_EXPONENT = 255


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


def _pack(exp) -> int:
    """The code sum a_i << 8*i of an exponent vector."""
    try:
        return int.from_bytes(bytes(exp), "little")
    except ValueError:
        raise ResourceLimit(max(exp), _MAX_EXPONENT) from None


def _unpack(code: int, n: int) -> tuple:
    """The exponent vector of a code over n generators."""
    return tuple(code.to_bytes(n, "little"))


def _weights(alg: StratifiedLieAlgebra, codes) -> list:
    """The weighted degree of each code, read from ``alg._weight_cache``."""
    memo = alg._weight_cache
    try:
        return [memo[code] for code in codes]
    except KeyError:
        for code in codes:
            if code not in memo:
                memo[code] = sum(map(mul, code.to_bytes(alg.n, "little"),
                                     alg.weights))
        return [memo[code] for code in codes]


def word_of(exp: tuple) -> tuple:
    """The generator indices of the ordered monomial with exponents exp."""
    return tuple(i + 1 for i, e in enumerate(exp) for _ in range(e))


# -- numerators ------------------------------------------------------------

def _split(c) -> tuple:
    """(p, q) with c = p / q for a nonzero value c, q > 0 the least integer
    that makes p integral: an int, or a Scalar with int terms."""
    if type(c) is int:
        return c, 1
    if type(c) is Fraction:
        return c.numerator, c.denominator
    q = lcm(*(v.denominator for v in c.terms.values()))
    if q == 1:
        return c, 1
    return Scalar({m: v.numerator * (q // v.denominator)
                   for m, v in c.terms.items()}), q


def _element(alg: StratifiedLieAlgebra, packed: dict,
             den: int = 1) -> "EnvElement":
    """The canonical EnvElement of the nonzero values of ``packed`` over
    ``den``: one gcd when they are ints; a Fraction or a Scalar (of the
    view, or of a group whose normal forms are not integral) has its
    denominators cleared first."""
    try:
        g = gcd(den, *packed.values())
    except TypeError:
        split = [(key, *_split(v)) for key, v in packed.items()]
        q = lcm(*(s for _, _, s in split))
        packed = {key: p if s == q else p * (q // s) for key, p, s in split}
        den *= q
        g = gcd(den, *(c for v in packed.values() for c in (
            v.terms.values() if type(v) is Scalar else (v,))))
    if g != 1:
        packed = {key: v // g if type(v) is int else Scalar(
            {m: c // g for m, c in v.terms.items()})
            for key, v in packed.items()}
        den //= g
    return EnvElement(alg, packed, den)


# -- the kernel: packed maps of values --------------------------------------

def _add_into(acc: dict, nf: dict, c):
    """Add c * nf into the flat map ``acc`` in place.

    ``nf`` is a packed map and ``c`` a nonzero value.  Sums that cancel
    stay in ``acc`` as zeros.
    """
    get = acc.get
    if c == 1:
        for key, v in nf.items():
            old = get(key)
            acc[key] = v if old is None else old + v
    else:
        for key, v in nf.items():
            x = c * v
            old = get(key)
            acc[key] = x if old is None else old + x


def _fold(alg: StratifiedLieAlgebra, acc: dict, word) -> dict:
    """The flat map ``acc`` times X_{w1} ... X_{wk}, one generator at a
    time, as a new dict; sums that cancel stay in it as zeros."""
    width = 8 * alg.n
    cache = alg._prod_cache
    for g in word:
        unit = 1 << 8 * (g - 1)
        above = 8 * g           # the code bits of the generators after X_g
        out: dict = {}
        get = out.get
        for key, c in acc.items():
            if not c:
                continue
            if not key >> above:
                # X^a X_g is already ordered: raise the exponent of X_g
                key += unit
                if key >> above:
                    raise ResourceLimit(_MAX_EXPONENT + 1, _MAX_EXPONENT)
                old = get(key)
                out[key] = c if old is None else old + c
                continue
            prod = cache.get(key << width | unit)
            if prod is None:
                prod = _product(alg, key, unit)
            # c * prod, added inline as in _add_into
            for k, v in prod.items():
                x = c * v
                old = get(k)
                out[k] = x if old is None else old + x
        acc = out
    return acc


def _stored(acc: dict) -> dict:
    """A packed map to cache: its values in canonical form, zeros dropped."""
    return {key: canonical(v) for key, v in acc.items() if v}


def _normalize_word(alg: StratifiedLieAlgebra, word: tuple) -> dict:
    """Normal form of X_{w1} ... X_{wk} as a packed map."""
    nf = alg._nf_cache.get(word)
    if nf is None:
        nf = alg._nf_cache[word] = _stored(_fold(alg, {0: 1}, word))
    return nf


def _product(alg: StratifiedLieAlgebra, a: int, b: int) -> dict:
    """Normal form of X^a X^b for two codes, packed as in ``_normalize_word``."""
    key = a << 8 * alg.n | b
    prod = alg._prod_cache.get(key)
    if prod is not None:
        return prod
    last = (a.bit_length() - 1) >> 3            # 0-based; -1 when a = 0
    first = ((b & -b).bit_length() - 1) >> 3
    if not b or last <= first:
        ab = a + b
        if last == first and ab >> 8 * first + 8 != b >> 8 * first + 8:
            raise ResourceLimit(((a >> 8 * first) & 255)
                                + ((b >> 8 * first) & 255), _MAX_EXPONENT)
        prod = {ab: 1}
    elif b == 1 << 8 * first:
        # X^a X_j = (X^rest X_j) X_k - sum_l c_l X^rest X_l, where X_k is
        # the last generator of X^a = X^rest X_k and c the bracket (j, k)
        rest = a - (1 << 8 * last)
        acc = _fold(alg, _product(alg, rest, b), (last + 1,))
        for l, c in alg.brackets.get((first + 1, last + 1), {}).items():
            _add_into(acc, _product(alg, rest, 1 << 8 * (l - 1)), -c)
        prod = _stored(acc)
    else:
        prod = _stored(_fold(alg, {a: 1}, word_of(_unpack(b, alg.n))))
    alg._prod_cache[key] = prod
    return prod


def _adjoint(alg: StratifiedLieAlgebra, code: int) -> dict:
    """The packed formal adjoint of the monomial X^code, memoized per code
    in ``alg._adj_cache`` by (X_f X^rest)* = -(X^rest)* X_f, X_f the first
    generator of the code: one fold step per new code."""
    cache = alg._adj_cache
    new = []                    # the codes to add, each the next one's rest
    while code and code not in cache:
        new.append(code)
        code -= 1 << 8 * (((code & -code).bit_length() - 1) >> 3)
    adj = cache[code] if code else {0: 1}
    for code in reversed(new):
        first = (((code & -code).bit_length() - 1) >> 3) + 1
        adj = cache[code] = {key: -canonical(v) for key, v
                             in _fold(alg, adj, (first,)).items() if v}
    return adj


# -- accumulators: the interface of the builders ----------------------------

class Accumulator:
    """A sum of operators being built: numerators over one denominator,
    the lcm of the denominators of the terms added so far."""

    __slots__ = ("num", "den")

    def __init__(self):
        self.num: dict = {}
        self.den = 1

    def _grow(self, t: int):
        """Make the denominator a multiple of ``t``: a term over ``t`` is
        then added times ``den // t``."""
        f = lcm(self.den, t) // self.den
        self.num = {key: v * f for key, v in self.num.items()}
        self.den *= f


def add_into(acc: Accumulator, u: "EnvElement", c=1):
    """Add c * u into ``acc`` in place; ``c`` is an int, a Fraction or a
    Scalar.  Sums that cancel stay as zeros until ``collect``."""
    if type(c) is int:
        if not c:
            return
        t = u._den
    else:
        c, q = _split(c)
        t = q * u._den
    if acc.den % t:
        acc._grow(t)
    _add_into(acc.num, u._packed, c * (acc.den // t))


def mul_into(acc: Accumulator, a: "EnvElement", b: "EnvElement"):
    """Add the product a * b into ``acc`` in place, every pair of monomials
    through the pair cache."""
    alg = a.algebra
    width = 8 * alg.n
    cache = alg._prod_cache
    t = a._den * b._den
    if acc.den % t:
        acc._grow(t)
    f, num = acc.den // t, acc.num
    for ka, ca in a._packed.items():
        left = ka << width
        if f != 1:
            ca *= f
        for kb, cb in b._packed.items():
            prod = cache.get(left | kb)
            if prod is None:
                prod = _product(alg, ka, kb)
            _add_into(num, prod, ca * cb)


def collect(alg: StratifiedLieAlgebra, acc: Accumulator) -> "EnvElement":
    """The EnvElement of an accumulator."""
    if not acc.num:
        return EnvElement(alg, {})
    return _element(alg, {key: v for key, v in acc.num.items() if v}, acc.den)


def matrix_product(alg: StratifiedLieAlgebra, a: list, b: list,
                   cols: int) -> list:
    """The entries of the matrix product of EnvElement rows ``a`` and ``b``
    (``cols`` columns), by the prefix-trie fold of the module docstring."""
    da = lcm(*(e._den for row in a for e in row))
    db = lcm(*(e._den for row in b for e in row))
    tries = []      # per row k of b: [(word, [(column, numerator)])], sorted
    for row in b:
        users: dict = {}
        for j, e in enumerate(row):
            f = db // e._den
            for code, v in e._packed.items():
                users.setdefault(code, []).append((j, v * f))
        tries.append(sorted((word_of(_unpack(code, alg.n)), js)
                            for code, js in users.items()))
    accs = [[{} for _ in range(cols)] for _ in a]
    for a_row, acc_row in zip(a, accs):
        for x, trie in zip(a_row, tries):
            if not x or not trie:
                continue
            # partials[p] = A_ik * X^(first p generators of the last word),
            # its numerators over A_ik's denominator: f brings them over da
            f = da // x._den
            partials = [x._packed]
            prev = ()
            for word, js in trie:
                p = 0
                for g, h in zip(prev, word):
                    if g != h:
                        break
                    p += 1
                del partials[p + 1:]
                for g in word[p:]:
                    partials.append(_fold(alg, partials[-1], (g,)))
                prev = word
                for j, v in js:
                    _add_into(acc_row[j], partials[-1],
                              v if f == 1 else v * f)
    den = da * db
    return [[_element(alg, {key: v for key, v in acc.items() if v}, den)
             for acc in row] for row in accs]


class EnvElement:
    """An operator: integer numerators over one denominator, in canonical
    form; the map is never mutated."""

    __slots__ = ("algebra", "_packed", "_den")

    def __init__(self, algebra: StratifiedLieAlgebra, packed: dict,
                 den: int = 1):
        self.algebra = algebra
        self._packed = packed
        self._den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, alg) -> "EnvElement":
        return cls(alg, {})

    @classmethod
    def one(cls, alg) -> "EnvElement":
        return cls(alg, {0: 1})

    @classmethod
    def generator(cls, alg, i: int) -> "EnvElement":
        return cls(alg, {1 << 8 * (i - 1): 1})

    @classmethod
    def monomial(cls, alg, exp, coeff=1) -> "EnvElement":
        c = exact(coeff)
        if not c:
            return cls(alg, {})
        p, q = _split(c)
        return cls(alg, {_pack(exp): p}, q)

    @classmethod
    def from_word(cls, alg, word, coeff=1) -> "EnvElement":
        """Normal form of a product of generators given by basis indices."""
        return _element(alg, _normalize_word(alg, tuple(word))).scale(coeff)

    # -- ring structure ---------------------------------------------------

    def _check(self, other: "EnvElement"):
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("operands live over different algebras")

    def __add__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        self._check(other)
        acc = Accumulator()
        add_into(acc, self)
        add_into(acc, other)
        return collect(self.algebra, acc)

    def __neg__(self):
        return EnvElement(self.algebra,
                          {k: -v for k, v in self._packed.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "EnvElement":
        alg = self.algebra
        c = exact(coeff)
        packed = self._packed
        if not packed or c == 1:
            return self
        if not c:
            return EnvElement(alg, {})
        if type(c) is Scalar and len(c.terms) == 1:
            # one term (a/b)*sqrt(r): the numerators a*v*sqrt(r) over
            # b times the denominator, built directly while they are ints
            (m, a), = c.terms.items()
            den = self._den * a.denominator
            nums = {key: v * a.numerator for key, v in packed.items()}
            try:
                g = gcd(den, *nums.values())
            except TypeError:
                pass
            else:
                return EnvElement(alg, {key: Scalar({m: v // g})
                                        for key, v in nums.items()}, den // g)
        p, q = _split(c)
        den = self._den * q
        packed = {key: v * p for key, v in packed.items()}
        if den == 1 and type(p) is int:
            return EnvElement(alg, packed)
        # the scalars form a field: a nonzero factor makes no term vanish
        return _element(alg, packed, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, EnvElement):
            return NotImplemented
        self._check(other)
        acc = Accumulator()
        mul_into(acc, self, other)
        return collect(self.algebra, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, EnvElement):
            other = other.as_scalar()
        return self.scale(reciprocal(other))

    def __eq__(self, other):
        if not isinstance(other, EnvElement):
            return NotImplemented
        return (self.algebra is other.algebra and self._den == other._den
                and self._packed == other._packed)

    def __hash__(self):
        return hash((self._den, frozenset(self._packed.items())))

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    @property
    def terms(self) -> dict:
        """{exponent tuple: value}, decoded from the numerators on each
        call and never stored: the view for readers outside the kernel."""
        n, den = self.algebra.n, self._den
        if den == 1:
            return {_unpack(code, n): v for code, v in self._packed.items()}
        return {_unpack(code, n): canonical(Fraction(v, den)) if type(v) is int
                else Scalar({m: canonical(Fraction(c, den))
                             for m, c in v.terms.items()})
                for code, v in self._packed.items()}

    def as_scalar(self):
        """The coefficient of the unit monomial, if the element is scalar."""
        terms = self.terms
        unit = (0,) * self.algebra.n
        if set(terms) - {unit}:
            raise ValueError("operator is not a scalar multiple of the unit")
        return terms.get(unit, 0)

    # -- grading ----------------------------------------------------------

    def homogeneity(self):
        """Common homogeneity degree d(I), or Mixed, or ZeroElement."""
        if not self._packed:
            raise ZeroElement("homogeneity of the zero operator is undefined")
        degrees = set(_weights(self.algebra, self._packed))
        if len(degrees) == 1:
            return degrees.pop()
        return Mixed(degrees)

    def formal_adjoint(self) -> "EnvElement":
        """Anti-homomorphism with X_i -> -X_i and product reversal."""
        alg = self.algebra
        acc: dict = {}
        for code, c in self._packed.items():
            _add_into(acc, _adjoint(alg, code), c)
        return _element(alg, {key: v for key, v in acc.items() if v},
                        self._den)

    # -- text ----------------------------------------------------------

    def render(self) -> str:
        """The text of the operator, higher-order monomials first, like the
        matrix listings; a coefficient of several terms is bracketed."""
        alg = self.algebra
        packed, den = self._packed, self._den
        if not packed:
            return "0"
        codes = list(packed)
        # (weight, exponent bytes, code), descending; no two codes tie
        order = sorted(zip(_weights(alg, codes),
                           [code.to_bytes(alg.n, "little") for code in codes],
                           codes), reverse=True)
        terms = []
        for _, exp, code in order:
            sign, coeff = _expr.signed(packed[code], den)
            mono = "*".join([f"X{k}^{e}" if e > 1 else f"X{k}"
                             for k, e in enumerate(exp, 1) if e])
            terms.append((sign, coeff if not mono else mono if coeff == "1"
                          else f"{coeff}*{mono}"))
        return _expr.signed_sum(terms)

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

    def sqrt(self, n):
        return self.number(sqrt(n))

    def var(self, name):
        if name.startswith("X") and name[1:].isdigit():
            i = int(name[1:])
            if 1 <= i <= self.alg.n:
                return EnvElement.generator(self.alg, i)
        raise _expr.ExprError(f"unknown generator {name!r}")
