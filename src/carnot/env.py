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

* **Packed keys.**  Inside the kernel the term ``c * X^a * basis[mask]`` is
  the item ``key: c`` of a flat dict, with ``key = code << mask_bits |
  mask``: ``code = sum a_i << 8*i`` holds one byte per exponent and
  ``mask_bits`` is the field's ``max_radicands``.  Multiplying two ordered
  monomials adds their codes, the first and last generators of a code are
  its lowest and highest set bits, and the mask of a product of tower
  basis elements is ``key ^ m``.  An exponent above 255 raises
  ``ResourceLimit`` where it is packed (``_pack``) or grows (the
  concatenation branches of ``_fold`` and ``_product``), before it can
  carry into the next byte.  EnvElement terms keep their exponent tuples:
  only ``_flat`` packs them and only ``_from_acc`` unpacks, and no other
  module builds or reads a key.  ``_from_acc`` takes each tuple from
  ``alg._exponents`` ({code: exponent tuple}), so the terms of every
  EnvElement of a group share one tuple per monomial.
* **Collection by one generator.**  ``_fold(alg, acc, word)`` multiplies a
  flat map by the generators of a word one at a time.  A term whose last
  generator comes at or before X_j times X_j is a concatenation; otherwise
  it is the cached ``_product`` ``X^a X_j``: with ``X_k`` the last
  generator of ``X^a = X^rest X_k``, that is ``(X^rest X_j) X_k`` minus the
  bracket ``[X_j, X_k]`` multiplied in after ``X^rest``, each part again a
  product of a normal monomial with one generator.
* **Products of operators.**  ``EnvElement.__mul__`` and the left products
  ``X_m * u`` of the exterior derivative (``_mul_into``) look each pair of
  monomials up in ``alg._prod_cache``: the derivative multiplies every lift
  by the same few generators, so these pairs repeat across a whole
  complex.  ``OperatorMatrix.__matmul__`` (``_matmul``) forms no pair
  products: it flattens each left entry ``A_ik`` once and folds it through
  the monomials of row k of the right factor as a prefix trie (the words
  in lexicographic order, walked depth first with a stack of partial
  products), so ``A_ik * X^w`` is computed once for all the monomials that
  share the prefix ``w`` and added into every column holding ``X^w``.
* **Cache layout.**  Normal forms are flat maps ``{key: coeff}`` with
  ``coeff`` the plain ``int`` or ``Fraction`` coefficient, in the canonical
  form of ``Scalar.terms``.  ``alg._prod_cache`` holds the products
  ``X^a X^b`` computed, keyed by ``code_a << 8n | code_b``: the
  non-ordered products with one generator that the collection reuses and
  the pairs of ``_mul_into``.  ``alg._nf_cache`` holds only the words
  asked for by ``from_word`` and ``formal_adjoint``, keyed by the word.
  Multiplying a term ``c1 * basis[m1]`` by ``c2 * basis[m2]`` adds
  ``c1 * c2 * (product of the radicands in m1 & m2)`` at mask ``m1 ^ m2``
  directly, so filling the caches builds no scalar.
* **Fused accumulation.**  Products and sums add into one flat accumulator
  dict in place (``_add_into``, ``_mul_into``, ``_scale_into``), and
  ``_from_acc`` turns the accumulator into an EnvElement once, dropping the
  zeros.  A sum of products therefore costs one pass over its terms instead
  of one copy of the partial sum per term.  ``OperatorMatrix.conjugate``,
  the product with constant matrices on both sides, flattens each entry
  once and adds it once per nonzero constant product.
* **Common denominator.**  ``_matmul``, the exterior derivative, the
  pairings with multivectors and ``formal_adjoint`` scale their operands
  exactly to integer coefficients by the lcm of their denominators
  (``_common_denominator``, ``_flat(..., d)``), accumulate in ``int``
  arithmetic and divide by the denominator once per coefficient:
  ``Fraction`` arithmetic costs several times more than ``int``
  arithmetic.  Normal-form coefficients may still be fractions or
  irrational when the structure constants are; the same code handles them.

``formal_adjoint`` implements the L2-formal adjoint determined by
X_i* = -X_i together with product reversal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _expr
from .liealg import ResourceLimit, StratifiedLieAlgebra
from .scalars import Scalar, _mask_product, _q

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


def _add_into(rad, acc: dict, nf: dict, c, m: int):
    """Add (c * basis[m]) * nf into the flat accumulator ``acc`` in place.

    ``nf`` is a flat {key: coeff} map and ``c * basis[m]`` one raw scalar
    term.  Sums that cancel stay in ``acc`` as zeros.
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
    for key, v in nf.items():
        x = c * v
        common = key & m
        if common:
            x *= _mask_product(rad, common)
        key ^= m
        old = get(key)
        acc[key] = x if old is None else old + x


def _integral(coeffs: dict, d: int) -> dict:
    """The raw {mask: coeff} terms of a scalar times ``d``, as ints when
    ``d`` clears every denominator."""
    if d == 1:
        return coeffs
    return {m: v.numerator * (d // v.denominator) for m, v in coeffs.items()}


def _flat(alg: StratifiedLieAlgebra, terms: dict, d=1) -> dict:
    """The flat {key: coeff} map of EnvElement terms, every coefficient
    times ``d`` as in ``_integral``."""
    mb = alg.field.max_radicands
    out = {}
    for exp, s in terms.items():
        code = _pack(exp) << mb
        for m, v in _integral(s.terms, d).items():
            out[code | m] = v
    return out


def _scale_into(alg: StratifiedLieAlgebra, acc: dict, terms: dict, c: dict):
    """Add c * u into ``acc`` in place; ``terms`` is u's {exponent: Scalar}
    map and ``c`` the raw {mask: coeff} terms of a scalar."""
    rad = alg.field.radicands
    nf = _flat(alg, terms)
    for m, v in c.items():
        _add_into(rad, acc, nf, v, m)


def _fold(alg: StratifiedLieAlgebra, acc: dict, word) -> dict:
    """The flat map ``acc`` times X_{w1} ... X_{wk}, one generator at a
    time, as a new dict; sums that cancel stay in it as zeros."""
    mb = alg.field.max_radicands
    low = (1 << mb) - 1
    width = 8 * alg.n
    rad = alg.field.radicands
    cache = alg._prod_cache
    for g in word:
        unit = 1 << 8 * (g - 1)
        step = unit << mb
        above = mb + 8 * g     # the key bits of the generators after X_g
        out: dict = {}
        get = out.get
        for key, c in acc.items():
            if not c:
                continue
            if not key >> above:
                # X^a X_g is already ordered: raise the exponent of X_g
                key += step
                if key >> above:
                    raise ResourceLimit(_MAX_EXPONENT + 1, _MAX_EXPONENT)
                old = get(key)
                out[key] = c if old is None else old + c
                continue
            code = key >> mb
            prod = cache.get(code << width | unit)
            if prod is None:
                prod = _product(alg, code, unit)
            _add_into(rad, out, prod, c, key & low)
        acc = out
    return acc


def _stored(acc: dict) -> dict:
    """A normal form to cache: canonical coefficients, zeros dropped."""
    return {key: _q(v) for key, v in acc.items() if v}


def _normalize_word(alg: StratifiedLieAlgebra, word: tuple) -> dict:
    """Normal form of X_{w1} ... X_{wk} as a flat {key: coeff} map."""
    nf = alg._nf_cache.get(word)
    if nf is None:
        nf = alg._nf_cache[word] = _stored(_fold(alg, {0: 1}, word))
    return nf


def _product(alg: StratifiedLieAlgebra, a: int, b: int) -> dict:
    """Normal form of X^a X^b for two codes, flat as in ``_normalize_word``."""
    key = a << 8 * alg.n | b
    prod = alg._prod_cache.get(key)
    if prod is not None:
        return prod
    mb = alg.field.max_radicands
    last = (a.bit_length() - 1) >> 3            # 0-based; -1 when a = 0
    first = ((b & -b).bit_length() - 1) >> 3
    if not b or last <= first:
        ab = a + b
        if last == first and ab >> 8 * first + 8 != b >> 8 * first + 8:
            raise ResourceLimit(((a >> 8 * first) & 255)
                                + ((b >> 8 * first) & 255), _MAX_EXPONENT)
        prod = {ab << mb: 1}
    elif b == 1 << 8 * first:
        # X^a X_j = (X^rest X_j) X_k - sum_l c_l X^rest X_l, where X_k is
        # the last generator of X^a = X^rest X_k and c the bracket (j, k)
        rest = a - (1 << 8 * last)
        rad = alg.field.radicands
        acc = _fold(alg, _product(alg, rest, b), (last + 1,))
        for l, c in alg.brackets.get((first + 1, last + 1), {}).items():
            sub = _product(alg, rest, 1 << 8 * (l - 1))
            for m, v in c.terms.items():
                _add_into(rad, acc, sub, -v, m)
        prod = _stored(acc)
    else:
        prod = _stored(_fold(alg, {a << mb: 1},
                             _word_of(_unpack(b, alg.n))))
    alg._prod_cache[key] = prod
    return prod


def _mul_into(alg: StratifiedLieAlgebra, acc: dict, a: dict, b: dict):
    """Add the product of two flat maps into ``acc`` in place, through the
    pair cache."""
    mb = alg.field.max_radicands
    low = (1 << mb) - 1
    width = 8 * alg.n
    cache = alg._prod_cache
    rad = alg.field.radicands
    for ka, ca in a.items():
        code = ka >> mb
        left = code << width
        ma = ka & low
        for kb, cb in b.items():
            prod = cache.get(left | kb >> mb)
            if prod is None:
                prod = _product(alg, code, kb >> mb)
            c = ca * cb
            m = kb & low
            common = ma & m
            if common:
                c *= _mask_product(rad, common)
            _add_into(rad, acc, prod, c, ma ^ m)


def _matmul(alg: StratifiedLieAlgebra, a: list, b: list, cols: int) -> list:
    """The entries of the matrix product of EnvElement rows ``a`` and ``b``
    (``cols`` columns), by the prefix-trie fold of the module docstring."""
    da = _common_denominator(s for row in a for e in row
                             for s in e.terms.values())
    db = _common_denominator(s for row in b for e in row
                             for s in e.terms.values())
    rad = alg.field.radicands
    tries = []      # per row k of b: [(word, [(column, raw coeff)])], sorted
    for row in b:
        users: dict = {}
        for j, e in enumerate(row):
            for exp, s in e.terms.items():
                users.setdefault(exp, []).append((j, _integral(s.terms, db)))
        tries.append(sorted((_word_of(exp), js) for exp, js in users.items()))
    accs = [[{} for _ in range(cols)] for _ in a]
    for a_row, acc_row in zip(a, accs):
        for x, trie in zip(a_row, tries):
            if not x or not trie:
                continue
            # partials[p] = A_ik * X^(first p generators of the last word)
            partials = [_flat(alg, x.terms, da)]
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
                for j, c in js:
                    for m, v in c.items():
                        _add_into(rad, acc_row[j], partials[-1], v, m)
    return [[_from_acc(alg, acc, da * db) for acc in row] for row in accs]


def _from_acc(alg: StratifiedLieAlgebra, acc: dict, d=1) -> "EnvElement":
    """The EnvElement of a flat accumulator, every coefficient divided by d."""
    field = alg.field
    mb = field.max_radicands
    low = (1 << mb) - 1
    exps = alg._exponents
    terms: dict = {}
    for key, v in acc.items():
        if not v:
            continue
        if d != 1:
            v = _q(Fraction(v, d))
        elif type(v) is not int:
            v = _q(v)
        code = key >> mb
        exp = exps.get(code)
        if exp is None:
            exp = exps[code] = _unpack(code, alg.n)
        s = terms.get(exp)
        if s is None:
            terms[exp] = Scalar(field, {key & low: v})
        else:
            s.terms[key & low] = v      # a Scalar still under construction
    return EnvElement(alg, terms)


def _common_denominator(scalars) -> int:
    """The lcm of the coefficient denominators of the given Scalars."""
    d = 1
    for s in scalars:
        for c in s.terms.values():
            if type(c) is not int:
                d = lcm(d, c.denominator)
    return d


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
        alg = self.algebra
        acc: dict = {}
        _mul_into(alg, acc, _flat(alg, self.terms), _flat(alg, other.terms))
        return _from_acc(alg, acc)

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
        rad = alg.field.radicands
        d = _common_denominator(self.terms.values())
        acc: dict = {}
        for exp, s in self.terms.items():
            word = _word_of(exp)
            nf = _normalize_word(alg, word[::-1])
            sign = -d if len(word) % 2 else d
            for m, c in s.terms.items():
                _add_into(rad, acc, nf, c.numerator * (sign // c.denominator),
                          m)
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
