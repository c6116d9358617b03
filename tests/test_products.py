"""Property tests of the PBW product kernel and the builders on top of it.

The products of ``EnvElement`` and ``OperatorMatrix`` accumulate integer
numerators over one denominator; these tests check them against
references that do not share that kernel: the coordinate realization of the
Cartan group, entrywise sums of single products, associativity and the
anti-homomorphism law of the formal adjoint on a group whose brackets are
fractional and irrational.  The one-generator collection behind every normal
form is checked against the descent rewriting, written here without a cache
and with Scalar arithmetic.  The exterior builders (d, d0^{-1}, Pi_E, Pi_E0,
the pairings and the row expansion) and products with a constant factor
sum in accumulators as well; they are checked against references
written here with plain EnvElement ``*``, ``.scale`` and ``+``.  The
numerators an EnvElement stores are checked, operation by operation, against
the same operations on ``{exponent: Scalar}`` dicts.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot._expr import signed, signed_sum
from carnot.coords import Polynomial, coordinate_apply
from carnot.env import (Accumulator, EnvElement, Mixed, _normalize_word,
                        _pack, _product, add_into, collect, word_of)
from carnot.exterior import (OperatorForm, covectors, d0_covector, d_terms,
                             merge_wedge, tuple_weight)
from carnot.liealg import (ResourceLimit, StratifiedLieAlgebra, cartan_group,
                           free_nilpotent)
from carnot.linalg import reciprocal
from carnot.rumin import OperatorMatrix, RuminComplex
from carnot.scalars import Scalar, exact, sqrt

PROPERTY = settings(max_examples=40, derandomize=True, database=None,
                    deadline=None)

# Cartan, whose coordinate realization is the oracle for products
CARTAN = cartan_group()
# a step-3 group with fractional and irrational structure constants; the
# Jacobi identity holds for any constants on this bracket pattern
SKEW_SPEC = {"layers": [2, 1, 2],
             "brackets": {"1,2": {"3": "1/2*sqrt(2)"}, "1,3": {"4": "2/3"},
                          "2,3": {"5": "sqrt(2)"}}}
SKEW = StratifiedLieAlgebra.from_json(SKEW_SPEC)
H3_BRACKETS = {(i, i + 3): {7: 1} for i in range(1, 4)}
POLY = "x1^3*x2^2*x3 + x1*x4*x5 + 2*x2^3*x5 - x3^2*x4 + x2*x3*x5^2"

rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))


def exponents(n):
    """Monomials of total degree at most 3, as the multiset of their
    generators."""
    return st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda gens: tuple(gens.count(i) for i in range(n)))


def elements(alg, max_terms=3):
    """Random elements with coefficients q + r*sqrt(2), q and r rational."""
    def build(terms):
        out = EnvElement.zero(alg)
        for exp, q, r in terms:
            c = exact(q) + exact(r) * sqrt(2)
            out = out + EnvElement.monomial(alg, exp, c)
        return out
    return st.lists(st.tuples(exponents(alg.n), rationals, rationals),
                    max_size=max_terms).map(build)


def assert_numerators(alg, e):
    """The canonical form of an element: int codes; a positive int
    denominator coprime with every integer its numerators hold; nonzero int
    numerators, or irrational Scalars with int terms."""
    assert type(e._den) is int and e._den > 0
    ints = []
    for key, c in e._packed.items():
        assert type(key) is int and key >= 0
        if type(c) is Scalar:
            assert c.terms.keys() - {1}
            assert all(type(v) is int and v for v in c.terms.values())
            ints += c.terms.values()
        else:
            assert type(c) is int and c != 0, c
            ints.append(c)
    assert gcd(e._den, *ints) == 1


def assert_canonical(alg, *elems):
    """Exact values in their one form only in the caches, under int codes:
    nonzero ints, non-integral Fractions, or irrational Scalars whose
    terms are such rationals; and every element
    in canonical form (``assert_numerators``)."""
    def rational(c):
        assert type(c) in (int, Fraction), type(c)
        assert c != 0
        assert type(c) is int or c.denominator != 1

    def check(c):
        if type(c) is Scalar:
            assert c.terms.keys() - {1}
            for v in c.terms.values():
                rational(v)
        else:
            rational(c)
    maps = [*alg._nf_cache.values(), *alg._prod_cache.values(),
            *alg._adj_cache.values()]
    for nf in maps:
        for key, c in nf.items():
            assert type(key) is int and key >= 0
            check(c)
    for e in elems:
        assert_numerators(alg, e)


def element(alg, nf):
    """The canonical EnvElement of a packed map of values, as collected."""
    acc = Accumulator()
    add_into(acc, EnvElement(alg, nf))
    return collect(alg, acc)


@PROPERTY
@given(elements(CARTAN), elements(CARTAN))
def test_product_is_composition_on_coordinates(a, b):
    p = Polynomial.parse(5, POLY)
    ab = a * b
    assert coordinate_apply(ab, p) \
        == coordinate_apply(a, coordinate_apply(b, p))
    assert_canonical(CARTAN, ab)


FREE24 = free_nilpotent(2, 4)


def prefix_elements(alg, max_terms=3):
    """Random elements over the monomials of the prefixes of two words
    that share a prefix, so the monomials of a matrix row share prefixes."""
    gens = st.lists(st.integers(1, alg.n), max_size=3).map(sorted)

    def pool(words):
        stem, u, v = words
        return [tuple(w.count(i) for i in range(1, alg.n + 1))
                for tail in (u, v) for w in (stem + tail[:p]
                                             for p in range(len(tail) + 1))]

    def build(args):
        exps, terms = args
        out = EnvElement.zero(alg)
        for k, q, r in terms:
            c = exact(q) + exact(r) * sqrt(2)
            out = out + EnvElement.monomial(alg, exps[k % len(exps)], c)
        return out
    return st.tuples(
        st.tuples(gens, gens, gens).map(pool),
        st.lists(st.tuples(st.integers(0, 7), rationals, rationals),
                 max_size=max_terms)).map(build)


@PROPERTY
@given(st.data())
def test_matrix_product_is_sum_of_entry_products(data):
    """On Cartan, SKEW and free:2,4: rectangular shapes, empty ones among
    them, coefficients with sqrt(2) (nonzero masks) and right factors whose
    monomials share prefixes."""
    for alg in (CARTAN, SKEW, FREE24):
        m, k, n = (data.draw(st.integers(0, 3)) for _ in range(3))

        def matrix(cells, rows, cols):
            flat = data.draw(st.lists(cells, min_size=rows * cols,
                                      max_size=rows * cols))
            return OperatorMatrix(alg, [flat[i * cols:(i + 1) * cols]
                                        for i in range(rows)], cols=cols)
        a = matrix(elements(alg, 2), m, k)
        b = matrix(st.one_of(elements(alg, 2), prefix_elements(alg)), k, n)
        c = a @ b
        assert c.shape == (m, n)
        for i in range(m):
            for j in range(n):
                want = EnvElement.zero(alg)
                for t in range(k):
                    want = want + a.entries[i][t] * b.entries[t][j]
                assert c.entries[i][j] == want
                assert_canonical(alg, c.entries[i][j])


def test_exponent_past_a_byte_is_a_resource_limit():
    """A packed code holds exponents up to 255; a larger one is refused
    where it is packed or where a product raises it, never wrapped."""
    alg = cartan_group()
    top = EnvElement.monomial(alg, (255, 0, 0, 0, 0))
    x1, x2 = EnvElement.generator(alg, 1), EnvElement.generator(alg, 2)
    assert (EnvElement.monomial(alg, (254, 0, 0, 0, 0)) * x1).terms \
        == top.terms
    with pytest.raises(ResourceLimit) as err:
        EnvElement.monomial(alg, (256, 0, 0, 0, 0)) * x1
    assert err.value.args == (256, 255)
    for product in (lambda: top * x1,                      # X^a X^b, ordered
                    lambda: x1 * top,
                    lambda: top * x2 * x1,                 # by collection
                    lambda: EnvElement.from_word(alg, (1,) * 256),
                    lambda: OperatorMatrix(alg, [[top]]) @ OperatorMatrix(
                        alg, [[x1]])):
        with pytest.raises(ResourceLimit) as err:
            product()
        assert err.value.args == (256, 255)


@PROPERTY
@given(elements(SKEW), elements(SKEW), elements(SKEW))
def test_irrational_brackets_associative_and_adjoint(a, b, c):
    ab = a * b
    assert ab * c == a * (b * c)
    assert ab.formal_adjoint() == b.formal_adjoint() * a.formal_adjoint()
    assert a.formal_adjoint().formal_adjoint() == a
    assert_canonical(SKEW, ab, ab.formal_adjoint())


def test_irrational_bracket_normal_form():
    # X2 X1 = X1 X2 - [X1, X2] = X1 X2 - 1/2*sqrt(2) X3, and the square of
    # the commutator brings a rational coefficient back
    x1, x2 = EnvElement.generator(SKEW, 1), EnvElement.generator(SKEW, 2)
    assert x2 * x1 == EnvElement.parse(SKEW, "X1*X2 - 1/2*sqrt(2)*X3")
    comm = x1 * x2 - x2 * x1
    assert comm * comm == EnvElement.parse(SKEW, "1/2*X3^2")
    assert_canonical(SKEW, comm * comm)


def test_skew_group_round_trips_through_its_json():
    """The sqrt(2) constants of SKEW need no declaration in its file:
    from_json(to_json()) gives the same table and the same products."""
    assert SKEW.to_json() == SKEW_SPEC
    again = StratifiedLieAlgebra.from_json(SKEW.to_json())
    assert again.brackets == SKEW.brackets
    for word in ((2, 1), (3, 2, 1), (2, 2, 1, 1), (3, 1, 2)):
        assert EnvElement.from_word(again, word).render() \
            == EnvElement.from_word(SKEW, word).render()


# -- the normal-form kernel -------------------------------------------------

KERNEL_GROUPS = {
    "cartan": cartan_group,
    "free-2-4": lambda: free_nilpotent(2, 4),
    "H3": lambda: StratifiedLieAlgebra((6, 1), H3_BRACKETS),
    "skew": lambda: StratifiedLieAlgebra.from_json(SKEW_SPEC)}


def ref_normal_form(alg, word):
    """{exponent: value} normal form of a word, by rewriting its first
    descent X_a X_b = X_b X_a + [X_a, X_b] (a > b); no cache."""
    t = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), None)
    if t is None:
        return {tuple(word.count(i) for i in range(1, alg.n + 1)):
                1}
    a, b = word[t], word[t + 1]
    out = ref_normal_form(alg, word[:t] + (b, a) + word[t + 2:])
    for k, c in alg.bracket_basis(a, b).items():
        sub = ref_normal_form(alg, word[:t] + (k,) + word[t + 2:])
        for exp, v in sub.items():
            out[exp] = out.get(exp, 0) + c * v
    return {exp: s for exp, s in out.items() if s}


@pytest.mark.parametrize("name", KERNEL_GROUPS)
@PROPERTY
@given(st.data())
def test_kernel_matches_descent_rewriting(name, data):
    alg = KERNEL_GROUPS[name]()     # empty caches: the collection runs cold
    gens = st.integers(1, alg.n)
    word = tuple(data.draw(st.lists(gens, max_size=6)))
    assert element(alg, _normalize_word(alg, word)).terms \
        == ref_normal_form(alg, word)
    exps = st.lists(gens, max_size=3).map(
        lambda w: tuple(w.count(i) for i in range(1, alg.n + 1)))
    a, b = data.draw(exps), data.draw(exps)
    assert element(alg, _product(alg, _pack(a), _pack(b))).terms \
        == ref_normal_form(alg, word_of(a) + word_of(b))
    assert_canonical(alg)


# -- the stored numerators against {exponent: Scalar} dicts ------------------

def ref_sum(*dicts):
    out: dict = {}
    for terms in dicts:
        for exp, c in terms.items():
            s = out.get(exp)
            out[exp] = c if s is None else s + c
    return {exp: s for exp, s in out.items() if s}


def ref_scale(terms, c):
    return {exp: c * v for exp, v in terms.items() if c * v}


def ref_mul(alg, a, b):
    return ref_sum(*(ref_scale(ref_normal_form(alg, word_of(e1) + word_of(e2)),
                               c1 * c2)
                     for e1, c1 in a.items() for e2, c2 in b.items()))


def ref_adjoint(alg, terms):
    return ref_sum(*(ref_scale(ref_normal_form(alg, word_of(exp)[::-1]),
                               c * (-1) ** sum(exp))
                     for exp, c in terms.items()))


def ref_degree(alg, exp):
    return sum(e * w for e, w in zip(exp, alg.weights))


def ref_render(alg, terms):
    def term(exp, c):
        mono = "*".join(f"X{k + 1}" + (f"^{e}" if e > 1 else "")
                        for k, e in enumerate(exp) if e)
        sign, coeff = signed(c)
        if not mono:
            return sign, coeff
        return sign, mono if coeff == "1" else f"{coeff}*{mono}"
    order = sorted(terms, key=lambda exp: (-ref_degree(alg, exp),
                                           [-e for e in exp]))
    return signed_sum(term(exp, terms[exp]) for exp in order)


def from_reference(alg, terms):
    """The element of a reference dict, its monomials added in reverse."""
    out = EnvElement.zero(alg)
    for exp in sorted(terms, reverse=True):
        out = out + EnvElement.monomial(alg, exp, terms[exp])
    return out


STORAGE_GROUPS = {"cartan": CARTAN, "free-2-4": FREE24, "skew": SKEW}


@pytest.mark.parametrize("name", STORAGE_GROUPS)
@settings(PROPERTY, max_examples=25)
@given(st.data())
def test_packed_storage_matches_scalar_reference(name, data):
    """+, -, scale, *, formal_adjoint, homogeneity, render, hash and the
    terms view of the stored numerators, against the same operations on
    {exponent: Scalar} dicts written here.  homogeneity reads the weights
    off the packed codes; its reference reads them off the exponent
    tuples.  Every result is in canonical form: a positive denominator
    coprime with the integer content of the numerators, no zero
    numerator, and int terms in every Scalar numerator."""
    alg = STORAGE_GROUPS[name]

    def draw():
        terms = data.draw(st.lists(st.tuples(exponents(alg.n), rationals,
                                             rationals), max_size=3))
        elem, ref = EnvElement.zero(alg), {}
        for exp, q, r in terms:
            c = exact(q) + exact(r) * sqrt(2)
            elem = elem + EnvElement.monomial(alg, exp, c)
            ref = ref_sum(ref, {exp: c})
        return elem, ref
    (a, ra), (b, rb) = draw(), draw()
    q, r = data.draw(rationals), data.draw(rationals)
    cases = [(a, ra), (a + b, ref_sum(ra, rb)),
             (a - b, ref_sum(ra, ref_scale(rb, -1))),
             (-a, ref_scale(ra, -1)),
             (a * b, ref_mul(alg, ra, rb)),
             (a.formal_adjoint(), ref_adjoint(alg, ra))]
    for c in (0, 1, -1, Fraction(-2, 3), exact(q) + exact(r) * sqrt(2)):
        cases.append((a.scale(c), ref_scale(ra, exact(c))))
    for got, want in cases:
        assert got.terms == want
        twin = from_reference(alg, want)
        assert got == twin and hash(got) == hash(twin)
        assert got.render() == ref_render(alg, want)
        assert bool(got) == bool(want)
        if want:
            degrees = {ref_degree(alg, exp) for exp in want}
            assert got.homogeneity() == (
                degrees.pop() if len(degrees) == 1 else Mixed(degrees))
        assert_numerators(alg, got)
    assert_canonical(alg)


def test_nf_cache_holds_requested_words_only():
    """Products fill neither the word cache nor the adjoint memo; an
    adjoint memoizes its monomial and the suffixes its rule strips."""
    alg = cartan_group()
    x = EnvElement.monomial(alg, (0, 1, 2, 0, 0))
    y = EnvElement.monomial(alg, (2, 1, 0, 1, 0), 3)
    assert x * y
    assert alg._nf_cache == {} and alg._adj_cache == {}
    adj = EnvElement.monomial(alg, (1, 1, 1, 0, 0)).formal_adjoint()
    assert alg._nf_cache == {}
    # (X1 X2 X3)* = -(X2 X3)* X1, (X2 X3)* = -(X3)* X2, (X3)* = -X3
    codes = {exp: _pack(exp) for exp in
             ((1, 1, 1, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 0, 0))}
    assert set(alg._adj_cache) == set(codes.values())
    assert element(alg, alg._adj_cache[codes[1, 1, 1, 0, 0]]) == adj
    assert element(alg, alg._adj_cache[codes[0, 0, 1, 0, 0]]) \
        == -EnvElement.generator(alg, 3)


@pytest.mark.parametrize("name", ["cartan", "free-2-4", "skew"])
def test_memoized_adjoint_matches_reversed_words(name):
    """The adjoint read from the memo equals the sum of c * (-1)^|w| times
    the normal form of the reversed word w, over the terms c * X^w: every
    monomial of length at most 4, alone and summed with coefficients in
    Q(sqrt(2)), the sum taken first so the memo starts cold."""
    alg = KERNEL_GROUPS[name]()
    exps = [tuple(gens.count(i) for i in range(alg.n))
            for k in range(5)
            for gens in combinations_with_replacement(range(alg.n), k)]
    coeffs = [exact(Fraction(k + 1, 3)) + (k % 3) * sqrt(2)
              for k in range(len(exps))]
    refs = []
    for exp in exps:
        w = word_of(exp)
        refs.append(EnvElement.from_word(alg, w[::-1], (-1) ** len(w)))
    total = EnvElement.zero(alg)
    want = EnvElement.zero(alg)
    for exp, c, ref in zip(exps, coeffs, refs):
        total = total + EnvElement.monomial(alg, exp, c)
        want = want + ref.scale(c)
    assert total.formal_adjoint() == want
    for exp, ref in zip(exps, refs):
        assert EnvElement.monomial(alg, exp).formal_adjoint() == ref, exp
    assert_canonical(alg)


@PROPERTY
@given(st.data())
def test_adjoint_is_an_involutive_antihomomorphism(data):
    """On Cartan, free:2,4 and SKEW, whose adjoint memos persist across the
    examples: (ab)* = b* a* and a** = a, products up to order 6."""
    for alg in (CARTAN, FREE24, SKEW):
        a, b = data.draw(elements(alg)), data.draw(elements(alg))
        ab = a * b
        assert ab.formal_adjoint() == b.formal_adjoint() * a.formal_adjoint()
        assert ab.formal_adjoint().formal_adjoint() == ab
        assert_canonical(alg, ab.formal_adjoint())


# -- exterior builders and constant factors ---------------------------------

BUILDERS = settings(PROPERTY, max_examples=12)

H3 = StratifiedLieAlgebra((6, 1), H3_BRACKETS)
COMPLEXES = {"cartan": RuminComplex(CARTAN),
             "free-3-2": RuminComplex(free_nilpotent(3, 2)),
             "H3": RuminComplex(H3), "skew": RuminComplex(SKEW)}


def operators(alg, max_terms=2):
    """Nonzero elements of order <= 2, coefficients q + r*sqrt(2)."""
    exps = st.lists(st.integers(0, alg.n - 1), max_size=2).map(
        lambda gens: tuple(gens.count(i) for i in range(alg.n)))
    def build(terms):
        out = EnvElement.zero(alg)
        for exp, q, r in terms:
            c = exact(q) + exact(r) * sqrt(2)
            out = out + EnvElement.monomial(alg, exp, c)
        return out
    return st.lists(st.tuples(exps, rationals, rationals), min_size=1,
                    max_size=max_terms).map(build).filter(bool)


def scalars(alg):
    """0, +-1, rationals and q + r*sqrt(2)."""
    return st.one_of(st.sampled_from([0, 1, -1]),
                     rationals.map(exact),
                     st.tuples(rationals, rationals).map(
                         lambda qr: exact(qr[0]) + exact(qr[1]) * sqrt(2)))


def draw_opform(data, alg, h, slots=2):
    keys = st.tuples(st.sampled_from(covectors(alg, h)),
                     st.integers(0, slots - 1))
    terms = data.draw(st.dictionaries(keys, operators(alg), max_size=4))
    return OperatorForm(alg, h, slots, terms)


def ref_add(terms, key, u):
    s = terms.get(key)
    s = u if s is None else s + u
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def ref_d_layer(alg, terms, layer):
    """d_layer of OperatorForm terms; layer 0 is the Maurer-Cartan part d0."""
    out: dict = {}
    for (t, slot), u in terms.items():
        if layer == 0:
            for merged, c in d0_covector(alg, t).items():
                ref_add(out, (merged, slot), u.scale(c))
            continue
        for m in alg.layer(layer):
            s, merged = merge_wedge((m,), t)
            if s:
                ref_add(out, (merged, slot),
                        (EnvElement.generator(alg, m) * u).scale(s))
    return out


def ref_apply(cmap, terms):
    out: dict = {}
    for (t, slot), u in terms.items():
        for jo, v in cmap.columns.get(t, {}).items():
            ref_add(out, (jo, slot), u.scale(v))
    return out


def ref_pair(alg, terms, mv, slots):
    row = [EnvElement.zero(alg)] * slots
    for (t, slot), u in terms.items():
        if t in mv:
            row[slot] = row[slot] + u.scale(mv[t])
    return row


def ref_pi_E(cx, form):
    """The weight-ascending recursion, summed term by term."""
    alg, h = cx.algebra, form.degree
    result: dict = {}
    for (t, slot), u in form.terms.items():
        result.setdefault(tuple_weight(alg, t), {})[(t, slot)] = u
    if not result:
        return {}
    min_w = min(result)
    top = max(tuple_weight(alg, t) for t in covectors(alg, h))
    for w in range(min_w + 1, top + 1):
        acc: dict = {}
        for ell in range(1, min(alg.kappa, w - min_w) + 1):
            for k, u in ref_d_layer(alg, result.get(w - ell, {}),
                                    ell).items():
                ref_add(acc, k, u)
        for k, u in ref_apply(cx.d0_pinv_map(h), acc).items():
            ref_add(result.setdefault(w, {}), k, -u)
    return {k: u for part in result.values() for k, u in part.items()}


def canonical(alg, form_or_rows):
    """Canonical coefficients; an OperatorForm also holds no zero operator."""
    if isinstance(form_or_rows, OperatorForm):
        assert all(form_or_rows.terms.values())
        elems = form_or_rows.terms.values()
    else:
        elems = [u for row in form_or_rows for u in row]
    assert_canonical(alg, *elems)


@pytest.mark.parametrize("name", COMPLEXES)
@BUILDERS
@given(st.data())
def test_exterior_derivatives_match_reference(name, data):
    alg = COMPLEXES[name].algebra
    form = draw_opform(data, alg, data.draw(st.integers(0, alg.n - 1)))
    full: dict = {}
    for layer in range(alg.kappa + 1):
        part = form.d0() if layer == 0 else form.d_layer(layer)
        assert part.terms == ref_d_layer(alg, form.terms, layer)
        for k, u in part.terms.items():
            ref_add(full, k, u)
    d = form.d_full()
    assert (d.degree, d.slots) == (form.degree + 1, form.slots)
    assert d.terms == full
    canonical(alg, d)
    # two forms in one accumulator per output, negated, as Pi_E sums them
    other = draw_opform(data, alg, form.degree)
    want = {k: -u for k, u in full.items()}
    for k, u in ref_d_layer(alg, other.terms, alg.kappa).items():
        ref_add(want, k, -u)
    every = set(covectors(alg, form.degree + 1))
    assert d_terms(alg, [(form, range(alg.kappa + 1)),
                         (other, (alg.kappa,))], every, -1) == want


@pytest.mark.parametrize("name", ["cartan", "free-3-2"])
@BUILDERS
@given(st.data())
def test_d_terms_on_targets_is_the_full_d_restricted(name, data):
    """d of a Pi_E lift computed on a subset T of the output covectors is
    the full d with its terms off T dropped."""
    cx = COMPLEXES[name]
    alg = cx.algebra
    h = data.draw(st.integers(0, alg.n - 1))
    lifted = cx.lift(h)
    every = covectors(alg, h + 1)
    targets = set(data.draw(st.lists(st.sampled_from(every), unique=True)))
    parts = [(lifted, range(alg.kappa + 1))]
    full = d_terms(alg, parts, set(every))
    assert d_terms(alg, parts, targets) == {
        k: u for k, u in full.items() if k[0] in targets}


@pytest.mark.parametrize("name", COMPLEXES)
@BUILDERS
@given(st.data())
def test_pseudoinverse_and_pairings_match_reference(name, data):
    cx = COMPLEXES[name]
    alg = cx.algebra
    h = data.draw(st.integers(0, alg.n - 1))
    form = draw_opform(data, alg, h + 1)
    pinv = cx.d0_pinv_map(h)
    image = pinv.apply_opform(form)
    assert image.terms == ref_apply(pinv, form.terms)
    canonical(alg, image)
    rows = cx.pi_E0(form)
    assert rows == [[u.scale(reciprocal(x)) for u in
                     ref_pair(alg, form.terms, xi.terms, form.slots)]
                    for xi, x in zip(cx.E0(h + 1), cx.norms(h + 1))]
    canonical(alg, rows)
    mv = data.draw(st.dictionaries(st.sampled_from(covectors(alg, h + 1)),
                                   scalars(alg).filter(bool), max_size=4))
    row = form.pair_multivector(mv)
    assert row == ref_pair(alg, form.terms, mv, form.slots)
    canonical(alg, [row])


@pytest.mark.parametrize("name", COMPLEXES)
@BUILDERS
@given(st.data())
def test_row_expansion_and_projection_match_reference(name, data):
    cx = COMPLEXES[name]
    alg = cx.algebra
    h = data.draw(st.integers(0, alg.n - 1))
    zero = EnvElement.zero(alg)
    cell = st.one_of(st.just(zero), operators(alg, 1))
    rows = data.draw(st.lists(st.lists(cell, min_size=2, max_size=2),
                              min_size=len(cx.E0(h)),
                              max_size=len(cx.E0(h))))
    form = cx.opform_from_rows(rows, h, 2)
    want: dict = {}
    for row, xi in zip(rows, cx.E0(h)):
        for t, c in xi.terms.items():
            for slot, u in enumerate(row):
                ref_add(want, (t, slot), u.scale(c))
    assert form.terms == want
    canonical(alg, form)
    lifted = cx.pi_E(form)
    assert lifted.terms == ref_pi_E(cx, form)
    canonical(alg, lifted)


def constants(alg):
    unit = (0,) * alg.n
    return scalars(alg).map(lambda c: EnvElement.monomial(alg, unit, c))


@pytest.mark.parametrize("alg", [CARTAN, SKEW], ids=["cartan", "skew"])
@BUILDERS
@given(st.data())
def test_constant_factor_products(alg, data):
    def matrix(cells, rows, cols):
        flat = data.draw(st.lists(cells, min_size=rows * cols,
                                  max_size=rows * cols))
        return OperatorMatrix(alg, [flat[i * cols:(i + 1) * cols]
                                    for i in range(rows)], cols=cols)
    ops = st.one_of(st.just(EnvElement.zero(alg)), elements(alg, 2))
    for a, b in ((matrix(constants(alg), 2, 3), matrix(ops, 3, 2)),
                 (matrix(ops, 2, 3), matrix(constants(alg), 3, 2)),
                 (matrix(constants(alg), 2, 3),
                  matrix(constants(alg), 3, 2))):
        c = a @ b
        assert c.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                want = EnvElement.zero(alg)
                for t in range(3):
                    want = want + a.entries[i][t] * b.entries[t][j]
                assert c.entries[i][j] == want
        assert_canonical(alg, *c.entries[0], *c.entries[1])


@pytest.mark.parametrize("alg", [CARTAN, SKEW], ids=["cartan", "skew"])
@BUILDERS
@given(st.data())
def test_conjugate_matches_entry_products(alg, data):
    """left @ M @ right for scalar matrices, against sums of scaled entries;
    an identity on either side leaves the other product."""
    def matrix(cells, rows, cols):
        flat = data.draw(st.lists(cells, min_size=rows * cols,
                                  max_size=rows * cols))
        return [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    ops = st.one_of(st.just(EnvElement.zero(alg)), elements(alg, 2))
    m = OperatorMatrix(alg, matrix(ops, 3, 2), cols=2)
    left, right = matrix(scalars(alg), 2, 3), matrix(scalars(alg), 2, 4)

    def identity(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    def reference(left, right):
        out = []
        for i in range(len(left)):
            row = []
            for j in range(len(right[0])):
                want = EnvElement.zero(alg)
                for s in range(3):
                    for t in range(2):
                        want = want + m.entries[s][t].scale(
                            left[i][s] * right[t][j])
                row.append(want)
            out.append(row)
        return out

    def conjugate(lt, rt):
        """m.conjugate on the sparse rows of two dense matrices."""
        def sparse(rows):
            return [{j: x for j, x in enumerate(row) if x} for row in rows]
        return m.conjugate(sparse(lt), sparse(rt), len(rt[0]))

    for lt, rt in ((left, right), (identity(3), right), (left, identity(2))):
        got = conjugate(lt, rt)
        assert got.shape == (len(lt), len(rt[0]))
        assert got.entries == reference(lt, rt)
        for row in got.entries:
            assert_canonical(alg, *row)
    assert conjugate(identity(3), identity(2)) == m


@PROPERTY
@given(st.data())
def test_scale_matches_termwise_product(data):
    u = data.draw(elements(SKEW))
    c = data.draw(scalars(SKEW))
    want = {e: c * v for e, v in u.terms.items() if c * v}
    assert u.scale(c).terms == want
    assert u.scale(c) == u * c
    assert_canonical(SKEW, u.scale(c))
