from fractions import Fraction
from math import prod
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnot import scalars
from carnot.coords import Polynomial
from carnot.env import EnvElement
from carnot.liealg import StratifiedLieAlgebra, free_nilpotent
from carnot.linalg import reciprocal
from carnot.rumin import RuminComplex
from carnot.scalars import (TRIAL_BOUND, Scalar, ScalarField,
                            TowerInsufficient, _square_free_split, exact,
                            parse, sqrt)


def test_rational_arithmetic():
    a = exact(Fraction(3, 2))
    b = exact(2)
    assert type(a) is Fraction and type(b) is int
    assert str(a + b) == "7/2"
    assert str(a * b) == "3" and type(exact(a * b)) is int
    assert a - a == 0
    assert a / b == exact(Fraction(3, 4))


def test_a_scalar_is_its_terms():
    """A Scalar holds its terms and nothing else, so a value does not
    depend on what made it: built, parsed or written out, it is equal."""
    assert Scalar.__slots__ == ("terms",)
    x = 1 + sqrt(2)
    assert x == parse("1 + sqrt(2)") == Scalar({1: 1, 2: 1})
    assert hash(x) == hash(Scalar({2: 1, 1: 1}))


def test_sqrt2_canonical_form():
    s2 = sqrt(2)
    assert s2 * s2 == exact(2)
    assert str(s2) == "sqrt(2)"
    assert str(s2.inverse()) == "1/2*sqrt(2)"
    # (1+sqrt2)(1-sqrt2) = -1
    assert (exact(1) + s2) * (exact(1) - s2) == exact(-1)
    # canonical: equal values have equal representations
    assert sqrt(8) == exact(2) * s2
    assert sqrt(Fraction(1, 2)) == s2 / exact(2)


def test_sqrt_of_square_is_rational():
    assert sqrt(Fraction(9, 4)) == exact(Fraction(3, 2))
    assert type(sqrt(Fraction(9, 4))) is Fraction
    assert sqrt(0) == 0 and type(sqrt(0)) is int


def test_tower_products_and_inverse():
    s2, s3 = sqrt(2), sqrt(3)
    s6 = sqrt(6)
    assert s2 * s3 == s6
    assert s6 * sqrt(10) == 2 * sqrt(15)
    assert s6.terms == {6: 1}
    x = exact(1) + s2 + s3
    assert x * x.inverse() == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact(1) / exact(0)
    with pytest.raises(ZeroDivisionError):
        sqrt(2) / exact(0)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71)


def test_sqrt_of_twenty_primes_and_nonrational_radicand():
    """Roots are keyed by their square-free radicand, so there is no cap:
    twenty prime roots, their product and its inverse are exact.  A
    ScalarField records each radicand of a root taken through it once."""
    f = ScalarField()
    roots = [f.sqrt(p) for p in PRIMES]
    assert list(f.radicands) == list(PRIMES)
    f.sqrt(6)
    f.sqrt(24)   # 2*sqrt(6): no new radicand
    assert list(f.radicands) == [*PRIMES, 6]
    product = prod(roots, start=1)
    assert product.terms == {prod(PRIMES): 1}
    x = 1 + roots[-1] + product
    assert x * reciprocal(x) == 1
    with pytest.raises(TowerInsufficient):
        sqrt(1 + sqrt(2))


def test_square_free_split_refuses_beyond_the_bound(monkeypatch):
    """Past the trial bound a remainder that is not a square may be
    p^2 * q: it is refused, never guessed.  A root of a basis norm that is
    refused names its degree and weight."""
    monkeypatch.setattr(scalars, "TRIAL_BOUND", 10)
    p, q = 11, 13
    assert _square_free_split(p * q) == (1, p * q)      # below 10^3
    assert _square_free_split(p * p * 3) == (p, 3)
    assert _square_free_split(p * p * q * q) == (p * q, 1)
    for n in (p * p * q, p * q * 17):
        with pytest.raises(TowerInsufficient, match=f"split of {n} by trial "
                           "division up to 10$"):
            _square_free_split(n)
    f = ScalarField()
    with pytest.raises(TowerInsufficient):
        f.sqrt(Fraction(1, p * p * q))
    assert not f.radicands
    # every norm up to degree 3 of free:2,4 is below 8; degree 4 holds 10
    monkeypatch.setattr(scalars, "TRIAL_BOUND", 1)
    cx = RuminComplex(free_nilpotent(2, 4))
    assert len(cx.roots(3)) == len(cx.E0(3))
    with pytest.raises(TowerInsufficient, match=r"split of \d+ by trial "
                       r"division up to 1, in the E0 block of degree 4, "
                       r"weight 10$"):
        cx.roots(4)


def test_parse_and_format_round_trip():
    for text in ("3/2", "-1/2*sqrt(2)", "1 + sqrt(2)", "0",
                 "2 - 3/4*sqrt(2)"):
        x = parse(text)
        assert parse(str(x)) == x
    assert parse("0.5") == exact(Fraction(1, 2))
    assert parse("1/sqrt(2)") == sqrt(2) / 2


def test_negative_sqrt_rejected():
    with pytest.raises(ValueError):
        sqrt(-2)


# -- properties against a Fraction-only reference on the radicand terms ----
#
# The reference works in Q(sqrt(2), sqrt(3)), whose terms are keyed by the
# radicands 1, 2, 3 and 6; it reduces a product of radicands by the squares
# of the primes 2 and 3, not by a gcd.

RADICANDS = (2, 3)
KEYS = (1, 2, 3, 6)
PROPERTY = settings(max_examples=150, derandomize=True, database=None,
                    deadline=None)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
# zero often, so that purely rational and single-term scalars are common
coefficient_lists = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                             min_size=4, max_size=4)


def build(coeffs, as_fraction=False):
    """The scalar sum of coeffs[k] * sqrt(KEYS[k]), through the public
    API."""
    basis = [1, sqrt(2), sqrt(3), sqrt(6)]
    out = 0
    for c, b in zip(coeffs, basis):
        if c.denominator == 1 and not as_fraction:
            c = c.numerator
        out = out + exact(c) * b
    return out


def ref(x):
    terms = x.terms if isinstance(x, Scalar) else {1: x} if x else {}
    return {r: Fraction(c) for r, c in terms.items()}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            r, factor = r1 * r2, 1
            for p in RADICANDS:
                if r % (p * p) == 0:
                    r //= p * p
                    factor *= p
            out[r] = out.get(r, 0) + c1 * c2 * factor
    return {r: c for r, c in out.items() if c}


def ref_inverse(a):
    """1/a as the product of a's three other conjugates over their norm;
    a conjugate flips the terms with an odd number of its primes."""
    def conj(primes):
        return {r: -c if sum(r % p == 0 for p in primes) % 2 else c
                for r, c in a.items()}
    others = ref_mul(ref_mul(conj((2,)), conj((3,))), conj((2, 3)))
    norm = ref_mul(a, others)
    assert set(norm) == {1}
    return {r: c / norm[1] for r, c in others.items()}


def assert_canonical(x):
    """x is an int, a Fraction that is not integral, or an irrational
    Scalar with canonical nonzero coefficients."""
    if isinstance(x, Scalar):
        assert x.terms.keys() - {1}
        assert all(x.terms.values())
        coefficients = x.terms.values()
    else:
        coefficients = [x]
    for c in coefficients:
        assert type(c) in (int, Fraction), type(c)
        if type(c) is Fraction:
            assert c.denominator != 1


@PROPERTY
@given(coefficient_lists, coefficient_lists)
def test_arithmetic_matches_fraction_reference(cx, cy):
    x, y = build(cx), build(cy)
    a, b = ref(x), ref(y)
    assert a == {r: c for r, c in zip(KEYS, cx) if c}
    for got, want in ((x + y, ref_add(a, b)),
                      (x - y, ref_add(a, {m: -c for m, c in b.items()})),
                      (-x, {m: -c for m, c in a.items()}),
                      (x * y, ref_mul(a, b)),
                      (y * x, ref_mul(a, b)),
                      (x * 1, a), (1 * x, a), (x + 0, a), (0 + x, a)):
        assert ref(got) == want
        # a sum or product of two rationals is Python's, not a Scalar's
        if isinstance(x, Scalar) or isinstance(y, Scalar):
            assert_canonical(got)
    if a:
        inv = reciprocal(x)
        assert ref(inv) == ref_inverse(a)
        assert_canonical(inv)


@PROPERTY
@given(coefficient_lists)
def test_int_and_fraction_paths_agree(coeffs):
    x, y = build(coeffs), build(coeffs, as_fraction=True)
    assert x == y and hash(x) == hash(y)
    assert_canonical(y)
    q = coeffs[0]
    if q.denominator == 1:
        assert exact(q.numerator) == exact(q)
        assert hash(exact(q.numerator)) == hash(exact(q))
    assert type(exact(q)) is (int if q.denominator == 1 else Fraction)
    assert exact(q) == q


# expressions over Q(sqrt(2), sqrt(3)) that divide, as (text, reference)
def _rational_leaf(text, q):
    return text, {1: q} if q else {}


def _combine(parts):
    (ta, a), op, (tb, b) = parts
    if op == "/" and not b:
        op = "*"
    value = {"+": lambda: ref_add(a, b),
             "-": lambda: ref_add(a, {m: -c for m, c in b.items()}),
             "*": lambda: ref_mul(a, b),
             "/": lambda: ref_mul(a, ref_inverse(b))}[op]()
    return f"({ta} {op} {tb})", value


expression_leaves = st.one_of(
    st.integers(0, 9).map(lambda k: _rational_leaf(str(k), Fraction(k))),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(
        lambda t: _rational_leaf(f"({t[0]}/{t[1]})", Fraction(*t))),
    st.integers(0, 99).map(
        lambda k: _rational_leaf(f"{k // 10}.{k % 10}", Fraction(k, 10))),
    st.sampled_from([("sqrt(2)", {2: Fraction(1)}), ("sqrt(3)", {3: Fraction(1)}),
                     ("sqrt(6)", {6: Fraction(1)}), ("sqrt(8)", {2: Fraction(2)}),
                     ("sqrt(4)", {1: Fraction(2)})]))
expressions = st.recursive(
    expression_leaves,
    lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(_combine),
    max_leaves=6)


@PROPERTY
@example(("sqrt(2)*sqrt(2)/(sqrt(2)*sqrt(2))", {1: Fraction(1)}))
@given(expressions)
def test_parsing_and_division_never_give_a_float(expression):
    """The scalar, operator and polynomial parsers divide exactly: a
    quotient of two ints is an int or a Fraction, never a float."""
    text, want = expression
    alg = StratifiedLieAlgebra.from_json({"layers": [2]})
    for x in (parse(text), EnvElement.parse(alg, text).as_scalar(),
              Polynomial.parse(2, text).as_scalar()):
        assert ref(x) == want
        assert_canonical(x)


# Q(sqrt(2), sqrt(3), sqrt(5)): term m is the product of the square roots of
# the three radicands whose bits are set in m, over one of two radicand
# sets: (2, 3, 5), where each product is the root of a new radicand, or
# (2, 6, 15), whose radicands share factors, so that products meet the gcd
# rule and the inverse's atom becomes a proper divisor of a radicand.
RADICAND_SETS = {"": (2, 3, 5), "-in-2-6-15": (2, 6, 15)}
one_term = st.tuples(st.integers(0, 7), rationals.filter(bool)).map(
    lambda t: [t[1] if m == t[0] else 0 for m in range(8)])
several_terms = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                         min_size=8, max_size=8).filter(
    lambda cs: sum(map(bool, cs)) > 1)


@pytest.mark.parametrize("terms, radicands", [
    pytest.param(terms, radicands, id=name + suffix)
    for suffix, radicands in RADICAND_SETS.items()
    for name, terms in (("one-term", one_term),
                        ("several-terms", several_terms))])
@PROPERTY
@given(data=st.data())
def test_inverse_times_itself_is_one(terms, radicands, data):
    x = 0
    for m, c in enumerate(data.draw(terms)):
        b = 1
        for i, r in enumerate(radicands):
            if m >> i & 1:
                b = b * sqrt(r)
        x = x + exact(c) * b
    # the inverse takes no root
    with mock.patch.object(scalars, "sqrt", side_effect=AssertionError):
        inv = reciprocal(x)
    assert x * inv == 1 and inv * x == 1
    assert_canonical(inv)


def test_canonical_coefficients_and_rational_inverse():
    assert reciprocal(exact(3)) == Fraction(1, 3)
    assert type(reciprocal(exact(3))) is Fraction
    assert type(exact(Fraction(6, 3))) is int
    assert type(reciprocal(exact(-1))) is int
    assert type(sqrt(Fraction(9, 4))) is Fraction
    assert type(sqrt(9)) is int
    assert type(sqrt(8)) is Scalar and type(sqrt(8).terms[2]) is int
    assert type(sqrt(2) * sqrt(2)) is int
    assert type(exact(1)) is int
    for x in (exact(0), exact(5)):
        assert type(x) is int
    assert type(exact(Fraction(1, 2))) is Fraction
    assert parse("0.5") == exact(Fraction(1, 2))
    assert_canonical(parse("4/2 + 2*sqrt(2)/2"))


def test_scalar_operators_give_way_to_other_types():
    """Scalar's + and * return NotImplemented for an operand that is not
    an int, a Fraction or a Scalar, so the other type's reflected method
    runs: sqrt(2) * X1 is X1 * sqrt(2), and likewise for a Polynomial."""
    g = StratifiedLieAlgebra((2, 1), {(1, 2): {3: 1}})
    r = sqrt(2)
    x1 = EnvElement.generator(g, 1)
    assert r * x1 == x1 * r == x1.scale(r)
    p = Polynomial.parse(3, "x1^2 + 1/2*x3")
    assert r * p == p * r
    for other in (x1, p, "2", 2.0):
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            assert getattr(r, name)(other) is NotImplemented


# -- an oracle from outside the engine: sympy ------------------------------
#
# The radicands share factors, the case the gcd rule of products exists for.
SHARED = (2, 3, 6, 10, 15, 30)
shared_terms = st.dictionaries(st.sampled_from((1,) + SHARED),
                               rationals.filter(bool), max_size=4)


def _sympy(x):
    terms = x.terms if isinstance(x, Scalar) else {1: x}
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.sqrt(r) for r, c in terms.items()])


def _split_by_factorint(n):
    s = r = 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        r *= p ** (e % 2)
    return s, r


@PROPERTY
@given(shared_terms, shared_terms)
def test_arithmetic_agrees_with_sympy(a, b):
    x = sum((exact(c) * sqrt(r) for r, c in a.items()), 0)
    y = sum((exact(c) * sqrt(r) for r, c in b.items()), 0)
    sx, sy = _sympy(x), _sympy(y)
    for got, want in ((x + y, sx + sy), (x * y, sx * sy), (y * x, sx * sy)):
        assert sympy.expand(_sympy(got) - want) == 0
        if isinstance(x, Scalar) or isinstance(y, Scalar):
            assert_canonical(got)
        if isinstance(got, Scalar):
            assert all(max(sympy.factorint(r).values(), default=1) == 1
                       for r in got.terms)
    if x:
        inv = reciprocal(x)
        assert sympy.expand(_sympy(inv) * sx) == 1
        assert_canonical(inv)


below_cube = st.one_of(
    st.integers(1, TRIAL_BOUND ** 3 - 1),
    # a small cofactor times the square of a number up to the bound
    st.tuples(st.integers(1, 10 ** 4), st.integers(2, TRIAL_BOUND)).map(
        lambda t: t[0] * t[1] ** 2).filter(lambda n: n < TRIAL_BOUND ** 3))


@PROPERTY
@given(below_cube, st.integers(1, 1000))
def test_sqrt_and_square_free_split_agree_with_factorint(n, m):
    """Below TRIAL_BOUND^3 the split is exact; sqrt(n/m) is
    sqrt(n*m) / m reduced by factorint's square-free part."""
    assert _square_free_split(n) == _split_by_factorint(n)
    q = Fraction(n, m)
    s, r = _split_by_factorint(q.numerator * q.denominator)
    coeff = Fraction(s, q.denominator)
    f = ScalarField()
    root = f.sqrt(q)
    assert root == sqrt(q)
    if r == 1:
        assert root == coeff and type(root) is type(exact(coeff))
        assert not f.radicands
    else:
        assert root.terms == {r: exact(coeff)}
        assert list(f.radicands) == [r]
