from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnot.coords import Polynomial
from carnot.env import EnvElement
from carnot.liealg import StratifiedLieAlgebra
from carnot.linalg import reciprocal
from carnot.scalars import MAX_RADICANDS, Scalar, ScalarField, TowerInsufficient


def test_rational_arithmetic():
    f = ScalarField()
    a = f(Fraction(3, 2))
    b = f(2)
    assert type(a) is Fraction and type(b) is int
    assert str(a + b) == "7/2"
    assert str(a * b) == "3" and type(f(a * b)) is int
    assert a - a == 0
    assert a / b == f(Fraction(3, 4))


def test_sqrt2_canonical_form():
    f = ScalarField()
    s2 = f.sqrt(2)
    assert s2 * s2 == f(2)
    assert str(s2) == "sqrt(2)"
    assert str(s2.inverse()) == "1/2*sqrt(2)"
    # (1+sqrt2)(1-sqrt2) = -1
    assert (f(1) + s2) * (f(1) - s2) == f(-1)
    # canonical: equal values have equal representations
    assert f.sqrt(8) == f(2) * s2
    assert f.sqrt(Fraction(1, 2)) == s2 / f(2)


def test_sqrt_of_square_is_rational():
    f = ScalarField()
    assert f.sqrt(Fraction(9, 4)) == f(Fraction(3, 2))
    assert type(f.sqrt(Fraction(9, 4))) is Fraction
    assert f.sqrt(0) == 0 and type(f.sqrt(0)) is int


def test_tower_products_and_inverse():
    f = ScalarField()
    s2, s3 = f.sqrt(2), f.sqrt(3)
    s6 = f.sqrt(6)
    assert s2 * s3 == s6
    x = f(1) + s2 + s3
    assert x * x.inverse() == 1


def test_division_by_zero():
    f = ScalarField()
    with pytest.raises(ZeroDivisionError):
        f(1) / f(0)
    with pytest.raises(ZeroDivisionError):
        f.sqrt(2) / f(0)


def test_sqrt_cap_and_nonrational_radicand():
    f = ScalarField()
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    assert len(primes) == MAX_RADICANDS
    for p in primes:
        f.sqrt(p)
    assert f.radicands == list(primes)
    f.sqrt(6)   # already in the tower: no new radicand
    with pytest.raises(TowerInsufficient, match=r"tower extension cap \(8\)"):
        f.sqrt(23)
    assert f.radicands == list(primes)
    g = ScalarField()
    with pytest.raises(TowerInsufficient):
        g.sqrt(g(1) + g.sqrt(2))


def test_parse_and_format_round_trip():
    f = ScalarField()
    for text in ("3/2", "-1/2*sqrt(2)", "1 + sqrt(2)", "0",
                 "2 - 3/4*sqrt(2)"):
        x = f.parse(text)
        assert f.parse(str(x)) == x
    assert f.parse("0.5") == f(Fraction(1, 2))
    assert f.parse("1/sqrt(2)") == f.sqrt(2) / 2


def test_negative_sqrt_rejected():
    f = ScalarField()
    with pytest.raises(ValueError):
        f.sqrt(-2)


# -- properties against a Fraction-only reference on the bitmask terms -----
#
# The reference works in Q(sqrt(2), sqrt(3)) with radicands [2, 3]: mask 1 is
# sqrt(2), mask 2 is sqrt(3) and mask 3 is sqrt(6).

RADICANDS = (2, 3)
PROPERTY = settings(max_examples=150, derandomize=True, database=None,
                    deadline=None)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
# zero often, so that purely rational and single-term scalars are common
coefficient_lists = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                             min_size=4, max_size=4)


def tower():
    return ScalarField(RADICANDS)


def build(f, coeffs, as_fraction=False):
    """The scalar sum of coeffs[m] * basis[m], through the public API."""
    basis = [1, f.sqrt(2), f.sqrt(3), f.sqrt(6)]
    out = 0
    for c, b in zip(coeffs, basis):
        if c.denominator == 1 and not as_fraction:
            c = c.numerator
        out = out + f(c) * b
    return out


def ref(x):
    terms = x.terms if isinstance(x, Scalar) else {0: x} if x else {}
    return {m: Fraction(c) for m, c in terms.items()}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            factor = 1
            for i, r in enumerate(RADICANDS):
                if (m1 & m2) >> i & 1:
                    factor *= r
            out[m1 ^ m2] = out.get(m1 ^ m2, 0) + c1 * c2 * factor
    return {m: c for m, c in out.items() if c}


def ref_inverse(a):
    """1/a as the product of a's three other conjugates over their norm."""
    def conj(sign_mask):
        return {m: -c if bin(m & sign_mask).count("1") % 2 else c
                for m, c in a.items()}
    others = ref_mul(ref_mul(conj(1), conj(2)), conj(3))
    norm = ref_mul(a, others)
    assert set(norm) == {0}
    return {m: c / norm[0] for m, c in others.items()}


def assert_canonical(x):
    """x is an int, a Fraction that is not integral, or an irrational
    Scalar with canonical nonzero coefficients."""
    if isinstance(x, Scalar):
        assert x.terms.keys() - {0}
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
    f = tower()
    x, y = build(f, cx), build(f, cy)
    a, b = ref(x), ref(y)
    assert a == {m: c for m, c in enumerate(cx) if c}
    for got, want in ((x + y, ref_add(a, b)),
                      (x - y, ref_add(a, {m: -c for m, c in b.items()})),
                      (-x, {m: -c for m, c in a.items()}),
                      (x * y, ref_mul(a, b)),
                      (y * x, ref_mul(a, b)),
                      (x * 1, a), (1 * x, a), (x + 0, a), (0 + x, a)):
        assert ref(got) == want
        # a sum or product of two rationals is Python's, not the tower's
        if isinstance(x, Scalar) or isinstance(y, Scalar):
            assert_canonical(got)
    if a:
        inv = reciprocal(x)
        assert ref(inv) == ref_inverse(a)
        assert_canonical(inv)


@PROPERTY
@given(coefficient_lists)
def test_int_and_fraction_paths_agree(coeffs):
    f = tower()
    x, y = build(f, coeffs), build(f, coeffs, as_fraction=True)
    assert x == y and hash(x) == hash(y)
    assert_canonical(y)
    q = coeffs[0]
    if q.denominator == 1:
        assert f(q.numerator) == f(q) and hash(f(q.numerator)) == hash(f(q))
    assert type(f(q)) is (int if q.denominator == 1 else Fraction)
    assert f(q) == q


# expressions over Q(sqrt(2), sqrt(3)) that divide, as (text, reference)
def _rational_leaf(text, q):
    return text, {0: q} if q else {}


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
    st.sampled_from([("sqrt(2)", {1: Fraction(1)}), ("sqrt(3)", {2: Fraction(1)}),
                     ("sqrt(6)", {3: Fraction(1)}), ("sqrt(8)", {1: Fraction(2)}),
                     ("sqrt(4)", {0: Fraction(2)})]))
expressions = st.recursive(
    expression_leaves,
    lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(_combine),
    max_leaves=6)


@PROPERTY
@example(("sqrt(2)*sqrt(2)/(sqrt(2)*sqrt(2))", {0: Fraction(1)}))
@given(expressions)
def test_parsing_and_division_never_give_a_float(expression):
    """The scalar, operator and polynomial parsers divide exactly: a
    quotient of two ints is an int or a Fraction, never a float."""
    text, want = expression
    f = tower()
    alg = StratifiedLieAlgebra.from_json({"layers": [2],
                                          "sqrt": list(RADICANDS)})
    for x in (f.parse(text), EnvElement.parse(alg, text).as_scalar(),
              Polynomial.parse(f, 2, text).as_scalar()):
        assert ref(x) == want
        assert_canonical(x)


# Q(sqrt(2), sqrt(3), sqrt(5)): term m is the product of the square roots of
# THREE whose bits are set in m.  The field is built over one of two towers:
# THREE itself, where each of these roots is one radicand bit, or (2, 6, 15),
# where sqrt(3) and sqrt(5) each sit on a mask of several bits, which the
# inverse must conjugate one bit at a time.
THREE = (2, 3, 5)
TOWERS = {"": THREE, "-in-2-6-15": (2, 6, 15)}
one_term = st.tuples(st.integers(0, 7), rationals.filter(bool)).map(
    lambda t: [t[1] if m == t[0] else 0 for m in range(8)])
several_terms = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                         min_size=8, max_size=8).filter(
    lambda cs: sum(map(bool, cs)) > 1)


@pytest.mark.parametrize("terms, radicands", [
    pytest.param(terms, radicands, id=name + suffix)
    for suffix, radicands in TOWERS.items()
    for name, terms in (("one-term", one_term),
                        ("several-terms", several_terms))])
@PROPERTY
@given(data=st.data())
def test_inverse_times_itself_is_one(terms, radicands, data):
    f = ScalarField(radicands)
    x = 0
    for m, c in enumerate(data.draw(terms)):
        b = 1
        for i, r in enumerate(THREE):
            if m >> i & 1:
                b = b * f.sqrt(r)
        x = x + f(c) * b
    inv = reciprocal(x)
    assert x * inv == 1 and inv * x == 1
    assert_canonical(inv)
    assert f.radicands == list(radicands)


def test_canonical_coefficients_and_rational_inverse():
    f = ScalarField()
    assert reciprocal(f(3)) == Fraction(1, 3)
    assert type(reciprocal(f(3))) is Fraction
    assert type(f(Fraction(6, 3))) is int
    assert type(reciprocal(f(-1))) is int
    assert type(f.sqrt(Fraction(9, 4))) is Fraction
    assert type(f.sqrt(9)) is int
    assert type(f.sqrt(8)) is Scalar and type(f.sqrt(8).terms[1]) is int
    assert type(f.sqrt(2) * f.sqrt(2)) is int
    assert type(f(1)) is int
    for x in (f(0), f(5)):
        assert type(x) is int
    assert type(f(Fraction(1, 2))) is Fraction
    assert f.parse("0.5") == f(Fraction(1, 2))
    assert_canonical(f.parse("4/2 + 2*sqrt(2)/2"))


def test_scalar_operators_give_way_to_other_types():
    """Scalar's + and * return NotImplemented for an operand that is not
    an int, a Fraction or a Scalar, so the other type's reflected method
    runs: sqrt(2) * X1 is X1 * sqrt(2), and likewise for a Polynomial."""
    g = StratifiedLieAlgebra((2, 1), {(1, 2): {3: 1}})
    r = g.field.sqrt(2)
    x1 = EnvElement.generator(g, 1)
    assert r * x1 == x1 * r == x1.scale(r)
    p = Polynomial.parse(g.field, 3, "x1^2 + 1/2*x3")
    assert r * p == p * r
    for other in (x1, p, "2", 2.0):
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            assert getattr(r, name)(other) is NotImplemented
