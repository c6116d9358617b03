from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot.scalars import ScalarField, TowerInsufficient


def test_rational_arithmetic():
    f = ScalarField()
    a = f(Fraction(3, 2))
    b = f(2)
    assert str(a + b) == "7/2"
    assert str(a * b) == "3"
    assert (a - a).is_zero()
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
    assert f.sqrt(0).is_zero()


def test_tower_products_and_inverse():
    f = ScalarField()
    s2, s3 = f.sqrt(2), f.sqrt(3)
    s6 = f.sqrt(6)
    assert s2 * s3 == s6
    x = f(1) + s2 + s3
    assert x * x.inverse() == f.one()


def test_division_by_zero():
    f = ScalarField()
    with pytest.raises(ZeroDivisionError):
        f(1) / f(0)


def test_sqrt_cap_and_nonrational_radicand():
    f = ScalarField(max_radicands=1)
    f.sqrt(2)
    with pytest.raises(TowerInsufficient):
        f.sqrt(3)
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
    basis = [f.one(), f.sqrt(2), f.sqrt(3), f.sqrt(6)]
    out = f.zero()
    for c, b in zip(coeffs, basis):
        if c.denominator == 1 and not as_fraction:
            c = c.numerator
        out = out + f(c) * b
    return out


def ref(x):
    return {m: Fraction(c) for m, c in x.terms.items()}


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
    for c in x.terms.values():
        assert type(c) in (int, Fraction), type(c)
        assert c != 0
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
        assert_canonical(got)
    if a:
        inv = x.inverse()
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
    assert type(f(q).as_rational()) is Fraction
    assert f(q).as_rational() == q


def test_canonical_coefficients_and_rational_inverse():
    f = ScalarField()
    assert f(3).inverse().terms == {0: Fraction(1, 3)}
    assert type(f(Fraction(6, 3)).terms[0]) is int
    assert type(f(-1).inverse().terms[0]) is int
    assert type(f.sqrt(Fraction(9, 4)).terms[0]) is Fraction
    assert type(f.sqrt(9).terms[0]) is int
    assert type(f.sqrt(8).terms[1]) is int
    assert type((f.sqrt(2) * f.sqrt(2)).terms[0]) is int
    assert type(f.one().terms[0]) is int
    for x in (f.zero(), f(0), f(5), f(Fraction(1, 2))):
        assert type(x.as_rational()) is Fraction
    assert f.parse("0.5") == f(Fraction(1, 2))
    assert_canonical(f.parse("4/2 + 2*sqrt(2)/2"))
