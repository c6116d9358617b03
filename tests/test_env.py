import random

import pytest

from carnot._expr import ExprError
from carnot.coords import Polynomial
from carnot.env import AlgebraMismatch, EnvElement
from carnot.liealg import cartan_group, free_nilpotent
from carnot.scalars import parse, sqrt


@pytest.fixture(scope="module")
def g():
    return cartan_group()


def test_normal_form_examples(g):
    # X2 X1 = X1 X2 - X3
    assert EnvElement.from_word(g, (2, 1)) == EnvElement.parse(g, "X1X2 - X3")
    # already ordered
    assert EnvElement.from_word(g, (1, 1)) == EnvElement.parse(g, "X1^2")
    # X2 X1^2 = X1^2 X2 - 2 X1 X3 + X4
    assert EnvElement.from_word(g, (2, 1, 1)) \
        == EnvElement.parse(g, "X1^2X2 - 2X1X3 + X4")


def test_multiply_examples(g):
    x1, x3 = EnvElement.generator(g, 1), EnvElement.generator(g, 3)
    assert x1 * x3 == EnvElement.parse(g, "X1X3")
    assert x3 * x1 == EnvElement.parse(g, "X1X3 - X4")
    x1x2 = EnvElement.parse(g, "X1X2")
    assert x1x2 * x1 == EnvElement.parse(g, "X1^2X2 - X1X3")


def test_multiplication_associative(g):
    rng = random.Random(3)
    gens = [EnvElement.generator(g, i) for i in range(1, 6)]
    for _ in range(25):
        a, b, c = (gens[rng.randrange(5)] + gens[rng.randrange(5)]
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_degrees(g):
    assert EnvElement.parse(g, "X1X3").degrees() == {3}
    assert EnvElement.generator(g, 4).degrees() == {3}
    assert EnvElement.parse(g, "X1 + X3").degrees() == {1, 2}
    assert EnvElement.zero(g).degrees() == set()


def test_homogeneity_multiplicative(g):
    rng = random.Random(5)
    for _ in range(30):
        wa = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        wb = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        a, b = EnvElement.from_word(g, wa), EnvElement.from_word(g, wb)
        if a.is_zero() or b.is_zero() or (a * b).is_zero():
            continue
        (da,), (db,) = a.degrees(), b.degrees()
        assert (a * b).degrees() == {da + db}


def test_formal_adjoint_examples(g):
    x1 = EnvElement.generator(g, 1)
    assert x1.formal_adjoint() == -x1
    assert EnvElement.parse(g, "X1X2").formal_adjoint() \
        == EnvElement.parse(g, "X1X2 - X3")
    one = EnvElement.one(g)
    assert one.formal_adjoint() == one


def test_formal_adjoint_involution_and_antihomomorphism(g):
    rng = random.Random(11)
    for _ in range(20):
        wa = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        wb = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        a, b = EnvElement.from_word(g, wa), EnvElement.from_word(g, wb)
        assert a.formal_adjoint().formal_adjoint() == a
        assert (a * b).formal_adjoint() \
            == b.formal_adjoint() * a.formal_adjoint()


def test_algebra_mismatch(g):
    other = free_nilpotent(2, 2)
    with pytest.raises(AlgebraMismatch):
        EnvElement.generator(g, 1) * EnvElement.generator(other, 1)


def test_render_parse_round_trip(g):
    rng = random.Random(13)
    for _ in range(25):
        acc = EnvElement.zero(g)
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4)))
            acc = acc + EnvElement.from_word(g, word, rng.randint(-3, 3))
        assert EnvElement.parse(g, acc.render()) == acc


def test_division_by_zero_in_text_is_an_expr_error(g):
    """Every parser refuses a zero divisor as bad text, with no
    ZeroDivisionError escaping."""
    for read in (lambda: parse("1/0"), lambda: parse("1/sqrt(0)"),
                 lambda: Polynomial.parse(5, "x1/(x2-x2)"),
                 lambda: EnvElement.parse(g, "X1/(X2-X2)")):
        with pytest.raises(ExprError, match="^division by zero$"):
            read()


def test_render_matches_listing_style(g):
    e = EnvElement.parse(g, "-X1^2X2 - X1X3 - X4")
    assert e.render() == "-X1^2*X2 - X1*X3 - X4"


def test_scalar_coefficients_with_sqrt2(g):
    s2 = sqrt(2)
    e = EnvElement.generator(g, 1).scale(s2)
    assert e * e == EnvElement.parse(g, "2X1^2")
    assert EnvElement.parse(g, "sqrt(2)X1") == e
