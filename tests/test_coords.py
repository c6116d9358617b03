import random
from fractions import Fraction

import pytest

from carnot.coords import NoRealization, Polynomial, coordinate_apply
from carnot.env import EnvElement
from carnot.liealg import StratifiedLieAlgebra, cartan_group, free_nilpotent


@pytest.fixture(scope="module")
def g():
    return cartan_group()


def P(text):
    return Polynomial.parse(5, text)


def test_field_examples(g):
    assert coordinate_apply(EnvElement.generator(g, 2), P("x3")) \
        == P("x1")
    assert coordinate_apply(EnvElement.generator(g, 1), P("x1^2")) \
        == P("2x1")
    assert coordinate_apply(EnvElement.generator(g, 2), P("x4")) \
        == P("1/2x1^2")


def test_commutator_realization(g):
    # (X2 X1 - X1 X2) f = -X3 f;  for f = x4 this is -x1
    comm = EnvElement.parse(g, "X2X1") - EnvElement.parse(g, "X1X2")
    assert coordinate_apply(comm, P("x4")) == P("-x1")
    neg_x3 = -EnvElement.generator(g, 3)
    for text in ("x4", "x5", "x3x4", "x1^2x5"):
        assert coordinate_apply(comm, P(text)) \
            == coordinate_apply(neg_x3, P(text))


def test_realized_fields_satisfy_all_brackets(g):
    r = g.realization
    probes = [P(t) for t in
              ("x1", "x2", "x3", "x4", "x5", "x1x2", "x3^2", "x1x2x3",
               "x2^2x4", "x1^3 + x5^2")]
    for i in range(1, 6):
        for j in range(i + 1, 6):
            vec = g.bracket_basis(i, j)
            for p in probes:
                lhs = r.apply_field(i, r.apply_field(j, p)) \
                    - r.apply_field(j, r.apply_field(i, p))
                rhs = Polynomial(5, {})
                for k, c in vec.items():
                    rhs = rhs + r.apply_field(k, p).scale(c)
                assert lhs == rhs


def test_oracle_normal_form_equals_direct(g):
    rng = random.Random(42)
    r = g.realization
    for _ in range(60):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6)))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = [0] * 5
            for _ in range(rng.randint(0, 6)):
                exp[rng.randrange(5)] += 1
            c = rng.randint(-3, 3)
            if c:
                terms[tuple(exp)] = c
        p = Polynomial(5, terms)
        direct = r.apply_word(word, p)
        via_pbw = coordinate_apply(EnvElement.from_word(g, word), p)
        assert direct == via_pbw


def test_no_realization(g):
    other = free_nilpotent(2, 2)
    with pytest.raises(NoRealization):
        coordinate_apply(EnvElement.generator(other, 1),
                         Polynomial.variable(3, 1))


def test_realization_follows_the_bracket_table(g):
    """The coordinate model belongs to the Cartan bracket table, not to the
    constructor that built it."""
    def image(alg):
        q = alg.realization.apply_word((2, 3, 2), P("x1^3x2 + x4x5"))
        assert all(type(c) in (int, Fraction) for c in q.terms.values())
        return q.terms
    assert image(g)
    for same in (free_nilpotent(2, 3),
                 StratifiedLieAlgebra.from_json(g.to_json())):
        assert image(same) == image(g)
    assert free_nilpotent(2, 2).realization is None


def test_polynomial_ring_basics(g):
    p = P("x1 + x2")
    assert p * p == P("x1^2 + 2x1x2 + x2^2")
    assert P("x1^2x2").diff(1) == P("2x1x2")
    assert P("x1^2x2").degree() == 3
    assert Polynomial.parse(5, str(p * p)) == p * p
