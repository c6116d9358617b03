import random

import pytest

from carnot.env import EnvElement
from carnot.exterior import (DegreeOverflow, Form, OperatorForm, covectors,
                             multivector)
from carnot.liealg import cartan_group


@pytest.fixture(scope="module")
def g():
    return cartan_group()


def th(g, *idx):
    return Form.basis(g, idx)


def test_wedge_signs(g):
    assert th(g, 1).wedge(th(g, 2)) == th(g, 1, 2)
    assert th(g, 2).wedge(th(g, 1)) == -th(g, 1, 2)
    assert th(g, 4).wedge(th(g, 2, 3)) == th(g, 2, 3, 4)
    assert th(g, 1).wedge(th(g, 1)).is_zero()


def test_wedge_associative_anticommutative(g):
    rng = random.Random(2)

    def rand_form(h):
        out = Form.zero(g, h)
        for t in covectors(g, h):
            c = rng.randint(-2, 2)
            if c:
                out = out + Form.basis(g, t, c)
        return out

    for _ in range(20):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        r = rng.randint(0, 5 - p - q) if p + q <= 5 else 0
        a, b, c = rand_form(p), rand_form(q), rand_form(r)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_degree_overflow(g):
    with pytest.raises(DegreeOverflow):
        th(g, 1, 2, 3).wedge(th(g, 1, 2, 3))


def test_hodge_star_examples(g):
    # columns of the published star matrices
    assert th(g, 1).star() == th(g, 2, 3, 4, 5)
    assert th(g, 2).star() == -th(g, 1, 3, 4, 5)
    assert Form.volume(g).star() == Form.basis(g, ())
    assert th(g, 1, 4).star().star() == th(g, 1, 4)


def test_star_isometry_and_sign_law(g):
    rng = random.Random(9)
    for _ in range(30):
        h = rng.randint(0, 5)
        a = Form.zero(g, h)
        b = Form.zero(g, h)
        for t in covectors(g, h):
            a = a + Form.basis(g, t, rng.randint(-2, 2))
            b = b + Form.basis(g, t, rng.randint(-2, 2))
        assert a.star().inner(b.star()) == a.inner(b)
        sign = -1 if (h * (5 - h)) % 2 else 1
        assert a.star().star() == a.scale(sign)


def test_weight_split(g):
    a = th(g, 1, 4) + th(g, 3, 4)
    parts = a.weight_split()
    assert set(parts) == {4, 5}
    assert parts[4] == th(g, 1, 4)
    assert parts[5] == th(g, 3, 4)
    assert Form.volume(g).weight_split() == {10: Form.volume(g)}
    assert th(g, 1).weight_split() == {1: th(g, 1)}


def test_d0_examples(g):
    assert th(g, 3).d0() == -th(g, 1, 2)
    assert th(g, 1).d0().is_zero()
    assert th(g, 4, 5).d0() == -th(g, 1, 3, 5) + th(g, 2, 3, 4)


def test_d0_is_weight_preserving_derivation(g):
    for h in range(5):
        for t in covectors(g, h):
            form = Form.basis(g, t)
            image = form.d0()
            if not image.is_zero():
                assert image.weight() == form.weight()
    # Leibniz on a sample pair
    a, b = th(g, 3), th(g, 4)
    lhs = a.wedge(b).d0()
    rhs = a.d0().wedge(b) - a.wedge(b.d0())
    assert lhs == rhs


def test_delta0_examples_and_adjointness(g):
    assert th(g, 1, 2).delta0() == -th(g, 3)
    assert th(g, 1).delta0().is_zero()
    rng = random.Random(4)
    for _ in range(25):
        h = rng.randint(0, 4)
        a = Form.zero(g, h)
        b = Form.zero(g, h + 1)
        for t in covectors(g, h):
            a = a + Form.basis(g, t, rng.randint(-2, 2))
        for t in covectors(g, h + 1):
            b = b + Form.basis(g, t, rng.randint(-2, 2))
        assert a.d0().inner(b) == a.inner(b.delta0())


def test_d_layer_examples(g):
    a = OperatorForm.from_form(th(g, 1))
    d1 = a.d_layer(1)
    # only theta2 ^ theta1 survives, normalized to -theta1 ^ theta2
    assert set(d1.terms) == {((1, 2), 0)}
    assert d1.terms[((1, 2), 0)] == -EnvElement.generator(g, 2)
    d2 = a.d_layer(2)
    assert set(d2.terms) == {((1, 3), 0)}
    assert d2.terms[((1, 3), 0)] == -EnvElement.generator(g, 3)
    # constant coefficients in the top layer with repeated covectors die
    c = OperatorForm.from_form(th(g, 4, 5))
    assert c.d_layer(3).is_zero()


def test_d_full_on_function_and_one_form(g):
    f = OperatorForm(g, 0, 1, {((), 0): EnvElement.one(g)})
    df = f.d_full()
    assert set(df.terms) == {((i,), 0) for i in range(1, 6)}
    for i in range(1, 6):
        assert df.terms[((i,), 0)] == EnvElement.generator(g, i)
    # d(alpha theta3) expansion
    a3 = OperatorForm.from_form(th(g, 3))
    d = a3.d_full()
    expected = {
        ((1, 2), 0): EnvElement.parse(g, "-1"),
        ((1, 3), 0): EnvElement.parse(g, "X1"),
        ((2, 3), 0): EnvElement.parse(g, "X2"),
        ((3, 4), 0): EnvElement.parse(g, "-X4"),
        ((3, 5), 0): EnvElement.parse(g, "-X5"),
    }
    assert d.terms == expected


def test_d_full_squared_zero_all_degrees(g):
    for h in range(6):
        for t in covectors(g, h):
            form = OperatorForm.from_form(Form.basis(g, t))
            assert form.d_full().d_full().is_zero()


def test_operator_form_weight_split_and_pairing(g):
    a = OperatorForm.from_form(th(g, 1, 4) + th(g, 3, 4))
    parts = a.weight_split()
    assert set(parts) == {4, 5}
    mv = multivector([((4, 1), 1)])  # X4 ^ X1 = -X1 ^ X4
    row = a.pair_multivector(mv)
    assert row[0] == EnvElement.parse(g, "-1")


def test_operator_form_json(g):
    a = OperatorForm.from_form(th(g, 1, 4))
    blob = a.to_json()
    assert blob["degree"] == 2
    assert blob["terms"][0]["covector"] == [1, 4]


def test_operator_form_equality_compares_algebra_and_slots(g):
    a = OperatorForm.from_form(th(g, 1, 4))
    assert a == OperatorForm.from_form(th(g, 1, 4))
    assert a != OperatorForm(g, a.degree, 2, a.terms)
    # two zero forms of one degree over different algebras are not equal
    assert OperatorForm(g, 2, 1, {}) != OperatorForm(cartan_group(), 2, 1, {})
    assert OperatorForm(g, 2, 1, {}) != OperatorForm(g, 2, 3, {})
