import json

import pytest

from carnot.liealg import (MAX_DIM, GradingViolation, JacobiViolation,
                           NotStratified, ResourceLimit, StratifiedLieAlgebra,
                           _hall_basis, cartan_group, free_nilpotent,
                           witt_dimension)


def test_cartan_group_structure():
    g = cartan_group()
    assert g.layer_dims == (2, 1, 2)
    assert g.weights == (1, 1, 2, 3, 3)
    assert g.homogeneous_dimension == 10
    assert g.kappa == 3
    one = 1
    assert g.bracket_basis(2, 3) == {5: one}
    assert g.bracket_basis(3, 2) == {5: -one}
    assert g.bracket_basis(4, 5) == {}


def test_bracket_bilinear():
    g = cartan_group()
    one = 1
    assert g.bracket({1: one}, {2: one}) == {3: one}
    assert g.bracket({1: one}, {1: one}) == {}
    assert g.bracket({1: 0}, {2: one}) == {}
    # [X1+X2, X3] = X4 + X5
    out = g.bracket({1: one, 2: one}, {3: one})
    assert out == {4: one, 5: one}


def test_abelian_table():
    a = StratifiedLieAlgebra((3,), {})
    assert a.kappa == 1
    assert a.homogeneous_dimension == 3


def test_grading_violation():
    with pytest.raises(GradingViolation):
        StratifiedLieAlgebra.from_structure_constants(
            (2, 2), {(1, 2): {3: 1}, (1, 3): {4: 1}})


def test_not_stratified():
    with pytest.raises(NotStratified):
        StratifiedLieAlgebra.from_structure_constants((2, 1), {})


def test_jacobi_violation():
    table = {(1, 2): {4: 1}, (1, 3): {4: 1}, (2, 3): {4: 1},
             (1, 4): {5: 1}, (2, 4): {5: 1}, (3, 4): {5: 1}}
    with pytest.raises(JacobiViolation) as err:
        StratifiedLieAlgebra.from_structure_constants((3, 1, 1), table)
    assert str(err.value) == "JacobiViolation(1,2,3)"


def _witt_dimension(m, d):
    # independent oracle: Moebius inversion of m^d = sum_{e|d} e*a_e
    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    total = sum(mobius(e) * m ** (d // e) for e in range(1, d + 1)
                if d % e == 0)
    return total // d


def test_free_nilpotent_2_3_matches_cartan():
    free = free_nilpotent(2, 3)
    g = cartan_group()
    assert free.layer_dims == g.layer_dims
    assert free.homogeneous_dimension == 10
    assert set(free.brackets) == set(g.brackets)
    for key, vec in g.brackets.items():
        got = free.brackets[key]
        assert set(got) == set(vec)
        for k in vec:
            assert got[k] == 1


def test_free_nilpotent_small_cases():
    heis = free_nilpotent(2, 2)
    assert heis.layer_dims == (2, 1)
    assert heis.homogeneous_dimension == 4
    step1 = free_nilpotent(2, 1)
    assert step1.layer_dims == (2,)
    assert not step1.brackets


@pytest.mark.parametrize("m1,step", [(2, 4), (3, 3), (2, 5)])
def test_free_nilpotent_dimensions_match_witt(m1, step):
    alg = free_nilpotent(m1, step)
    expected = tuple(_witt_dimension(m1, d) for d in range(1, step + 1))
    assert alg.layer_dims == expected


def test_free_nilpotent_resource_limit():
    # free:2,8 has 2+1+2+3+6+9+18+30 = 71 Hall elements; free:2,30 has
    # 74,248,451, refused from Witt's formula before any tree is built
    for step, count in ((8, 71), (30, 74248451)):
        with pytest.raises(ResourceLimit) as err:
            free_nilpotent(2, step)
        assert err.value.args == (count, MAX_DIM) == (count, 64)


def test_constructor_holds_every_algebra_to_the_cap():
    """The cap is checked first: this table would otherwise fail as not
    stratified, after its Jacobi loop."""
    with pytest.raises(ResourceLimit) as err:
        StratifiedLieAlgebra((MAX_DIM, 1), {})
    assert err.value.args == (MAX_DIM + 1, MAX_DIM)
    with pytest.raises(NotStratified):
        StratifiedLieAlgebra((MAX_DIM - 1, 1), {})


def test_witt_formula_counts_the_hall_trees():
    for m, steps in ((2, 8), (3, 5), (4, 4), (5, 3)):
        trees = _hall_basis(m, steps)
        for d in range(1, steps + 1):
            assert sum(t.degree == d for t in trees) == witt_dimension(m, d)
    assert [witt_dimension(2, d) for d in range(1, 9)] \
        == [2, 1, 2, 3, 6, 9, 18, 30]


def test_json_round_trip():
    g = cartan_group()
    blob = json.dumps(g.to_json())
    g2 = StratifiedLieAlgebra.from_json(blob)
    assert g2.layer_dims == g.layer_dims
    assert set(g2.brackets) == set(g.brackets)
    for key, vec in g.brackets.items():
        assert {k: str(c) for k, c in g2.brackets[key].items()} \
            == {k: str(c) for k, c in vec.items()}


def test_structure_constants_are_validated_jacobi_exactly():
    # every validated algebra satisfies the cyclic identity on basis triples
    for alg in (cartan_group(), free_nilpotent(2, 4), free_nilpotent(3, 2)):
        one = 1
        for i in range(1, alg.n + 1):
            for j in range(i + 1, alg.n + 1):
                for k in range(j + 1, alg.n + 1):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = alg.bracket_basis(a, b)
                        for t, coeff in alg.bracket(inner, {c: one}).items():
                            s = acc.get(t, 0) + coeff
                            if s:
                                acc[t] = s
                            else:
                                acc.pop(t, None)
                    assert not acc
