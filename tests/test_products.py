"""Property tests of the PBW product kernel.

The products of ``EnvElement`` and ``OperatorMatrix`` accumulate raw
coefficients over a common denominator; these tests check them against
references that do not share that kernel: the coordinate realization of the
Cartan group, entrywise sums of single products, associativity and the
anti-homomorphism law of the formal adjoint on a group whose brackets are
fractional and irrational.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from carnot.coords import Polynomial, coordinate_apply
from carnot.env import EnvElement
from carnot.liealg import StratifiedLieAlgebra, cartan_group
from carnot.rumin import OperatorMatrix
from carnot.scalars import ScalarField

PROPERTY = settings(max_examples=40, derandomize=True, database=None,
                    deadline=None)

# Cartan over Q(sqrt(2)); the realization's fields live in the same tower
CARTAN = cartan_group(ScalarField([2]))
# a step-3 group with fractional and irrational structure constants; the
# Jacobi identity holds for any constants on this bracket pattern
SKEW = StratifiedLieAlgebra.from_json({
    "layers": [2, 1, 2], "sqrt": [2],
    "brackets": {"1,2": {"3": "1/2*sqrt(2)"}, "1,3": {"4": "2/3"},
                 "2,3": {"5": "sqrt(2)"}}})
POLY = "x1^3*x2^2*x3 + x1*x4*x5 + 2*x2^3*x5 - x3^2*x4 + x2*x3*x5^2"

rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
# monomials of total degree at most 3, as the multiset of their generators
exponents = st.lists(st.integers(0, 4), max_size=3).map(
    lambda gens: tuple(gens.count(i) for i in range(5)))


def elements(alg, max_terms=3):
    """Random elements with coefficients q + r*sqrt(2), q and r rational."""
    def build(terms):
        out = EnvElement.zero(alg)
        for exp, q, r in terms:
            c = alg.field(q) + alg.field(r) * alg.field.sqrt(2)
            out = out + EnvElement.monomial(alg, exp, c)
        return out
    return st.lists(st.tuples(exponents, rationals, rationals),
                    max_size=max_terms).map(build)


def assert_canonical(alg, *elems):
    """Exact coefficients only: nonzero ints or non-integral Fractions."""
    def check(c):
        assert type(c) in (int, Fraction), type(c)
        assert c != 0
        assert type(c) is int or c.denominator != 1
    for nf in list(alg._nf_cache.values()) + list(alg._prod_cache.values()):
        for (exp, mask), c in nf.items():
            assert type(exp) is tuple and type(mask) is int
            check(c)
    for e in elems:
        for s in e.terms.values():
            for c in s.terms.values():
                check(c)


@PROPERTY
@given(elements(CARTAN), elements(CARTAN))
def test_product_is_composition_on_coordinates(a, b):
    p = Polynomial.parse(CARTAN.field, 5, POLY)
    ab = a * b
    assert coordinate_apply(ab, p) \
        == coordinate_apply(a, coordinate_apply(b, p))
    assert_canonical(CARTAN, ab)


@PROPERTY
@given(st.lists(elements(CARTAN, 2), min_size=6, max_size=6),
       st.lists(elements(CARTAN, 2), min_size=6, max_size=6))
def test_matrix_product_is_sum_of_entry_products(xs, ys):
    a = OperatorMatrix(CARTAN, [xs[:3], xs[3:]])
    b = OperatorMatrix(CARTAN, [ys[:2], ys[2:4], ys[4:]])
    c = a @ b
    assert c.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            want = EnvElement.zero(CARTAN)
            for t in range(3):
                want = want + a.entries[i][t] * b.entries[t][j]
            assert c.entries[i][j] == want
            assert_canonical(CARTAN, c.entries[i][j])


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
