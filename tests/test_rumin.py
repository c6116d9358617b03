import hashlib
import json
import re
from collections import defaultdict
from fractions import Fraction

import pytest

from carnot import linalg
from carnot.coords import Polynomial, coordinate_apply
from carnot.env import Accumulator, EnvElement
from carnot.estimates import HorizontalTensor
from carnot.exterior import (Form, OperatorForm, covectors, d0_covector,
                             terms_of)
from carnot.liealg import (StratifiedLieAlgebra, cartan_group, free_nilpotent,
                           load_group)
from carnot.rumin import (OperatorMatrix, RuminComplex, SpanMismatch,
                          StarAdjointMismatch, _covector_counts)
from carnot.scalars import Scalar, sqrt
from carnot.verify import star_listing


@pytest.fixture(scope="module")
def cx():
    return RuminComplex(cartan_group())


def th(cx, *idx):
    return Form.basis(cx.algebra, idx)


def test_dims(cx):
    assert cx.dims() == (1, 2, 3, 3, 2, 1)


def test_covector_counts_are_the_weight_block_sizes():
    """The capacity checks count each degree's covectors by weight, with
    none enumerated: the counts are the sizes of the weight blocks."""
    for alg in (cartan_group(), free_nilpotent(2, 4), free_nilpotent(4, 2)):
        cx = RuminComplex(alg)
        for h in range(alg.n + 1):
            assert _covector_counts(alg.weights, h) == \
                {w: len(b) for w, b in cx._weight_blocks(h).items()}


def test_E0_bases_match_published(cx):
    inv_s2 = sqrt(2).inverse()
    e0 = cx.orthonormal_basis
    assert list(e0(1)) == [th(cx, 1), th(cx, 2)]
    xi2 = (th(cx, 2, 4) + th(cx, 1, 5)).scale(inv_s2)
    assert list(e0(2)) == [th(cx, 1, 4), xi2, th(cx, 2, 5)]
    xi3 = (th(cx, 1, 3, 5) + th(cx, 2, 3, 4)).scale(inv_s2)
    assert list(e0(3)) == [th(cx, 1, 3, 4), xi3, th(cx, 2, 3, 5)]
    assert list(e0(4)) == [th(cx, 1, 3, 4, 5), th(cx, 2, 3, 4, 5)]
    assert list(e0(0)) == [Form.basis(cx.algebra, ())]
    assert list(e0(5)) == [Form.basis(cx.algebra, range(1, 6))]
    assert [xi.weight() for xi in cx.E0(2)] == [4, 4, 4]
    assert [xi.weight() for xi in cx.E0(3)] == [6, 6, 6]


def test_E0_elements_are_intrinsic_and_orthonormal(cx):
    """The orthonormal basis is orthonormal, and E0 is orthogonal with
    the stored norms."""
    for h in range(6):
        basis = cx.orthonormal_basis(h)
        norms = cx.norms(h)
        for i, xi in enumerate(basis):
            assert xi.d0().is_zero()
            assert xi.delta0().is_zero()
            for j, eta in enumerate(basis):
                assert xi.inner(eta) == (1 if i == j else 0)
                assert cx.E0(h)[i].inner(cx.E0(h)[j]) \
                    == (norms[i] if i == j else 0)
        weights = [xi.weight() for xi in basis]
        assert weights == sorted(weights)


def d0_inverse(cx, form):
    """d0^{-1} of a constant form, applied as Pi_E applies it: through
    ``CovectorMap.apply_into``, into one accumulator per output key."""
    alg = cx.algebra
    accs = defaultdict(Accumulator)
    cx.d0_pinv_map(form.degree - 1).apply_into(
        accs, OperatorForm.from_form(form).terms)
    return Form(alg, form.degree - 1, {t: u.as_scalar() for (t, _), u
                                       in terms_of(alg, accs).items()})


def test_d0_pinv_examples(cx):
    assert d0_inverse(cx, th(cx, 1, 2)) == -th(cx, 3)
    assert d0_inverse(cx, th(cx, 1, 4)).is_zero()
    assert d0_inverse(cx, th(cx, 4).d0()) == th(cx, 4)


def test_d0_blocks_store_only_nonzeros():
    """Each d0 weight block is kept as sparse rows: no row holds a zero."""
    fresh = RuminComplex(free_nilpotent(4, 2))
    fresh.dims()
    blocks = fresh.memo["RuminComplex.d0_matrix_block"]
    assert len(blocks) > 50
    for rows, dom, cod in blocks.values():
        assert len(rows) == len(cod)
        for row in rows:
            assert isinstance(row, dict)
            assert all(row.values()) and set(row) <= set(range(len(dom)))


def test_d0_pinv_defining_property(cx):
    # delta0 d0 alpha = delta0 beta, with alpha orthogonal to ker d0
    for h in (1, 2, 3):
        for t in covectors(cx.algebra, h + 1):
            beta = Form.basis(cx.algebra, t)
            alpha = d0_inverse(cx, beta)
            assert alpha.d0().delta0() == beta.delta0()


def test_pi_E_one_form(cx):
    g = cx.algebra
    lifted = cx.pi_E(OperatorForm.from_form(th(cx, 1)))
    expected = {
        ((1,), 0): EnvElement.one(g),
        ((3,), 0): EnvElement.parse(g, "-X2"),
        ((4,), 0): EnvElement.parse(g, "-X1X2 - X3"),
        ((5,), 0): EnvElement.parse(g, "-X2^2"),
    }
    assert lifted.terms == expected
    # weight-2 component: (X1 a2 - X2 a1) theta3 for the symbolic pair
    sym = cx.symbolic_basis_form(1)
    w2 = cx.pi_E(sym).weight_split()[2]
    assert w2.terms == {((3,), 0): EnvElement.parse(g, "-X2"),
                        ((3,), 1): EnvElement.parse(g, "X1")}


def test_pi_E_top_weight_is_identity(cx):
    top = OperatorForm.from_form(list(cx.E0(5))[0])
    assert cx.pi_E(top) == top


def test_pi_E_degree2_corrections_stop_at_weight_6(cx):
    sym = cx.symbolic_basis_form(2)
    parts = cx.pi_E(sym).weight_split()
    assert set(parts) == {4, 5, 6}


def test_pi_E0_examples(cx):
    one, zero = EnvElement.one(cx.algebra), EnvElement.zero(cx.algebra)

    def pi_E0(form):
        return cx.pi_E0(OperatorForm.from_form(form))
    assert pi_E0(th(cx, 1, 4)) == [[one], [zero], [zero]]
    assert pi_E0(th(cx, 1, 2)) == [[zero], [zero], [zero]]
    assert pi_E0(cx.E0(3)[1]) == [[zero], [one], [zero]]


def test_dc_entries_match_published_samples(cx):
    g = cx.algebra
    d0 = cx.orthonormal(cx.dc_matrix(0), 1, 0)
    assert d0.entries == [[EnvElement.generator(g, 1)],
                          [EnvElement.generator(g, 2)]]
    d2 = cx.orthonormal(cx.dc_matrix(2), 3, 2)
    assert d2.entries[0][0] == EnvElement.parse(g, "-X1X2 - X3")
    assert d2.entries[0][1] == EnvElement.parse(g, "X1^2/sqrt(2)")
    assert d2.entries[0][2].is_zero()
    d4 = cx.orthonormal(cx.dc_matrix(4), 5, 4)
    assert d4.entries == [[EnvElement.parse(g, "-X2"),
                           EnvElement.parse(g, "X1")]]


def test_deltac_examples(cx):
    g = cx.algebra

    def deltac(h):
        return cx.orthonormal(cx.deltac_matrix(h), h - 1, h).entries
    assert deltac(1) == [[EnvElement.parse(g, "-X1"),
                          EnvElement.parse(g, "-X2")]]
    assert deltac(5) == [[EnvElement.parse(g, "X2")],
                         [EnvElement.parse(g, "-X1")]]
    assert deltac(3)[1][1] == EnvElement.parse(g, "3/2X3")


def test_deltac_sign_recorded(cx):
    for h in range(1, 6):
        assert cx.deltac_star_adjoint_sign(h) == 1


def test_deltac_checked_once_whichever_is_asked_first(monkeypatch):
    """delta_c is compared with the adjoint once per degree, and refused
    on a wrong sign even when the sign was asked for first."""
    calls = []
    adjoint = RuminComplex.adjoint

    def counting(self, m, q, p):
        calls.append(m.shape)
        return adjoint(self, m, q, p)

    monkeypatch.setattr(RuminComplex, "adjoint", counting)
    fresh = RuminComplex(cartan_group())
    fresh.deltac_matrix(1)
    assert fresh.deltac_star_adjoint_sign(1) == 1
    assert fresh.deltac_star_adjoint_sign(3) == 1
    fresh.deltac_matrix(3)
    assert len(calls) == 2
    negated = [{j: -c for j, c in row.items()}
               for row in fresh.star_matrix(2)]
    fresh.memo["RuminComplex.star_matrix"][2,] = negated
    assert fresh.deltac_star_adjoint_sign(2) == -1
    with pytest.raises(StarAdjointMismatch, match="degree 2: star formula "
                       "and adjoint transpose disagree at entries"):
        fresh.deltac_matrix(2)


def test_dc_squared_zero_and_orders(cx):
    for h in range(5):
        assert (cx.dc_matrix(h + 1) @ cx.dc_matrix(h)).is_zero()
    assert cx.dc_orders() == ({1}, {3}, {2}, {3}, {1})


def test_mixed_dc_orders_are_degree_sets():
    """On free:3,2, d_c at degree 2 mixes orders 1 and 2: its entry is that
    set, and the matrix has no one order."""
    cx32 = RuminComplex(free_nilpotent(3, 2))
    assert cx32.dc_orders()[2] == {1, 2}
    with pytest.raises(ValueError,
                       match=re.escape("matrix has degrees [1, 2], not one")):
        cx32.dc_matrix(2).order()
    with pytest.raises(ValueError, match=re.escape("degrees []")):
        OperatorMatrix.zeros(cx32.algebra, 2, 2).order()


def test_block_homogeneity(cx):
    for h in range(5):
        m = cx.dc_matrix(h)
        rows = [xi.weight() for xi in cx.E0(h + 1)]
        cols = [xi.weight() for xi in cx.E0(h)]
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if e:
                    assert e.degrees() == {rows[i] - cols[j]}


def test_star_matrices_match_published(cx):
    assert star_listing(cx, 1) == [[0, -1], [1, 0]]
    assert star_listing(cx, 2) == [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    assert star_listing(cx, 3) == [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    assert star_listing(cx, 4) == [[0, 1], [-1, 0]]


def test_star_outside_the_target_span_is_refused():
    """The star matrix rebuilds each star exactly or raises: with E0^4 cut
    to theta1345, the star of theta1 (theta2345) has no coefficients."""
    fresh = RuminComplex(cartan_group())
    fresh.memo["RuminComplex._basis"][(4,)] = ((th(fresh, 1, 3, 4, 5),), (1,))
    with pytest.raises(SpanMismatch,
                       match=r"star of E0\^1 leaves the span of E0\^4"):
        fresh.star_matrix(1)


def test_chain_map_identity(cx):
    for h in range(5):
        sym = cx.symbolic_basis_form(h)
        lifted = cx.pi_E(sym)
        dc_rows = cx.dc_matrix(h).entries
        rhs = cx.pi_E(cx.opform_from_rows(dc_rows, h + 1, sym.slots))
        assert lifted.d_full() == rhs


def test_abelian_complex_is_de_rham():
    alg = StratifiedLieAlgebra((3,), {})
    cx3 = RuminComplex(alg)
    assert cx3.dims() == (1, 3, 3, 1)
    for h in range(3):
        assert (cx3.dc_matrix(h + 1) @ cx3.dc_matrix(h)).is_zero()
    # Pi_E is the identity and d_c is the first-layer differential
    sym = cx3.symbolic_basis_form(1)
    assert cx3.pi_E(sym) == sym
    assert cx3.dc_orders() == ({1}, {1}, {1})


def test_operator_matrix_render_round_trip(cx):
    import json

    m = cx.dc_matrix(1)
    blob = json.loads(m.render("json"))
    g = cx.algebra
    parsed = [[EnvElement.parse(g, cell) for cell in row]
              for row in blob["entries"]]
    assert parsed == m.entries


def test_operator_matrix_shape_mismatch_is_value_error(cx):
    # raised, not asserted, so that it holds under python -O as well
    a = OperatorMatrix.zeros(cx.algebra, 3, 2)
    with pytest.raises(ValueError, match=r"\(3, 2\) @ \(3, 2\)"):
        a @ a
    with pytest.raises(ValueError, match=r"\(3, 2\) \+ \(2, 3\)"):
        a + OperatorMatrix.zeros(cx.algebra, 2, 3)


def test_equality_compares_the_algebra():
    # empty matrices and tensors over two groups, or with other slots,
    # have equal entries and still differ
    one, other = cartan_group(), cartan_group()
    assert OperatorMatrix.zeros(one, 0, 2) == OperatorMatrix.zeros(one, 0, 2)
    assert OperatorMatrix.zeros(one, 0, 2) != OperatorMatrix.zeros(other, 0, 2)
    assert OperatorMatrix.zeros(one, 2, 0) != OperatorMatrix.zeros(other, 2, 0)
    tensor = HorizontalTensor(one, 1, 2, {})
    assert tensor == HorizontalTensor(one, 1, 2, {})
    assert tensor != HorizontalTensor(other, 1, 2, {})
    assert tensor != HorizontalTensor(one, 1, 3, {})


def _dc_per_basis_element(cx, h):
    """d_c built column by column: lift one basis element at a time."""
    cols = []
    for xi in cx.E0(h):
        lifted = cx.pi_E(OperatorForm.from_form(xi))
        cols.append([r[0] for r in cx.pi_E0(lifted.d_full())])
    return [[col[i] for col in cols] for i in range(len(cx.E0(h + 1)))]


def _heisenberg(n):
    return load_group(f"heisenberg:{n}")


@pytest.mark.parametrize("make", [cartan_group,
                                  lambda: free_nilpotent(3, 2),
                                  lambda: free_nilpotent(2, 4),
                                  lambda: _heisenberg(3)],
                         ids=["cartan", "free-3-2", "free-2-4", "H3"])
def test_dc_matrix_equals_per_basis_element_construction(make):
    cx = RuminComplex(make())
    for h in range(cx.algebra.n):
        m = cx.dc_matrix(h)
        assert m.shape == (len(cx.E0(h + 1)), len(cx.E0(h)))
        assert m.entries == _dc_per_basis_element(cx, h)


# sha256 of the JSON listings of every d_c and delta_c matrix, recorded before
# the exterior builders accumulated in flat dicts, and again when roots became
# keyed by their square-free radicand, which changed only the root text; only
# Cartan has golden files
DC_DELTAC_DIGESTS = {
    "free-3-2":
        "5f3df726c446b13228d8b329285def6534c246a182c07705d3bfebda9d3b1ca9",
    "free-2-4":
        "a0999b596bd54bc73b798fe34ef78f3d72783f0e8c2719b2d8d4d59d47f7e0c2",
    "H3": "b89dab42a1af31103a12b366f559c8e4e7e30d566095384689a691b985397fa8",
}


@pytest.mark.parametrize("name, make",
                         [("free-3-2", lambda: free_nilpotent(3, 2)),
                          ("free-2-4", lambda: free_nilpotent(2, 4)),
                          ("H3", lambda: _heisenberg(3))])
def test_dc_deltac_entries_digest(name, make):
    cx = RuminComplex(make())
    degrees = range(cx.algebra.n + 1)
    listing = {"dc": [cx.orthonormal(cx.dc_matrix(h), h + 1, h).to_json()
                      for h in degrees],
               "deltac": [cx.orthonormal(cx.deltac_matrix(h), h - 1,
                                         h).to_json() for h in degrees]}
    text = json.dumps(listing, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DC_DELTAC_DIGESTS[name]


# sha256 of every E0 basis (covector -> coefficient) and of dims(), recorded
# before linalg's elimination and Gram-Schmidt became sparse; free-4-2 and
# free-2-4 were recorded again when roots became keyed by their square-free
# radicand, which changed only the root text
E0_DIGESTS = {
    "free-4-2":
        "4bd2758593f8076c45592d9d0de8f29729b599039f607cfdac446692a952a03e",
    "free-2-4":
        "c015ec97e7b4eabfd9abf1b84880fb785989174679b17b8d5b568ac2536131b4",
    "free-3-2":
        "e7f6e2f2ebd4d0cd74ca2d45d3874112178159a6ed1d05475839dd00ea3a2f63",
    "H3": "52cf8f0a6ea5712f19fe86bf0bf1a07672f87f7f5b9ef80bff97cd136c9650eb",
}


def test_root_text_does_not_depend_on_what_was_printed_before():
    """A root is keyed by its square-free radicand, so d_c prints the same
    text on a fresh complex and on one that printed delta_c first."""
    fresh = RuminComplex(free_nilpotent(2, 4))
    used = RuminComplex(free_nilpotent(2, 4))
    used.orthonormal(used.deltac_matrix(5), 4, 5).to_json()
    assert used.orthonormal(used.dc_matrix(3), 4, 3).to_json() == \
        fresh.orthonormal(fresh.dc_matrix(3), 4, 3).to_json()


@pytest.mark.parametrize("name, make",
                         [("free-4-2", lambda: free_nilpotent(4, 2)),
                          ("free-2-4", lambda: free_nilpotent(2, 4)),
                          ("free-3-2", lambda: free_nilpotent(3, 2)),
                          ("H3", lambda: _heisenberg(3))])
def test_E0_bases_digest(name, make):
    cx = RuminComplex(make())
    listing = {"dims": list(cx.dims()),
               "E0": [[[[list(t), str(c)] for t, c in sorted(xi.terms.items())]
                       for xi in cx.orthonormal_basis(h)]
                      for h in range(cx.algebra.n + 1)]}
    text = json.dumps(listing, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == E0_DIGESTS[name]


@pytest.mark.parametrize("make", [cartan_group, lambda: free_nilpotent(3, 2),
                                  lambda: free_nilpotent(2, 4),
                                  lambda: free_nilpotent(4, 2)],
                         ids=["cartan", "free-3-2", "free-2-4", "free-4-2"])
def test_d0_algebra_runs_in_Q(make):
    """The d0 blocks, their ranks, nullspaces and stored pseudoinverses
    hold canonical ints and Fractions, no Scalar and no float, and equal
    sympy's rank, nullspace and pinv of the same blocks, an elimination
    that shares no code with linalg."""
    sympy = pytest.importorskip("sympy")
    alg = make()
    cx = RuminComplex(alg)

    def canonical(rows):
        return all(type(x) is int or type(x) is Fraction and x.denominator != 1
                   for row in rows for x in row.values())

    def dense(rows, ncols):
        return [[Fraction(row.get(j, 0)) for j in range(ncols)]
                for row in rows]

    def from_sympy(rows):
        return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]

    for h in range(alg.n):
        for w, (rows, dom, cod) in cx.d0_blocks(h).items():
            assert canonical(rows)
            s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                               for x in row] for row in dense(rows, len(dom))])
            assert cx.d0_rank(h, w) == linalg.rank(rows) == s.rank()
            kernel = linalg.nullspace(rows, len(dom))
            pinv = cx.d0_pinv_block(h, w)
            assert canonical(kernel) and canonical(pinv)
            assert dense(kernel, len(dom)) == \
                from_sympy([list(v) for v in s.nullspace()])
            assert dense(pinv, len(cod)) == from_sympy(s.pinv().tolist())


# test_products' group with irrational and fractional structure constants
SKEW_SPEC = {"layers": [2, 1, 2],
             "brackets": {"1,2": {"3": "1/2*sqrt(2)"}, "1,3": {"4": "2/3"},
                          "2,3": {"5": "sqrt(2)"}}}


def assert_one_form(x):
    """x is an int, a Fraction that is not integral, or a Scalar with an
    irrational term, whose coefficients are in the same one form."""
    if type(x) is Scalar:
        assert x.terms.keys() - {1}, x.terms
        for c in x.terms.values():
            assert_one_form(c)
            assert c
    else:
        assert type(x) in (int, Fraction), type(x)
        assert type(x) is int or x.denominator != 1, x


@pytest.mark.parametrize("make", [
    cartan_group, lambda: free_nilpotent(3, 2), lambda: free_nilpotent(2, 4),
    lambda: StratifiedLieAlgebra((6, 1), {(i, i + 3): {7: 1}
                                          for i in range(1, 4)}),
    lambda: StratifiedLieAlgebra.from_json(SKEW_SPEC)],
    ids=["cartan", "free-3-2", "free-2-4", "H3", "skew"])
def test_no_rational_scalar_exists(make):
    """Every exact value the engine holds is in its one form: no float, no
    integral Fraction and no Scalar without an irrational term, from the
    bracket table through d0, E0 and the star to d_c, delta_c and the
    coordinate oracle."""
    alg = make()
    cx = RuminComplex(alg)
    values = [c for vec in alg.brackets.values() for c in vec.values()]
    for h in range(alg.n + 1):
        for j in covectors(alg, h):
            values += d0_covector(alg, j).values()
        for w, (rows, _, _) in cx.d0_blocks(h).items():
            for block in (rows, cx.d0_pinv_block(h, w)):
                values += [x for row in block for x in row.values()]
        values += [c for xi in cx.E0(h) for c in xi.terms.values()]
        values += [x for row in cx.star_matrix(h) for x in row.values()]
        matrices = [cx.dc_matrix(h)] + ([cx.deltac_matrix(h)] if h else [])
        values += [c for m in matrices for row in m.entries for e in row
                   for c in e.terms.values()]
    if alg.realization is not None:
        p = Polynomial.parse(5, "x1^3*x2 + 1/2*x2^2*x5 - x4")
        polys = [u for row in alg.realization.fields for u in row]
        for word in ((1,), (2, 1), (2, 3, 2), (1, 2, 2, 1)):
            polys.append(alg.realization.apply_word(word, p))
            polys.append(coordinate_apply(EnvElement.from_word(alg, word), p))
        values += [c for u in polys for c in u.terms.values()]
    assert values
    for x in values:
        assert_one_form(x)


@pytest.mark.parametrize("make", [cartan_group, lambda: free_nilpotent(3, 2),
                                  lambda: free_nilpotent(2, 4),
                                  lambda: _heisenberg(3)],
                         ids=["cartan", "free-3-2", "free-2-4", "H3"])
def test_core_is_rational(make):
    """On groups with rational structure constants the core holds no
    square root: every E0 vector and norm, d0 pseudoinverse, Pi_E0 row,
    lift, d_c, delta_c and star entry, and every Cartan Laplacian
    coefficient, is an int or a non-integral Fraction, and every operator
    holds int numerators over its denominator.  The roots of the
    orthonormal view are elsewhere."""
    from carnot.laplacians import FAMILIES, laplacian

    alg = make()
    cx = RuminComplex(alg)
    n = alg.n
    values, ops = [], []
    for h in range(n + 1):
        values += [c for xi in cx.E0(h) for c in xi.terms.values()]
        values += cx.norms(h)
        values += [x for row in cx.star_matrix(h) for x in row.values()]
        if h < n:
            values += [x for w in cx.d0_blocks(h)
                       for row in cx.d0_pinv_block(h, w) for x in row.values()]
        lifted = cx.lift(h)
        ops += lifted.terms.values()
        ops += [u for row in cx.pi_E0(lifted) for u in row]
        for m in (cx.dc_matrix(h), cx.deltac_matrix(h)):
            ops += [u for row in m.entries for u in row]
        if alg.is_cartan_table():
            for fam in FAMILIES:
                ops += [u for row in laplacian(cx, fam, h).entries
                        for u in row]
    values += [c for u in ops for c in u.terms.values()]
    assert values
    for x in values:
        assert type(x) is int or type(x) is Fraction and x.denominator != 1, x
    numerators = [c for u in ops for c in u._packed.values()]
    assert numerators and all(type(c) is int for c in numerators)
    if alg.is_cartan_table():
        view = cx.orthonormal(cx.dc_matrix(2), 3, 2)
        assert any(type(c) is Scalar for row in view.entries for u in row
                   for c in u.terms.values())


def test_matrix_product_refuses_two_algebras():
    """@ over two copies of one group raises, as + and * of entries do."""
    from carnot.env import AlgebraMismatch

    a, b = RuminComplex(cartan_group()), RuminComplex(cartan_group())
    with pytest.raises(AlgebraMismatch):
        a.dc_matrix(1) @ b.dc_matrix(0)
    assert (a.dc_matrix(1) @ a.dc_matrix(0)).is_zero()
