import hashlib
import json

import pytest

from carnot.env import EnvElement
from carnot.estimates import HorizontalTensor
from carnot.exterior import Form, OperatorForm
from carnot.liealg import StratifiedLieAlgebra, cartan_group, free_nilpotent
from carnot.rumin import (OperatorMatrix, RuminComplex, SpanMismatch,
                          StarAdjointMismatch)
from carnot.verify import star_listing


@pytest.fixture(scope="module")
def cx():
    return RuminComplex(cartan_group())


def th(cx, *idx):
    return Form.basis(cx.algebra, idx)


def test_dims(cx):
    assert cx.dims() == (1, 2, 3, 3, 2, 1)


def test_E0_bases_match_published(cx):
    g = cx.algebra
    inv_s2 = g.field.sqrt(2).inverse()
    assert list(cx.E0(1)) == [th(cx, 1), th(cx, 2)]
    xi2 = (th(cx, 2, 4) + th(cx, 1, 5)).scale(inv_s2)
    assert list(cx.E0(2)) == [th(cx, 1, 4), xi2, th(cx, 2, 5)]
    xi3 = (th(cx, 1, 3, 5) + th(cx, 2, 3, 4)).scale(inv_s2)
    assert list(cx.E0(3)) == [th(cx, 1, 3, 4), xi3, th(cx, 2, 3, 5)]
    assert list(cx.E0(4)) == [th(cx, 1, 3, 4, 5), th(cx, 2, 3, 4, 5)]
    assert list(cx.E0(0)) == [Form.basis(cx.algebra, ())]
    assert list(cx.E0(5)) == [Form.volume(cx.algebra)]
    assert cx.E0(2).weights == (4, 4, 4)
    assert cx.E0(3).weights == (6, 6, 6)


def test_E0_elements_are_intrinsic_and_orthonormal(cx):
    for h in range(6):
        basis = cx.E0(h)
        for i, xi in enumerate(basis):
            assert xi.d0().is_zero()
            assert xi.delta0().is_zero()
            for j, eta in enumerate(basis):
                expected = cx.algebra.field(1 if i == j else 0)
                assert xi.inner(eta) == expected
        assert list(basis.weights) == sorted(basis.weights)


def test_d0_pinv_examples(cx):
    assert cx.d0_pinv(th(cx, 1, 2)) == -th(cx, 3)
    assert cx.d0_pinv(th(cx, 1, 4)).is_zero()
    assert cx.d0_pinv(th(cx, 4).d0()) == th(cx, 4)


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
        from carnot.exterior import covectors
        for t in covectors(cx.algebra, h + 1):
            beta = Form.basis(cx.algebra, t)
            alpha = cx.d0_pinv(beta)
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
    f = cx.algebra.field
    assert cx.pi_E0(th(cx, 1, 4)) == [f(1), f(0), f(0)]
    assert cx.pi_E0(th(cx, 1, 2)) == [f(0), f(0), f(0)]
    assert cx.pi_E0(list(cx.E0(3))[1]) == [f(0), f(1), f(0)]


def test_dc_entries_match_published_samples(cx):
    g = cx.algebra
    d0 = cx.dc_matrix(0)
    assert d0.entries == [[EnvElement.generator(g, 1)],
                          [EnvElement.generator(g, 2)]]
    d2 = cx.dc_matrix(2)
    assert d2.entries[0][0] == EnvElement.parse(g, "-X1X2 - X3")
    assert d2.entries[0][1] == EnvElement.parse(g, "X1^2/sqrt(2)")
    assert d2.entries[0][2].is_zero()
    d4 = cx.dc_matrix(4)
    assert d4.entries == [[EnvElement.parse(g, "-X2"),
                           EnvElement.parse(g, "X1")]]


def test_deltac_examples(cx):
    g = cx.algebra
    assert cx.deltac_matrix(1).entries == [[EnvElement.parse(g, "-X1"),
                                            EnvElement.parse(g, "-X2")]]
    assert cx.deltac_matrix(5).entries == [[EnvElement.parse(g, "X2")],
                                           [EnvElement.parse(g, "-X1")]]
    assert cx.deltac_matrix(3).entries[1][1] == EnvElement.parse(g, "3/2X3")


def test_deltac_sign_recorded(cx):
    for h in range(1, 6):
        assert cx.deltac_star_adjoint_sign(h) == 1


def test_deltac_checked_once_whichever_is_asked_first(monkeypatch):
    """delta_c is compared with the adjoint transpose once per degree, and
    refused on a wrong sign even when the sign was asked for first."""
    calls = []
    adjoint = OperatorMatrix.transpose_adjoint

    def counting(self):
        calls.append(self.shape)
        return adjoint(self)

    monkeypatch.setattr(OperatorMatrix, "transpose_adjoint", counting)
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
    assert cx.dc_orders() == (1, 3, 2, 3, 1)


def test_block_homogeneity(cx):
    for h in range(5):
        m = cx.dc_matrix(h)
        rows, cols = cx.E0(h + 1).weights, cx.E0(h).weights
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if e:
                    assert e.homogeneity() == rows[i] - cols[j]


def test_align_basis(cx):
    g = cx.algebra
    f = g.field
    ident = cx.align_basis(1, [th(cx, 1), th(cx, 2)])
    assert ident == [{0: f(1)}, {1: f(1)}]
    # signed permutation alignment
    t = cx.align_basis(1, [-th(cx, 2), th(cx, 1)])
    assert t == [{1: f(1)}, {0: f(-1)}]
    with pytest.raises(SpanMismatch):
        cx.align_basis(1, [th(cx, 1), th(cx, 3)])
    with pytest.raises(SpanMismatch):
        cx.align_basis(1, [th(cx, 1), th(cx, 1)])


def test_star_matrices_match_published(cx):
    assert star_listing(cx, 1) == [[0, -1], [1, 0]]
    assert star_listing(cx, 2) == [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    assert star_listing(cx, 3) == [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    assert star_listing(cx, 4) == [[0, 1], [-1, 0]]


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
    assert cx3.dc_orders() == (1, 1, 1)


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
        cols.append([r[0] for r in cx.pi_E0(lifted.d_full(), h + 1)])
    return [[col[i] for col in cols] for i in range(len(cx.E0(h + 1)))]


def _heisenberg(n):
    return StratifiedLieAlgebra((2 * n, 1),
                                {(i, i + n): {2 * n + 1: 1}
                                 for i in range(1, n + 1)})


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
# the exterior builders accumulated in flat dicts; only Cartan has golden files
DC_DELTAC_DIGESTS = {
    "free-3-2":
        "908ff4a55948ec8bd99395fb214d9750371bf486e3de669150ec5b97ec2a61bc",
    "free-2-4":
        "74b22e4d1fa0fa4d0fea7faaaad7931022d5751822adc231df7e0223aeef0d2b",
    "H3": "7e84f12469cb72c39a29d20edfcb02d56140ed1a782207403e7fe08680dd13b5",
}


@pytest.mark.parametrize("name, make",
                         [("free-3-2", lambda: free_nilpotent(3, 2)),
                          ("free-2-4", lambda: free_nilpotent(2, 4)),
                          ("H3", lambda: _heisenberg(3))])
def test_dc_deltac_entries_digest(name, make):
    cx = RuminComplex(make())
    degrees = range(cx.algebra.n + 1)
    listing = {"dc": [cx.dc_matrix(h).to_json() for h in degrees],
               "deltac": [cx.deltac_matrix(h).to_json() for h in degrees]}
    text = json.dumps(listing, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DC_DELTAC_DIGESTS[name]


# sha256 of every E0 basis (covector -> coefficient) and of dims(), recorded
# before linalg's elimination and Gram-Schmidt became sparse
E0_DIGESTS = {
    "free-4-2":
        "9423fd5500f5984640a623ccc507905eb6d00882dcb78e99d464693b0a0de892",
    "free-2-4":
        "cec25c464cd951767d7b166af0868dd262264b369a9c31cda1fe3d90e8e9e85d",
    "free-3-2":
        "e7f6e2f2ebd4d0cd74ca2d45d3874112178159a6ed1d05475839dd00ea3a2f63",
    "H3": "52cf8f0a6ea5712f19fe86bf0bf1a07672f87f7f5b9ef80bff97cd136c9650eb",
}


@pytest.mark.parametrize("name, make",
                         [("free-4-2", lambda: free_nilpotent(4, 2)),
                          ("free-2-4", lambda: free_nilpotent(2, 4)),
                          ("free-3-2", lambda: free_nilpotent(3, 2)),
                          ("H3", lambda: _heisenberg(3))])
def test_E0_bases_digest(name, make):
    cx = RuminComplex(make())
    listing = {"dims": list(cx.dims()),
               "E0": [[[[list(t), str(c)] for t, c in sorted(xi.terms.items())]
                       for xi in cx.E0(h)]
                      for h in range(cx.algebra.n + 1)]}
    text = json.dumps(listing, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == E0_DIGESTS[name]
