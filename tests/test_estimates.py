import hashlib
from fractions import Fraction

import pytest

from carnot import estimates as est
from carnot.cli import main
from carnot.env import EnvElement
from carnot.liealg import cartan_group
from carnot.rumin import RuminComplex
from carnot.scalars import parse, sqrt


@pytest.fixture(scope="module")
def cx():
    return RuminComplex(cartan_group())


def test_kernel_type_basics():
    kt = est.kernel_type_of_inverse(6, 10)
    assert kt.mu == 6 and not kt.log_regime
    assert est.kernel_type_of_inverse(12, 10).log_regime
    assert est.kernel_type_of_inverse(2, 10).mu == 2
    with pytest.raises(est.OutOfRange):
        est.kernel_type_of_inverse(0, 10)


def test_differentiate_type():
    kt = est.KernelType(6, 10)
    assert est.differentiate_type(kt, 4).mu == 2
    assert est.differentiate_type(est.KernelType(12, 10), 7).mu == 5
    assert est.differentiate_type(est.KernelType(3, 10), 0).mu == 3


def test_folland_map():
    assert est.folland_map(Fraction(10, 3), est.KernelType(2, 10)) == 10
    assert est.folland_map(Fraction(10, 6), est.KernelType(5, 10)) == 10
    with pytest.raises(est.OutOfRange):
        est.folland_map(5, est.KernelType(10, 10))
    with pytest.raises(est.OutOfRange):
        est.folland_map(6, est.KernelType(2, 10))


def test_sobolev_dual_exponent():
    assert est.sobolev_dual_exponent(6, 3, 10) == Fraction(10, 7)
    assert est.sobolev_dual_exponent(2, 1, 10) == Fraction(10, 9)
    assert est.sobolev_dual_exponent(6, 4, 10) == Fraction(10, 8)
    with pytest.raises(est.OutOfRange):
        est.sobolev_dual_exponent(6, 6, 10)


def _by_key(rows):
    return {(r.h, r.term, r.part): r for r in rows}


def test_table_H2(cx):
    rows = est.theorem_table(cx, "H2")
    assert len(rows) == 10
    per_degree = {0: 1, 1: 3, 2: 3, 3: 3, 4: 3, 5: 1}
    for r in rows:
        assert r.paper == Fraction(10, 10 - per_degree[r.h])
        assert r.agree and r.derived == r.paper
        assert r.window_ok
    by = _by_key(rows)
    assert by[(1, "g", None)].norm == "H1"
    assert by[(4, "f", None)].norm == "H1"
    assert by[(2, "f", None)].rhs == "grad f"
    assert by[(3, "g", None)].rhs == "grad g"


def test_tables_are_built_once_per_complex(cx):
    assert est.theorem_table(cx, "H2sum") is est.theorem_table(cx, "H2sum")


def test_table_C2_with_documented_discrepancy(cx):
    rows = est.theorem_table(cx, "C2")
    by = _by_key(rows)
    for h, k in ((0, 1), (1, 3), (4, 3), (5, 1)):
        for r in rows:
            if r.h == h:
                assert r.paper == Fraction(10, 10 - k)
                assert r.agree and r.discrepancy is None
    # degrees 2 and 3: derived agrees with the display, and the record
    # reports the alternative order-sum derivation
    for key in ((2, "f", None), (3, "g", None)):
        r = by[key]
        assert r.paper == Fraction(10, 4)
        assert r.derived == Fraction(10, 4)
        disc = r.discrepancy
        assert disc is not None
        assert disc["engine_exponent"] == "5/2"        # Q/(Q-6)
        assert disc["prose_ordersum_exponent"] == "2"  # Q/(Q-5)
        assert disc["engine_kernel_type"] == 5
        assert disc["prose_kernel_type"] == 4
    assert by[(2, "g", None)].discrepancy is None
    assert by[(3, "f", None)].discrepancy is None


def test_table_H2cor(cx):
    rows = est.theorem_table(cx, "H2cor")
    assert len(rows) == 10
    expected = {("coclosed", 0): 1, ("coclosed", 1): 3, ("coclosed", 2): 2,
                ("coclosed", 3): 3, ("coclosed", 4): 1,
                ("closed", 1): 1, ("closed", 2): 3, ("closed", 3): 2,
                ("closed", 4): 3, ("closed", 5): 1}
    for r in rows:
        k = expected[(r.part, r.h)]
        assert r.paper == Fraction(10, 10 - k)
        assert r.agree


def test_table_H2sum_pairs(cx):
    pairs = est.sum_space_pairs(cx)
    assert set(pairs) == {1, 2, 3, 4}
    for h, info in pairs.items():
        assert info["agree"], (h, info)
    assert pairs[1]["paper_display"] == "L^{Q/(Q-3)}+L^{Q/(Q-1)}"
    assert pairs[2]["paper_display"] == "L^{Q/(Q-3)}+L^{Q/(Q-2)}"


def test_derived_exponents_recomputed_from_matrix_orders(cx):
    # every chain label of the form d_c^h / delta_c^h carries the
    # homogeneity of the corresponding computed matrix
    orders = {h: cx.dc_matrix(h).order() for h in range(5)}
    for tag in ("H2", "C2", "H2cor", "H2sum"):
        for r in est.theorem_table(cx, tag):
            for label, order in r.chain:
                if label.startswith("d_c^"):
                    assert order == orders[int(label[4:])]
                elif label.startswith("delta_c^"):
                    assert order == orders[int(label[8:]) - 1]


def test_paper_tensor_examples(cx):
    g = cx.algebra
    t4 = est.paper_tensor(cx, 4)
    assert t4.order == 1
    assert t4.entries[(2,)][0] == EnvElement.one(g).scale(-1)
    assert t4.entries[(1,)][1] == EnvElement.one(g)

    t2 = est.paper_tensor(cx, 2)
    assert t2.order == 2 and not t2.is_symmetric()
    assert t2.entries[(1, 1)][2] == EnvElement.one(g).scale(parse("3/2"))
    assert t2.entries[(1, 2)][1] \
        == EnvElement.one(g).scale(parse("-5/(2*sqrt(2))"))

    t1 = est.paper_tensor(cx, 1)
    assert t1.order == 3 and t1.is_symmetric()
    third = parse("1/3")
    for idx in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        assert t1.entries[idx][0] == EnvElement.one(g).scale(third)
    assert t1.entries[(1, 1, 1)][1] == EnvElement.one(g).scale(-1)


def test_generalized_divergence_conventions_differ(cx):
    t2 = est.paper_tensor(cx, 2)
    cvs = est.generalized_divergence(t2, "cvs")
    pie = est.generalized_divergence(t2, "pierre")
    assert cvs != pie
    # pierre ordering reproduces the printed row for the stored tensor
    assert pie == est.proof_row(cx, 2)
    # symmetric tensors are convention independent
    t1 = est.paper_tensor(cx, 1)
    assert est.generalized_divergence(t1, "cvs") \
        == est.generalized_divergence(t1, "pierre")


def test_h4_divergence_is_dc_row(cx):
    t4 = est.paper_tensor(cx, 4)
    for conv in ("cvs", "pierre"):
        row = est.generalized_divergence(t4, conv)
        cert = est.check_row_membership(row, cx.dc_matrix(4))
        assert cert is not None
        assert [e.render() for e in cert] == ["1"]


def test_h3_proof_tensor_certificate(cx):
    # the cvs proof tensors divide to the proof rows in every degree, so
    # verify certifies the proof tensors by the rows' certificates
    for h in (1, 2, 4):
        pt = est.proof_tensor(cx, h, "cvs")
        assert est.generalized_divergence(pt, "cvs") == est.proof_row(cx, h)
    pt = est.proof_tensor(cx, 3, "cvs")
    row = est.generalized_divergence(pt, "cvs")
    assert row == est.proof_row(cx, 3)
    dc3 = cx.orthonormal(cx.dc_matrix(3), 4, 3)
    cert = est.check_row_membership(row, dc3)
    assert [e.render() for e in cert] == ["1", "0"]


def test_h1_proof_row_is_minus_first_dc_row(cx):
    row = est.proof_row(cx, 1)
    cert = est.check_row_membership(row, cx.dc_matrix(1))
    assert [e.render() for e in cert] == ["-1", "0", "0"]


def test_zero_row_certificate(cx):
    zero_row = [EnvElement.zero(cx.algebra)] * 2
    cert = est.check_row_membership(zero_row, cx.dc_matrix(4))
    assert all(not e for e in cert)


def test_membership_rejects_off_module_row(cx):
    g = cx.algebra
    # (X1, X1) against the single top row (-X2, X1): constants cannot work
    row = [EnvElement.parse(g, "X1"), EnvElement.parse(g, "X1")]
    assert est.check_row_membership(row, cx.dc_matrix(4)) is None


def test_cartan_pairing_matches_direct(cx):
    for h in (1, 2, 3, 4):
        form = cx.pi_E(cx.symbolic_basis_form(h))
        z = est.PAIRING_FIELDS[h]
        assert est.cartan_pairing(cx, form, z) == est.direct_pairing(form, z)


def test_h1_derived_row_identity(cx):
    g = cx.algebra
    row = est.derived_row(cx, 1)
    assert row[0] == EnvElement.parse(g, "X4 + X1X3 + X1^2X2")
    assert row[1] == EnvElement.parse(g, "-X1^3")
    assert row == est.proof_row(cx, 1)


def test_h2_derived_row_is_scaled_second_dc_row(cx):
    g = cx.algebra
    row = est.derived_row(cx, 2)
    inv_s2 = sqrt(2).inverse()
    expected = [e.scale(inv_s2)
                for e in cx.orthonormal(cx.dc_matrix(2), 3, 2).entries[1]]
    assert row == expected
    assert row != est.proof_row(cx, 2)


def test_solver_round_trip_and_counterexample(cx):
    g = cx.algebra
    row1 = list(cx.dc_matrix(1).entries[0])
    t = est.solve_divergence_tensor(g, row1, 3, "cvs")
    assert t is not None
    back = est.generalized_divergence(t, "cvs")
    assert back == row1
    # order-1 target: the stored degree-4 tensor comes back
    target = est.generalized_divergence(est.paper_tensor(cx, 4), "cvs")
    t4 = est.solve_divergence_tensor(g, target, 1, "cvs")
    assert est.generalized_divergence(t4, "cvs") == target
    # X3 is not horizontal
    bad = [EnvElement.parse(g, "X3")]
    assert est.solve_divergence_tensor(g, bad, 1, "cvs") is None


def test_tensor_findings_shape(cx):
    findings = est.tensor_findings(cx, "cvs")
    assert [f["check"] for f in findings] == [
        "pierre-h1-tensor", "pierre-h2-tensor",
        "pierre-h3-tensor", "pierre-h4-tensor"]
    by = {f["check"]: f for f in findings}
    assert by["pierre-h4-tensor"]["status"] == "certified"
    for h in (1, 2, 3):
        f = by[f"pierre-h{h}-tensor"]
        assert f["status"] == "mismatch"
        assert f["certificate"] is None
        assert f["corrected_tensor"] is not None
        assert f["corrected_roundtrip_exact"]
    assert by["pierre-h1-tensor"]["paper_row_certificate"] is not None
    assert by["pierre-h2-tensor"]["paper_row_certificate"] is None
    assert by["pierre-h2-tensor"]["paper_row_matches_derived"] is False
    assert by["pierre-h3-tensor"]["paper_row_matches_derived"] is True


def test_tensor_order_matches_dc_order(cx):
    for h in (1, 2, 3, 4):
        t = est.paper_tensor(cx, h)
        assert t.order == cx.dc_matrix(h).order()


# sha256 of the JSON output of the estimate queries, recorded while the
# tables still stated method, norm and discrepancy values row by row: a
# derived column that drifts changes a digest
ESTIMATE_DIGESTS = {
    "exponents --theorem H2":
        "0fc682b6f2301cfb77b23962aa2dd556456bff8305282f77313931aec11059fa",
    "exponents --theorem C2":
        "e86851e47c417214de13ee8266fbfa0e5786922da7056461aa0a3fa4ad298626",
    "exponents --theorem H2cor":
        "54212ade00cf4de2d43fe74d0ef2dca182d14f496520f129f122466d521ffae6",
    "exponents --theorem H2sum":
        "137c1cdc548286e9485c3d2586c8f781b38b2554e58c5ca547cd192207816763",
    "tensors --convention cvs":
        "72bc03d8f0bc7e83462388d8174b8c3c916de5685a7b6cdcf5bcd7c967ce8cc7",
    "tensors --convention pierre":
        "840f5b856d22aa4e470c1bf5857500ae8a23d4cf61d6c6da223162077344db61",
}


@pytest.mark.parametrize("query", sorted(ESTIMATE_DIGESTS))
def test_estimate_output_digests(query, capsys):
    assert main([*query.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ESTIMATE_DIGESTS[query]
