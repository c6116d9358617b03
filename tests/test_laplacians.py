import hashlib
import json
import re

import pytest

from carnot.env import EnvElement
from carnot.laplacians import (UnsupportedGroup, a_delta, hodge_conjugate,
                               homogeneous_dc_orders, laplacian, order_table,
                               recipe, star_duality_sign, target_order,
                               verify_homogeneous_order, verify_self_adjoint)
from carnot.liealg import StratifiedLieAlgebra, cartan_group, free_nilpotent
from carnot.rumin import RuminComplex

# the orders of the three families on the Cartan group, as published
EXPECTED_ORDERS = {
    "G": (12, 12, 12, 12, 12, 12),
    "R": (2, 6, 12, 12, 6, 2),
    "A": (2, 6, 6, 6, 6, 2),
}


@pytest.fixture(scope="module")
def cx():
    return RuminComplex(cartan_group())


@pytest.fixture(scope="module")
def laps(cx):
    return {fam: [laplacian(cx, fam, h) for h in range(6)]
            for fam in ("A", "R", "G")}


def test_sub_laplacian_at_degree_zero(cx, laps):
    g = cx.algebra
    expected = [[EnvElement.parse(g, "-X1^2 - X2^2")]]
    assert laps["A"][0].entries == expected
    assert laps["R"][0].entries == expected


# sha256 of the entries of all 18 Laplacians, recorded before the PBW
# product kernel worked on raw coefficients; the golden file holds only
# their orders
LAPLACIAN_DIGEST = \
    "83a4de2668d97a3a2c22c8f5b212e484a1c255e9404f7ad5eb436dd34a653029"


def test_laplacian_entries_digest(laps):
    listing = {fam: [m.to_json() for m in laps[fam]] for fam in "GRA"}
    text = json.dumps(listing, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LAPLACIAN_DIGEST


def test_order_tables(cx, laps):
    for fam, mats in laps.items():
        assert [m.homogeneous_order() for m in mats] \
            == list(EXPECTED_ORDERS[fam])


def test_homogeneous_order_reports(cx, laps):
    for fam, mats in laps.items():
        for h, m in enumerate(mats):
            rep = verify_homogeneous_order(m, EXPECTED_ORDERS[fam][h])
            assert rep["homogeneous"], (fam, h, rep)


def test_self_adjointness(cx, laps):
    for fam, mats in laps.items():
        for h, m in enumerate(mats):
            rep = verify_self_adjoint(m)
            assert rep["applicable"] and rep["self_adjoint"], (fam, h)


def test_self_adjoint_not_applicable_for_rectangular(cx):
    rep = verify_self_adjoint(cx.dc_matrix(1))
    assert rep["applicable"] is False


def test_a_delta_shape_and_degree(cx):
    m = a_delta(cx, 2)
    assert m.shape == (3, 3)
    assert m.homogeneous_order() == 2
    assert a_delta(cx, 1).shape == (2, 2)
    for h in (-1, 6):
        with pytest.raises(ValueError):
            a_delta(cx, h)


def test_A2_A3_star_conjugacy(cx, laps):
    assert laps["A"][3] == hodge_conjugate(cx, laps["A"][2], 2)
    assert a_delta(cx, 3).conjugate(cx.star_matrix(3), cx.star_matrix(2),
                                    len(cx.E0(2))) == a_delta(cx, 2)


def test_families_agree_away_from_middle(cx, laps):
    for h in (0, 1, 4, 5):
        assert laps["A"][h] == laps["R"][h]
    for h in (2, 3):
        assert laps["A"][h] != laps["R"][h]
        assert laps["G"][h] == laps["R"][h]


def test_star_duality_signs(cx):
    for fam in ("A", "R", "G"):
        for h in range(6):
            assert star_duality_sign(cx, fam, h) == 1


def test_G0_is_sixth_power_of_sub_laplacian(cx, laps):
    g = cx.algebra
    sub = EnvElement.parse(g, "-X1^2 - X2^2")
    power = EnvElement.one(g)
    for _ in range(6):
        power = power * sub
    assert laps["G"][0].entries == [[power]]


def test_unsupported_group(cx):
    from carnot import estimates

    other = RuminComplex(free_nilpotent(3, 2))
    message = "d_c at degree 2 is not globally homogeneous: [1, 2]"
    with pytest.raises(UnsupportedGroup, match=re.escape(message)):
        laplacian(other, "A", 0)
    assert estimates.UnsupportedGroup is UnsupportedGroup
    with pytest.raises(UnsupportedGroup):
        estimates.theorem_table(other, "H2")


def test_order_table_helper(cx):
    assert order_table(cx, "A") == (2, 6, 6, 6, 6, 2)


def test_derived_orders(cx):
    orders = homogeneous_dc_orders(cx)
    assert orders == (1, 3, 2, 3, 1)
    for fam, expected in EXPECTED_ORDERS.items():
        assert tuple(target_order(orders, fam, h) for h in range(6)) \
            == expected
    # the A family pads delta d at h=2 and d delta at h=3 with one A
    assert recipe(orders, "A", 2) == [("ddl", 1, 0), ("dd", 1, 1)]
    assert recipe(orders, "A", 3) == [("ddl", 1, 1), ("dd", 1, 0)]


# -- Heisenberg groups -----------------------------------------------------

def heisenberg(m):
    """H_m from a group file: [X_i, X_{i+m}] = X_{2m+1} for i = 1..m."""
    top = str(2 * m + 1)
    return StratifiedLieAlgebra.from_json(json.dumps({
        "layers": [2 * m, 1],
        "brackets": {f"{i},{i + m}": {top: "1"} for i in range(1, m + 1)}}))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_heisenberg_R_is_rumin_laplacian(m):
    cx = RuminComplex(heisenberg(m))
    n = cx.algebra.n
    d, dl = cx.dc_matrix, cx.deltac_matrix
    for h in range(n + 1):
        terms = []
        if h > 0:
            ddl = d(h - 1) @ dl(h)
            terms.append(ddl @ ddl if h == m else ddl)
        if h < n:
            dd = dl(h + 1) @ d(h)
            terms.append(dd @ dd if h == m + 1 else dd)
        want = terms[0] + terms[1] if len(terms) == 2 else terms[0]
        assert laplacian(cx, "R", h) == want, h
    middle = (2,) * m + (4, 4) + (2,) * m
    assert order_table(cx, "R") == order_table(cx, "A") == middle
    assert order_table(cx, "G") == (4,) * (n + 1)
    for fam in ("A", "R", "G"):
        for h in range(n + 1):
            rep = verify_self_adjoint(laplacian(cx, fam, h))
            assert rep["applicable"] and rep["self_adjoint"], (fam, h)
            assert star_duality_sign(cx, fam, h) == 1, (fam, h)


# -- the per-complex cache -------------------------------------------------

def test_cached_matrix_is_returned_again(cx):
    for fam in ("A", "R", "G"):
        for h in range(6):
            assert laplacian(cx, fam, h) is laplacian(cx, fam, h)


def test_cached_matrices_match_explicit_recipes():
    fresh = RuminComplex(cartan_group())
    d, dl = fresh.dc_matrix, fresh.deltac_matrix
    ddl1, dd1 = d(0) @ dl(1), dl(2) @ d(1)
    g1 = (ddl1 @ ddl1 @ ddl1 @ ddl1 @ ddl1 @ ddl1) + (dd1 @ dd1)
    ddl2, dd2 = d(1) @ dl(2), dl(3) @ d(2)
    r2 = (ddl2 @ ddl2) + (dd2 @ dd2 @ dd2)
    a3 = (d(2) @ a_delta(fresh, 2) @ dl(3)) + (dl(4) @ d(3))
    for got, want in ((laplacian(fresh, "G", 1), g1),
                      (laplacian(fresh, "R", 2), r2),
                      (laplacian(fresh, "A", 3), a3)):
        assert got.shape == want.shape
        rows, cols = want.shape
        for i in range(rows):
            for j in range(cols):
                assert got.entries[i][j] == want.entries[i][j], (i, j)


def test_single_query_builds_one_matrix_and_one_degree():
    fresh = RuminComplex(cartan_group())
    laplacian(fresh, "G", 1)
    assert set(fresh.memo["_cached_build"]) == {("G", 1)}
    assert set(fresh.memo["_block_power"]) \
        == {(1, "ddl", p) for p in range(1, 7)} | {(1, "dd", 1), (1, "dd", 2)}
    laplacian(fresh, "R", 4)
    assert {h for h, _, _ in fresh.memo["_block_power"]} == {4}


def test_verify_builds_each_laplacian_once(monkeypatch):
    from collections import Counter

    from carnot import laplacians
    from carnot.verify import Report, load_golden, verify_cartan

    builds = Counter()
    build = laplacians._build

    def counting(cx, family, h):
        builds[(family, h)] += 1
        return build(cx, family, h)

    monkeypatch.setattr(laplacians, "_build", counting)
    fresh = RuminComplex(cartan_group())
    report = Report()
    verify_cartan(fresh, report, load_golden())
    assert report.ok
    assert len(builds) == 18 and set(builds.values()) == {1}
    before = Counter(builds)
    for fam in ("A", "R", "G"):
        for h in range(6):
            assert star_duality_sign(fresh, fam, h) == 1
    assert builds == before


def test_validation_runs_on_cached_calls(cx, laps):
    with pytest.raises(ValueError):
        laplacian(cx, "X", 1)
    for h in (-1, 6):
        with pytest.raises(ValueError):
            laplacian(cx, "G", h)


def test_verify_checks_each_distinct_laplacian_once(monkeypatch, cx, laps):
    from carnot import laplacians
    from carnot.verify import Report, load_golden, verify_cartan

    checked = []
    flagged = laps["R"][2]
    real = laplacians.verify_self_adjoint

    def flagging(m):
        checked.append(m)
        if m == flagged:
            return {"applicable": True, "self_adjoint": False}
        return real(m)

    monkeypatch.setattr(laplacians, "verify_self_adjoint", flagging)
    report = Report()
    verify_cartan(cx, report, load_golden())
    # 18 matrices, 10 distinct: G = R at h=2,3, A = R at h=0,1,4,5, and
    # the 1x1 matrices of G and R at h=5 equal those at h=0
    assert len(checked) == 10
    assert all(a != b for i, a in enumerate(checked)
               for b in checked[:i])
    check = next(c for c in report.checks
                 if c["name"] == "laplacian-self-adjoint")
    # every family sharing the flagged matrix is reported, as if each
    # matrix had been checked on its own
    assert check["status"] == "fail"
    assert check["bad"] == [("G", 2), ("R", 2)]
