import hashlib
import json
import re

import pytest

from carnot import laplacians
from carnot.env import EnvElement
from carnot.laplacians import (FAMILIES, UnsupportedGroup, a_delta, hodge_conjugate,
                               homogeneous_dc_orders, laplacian, order_table,
                               recipe, star_duality_sign, target_order,
                               verify_self_adjoint)
from carnot.liealg import StratifiedLieAlgebra, cartan_group, free_nilpotent
from carnot.rumin import OperatorMatrix, RuminComplex

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


def test_laplacian_entries_digest(cx, laps):
    listing = {fam: [cx.orthonormal(m, h, h).to_json()
                     for h, m in enumerate(laps[fam])] for fam in "GRA"}
    text = json.dumps(listing, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LAPLACIAN_DIGEST


def test_order_tables(cx, laps):
    for fam, mats in laps.items():
        assert [m.homogeneous_order() for m in mats] \
            == list(EXPECTED_ORDERS[fam])


def test_homogeneous_order_reports(cx, laps):
    """Every nonzero entry has the published order, so the order of the
    matrix is one int, not a ``Mixed`` marker."""
    for fam, mats in laps.items():
        for h, m in enumerate(mats):
            order = m.homogeneous_order()
            assert type(order) is int, (fam, h, order)
            assert m.orders() == {EXPECTED_ORDERS[fam][h]}, (fam, h)


def test_self_adjointness(cx, laps):
    for fam, mats in laps.items():
        for h, m in enumerate(mats):
            rep = verify_self_adjoint(cx, m, h)
            assert rep["applicable"] and rep["self_adjoint"], (fam, h)


def test_self_adjoint_not_applicable_for_rectangular(cx):
    rep = verify_self_adjoint(cx, cx.dc_matrix(1), 1)
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
            rep = verify_self_adjoint(cx, laplacian(cx, fam, h), h)
            assert rep["applicable"] and rep["self_adjoint"], (fam, h)
            assert star_duality_sign(cx, fam, h) == 1, (fam, h)


@pytest.mark.parametrize("make", [cartan_group, lambda: free_nilpotent(2, 2),
                                  lambda: heisenberg(2)],
                         ids=["cartan", "free-2-2", "H2"])
def test_powers_equal_the_chain(make):
    """Every block power a recipe uses equals the chain P^(p-1) @ P
    entrywise (each group has a power above 1)."""
    cx = RuminComplex(make())
    orders = homogeneous_dc_orders(cx)
    uses = sorted({(h, kind, p) for fam in FAMILIES
                   for h in range(cx.algebra.n + 1)
                   for kind, p, k in recipe(orders, fam, h) if not k})
    assert any(p > 1 for _, _, p in uses)
    for h, kind, p in uses:
        block = laplacians._block(cx, h, kind)
        chain = block
        for _ in range(p - 1):
            chain = chain @ block
        got = laplacians._block_power(cx, h, kind, p)
        assert got.shape == chain.shape
        for i, row in enumerate(chain.entries):
            for j, want in enumerate(row):
                assert got.entries[i][j] == want, (h, kind, p, i, j)


def _full_self_adjoint(cx, m, h):
    """The reference: the whole adjoint for the orthonormal basis, weighted
    by the norms, against the matrix."""
    adj = cx.adjoint(m, h, h)
    bad = [(i, j) for i, row in enumerate(m.entries)
           for j, e in enumerate(row) if e != adj.entries[i][j]]
    out = {"applicable": True, "self_adjoint": not bad}
    if bad:
        out["bad_entries"] = bad
    return out


def _plus_x1(m, i, j):
    """A copy of m with X1 added to entry (i, j); X1* = -X1, so the copy
    fails the check even at a diagonal entry."""
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] + EnvElement.generator(m.algebra, 1)
    return OperatorMatrix(m.algebra, entries, cols=m.shape[1])


def test_triangle_check_matches_the_full_comparison(cx, laps):
    """verify_self_adjoint compares one triangle only: it gives the verdict
    and the bad entries of the whole weighted adjoint, on the Laplacians
    and on copies with one off-diagonal or one diagonal entry perturbed."""
    for fam, mats in laps.items():
        for h, m in enumerate(mats):
            last = m.shape[0] - 1
            copies = [m, _plus_x1(m, last, last), _plus_x1(m, 0, 0)]
            if last:
                copies += [_plus_x1(m, 0, last), _plus_x1(m, last, 0)]
            for k, c in enumerate(copies):
                want = _full_self_adjoint(cx, c, h)
                assert want["self_adjoint"] == (k == 0), (fam, h, k)
                assert verify_self_adjoint(cx, c, h) == want, (fam, h, k)


# -- the per-complex cache -------------------------------------------------

def test_cached_matrix_is_returned_again(cx):
    for fam in ("A", "R", "G"):
        for h in range(6):
            assert laplacian(cx, fam, h) is laplacian(cx, fam, h)


def test_families_with_one_recipe_share_one_matrix(cx, laps):
    """A = R at h = 0, 1, 4, 5 and G = R at h = 2, 3 are one object each;
    every other pair of families is two."""
    shared = {("A", "R"): {0, 1, 4, 5}, ("G", "R"): {2, 3}, ("A", "G"): set()}
    for (f, g), degrees in shared.items():
        for h in range(6):
            assert (laps[f][h] is laps[g][h]) == (h in degrees), (f, g, h)


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
    """A cold query builds one Laplacian, and the block powers it leaves
    behind are those of its degree: G at degree 1 is ddl(1)^6 + dd(1)^2,
    each power (P^(p-1) @ outer) @ inner, and R at degree 4 drops them."""
    fresh = RuminComplex(cartan_group())
    laplacian(fresh, "G", 1)
    assert set(fresh.memo["_build"]) == {(1, (("ddl", 6, 0), ("dd", 2, 0)))}
    assert set(fresh.memo["_block_power"]) \
        == {(1, "ddl", p) for p in range(1, 7)} \
        | {(1, "dd", 1), (1, "dd", 2)}
    laplacian(fresh, "R", 4)
    assert set(fresh.memo["_block_power"]) == {
        (4, "ddl", 1), (4, "dd", 1), (4, "dd", 2), (4, "dd", 3)}


def test_laplacian_table_builds_no_fraction(monkeypatch):
    """With d_c and delta_c built, the Cartan Laplacian table (block
    powers, A-padded blocks and family sums) runs in int arithmetic over
    each operator's denominator: no Fraction is constructed."""
    from fractions import Fraction

    fresh = RuminComplex(cartan_group())
    for h in range(6):
        fresh.dc_matrix(h)
        fresh.deltac_matrix(h)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    table = laplacians.laplacian_table(fresh)
    monkeypatch.undo()
    assert all(len(table[fam]) == 6 for fam in FAMILIES)
    assert made == []
    # the patch counts: a coefficient read off the terms view builds one
    third = EnvElement.one(fresh.algebra).scale(Fraction(1, 3))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert third.terms == {(0,) * 5: new(Fraction, 1, 3)}
    monkeypatch.undo()
    assert made == [(1, 3)]


def test_verify_builds_each_laplacian_once():
    """Verify builds the 12 distinct Laplacians of the 18 (family, h)
    pairs, each once, and the star duality builds none."""
    from collections import Counter

    from carnot.verify import Report, load_golden, verify_cartan

    builds = Counter()

    class Counting(dict):
        def __setitem__(self, key, value):
            builds[key] += 1
            super().__setitem__(key, value)

    fresh = RuminComplex(cartan_group())
    fresh.memo["_build"] = Counting()
    report = Report()
    verify_cartan(fresh, report, load_golden())
    assert report.ok
    assert len(builds) == 12 and set(builds.values()) == {1}
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
    from carnot.verify import Report, load_golden, verify_cartan

    checked = []
    flagged = laps["R"][2]
    real = laplacians.verify_self_adjoint

    def flagging(cx, m, h):
        checked.append((h, m))
        if m is flagged:
            return {"applicable": True, "self_adjoint": False}
        return real(cx, m, h)

    monkeypatch.setattr(laplacians, "verify_self_adjoint", flagging)
    report = Report()
    verify_cartan(cx, report, load_golden())
    # 18 (family, h) pairs, 12 members: G = R at h=2,3 and A = R at
    # h=0,1,4,5; the 1x1 matrices of G and R at h=5 equal those at h=0
    # but are other members, whose check reads the degree's norms
    assert len({id(m) for _, m in checked}) == len(checked) == 12
    check = next(c for c in report.checks
                 if c["name"] == "laplacian-self-adjoint")
    # every family sharing the flagged matrix is reported, as if each
    # matrix had been checked on its own
    assert check["status"] == "fail"
    assert check["bad"] == [("G", 2), ("R", 2)]


def test_weighted_check_catches_mutations(cx, laps):
    """The check weighs each entry by the norms of E0^h: on Cartan's
    degree 2 the norms are (1, 2, 1), and a perturbed off-diagonal entry,
    the same perturbation in both mirrored entries (which an unweighted
    transpose would pass) and two swapped norms each fail it."""
    from types import SimpleNamespace

    assert cx.norms(2) == (1, 2, 1)
    m = laps["A"][2]
    assert verify_self_adjoint(cx, m, 2)["self_adjoint"]
    x1sq = EnvElement.from_word(cx.algebra, (1, 1))
    one = [list(row) for row in m.entries]
    one[0][1] = one[0][1] + x1sq
    both = [list(row) for row in one]
    both[1][0] = both[1][0] + x1sq
    for entries in (one, both):
        rep = verify_self_adjoint(cx, OperatorMatrix(cx.algebra, entries), 2)
        assert rep["bad_entries"] == [(0, 1), (1, 0)]
    swapped = SimpleNamespace(norms=lambda h: (2, 1, 1))
    rep = verify_self_adjoint(swapped, m, 2)
    assert not rep["self_adjoint"] and (0, 1) in rep["bad_entries"]
