"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact; the few timed criteria use generous wall-clock bounds
on commodity hardware.
"""

import json
import random
import time

import pytest

from carnot import estimates, laplacians
from carnot.coords import Polynomial, coordinate_apply
from carnot.env import EnvElement
from carnot.exterior import Form, OperatorForm, covectors
from carnot.liealg import cartan_group, free_nilpotent
from carnot.rumin import RuminComplex
from carnot.verify import golden_form, golden_matrix, load_golden, run_verify

# the published orders of the three Laplacian families on the Cartan group
LAPLACIAN_ORDERS = {
    "G": (12, 12, 12, 12, 12, 12),
    "R": (2, 6, 12, 12, 6, 2),
    "A": (2, 6, 6, 6, 6, 2),
}


@pytest.fixture(scope="module")
def cx():
    return RuminComplex(cartan_group())


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def report(num, ok, detail=""):
    line = f"criterion {num:2}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_dimensions_and_bases(cx, golden):
    t0 = time.perf_counter()
    ok = cx.dims() == (1, 2, 3, 3, 2, 1)
    for h_str, basis_spec in golden["bases"].items():
        h = int(h_str)
        expected = [golden_form(cx.algebra, spec, h) for spec in basis_spec]
        ok = ok and list(cx.orthonormal_basis(h)) == expected
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_matrices_match_listings(cx, golden):
    t0 = time.perf_counter()
    alg = cx.algebra
    ok = True
    for h_str, rows in golden["dc"].items():
        h = int(h_str)
        ok = ok and cx.orthonormal(cx.dc_matrix(h), h + 1, h) \
            == golden_matrix(alg, rows)
    for h_str, rows in golden["deltac"].items():
        h = int(h_str)
        ok = ok and cx.orthonormal(cx.deltac_matrix(h), h - 1, h) \
            == golden_matrix(alg, rows)
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 10.0, f"10 matrices, {elapsed:.3f}s")


def test_criterion_3_complex_identities(cx):
    ok = all((cx.dc_matrix(h + 1) @ cx.dc_matrix(h)).is_zero()
             for h in range(5))
    for h in range(6):
        for t in covectors(cx.algebra, h):
            form = OperatorForm.from_form(Form.basis(cx.algebra, t))
            ok = ok and form.d_full().d_full().is_zero()
    report(3, ok)


def test_criterion_4_deltac_consistency(cx):
    signs = [cx.deltac_star_adjoint_sign(h) for h in range(1, 6)]
    ok = all(s in (1, -1) for s in signs)
    report(4, ok, f"signs per degree {signs}")


def test_criterion_5_order_tables_and_self_adjointness(cx):
    ok = cx.dc_orders() == tuple({a} for a in (1, 3, 2, 3, 1))
    laps = {fam: [laplacians.laplacian(cx, fam, h) for h in range(6)]
            for fam in ("G", "R", "A")}
    for fam, mats in laps.items():
        orders = [m.order() for m in mats]
        ok = ok and orders == list(LAPLACIAN_ORDERS[fam])
        for h, m in enumerate(mats):
            ok = ok and laplacians.verify_self_adjoint(
                cx, m, h)["self_adjoint"]
    ok = ok and laps["A"][3] == laplacians.hodge_conjugate(cx, laps["A"][2], 2)
    report(5, ok)


def test_criterion_6_projection_identities(cx):
    ok = True
    for h in range(5):
        sym = cx.symbolic_basis_form(h)
        lifted = cx.pi_E(sym)
        rhs = cx.pi_E(cx.opform_from_rows(cx.dc_matrix(h).entries,
                                          h + 1, sym.slots))
        ok = ok and lifted.d_full() == rhs
        rows = cx.pi_E0(lifted)
        ok = ok and cx.pi_E(cx.opform_from_rows(rows, h, sym.slots)) == lifted
    report(6, ok)


def test_criterion_7_exponent_tables(cx):
    from fractions import Fraction

    Q = 10
    ok = True
    h2 = estimates.theorem_table(cx, "H2")
    per_degree = {0: 1, 1: 3, 2: 3, 3: 3, 4: 3, 5: 1}
    for r in h2:
        ok = ok and r.agree and r.paper == Fraction(Q, Q - per_degree[r.h])
    cor = estimates.theorem_table(cx, "H2cor")
    expected = {("coclosed", 0): 1, ("coclosed", 1): 3, ("coclosed", 2): 2,
                ("coclosed", 3): 3, ("coclosed", 4): 1,
                ("closed", 1): 1, ("closed", 2): 3, ("closed", 3): 2,
                ("closed", 4): 3, ("closed", 5): 1}
    for r in cor:
        ok = ok and r.agree \
            and r.paper == Fraction(Q, Q - expected[(r.part, r.h)])
    c2 = estimates.theorem_table(cx, "C2")
    flagged = 0
    for r in c2:
        if r.h in (0, 1, 4, 5):
            ok = ok and r.agree and r.discrepancy is None
        elif r.discrepancy is not None:
            flagged += 1
            d = r.discrepancy
            ok = ok and d["engine_exponent"] == str(Fraction(Q, Q - 6))
            ok = ok and d["prose_ordersum_exponent"] == str(Fraction(Q, Q - 5))
    ok = ok and flagged == 2 and {r.h for r in c2 if r.discrepancy} == {2, 3}
    pairs = estimates.sum_space_pairs(cx)
    ok = ok and all(pairs[h]["agree"] for h in (1, 2, 3, 4))
    report(7, ok, "H2, H2cor, C2 (2 flagged rows), H2sum")


def test_criterion_8_divergence_tensors(cx):
    ok = True
    for h in (3, 4):
        pt = estimates.proof_tensor(cx, h, "cvs")
        div = estimates.generalized_divergence(pt, "cvs")
        cert = estimates.check_row_membership(
            div, cx.orthonormal(cx.dc_matrix(h), h + 1, h))
        ok = ok and cert is not None
        ok = ok and all(e.degrees() <= {0} for e in cert)
    findings = estimates.tensor_findings(cx, "cvs")
    ok = ok and len(findings) == 4
    by = {f["check"]: f for f in findings}
    for h in (1, 2):
        f = by[f"pierre-h{h}-tensor"]
        adjudicated = f["certificate"] is not None or (
            f.get("corrected_tensor") is not None
            and f.get("corrected_roundtrip_exact"))
        ok = ok and adjudicated
    ok = ok and bool(json.dumps(findings))  # machine readable
    report(8, ok, "h3/h4 certified; h1/h2 adjudicated")


def test_criterion_9_oracle_cross_validation(cx):
    g = cx.algebra
    rng = random.Random(2024)
    trials = 0
    ok = True
    while trials < 100:
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6)))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0] * 5
            for _ in range(rng.randint(0, 6)):
                exp[rng.randrange(5)] += 1
            c = rng.randint(-5, 5)
            if c:
                terms[tuple(exp)] = c
        if not terms:
            continue
        p = Polynomial(5, terms)
        direct = g.realization.apply_word(word, p)
        via_pbw = coordinate_apply(EnvElement.from_word(g, word), p)
        ok = ok and direct == via_pbw
        trials += 1
    report(9, ok, f"{trials} seeded pairs")


def test_criterion_10_free_nilpotent_matches_builtin(cx):
    free = free_nilpotent(2, 3)
    g = cx.algebra
    ok = free.layer_dims == g.layer_dims
    ok = ok and free.homogeneous_dimension == 10
    ok = ok and set(free.brackets) == set(g.brackets)
    for key, vec in g.brackets.items():
        got = free.brackets.get(key, {})
        ok = ok and set(got) == set(vec) \
            and all(str(got[k]) == str(c) for k, c in vec.items())
    report(10, ok)


def test_criterion_11_full_verify_under_60s():
    t0 = time.perf_counter()
    rep = run_verify()
    elapsed = time.perf_counter() - t0
    report(11, rep.ok and elapsed < 60.0, f"{elapsed:.2f}s, "
           f"{sum(1 for c in rep.checks if c['status'] == 'pass')} checks")
