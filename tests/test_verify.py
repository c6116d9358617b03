import json
from collections import Counter
from fractions import Fraction

import pytest

from carnot.exterior import OperatorForm
from carnot.laplacians import homogeneous_dc_orders
from carnot.liealg import cartan_group, free_nilpotent, load_group
from carnot.rumin import RuminComplex
from carnot.verify import (Report, load_golden, run_verify, verify_cartan,
                           verify_group)


@pytest.fixture(scope="module")
def cx():
    return RuminComplex(cartan_group())


def test_full_run_passes(cx):
    rep = run_verify()
    assert rep.ok
    names = {c["name"] for c in rep.checks}
    for required in ("dc-squared-zero", "golden-dc-matrices",
                     "laplacian-order-tables", "exponent-table-C2",
                     "pbw-coordinate-oracle",
                     "free-nilpotent-2-3-matches-builtin"):
        assert required in names
    # documented discrepancies are reported, never failed
    infos = {c["name"] for c in rep.checks if c["status"] == "info"}
    assert "d0-theta45-printed-variant" in infos
    assert "pierre-h2-tensor" in infos


def test_report_json_serializable(cx):
    rep = run_verify()
    blob = json.dumps(rep.to_json(), sort_keys=True, default=str)
    assert json.loads(blob)["ok"] is True


def _statuses(rep):
    return {c["name"]: c["status"] for c in rep.checks}


def test_golden_star_compares_exact_entries(monkeypatch):
    """A computed star entry 1/2 where the reference holds 0 is a failure."""
    star = RuminComplex.star_matrix

    def halved(self, h):
        rows = [dict(row) for row in star(self, h)]
        if h == 2:
            rows[0][0] = Fraction(1, 2)
        return rows

    fresh = RuminComplex(cartan_group())
    for h in range(1, 6):    # delta_c is built from the true star
        fresh.deltac_matrix(h)
    monkeypatch.setattr(RuminComplex, "star_matrix", halved)
    assert load_golden()["star"]["2"][0][0] == 0
    report = Report()
    verify_cartan(fresh, report, load_golden())
    assert _statuses(report)["golden-star-matrices"] == "fail"


def test_A_equals_R_fails_when_the_recipes_differ(monkeypatch):
    """A's degree-0 target raised from 2 to 4 makes A^0 the square of R^0:
    two members, and the check that says they agree fails."""
    from carnot import laplacians

    target = laplacians.target_order
    monkeypatch.setattr(
        laplacians, "target_order", lambda orders, family, h:
        4 if (family, h) == ("A", 0) else target(orders, family, h))
    report = Report()
    verify_cartan(RuminComplex(cartan_group()), report, load_golden())
    assert _statuses(report)["A-equals-R-away-from-middle-degrees"] == "fail"


def test_proof_tensor_check_fails_on_a_corrupted_word(cx, monkeypatch):
    """One coefficient of the h=3 proof words changed takes the proof row
    out of the span of the d_c rows: the certification check fails."""
    from carnot import estimates

    words = [dict(w) for w in estimates._PROOF_WORDS[3]]
    words[0][1, 2, 2] = "4"
    monkeypatch.setitem(estimates._PROOF_WORDS, 3, words)
    report = Report()
    verify_cartan(cx, report, load_golden())
    assert _statuses(report)["proof-tensors-h3-h4-certified"] == "fail"


def test_structural_checks_report(cx):
    rep = run_verify()
    assert rep.ok
    status = _statuses(rep)
    assert status["dc-squared-zero"] == "pass"
    assert status["chain-map-d-piE-equals-piE-dc"] == "pass"
    assert list(cx.dims()) == [1, 2, 3, 3, 2, 1]
    assert homogeneous_dc_orders(cx) == (1, 3, 2, 3, 1)
    # star_matrix raises SpanMismatch when the star leaves the span
    for h in range(cx.algebra.n + 1):
        cx.star_matrix(h)


H3_SPEC = {"layers": [6, 1],
           "brackets": {f"{i},{i + 3}": {"7": "1"} for i in (1, 2, 3)}}
ENGEL_SPEC = {"layers": [2, 1, 1],
              "brackets": {"1,2": {"3": "1"}, "1,3": {"4": "1"}}}


@pytest.mark.parametrize("spec", ["builtin:cartan", "free:3,2", "free:2,4",
                                  H3_SPEC, ENGEL_SPEC],
                         ids=["cartan", "free-3-2", "free-2-4", "H3", "engel"])
def test_dims_from_ranks_match_the_bases(spec, tmp_path):
    """dims() from the d0 ranks equals the size of each E0 basis, and the
    dimension-table check of verify passes on it."""
    if isinstance(spec, dict):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    cx = RuminComplex(load_group(spec))
    assert list(cx.dims()) == [len(cx.E0(h))
                               for h in range(cx.algebra.n + 1)]
    report = Report()
    verify_group(cx, report)
    check = report.checks[0]
    assert check == {"name": "dimension-table", "status": "pass",
                     "dims": list(cx.dims()),
                     "Q": cx.algebra.homogeneous_dimension}


def test_dimension_table_fails_when_the_routes_differ(monkeypatch):
    monkeypatch.setattr(RuminComplex, "dims", lambda self: (1, 2, 3, 1))
    report = Report()
    verify_group(RuminComplex(free_nilpotent(2, 2)), report)
    assert report.checks[0] == {"name": "dimension-table", "status": "fail",
                                "dims": [1, 2, 3, 1], "Q": 4,
                                "basis_dims": [1, 2, 2, 1]}


def test_pinv_check_reads_the_stored_blocks():
    """d0-pseudoinverse-identities checks the memoized blocks d0^{-1} is
    built from: one doubled entry in a stored block fails it."""
    fresh = RuminComplex(cartan_group())
    report = Report()
    verify_group(fresh, report)
    assert _statuses(report)["d0-pseudoinverse-identities"] == "pass"
    stored = fresh.memo["RuminComplex.d0_pinv_block"]
    key, rows = next((k, r) for k, r in stored.items() if any(r))
    corrupted = [dict(row) for row in rows]
    i = next(i for i, row in enumerate(corrupted) if row)
    j = next(iter(corrupted[i]))
    corrupted[i][j] = corrupted[i][j] * 2
    stored[key] = corrupted
    report = Report()
    verify_group(fresh, report)
    assert _statuses(report)["d0-pseudoinverse-identities"] == "fail"


def test_structural_checks_on_general_group():
    # Heisenberg-type free(2,2): middle intrinsic spaces drop to dimension 2
    rep = run_verify("free:2,2")
    assert rep.ok
    assert "chain-map-d-piE-equals-piE-dc" in _statuses(rep)
    cx = RuminComplex(free_nilpotent(2, 2))
    assert list(cx.dims()) == [1, 2, 2, 1]
    assert homogeneous_dc_orders(cx) == (1, 2, 1)
    for h in range(cx.algebra.n + 1):
        cx.star_matrix(h)


def test_verify_lifts_each_degree_once(monkeypatch):
    """Every check reads the one cached Pi_E lift of each degree."""
    made, lifts = [], Counter()
    symbolic, pi_e = RuminComplex.symbolic_basis_form, RuminComplex.pi_E

    def counting_symbolic(self, h):
        form = symbolic(self, h)
        made.append(form)
        return form

    def counting_pi_e(self, form):
        if any(form is m for m in made):
            lifts[form.degree] += 1
        return pi_e(self, form)

    monkeypatch.setattr(RuminComplex, "symbolic_basis_form", counting_symbolic)
    monkeypatch.setattr(RuminComplex, "pi_E", counting_pi_e)
    assert run_verify().ok
    assert lifts == {h: 1 for h in range(6)}


def test_verify_derives_each_lift_once(monkeypatch):
    """Only the chain-map check takes d of a lift in full, once per degree;
    d_c computes d(lift) on the E0 covectors only."""
    lifts, derived = [], Counter()
    lift, d_full = RuminComplex.lift, OperatorForm.d_full

    def recording_lift(self, h):
        form = lift(self, h)
        lifts.append(form)
        return form

    def counting_d_full(self):
        if any(self is f for f in lifts):
            derived[self.degree] += 1
        return d_full(self)

    monkeypatch.setattr(RuminComplex, "lift", recording_lift)
    monkeypatch.setattr(OperatorForm, "d_full", counting_d_full)
    assert run_verify("free:3,2").ok
    assert derived == {h: 1 for h in range(6)}


def test_caches_live_in_the_memo():
    """Every derived object is kept in cx.memo: the lifts for every degree,
    the block powers for the last Laplacian's degree; d(lift) is not kept."""
    fresh = RuminComplex(cartan_group())
    report = Report()
    verify_group(fresh, report)
    verify_cartan(fresh, report, load_golden())
    assert report.ok
    assert vars(fresh).keys() == {"algebra", "memo"}
    memo = fresh.memo
    assert set(memo["RuminComplex.lift"]) == {(h,) for h in range(6)}
    assert "RuminComplex.d_lift" not in memo
    # verify builds the table up to degree 5 and then the star duality,
    # which asks for no new Laplacian
    assert {h for h, _, _ in memo["_block_power"]} == {5}
    assert len(memo["_build"]) == 12


def test_report_helper():
    rep = Report()
    rep.add("a", True)
    rep.info("b", note="x")
    assert rep.ok
    rep.add("c", False, reason="bad")
    assert not rep.ok
    assert [f["name"] for f in rep.failures()] == ["c"]


def test_hardy_rows_record_kernel_types(cx):
    from carnot import estimates

    rows = estimates.theorem_table(cx, "H2")
    hardy = [r for r in rows if r.norm == "H1"]
    assert {(r.h, r.term) for r in hardy} == {(1, "g"), (4, "f")}
    for r in hardy:
        assert r.method == "hardy"
        assert r.kernel.mu == 3


def test_q_equals_weighted_layer_sum():
    for alg in (cartan_group(), free_nilpotent(2, 4), free_nilpotent(3, 2)):
        q = sum((a + 1) * m for a, m in enumerate(alg.layer_dims))
        assert alg.homogeneous_dimension == q == sum(alg.weights)
