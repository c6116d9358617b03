"""The machine-verification suite behind `carnot verify`.

Runs every structural identity the library is built on and compares the
Cartan-group output against the committed reference listings (dimension
table, intrinsic bases, all differential and codifferential matrices, star
matrices, order tables).  Checks come in two kinds:

* ``pass``/``fail`` checks gate the exit code;
* ``info`` entries record documented discrepancies between computed values
  and their published counterparts; they never fail the run, they are the
  findings.

``paper_basis_change`` is the one place that aligns the published bases with
the computed ones.  The suite reads the complex through its public methods
only; every derived object it asks for is built once, in the complex's memo.
"""

from __future__ import annotations

import json
import random
import time
from importlib import resources

from . import estimates, laplacians, linalg
from .coords import Polynomial, coordinate_apply
from .env import EnvElement
from .exterior import Form, accumulate, covectors
from .liealg import free_nilpotent, load_group
from .rumin import OperatorMatrix, RuminComplex, SpanMismatch


def load_golden(path=None) -> dict:
    if path is not None:
        with open(path) as fh:
            return json.load(fh)
    return json.loads(resources.files("carnot").joinpath(
        "golden/section4.json").read_text())


def golden_form(alg, spec, degree):
    terms: dict = {}
    for coeff, idx in spec:
        accumulate(terms, tuple(idx), alg.field.parse(coeff))
    return Form(alg, degree, terms)


def paper_basis_change(cx: RuminComplex, h: int, golden: dict) -> list:
    """Orthogonal change of basis from E0^h to the published basis.

    The identity in a degree with no published basis; SpanMismatch when the
    published basis does not align with E0^h.
    """
    spec = golden["bases"].get(str(h))
    if spec is None:
        return linalg.identity(cx.algebra.field, len(cx.E0(h)))
    return cx.align_basis(h, [golden_form(cx.algebra, s, h) for s in spec])


def _as_lists(field, rows, ncols: int) -> list:
    """Sparse rows as dense lists, for the listings and ``mat_mul``."""
    z = field.zero()
    return [[row.get(j, z) for j in range(ncols)] for row in rows]


def star_listing(cx: RuminComplex, h: int) -> list:
    """The star matrix of degree h as dense rows of rationals, as listed."""
    return [[c.as_rational() for c in row] for row in _as_lists(
        cx.algebra.field, cx.star_matrix(h), len(cx.E0(h)))]


def golden_matrix(alg, rows) -> OperatorMatrix:
    return OperatorMatrix(
        alg, [[EnvElement.parse(alg, cell) for cell in row] for row in rows],
        cols=len(rows[0]) if rows else 0)


class Report:
    def __init__(self):
        self.checks = []

    def add(self, name, ok, **details):
        self.checks.append({"name": name,
                            "status": "pass" if ok else "fail",
                            **details})
        return ok

    def info(self, name, **details):
        self.checks.append({"name": name, "status": "info", **details})

    @property
    def ok(self):
        return all(c["status"] != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c["status"] == "fail"]

    def to_json(self):
        return {"ok": self.ok, "checks": self.checks}


def d0_range_profile(cx: RuminComplex, h: int) -> dict:
    """Rank of d0 on degree h per weight of its range, nonzero ranks only."""
    ranks = {w: cx.d0_rank(h, w) for w in cx.d0_blocks(h)}
    return {str(w): r for w, r in ranks.items() if r}


def verify_group(cx: RuminComplex, report: Report, seed: int = 0):
    """Structural checks valid on any stratified group."""
    alg = cx.algebra
    n = alg.n

    # dims() comes from the d0 ranks; the bases are a second route
    dims = list(cx.dims())
    basis_dims = [len(cx.E0(h)) for h in range(n + 1)]
    report.add("dimension-table", basis_dims == dims, dims=dims,
               Q=alg.homogeneous_dimension,
               **({} if basis_dims == dims else {"basis_dims": basis_dims}))

    ok = all((cx.dc_matrix(h + 1) @ cx.dc_matrix(h)).is_zero()
             for h in range(n))
    report.add("dc-squared-zero", ok)

    ok = True
    for h in range(n + 1):
        sym = cx.symbolic_basis_form(h)
        if sym.is_zero():
            continue
        if not sym.d_full().d_full().is_zero():
            ok = False
    report.add("de-rham-d-squared-zero", ok)

    signs = {}
    ok = True
    for h in range(1, n + 1):
        s = cx.deltac_star_adjoint_sign(h)
        signs[h] = s
        if s is None:
            ok = False
    report.add("deltac-star-vs-adjoint", ok, signs=signs)

    # d_c reads d(lift) only on the E0^{h+1} covectors: d(lift) is
    # computed here in full, one degree at a time, to bound the memory
    bad = []
    for h in range(n):
        rhs = cx.pi_E(cx.opform_from_rows(cx.dc_matrix(h).entries, h + 1,
                                          len(cx.E0(h))))
        if cx.lift(h).d_full() != rhs:
            bad.append(h)
    report.add("chain-map-d-piE-equals-piE-dc", not bad, bad_degrees=bad)

    ok = True
    for h in range(n + 1):
        lifted = cx.lift(h)
        rows = cx.pi_E0(lifted, h)
        if cx.pi_E(cx.opform_from_rows(rows, h, lifted.slots)) != lifted:
            ok = False
    report.add("projection-piE-piE0-piE", ok)

    # the stored blocks d0^{-1} is built from, by the dense mat_mul
    ok = True
    f = alg.field
    for h in range(n):
        for w, (b_rows, dom, cod) in cx.d0_blocks(h).items():
            b = _as_lists(f, b_rows, len(dom))
            p = _as_lists(f, cx.d0_pinv_block(h, w), len(cod))
            bp = linalg.mat_mul(f, b, p)
            pb = linalg.mat_mul(f, p, b)
            checks = (
                linalg.mat_mul(f, bp, b) == b,
                linalg.mat_mul(f, pb, p) == p,
                [list(col) for col in zip(*bp)] == bp,
                [list(col) for col in zip(*pb)] == pb,
            )
            if not all(checks):
                ok = False
    report.add("d0-pseudoinverse-identities", ok)

    rng = random.Random(seed)

    def random_form(h):
        return Form(alg, h, {t: alg.field(rng.randint(-3, 3))
                             for t in covectors(alg, h)})

    ok = True
    for _ in range(20):
        h = rng.randint(0, n)
        a, b = random_form(h), random_form(h)
        if a.star().inner(b.star()) != a.inner(b):
            ok = False
        sign = -1 if (h * (n - h)) % 2 else 1
        if a.star().star() != a.scale(sign):
            ok = False
    report.add("hodge-star-isometry-involution", ok)

    ok = True
    for _ in range(20):
        h = rng.randint(0, n - 1)
        a, b = random_form(h), random_form(h + 1)
        if a.d0().inner(b) != a.inner(b.delta0()):
            ok = False
    report.add("d0-delta0-adjointness", ok)

    ok = True
    for _ in range(20):
        h = rng.randint(0, n)
        a = random_form(h)
        parts = a.weight_split()
        total = Form.zero(alg, h)
        for w, comp in parts.items():
            if comp.weight() not in (w, None):
                ok = False
            total = total + comp
        if total != a:
            ok = False
        ws = sorted(parts)
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if parts[ws[i]].inner(parts[ws[j]]):
                    ok = False
    report.add("weight-split-orthogonal-decomposition", ok)


def verify_cartan(cx: RuminComplex, report: Report, golden: dict,
                  seed: int = 0):
    """Reference comparisons and Cartan-specific families."""
    alg = cx.algebra
    field = alg.field

    report.add("golden-dims", list(cx.dims()) == golden["dims"],
               computed=list(cx.dims()), golden=golden["dims"])

    changes, details = {}, {}
    for h_str in golden["bases"]:
        try:
            changes[int(h_str)] = paper_basis_change(cx, int(h_str), golden)
            details[h_str] = "aligned"
        except SpanMismatch as exc:
            details[h_str] = str(exc)
    report.add("golden-basis-span-match", len(changes) == len(details),
               detail=details)

    def in_paper_basis(m, row_h, col_h):
        """m, from E0^col_h to E0^row_h, between the published bases."""
        for h in (row_h, col_h):
            if h not in changes:
                if str(h) in details:
                    raise SpanMismatch(f"no aligned basis in degree {h}")
                changes[h] = paper_basis_change(cx, h, golden)
        return m.conjugate(
            linalg.transpose(changes[row_h], len(changes[row_h])),
            changes[col_h], len(changes[col_h]))

    def compare_golden(kind, table, compute):
        bad = []
        for h_str, rows in table.items():
            h = int(h_str)
            try:
                expected = golden_matrix(alg, rows)
            except ValueError as exc:  # an unparsable reference entry
                bad.append((kind, h, f"error: {exc}"))
                continue
            try:
                got = compute(h)
            except SpanMismatch as exc:
                bad.append((kind, h, str(exc)))
                continue
            if expected.shape != got.shape:
                bad.append((kind, h, "shape"))
                continue
            m, ncols = expected.shape
            bad.extend((kind, h, i, j) for i in range(m) for j in range(ncols)
                       if expected.entries[i][j] != got.entries[i][j])
        report.add(f"golden-{kind}-matrices", not bad, bad_entries=bad)

    compare_golden("dc", golden["dc"],
                   lambda h: in_paper_basis(cx.dc_matrix(h), h + 1, h))
    compare_golden("deltac", golden["deltac"],
                   lambda h: in_paper_basis(cx.deltac_matrix(h), h - 1, h))

    report.add("golden-star-matrices",
               all(star_listing(cx, int(h)) == rows
                   for h, rows in golden["star"].items()))

    report.add("golden-dc-orders",
               list(cx.dc_orders()) == golden["dc_orders"],
               computed=list(cx.dc_orders()))

    got_profile = {str(h): d0_range_profile(cx, h) for h in (1, 2, 3)}
    report.add("d0-range-weight-profile",
               all(got_profile[h] == golden["d0_range_weights"][h]
                   for h in got_profile),
               computed=got_profile)

    # documented discrepancy: the printed expansion of d0(theta4 ^ theta5)
    computed = Form.basis(alg, (4, 5)).d0()
    printed = (Form.basis(alg, (1, 3, 5), -1)
               + Form.basis(alg, (2, 3, 5)))
    report.info("d0-theta45-printed-variant",
                kind="documented-discrepancy",
                computed=str(computed), printed_variant=str(printed),
                equal=computed == printed)

    # Laplacian families
    laps = laplacians.laplacian_table(cx)

    ok = True
    got = {}
    for fam, mats in laps.items():
        orders = [m.homogeneous_order() for m in mats]
        got[fam] = orders
        if orders != golden["laplacian_orders"][fam]:
            ok = False
    report.add("laplacian-order-tables", ok, computed=got)

    ok = True
    bad = []
    # Families share matrices (G = R at h=2,3, A = R at h=0,1,4,5), and
    # comparing entries is far cheaper than a formal adjoint: a matrix
    # equal to one already checked takes that verdict.
    verdicts = []
    for fam, mats in laps.items():
        for h, m in enumerate(mats):
            self_adjoint = next((v for seen, v in verdicts if seen == m), None)
            if self_adjoint is None:
                self_adjoint = bool(
                    laplacians.verify_self_adjoint(m).get("self_adjoint"))
                verdicts.append((m, self_adjoint))
            if not self_adjoint:
                ok = False
                bad.append((fam, h))
    report.add("laplacian-self-adjoint", ok, bad=bad)

    a2, a3 = laps["A"][2], laps["A"][3]
    report.add("A3-is-star-conjugate-of-A2",
               a3 == laplacians.hodge_conjugate(cx, a2, 2))

    ok = all(laps["A"][h] == laps["R"][h] for h in (0, 1, 4, 5))
    report.add("A-equals-R-away-from-middle-degrees", ok)

    ok = True
    signs = {}
    for fam in laplacians.FAMILIES:
        fam_signs = []
        for h in range(alg.n + 1):
            s = laplacians.star_duality_sign(cx, fam, h)
            fam_signs.append(s)
            if s is None:
                ok = False
        signs[fam] = fam_signs
    report.add("laplacian-star-duality", ok, signs=signs)

    # exponent tables
    tables = {}
    for tag in ("H2", "C2", "H2cor", "H2sum"):
        rows = tables[tag] = estimates.theorem_table(cx, tag)
        ok = all(r.agree for r in rows if r.discrepancy is None)
        flagged = [r.to_json() for r in rows if r.discrepancy is not None]
        report.add(f"exponent-table-{tag}", ok,
                   rows=[r.to_json() for r in rows])
        for r in flagged:
            report.info(f"exponent-{tag}-h{r['h']}-{r['term']}-ordersum",
                        **r["discrepancy"])
    pairs = estimates.sum_space_pairs(cx)
    report.add("sum-space-pairs",
               all(v["agree"] for v in pairs.values()),
               pairs={str(k): v["paper_display"] for k, v in pairs.items()})

    # window bookkeeping wherever the Lebesgue mapping theorem is invoked
    ok = not any(r.folland_cited and r.method in ("cvs", "folland")
                 and not r.window_ok
                 for rows in tables.values() for r in rows)
    report.add("kernel-window-bookkeeping", ok)

    # Cartan-formula consistency and tensor adjudication
    ok = True
    for h in (1, 2, 3, 4):
        form = cx.lift(h)
        z = estimates.PAIRING_FIELDS[h]
        if estimates.cartan_pairing(cx, form, z) \
                != estimates.direct_pairing(form, z):
            ok = False
    report.add("cartan-formula-two-routes", ok)

    findings = estimates.tensor_findings(cx, "cvs")
    for entry in findings:
        if entry["status"] == "certified":
            report.add(entry["check"], True, adjudication="certified")
        else:
            fixed = entry.get("corrected_tensor") is not None and \
                entry.get("corrected_roundtrip_exact", False)
            report.info(entry["check"], kind="documented-discrepancy",
                        finding=entry)
            report.add(entry["check"] + "-adjudicated",
                       entry["paper_row_certificate"] is not None or fixed)
    ok = True
    for h in (3, 4):
        pt = estimates.proof_tensor(cx, h, "cvs")
        div = estimates.generalized_divergence(pt, "cvs")
        if estimates.check_row_membership(div, cx.dc_matrix(h)) is None:
            ok = False
    report.add("proof-tensors-h3-h4-certified", ok)

    # oracle cross-validation on the coordinate realization
    rng = random.Random(seed)
    trials = 120
    ok = True
    for _ in range(trials):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6)))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0] * 5
            for _ in range(rng.randint(0, 6)):
                exp[rng.randint(0, 4)] += 1
            if sum(exp) > 6:
                continue
            terms[tuple(exp)] = field(rng.randint(-4, 4))
        p = Polynomial(field, 5, {e: c for e, c in terms.items() if c})
        direct = alg.realization.apply_word(word, p)
        normalized = coordinate_apply(EnvElement.from_word(alg, word), p)
        if direct != normalized:
            ok = False
    report.add("pbw-coordinate-oracle", ok, trials=trials)

    # free nilpotent generator reproduces the built-in table
    free = free_nilpotent(2, 3)
    same = (free.layer_dims == alg.layer_dims
            and free.homogeneous_dimension == alg.homogeneous_dimension
            and {k: {i: str(c) for i, c in v.items()}
                 for k, v in free.brackets.items()}
            == {k: {i: str(c) for i, c in v.items()}
                for k, v in alg.brackets.items()})
    report.add("free-nilpotent-2-3-matches-builtin", same)


def regenerate_golden(cx: RuminComplex) -> dict:
    """Rebuild the reference file schema from the current computation.

    Intended for maintenance via an explicit flag only: the committed file
    is a transcription of the published listings and normally must not be
    rewritten from the engine that it gates.
    """
    out = {"group": "cartan", "dims": list(cx.dims()), "bases": {},
           "dc": {}, "deltac": {}, "star": {},
           "dc_orders": list(cx.dc_orders()),
           "laplacian_orders": {}, "d0_range_weights": {}}
    for h in (1, 2, 3, 4):
        out["bases"][str(h)] = [
            [[str(c), list(t)] for t, c in sorted(xi.terms.items())]
            for xi in cx.E0(h)]
    for h in range(5):
        out["dc"][str(h)] = [[e.render() for e in row]
                             for row in cx.dc_matrix(h).entries]
    for h in range(1, 6):
        out["deltac"][str(h)] = [[e.render() for e in row]
                                 for row in cx.deltac_matrix(h).entries]
    for h in (1, 2, 3, 4):
        star = star_listing(cx, h)
        if any(q.denominator != 1 for row in star for q in row):
            raise ValueError(f"star matrix {h} has a non-integral entry")
        out["star"][str(h)] = [[int(q) for q in row] for row in star]
    for fam, mats in laplacians.laplacian_table(cx).items():
        out["laplacian_orders"][fam] = [m.homogeneous_order() for m in mats]
    for h in (1, 2, 3):
        out["d0_range_weights"][str(h)] = d0_range_profile(cx, h)
    return out


def run_verify(group="builtin:cartan", golden_path=None,
               seed: int = 0) -> Report:
    report = Report()
    t0 = time.time()
    alg = load_group(group)
    cx = RuminComplex(alg)
    verify_group(cx, report, seed=seed)
    if alg.is_cartan_table() and alg.realization is not None:
        golden = load_golden(golden_path)
        verify_cartan(cx, report, golden, seed=seed)
    report.checks.append({"name": "elapsed-seconds", "status": "info",
                          "seconds": round(time.time() - t0, 3)})
    return report
