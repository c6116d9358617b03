import hashlib
import json
import re
import time
from math import isqrt

import pytest

from carnot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_cartan(capsys):
    code, out, _ = run(capsys, "build", "--group", "builtin:cartan")
    assert code == 0
    assert "dims E0 = 1,2,3,3,2,1" in out
    assert "Q = 10" in out


def test_build_free_matches_cartan(capsys):
    code, out, _ = run(capsys, "build", "--group", "free:2,3")
    assert code == 0
    assert "dims E0 = 1,2,3,3,2,1" in out


def test_build_bad_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "layers": [3, 1, 1],
        "brackets": {"1,2": {"4": "1"}, "1,3": {"4": "1"}, "2,3": {"4": "1"},
                     "1,4": {"5": "1"}, "2,4": {"5": "1"}, "3,4": {"5": "1"}}}))
    code, _, err = run(capsys, "build", "--group", str(bad))
    assert code == 2
    assert "JacobiViolation(1,2,3)" in err


@pytest.mark.parametrize("spec, message", [
    ([2, 1], "expected a JSON object, not a list"),
    ({"brackets": {"1,2": {"3": "1"}}}, 'missing "layers"'),
    ({"layers": [2, 1], "brackets": [["1,2", {"3": "1"}]]},
     '"brackets" must be an object'),
    ({"layers": [2, 1], "brackets": {"1,2": ["3", "1"]}},
     '"brackets" entry "1,2" must be "i,j": {"k": coefficient}'),
    ({"layers": "21", "brackets": {"1,2": {"3": "1"}}},
     '"layers" must be a list of integers, not "21"'),
], ids=["list", "no-layers", "brackets-list", "vector-list", "layers-string"])
def test_malformed_group_file_exit_2(capsys, tmp_path, spec, message):
    """A group file of the wrong shape is bad input: exit 2, the key named,
    no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "build", "--group", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: group file: {message}")
    assert err.count("\n") == 1


def test_free_group_too_small_exit_2(capsys):
    code, _, err = run(capsys, "build", "--group", "free:1,2")
    assert code == 2
    assert err == "error: free:m,k needs m >= 2 and k >= 1, not free:1,2\n"


def test_dc_matrix_text(capsys):
    code, out, _ = run(capsys, "dc", "--degree", "4")
    assert code == 0
    assert "-X2" in out and "X1" in out


def test_dc_bad_degree_exit_2(capsys):
    code, _, err = run(capsys, "dc", "--degree", "7")
    assert code == 2


def test_laplacian_text(capsys):
    code, out, _ = run(capsys, "laplacian", "--family", "A", "--degree", "0")
    assert code == 0
    assert "-X1^2 - X2^2" in out


def test_laplacian_json_report(capsys):
    code, out, _ = run(capsys, "laplacian", "--family", "A", "--degree", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["self_adjoint"] is True


def test_json_matrix_round_trip(capsys):
    from carnot.env import EnvElement
    from carnot.liealg import cartan_group
    from carnot.rumin import RuminComplex

    code, out, _ = run(capsys, "dc", "--degree", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    g = cartan_group()
    cx = RuminComplex(g)
    parsed = [[EnvElement.parse(g, cell) for cell in row]
              for row in payload["entries"]]
    assert parsed == cx.orthonormal(cx.dc_matrix(1), 2, 1).entries


def test_latex_braces_long_indices_and_every_radicand(capsys):
    # free:4,2 has the generator X10 and the radicands 2 and 6 in d_c
    code, out, _ = run(capsys, "dc", "--group", "free:4,2", "--degree", "1",
                       "--format", "latex")
    assert code == 0
    assert "X_{10}" in out and "X_1 X_2" in out
    assert "X_10" not in out and "X10" not in out
    assert "\\sqrt{6}" in out and "\\sqrt{2}" in out
    assert "sqrt(" not in out


def test_latex_braces_long_exponents(capsys):
    code, out, _ = run(capsys, "laplacian", "--family", "G", "--degree", "0",
                       "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{pmatrix}\nX_1^{12} + 6 X_1^{10} X_2^2")
    assert "X_2^{12}" in out
    assert not re.search(r"\^\d\d", out)


# sha256 of the text and latex listings, recorded before the operator
# renderer sorted its codes once: the JSON pins do not cover these formats;
# the three off-Cartan pins were recorded again when roots became keyed by
# their square-free radicand, which changed only their root text
RENDER_DIGESTS = {
    "laplacian --family G --degree 2 --format text":
        "7407858b68f0ac922146585636a8dfab10d90ac394336311eed495b5baf11c26",
    "laplacian --family G --degree 2 --format latex":
        "3a8ad0ffd7652386aac1bf37e5de9c651d56d08635ae089662061d4c1cfe4970",
    "dc --group free:2,4 --degree 3 --format text":
        "04d02e7ca838b26d1eefde508fa3b565f6e68e4c2ce3269e42ab72913b7c03bc",
    "deltac --group free:2,4 --degree 5 --format text":
        "05240813d5406927c4797944edcbd89ec4340abef6e1eaae7712a25083e506ff",
    "dc --group free:3,2 --degree 2 --format latex":
        "9fd9fba5b74f47c3dc89962c20ba4cba3824db17b1ce499ddf0e57332b3e55b3",
}


@pytest.mark.parametrize("query", sorted(RENDER_DIGESTS))
def test_text_and_latex_listing_digests(capsys, query):
    code, out, _ = run(capsys, *query.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RENDER_DIGESTS[query]


# sha256 of JSON that ``cli`` writes with ``default=str``, where a value of
# another type would change the text silently, recorded before rationals
# left the Scalar type; verify's report is hashed without its wall time
JSON_DIGESTS = {
    "verify --group builtin:cartan --format json":
        "c7a3acc76c649aefedff7164e3cf51b826d0a9cdb441b23ea741b6c19071bf54",
    "verify --group free:2,4 --format json":
        "e34b869888e8f6b5469404a2a51455c88f6a77d4dd951742c21ff5243b2da65f",
    "pi-e --degree 1 --index 1 --format json":
        "c94772e0ededf9629b9001b6aed4861868e3f0f4850de49b9975e6de86e809b2",
    "pi-e --degree 2 --index 1 --format json":
        "62a0919e04ae1476cfc343f4db6794d2e451d31c916f3947c218a699e5ab1f1b",
    "pi-e --degree 3 --index 1 --format json":
        "bb2c465028a273e404cf5da0ed73fc755d91d76b5e56c18b96f2697c8f2d38f7",
    "pi-e --degree 4 --index 1 --format json":
        "22addf0340e57d6a1fae8b05c7de31b80071ee1c0219578bdcc50ef3f19fce24",
    # recorded before operators kept integer numerators over one denominator
    "laplacian --family R --degree 2 --format json":
        "a83067b6486843558bee2652c65d90d1cecd5cca7925bb1979c4e56521c5a344",
    "pi-e --group free:2,4 --degree 3 --index 2 --format json":
        "80abb1eff7a91bc482e1035e7b6627b7392ecece5ce2d2ec5f27d5c3facd978e",
}


@pytest.mark.parametrize("query", sorted(JSON_DIGESTS))
def test_json_output_digests(capsys, query):
    code, out, _ = run(capsys, *query.split())
    assert code == 0
    if query.startswith("verify"):
        report = json.loads(out)
        report["checks"] = [c for c in report["checks"]
                            if c["name"] != "elapsed-seconds"]
        out = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[query]


def test_n14_dc_prints_square_free_roots(capsys):
    """free:3,3 (n = 14) prints d_c at degree 2, and every root it prints
    is the root of a square-free integer."""
    code, out, _ = run(capsys, "dc", "--group", "free:3,3", "--degree", "2",
                       "--format", "json")
    assert code == 0
    radicands = {int(r) for r in re.findall(r"sqrt\((\d+)\)", out)}
    assert len(radicands) > 1
    assert all(r % (p * p) for r in radicands
               for p in range(2, isqrt(r) + 1))


def test_n14_verify_is_refused_before_its_first_check(capsys):
    """verify lifts every degree; degree 4 of free:3,3 has more covectors
    than a lift is built over, so the run stops at once with exit 3 and
    names the degree and its largest weight block."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--group", "free:3,3")
    assert time.perf_counter() - start < 5
    assert code == 3 and not out
    assert re.fullmatch(r"error: ResourceLimit\(degree 4 has 1001 covectors, "
                        r"more than the \d+ a lift is built over; its largest "
                        r"weight block, weight 9, has 260\)\n", err)


def test_build_takes_dims_from_ranks(capsys):
    """free:3,3 has more covectors in its middle degrees than a lift is
    built over; build reads the dims off the d0 ranks and builds no
    basis."""
    code, out, _ = run(capsys, "build", "--group", "free:3,3",
                       "--format", "json")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert dims == dims[::-1]
    assert sum((-1) ** h * d for h, d in enumerate(dims)) == 0
    assert dims[1] == 3


def test_pi_e_refuses_before_it_builds_E0(capsys):
    """pi-e checks the degree and the lift capacity before it builds E0:
    degree 7 of free:3,3 (3,432 covectors) is refused at once, with the
    message of the lift, and a degree out of range with that of E0."""
    start = time.perf_counter()
    code, out, err = run(capsys, "pi-e", "--group", "free:3,3",
                         "--degree", "7")
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert re.fullmatch(r"error: ResourceLimit\(degree 7 has 3432 covectors, "
                        r"more than the \d+ a lift is built over; its largest "
                        r"weight block, weight 16, has 798\)\n", err)
    assert run(capsys, "pi-e", "--degree", "-1") == \
        (2, "", "error: degree -1 out of range\n")


def test_build_refuses_a_degree_too_large_to_count(capsys, tmp_path):
    """build enumerates the covectors of every degree; a group with a
    degree of more than rumin.MAX_DIMS_COVECTORS is refused before any is
    enumerated, naming that degree, while d_c in a low degree of the same
    group still runs.  H7 (n = 15, 6,435 covectors in degree 7) builds."""
    for spec, h, count in (("free:2,6", 5, 33649), ("free:3,4", 4, 35960)):
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "--group", spec)
        assert time.perf_counter() - start < 2
        assert code == 3 and not out
        assert err.startswith(f"error: ResourceLimit(degree {h} has {count} "
                              "covectors, more than the ")
    code, out, _ = run(capsys, "dc", "--group", "free:2,6", "--degree", "1")
    assert code == 0 and out
    path = tmp_path / "H7.json"
    path.write_text(json.dumps({
        "layers": [14, 1],
        "brackets": {f"{i},{i + 7}": {"15": "1"} for i in range(1, 8)}}))
    code, out, _ = run(capsys, "build", "--group", str(path))
    assert code == 0 and "dims E0 = 1,14,90," in out


def test_group_json_does_not_depend_on_prior_work(capsys):
    """A group's JSON is its layers and brackets: the roots that a view, a
    pi-e and a tensor check take leave it as it was."""
    from argparse import Namespace

    from carnot import cli, estimates
    from carnot.liealg import cartan_group
    from carnot.rumin import RuminComplex

    alg = cartan_group()
    before = alg.to_json()
    cx = RuminComplex(alg)
    cx.orthonormal(cx.dc_matrix(1), 2, 1)
    assert alg.to_json() == before
    assert cli.cmd_pi_e(cx, Namespace(degree=2, index=2, format="json")) == 0
    estimates.tensor_findings(cx, "cvs")
    capsys.readouterr()
    assert alg.to_json() == before == {
        "layers": [2, 1, 2],
        "brackets": {"1,2": {"3": "1"}, "1,3": {"4": "1"}, "2,3": {"5": "1"}}}


def test_build_json_group_round_trips(capsys):
    """The group block is the group's own table: no radicand a basis
    would add, and from_json rebuilds the same algebra."""
    from carnot.liealg import StratifiedLieAlgebra

    code, out, _ = run(capsys, "build", "--format", "json")
    assert code == 0
    group = json.loads(out)["group"]
    assert "sqrt" not in group
    alg = StratifiedLieAlgebra.from_json(group)
    assert alg.is_cartan_table()
    assert alg.to_json() == group


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "exponents", "--theorem", "H2sum",
                         "--format", "json")
    code2, out2, _ = run(capsys, "exponents", "--theorem", "H2sum",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("build",), ("pi-e", "--degree", "1"), ("exponents", "--theorem", "H2"),
    ("tensors",), ("verify",)], ids=lambda argv: argv[0])
def test_exponents_refuses_latex(capsys, argv):
    """Only dc, deltac and laplacian render LaTeX; the others refuse it."""
    code, out, err = run(capsys, *argv, "--format", "latex")
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} has no latex format; use text or json\n"


def test_exponents_unsupported_group(capsys):
    code, _, err = run(capsys, "exponents", "--theorem", "H2",
                       "--group", "free:2,2")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("laplacian", "--family", "G", "--degree", "1", "--group", "free:3,2"),
     "d_c at degree 2 is not globally homogeneous: [1, 2]"),
    (("exponents", "--theorem", "H2", "--group", "free:2,2"),
     "exponent tables are Cartan-specific"),
    (("tensors", "--group", "free:2,2"), "stored tensors are Cartan-specific"),
])
def test_cartan_only_commands_reject_other_groups(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_laplacian_on_heisenberg_group_file(capsys, tmp_path):
    h2 = tmp_path / "H2.json"
    h2.write_text(json.dumps({
        "layers": [4, 1],
        "brackets": {"1,3": {"5": "1"}, "2,4": {"5": "1"}}}))
    argv = ("laplacian", "--family", "R", "--degree", "2", "--format", "json")
    code, out, _ = run(capsys, *argv, "--group", str(h2))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["self_adjoint"] is True
    code, out, err = run(capsys, *argv, "--group", "free:3,2")
    assert code == 2
    assert out == ""
    assert "d_c at degree 2 is not globally homogeneous" in err


def test_parser_built_once(capsys):
    from carnot import cli

    cli.build_parser.cache_clear()
    first = run(capsys, "build", "--group", "free:2,2")
    second = run(capsys, "build", "--group", "free:2,2")
    assert cli.build_parser.cache_info().misses == 1
    assert first == second
    assert first[0] == 0


def test_tensors_json(capsys):
    code, out, _ = run(capsys, "tensors", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    checks = [f["check"] for f in payload["findings"]]
    assert "pierre-h2-tensor" in checks


def test_tensors_convention(capsys):
    """The convention orders each proof tensor's indices; the printed proof
    rows it reproduces do not depend on it."""
    payloads = {}
    for convention in ("cvs", "pierre"):
        code, out, _ = run(capsys, "tensors", "--convention", convention,
                           "--format", "json")
        assert code == 0
        payloads[convention] = json.loads(out)
        assert payloads[convention]["convention"] == convention
    cvs, pierre = (payloads[c]["findings"] for c in ("cvs", "pierre"))
    assert [f["paper_row"] for f in cvs] == [f["paper_row"] for f in pierre]
    assert cvs[0]["proof_tensor"] != pierre[0]["proof_tensor"]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "result: ok" in out


@pytest.mark.parametrize("source", ["free:2,3", "file"])
def test_verify_compares_every_cartan_table(capsys, tmp_path, source):
    """The reference checks run on the Cartan bracket table however the
    group is given: as free:2,3 or as a JSON copy of the built-in table."""
    from carnot.liealg import cartan_group

    group = source
    if source == "file":
        group = str(tmp_path / "cartan.json")
        with open(group, "w") as fh:
            json.dump(cartan_group().to_json(), fh)
    code, out, _ = run(capsys, "verify", "--group", group, "--format", "json")
    assert code == 0
    checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    for name in ("golden-basis-span-match", "golden-dc-matrices",
                 "golden-deltac-matrices", "pbw-coordinate-oracle",
                 "exponent-table-H2sum"):
        assert checks[name] == "pass"


def test_verify_golden_tampering_exit_1(capsys, tmp_path):
    from carnot.verify import load_golden

    golden = load_golden()
    golden["dc"]["4"] = [["-X2", "X1 + X2"]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--golden", str(path))
    assert code == 1
    assert "golden-dc-matrices" in out


def _basis_check_with_degree2_vector(capsys, tmp_path, k, vector):
    """Verify against the listings with published vector k of E0^2
    replaced: only the basis check may fail; returns its detail."""
    from carnot.verify import load_golden

    golden = load_golden()
    golden["bases"]["2"][k] = vector
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--format", "json",
                       "--golden", str(path))
    assert code == 1
    failed = {c["name"]: c for c in json.loads(out)["checks"]
              if c["status"] == "fail"}
    assert set(failed) == {"golden-basis-span-match"}
    return failed["golden-basis-span-match"]["detail"]


def test_verify_unaligned_golden_basis_named(capsys, tmp_path):
    # theta1^theta2 is not in E0^2
    detail = _basis_check_with_degree2_vector(capsys, tmp_path, 0,
                                              [["1", [1, 2]]])
    assert detail == {"1": "aligned",
                      "2": "element 0 differs from the computed basis",
                      "3": "aligned", "4": "aligned"}


def test_verify_sign_flipped_golden_basis_named(capsys, tmp_path):
    """A published vector with its sign flipped is a different basis: the
    basis check names it, and the matrices, compared as computed, still
    match the untouched listings."""
    detail = _basis_check_with_degree2_vector(
        capsys, tmp_path, 1, [["-1/sqrt(2)", [2, 4]], ["-1/sqrt(2)", [1, 5]]])
    assert detail["2"] == "element 1 differs from the computed basis"


def test_verify_resource_limit(capsys):
    # free:2,8 has 71 Hall elements, more than the 64 any group may have;
    # free:2,30 is refused as fast, before any Hall tree is built
    for spec, count in (("free:2,8", 71), ("free:2,30", 74248451)):
        code, _, err = run(capsys, "verify", "--group", spec)
        assert code == 3
        assert err == f"error: ResourceLimit({count},64)\n"


def test_capacity_limit_exits_3(capsys):
    """A capacity limit is its own class, apart from bad input (2)."""
    code, out, err = run(capsys, "build", "--group", "free:2,8")
    assert (code, out, err) == (3, "", "error: ResourceLimit(71,64)\n")


def test_group_file_obeys_the_dimension_cap(capsys, tmp_path):
    """A group file is held to the cap of free:m,k: the 71-element
    Heisenberg group is refused before its Jacobi identities are checked."""
    path = tmp_path / "H35.json"
    path.write_text(json.dumps({
        "layers": [70, 1],
        "brackets": {f"{i},{i + 35}": {"71": "1"} for i in range(1, 36)}}))
    code, out, err = run(capsys, "build", "--group", str(path))
    assert (code, out, err) == (3, "", "error: ResourceLimit(71,64)\n")


def _skew_dc_entry(monkeypatch):
    """d_c gains an inhomogeneous entry: its homogeneity check fails."""
    from carnot.env import EnvElement
    from carnot.rumin import RuminComplex

    pi_E0 = RuminComplex.pi_E0

    def skewed(cx, form):
        rows = pi_E0(cx, form)
        if rows and rows[0]:
            rows[0][0] = rows[0][0] + EnvElement.one(cx.algebra)
        return rows
    monkeypatch.setattr(RuminComplex, "pi_E0", skewed)
    return ("dc", "--degree", "1"), "error: entry (0,0) not homogeneous"


def _break_star_formula(monkeypatch):
    """The adjoint is doubled: the star cross-check fails."""
    from carnot.rumin import RuminComplex

    adjoint = RuminComplex.adjoint
    monkeypatch.setattr(RuminComplex, "adjoint",
                        lambda cx, m, q, p: adjoint(cx, m, q, p).scale(2))
    return (("deltac", "--degree", "1"),
            "error: degree 1: star formula and adjoint transpose disagree")


def _mix_algebras(monkeypatch):
    """delta_c comes from a second copy of the group: a Laplacian adds
    matrices over two algebras."""
    from carnot.liealg import cartan_group
    from carnot.rumin import RuminComplex

    other = RuminComplex(cartan_group())
    deltac = RuminComplex.deltac_matrix
    monkeypatch.setattr(RuminComplex, "deltac_matrix",
                        lambda cx, h: deltac(other, h))
    return (("laplacian", "--family", "R", "--degree", "1"),
            "error: operands live over different algebras")


def _mix_product(monkeypatch):
    """As in _mix_algebras, but R at degree 0 is the one product
    delta_1 @ d_0, with no sum after it: the product itself refuses."""
    _mix_algebras(monkeypatch)
    return (("laplacian", "--family", "R", "--degree", "0"),
            "error: operands live over different algebras")


def _star_off_span(monkeypatch):
    """The star of a 1-form gains theta1234, outside E0^4: the star matrix
    cannot rebuild it."""
    from carnot.exterior import Form

    star = Form.star

    def skewed(form):
        out = star(form)
        if form.degree == 1:
            out = out + Form.basis(form.algebra, (1, 2, 3, 4))
        return out
    monkeypatch.setattr(Form, "star", skewed)
    return (("deltac", "--degree", "1"),
            "error: star of E0^1 leaves the span of E0^4")


@pytest.mark.parametrize("fault", [_skew_dc_entry, _break_star_formula,
                                   _mix_algebras, _mix_product,
                                   _star_off_span])
def test_internal_errors_exit_4(capsys, monkeypatch, fault):
    """A failed consistency check of the engine is an internal bug: exit 4
    with the message on stderr, no traceback."""
    argv, message = fault(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("command, degrees", [("dc", range(5)),
                                              ("deltac", range(1, 6))])
def test_paper_basis_reproduces_the_listings(capsys, command, degrees):
    """The computed basis is the published one: the listings need no
    change of basis."""
    from carnot.liealg import cartan_group
    from carnot.verify import golden_matrix, load_golden

    g = cartan_group()
    golden = load_golden()[command]
    for h in degrees:
        code, out, _ = run(capsys, command, "--degree", str(h),
                           "--format", "json")
        assert code == 0
        assert golden_matrix(g, json.loads(out)["entries"]) \
            == golden_matrix(g, golden[str(h)])


@pytest.mark.parametrize("argv", [("dc", "--degree", "0", "--paper-basis"),
                                  ("build", "--seed", "1"),
                                  ("verify", "--update-golden", "x")])
def test_options_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_bad_group_spec_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--group", "free:2")
    assert code == 2
    assert "bad free group spec" in err


def test_verify_degenerate_group(capsys):
    code, out, _ = run(capsys, "verify", "--group", "free:2,1")
    assert code == 0


def test_pi_e(capsys):
    code, out, _ = run(capsys, "pi-e", "--degree", "1", "--index", "1")
    assert code == 0
    assert "θ4" in out
