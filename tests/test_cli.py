import json
import re

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
    assert parsed == cx.dc_matrix(1).entries


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


def test_tower_failure_names_its_block(capsys):
    code, _, err = run(capsys, "dc", "--group", "free:3,3", "--degree", "3")
    assert code == 3
    assert re.search(r"tower extension cap \(8\) reached for sqrt\(\d+\), "
                     r"in the E0 block of degree 3, weight 7", err)


def test_build_takes_dims_from_ranks(capsys):
    """free:3,3 needs more square roots than the tower holds for its
    orthonormal E0 bases; build reads the dims off the d0 ranks and builds
    none."""
    code, out, _ = run(capsys, "build", "--group", "free:3,3",
                       "--format", "json")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert dims == dims[::-1]
    assert sum((-1) ** h * d for h, d in enumerate(dims)) == 0
    assert dims[1] == 3


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


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "result: ok" in out


def test_verify_golden_tampering_exit_1(capsys, tmp_path):
    from carnot.verify import load_golden

    golden = load_golden()
    golden["dc"]["4"] = [["-X2", "X1 + X2"]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--golden", str(path))
    assert code == 1
    assert "golden-dc-matrices" in out


def test_verify_unaligned_golden_basis_named(capsys, tmp_path):
    from carnot.verify import load_golden

    golden = load_golden()
    golden["bases"]["2"][0] = [["1", [1, 2]]]   # theta1^theta2 is not in E0^2
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--format", "json",
                       "--golden", str(path))
    assert code == 1
    failed = {c["name"]: c for c in json.loads(out)["checks"]
              if c["status"] == "fail"}
    assert set(failed) == {"golden-basis-span-match", "golden-dc-matrices",
                           "golden-deltac-matrices"}
    assert failed["golden-basis-span-match"]["detail"]["2"] \
        == "element 0 is outside the computed span"
    reason = "no aligned basis in degree 2"
    assert failed["golden-dc-matrices"]["bad_entries"] \
        == [["dc", 1, reason], ["dc", 2, reason]]
    assert failed["golden-deltac-matrices"]["bad_entries"] \
        == [["deltac", 2, reason], ["deltac", 3, reason]]


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


def _skew_dc_entry(monkeypatch):
    """d_c gains an inhomogeneous entry: its homogeneity check fails."""
    from carnot.env import EnvElement
    from carnot.exterior import OperatorForm
    from carnot.rumin import RuminComplex

    pi_E0 = RuminComplex.pi_E0

    def skewed(cx, form, h=None):
        rows = pi_E0(cx, form, h)
        if isinstance(form, OperatorForm) and rows and rows[0]:
            rows[0][0] = rows[0][0] + EnvElement.one(cx.algebra)
        return rows
    monkeypatch.setattr(RuminComplex, "pi_E0", skewed)
    return ("dc", "--degree", "1"), "error: entry (0,0) not homogeneous"


def _break_star_formula(monkeypatch):
    """The adjoint transpose is doubled: the star cross-check fails."""
    from carnot.rumin import OperatorMatrix

    adjoint = OperatorMatrix.transpose_adjoint
    monkeypatch.setattr(OperatorMatrix, "transpose_adjoint",
                        lambda m: adjoint(m).scale(2))
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


@pytest.mark.parametrize("fault", [_skew_dc_entry, _break_star_formula,
                                   _mix_algebras])
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
                                  ("build", "--seed", "1")])
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
