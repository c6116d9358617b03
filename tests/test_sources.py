import ast
import importlib.util
import json
import pathlib
import pkgutil
import re
import warnings

import carnot
import carnot.cli
import carnot.env


def test_sources_compile_without_warnings():
    """Compile from source, so a cached .pyc cannot hide a warning."""
    root = pathlib.Path(carnot.__file__).parent
    files = sorted(root.glob("*.py"))
    assert files
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_exports_are_the_imports():
    """``carnot.__all__`` names exactly what the package's ``__init__``
    imports, each once, so a deleted name cannot leave a stale export."""
    path = pathlib.Path(carnot.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(carnot.__all__) == sorted(imported)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    """Every name the benchmark's tracer wraps is still defined in carnot."""
    tracer = _load_tracer()
    for table in (tracer.SPANNED, tracer.COUNTED):
        for key, attrs in table.items():
            owner = tracer._resolve(carnot, key)
            missing = [a for a in attrs if a not in vars(owner)]
            assert not missing, f"{key}: {missing}"


def test_traced_run_reports_every_layer(capsys):
    """The benchmark's tracer, installed in process, wraps carnot's
    functions, reads the algebras' caches and radicands when an operation
    ends, and reports every per-layer metric that BENCHMARK.json declares
    and the tracer computes over one Cartan verify and one cold dc query.
    The worker adds the ``cli.``, ``trace.``, ``host.`` and
    ``verify.group.`` metrics; no verify or query calls
    ``CovectorMap.apply_opform`` or ``OperatorForm.__add__``, so their two
    metrics are never reported."""
    tracer = _load_tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unreached = {"exterior.apply_opform_s", "exterior.opform_add_calls"}
    names = {m["name"] for m in declared
             if m["name"].partition(".")[0] not in ("cli", "trace", "host")
             and not m["name"].startswith("verify.group.")} - unreached
    t = tracer.Tracer()
    t.install(carnot)
    try:
        t.begin_pass()
        for argv in (["verify", "--group", "builtin:cartan"],
                     ["dc", "--group", "free:2,4", "--degree", "3"]):
            assert carnot.cli.main(argv + ["--format", "json"]) == 0
            t.end_operation()
        metrics = t.end_pass({})
    finally:
        t.uninstall()
    capsys.readouterr()
    assert not names - metrics.keys(), sorted(names - metrics.keys())
    for name in ("env.mul_calls", "env.nf_cache_entries",
                 "env.prod_cache_entries", "scalars.radicands",
                 "laplacians.laplacian_distinct", "linalg.mat_mul_products"):
        assert metrics[name] > 0, name
    # the roots dc --degree 3 of free:2,4 takes: 2, 3, 6, 7, 10, 15 and 30
    assert metrics["scalars.radicands"] == 7
    # uninstalled: carnot's own functions are back
    assert all(not getattr(fn, "__qualname__", "").startswith("Tracer.")
               for fn in vars(carnot.env.EnvElement).values())


# The shared internals, (module, sibling, name): none.
PRIVATE_IMPORTS = set()


def _sibling(node):
    """The carnot module a ``from ... import`` reads: "" for the package
    itself, whose names are modules, and None outside carnot."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and \
            node.module.partition(".")[0] == "carnot":
        return node.module.partition(".")[2]
    return None


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_private_names_of_another():
    """No module of the package imports an underscore name from a sibling
    module, or reads one off it, except the pairs of PRIVATE_IMPORTS: each
    module keeps its representation behind its public functions."""
    root = pathlib.Path(carnot.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {}    # local name -> the sibling module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _sibling(node)
                if source == "":
                    modules.update((a.asname or a.name, a.name)
                                   for a in node.names)
                elif source is not None:
                    found |= {(path.stem, source, a.name)
                              for a in node.names if _private(a.name)}
            elif isinstance(node, ast.Import):
                modules.update((a.asname, a.name.partition(".")[2])
                               for a in node.names
                               if a.asname and a.name.startswith("carnot."))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                found.add((path.stem, modules[node.value.id], node.attr))
    assert found == PRIVATE_IMPORTS


def _field_reads(node, module, function=None):
    """(module, innermost function) of each read of an attribute named
    ``field`` under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr == "field"
                and isinstance(child.ctx, ast.Load)):
            yield module, function
        yield from _field_reads(child, module, child.name if isinstance(
            child, ast.FunctionDef) else function)


def test_only_the_roots_read_the_radicand_record():
    """An exact value needs no field: no module but ``scalars``, which
    defines ScalarField, and ``liealg``, which gives each algebra one,
    names it, and only ``RuminComplex.roots`` reads an algebra's
    ``field``, to record the radicands of the roots it takes."""
    root = pathlib.Path(carnot.__file__).parent
    naming, reads = set(), []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(isinstance(node, ast.Name) and node.id == "ScalarField"
               or isinstance(node, (ast.alias, ast.ClassDef))
               and node.name == "ScalarField" for node in ast.walk(tree)):
            naming.add(path.stem)
        reads += _field_reads(tree, path.stem)
    assert naming == {"scalars", "liealg"}
    assert reads == [("rumin", "roots")]


def _option_strings(parser):
    """Every option string of a parser and of its subparsers."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action.choices, dict):    # the subcommands
            for sub in action.choices.values():
                yield from _option_strings(sub)


def test_every_option_is_tested():
    """Each option the CLI defines, but the help, appears as a string
    literal in some test file: no option goes untested."""
    literals = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        literals |= {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)}
    options = set(_option_strings(carnot.cli.build_parser()))
    assert "--golden" in options
    assert options - {"-h", "--help"} - literals == set()


def test_readme_exit_codes_match_the_cli():
    """The exception names the README's "Exit codes" paragraph lists under
    `3` and under `4` are exactly the classes ``cli.exit_code`` maps to 3
    and to 4; the README calls ``AssertionError`` a failed homogeneity
    check."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    para = text[text.index("Exit codes:"):]
    para = " ".join(para[:para.index("each prints")].split())

    def listed(part):
        names = set(re.findall(r"`([A-Z]\w*)`", part))
        if "failed homogeneity check" in part:
            names.add("AssertionError")
        return names

    classes = {AssertionError}
    for info in pkgutil.iter_modules(carnot.__path__):
        module = importlib.import_module(f"carnot.{info.name}")
        classes |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__}
    mapped = {code: {cls.__name__ for cls in classes
                     if carnot.cli.exit_code(cls.__new__(cls)) == code}
              for code in (3, 4)}
    assert mapped[3] and mapped[4]
    assert listed(para[para.index("`3`"):para.index("`4`")]) == mapped[3]
    assert listed(para[para.index("`4`"):]) == mapped[4]


def test_import_loads_no_heavy_stdlib_chain():
    """``import carnot, carnot.cli`` in a clean interpreter (no site)
    loads none of ``dataclasses``, ``inspect`` and ``importlib.resources``,
    whose import chains would cost every command its start-up."""
    import subprocess
    import sys

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import carnot, carnot.cli; print(sorted({'dataclasses', "
            "'inspect', 'importlib.resources'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
