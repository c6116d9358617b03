import ast
import importlib.util
import pathlib
import warnings

import carnot
import carnot.cli


def test_sources_compile_without_warnings():
    """Compile from source, so a cached .pyc cannot hide a warning."""
    root = pathlib.Path(carnot.__file__).parent
    files = sorted(root.glob("*.py"))
    assert files
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_traced_names_resolve():
    """Every name the benchmark's tracer wraps is still defined in carnot."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.SPANNED, tracer.COUNTED):
        for key, attrs in table.items():
            owner = tracer._resolve(carnot, key)
            missing = [a for a in attrs if a not in vars(owner)]
            assert not missing, f"{key}: {missing}"


def test_packed_representation_stays_in_env():
    """No module of the package but env.py imports an underscore name from
    carnot.env, or reads one off the env module: the packed operator
    representation and its kernel stay behind env's public functions."""
    root = pathlib.Path(carnot.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "env.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "env")
                    or (node.level == 0 and node.module == "carnot.env")):
                found += [f"{path.name}: {a.name}" for a in node.names
                          if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "env" and node.attr.startswith("_")):
                found.append(f"{path.name}: env.{node.attr}")
    assert not found
