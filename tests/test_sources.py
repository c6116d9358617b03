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
