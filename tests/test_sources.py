import pathlib
import warnings

import carnot


def test_sources_compile_without_warnings():
    """Compile from source, so a cached .pyc cannot hide a warning."""
    root = pathlib.Path(carnot.__file__).parent
    files = sorted(root.glob("*.py"))
    assert files
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
