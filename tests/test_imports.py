"""Runtime dependencies: the package imports only the standard library,
numpy, scipy and itself."""

import ast
import sys
from pathlib import Path

import nbknn

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "nbknn"}


def test_runtime_imports_are_stdlib_numpy_scipy():
    sources = sorted(Path(nbknn.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not outside, outside
