"""Every name a gkcurv module imports is referenced in that module."""

import ast
import pathlib

from gkcurv import linalg

SRC = pathlib.Path(linalg.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in unused.items() if v} == {}
