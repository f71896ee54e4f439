"""``python -O`` drops ``assert`` statements, so the library must not use
them for checks; CI also runs the suite under ``-O``."""

import ast
from pathlib import Path

import hknet


def test_library_has_no_assert_statements():
    package = Path(hknet.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
