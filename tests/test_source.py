"""Invariants of the package source itself."""

import ast
from pathlib import Path

import opekit

SOURCE = Path(opekit.__file__).resolve().parent


def test_no_assert_statements():
    # Checks must raise: ``python -O`` strips assert statements.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
