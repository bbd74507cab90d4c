"""Static checks on the package source."""

import ast
from pathlib import Path

import riskspan

PACKAGE = Path(riskspan.__file__).parent


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so none may guard control flow.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
