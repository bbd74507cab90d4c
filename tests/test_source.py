"""Static checks on the package source."""

import ast
from pathlib import Path
from typing import Iterator

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


def _public_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Module-level functions and methods of module-level classes, by public name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            scope = node.body
        else:
            scope = [node]
        for item in scope:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not item.name.startswith("_"):
                    yield item


def test_no_public_function_takes_a_private_parameter():
    # A parameter named like a private helper is an unchecked promise from
    # in-package callers; the public API takes none.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in _public_functions(tree):
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [
                f"{path.name}:{func.lineno} {func.name}({param.arg})"
                for param in params
                if param is not None and param.arg.startswith("_")
            ]
    assert found == []
