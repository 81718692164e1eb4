"""Every module of the package imports at its top, never inside a function."""

import ast
from pathlib import Path

import fddsense

SOURCES = sorted(Path(fddsense.__file__).parent.glob("*.py"))


def test_no_module_imports_inside_a_function():
    nested = sorted({
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })
    assert len(SOURCES) > 1
    assert nested == []
