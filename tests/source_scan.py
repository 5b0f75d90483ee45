"""Static scans of the library source, shared by the one-owner tests."""

import ast
from pathlib import Path

import plumeplace


def library_modules() -> list[tuple[str, ast.Module]]:
    """(file name, parsed tree) of every module of the library."""
    root = Path(plumeplace.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(root.glob("*.py"))]


def callers_of(names: set[str]) -> set[str]:
    """File names of the library modules that call any of the names,
    as a bare name or as an attribute."""
    callers = set()
    for file_name, tree in library_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    callers.add(file_name)
    return callers
