"""Static scans of the library source, shared by the one-owner tests."""

import ast
from pathlib import Path

import plumeplace


def library_modules() -> list[tuple[str, ast.Module]]:
    """(file name, parsed tree) of every module of the library."""
    root = Path(plumeplace.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(root.glob("*.py"))]


def _calls(tree: ast.AST, names: set[str]) -> bool:
    """Whether tree calls any of the names, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                return True
    return False


def callers_of(names: set[str]) -> set[str]:
    """File names of the library modules that call any of the names."""
    return {file_name for file_name, tree in library_modules() if _calls(tree, names)}


def definitions_calling(file_name: str, names: set[str]) -> set[str]:
    """Names of the top-level functions and classes of one library module
    that call any of the names; "<module>" stands for the statements
    outside them."""
    tree = dict(library_modules())[file_name]
    return {getattr(stmt, "name", "<module>") for stmt in tree.body if _calls(stmt, names)}
