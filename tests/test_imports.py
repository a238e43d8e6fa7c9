"""No module in src/ or tests/ imports a name it does not read.

A name an import binds counts as used when the module reads it as an
identifier anywhere.  Names listed in the module's __all__, every name in
an __init__.py (the package's re-exports) and __future__ imports are
exempt.  No linter runs on this project, so this test is its check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import in `source` binds and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    keep = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep |= _exported(tree)
    return [(line, name) for name, line in bound.items() if name not in keep]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in FILES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from os import sep as s, getcwd\n__all__ = ['s']\nprint(os.path.join)\n")
    assert unused_imports(source) == [(2, "math"), (4, "getcwd")]
