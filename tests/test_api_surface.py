"""Code that nothing in the library calls should go.

Every top-level function and every method (dunders aside) of src/padiclf
must be referenced somewhere in the package other than its own body,
__all__ and __init__.py.  The rest are paper objects that tests pin a
theorem through, listed in ALLOWED with the reason they stay; brute-force
forms belong in tests/oracles.py and thin wrappers are deleted.  Names are
matched as identifiers, so a method counts as used when any attribute of
that name is read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padiclf"

ALLOWED = {
    "dirichlet.decompose_coprime": "the CRT split of characters",
    "measure.char_fn": "the characteristic function of a clopen set",
    "measure.cylinder_decompose": "the clopen decomposition f = sum f(a) char_fn(U_a)",
    "measure.units_cylinder": "a function on the units extended by zero to the level",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name) of each top-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


class _References(ast.NodeVisitor):
    """Identifiers read anywhere, each with the names of the functions it sits in."""

    def __init__(self):
        self.found: dict[str, list[tuple[str, ...]]] = {}
        self._inside: list[str] = []

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    def _add(self, name: str) -> None:
        self.found.setdefault(name, []).append(tuple(self._inside))

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)


def unreferenced() -> list[str]:
    refs = _References()
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs.extend(_definitions(tree, path.stem))
        if path.name != "__init__.py":
            refs.visit(tree)
    # a use inside the function's own body (recursion) does not count
    return [qual for qual, name in defs
            if not any(name not in inside for inside in refs.found.get(name, []))]


def test_every_function_is_called_or_allowed():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []


def test_allow_list_is_current():
    # an allowed name that gained a caller, or was deleted, leaves the list
    assert sorted(set(ALLOWED) - set(unreferenced())) == []
