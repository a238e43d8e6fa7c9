"""Code that nothing in the library calls should go.

Every top-level function and every method (dunders aside) of src/padiclf
must be used: referenced at module or class level, in a dunder method
(Python calls those), or in a function that is itself used.  A reference
in the function's own body, in an unused function or in an allow-listed
one does not count, nor do __all__ and __init__.py.  The rest are paper
objects that tests pin a theorem through, listed in ALLOWED with the
reason they stay; brute-force forms belong in tests/oracles.py and thin
wrappers are deleted.  A function counts as read where its name is read,
bare or as an attribute; a method or property only where an attribute of
its name is read (x.name), so a variable or a stored attribute of the
same name does not count.  Names are matched without their class, so a
method counts as used when any attribute of that name is read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padiclf"

ALLOWED = {
    "dirichlet.decompose_coprime": "the CRT split of characters",
    "measure.char_fn": "the characteristic function of a clopen set",
    "measure.cylinder_decompose": "the clopen decomposition f = sum f(a) char_fn(U_a)",
    "measure.units_cylinder": "a function on the units extended by zero to the level",
    "measure.bernoulli_distribution": (
        "the paper's E_c(n, a) at one residue, and the reference the oracles and "
        "the carry-table tests check against"),
    "measure.equi_class": (
        "the fibre of reduction from level m down to level n, the Lean equi_class"),
    "measure.distribution_refine_sum": (
        "the sum over a fibre that compatibility equates to the coarse value; "
        "the traced benchmark run (perfbench/spans.py) wraps it by name"),
    "measure.measure_apply": (
        "the integral E_c(f) as an element of Q_p, the exact integral embedded at "
        "a relative precision; perfbench/spans.py wraps it by name"),
    "measure.norm_bound_check": (
        "the bound ||E_c(f)|| <= K ||f|| on one given cylinder function, which "
        "measure_failures proves for every f at a level; perfbench/spans.py "
        "wraps it by name"),
    "padic.PadicNum.norm": (
        "the p-adic norm, through which the two-pass oracle and the boundedness "
        "tests state ||E_c(f)|| <= K ||f||; norm_bound_check reads it from valuations"),
    "padic.eq_mod": (
        "congruence mod p^n of two p-adic values that both carry n digits, through "
        "which tests compare a value with its oracle on the digits both certify"),
    "padic.PadicNum.from_rational": (
        "the embedding of a rational at a relative precision, through which "
        "measure_apply embeds the exact integral and tests state their oracles; "
        "perfbench/spans.py wraps it by name"),
    "padic.PadicNum.unit": (
        "the public accessor of a returned value's unit part, through which tests "
        "read the digits of a value"),
    "padic.PadicNum.appr": (
        "the projection Z_p -> Z/p^nZ (the Lean appr), through which tests pin the "
        "ring homomorphism and the tower of quotients"),
    "dirichlet.DirichletCharacter.asso_eval": (
        "the extension by zero of a character (the Lean asso_dirichlet_character), "
        "through which the PadicNum oracles read the Euler factor and the integrand"),
    "genbernoulli.general_bernoulli": (
        "B_(m,chi) in Q_p, through which tests pin the generalized Bernoulli numbers "
        "and the closed-form oracle embeds them; perfbench/spans.py wraps it by name"),
    "modarith.partition_range": (
        "splits range(d*p^x) by coprimality to d*p, which at level 0 is not units_of"),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str):
    """(qualified name, (kind, bare name)) of each top-level function and
    non-dunder method, kind being "name" for a function and "attr" for a method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", ("name", node.name)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                    yield f"{module}.{node.name}.{sub.name}", ("attr", sub.name)


class _References(ast.NodeVisitor):
    """Identifiers read anywhere, each with the outermost function it sits in
    (None at module or class level), keyed by ("attr", name) for an
    attribute read and by ("name", name) for both a bare and an attribute
    read."""

    def __init__(self):
        self.found: dict[str, set] = {}
        self._inside: list[str] = []

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    def _add(self, key: tuple) -> None:
        self.found.setdefault(key, set()).add(self._inside[0] if self._inside else None)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(("name", node.id))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(("name", node.attr))
            self._add(("attr", node.attr))
        self.generic_visit(node)


def unreferenced() -> list[str]:
    refs = _References()
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs.extend(_definitions(tree, path.stem))
        if path.name != "__init__.py":
            refs.visit(tree)
    # grow the used names to a fixed point from the module-level and dunder
    # references; allow-listed names are never used, so their references
    # do not count
    used: set[str] = set()
    grew = True
    while grew:
        grew = False
        for _, key in defs:
            if key[1] not in used and any(
                    ctx is None or _is_dunder(ctx) or ctx in used
                    for ctx in refs.found.get(key, ())):
                used.add(key[1])
                grew = True
    return [qual for qual, (_, name) in defs if name not in used]


def test_every_function_is_called_or_allowed():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []


def test_allow_list_is_current():
    # an allowed name that gained a caller, or was deleted, leaves the list
    assert sorted(set(ALLOWED) - set(unreferenced())) == []
