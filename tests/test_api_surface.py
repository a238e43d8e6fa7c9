"""Code that nothing in the library calls should go.

Every top-level function and class (the exceptions of errors.py aside,
which callers catch by name) and every method (dunders aside) of
src/padiclf must be used: referenced at module or class level, in a
dunder method (Python calls those), or in a function that is itself used.
A reference in the function's own body, in an unused function or in an
allow-listed one does not count, nor do __all__ and __init__.py.  The
rest are the names perfbench/spans.py wraps, listed in ALLOWED with the
reason they stay, and nothing else: a paper object that tests pin a
theorem through belongs in tests/paper.py, a brute-force form in
tests/oracles.py, and thin wrappers are deleted.  A function or class
counts as read where its name is read, bare or as an attribute; a method
or property only where an attribute of its name is read (x.name), so a
variable or a stored attribute of the same name does not count.  Names
are matched without their class, so a method counts as used when any
attribute of that name is read.

Operator dunders, which an expression applies without naming them, have a
table of their own, OPERATORS: each one a src/padiclf class defines is
listed with a function that applies it, or with the perfbench/spans.py
target that wraps it.

The library names that perfbench/ reads must resolve: every entry of
perfbench/spans.py's TARGETS, read from the file without importing it,
and the few keyword and positional arguments its other modules pass.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padiclf"
SPANS = ROOT / "perfbench" / "spans.py"

ALLOWED = {
    "measure.bernoulli_distribution": (
        "the paper's E_c(n, a) at one residue, and the reference the oracles and "
        "the carry-period tests check against; perfbench/spans.py wraps it by name"),
    "measure.distribution_refine_sum": (
        "the sum over the lifts of a residue that compatibility equates to the coarse "
        "value; perfbench/spans.py wraps it by name"),
    "measure.measure_apply": (
        "the integral E_c(f) as an element of Q_p, the exact integral embedded at "
        "a relative precision; perfbench/spans.py wraps it by name"),
    "measure.norm_bound_check": (
        "the bound ||E_c(f)|| <= K ||f|| on one given cylinder function, which "
        "measure_failures proves for every f at a level; perfbench/spans.py "
        "wraps it by name"),
    "padic.PadicNum.inverse": (
        "the inverse in Q_p, through which tests pin x^(-1) x = 1; perfbench/spans.py "
        "wraps it by name"),
    "padic.PadicNum.from_rational": (
        "the embedding of a rational at a relative precision, through which "
        "measure_apply embeds the exact integral and tests state their oracles; "
        "perfbench/spans.py wraps it by name"),
    "genbernoulli.general_bernoulli": (
        "B_(m,chi) in Q_p, through which tests pin the generalized Bernoulli numbers "
        "and the closed-form oracle embeds them; perfbench/spans.py wraps it by name"),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str):
    """(qualified name, (kind, bare name)) of each top-level function, class
    outside errors.py and non-dunder method, kind being "name" for a function
    or class and "attr" for a method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", ("name", node.name)
        elif isinstance(node, ast.ClassDef):
            if module != "errors":
                yield f"{module}.{node.name}", ("name", node.name)
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


# The dunders Python calls for an arithmetic or bitwise operator
OPERATOR_DUNDERS = {
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow",
               "lshift", "rshift", "and", "xor", "or")
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}

# Each operator dunder a src/padiclf class defines: the function that
# applies it, or "perfbench wraps it" where no library function does
OPERATORS = {
    "padic.PadicNum.__add__": "lfunction.verify_interpolation",
    "padic.PadicNum.__neg__": "padic.PadicNum.__sub__",
    "padic.PadicNum.__sub__": "lfunction.verify_interpolation",
    "padic.PadicNum.__mul__": "perfbench wraps it",
    "dirichlet.DirichletCharacter.__mul__": "genbernoulli.chi_omega_minus_k",
}


def _functions() -> set[str]:
    """The qualified name of every top-level function and method of
    src/padiclf, dunders too."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                found |= {f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                          if isinstance(sub, ast.FunctionDef)}
    return found


def spans_targets() -> list[tuple]:
    """perfbench/spans.py's TARGETS, read with ast.literal_eval."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no TARGETS")


def test_allowed_is_only_what_perfbench_wraps():
    # a paper object that no command runs lives in tests/paper.py, not here
    wrapped = {f"{module}.{attr}" for module, attr, _, _ in spans_targets()}
    assert sorted(set(ALLOWED) - wrapped) == []


def test_every_operator_is_in_the_table():
    # a defined operator the table lacks, or an entry whose dunder is gone
    defined = {q for q in _functions() if q.rsplit(".", 1)[1] in OPERATOR_DUNDERS}
    assert sorted(defined ^ set(OPERATORS)) == []


def test_every_operator_site_is_current():
    # a site is a function that still exists, or a target that still wraps
    # the dunder
    functions = _functions()
    wrapped = {f"{module}.{attr}" for module, attr, _, _ in spans_targets()}
    for dunder, site in OPERATORS.items():
        if site == "perfbench wraps it":
            assert dunder in wrapped, dunder
        else:
            assert site in functions, (dunder, site)


def test_perfbench_targets_resolve():
    # each entry as the tracer resolves it: a method on its class's own
    # __dict__, a function as a module attribute
    for module, attr, _, _ in spans_targets():
        mod = importlib.import_module(f"padiclf.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (module, attr)
        else:
            assert callable(getattr(mod, attr, None)), (module, attr)


def test_perfbench_arguments_resolve():
    # perfbench/spans.py reads params.j_min; perfbench/reference.py passes
    # j_max= and relprec= by keyword and calls the closed form with three
    # positional arguments
    from padiclf.dirichlet import parse_character_spec
    from padiclf.lfunction import LpParams, special_value_closed_form
    assert {"j_min", "j_max"} <= {field.name for field in dataclasses.fields(LpParams)}
    inspect.signature(parse_character_spec).bind("omega^2", 5, relprec=8)
    inspect.signature(special_value_closed_form).bind(None, 2, 8)
