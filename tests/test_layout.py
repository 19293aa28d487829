"""Every public name and every definition of the package has a user
outside the tests, and every import is read.

A name in a module's `__all__`, or a key of the package's lazy
`_EXPORTS`, must be used by the package's own code (anywhere but inside
its own definition), by a demo, or be named in the README's library
tour.  So must every function, class and method defined in `src/`, less
dunders and methods that override one of a base class.  Code only the
tests call belongs in `tests/oracles.py`.

A name imported in `src/`, `tests/` or `demos/` must be read by that
file's code or listed in its `__all__`; `__init__.py` files, which
re-export, are exempt.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zollforms"


def _literal(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _used_names(tree):
    """Names read in code; a definition's own body does not use its name."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def public_names():
    """(module, name) for every `__all__` entry and `_EXPORTS` key."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    names = {(mod, name) for mod, tree in trees.items() if mod != "__init__"
             for name in _literal(tree, "__all__") or ()}
    names |= {(mod, name) for name, mod in _literal(trees["__init__"], "_EXPORTS").items()}
    return sorted(names), trees


def library_tour():
    text = (ROOT / "README.md").read_text()
    return text.split("## Library tour", 1)[1].split("\n## ", 1)[0]


def _reads(trees):
    """Names read by the package's code and the demos, and a test for a
    name that the library tour mentions."""
    used = set()
    for mod, tree in trees.items():
        if mod != "__init__":
            used |= _used_names(tree)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _used_names(ast.parse(demo.read_text()))
    tour = library_tour()
    return lambda name: name in used or re.search(rf"\b{re.escape(name)}\b", tour)


def test_every_public_name_has_a_user():
    names, trees = public_names()
    read = _reads(trees)
    unused = [f"{mod}.{name}" for mod, name in names if not read(name)]
    assert not unused, f"public names with no user outside the tests: {unused}"


def _overrides(mod, cls, name):
    """True if method `name` of class `cls` in zollforms.`mod` overrides one of a base."""
    obj = getattr(importlib.import_module(f"zollforms.{mod}"), cls, None)
    return obj is not None and any(hasattr(base, name) for base in obj.__mro__[1:])


def unread_definitions(trees):
    """mod.name (or mod.Class.name) of every function, class and method that
    nothing outside the tests reads; dunders and overrides are exempt."""
    read = _reads(trees)
    out = []

    def visit(mod, node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                exempt = (name.startswith("__") and name.endswith("__")
                          or cls is not None and _overrides(mod, cls, name))
                if not exempt and not read(name):
                    out.append(".".join(filter(None, (mod, cls, name))))
                visit(mod, child, name if isinstance(child, ast.ClassDef) else None)
            else:
                visit(mod, child, cls)

    for mod, tree in trees.items():
        visit(mod, tree, None)
    return sorted(out)


def test_every_definition_has_a_user():
    _, trees = public_names()
    unread = unread_definitions(trees)
    assert not unread, f"definitions with no user outside the tests: {unread}"


def test_a_helper_left_without_a_caller_is_caught():
    """The rule names a leftover helper, and exempts `_SampledDOP853.step`,
    which scipy's solver calls as an override of its base."""
    assert _overrides("surface", "_SampledDOP853", "step")
    _, trees = public_names()
    leftover = ast.parse("def _fold_meridian(rho, phi0, direction):\n    return rho\n")
    trees["surface"].body.extend(leftover.body)
    assert unread_definitions(trees) == ["surface._fold_meridian"]


def test_exports_resolve():
    import zollforms

    _, trees = public_names()
    for name, mod in _literal(trees["__init__"], "_EXPORTS").items():
        assert getattr(zollforms, name) is getattr(importlib.import_module(f"zollforms.{mod}"), name)


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(_literal(tree, "__all__") or ())
    return sorted(imported - read)


def test_every_import_is_read():
    unused = {}
    for folder in ("src", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            names = _unused_imports(ast.parse(path.read_text()))
            if names:
                unused[str(path.relative_to(ROOT))] = names
    assert not unused, f"imports no code reads: {unused}"
