"""Every public name of the package has a user outside the tests, and
every import is read.

A name in a module's `__all__`, or a key of the package's lazy
`_EXPORTS`, must be used by the package's own code (anywhere but inside
its own definition), by a demo, or be named in the README's library
tour.  Code only the tests call belongs in `tests/oracles.py`.

A name imported in `src/`, `tests/` or `demos/` must be read by that
file's code or listed in its `__all__`; `__init__.py` files, which
re-export, are exempt.
"""

import ast
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


def test_every_public_name_has_a_user():
    names, trees = public_names()
    used = set()
    for mod, tree in trees.items():
        if mod != "__init__":
            used |= _used_names(tree)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _used_names(ast.parse(demo.read_text()))
    tour = library_tour()
    unused = [f"{mod}.{name}" for mod, name in names
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", tour)]
    assert not unused, f"public names with no user outside the tests: {unused}"


def test_exports_resolve():
    import importlib

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
