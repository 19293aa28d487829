"""Every public name and every definition of the package has a user
outside the tests, and every import is read.

A name in a module's `__all__`, or a key of the package's lazy
`_EXPORTS`, must be used by the package's own code (anywhere but inside
its own definition), by a demo, or be named in the README's library
tour.  So must every function, class and method defined in `src/`, less
dunders; a method counts as used only through an attribute read
(`x.name`) or a `.name` in the tour, since a variable or parameter of
the same name does not call it.  Code only the tests call belongs in
`tests/oracles.py`.

A name imported in `src/`, `tests/` or `demos/` must be read by that
file's code or listed in its `__all__`; `__init__.py` files, which
re-export, are exempt.  The package imports only the standard library,
numpy and itself: scipy serves the tests' oracles and nothing at run time,
and a run loads no second polynomial representation (`numpy.polynomial`).
The exact algebra (`expansion`) imports neither numpy nor the engine
(`normalform`) or the CLI.  The engine imports nothing from `weyl`: the
exact layer derives every constant once, the weights of stage 2 too
(`expansion.stage2_weights`), and the engine only converts and
evaluates them.  The engine names no inverse FFT and no sampled
antiderivative: it reads the solution of its homological equation only
through spectra, and `fourier.antiderivative_spectrum`, which gives
them, names no inverse FFT either.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import zollforms

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zollforms"


def _literal(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _used_names(tree):
    """(names, attributes) read in code: every name or attribute read, and
    the attribute reads alone; a definition's own body does not use its name."""
    names, attributes = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name, attribute = None, False
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name, attribute = node.attr, True
        if name is not None and name not in inside:
            names.add(name)
            if attribute:
                attributes.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return names, attributes


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
    """A test of whether the package's code, the demos or the library tour
    read a name, or with `method=True` read it as an attribute."""
    used, attributes = set(), set()
    sources = [tree for mod, tree in trees.items() if mod != "__init__"]
    sources += [ast.parse(demo.read_text()) for demo in sorted((ROOT / "demos").glob("*.py"))]
    for tree in sources:
        names, attrs = _used_names(tree)
        used |= names
        attributes |= attrs
    tour = library_tour()

    def read(name, method=False):
        if method:
            return name in attributes or re.search(rf"\.{re.escape(name)}\b", tour)
        return name in used or re.search(rf"\b{re.escape(name)}\b", tour)

    return read


def test_every_public_name_has_a_user():
    names, trees = public_names()
    read = _reads(trees)
    unused = [f"{mod}.{name}" for mod, name in names if not read(name)]
    assert not unused, f"public names with no user outside the tests: {unused}"


def unread_definitions(trees):
    """mod.name (or mod.Class.name) of every function, class and method that
    nothing outside the tests reads; dunders are exempt."""
    read = _reads(trees)
    out = []

    def visit(mod, node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                exempt = name.startswith("__") and name.endswith("__")
                method = cls is not None and not isinstance(child, ast.ClassDef)
                if not exempt and not read(name, method):
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
    _, trees = public_names()
    leftover = ast.parse("def _fold_meridian(rho, phi0, direction):\n    return rho\n")
    trees["surface"].body.extend(leftover.body)
    # a method whose name the package reads only as a variable or parameter
    # (`JetPolynomial.coefficient(self, monomial)`) has no caller either
    assert "monomial" in _used_names(trees["expansion"])[0]
    poly_symbol = next(node for node in trees["weyl"].body
                       if isinstance(node, ast.ClassDef) and node.name == "PolySymbol")
    shadowed = ast.parse("@classmethod\ndef monomial(cls, m, n):\n    return cls({(m, n): 1})\n")
    poly_symbol.body.extend(shadowed.body)
    assert unread_definitions(trees) == ["surface._fold_meridian", "weyl.PolySymbol.monomial"]


def test_exports_resolve():
    """Every `__all__` entry is defined in its module, and every `_EXPORTS`
    key is the package attribute of its module's name: a name deleted from
    a module but left in its `__all__` fails here, where the user test
    would still count a README mention of it."""
    names, trees = public_names()
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(f"zollforms.{mod}"), name)]
    assert not missing, f"public names that do not resolve: {missing}"
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


def _foreign_imports(tree):
    """Top-level modules a package file imports beyond the standard library and numpy."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return sorted(out - set(sys.stdlib_module_names) - {"numpy", "zollforms"})


def test_the_package_imports_only_stdlib_and_numpy():
    foreign = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
               if (names := _foreign_imports(ast.parse(path.read_text())))}
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def test_the_import_rule_names_scipy():
    tree = ast.parse("import os\nfrom numpy.linalg import norm\nfrom . import surface\n"
                     "from scipy.integrate import solve_ivp\nimport scipy.special as sp\n")
    assert _foreign_imports(tree) == ["scipy"]


def _package_imports(tree):
    """Modules a package file imports, at any nesting level: the top-level
    name of an absolute import, the module of a relative one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [a.name for a in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            out.add(parts[1] if parts[0] == "zollforms" and len(parts) > 1 else parts[0])
    return out


EXACT_LAYER_FORBIDS = {"numpy", "normalform", "cli"}


def test_the_exact_algebra_stays_below_the_engine():
    """`expansion` imports neither numpy nor the engine or the CLI, not even
    inside a function: it stays exact, and no import cycle comes back."""
    tree = ast.parse((PACKAGE / "expansion.py").read_text())
    assert not _package_imports(tree) & EXACT_LAYER_FORBIDS


def test_the_engine_imports_nothing_from_weyl():
    """`normalform` reads stage 1 and the stage 2 weights from `expansion`
    and forms no symbol algebra of its own, not even inside a function."""
    tree = ast.parse((PACKAGE / "normalform.py").read_text())
    assert "weyl" not in _package_imports(tree)


def _names(tree):
    """Every name, attribute and imported name a tree mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.name.split(".")[-1] for a in node.names}
    return out


ENGINE_FORBIDS = {"ifft", "irfft", "spectral_antiderivative"}


def test_the_engine_takes_no_inverse_transform():
    """`normalform` reads Q only through its spectrum: it names no inverse
    FFT and no sampled antiderivative, so a second stage-2 route cannot
    come back quietly (compute_H integrates through the path)."""
    tree = ast.parse((PACKAGE / "normalform.py").read_text())
    assert not _names(tree) & ENGINE_FORBIDS


def test_the_antiderivative_spectrum_takes_no_inverse_transform():
    """`fourier.antiderivative_spectrum` works on the spectrum alone: it
    names no inverse FFT, as it would to read the samples back."""
    tree = ast.parse((PACKAGE / "fourier.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "antiderivative_spectrum")
    assert not _names(func) & {"ifft", "irfft"}


def test_the_transform_rule_sees_every_spelling():
    tree = ast.parse("from .fourier import spectral_antiderivative as sa\n"
                     "def f(x):\n    return np.fft.ifft(x)\n"
                     "from numpy.fft import irfft\n")
    assert _names(tree) & ENGINE_FORBIDS == ENGINE_FORBIDS


def test_the_layering_rule_sees_nested_imports():
    tree = ast.parse("from .weyl import PolySymbol\n"
                     "def f():\n    from .normalform import SOperator\n"
                     "    import numpy.linalg\n"
                     "class C:\n    def g(self):\n        from . import cli\n"
                     "        from zollforms.jacobi import solve_fundamental\n")
    assert _package_imports(tree) == {"weyl", "normalform", "numpy", "cli", "jacobi"}


RUN_WITHOUT_SCIPY = """
import math, sys
from zollforms import cli
from zollforms.geodesic import trace_geodesic
from zollforms.normalform import assemble_p1
from zollforms.surface import MetricModel, SurfacePoint

assert cli.main(["constants"]) == 0
metric = MetricModel.zoll_revolution([-0.3, 0.3])
start = (SurfacePoint.north(math.pi / 2, 0.0), (0.6, 0.8))
assemble_p1(metric, start, 256, path=trace_geodesic(metric, start, 256))
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")), file=sys.stderr)
"""


def test_a_run_loads_no_scipy():
    """A fresh interpreter (this one holds scipy through the test oracles)
    runs `zollforms constants` and one geodesic through the normal form,
    and loads no scipy module and no `numpy.polynomial`: the metric's one
    coefficient table is all the polynomials a run needs."""
    src = str(pathlib.Path(zollforms.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.strip().splitlines()[-1] == "[]"
