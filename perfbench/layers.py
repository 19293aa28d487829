"""Per-layer tracing of zollforms from outside the package.

The tracer wraps the public functions of each module of `src/zollforms/`
at every name a caller looks them up by: most modules import with
`from .x import y`, so the function object is replaced in every loaded
`zollforms.*` namespace that holds it, not only in its home module.
Methods are replaced on their class.  Each wrapper records a span; a
layer's busy time is the self time of its spans, i.e. their duration
minus the time of the spans nested inside them, so the self times of all
layers plus the harness's own share add up to the traced report time.

ODE right-hand-side evaluations are counted from the `nfev` of every
`solve_ivp` call made from `surface` and from `jacobi`.

A function that a later version of the package no longer has is skipped:
its layer then reads zero calls and zero seconds.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "zollforms"

# (layer, module, attribute path); several functions may share a layer.
SPANS = (
    ("cli.report", "cli", "main"),
    ("cli.report", "cli", "build_report"),
    ("cli.write", "cli", "_write_report"),
    ("expansion.constants", "expansion", "constants_report"),
    ("expansion.derive", "expansion", "derive_normal_form_integrands"),
    ("identities.checks", "identities", "run_all_checks"),
    ("normalform.assemble", "normalform", "assemble_p1"),
    ("normalform.conjugate", "normalform", "conjugated_order_zero"),
    ("normalform.obstruction", "normalform", "first_obstruction_means"),
    ("normalform.H", "normalform", "compute_H"),
    ("geodesic.trace", "geodesic", "trace_geodesic"),
    ("surface.flow", "surface", "flow"),
    ("jacobi.frame", "jacobi", "solve_fundamental"),
    ("jacobi.variation", "jacobi", "variation_field"),
    ("fourier.interp", "fourier", "TrigInterpolant.__call__"),
    ("fourier.spectral", "fourier", "spectral_derivative"),
    ("fourier.spectral", "fourier", "spectral_antiderivative"),
    ("fourier.spectral", "fourier", "periodic_mean"),
    ("weyl.star", "weyl", "star_product"),
    ("weyl.star", "weyl", "star_commutator"),
    ("weyl.substitute", "weyl", "PolySymbol.substitute_linear"),
)

HARNESS = "harness"   # the benchmark's own code inside a traced report
ODE_MODULES = ("surface", "jacobi")


class Tracer:
    """Installs span wrappers, accumulates self time, calls and ODE counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.nfev = Counter()          # (module, innermost layer) -> evaluations
        self._open = []                # innermost-last [layer, child seconds]
        self._restore = []             # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def _wrap(self, layer, fn):
        clock = time.perf_counter
        open_spans = self._open
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            open_spans.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                open_spans.pop()
                self_s[layer] += d - frame[1]
                calls[layer] += 1
                if open_spans:
                    open_spans[-1][1] += d
        return wrapper

    def _wrap_solver(self, module, solve_ivp):
        open_spans, nfev = self._open, self.nfev

        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev[(module, open_spans[-1][0] if open_spans else HARNESS)] += int(sol.nfev)
            return sol
        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call fn as the root span; returns (result, traced seconds)."""
        frame = [HARNESS, 0.0]
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            self._open.pop()
            self.self_s[HARNESS] += d - frame[1]
        return result, d

    # -- installation --------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, modname, attr_path in SPANS:
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                continue
            wrapper = self._wrap(layer, target)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is target:
                        self._set(module, name, wrapper)
        from scipy.integrate import solve_ivp
        for modname in ODE_MODULES:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            for name, value in list(vars(module).items()) if module else ():
                if value is solve_ivp:
                    self._set(module, name, self._wrap_solver(modname, solve_ivp))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------
    def rhs_evals(self, module, layer=None, exclude=None):
        return sum(n for (mod, lay), n in self.nfev.items()
                   if mod == module and (layer is None or lay == layer)
                   and (exclude is None or lay != exclude))
