"""Quantum Birkhoff normal form invariants of Zoll surface Laplacians.

A numpy library with an exact symbolic sub-engine; scipy is a test
oracle only.  The main entry points mirror the pipeline: build a metric
(`surface`), trace closed geodesics with their curvature jets and
Jacobi frame, all from closed formulas with no ODE solve (`geodesic`,
one `GeodesicPath` per start), read the Poincare
and Floquet data off that frame (`jacobi`), run the symbol
calculus (`weyl`, `expansion`), assemble the degree-2 normal form
invariant (`normalform`), and verify the universal integral identities
(`identities`).  A small CLI
(`zollforms`) drives deterministic reports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "MetricModel": "surface",
    "SurfacePoint": "surface",
    "GeodesicPath": "geodesic",
    "trace_geodesic": "geodesic",
    "JacobiFrame": "jacobi",
    "solve_fundamental": "jacobi",
    "InvariantRecord": "normalform",
    "assemble_p1": "normalform",
    "compute_H": "normalform",
    "constants_report": "expansion",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'zollforms' has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
