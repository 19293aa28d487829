"""Closed-geodesic tracing and arclength-uniform sampling.

A traced geodesic carries N = 2^k samples of position, unit tangent and
normal frame, the curvature jet (tau, tau_s, tau_nu, tau_nunu) and the
fundamental Jacobi solutions at s_j = 2*pi*j/N.  `surface.flow` builds
all of it from closed formulas, one start at a time, as a `GeodesicPath`,
so a traced path already holds everything `jacobi.solve_fundamental`
needs; `trace_geodesic` checks the grid and the start and gates the
closure.  The grid supports spectral differentiation and spectrally
accurate periodic quadrature of products of the samples.  Points,
tangents and samples are all in the north polar chart
(`surface.SurfacePoint`).
"""

import math

import numpy as np

from . import surface as _surface
from .surface import MIN_GRID, GeodesicPath, IntegrationError, SurfacePoint

__all__ = [
    "GeodesicPath",
    "trace_geodesic",
    "sample_initial_conditions",
    "canonical_initial_conditions",
]

CLOSURE_TOL = 1e-4
MIN_CLAIRAUT = 0.12       # sampled starts keep |Clairaut constant| above this


def trace_geodesic(metric, init, n=2048, enforce_closure=True):
    """Trace the geodesic through `init` = (point, unit tangent) over [0, 2*pi).

    Samples the closed-form geodesic, its curvature jets and its Jacobi
    frame at n uniform arclengths (`surface.flow`), with the closure
    defect at s = 2*pi.  With `enforce_closure`, a defect above
    CLOSURE_TOL raises (metric not Zoll at this tolerance).  A Newton
    solve that does not converge raises the flow's IntegrationError,
    which carries the start's solves.
    """
    if n < MIN_GRID or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= {MIN_GRID}, got {n}")
    _, v0 = init
    if abs(math.hypot(v0[0], v0[1]) - 1.0) > 1e-10:
        raise ValueError("initial tangent must be unit length")
    path = _surface.flow(metric, init, n)
    if enforce_closure and not path.closure_defect <= CLOSURE_TOL:
        raise IntegrationError(f"closure defect {path.closure_defect:.3e} > {CLOSURE_TOL}: "
                               "metric not Zoll at this tolerance", path.newton, path.correction)
    return path


def canonical_initial_conditions():
    """The fixed canonical starts: equator and a meridian."""
    equator = (SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0))
    meridian = (SurfacePoint.north(math.pi / 2, 0.0), (1.0, 0.0))
    return [("equator", equator), ("meridian", meridian)]


def sample_initial_conditions(count, seed=0):
    """Reproducible random initial conditions, poles kept at bay.

    Rejection-samples (r0, phi0, theta0) so that the Clairaut constant
    |sin r0 sin theta0| stays above MIN_CLAIRAUT, keeping the orbit away
    from the polar coordinate degeneracy (meridians are covered by the
    canonical starts).
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r0 = rng.uniform(0.35 * math.pi, 0.65 * math.pi)
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        if abs(math.sin(r0) * math.sin(theta0)) < MIN_CLAIRAUT:
            continue
        point = SurfacePoint.north(r0, phi0)
        tangent = (math.cos(theta0), math.sin(theta0))
        out.append((point, tangent))
    return out
