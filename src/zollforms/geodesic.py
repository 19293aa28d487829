"""Closed-geodesic tracing, sampled uniformly in the Clairaut angle.

A traced geodesic carries N = 2^k samples of the curvature jet (tau,
tau_s, tau_nu, tau_nunu) and the fundamental Jacobi solutions at
theta_j = theta0 + 2*pi*j/N, with the weight ds/d(theta) and the closure
defect; their arclengths s_j, position, unit tangent and normal frame
are computed on first read.  `surface.flow` builds all of it from closed
formulas, one start at a time, as a `GeodesicPath`, so a traced path
already holds everything `jacobi.solve_fundamental` needs;
`trace_geodesic` checks the grid and the start and gates the closure.
The path's weighted means and antiderivatives are spectrally accurate
arclength quadratures of products of the samples.  Points, tangents and
samples are all in the north polar chart (`surface.SurfacePoint`).
"""

import math

import numpy as np

from . import surface as _surface
from .surface import GeodesicPath, IntegrationError, SurfacePoint

__all__ = [
    "GeodesicPath",
    "trace_geodesic",
    "sample_initial_conditions",
    "canonical_initial_conditions",
]

CLOSURE_TOL = 1e-4
MIN_GRID = 256            # smallest sample grid
MAX_GRID = 2**20          # largest sample grid: a 2-geodesic run at 2^20 peaks near 0.6 GB
MIN_CLAIRAUT = 0.12       # sampled starts keep |Clairaut constant| above this


def trace_geodesic(metric, init, n=2048, enforce_closure=True):
    """Trace the geodesic through `init` = (point, unit tangent) over [0, 2*pi).

    Samples the closed-form geodesic, its curvature jets and its Jacobi
    frame at n uniform Clairaut angles (`surface.flow`), with the closure
    defect over one turn.  A grid that is no power of two in [MIN_GRID,
    MAX_GRID], a tangent off unit length or a start with a NaN or
    infinite coordinate raises ValueError.  With `enforce_closure`, a
    defect above CLOSURE_TOL raises IntegrationError (metric not Zoll at
    this tolerance).
    """
    if not MIN_GRID <= n <= MAX_GRID or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two in [{MIN_GRID}, {MAX_GRID}], got {n}")
    p0, v0 = init
    if not abs(math.hypot(v0[0], v0[1]) - 1.0) <= 1e-10:   # NaN fails too
        raise ValueError("initial tangent must be unit length")
    if not (math.isfinite(p0.r) and math.isfinite(p0.phi)):
        raise ValueError("initial point must be finite")
    path = _surface.flow(metric, init, n)
    if enforce_closure and not path.closure_defect <= CLOSURE_TOL:
        raise IntegrationError(f"closure defect {path.closure_defect:.3e} > {CLOSURE_TOL}: "
                               "metric not Zoll at this tolerance")
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
