"""Closed-geodesic tracing and arclength-uniform sampling.

A traced geodesic carries N = 2^k samples of position, unit tangent and
normal frame, the curvature jet (tau, tau_s, tau_nu, tau_nunu) and the
fundamental Jacobi solutions at s_j = 2*pi*j/N.  The geodesic and its
Jacobi frame come from the same closed formulas (`surface.flow`), so a
traced path already holds everything `jacobi.solve_fundamental` needs.
`trace_geodesics` traces many starts, one at a time; `trace_geodesic` is
its one-start case.
The grid supports spectral differentiation and spectrally accurate
periodic quadrature of products of the samples.  Points, tangents and
samples are all in the north polar chart (`surface.SurfacePoint`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import surface as _surface
from .fourier import grid
from .surface import MIN_GRID, IntegrationError, MetricModel, SurfacePoint

__all__ = [
    "GeodesicPath",
    "trace_geodesic",
    "trace_geodesics",
    "sample_initial_conditions",
    "canonical_initial_conditions",
]

CLOSURE_TOL = 1e-4
MIN_CLAIRAUT = 0.12       # sampled starts keep |Clairaut constant| above this


@dataclass(frozen=True)
class GeodesicPath:
    """Arclength-uniform samples of a (nominally closed) unit-speed geodesic.

    Sample arrays have length n; index j is s_j = 2*pi*j/n.  `r`, `phi` are
    north polar chart coordinates, `tangent` and `normal` are (n, 2) frame
    components, and tau/tau_s/tau_nu/tau_nunu are the curvature jets.
    `jacobi` holds the (4, n) rows (y1, y1', y2, y2') of the fundamental
    Jacobi solutions, (y1, y1') = (0, 1) and (y2, y2') = (1, 0) at s = 0,
    and `jacobi_end` their state at s = 2*pi.
    """

    metric: MetricModel
    init: tuple            # (SurfacePoint, (v1, v2))
    n: int
    s: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    tau: np.ndarray
    tau_s: np.ndarray
    tau_nu: np.ndarray
    tau_nunu: np.ndarray
    jacobi: np.ndarray
    jacobi_end: np.ndarray
    closure_defect: float

    def jets(self):
        return {"tau": self.tau, "tau_s": self.tau_s,
                "tau_nu": self.tau_nu, "tau_nunu": self.tau_nunu}


def _validate_grid(n):
    if n < MIN_GRID or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= {MIN_GRID}, got {n}")


def trace_geodesic(metric, init, n=2048, enforce_closure=True):
    """Trace the geodesic through `init` = (point, unit tangent) over [0, 2*pi).

    The one-start case of `trace_geodesics`.  Samples the closed-form
    geodesic and its Jacobi frame at n uniform arclengths
    (`surface.flow`), evaluates the curvature jets analytically along the
    samples, and records the closure defect at s = 2*pi.  With
    `enforce_closure`, a defect above CLOSURE_TOL raises (metric not Zoll
    at this tolerance).
    """
    (_, path), = trace_geodesics(metric, [init], n, enforce_closure)
    if isinstance(path, IntegrationError):
        raise path
    return path


def trace_geodesics(metric, inits, n=2048, enforce_closure=True, telemetry=None):
    """Trace the geodesics through `inits`, one start at a time.

    Yields (index into `inits`, path) in order; the path is a
    GeodesicPath or the IntegrationError that ended the start, so each
    failure stays with its own start.  With `enforce_closure` a closure
    defect above CLOSURE_TOL is one.  With a list `telemetry`, one dict
    per start is appended to it: the [grid, steps] of its Newton solves,
    coarse grid first, and the last correction.
    """
    _validate_grid(n)
    inits = [(p0, np.asarray(v0, dtype=float)) for p0, v0 in inits]
    for _, v0 in inits:
        if abs(np.hypot(v0[0], v0[1]) - 1.0) > 1e-10:
            raise ValueError("initial tangent must be unit length")
    return _traced(metric, inits, n, enforce_closure, telemetry)


def _traced(metric, inits, n, enforce_closure, telemetry):
    for i, init in enumerate(inits):
        try:
            samples = _surface.flow(metric, init, n)
        except IntegrationError as exc:
            samples = exc
        if telemetry is not None:
            telemetry.append({"newton": [list(solve) for solve in samples.newton],
                              "correction": samples.correction})
        failed = isinstance(samples, IntegrationError)
        yield i, samples if failed else _path(metric, init, n, samples, enforce_closure)


def _path(metric, init, n, samples, enforce_closure):
    """GeodesicPath of the flow samples of `init`, or the IntegrationError of
    a closure defect above CLOSURE_TOL under `enforce_closure`."""
    defect = samples.closure_defect
    if enforce_closure and not defect <= CLOSURE_TOL:
        return IntegrationError(
            f"closure defect {defect:.3e} > {CLOSURE_TOL}: metric not Zoll at this tolerance")
    r, phi, v1, v2 = (x[:-1] for x in samples[:4])
    tau, tau_s, tau_nu, tau_nunu = _surface.curvature_jet_arrays(metric, r, v1, v2)
    return GeodesicPath(
        metric=metric, init=(init[0], tuple(init[1])),
        n=n, s=grid(n), r=r, phi=phi,
        tangent=np.stack([v1, v2], axis=1), normal=np.stack([-v2, v1], axis=1),
        tau=tau, tau_s=tau_s, tau_nu=tau_nu, tau_nunu=tau_nunu,
        jacobi=samples.jacobi[:, :-1], jacobi_end=samples.jacobi[:, -1],
        closure_defect=defect,
    )


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
