"""Closed-geodesic tracing and arclength-uniform sampling.

A traced geodesic carries N = 2^k samples of position, unit tangent and
normal frame, the curvature jet (tau, tau_s, tau_nu, tau_nunu) and the
fundamental Jacobi solutions at s_j = 2*pi*j/N.  The Jacobi states come
out of the same ODE solve as the geodesic (`surface.flow`), so a traced
path already holds everything `jacobi.solve_fundamental` needs.  The grid
supports spectral differentiation and spectrally accurate periodic
quadrature of products of the samples.  Points, tangents and samples are
all in the north polar chart (`surface.SurfacePoint`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import surface as _surface
from .fourier import grid
from .surface import IntegrationError, MetricModel, SurfacePoint

__all__ = [
    "GeodesicPath",
    "trace_geodesic",
    "sample_initial_conditions",
    "canonical_initial_conditions",
]

CLOSURE_TOL = 1e-4
MIN_GRID = 256
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

    Samples the flow and its Jacobi frame at n uniform arclengths,
    evaluates the curvature jets analytically along the samples, and
    records the phase-space closure
    defect at 2*pi.  With `enforce_closure`, a defect above 1e-4 raises
    (metric not Zoll at this tolerance, or integration too coarse).
    """
    _validate_grid(n)
    p0, v0 = init
    v0 = np.asarray(v0, dtype=float)
    if abs(np.hypot(v0[0], v0[1]) - 1.0) > 1e-10:
        raise ValueError("initial tangent must be unit length")
    s = grid(n)
    t_eval = np.append(s, 2.0 * math.pi)
    r, phi, v1, v2, jacobi = _surface.flow(metric, p0, v0, t_eval)
    end_point = SurfacePoint.north(float(r[-1]), float(phi[-1]))
    end_tan = np.array([v1[-1], v2[-1]])
    defect = _surface.state_distance(metric, p0, v0, end_point, end_tan)
    if enforce_closure and not defect <= CLOSURE_TOL:
        raise IntegrationError(
            f"closure defect {defect:.3e} > {CLOSURE_TOL}: metric not Zoll at "
            "this tolerance or integration too coarse")
    r, phi, v1, v2 = r[:-1], phi[:-1], v1[:-1], v2[:-1]
    tangent = np.stack([v1, v2], axis=1)
    normal = np.stack([-v2, v1], axis=1)
    if metric.is_round:
        tau = np.ones(n)
        tau_s = np.zeros(n)
        tau_nu = np.zeros(n)
        tau_nunu = np.zeros(n)
    else:
        tau, tau_s, tau_nu, tau_nunu = _surface.curvature_jet_arrays(
            metric, r, v1, v2, -v2, v1)
    return GeodesicPath(
        metric=metric, init=(p0, tuple(v0)),
        n=n, s=s, r=r, phi=phi, tangent=tangent, normal=normal,
        tau=tau, tau_s=tau_s, tau_nu=tau_nu, tau_nunu=tau_nunu,
        jacobi=jacobi[:, :-1], jacobi_end=jacobi[:, -1],
        closure_defect=float(defect),
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
