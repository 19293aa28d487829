"""Closed-geodesic tracing and arclength-uniform sampling.

A traced geodesic carries N = 2^k samples of position, unit tangent and
normal frame, the curvature jet (tau, tau_s, tau_nu, tau_nunu) and the
fundamental Jacobi solutions at s_j = 2*pi*j/N.  The Jacobi states come
out of the same ODE solve as the geodesic (`surface.flow`), so a traced
path already holds everything `jacobi.solve_fundamental` needs.
`trace_geodesics` traces many starts in stacked solves, cut to a memory
budget; `trace_geodesic` is its one-start case.
The grid supports spectral differentiation and spectrally accurate
periodic quadrature of products of the samples.  Points, tangents and
samples are all in the north polar chart (`surface.SurfacePoint`).
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
    "trace_geodesics",
    "sample_initial_conditions",
    "canonical_initial_conditions",
]

CLOSURE_TOL = 1e-4
MIN_GRID = 256
MIN_CLAIRAUT = 0.12       # sampled starts keep |Clairaut constant| above this
# Stacked flow samples per solve, held once: the CLI's 32 starts of a cone
# profile at N = 2048 take two solves, and N = 32768 takes one start per solve.
FLOW_CHUNK_BYTES = 2 * 2**20


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

    The one-start case of `trace_geodesics`.  Samples the flow and its
    Jacobi frame at n uniform arclengths, evaluates the curvature jets
    analytically along the samples, and records the closure defect of the
    flow's chart state at 2*pi (`surface.FlowSamples.closure_defect`).
    With `enforce_closure`, a defect above 1e-4 raises
    (metric not Zoll at this tolerance, or integration too coarse).
    """
    (_, path), = trace_geodesics(metric, [init], n, enforce_closure)
    if isinstance(path, IntegrationError):
        raise path
    return path


def trace_geodesics(metric, inits, n=2048, enforce_closure=True, solves=None):
    """Trace the geodesics through `inits` in stacked flow solves.

    Every closed geodesic has period 2*pi, so the starts share one
    arclength grid.  Ordered by |Clairaut constant|, they are cut into
    chunks of at most FLOW_CHUNK_BYTES of stacked samples; a stack steps
    as finely as its hardest start needs, and near-meridians need the
    finest steps.  Each chunk is one `surface.flow` solve.  Yields (index into `inits`, path)
    chunk by chunk, so one chunk's samples are held at a time; the path is
    a GeodesicPath or the IntegrationError that ended the start.  A stacked
    solve that fails is re-run one start at a time, so each failure stays
    with its own start, and with `enforce_closure` a closure defect above
    CLOSURE_TOL is one.  With a list `solves`, one dict per flow solve
    (chart, geodesics, nfev, status) is appended to it.
    """
    _validate_grid(n)
    inits = [(p0, np.asarray(v0, dtype=float)) for p0, v0 in inits]
    for _, v0 in inits:
        if abs(np.hypot(v0[0], v0[1]) - 1.0) > 1e-10:
            raise ValueError("initial tangent must be unit length")
    return _traced(metric, inits, n, enforce_closure, solves)


def _chunks(inits, n, chart):
    """Start indices per flow solve: by |Clairaut constant|, cut to the byte budget."""
    if not inits:
        return []
    order = sorted(range(len(inits)),
                   key=lambda i: abs(_surface.clairaut_constant(inits[i][0].r, inits[i][1][1])))
    most = max(1, FLOW_CHUNK_BYTES // (8 * (n + 1) * _surface.CHART_STATE_SIZE[chart]))
    return [chunk.tolist() for chunk in np.array_split(order, -(-len(order) // most))]


def _traced(metric, inits, n, enforce_closure, solves):
    chart = _surface.flow_chart(metric)
    for members in _chunks(inits, n, chart):
        solved = _solve_chunk(metric, chart, [inits[i] for i in members], n, solves)
        for i in members:
            # popped, so no name still holds this chunk's samples during the next solve
            yield i, _path(metric, inits[i], n, solved.pop(0), enforce_closure)


def _solve_chunk(metric, chart, inits, n, solves):
    """(samples, row) per start of one chunk, or the IntegrationError that ended
    it; a failed stacked solve is re-run one start at a time."""
    try:
        samples = _surface.flow(metric, inits, np.append(grid(n), 2.0 * math.pi))
    except IntegrationError as exc:
        if solves is not None:
            solves.append({"chart": chart, "geodesics": len(inits), "nfev": exc.nfev,
                           "status": -1})
        if len(inits) == 1:
            return [exc]
        return [out for init in inits for out in _solve_chunk(metric, chart, [init], n, solves)]
    if solves is not None:
        solves.append({"chart": chart, "geodesics": len(inits), "nfev": samples.nfev,
                       "status": 0})
    return [(samples, g) for g in range(len(inits))]


def _path(metric, init, n, solved, enforce_closure):
    """GeodesicPath of `solved` = (flow samples, row), or the IntegrationError
    that ended the start.

    The path's arrays are copies, so the chunk's samples are freed once its
    last path is built."""
    if isinstance(solved, IntegrationError):
        return solved
    samples, g = solved
    p0, v0 = init
    defect = samples.closure_defect(g)
    if enforce_closure and not defect <= CLOSURE_TOL:
        return IntegrationError(
            f"closure defect {defect:.3e} > {CLOSURE_TOL}: metric not Zoll at "
            "this tolerance or integration too coarse")
    r, phi, v1, v2, jacobi = samples.start(g)
    r, phi, v1, v2 = r[:-1].copy(), phi[:-1].copy(), v1[:-1], v2[:-1]
    tangent = np.stack([v1, v2], axis=1)
    normal = np.stack([-v2, v1], axis=1)
    tau, tau_s, tau_nu, tau_nunu = _surface.curvature_jet_arrays(metric, r, v1, v2)
    return GeodesicPath(
        metric=metric, init=(p0, tuple(v0)),
        n=n, s=grid(n), r=r, phi=phi, tangent=tangent, normal=normal,
        tau=tau, tau_s=tau_s, tau_nu=tau_nu, tau_nunu=tau_nunu,
        jacobi=jacobi[:, :-1].copy(), jacobi_end=jacobi[:, -1].copy(),
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
