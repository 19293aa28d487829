"""Zoll metrics of revolution, their curvature jets and the geodesic flow.

The metric family is f(r)^2 dr^2 + sin(r)^2 dphi^2 on S^2 with
f(r) = 1 + h(cos r) and h an odd polynomial, |h| < 1 on [-1, 1].  Every
geodesic avoiding the poles closes smoothly at length 2*pi (the odd part
of the profile drops out of the Clairaut integrals), which is what makes
the family a usable Zoll corpus.  Profiles with h(1) != 0 have cone
points at the poles; they are accepted, but surface-global quantities
(Gauss-Bonnet) then see the cone defect.

A point is (r, phi) in the north polar chart, and every point and tangent
of the package lives there.  Tangent vectors are stored as components
(v1, v2) in the orthonormal frame e1 = (1/f) d_r, e2 = (1/sin r) d_phi,
which orients the surface; the unit normal of a geodesic is the +pi/2
rotation (v1, v2) -> (-v2, v1).

Curvature jets are evaluated along sample sets from closed-form
derivatives of K(u) = (f - u h'(u)) / f^3, u = cos r, which stay regular
at the poles; the finite-difference stencil along the normal geodesic is
the cross-check oracle in the tests.

`flow` integrates geodesics together with the fundamental Jacobi
solutions of y'' + K(u) y = 0, with K evaluated in closed form from the
state.  All closed geodesics share the period 2*pi, so starts in one
chart stack into one ODE state and one solve; `geodesic.trace_geodesics`
makes one such solve per chart group, cut into chunks that fit a memory
budget.  Each chart has one right-hand-side body, which runs on Python
floats for a single geodesic and on numpy rows for a stack.  There are
two charts.  Smooth profiles (h(+-1) = 0, so h = (1 - u^2) q) are
integrated in ambient coordinates x on S^2 in R^3, where the metric is
the round one plus the polynomial term beta(u) du^2 and nothing is
singular at the poles; every start, meridians included, goes through
this chart.  Profiles with cone points keep the Clairaut chart
(r, phi, p_r), and meridians the unrolled covering angle: in ambient
coordinates beta = h (2 + h) / (1 - u^2) has a pole at a cone point and
the flow loses accuracy near it.  On h = 0.1 x, from the equator, the
ambient closure defect is 4e-8, 3e-5 and 4e-2 at Clairaut constants
1e-2, 1e-3 and 1e-4; the Clairaut chart stays at or below 3e-11.
"""

import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import DOP853, solve_ivp

__all__ = [
    "MetricModel",
    "SurfacePoint",
    "IntegrationError",
    "state_distance",
]

ADMISSIBILITY_SAMPLES = 10_000
MERIDIAN_TOL = 1e-12      # cone profiles: |Clairaut constant| below this is traced as a meridian
ODE_TOL = 1e-12
CHART_STATE_SIZE = {"ambient": 10, "clairaut": 7, "meridian": 5}   # ODE state per geodesic


class IntegrationError(RuntimeError):
    def __init__(self, message, arclength_reached=None, nfev=None):
        super().__init__(message)
        self.arclength_reached = arclength_reached
        self.nfev = nfev


@dataclass(frozen=True)
class MetricModel:
    """A Zoll metric specification.

    kind: "round" or "zoll_revolution".  The profile h(x) = sum a_k x^(2k+1)
    is stored through its odd coefficients.  `h_even_coeffs` (powers
    x^2, x^4, ...) is a diagnostic hook that deliberately destroys the Zoll
    property; it exists for negative-control fixtures only.
    """

    kind: str = "round"
    h_odd_coeffs: tuple = ()
    h_even_coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("round", "zoll_revolution"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        object.__setattr__(self, "h_odd_coeffs", tuple(float(a) for a in self.h_odd_coeffs))
        object.__setattr__(self, "h_even_coeffs", tuple(float(a) for a in self.h_even_coeffs))
        if self.kind == "round" and (self.h_odd_coeffs or self.h_even_coeffs):
            raise ValueError("round metric takes no profile coefficients")
        x = np.linspace(-1.0, 1.0, ADMISSIBILITY_SAMPLES)
        if not np.max(np.abs(self._h_poly()(x))) < 1.0:
            raise ValueError("inadmissible profile: |h| must stay below 1 on [-1, 1]")

    @classmethod
    def round(cls):
        return cls(kind="round")

    @classmethod
    def zoll_revolution(cls, h_odd_coeffs, h_even_coeffs=()):
        return cls(kind="zoll_revolution", h_odd_coeffs=tuple(h_odd_coeffs),
                   h_even_coeffs=tuple(h_even_coeffs))

    @property
    def is_round(self):
        return not self.h_odd_coeffs and not self.h_even_coeffs

    def _h_poly(self):
        deg = 2 * len(self.h_odd_coeffs) + 1 if self.h_odd_coeffs else 0
        deg = max(deg, 2 * len(self.h_even_coeffs))
        coeffs = np.zeros(max(deg + 1, 1))
        for k, a in enumerate(self.h_odd_coeffs):
            coeffs[2 * k + 1] = a
        for k, a in enumerate(self.h_even_coeffs):
            coeffs[2 * k + 2] = a
        return Polynomial(coeffs)

    def _curvature_polys(self):
        """Cached numerator/denominator data for K(u) and its u-derivatives."""
        cache = getattr(self, "_cpolys", None)
        if cache is None:
            h = self._h_poly()
            hp = h.deriv()
            f = Polynomial([1.0]) + h
            N = f - Polynomial([0.0, 1.0]) * hp
            cache = {
                "h": h, "hp": hp, "hpp": hp.deriv(), "f": f,
                "N": N, "Np": N.deriv(), "Npp": N.deriv(2),
            }
            object.__setattr__(self, "_cpolys", cache)
        return cache

    @property
    def has_cone_points(self):
        """True unless h(+-1) = 0 to roundoff, i.e. the metric is smooth at the poles."""
        h = self._curvature_polys()["h"]
        roundoff = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(h.coef)))
        return not max(abs(h(1.0)), abs(h(-1.0))) <= roundoff

    def _flow_coeffs(self):
        """Descending coefficient tuples for scalar Horner evaluation in the flow.

        Smooth profiles, h = (1 - u^2) q, also carry the polynomial
        beta = h (2 + h) / (1 - u^2) = q (2 + h), by which the metric
        exceeds the round one: g = |dx|^2 + beta(u) du^2 on S^2 in R^3.
        """
        cache = getattr(self, "_fcoeffs", None)
        if cache is None:
            h, hp = self._curvature_polys()["h"], self._curvature_polys()["hp"]
            desc = lambda poly: tuple(float(a) for a in poly.coef[::-1])
            cache = {"h": desc(h), "hp": desc(hp)}
            if not self.has_cone_points:
                q = h // Polynomial([1.0, 0.0, -1.0])
                beta = q * (2.0 + h)
                cache.update(beta=desc(beta), betap=desc(beta.deriv()))
            object.__setattr__(self, "_fcoeffs", cache)
        return cache

    def profile(self, u):
        return self._curvature_polys()["h"](u)

    def warp(self, u):
        """f = 1 + h(u) at u = cos r."""
        return 1.0 + self.profile(u)

    def curvature_u_derivs(self, u):
        """(K, dK/du, d2K/du2) at u = cos r, vectorized and pole-regular."""
        c = self._curvature_polys()
        f, hp, hpp = c["f"](u), c["hp"](u), c["hpp"](u)
        N, Np, Npp = c["N"](u), c["Np"](u), c["Npp"](u)
        K = N / f**3
        Kp = Np / f**3 - 3.0 * N * hp / f**4
        Kpp = (Npp / f**3 - (6.0 * Np * hp + 3.0 * N * hpp) / f**4
               + 12.0 * N * hp**2 / f**5)
        return K, Kp, Kpp


@dataclass(frozen=True)
class SurfacePoint:
    """Point (r, phi) of the north polar chart; r in [0, pi], phi in [0, 2pi)."""

    r: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @classmethod
    def north(cls, r, phi):
        return cls(r, phi)


def curvature_jet_arrays(metric, r, v1, v2, n1, n2):
    """Vectorized analytic jets along a geodesic sample set.

    r: colatitudes; (v1, v2): unit tangent frame components; (n1, n2): unit
    normal components.  All formulas are written in u = cos r and stay
    finite at the poles.
    """
    u = np.cos(r)
    sin_r = np.sin(r)
    f = metric.warp(u)
    K, Kp, Kpp = metric.curvature_u_derivs(u)
    sin2 = 1.0 - u * u
    hp = metric._curvature_polys()["hp"](u)
    tau = K
    tau_s = -Kp * sin_r * v1 / f
    tau_nu = -Kp * sin_r * n1 / f
    tau_nunu = (n1**2 / f**2) * (Kpp * sin2 - Kp * u - Kp * sin2 * hp / f) \
        - Kp * u * n2**2 / f**2
    return tau, tau_s, tau_nu, tau_nunu


# ---------------------------------------------------------------------------
# Geodesic flow
# ---------------------------------------------------------------------------

JACOBI_START = (0.0, 1.0, 1.0, 0.0)   # (y1, y1', y2, y2') at s = 0


def clairaut_constant(r, v2):
    """c = g(v, d_phi) = v2 sin r, conserved along geodesics."""
    return math.sin(r) * v2


def _horner(coeffs, x):
    """Value at x (a float, or an array) of the polynomial with descending coefficients.

    Zero coefficients, every other one of an odd or even profile, add nothing.
    """
    out = coeffs[0]
    for a in coeffs[1:]:
        out = out * x + a if a else out * x
    return out


def _warp_curvature(fc, u):
    """(f, h'(u), K(u)) with f = 1 + h(u) and K = (f - u h') / f^3, by scalar Horner."""
    f = 1.0 + _horner(fc["h"], u)
    dh = _horner(fc["hp"], u)
    return f, dh, (f - u * dh) / (f * f * f)


def _stack_io(d, g):
    """(unpack, pack, cos, sin) for a flow state of g stacked geodesics, d numbers each.

    The state is laid out (d, g): component k of geodesic j sits at k g + j.
    One geodesic unpacks to Python floats, whose scalar arithmetic is
    several times faster than numpy's on length-1 arrays; a stack unpacks
    to the d rows of length g, and the same right-hand-side body then
    runs on rows.
    """
    if g == 1:
        return np.ndarray.tolist, tuple, math.cos, math.sin
    return (lambda state: state.reshape(d, g)), np.concatenate, np.cos, np.sin


def _ambient_rhs(metric, g):
    """x'' = mu x - kappa e3 on S^2 in R^3, with the Jacobi pair riding along.

    The metric is |dx|^2 + beta(u) du^2 with u = x3; with w = u' and
    f = 1 + h, kappa = (beta' w^2 / 2 - beta u |x'|^2) / f^2 and
    mu = kappa u - |x'|^2 keep x on the sphere.
    """
    fc = metric._flow_coeffs()
    beta, betap = fc["beta"], fc["betap"]
    unpack, pack, _, _ = _stack_io(CHART_STATE_SIZE["ambient"], g)

    def rhs(_s, state):
        x1, x2, u, p1, p2, w, y1, dy1, y2, dy2 = unpack(state)
        f, _, k = _warp_curvature(fc, u)
        minus_k = -k
        speed2 = p1 * p1 + p2 * p2 + w * w
        kappa = (0.5 * _horner(betap, u) * w * w - _horner(beta, u) * u * speed2) / (f * f)
        mu = kappa * u - speed2
        return pack((p1, p2, w, mu * x1, mu * x2, mu * u - kappa,
                     dy1, minus_k * y1, dy2, minus_k * y2))
    return rhs


def _clairaut_rhs(metric, c):
    """(r, phi, p_r) with the Jacobi pair; c is the Clairaut constant, or their row."""
    fc = metric._flow_coeffs()
    unpack, pack, cos, sin = _stack_io(CHART_STATE_SIZE["clairaut"], np.size(c))
    cc = c * c

    def rhs(_s, state):
        r, _phi, pr, y1, dy1, y2, dy2 = unpack(state)
        u = cos(r)
        sr = sin(r)
        f, dh, k = _warp_curvature(fc, u)
        minus_k = -k
        return pack((pr / (f * f), c / (sr * sr), -pr * pr * sr * dh / f**3 + cc * u / sr**3,
                     dy1, minus_k * y1, dy2, minus_k * y2))
    return rhs


def _meridian_rhs(metric, g):
    fc = metric._flow_coeffs()
    unpack, pack, cos, _ = _stack_io(CHART_STATE_SIZE["meridian"], g)

    def rhs(_s, state):
        rho, y1, dy1, y2, dy2 = unpack(state)
        f, _, k = _warp_curvature(fc, cos(rho))
        minus_k = -k
        return pack((1.0 / f, dy1, minus_k * y1, dy2, minus_k * y2))
    return rhs


def _fold_meridian(rho, phi0, direction):
    """Map unrolled meridian angle to (r, phi, v1, v2) with pole-crossing parity."""
    m = np.mod(direction * rho, 2.0 * math.pi)
    upper = m <= math.pi
    r = np.where(upper, m, 2.0 * math.pi - m)
    phi = np.where(upper, phi0, phi0 + math.pi) % (2.0 * math.pi)
    v1 = np.where(upper, 1.0, -1.0) * direction
    v2 = np.zeros_like(r)
    return r, phi, v1, v2


def _ambient_start(metric, r0, phi0, v):
    """(x, x') in R^3 for the north-chart point (r0, phi0) and frame components v."""
    st, ct = math.sin(r0), math.cos(r0)
    sp, cp = math.sin(phi0), math.cos(phi0)
    a = v[0] / float(metric.warp(ct))   # dr/ds
    return [st * cp, st * sp, ct,
            a * ct * cp - v[1] * sp, a * ct * sp + v[1] * cp, -a * st]


def _from_ambient(metric, y, c):
    """(r, phi, v1, v2) in the north chart from ambient samples (x, x').

    v2 = c / sin r by Clairaut's relation: projecting x' onto d_phi would
    cancel O(1) terms and lose all relative accuracy of v2 (and so of
    tau_nu) on near-meridians.  The pair is then scaled to unit length,
    which also keeps samples within roundoff of a pole consistent.
    """
    x = y[:3] / np.sqrt(np.sum(y[:3] ** 2, axis=0))
    p1, p2, p3 = y[3:6]
    sin_r = np.hypot(x[0], x[1])
    phi = np.arctan2(x[1], x[0])
    # unit d_r = (cos r cos phi, cos r sin phi, -sin r)
    v1 = metric.warp(x[2]) * (x[2] * (p1 * np.cos(phi) + p2 * np.sin(phi)) - sin_r * p3)
    v2 = np.divide(c, sin_r, out=np.zeros_like(sin_r), where=sin_r > 0.0)
    norm = np.hypot(v1, v2)
    return np.arctan2(sin_r, x[2]), phi % (2.0 * math.pi), v1 / norm, v2 / norm


class _SampledDOP853(DOP853):
    """DOP853 that writes its dense output at `sample_at` into `out` as it steps.

    Given t_eval, solve_ivp keeps each step's samples in a list and stacks
    them at the end, holding every sample twice; this holds them once.  The
    samples are the same numbers: the same interpolant at the same points.
    The solver sits in a reference cycle (its `fun` wrapper refers back to
    it), so it lets go of its arrays when it stops rather than when collected.
    """

    def __init__(self, fun, t0, y0, t_bound, sample_at, out, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.sample_at, self.out, self.sampled = sample_at, out, 0

    def step(self):
        message = super().step()
        if self.status != "failed":
            stop = int(np.searchsorted(self.sample_at, self.t, side="right"))
            if stop > self.sampled:
                self.out[:, self.sampled:stop] = self.dense_output()(
                    self.sample_at[self.sampled:stop])
                self.sampled = stop
        if self.status != "running":
            self.out = self.sample_at = None
        return message


def _solve(rhs, t_end, starts, t_eval):
    """One DOP853 solve of the stacked starts (g rows of d numbers).

    Returns the (d, g, len(t_eval)) samples and the number of
    right-hand-side calls.  The tolerance is ODE_TOL / sqrt(g): the
    solver's error norm is an RMS over the whole stacked state, so this
    holds each geodesic to the error a solve of its own would allow.
    """
    start = np.asarray(starts, dtype=float)
    g, d = start.shape
    # The samples get an anonymous mapping of their own, whose pages go back
    # to the system when it is freed.  A malloc'd block this size would, once
    # freed, raise glibc's mmap threshold, and later blocks of its size would
    # stay resident in the heap.
    out = np.frombuffer(mmap.mmap(-1, 8 * d * g * len(t_eval)), dtype=float).reshape(d * g, -1)
    tol = ODE_TOL / math.sqrt(g)
    sol = solve_ivp(rhs, (0.0, t_end), start.T.ravel(), method=_SampledDOP853,
                    rtol=tol, atol=tol, sample_at=t_eval, out=out)
    if not sol.success:
        raise IntegrationError(sol.message, nfev=int(sol.nfev),
                               arclength_reached=float(sol.t[-1]) if len(sol.t) else 0.0)
    return out.reshape(d, g, -1), int(sol.nfev)


def flow_chart(metric, p, v):
    """The chart `flow` integrates the start (p, v) in: "ambient", "clairaut" or "meridian"."""
    if not metric.has_cone_points:
        return "ambient"
    return "meridian" if abs(clairaut_constant(p.r, v[1])) < MERIDIAN_TOL else "clairaut"


class FlowSamples(NamedTuple):
    """One stacked `flow` solve: the chart states of g starts at T arclengths.

    `state` is (d, g, T); `start(j)` reads start j off it in the north
    chart, one start at a time, so no second stack of samples is made.
    """

    metric: MetricModel
    chart: str
    state: np.ndarray
    c: np.ndarray            # Clairaut constants
    phi0: np.ndarray
    direction: np.ndarray    # +-1: meridian starts heading away from or toward the north pole
    nfev: int

    def start(self, j):
        """(r, phi, v1, v2, jacobi) of start j: north-chart coordinates and
        frame components of the tangent, each (T,), and the (4, T) rows
        (y1, y1', y2, y2') of its fundamental Jacobi solutions."""
        y = self.state[:, j]
        if self.chart == "ambient":
            return (*_from_ambient(self.metric, y, self.c[j]), y[6:])
        if self.chart == "meridian":
            return (*_fold_meridian(y[0], self.phi0[j], self.direction[j]), y[1:])
        r, phi, pr = y[:3]
        return (r, phi % (2.0 * math.pi), pr / self.metric.warp(np.cos(r)),
                self.c[j] / np.sin(r), y[3:])


def flow(metric, starts, t_eval):
    """Geodesic flow of `starts` [(p, v), ...] with their Jacobi frames: one ODE solve.

    All starts must share one `flow_chart`; their states are stacked into
    one DOP853 solve and sampled at the arclengths `t_eval`.  The Jacobi
    rows solve y'' + K y = 0 with (y1, y1') = (0, 1) and (y2, y2') = (1, 0)
    at s = 0.  Smooth profiles are integrated in ambient coordinates on
    S^2, for every start.  Profiles with cone points keep the Clairaut
    chart (r, phi, p_r) and, for |Clairaut constant| < MERIDIAN_TOL, the
    unrolled covering angle of the meridian, which passes through the
    poles.  Returns FlowSamples.
    """
    starts = [(p, np.asarray(v, dtype=float)) for p, v in starts]
    charts = {flow_chart(metric, p, v) for p, v in starts}
    if len(charts) != 1:
        raise ValueError(f"flow takes starts of one chart, got {sorted(charts)}")
    chart = charts.pop()
    g = len(starts)
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    t_end = float(t_eval[-1])
    c = np.array([clairaut_constant(p.r, v[1]) for p, v in starts])
    direction = np.array([1.0 if v[0] >= 0 else -1.0 for _, v in starts])
    if chart == "ambient":
        rhs = _ambient_rhs(metric, g)
        y0 = [[*_ambient_start(metric, p.r, p.phi, v), *JACOBI_START] for p, v in starts]
    elif chart == "meridian":
        rhs = _meridian_rhs(metric, g)
        # rho is integrated with d(rho)/ds = +1/f along the motion; undo direction
        y0 = [[d * p.r, *JACOBI_START] for d, (p, _) in zip(direction, starts)]
    else:
        rhs = _clairaut_rhs(metric, float(c[0]) if g == 1 else c)
        y0 = [[p.r, p.phi, float(metric.warp(math.cos(p.r))) * v[0], *JACOBI_START]
              for p, v in starts]
    state, nfev = _solve(rhs, t_end, y0, t_eval)
    return FlowSamples(metric, chart, state, c, np.array([p.phi for p, _ in starts]),
                       direction, nfev)


def state_distance(metric, p1, v1, p2, v2):
    """Distance in the unit tangent bundle between two nearby states.

    Surface distance is the local metric chord (second-order accurate for
    nearby points, exact enough for closure defects); the tangent gap is
    the frame angle difference.
    """
    rbar = 0.5 * (p1.r + p2.r)
    f = float(metric.warp(math.cos(rbar)))
    dphi = (p1.phi - p2.phi + math.pi) % (2.0 * math.pi) - math.pi
    dist = math.hypot(f * (p1.r - p2.r), math.sin(rbar) * dphi)
    th1, th2 = math.atan2(v1[1], v1[0]), math.atan2(v2[1], v2[0])
    dth = abs((th1 - th2 + math.pi) % (2.0 * math.pi) - math.pi)
    return dist + dth

