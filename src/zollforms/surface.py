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
state.  All closed geodesics share the period 2*pi, so the starts of a
metric stack into one ODE state and one solve; `geodesic.trace_geodesics`
cuts them into chunks that fit a memory budget.  There are two charts,
and the metric alone picks one (`flow_chart`).  Each has one
right-hand-side body, which runs on Python floats for a single geodesic
and on numpy rows for a stack.  Smooth profiles (h(+-1) = 0, so
h = (1 - u^2) q) are integrated in ambient coordinates x on S^2 in R^3,
where the metric is the round one plus the polynomial term beta(u) du^2
and nothing is singular at the poles.  Profiles with cone points use the
Clairaut chart (r, phi, p_r): in ambient coordinates
beta = h (2 + h) / (1 - u^2) has a pole at a cone point and the flow
loses accuracy near it.  On h = 0.1 x, from the equator, the ambient
closure defect is 4e-8, 3e-5 and 4e-2 at Clairaut constants 1e-2, 1e-3
and 1e-4; the Clairaut chart stays at or below 3e-11.  A meridian is the
Clairaut chart's c = 0 case: its r runs on through the poles, and the
read-out folds it back into [0, pi].
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
MERIDIAN_TOL = 1e-12      # cone profiles: |Clairaut constant| below this is traced as c = 0
ODE_TOL = 1e-12
CHART_STATE_SIZE = {"ambient": 10, "clairaut": 7}   # ODE state per geodesic


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
    """(r, phi, p_r) with the Jacobi pair; c is the Clairaut constant, or their row.

    With c = 0 these are the meridian equations, and r runs on through the
    poles.  phi' = c / sin^2 r is then 0, at a pole too, and the centrifugal
    term c^2 u / sin^3 r is written phi'^2 u sin r, which is 0 there as well.
    """
    fc = metric._flow_coeffs()
    g = np.size(c)
    unpack, pack, cos, sin = _stack_io(CHART_STATE_SIZE["clairaut"], g)
    if g == 1:
        angular = (lambda sr2: c / sr2) if c else (lambda sr2: 0.0)
    else:
        moving = c != 0.0
        angular = lambda sr2: np.divide(c, sr2, out=np.zeros(g), where=moving)

    def rhs(_s, state):
        r, _phi, pr, y1, dy1, y2, dy2 = unpack(state)
        u = cos(r)
        sr = sin(r)
        f, dh, k = _warp_curvature(fc, u)
        dphi = angular(sr * sr)
        minus_k = -k
        return pack((pr / (f * f), dphi, -pr * pr * sr * dh / f**3 + dphi * dphi * u * sr,
                     dy1, minus_k * y1, dy2, minus_k * y2))
    return rhs


def _from_clairaut(metric, y, c):
    """(r, phi, v1, v2) in the north chart from Clairaut samples (r, phi, p_r).

    A meridian's r runs past the poles; it is folded back into [0, pi],
    onto the opposite meridian phi + pi, where d_r points the other way.
    For c != 0, r stays in (0, pi) and the fold changes nothing.
    """
    r, phi, pr = y[:3]
    m = np.mod(r, 2.0 * math.pi)
    upper = m <= math.pi
    r = np.where(upper, m, 2.0 * math.pi - m)
    v1 = np.where(upper, 1.0, -1.0) * pr / metric.warp(np.cos(r))
    v2 = c / np.sin(r) if c else np.zeros_like(r)
    return r, np.where(upper, phi, phi + math.pi) % (2.0 * math.pi), v1, v2


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


def flow_chart(metric):
    """The chart `flow` integrates every start of `metric` in: "ambient" or "clairaut"."""
    return "clairaut" if metric.has_cone_points else "ambient"


class FlowSamples(NamedTuple):
    """One stacked `flow` solve: the chart states of g starts at T arclengths.

    `state` is (d, g, T); `start(j)` reads start j off it in the north
    chart, one start at a time, so no second stack of samples is made.
    """

    metric: MetricModel
    chart: str
    state: np.ndarray
    c: np.ndarray            # Clairaut constants, as integrated
    nfev: int

    def start(self, j):
        """(r, phi, v1, v2, jacobi) of start j: north-chart coordinates and
        frame components of the tangent, each (T,), and the (4, T) rows
        (y1, y1', y2, y2') of its fundamental Jacobi solutions."""
        y = self.state[:, j]
        if self.chart == "ambient":
            return (*_from_ambient(self.metric, y, self.c[j]), y[6:])
        return (*_from_clairaut(self.metric, y, self.c[j]), y[3:])


def flow(metric, starts, t_eval):
    """Geodesic flow of `starts` [(p, v), ...] with their Jacobi frames: one ODE solve.

    The states of all starts are stacked into one DOP853 solve in the
    chart `flow_chart(metric)` and sampled at the arclengths `t_eval`.  The
    Jacobi rows solve y'' + K y = 0 with (y1, y1') = (0, 1) and
    (y2, y2') = (1, 0) at s = 0.  Smooth profiles are integrated in ambient
    coordinates on S^2, profiles with cone points in the Clairaut chart
    (r, phi, p_r); there a start with |Clairaut constant| < MERIDIAN_TOL is
    traced as the meridian c = 0 at unit speed, heading away from the north
    pole if v1 >= 0, and passes through the poles.  Returns FlowSamples.
    """
    chart = flow_chart(metric)
    starts = [(p, np.asarray(v, dtype=float)) for p, v in starts]
    g = len(starts)
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    c = np.array([clairaut_constant(p.r, v[1]) for p, v in starts])
    if chart == "ambient":
        rhs = _ambient_rhs(metric, g)
        y0 = [[*_ambient_start(metric, p.r, p.phi, v), *JACOBI_START] for p, v in starts]
    else:
        meridian = np.abs(c) < MERIDIAN_TOL
        c[meridian] = 0.0
        rhs = _clairaut_rhs(metric, float(c[0]) if g == 1 else c)
        # a meridian keeps unit speed, so a pole start cannot stall with v1 = 0
        v1 = [(1.0 if v[0] >= 0 else -1.0) if m else v[0]
              for (_, v), m in zip(starts, meridian)]
        y0 = [[p.r, p.phi, float(metric.warp(math.cos(p.r))) * a, *JACOBI_START]
              for (p, _), a in zip(starts, v1)]
    state, nfev = _solve(rhs, float(t_eval[-1]), y0, t_eval)
    return FlowSamples(metric, chart, state, c, nfev)


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

