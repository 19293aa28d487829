"""Zoll metrics of revolution, their curvature jets and the geodesic flow.

The metric family is f(r)^2 dr^2 + sin(r)^2 dphi^2 on S^2 with
f(r) = 1 + h(cos r) and h an odd polynomial, |h| < 1 on [-1, 1].  Every
geodesic, the meridians through the poles included, closes at length
2*pi (the odd part of the profile drops out of the Clairaut integrals),
which is what makes the family a usable Zoll corpus.  Profiles with h(1) != 0 have cone points at the
poles; they are accepted, but surface-global quantities (Gauss-Bonnet)
then see the cone defect.

A metric is described once: `MetricModel` builds one table of
descending polynomial coefficients (h and its first three derivatives),
and every quantity of the package is read from that table by Horner's
rule.  The curvature is K(u) = (f - u h'(u)) / f^3 at u = cos r, with
its u-derivatives in closed form; all of it stays regular at the poles.

A point is (r, phi) in the north polar chart, and every point and tangent
of the package lives there.  Tangent vectors are stored as components
(v1, v2) in the orthonormal frame e1 = (1/f) d_r, e2 = (1/sin r) d_phi,
which orients the surface; the unit normal of a geodesic is the +pi/2
rotation (v1, v2) -> (-v2, v1).

`flow` samples a geodesic, its curvature jets and its fundamental Jacobi
solutions of y'' + K(u) y = 0 from closed formulas, and returns them as
one `GeodesicPath`; no ODE is solved and no equation is solved for its
samples (Besse, Manifolds all of whose geodesics are closed, ch. 4).
With c the Clairaut constant and a = sqrt(1 - c^2), a geodesic is
u = a sin(theta) with d(theta)/ds = 1/f, so sin^2 r = c^2 + a^2 cos^2 theta,
and
    s(theta) = theta + sum_k h_k a^k I_k(theta),  I_k = int_0^theta sin^k,
which for an odd profile is theta plus a 2*pi-periodic function: the
Zoll property itself.  So theta has the period of s, and every geodesic
is sampled uniformly in it, theta_j = theta0 + 2*pi*j/n, with s_j and
the weight f_j = ds/d(theta) read off in closed form.  An s-mean is the
theta-mean of g f, and int_0^s g is int g f d(theta) (`GeodesicPath.mean`
and `.antiderivative`); the trapezoidal rule in theta converges even
where f is small, where theta(s) is steep.  The longitude is an explicit
sum of arctangents and sine integrals, from h = (1 - u^2) q(u) + alpha +
beta u.  The Jacobi frame is the rotation field y_A = cos(theta) and its
partner by reduction of order, y_B = y_A int ds / y_A^2, written without
poles:
    y_B = (1 + alpha) sin(theta) + beta + cos(theta) int_0^theta q(sin t) dt,
with h(a x) = (1 - x^2) q(x) + alpha + beta x; both have d/ds = (1/f)
d/d(theta), and their Wronskian is 1.  The jets are read in the same
variables, u = a sin(theta), a cos(theta) and c, without the chart.

A meridian (|c| < MERIDIAN_TOL) runs through the poles, where the
north chart's angles fold: its samples are read with r folded back into
[0, pi] onto the opposite meridian phi + pi.  On a cone profile the
meridian is not the limit of its neighbours: the cone point turns a
geodesic that passes it at Clairaut constant c -> 0 by pi h(1), so their
longitude gains about pi (1 -+ h(1)) per pole passage instead of pi.

Closure is read at theta0 + 2*pi, in the coordinates (theta, phi) of the
closed form, which are regular at the poles: the period defect
|s(theta0 + 2*pi) - s(theta0) - 2*pi|, which is the Zoll condition
itself, and the longitude gained over the turn, modulo 2*pi.  Both are
pointwise closed forms, so they are evaluated at the two ends of the
turn only.

The pipeline reads the weight f, the jets, the Jacobi samples and the
closure defect, and `flow` computes only those.  The chart of the
samples (their arclengths s_j, r, phi, tangent and normal) is computed
from the start on the first read of any of its arrays, and kept on the
path.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fourier import grid, spectral_antiderivative

__all__ = [
    "MetricModel",
    "SurfacePoint",
    "GeodesicPath",
    "IntegrationError",
]

ADMISSIBILITY_SAMPLES = 10_000
MERIDIAN_TOL = 1e-14      # |c| of a start traced as a meridian (c = 0)


class IntegrationError(RuntimeError):
    """A geodesic whose samples fail a gate: its closure or its Jacobi frame."""


def _horner(coeffs, x):
    """Value at x (a float, or an array) of the polynomial with descending coefficients.

    Zero coefficients, every other one of an odd or even profile, add nothing.
    """
    out = coeffs[0]
    for a in coeffs[1:]:
        out = out * x + a if a else out * x
    return out


def _curvature_derivs(table, u, f, dh):
    """(K, dK/du, d2K/du2) at u, from f = 1 + h(u) and dh = h'(u) there;
    K = (f - u h') / f^3."""
    K = (f - u * dh) / (f * f * f)
    d2h, d3h = _horner(table["hpp"], u), _horner(table["hppp"], u)
    a, f3 = dh / f, f * f * f
    Kp = -u * d2h / f3 - 3.0 * K * a
    Kpp = ((6.0 * u * d2h * a - d2h - u * d3h) / f3
           - 3.0 * K * d2h / f + 12.0 * K * a * a)
    return K, Kp, Kpp


@dataclass(frozen=True)
class MetricModel:
    """A Zoll metric of revolution, f = 1 + h(u) at u = cos r.

    The profile h(x) = sum a_k x^(2k+1) is given by its odd coefficients;
    no coefficients is the round sphere.  `h_even_coeffs` (powers x^2,
    x^4, ...) is a diagnostic hook that deliberately destroys the Zoll
    property; it exists for negative-control fixtures only.

    The coefficients are turned once into one table of descending
    coefficient tuples, which the flow, the curvature and the read-outs
    all evaluate by `_horner`: h, h', h'' and h'''.
    """

    h_odd_coeffs: tuple = ()
    h_even_coeffs: tuple = ()

    def __post_init__(self):
        odd = tuple(float(a) for a in self.h_odd_coeffs)
        even = tuple(float(a) for a in self.h_even_coeffs)
        object.__setattr__(self, "h_odd_coeffs", odd)
        object.__setattr__(self, "h_even_coeffs", even)
        h = np.zeros(max(2 * len(odd), 2 * len(even) + 1))   # ascending: h[k] multiplies x^k
        h[1:2 * len(odd):2] = odd
        h[2:2 * len(even) + 1:2] = even
        polys = {name: np.polyder(h[::-1], k) for k, name in enumerate(("h", "hp", "hpp", "hppp"))}
        # np.polyder leaves no coefficient of a constant's derivative
        table = {name: tuple(float(a) for a in p) or (0.0,) for name, p in polys.items()}
        object.__setattr__(self, "_table", table)
        x = np.linspace(-1.0, 1.0, ADMISSIBILITY_SAMPLES)
        if not np.max(np.abs(_horner(table["h"], x))) < 1.0:
            raise ValueError("inadmissible profile: |h| must stay below 1 on [-1, 1]")

    @classmethod
    def round(cls):
        return cls()

    @classmethod
    def zoll_revolution(cls, h_odd_coeffs, h_even_coeffs=()):
        return cls(tuple(h_odd_coeffs), tuple(h_even_coeffs))

    def warp(self, u):
        """f = 1 + h(u) at u = cos r."""
        return 1.0 + _horner(self._table["h"], u)

    def curvature_u_derivs(self, u):
        """(K, dK/du, d2K/du2) at u = cos r, vectorized and pole-regular."""
        return _curvature_derivs(self._table, u, self.warp(u), _horner(self._table["hp"], u))


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


# ---------------------------------------------------------------------------
# Geodesic flow (see the module docstring)
# ---------------------------------------------------------------------------

def _split(coeffs):
    """(alpha, beta, q) with p(x) = (1 - x^2) q(x) + alpha + beta x, for the
    polynomial p of ascending coefficients `coeffs`; q ascending."""
    q = [*coeffs, 0.0, 0.0]
    alpha, beta = sum(q[0::2]), sum(q[1::2])    # (p(1) + p(-1)) / 2, (p(1) - p(-1)) / 2
    q[0] -= alpha
    q[1] -= beta
    for k in range(2, len(q)):
        q[k] += q[k - 2]
    return alpha, beta, q[:-4] or [0.0]


def _sine_integral(coeffs, theta, sin, cos):
    """sum_k coeffs[k] int_0^theta sin(t)^k dt at the angles theta.

    I_k = -sin^(k-1) cos / k + (k-1)/k I_(k-2), with I_1 = 1 - cos and
    I_0 = theta; run from the top degree down, the sum is
    lam theta + mu (1 - cos) + cos P(sin) with P a polynomial.
    """
    w = [*coeffs, 0.0, 0.0]
    p = [0.0] * len(w)              # ascending coefficients of P
    for k in range(len(w) - 1, 1, -1):
        p[k - 1] -= w[k] / k
        w[k - 2] += (k - 1) / k * w[k]
    return w[0] * theta + w[1] * (1.0 - cos) + cos * _horner(p[::-1], sin)


def _wrapped(x):
    """|x| taken modulo 2*pi into [0, pi]."""
    return abs((x + math.pi) % (2.0 * math.pi) - math.pi)


def _longitude(metric, a, c, theta, sin, cos):
    """Longitude gained from theta = 0, continuous in theta, for c != 0.

    d(phi)/d(theta) = c f / (1 - a^2 sin^2 theta) with
    f = 1 + alpha + beta u + (1 - u^2) q(u), so phi is the continuous
    branch of (1 + alpha) atan(c tan theta), -beta atan(a cos theta / c)
    and c times the sine integral of q(a sin t).
    """
    alpha, beta, q = _split(metric._table["h"][::-1])
    turns = np.round(theta / math.pi)
    parity = 1.0 - 2.0 * (turns % 2.0)                  # (-1)^turns
    # atan(c tan theta) on the branch through turns * pi; at its ends the
    # arguments keep the sign of cos(theta - turns * pi), so the branch runs on
    branch = math.copysign(math.pi, c) * turns + np.arctan2(c * parity * sin, parity * cos)
    return ((1.0 + alpha) * branch - beta * np.arctan(a * cos / c)
            + c * _sine_integral(np.multiply(q, a ** np.arange(len(q))), theta, sin, cos))


def _jacobi_rows(h_a, theta, sin, cos, f):
    """(y1, y1', y2, y2') at the angles theta: the fundamental Jacobi solutions,
    (y1, y1') = (0, 1) and (y2, y2') = (1, 0) at the first angle.  h_a holds
    the ascending coefficients of h(a x), and f = ds/d(theta)."""
    alpha, beta, q = _split(h_a)
    integral = _sine_integral(q, theta, sin, cos)
    y_a, dy_a = cos, -sin / f
    y_b = (1.0 + alpha) * sin + beta + cos * integral
    dy_b = ((1.0 + alpha) * cos - sin * integral + cos * _horner(q[::-1], sin)) / f
    # the Wronskian y_a dy_b - dy_a y_b is 1: the inverse of the frame at s = 0
    # is its adjugate
    ya0, dya0, yb0, dyb0 = y_a[0], dy_a[0], y_b[0], dy_b[0]
    return np.array([ya0 * y_b - yb0 * y_a, ya0 * dy_b - yb0 * dy_a,
                     dyb0 * y_a - dya0 * y_b, dyb0 * dy_a - dya0 * dy_b])


@dataclass(frozen=True)
class GeodesicPath:
    """Samples of a (nominally closed) unit-speed geodesic, uniform in the
    Clairaut angle theta.

    Sample arrays have length n; index j is theta_j = theta0 + 2*pi*j/n,
    and `weight` is f_j = ds/d(theta) there.  tau/tau_s/tau_nu/tau_nunu
    are the curvature jets.  `jacobi` holds the (4, n) rows
    (y1, y1', y2, y2') of the fundamental Jacobi solutions,
    (y1, y1') = (0, 1) and (y2, y2') = (1, 0) at s = 0, with ' = d/ds,
    and `jacobi_end` their state at theta0 + 2*pi.  The closure defect is
    the larger of the period defect |s(theta0 + 2*pi) - 2*pi| and the
    longitude gained over the turn, modulo 2*pi.

    The chart of the samples is computed from `init` and `n` on the first
    read of any of its arrays, and kept: the arclengths
    s_j = s(theta_j) - s(theta0), the north polar chart coordinates `r`,
    `phi`, and the (n, 2) frame components `tangent` and `normal`.  The
    pipeline reads none of them.
    """

    metric: MetricModel
    init: tuple            # (SurfacePoint, (v1, v2))
    n: int
    weight: np.ndarray
    tau: np.ndarray
    tau_s: np.ndarray
    tau_nu: np.ndarray
    tau_nunu: np.ndarray
    jacobi: np.ndarray
    jacobi_end: np.ndarray
    closure_defect: float

    @cached_property
    def _chart_arrays(self):
        return _chart(self.metric, self.init, self.n)

    @property
    def s(self):
        return self._chart_arrays[0]

    @property
    def r(self):
        return self._chart_arrays[1]

    @property
    def phi(self):
        return self._chart_arrays[2]

    @property
    def tangent(self):
        return self._chart_arrays[3]

    @property
    def normal(self):
        return self._chart_arrays[4]

    def mean(self, values):
        """(1/2pi) int values ds over one turn of theta, the arclength mean
        on a Zoll metric: the theta-mean of values * f."""
        return np.mean(values * self.weight)

    def antiderivative(self, values):
        """int_0^s values ds at every sample: the theta-antiderivative of
        values * f."""
        return spectral_antiderivative(values * self.weight)


@lru_cache(maxsize=16)
def _turn(n):
    """Read-only (t, sin t, cos t) at t = 2*pi*j/n, j = 0 ... n, made once per n."""
    t = np.append(grid(n), 2.0 * math.pi)
    out = t, np.sin(t), np.cos(t)
    for arr in out:
        arr.flags.writeable = False
    return out


def _clairaut(metric, init):
    """(c, a, theta0, h_a) of the start `init` = (point, (v1, v2)): the
    Clairaut constant c, a = sqrt(1 - c^2), the Clairaut angle theta0 of
    the start, and the ascending coefficients h_a of h(a x)."""
    p, (v1, v2) = init
    c = math.sin(p.r) * v2        # Clairaut's constant g(v, d_phi), conserved
    # a^2 = 1 - c^2, and u = cos r = a sin(theta) with u' = a cos(theta) / f
    a = math.hypot(math.cos(p.r), math.sin(p.r) * v1)
    theta0 = math.atan2(math.cos(p.r), -math.sin(p.r) * v1)
    h = metric._table["h"][::-1]
    return c, a, theta0, np.multiply(h, a ** np.arange(len(h)))


def _angles(theta0, t, sin_t, cos_t):
    """(theta, sin theta, cos theta) at theta = theta0 + t, by angle
    addition, which takes no transcendental pass over the grid."""
    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    return theta0 + t, sin0 * cos_t + cos0 * sin_t, cos0 * cos_t - sin0 * sin_t


def _chart(metric, init, n):
    """(s, r, phi, tangent, normal) at the n samples of the geodesic
    through `init`; see `GeodesicPath`."""
    p, (v1, v2) = init
    c, a, theta0, h_a = _clairaut(metric, init)
    theta, sin, cos = _angles(theta0, *_turn(n))
    s = theta + _sine_integral(h_a, theta, sin, cos)
    s -= s[0]
    if abs(c) < MERIDIAN_TOL:
        # rho, the colatitude run on through the poles, folded into [0, pi]
        sign = 1.0 if v1 >= 0 else -1.0
        fold = np.mod(p.r + sign * (theta - theta0), 2.0 * math.pi)
        upper = fold <= math.pi
        r = np.where(upper, fold, 2.0 * math.pi - fold)
        phi = p.phi + math.atan2(sign * v2 * math.cos(p.r), abs(v1)) + np.where(upper, 0.0, math.pi)
        along, across = np.where(upper, sign, -sign), np.zeros_like(r)
    else:
        sin_r = np.hypot(c, a * cos)
        r = np.arctan2(sin_r, a * sin)
        gained = _longitude(metric, a, c, theta, sin, cos)
        gained -= gained[0]
        phi = p.phi + gained
        along, across = -a * cos / sin_r, c / sin_r
    along, across = along[:-1], across[:-1]
    return (s[:-1], r[:-1], phi[:-1] % (2.0 * math.pi),
            np.stack([along, across], axis=1), np.stack([-across, along], axis=1))


def _closure_defect(metric, c, a, theta0, h_a, n):
    """The period defect |s(theta0 + 2*pi) - s(theta0) - 2*pi| and, off a
    meridian, the longitude gained over the turn modulo 2*pi, the larger
    one; both closed forms are read at the two ends of the turn only."""
    t, sin_t, cos_t = (x[[0, -1]] for x in _turn(n))
    theta, sin, cos = _angles(theta0, t, sin_t, cos_t)
    s = theta + _sine_integral(h_a, theta, sin, cos)
    defect = abs((s[1] - s[0]) - 2.0 * math.pi)
    if abs(c) < MERIDIAN_TOL:
        return defect
    gained = _longitude(metric, a, c, theta, sin, cos)
    return max(defect, _wrapped(gained[1] - gained[0]))


def _jets(metric, u, a_cos, c, f, dh):
    """The curvature jets (tau, tau_s, tau_nu, tau_nunu) at u = a sin(theta),
    from f = 1 + h(u) and dh = h'(u) there.

    They see the unit tangent only through sin(r) v1 = -a cos(theta) =
    -`a_cos`, sin(r) v2 = c and v1^2 + v2^2 = 1, so no formula divides by
    sin r, and all of them stay finite at the poles.
    """
    K, Kp, Kpp = _curvature_derivs(metric._table, u, f, dh)
    return K, Kp * a_cos / f, Kp * c / f, (c * c * (Kpp - Kp * dh / f) - Kp * u) / (f * f)


def flow(metric, start, n):
    """The geodesic through `start` = (point, unit tangent) with its
    curvature jets and Jacobi frame, sampled at theta_j = theta0 + 2*pi*j/n;
    returns the GeodesicPath, whose `jacobi_end` is the frame at
    theta0 + 2*pi, and whose chart is computed when first read.

    A start with |Clairaut constant| < MERIDIAN_TOL is the meridian its
    heading picks: at a pole, from (r0, phi0) heading (cos t, sin t), the
    meridian phi0 + t from the north pole and phi0 + pi - t from the south
    pole.
    """
    p, v = start
    init = (p, (float(v[0]), float(v[1])))
    c, a, theta0, h_a = _clairaut(metric, init)
    theta, sin, cos = _angles(theta0, *_turn(n))
    u = a * sin
    # ds/d(theta), an array also where the warp is a constant (the round sphere)
    f = np.broadcast_to(metric.warp(u), theta.shape)
    jacobi = _jacobi_rows(h_a, theta, sin, cos, f)
    defect = _closure_defect(metric, c, a, theta0, h_a, n)
    if abs(c) < MERIDIAN_TOL:
        c = 0.0                   # its jets are the meridian's
    tau, tau_s, tau_nu, tau_nunu = _jets(metric, u[:-1], a * cos[:-1], c, f[:-1],
                                         _horner(metric._table["hp"], u[:-1]))
    # a copy, so that the path holds no (n + 1)-sample buffer it need not: a
    # report at N = 32768 peaks about 1 MB lower
    return GeodesicPath(
        metric=metric, init=init, n=n, weight=f[:-1].copy(),
        tau=tau, tau_s=tau_s, tau_nu=tau_nu, tau_nunu=tau_nunu,
        jacobi=jacobi[:, :-1], jacobi_end=jacobi[:, -1], closure_defect=defect,
    )
