"""Zoll metrics of revolution, their curvature jets and the geodesic flow.

The metric family is f(r)^2 dr^2 + sin(r)^2 dphi^2 on S^2 with
f(r) = 1 + h(cos r) and h an odd polynomial, |h| < 1 on [-1, 1].  Every
geodesic, the meridians through the poles included, closes at length
2*pi (the odd part of the profile drops out of the Clairaut integrals),
which is what makes the family a usable Zoll corpus.  Profiles with h(1) != 0 have cone points at the
poles; they are accepted, but surface-global quantities (Gauss-Bonnet)
then see the cone defect.

A metric is described once: `MetricModel` builds one table of
descending polynomial coefficients (h and its first three derivatives,
and for smooth profiles the ambient term beta), and every quantity of
the package is read from that table by Horner's rule.  The curvature is
K(u) = (f - u h'(u)) / f^3 at u = cos r, with its u-derivatives in
closed form; all of it stays regular at the poles.

A point is (r, phi) in the north polar chart, and every point and tangent
of the package lives there.  Tangent vectors are stored as components
(v1, v2) in the orthonormal frame e1 = (1/f) d_r, e2 = (1/sin r) d_phi,
which orients the surface; the unit normal of a geodesic is the +pi/2
rotation (v1, v2) -> (-v2, v1).

`flow` integrates geodesics together with the fundamental Jacobi
solutions of y'' + K(u) y = 0.  All closed geodesics share the period
2*pi, so the starts of a metric stack into one ODE state and one solve;
`geodesic.trace_geodesics` cuts them into chunks that fit a memory
budget.  There are two charts, and the metric alone picks one
(`flow_chart`).  Each has one right-hand-side body, which runs on Python
floats for a single geodesic and on numpy rows for a stack.  Smooth
profiles (h(+-1) = 0, so h = (1 - u^2) q) are integrated in ambient
coordinates x on S^2 in R^3, where the metric is the round one plus the
polynomial term beta(u) du^2 and nothing is singular at the poles.
Profiles with cone points use the Clairaut chart (r, phi, p_r): in
ambient coordinates beta = h (2 + h) / (1 - u^2) has a pole at a cone
point and the flow loses accuracy near it.  On h = 0.1 x, from the
equator, the ambient closure defect is 4e-8, 3e-5 and 4e-2 at Clairaut
constants 1e-2, 1e-3 and 1e-4; the Clairaut chart stays at or below
3e-11.  A meridian is the Clairaut chart's c = 0 case: its r runs on
through the poles, and the read-out folds it back into [0, pi].

Closure is read in the chart the flow ran in (`FlowSamples.closure_defect`):
the state at s = 2*pi against the state at s = 0, position and velocity
components, with the Clairaut chart's angles r and phi taken modulo
2*pi.  Both charts are regular at the poles, where the north chart's
angles are not.

The ODE solver is DOP853, the explicit Runge-Kutta pair of order 8(5,3)
with degree-7 dense output of Hairer, Norsett and Wanner (Solving
Ordinary Differential Equations I, sec. II.5, and their Fortran code
DOP853), in plain numpy.  Its tableau is the one in scipy's BSD-licensed
`dop853_coefficients.py`, entry for entry, and its step control is
scipy's, so it samples the same numbers as scipy's `solve_ivp`
(`tests/test_surface.py` holds it to that, bit for bit).  A solve may
spend RHS_BUDGET right-hand-side calls.
"""

import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MetricModel",
    "SurfacePoint",
    "IntegrationError",
]

ADMISSIBILITY_SAMPLES = 10_000
MERIDIAN_TOL = 1e-12      # |c| of a cone start, or sin r of an ambient sample: read as a meridian
ODE_TOL = 1e-12
RHS_BUDGET = 100_000    # right-hand-side calls one flow solve may spend
CHART_STATE_SIZE = {"ambient": 10, "clairaut": 7}   # ODE state per geodesic


class IntegrationError(RuntimeError):
    def __init__(self, message, arclength_reached=None, nfev=None):
        super().__init__(message)
        self.arclength_reached = arclength_reached
        self.nfev = nfev


def _horner(coeffs, x):
    """Value at x (a float, or an array) of the polynomial with descending coefficients.

    Zero coefficients, every other one of an odd or even profile, add nothing.
    """
    out = coeffs[0]
    for a in coeffs[1:]:
        out = out * x + a if a else out * x
    return out


def _warp_curvature(table, u):
    """(f, h'(u), K(u)) with f = 1 + h(u) and K = (f - u h') / f^3."""
    f = 1.0 + _horner(table["h"], u)
    dh = _horner(table["hp"], u)
    return f, dh, (f - u * dh) / (f * f * f)


@dataclass(frozen=True)
class MetricModel:
    """A Zoll metric of revolution, f = 1 + h(u) at u = cos r.

    The profile h(x) = sum a_k x^(2k+1) is given by its odd coefficients;
    no coefficients is the round sphere.  `h_even_coeffs` (powers x^2,
    x^4, ...) is a diagnostic hook that deliberately destroys the Zoll
    property; it exists for negative-control fixtures only.

    The coefficients are turned once into one table of descending
    coefficient tuples, which the flow, the curvature and the read-outs
    all evaluate by `_horner`: h, h', h'' and h''', and for smooth
    profiles, h = (1 - u^2) q, also beta = h (2 + h) / (1 - u^2) = q (2 + h)
    and beta', by which the metric exceeds the round one:
    g = |dx|^2 + beta(u) du^2 on S^2 in R^3.
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
        h = h[::-1]
        polys = {name: np.polyder(h, k) for k, name in enumerate(("h", "hp", "hpp", "hppp"))}
        roundoff = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(h)))
        if max(abs(_horner(h, 1.0)), abs(_horner(h, -1.0))) <= roundoff:   # smooth at the poles
            q, _ = np.polydiv(h, [-1.0, 0.0, 1.0])
            polys["beta"] = np.polymul(q, np.polyadd(h, [2.0]))
            polys["betap"] = np.polyder(polys["beta"])
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

    @property
    def has_cone_points(self):
        """True unless h(+-1) = 0 to roundoff, i.e. the metric is smooth at the poles."""
        return "beta" not in self._table

    def warp(self, u):
        """f = 1 + h(u) at u = cos r."""
        return 1.0 + _horner(self._table["h"], u)

    def curvature_u_derivs(self, u):
        """(K, dK/du, d2K/du2) at u = cos r, vectorized and pole-regular."""
        t = self._table
        f, dh, K = _warp_curvature(t, u)
        d2h, d3h = _horner(t["hpp"], u), _horner(t["hppp"], u)
        a, f3 = dh / f, f * f * f
        Kp = -u * d2h / f3 - 3.0 * K * a
        Kpp = ((6.0 * u * d2h * a - d2h - u * d3h) / f3
               - 3.0 * K * d2h / f + 12.0 * K * a * a)
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


def curvature_jet_arrays(metric, r, v1, v2):
    """Vectorized analytic jets along a geodesic sample set.

    r: colatitudes; (v1, v2): unit tangent frame components, whose +pi/2
    rotation (-v2, v1) is the unit normal.  All formulas are written in
    u = cos r and stay finite at the poles.
    """
    u = np.cos(r)
    sin_r = np.sin(r)
    f = metric.warp(u)
    hp = _horner(metric._table["hp"], u)
    K, Kp, Kpp = metric.curvature_u_derivs(u)
    sin2 = 1.0 - u * u
    tau = K
    tau_s = -Kp * sin_r * v1 / f
    tau_nu = Kp * sin_r * v2 / f
    tau_nunu = (v2**2 / f**2) * (Kpp * sin2 - Kp * u - Kp * sin2 * hp / f) \
        - Kp * u * v1**2 / f**2
    return tau, tau_s, tau_nu, tau_nunu


# ---------------------------------------------------------------------------
# Geodesic flow
# ---------------------------------------------------------------------------

JACOBI_START = (0.0, 1.0, 1.0, 0.0)   # (y1, y1', y2, y2') at s = 0


def clairaut_constant(r, v2):
    """c = g(v, d_phi) = v2 sin r, conserved along geodesics."""
    return math.sin(r) * v2


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
    table = metric._table
    beta, betap = table["beta"], table["betap"]
    unpack, pack, _, _ = _stack_io(CHART_STATE_SIZE["ambient"], g)

    def rhs(_s, state):
        x1, x2, u, p1, p2, w, y1, dy1, y2, dy2 = unpack(state)
        f, _, k = _warp_curvature(table, u)
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
    table = metric._table
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
        f, dh, k = _warp_curvature(table, u)
        dphi = angular(sr * sr)
        minus_k = -k
        return pack((pr / (f * f), dphi, -pr * pr * sr * dh / f**3 + dphi * dphi * u * sr,
                     dy1, minus_k * y1, dy2, minus_k * y2))
    return rhs


def _clairaut_start(metric, p, v, meridian):
    """(r, phi, p_r) of the north-chart start (p, v) in the Clairaut chart.

    A meridian keeps unit speed, so a pole start cannot stall with v1 = 0,
    and it runs along the meridian its heading picks.  At a pole that is
    the meridian phi0 + theta from the north pole and phi0 + pi - theta
    from the south pole, for v = (cos theta, sin theta), as the ambient
    chart reads it.  Off the poles the turn moves the start along its
    parallel by about |c cos r| < MERIDIAN_TOL.
    """
    f = metric.warp(math.cos(p.r))
    if not meridian:
        return p.r, p.phi, f * v[0]
    sign = 1.0 if v[0] >= 0 else -1.0
    return p.r, p.phi + math.atan2(sign * v[1] * math.cos(p.r), abs(v[0])), f * sign


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
    a = v[0] / metric.warp(ct)   # dr/ds
    return [st * cp, st * sp, ct,
            a * ct * cp - v[1] * sp, a * ct * sp + v[1] * cp, -a * st]


def _from_ambient(metric, y, c):
    """(r, phi, v1, v2) in the north chart from ambient samples (x, x').

    v2 = c / sin r by Clairaut's relation: projecting x' onto d_phi would
    cancel O(1) terms and lose all relative accuracy of v2 (and so of
    tau_nu) on near-meridians.  Within MERIDIAN_TOL of a pole the
    position's azimuth is roundoff, so such a sample is read on the
    meridian its velocity runs along, with v2 = 0.  The pair is then
    scaled to unit length.
    """
    x = y[:3] / np.sqrt(np.sum(y[:3] ** 2, axis=0))
    p1, p2, p3 = y[3:6]
    sin_r = np.hypot(x[0], x[1])
    off_pole = sin_r >= MERIDIAN_TOL
    phi = np.where(off_pole, np.arctan2(x[1], x[0]), np.arctan2(p2, p1))
    # unit d_r = (cos r cos phi, cos r sin phi, -sin r)
    v1 = metric.warp(x[2]) * (x[2] * (p1 * np.cos(phi) + p2 * np.sin(phi)) - sin_r * p3)
    v2 = np.divide(c, sin_r, out=np.zeros_like(sin_r), where=off_pole)
    norm = np.hypot(v1, v2)
    return np.arctan2(sin_r, x[2]), phi % (2.0 * math.pi), v1 / norm, v2 / norm


# ---------------------------------------------------------------------------
# DOP853 (see the module docstring).  Rows 0-11 of A and C are the twelve
# stages of the 8(5,3) pair and A[12, :12] = B its order-8 weights; rows
# 13-15 are the three extra stages of the dense output, whose degree-7
# interpolant is read off D.
# ---------------------------------------------------------------------------

_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778
])
_A = np.array([row + [0] * (16 - len(row)) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
)], dtype=float)
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0
])
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0
])
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_B = _A[12, :12]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8            # error estimator of order 7


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_end, tol):
    """First step size (Hairer, Norsett & Wanner, sec. II.4), for t from 0 to t_end."""
    scale = tol + np.abs(y0) * tol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((fun(h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


def _error_norm(K, h, scale):
    """RMS of the 8(5,3) error estimate over `scale`, from the 13 stages K."""
    err5_2 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
    err3_2 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _solve(rhs, t_end, starts, t_eval):
    """One DOP853 solve of the stacked starts (g rows of d numbers) from 0 to t_end.

    Returns the (d, g, len(t_eval)) samples and the number of
    right-hand-side calls.  The tolerance is ODE_TOL / sqrt(g): the error
    norm is an RMS over the whole stacked state, so this holds each
    geodesic to the error a solve of its own would allow.  Each accepted
    step writes its dense output at the samples it covers straight into
    the one sample buffer.  Raises IntegrationError when the step size
    falls below ten units in the last place of s, or when the solve has
    spent RHS_BUDGET right-hand-side calls.
    """
    start = np.asarray(starts, dtype=float)
    g, d = start.shape
    # The samples get an anonymous mapping of their own, whose pages go back
    # to the system when it is freed.  A malloc'd block this size would, once
    # freed, raise glibc's mmap threshold, and later blocks of its size would
    # stay resident in the heap.
    out = np.frombuffer(mmap.mmap(-1, 8 * d * g * len(t_eval)), dtype=float).reshape(d * g, -1)
    tol = ODE_TOL / math.sqrt(g)
    nfev = 0

    def fun(s, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(s, y), dtype=float)

    t, y = 0.0, start.T.ravel()
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_end, tol)
    K = np.empty((len(_C), y.size))
    sampled = 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError("Required step size is less than spacing between numbers.",
                                       arclength_reached=t, nfev=nfev)
            if nfev >= RHS_BUDGET:
                raise IntegrationError(f"right-hand-side budget of {RHS_BUDGET} calls spent",
                                       arclength_reached=t, nfev=nfev)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for i in range(1, 12):
                K[i] = fun(t + _C[i] * h, y + np.dot(K[:i].T, _A[i, :i]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = f_new = fun(t_new, y_new)
            error_norm = _error_norm(K[:13], h, tol + np.maximum(np.abs(y), np.abs(y_new)) * tol)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0
                          else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        stop = int(np.searchsorted(t_eval, t_new, side="right"))
        if stop > sampled:
            for i in range(13, 16):
                K[i] = fun(t + _C[i] * h, y + np.dot(K[:i].T, _A[i, :i]) * h)
            dy = y_new - y
            F = np.empty((7, y.size))
            F[0], F[1], F[2] = dy, h * f - dy, 2 * dy - h * (f_new + f)
            F[3:] = h * np.dot(_D, K)
            # degree-7 interpolant in x, by Horner in the factors x and 1 - x
            x = ((t_eval[sampled:stop] - t) / h)[:, None]
            dense = np.zeros((stop - sampled, y.size))
            for i, row in enumerate(F[::-1]):
                dense += row
                dense *= x if i % 2 == 0 else 1 - x
            dense += y
            out[:, sampled:stop] = dense.T
            sampled = stop
        t, y, f = t_new, y_new, f_new
    return out.reshape(d, g, -1), nfev


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

    def closure_defect(self, j):
        """Largest gap between the chart states of start j at the first and
        the last arclength sampled, over its position and velocity
        components; the Clairaut chart's r and phi are compared modulo 2*pi.
        Both charts are regular at the poles."""
        y = self.state[:CHART_STATE_SIZE[self.chart] - len(JACOBI_START), j]
        gap = np.abs(y[:, -1] - y[:, 0])
        if self.chart == "clairaut":
            gap[:2] = np.abs((gap[:2] + math.pi) % (2.0 * math.pi) - math.pi)
        return float(np.max(gap))


def flow(metric, starts, t_eval):
    """Geodesic flow of `starts` [(p, v), ...] with their Jacobi frames: one ODE solve.

    The states of all starts are stacked into one DOP853 solve in the
    chart `flow_chart(metric)` and sampled at the arclengths `t_eval`.  The
    Jacobi rows solve y'' + K y = 0 with (y1, y1') = (0, 1) and
    (y2, y2') = (1, 0) at s = 0.  Smooth profiles are integrated in ambient
    coordinates on S^2, profiles with cone points in the Clairaut chart
    (r, phi, p_r); there a start with |Clairaut constant| < MERIDIAN_TOL is
    traced as a meridian c = 0 (`_clairaut_start`), which passes through
    the poles.  Returns FlowSamples.
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
        y0 = [[*_clairaut_start(metric, p, v, m), *JACOBI_START]
              for (p, v), m in zip(starts, meridian)]
    state, nfev = _solve(rhs, float(t_eval[-1]), y0, t_eval)
    return FlowSamples(metric, chart, state, c, nfev)
