"""Independent routes to the Jacobi frame and the variation field, for tests only.

The production frame rides on the geodesic flow and the production
variation field comes by quadrature (see `zollforms.jacobi`).  The
routes here solve the same equations a second way: ODE solves driven by
the trigonometric interpolant of the sampled curvature.  Tests pin the
two routes to each other, so the identity checks that consume the
variation field keep a path that shares no quadrature with them.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from zollforms.jacobi import JacobiFrame, VariationField

ODE_TOL = 1e-12
INTERP_TOL = 1e-15     # relative magnitude below which interpolant modes are dropped


class TrigInterpolant:
    """Evaluates the trigonometric interpolant of periodic samples anywhere.

    Modes with relative magnitude below INTERP_TOL are discarded, so evaluation
    cost scales with the number of significant harmonics rather than the
    grid size.  Used to drive ODE solves with sampled coefficients.
    """

    def __init__(self, values):
        self._real = np.isrealobj(np.asarray(values))
        values = np.asarray(values, dtype=complex)
        n = values.shape[-1]
        coeffs = np.fft.fft(values) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        scale = np.max(np.abs(coeffs)) or 1.0
        keep = np.abs(coeffs) > INTERP_TOL * scale
        keep[0] = True
        self._k = k[keep]
        self._c = coeffs[keep]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        phases = np.exp(1j * np.multiply.outer(s, self._k))
        out = phases @ self._c
        if self._real:
            out = out.real
        return out if out.shape else out[()]


def _solve(rhs, start, t_eval):
    sol = solve_ivp(rhs, (0.0, 2.0 * math.pi), start, method="DOP853",
                    t_eval=t_eval, rtol=ODE_TOL, atol=ODE_TOL)
    assert sol.success, sol.message
    return sol.y


def ode_frame(path):
    """Fundamental Jacobi frame from y'' + tau(s) y = 0 with interpolated tau."""
    tau = TrigInterpolant(path.tau)

    def rhs(s, y):
        t = tau(s)
        return (y[1], -t * y[0], y[3], -t * y[2])

    y1, dy1, y2, dy2 = _solve(rhs, [0.0, 1.0, 1.0, 0.0], np.append(path.s, 2.0 * math.pi))
    return JacobiFrame(
        path=path, y1=y1[:-1], dy1=dy1[:-1], y2=y2[:-1], dy2=dy2[:-1],
        poincare=np.array([[dy1[-1], dy2[-1]], [y1[-1], y2[-1]]]),
        wronskian_drift=float(np.max(np.abs(y2 * dy1 - y1 * dy2 - 1.0))),
    )


def ode_variation_field(frame, direction=None):
    """The variation field of `jacobi.variation_field`, by a forced ODE solve."""
    path = frame.path
    y = frame.Y
    direction = y if direction is None else np.asarray(direction)
    tau_i = TrigInterpolant(path.tau)
    force_i = TrigInterpolant(path.tau_nu * direction * y)

    def rhs(s, state):
        return (state[1], -tau_i(s) * state[0] - force_i(s))

    y_nu, dy_nu = _solve(rhs, np.zeros(2, dtype=complex), path.s)
    return VariationField(y_nu=y_nu, dy_nu=dy_nu, tau=np.asarray(path.tau),
                          tau_nu=np.asarray(path.tau_nu), y=y, direction=direction)
