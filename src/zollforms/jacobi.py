"""Jacobi fields, Poincare map and Floquet data.

The scalar Jacobi equation y'' + tau(s) y = 0, tau = K(u), is solved in
closed form with the geodesic: `surface.flow` samples the rotation field
and its partner by reduction of order, recombined into the fundamental
solutions; the `GeodesicPath` it returns carries their samples (`jacobi`,
and `jacobi_end` at theta0 + 2*pi, one turn of the Clairaut angle, which
is s = 2*pi on a Zoll metric).  The complex frame
is Y = y2 + i*y1 with Y(0) = 1, Y'(0) = i; its Wronskian against the
conjugate is omega(Y, Ybar) = Y Ybar' - Y' Ybar = -2i, constant in s.  On a Zoll
metric the Poincare matrix is the identity and all solutions are
periodic.  The forced variation equation on the frame, which only the
tests solve, lives in `tests/oracles.py`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .surface import IntegrationError

__all__ = [
    "JacobiFrame",
    "solve_fundamental",
    "floquet_exponents",
]

WRONSKIAN_TOL = 1e-8
ELLIPTIC_TOL = 1e-6


@dataclass(frozen=True)
class JacobiFrame:
    """Fundamental Jacobi solutions along a closed geodesic.

    y1 is vertical (y1(0) = 0, y1'(0) = 1), y2 horizontal (y2(0) = 1,
    y2'(0) = 0); Y = y2 + i*y1.  `poincare` is the symplectic Wronskian
    matrix at theta0 + 2*pi acting on (y', y).
    """

    path: object
    y1: np.ndarray
    dy1: np.ndarray
    y2: np.ndarray
    dy2: np.ndarray
    poincare: np.ndarray
    wronskian_drift: float

    @property
    def Y(self):
        return self.y2 + 1j * self.y1

    @property
    def dY(self):
        return self.dy2 + 1j * self.dy1

    @property
    def omega(self):
        """omega(Y, Ybar) = Y conj(Y)' - Y' conj(Y) at every sample (= -2i)."""
        Y, dY = self.Y, self.dY
        return Y * np.conj(dY) - dY * np.conj(Y)


def solve_fundamental(path):
    """Fundamental Jacobi frame along `path`, with Poincare matrix at the
    end of the period.

    Wraps the Jacobi samples the trace carries, with their state at
    theta0 + 2*pi, one turn of the Clairaut angle; raises IntegrationError
    when their Wronskian drifts from 1 by more than WRONSKIAN_TOL.
    """
    y1, dy1, y2, dy2 = path.jacobi
    end_y1, end_dy1, end_y2, end_dy2 = path.jacobi_end
    # monodromy on states (y', y): a_L a_0^{-1} in the Wronskian-matrix
    # arrangement; reduces to the identity on Zoll metrics
    poincare = np.array([[end_dy1, end_dy2],
                         [end_y1, end_y2]])
    frame = JacobiFrame(
        path=path, y1=y1, dy1=dy1, y2=y2, dy2=dy2, poincare=poincare,
        wronskian_drift=float(np.max(np.abs(y2 * dy1 - y1 * dy2 - 1.0))),
    )
    if not frame.wronskian_drift <= WRONSKIAN_TOL:
        raise IntegrationError(
            f"Wronskian drift {frame.wronskian_drift:.3e} > {WRONSKIAN_TOL}; "
            "Jacobi samples inaccurate")
    return frame


def floquet_exponents(frame_or_matrix):
    """Floquet exponent alpha with Poincare eigenvalues e^{+-i alpha}.

    Raises ValueError for a matrix with NaN or inf entries, and for
    hyperbolic or loxodromic matrices (out of the elliptic scope of this
    package).
    """
    P = frame_or_matrix.poincare if isinstance(frame_or_matrix, JacobiFrame) else np.asarray(frame_or_matrix)
    if not np.all(np.isfinite(P)):
        raise ValueError(f"Poincare matrix {P.tolist()} is not finite")
    eigs = np.linalg.eigvals(P)
    if not np.max(np.abs(np.abs(eigs) - 1.0)) <= ELLIPTIC_TOL:
        raise ValueError(f"Poincare eigenvalues {eigs} leave the unit circle: not elliptic")
    half_trace = float(np.trace(P).real) / 2.0
    return float(math.acos(min(1.0, max(-1.0, half_trace))))
