"""Universal integral identities on Zoll surfaces, each returning a residual.

Every check reports the raw residual together with a normalized one
(raw divided by the integral of |integrand|); pass/fail decisions use the
normalized value, which is scale-free across metrics.  An identically
zero integrand (round sphere) normalizes to zero, unless its residual is
NaN or infinite.

Each check takes arclength means of samples the path and its Jacobi
frame hold, and no antiderivative.  Each fails on some geodesic of a
non-Zoll metric (`tests/test_cli.py`).  The paper's reduction of the
commutator term to boundary terms of the variation field is no check
here: on the field taken by quadrature on the frame its residual is
(1 - W) int Ybar F, W the frame's Wronskian, which
`jacobi.solve_fundamental` already gates at 1; the tests check the
reduction on an ODE-solved field.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CheckResult",
    "check_cube",
    "check_tau_s",
    "check_quartic",
    "check_4id",
    "run_all_checks",
    "DEFAULT_TOLERANCE",
]

DEFAULT_TOLERANCE = 1e-6
ZERO_SCALE = 1e-13


@dataclass(frozen=True)
class CheckResult:
    name: str
    raw: float
    scale: float

    @property
    def normalized(self):
        """raw / scale, and 0.0 where the scale is below ZERO_SCALE; a NaN
        or infinite raw reads as its magnitude at any scale, so it fails."""
        if not math.isfinite(self.raw):
            return abs(self.raw)
        if self.scale < ZERO_SCALE:
            return 0.0
        return self.raw / self.scale

    def passed(self, tol=DEFAULT_TOLERANCE):
        return self.normalized < tol

    def as_dict(self):
        return {"name": self.name, "raw": self.raw, "scale": self.scale,
                "normalized": self.normalized}


def _integral(path, values):
    """int values ds over the period."""
    return 2.0 * math.pi * path.mean(values)


def check_cube(path, frame, y=None, y2=None):
    """Cubic first obstruction: int tau_nu y^2 y2 ds = 0 on Zoll surfaces.

    Defaults to (y, y2) = (y1, y2); any Jacobi solutions on the path grid
    are accepted.
    """
    y = frame.y1 if y is None else np.asarray(y)
    y2 = frame.y2 if y2 is None else np.asarray(y2)
    integrand = path.tau_nu * y * y * y2
    return CheckResult("check_cube",
                       raw=float(abs(_integral(path, integrand))),
                       scale=float(_integral(path, np.abs(integrand))))


def check_tau_s(path, frame, Y=None):
    """int tau_s |Y|^2 ds = 0 (differentiated Jacobi equation, by parts).

    Y defaults to the frame's Y = y2 + i y1.
    """
    Y = frame.Y if Y is None else Y
    integrand = path.tau_s * np.abs(Y) ** 2
    return CheckResult("check_tau_s",
                       raw=float(abs(_integral(path, integrand))),
                       scale=float(_integral(path, np.abs(integrand))))


def check_quartic(path, frame, y=None, dy=None):
    """int tau y^2 y'^2 ds = (1/3) int y'^4 ds for real Jacobi solutions."""
    if y is None:
        y, dy = frame.y1, frame.dy1
    elif dy is None:
        raise ValueError("pass dy together with y")
    cross = path.tau * y * y * dy * dy
    # np.square, not dy**4: a float power of a signed array goes through libm pow
    lhs = _integral(path, cross)
    rhs = _integral(path, np.square(dy * dy)) / 3.0
    return CheckResult("check_quartic",
                       raw=float(abs(lhs - rhs)),
                       scale=float(_integral(path, np.abs(cross)) + rhs))


def check_4id(path, frame, Y=None, dY=None):
    """Both parts of the quartic complex identity.

    Im int tau (Y' Ybar)^2 = 0, and
    int |Y'|^4 - 2 int tau |Y Y'|^2 = Re int tau (Y' Ybar)^2.
    Y and dY default to the frame's.  Returns (imaginary-part residual,
    relation residual).
    """
    Y = frame.Y if Y is None else Y
    dY = frame.dY if dY is None else dY
    t = path.tau
    q = _integral(path, t * (dY * np.conj(Y)) ** 2)
    quart = _integral(path, np.abs(dY) ** 4)
    cross = _integral(path, t * np.abs(Y * dY) ** 2)
    scale = float(abs(quart) + 2.0 * abs(cross) + abs(q))
    res_im = CheckResult("check_4id_im", raw=float(abs(q.imag)), scale=scale)
    res_rel = CheckResult("check_4id_relation",
                          raw=float(abs(quart - 2.0 * cross - q.real)),
                          scale=scale)
    return res_im, res_rel


def run_all_checks(path, frame):
    """All identity checks on one traced geodesic, in reporting order.

    check_cube reports the worst of the four (y, y2) solution pairs.  The
    frame's Y and dY, which its properties build anew on every read, are
    built once and shared.
    """
    solutions = (frame.y1, frame.y2)
    cube = max((check_cube(path, frame, y, y2) for y in solutions for y2 in solutions),
               key=lambda r: r.normalized)
    Y, dY = frame.Y, frame.dY
    return [cube, check_tau_s(path, frame, Y), check_quartic(path, frame),
            *check_4id(path, frame, Y, dY)]
