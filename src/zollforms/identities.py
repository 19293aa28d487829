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


def check_cube(path, frame):
    """Cubic first obstruction: int tau_nu y^2 y' ds = 0 on Zoll surfaces,
    for any Jacobi solutions y, y'.

    Read on the four real cubics y1^3, y1^2 y2, y1 y2^2, y2^3 in one
    pass; reports the worst.
    """
    y1, y2 = frame.y1, frame.y2
    t = path.tau_nu * path.weight
    t1, t2 = t * y1, t * y2
    cubics = np.array([t1 * y1 * y1, t1 * y1 * y2, t2 * y1 * y2, t2 * y2 * y2])
    raws = 2.0 * math.pi * np.abs(np.mean(cubics, axis=1))
    scales = 2.0 * math.pi * np.mean(np.abs(cubics), axis=1)
    return max((CheckResult("check_cube", raw=float(raw), scale=float(scale))
                for raw, scale in zip(raws, scales)), key=lambda r: r.normalized)


def check_tau_s(path, frame):
    """int tau_s |Y|^2 ds = 0 (differentiated Jacobi equation, by parts),
    with |Y|^2 = y1^2 + y2^2."""
    integrand = path.tau_s * (frame.y1 * frame.y1 + frame.y2 * frame.y2)
    return CheckResult("check_tau_s",
                       raw=float(abs(_integral(path, integrand))),
                       scale=float(_integral(path, np.abs(integrand))))


def check_quartic(path, frame):
    """int tau y^2 y'^2 ds = (1/3) int y'^4 ds for real Jacobi solutions,
    read on the vertical one, y = y1."""
    y, dy = frame.y1, frame.dy1
    cross = path.tau * y * y * dy * dy
    # np.square, not dy**4: a float power of a signed array goes through libm pow
    lhs = _integral(path, cross)
    rhs = _integral(path, np.square(dy * dy)) / 3.0
    return CheckResult("check_quartic",
                       raw=float(abs(lhs - rhs)),
                       scale=float(_integral(path, np.abs(cross)) + rhs))


def check_4id(path, frame):
    """Both parts of the quartic complex identity.

    Im int tau (Y' Ybar)^2 = 0, and
    int |Y'|^4 - 2 int tau |Y Y'|^2 = Re int tau (Y' Ybar)^2,
    read on the real rows: Y' Ybar = P + i W with P = y1 y1' + y2 y2'
    and W = y2 y1' - y1 y2', and |Y Y'|^2 = |Y|^2 |Y'|^2.  Returns
    (imaginary-part residual, relation residual).
    """
    y1, y2, dy1, dy2 = frame.y1, frame.y2, frame.dy1, frame.dy2
    p = y1 * dy1 + y2 * dy2
    w = y2 * dy1 - y1 * dy2
    abs_dY_sq = dy1 * dy1 + dy2 * dy2      # |Y'|^2
    t = path.tau
    q_re = _integral(path, t * (p * p - w * w))
    q_im = 2.0 * _integral(path, t * p * w)
    quart = _integral(path, abs_dY_sq * abs_dY_sq)
    cross = _integral(path, t * (y1 * y1 + y2 * y2) * abs_dY_sq)
    scale = float(abs(quart) + 2.0 * abs(cross) + math.hypot(q_re, q_im))
    res_im = CheckResult("check_4id_im", raw=float(abs(q_im)), scale=scale)
    res_rel = CheckResult("check_4id_relation",
                          raw=float(abs(quart - 2.0 * cross - q_re)),
                          scale=scale)
    return res_im, res_rel


def run_all_checks(path, frame):
    """All identity checks on one traced geodesic, in reporting order."""
    return [check_cube(path, frame), check_tau_s(path, frame), check_quartic(path, frame),
            *check_4id(path, frame)]
