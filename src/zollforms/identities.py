"""Universal integral identities on Zoll surfaces, each returning a residual.

Every check reports the raw residual together with a normalized one
(raw divided by the integral of |integrand|); pass/fail decisions use the
normalized value, which is scale-free across metrics.  An identically
zero integrand (round sphere) normalizes to zero, unless its residual is
NaN or infinite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import variation_field

__all__ = [
    "CheckResult",
    "check_cube",
    "check_tau_s",
    "check_quartic",
    "check_4id",
    "check_commutator_reduction",
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


def check_tau_s(path, frame):
    """int tau_s |Y|^2 ds = 0 (differentiated Jacobi equation, by parts)."""
    integrand = path.tau_s * np.abs(frame.Y) ** 2
    return CheckResult("check_tau_s",
                       raw=float(abs(_integral(path, integrand))),
                       scale=float(_integral(path, np.abs(integrand))))


def check_quartic(path, frame, y=None, dy=None):
    """int tau y^2 y'^2 ds = (1/3) int y'^4 ds for real Jacobi solutions."""
    if y is None:
        y, dy = frame.y1, frame.dy1
    elif dy is None:
        raise ValueError("pass dy together with y")
    lhs = _integral(path, path.tau * y * y * dy * dy)
    rhs = _integral(path, dy**4) / 3.0
    return CheckResult("check_quartic",
                       raw=float(abs(lhs - rhs)),
                       scale=float(_integral(path, np.abs(path.tau * y * y * dy * dy))
                                   + _integral(path, dy**4) / 3.0))


def check_4id(path, frame):
    """Both parts of the quartic complex identity.

    Im int tau (Y' Ybar)^2 = 0, and
    int |Y'|^4 - 2 int tau |Y Y'|^2 = Re int tau (Y' Ybar)^2.
    Returns (imaginary-part residual, relation residual).
    """
    Y, dY = frame.Y, frame.dY
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


def check_commutator_reduction(path, frame, variation=None):
    """Reduction of the inner commutator integral to variation boundary terms.

    With the diagonal variation Y_nu (forcing tau_nu Y^2, ic (0,0)):
        int_0^s tau_nu Ybar^n Y^m dt = -(Y_nu' w - Y_nu w')(s)
    for (m, n) = (2, 1) with w = Ybar and (m, n) = (3, 0) with w = Y.
    The pointwise Wronskian-variation identity
        Im(y_nu Ybar' - y_nu' Ybar) = 0
    is checked for the real deformation direction y2 (the family displaced
    along the unit normal at the base point).
    Since d/ds(y_nu' w - y_nu w') = -F w holds for any solution of the
    variation equation, and the field comes by quadrature on the frame,
    the reduction residual measures quadrature consistency rather than
    solver accuracy; the tests pin the field to an independent ODE solve.
    Returns (reduction residual, pointwise Im-identity residual).
    """
    Y, dY = frame.Y, frame.dY
    vf = variation if variation is not None else variation_field(frame)
    worst_raw, worst_scale = 0.0, 0.0
    for w, dw, inner in (
        (np.conj(Y), np.conj(dY), path.tau_nu * Y * Y * np.conj(Y)),
        (Y, dY, path.tau_nu * Y ** 3),
    ):
        cum = path.antiderivative(inner)
        boundary = vf.dy_nu * w - vf.y_nu * dw
        worst_raw = max(worst_raw, float(np.max(np.abs(cum + boundary))))
        worst_scale = max(worst_scale, float(_integral(path, np.abs(inner))),
                          float(np.max(np.abs(boundary))))
    res = CheckResult("check_commutator_reduction", raw=worst_raw, scale=worst_scale)

    real_var = variation_field(frame, direction=frame.y2)
    im_vals = np.imag(real_var.y_nu * np.conj(dY) - real_var.dy_nu * np.conj(Y))
    im_scale = float(np.max(np.abs(real_var.y_nu * np.conj(dY))
                            + np.abs(real_var.dy_nu * np.conj(Y))))
    res_im = CheckResult("check_commutator_reduction_im",
                         raw=float(np.max(np.abs(im_vals))), scale=im_scale)
    return res, res_im


def check_commutator_special_case(path, frame, variation=None):
    """The (m, n) = (2, 1) term written through the variation field, verbatim.

    Asserts that Im of the ordered double integral with outer
    tau_nu Ybar^2 Y and inner tau_nu Ybar Y^2 equals
    -Im int tau_nu Ybar^2 Y (Y_nu' Ybar - Y_nu Ybar') ds.
    """
    Y = frame.Y
    vf = variation if variation is not None else variation_field(frame)
    # ordered double integral (1/2pi) int outer(s) int_0^s inner(t) dt ds
    lhs = path.mean(path.tau_nu * np.conj(Y) ** 2 * Y
                    * path.antiderivative(path.tau_nu * np.conj(Y) * Y ** 2)).imag
    boundary = vf.dy_nu * np.conj(Y) - vf.y_nu * np.conj(frame.dY)
    rhs = -path.mean(path.tau_nu * np.conj(Y) ** 2 * Y * boundary).imag
    scale = float(_integral(path, np.abs(path.tau_nu * np.conj(Y) ** 2 * Y)) ** 2
                  + abs(lhs) + abs(rhs))
    return CheckResult("check_commutator_special_case",
                       raw=float(abs(lhs - rhs)), scale=max(scale, float(abs(lhs) + abs(rhs))))


def run_all_checks(path, frame):
    """All identity checks on one traced geodesic, in reporting order.

    check_cube reports the worst of the four (y, y2) solution pairs.  The
    diagonal variation field is computed once and shared by the two
    commutator checks.
    """
    solutions = (frame.y1, frame.y2)
    cube = max((check_cube(path, frame, y, y2) for y in solutions for y2 in solutions),
               key=lambda r: r.normalized)
    checks = [cube, check_tau_s(path, frame), check_quartic(path, frame)]
    checks.extend(check_4id(path, frame))
    variation = variation_field(frame)
    red, red_im = check_commutator_reduction(path, frame, variation)
    checks.extend([red, red_im, check_commutator_special_case(path, frame, variation)])
    return checks
