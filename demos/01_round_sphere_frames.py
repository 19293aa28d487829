"""Round-sphere sanity tour: closed-form Jacobi data and a trivial invariant.

On the standard sphere every geodesic is a great circle, the Jacobi
solutions are sin/cos, the complex frame is Y = e^{is}, and the Poincare
matrix is the identity.  The degree-2 normal form invariant must then be
the same number on every geodesic (the maximally degenerate case): the
|z|^4 and |z|^2 coefficients vanish and c0 is a universal constant.
"""

import math

import numpy as np

from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.jacobi import floquet_exponents, solve_fundamental
from zollforms.normalform import assemble_p1
from zollforms.surface import MetricModel, SurfacePoint

metric = MetricModel.round()

print("== tracing the equator ==")
equator = (SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0))
path = trace_geodesic(metric, equator, 1024)
frame = solve_fundamental(path)
print(f"closure defect      {path.closure_defect:.3e}")
print(f"|y1 - sin s|_max    {np.max(np.abs(frame.y1 - np.sin(path.s))):.3e}")
print(f"|y2 - cos s|_max    {np.max(np.abs(frame.y2 - np.cos(path.s))):.3e}")
print(f"|Y - e^(is)|_max    {np.max(np.abs(frame.Y - np.exp(1j * path.s))):.3e}")
print(f"|Poincare - I|      {np.max(np.abs(frame.poincare - np.eye(2))):.3e}")
print(f"Floquet exponent    {floquet_exponents(frame):.3e}")
print(f"omega(Y, Ybar)      {frame.omega[0]:+.6f} (constant -2i)")

print()
print("== the invariant across random geodesics ==")
print(f"{'geodesic':>10s} {'c0':>14s} {'c01':>10s} {'c2':>10s} {'offdiag':>10s}")
for i, ic in enumerate(sample_initial_conditions(5, seed=1)):
    rec = assemble_p1(metric, ic, 1024)
    print(f"{i:>10d} {rec.c0:+.11f} {rec.c01:10.1e} {rec.c2:+10.1e} "
          f"{rec.offdiag_max:10.1e}")
print()
print("c0 = -1/8 on every geodesic: the round normalization constant;")
print("all q-dependence (c2, c01) and every off-diagonal mean vanish.")
