"""Assembling the degree-2 normal form invariant on a Zoll surface.

Shows the full pipeline per geodesic and, most strikingly, the exact
cancellation between the two order-zero contributions: the conjugated
metric terms and the commutator double integral produce opposite
off-diagonal (and |z|^4) means, so their sum vanishes on every geodesic
while c0 still varies over the geodesic space (the metric is not
maximally degenerate).
"""

import math

from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.jacobi import solve_fundamental
from zollforms.normalform import assemble_p1, conjugated_order_zero, frame_terms
from zollforms.surface import MetricModel, SurfacePoint

metric = MetricModel.zoll_revolution([-0.3, 0.3])

print("== per-geodesic invariants ==")
print(f"{'geodesic':>10s} {'c0':>13s} {'c2':>10s} {'offdiag':>10s} "
      f"{'H':>10s} {'c0 + H/16pi':>12s}")
ics = [("equator", (SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0))),
       ("meridian", (SurfacePoint.north(math.pi / 2, 0.0), (1.0, 0.0)))]
ics += [(f"random-{i}", ic) for i, ic in enumerate(sample_initial_conditions(4, seed=2))]
for name, ic in ics:
    rec = assemble_p1(metric, ic, 1024)
    print(f"{name:>10s} {rec.c0:+.9f} {rec.c2:+10.1e} {rec.offdiag_max:10.1e} "
          f"{rec.H_b:10.6f} {rec.c0 + rec.H_b / (16 * math.pi):12.1e}")

print()
print("c2 = 0 and off-diagonals vanish on every geodesic; c0 = -H/(16 pi)")
print("varies across geodesics, so this Zoll metric is not maximally degenerate.")

print()
print("== the cancellation behind the off-diagonal vanishing ==")
ic = sample_initial_conditions(1, seed=7)[0]
path = trace_geodesic(metric, ic, 1024)
frame = solve_fundamental(path)
# the metric terms are the mean of the D_s-free weight 0 part after the
# frame (stage 1); the commutator term is what the exp(i h^(1/2) Q)
# conjugation adds to it
metric_part, _ = frame_terms(path, frame)
total, _ = conjugated_order_zero(path, frame)
print(f"{'entry':>8s} {'metric terms':>24s} {'commutator term':>24s} {'sum':>12s}")
for key in ((2, 2), (3, 1), (4, 0), (1, 3), (0, 4)):
    a = complex(metric_part[key])
    b = complex(total[key]) - a
    print(f"{str(key):>8s} {a:+24.6e} {b:+24.6e} {abs(a + b):12.2e}")
print()
print("each entry is O(1e-2) on its own; the normal form exists because")
print("they cancel to solver precision.")
