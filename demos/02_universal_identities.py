"""The universal integral identities that make the Zoll construction work.

Every check integrates a polynomial in the curvature jets and Jacobi data
over a closed geodesic of a Zoll surface and must return (numerically)
zero; a deliberately broken metric shows the identities have teeth.
"""

from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.identities import run_all_checks
from zollforms.jacobi import solve_fundamental
from zollforms.surface import MetricModel

zoll = MetricModel.zoll_revolution([-0.3, 0.3])     # h = 0.3 (x^3 - x)
control = MetricModel.zoll_revolution([0.05], [0.1])  # even term: not Zoll

ic = sample_initial_conditions(1, seed=7)[0]

print("== Zoll metric: h(x) = 0.3 (x^3 - x) ==")
path = trace_geodesic(zoll, ic, 2048)
frame = solve_fundamental(path)
print(f"closure defect {path.closure_defect:.2e}")
for res in run_all_checks(path, frame):
    print(f"  {res.name:38s} raw {res.raw:9.2e}  normalized {res.normalized:9.2e}")

print()
print("== negative control: even profile term injected ==")
path = trace_geodesic(control, ic, 2048, enforce_closure=False)
frame = solve_fundamental(path)
print(f"closure defect {path.closure_defect:.2e}  (orbit does not close)")
for res in run_all_checks(path, frame)[:3]:
    print(f"  {res.name:38s} raw {res.raw:9.2e}  normalized {res.normalized:9.2e}")
print()
print("the cube integral (the first obstruction of the normal form)")
print("vanishes on Zoll surfaces and fails by orders of magnitude otherwise.")
