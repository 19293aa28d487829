"""Near-meridian starts: a log ladder of Clairaut constants down to 1e-12.

The closed form costs the same at every Clairaut constant.  On a smooth
profile every rung passes the identity suite, keeps c0 within c^2 of the
meridian's and traces in bounded time.  On a cone profile every rung
traces in bounded time, closes and passes the identity suite; the cone
point turns the passing geodesic, so over half a period its longitude
gains pi (1 - h(1)) in the limit c -> 0, not the meridian's pi.  The
turn takes an arclength of about c, finer than the grid below c = 1e-3,
but the jets do not see it: they depend on the tangent only through
v1 sin r = -a cos(theta), v2 sin r = c and v1^2 + v2^2 = 1.
"""

import math
import time

import pytest
from oracles import equator_start

from zollforms.geodesic import canonical_initial_conditions, trace_geodesic
from zollforms.identities import DEFAULT_TOLERANCE, run_all_checks
from zollforms.jacobi import solve_fundamental
from zollforms.normalform import assemble_p1
from zollforms.surface import MetricModel

N_GRID = 1024
TRACE_SECONDS = 1.0
C0_APPROACH_TOL = 1e-10     # |c0(c) - c0(meridian)| <= c^2 + this


def _run(metric, ic):
    t0 = time.perf_counter()
    path = trace_geodesic(metric, ic, N_GRID)
    elapsed = time.perf_counter() - t0
    frame = solve_fundamental(path)
    worst = max(r.normalized for r in run_all_checks(path, frame))
    return elapsed, worst, assemble_p1(metric, ic, N_GRID, path=path, frame=frame)


@pytest.fixture(scope="module")
def smooth_metric():
    return MetricModel.zoll_revolution([-0.3, 0.3])


@pytest.fixture(scope="module")
def meridian_c0(smooth_metric):
    return _run(smooth_metric, canonical_initial_conditions()[1][1])[2].c0


@pytest.mark.parametrize("exponent", range(-12, 1))
def test_smooth_profile_ladder(smooth_metric, meridian_c0, exponent):
    c = 10.0 ** exponent
    elapsed, worst, rec = _run(smooth_metric, equator_start(c))
    assert worst < DEFAULT_TOLERANCE
    assert abs(rec.c0 - meridian_c0) <= c * c + C0_APPROACH_TOL
    assert elapsed < TRACE_SECONDS


@pytest.mark.parametrize("exponent", range(-12, 0))
def test_cone_profile_ladder(exponent):
    """h = 0.1 x, from the equator heading south, past the south pole and
    back at the equator half a turn of theta on."""
    metric = MetricModel.zoll_revolution([0.1])
    c = 10.0 ** exponent
    t0 = time.perf_counter()
    path = trace_geodesic(metric, equator_start(c), N_GRID)
    assert time.perf_counter() - t0 < TRACE_SECONDS
    assert path.closure_defect <= 1e-12
    gained = (path.phi[N_GRID // 2] - path.phi[0]) % (2.0 * math.pi)
    assert abs(gained - math.pi * (1.0 - 0.1)) <= c
    worst = max(r.normalized for r in run_all_checks(path, solve_fundamental(path)))
    assert worst < DEFAULT_TOLERANCE
