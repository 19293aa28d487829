"""Near-meridian starts: a log ladder of Clairaut constants down to 1e-12.

Smooth profiles are traced in ambient coordinates, where nothing is
singular at the poles, so every rung passes the identity suite, keeps c0
within c^2 of the meridian's and traces in bounded time.  Cone profiles
keep the Clairaut chart; their ladder is checked down to 1e-5.
"""

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


@pytest.mark.parametrize("exponent", range(-5, 0))
def test_cone_profile_ladder(exponent):
    metric = MetricModel.zoll_revolution([0.1])
    assert metric.has_cone_points
    _, worst, _ = _run(metric, equator_start(10.0 ** exponent))
    assert worst < DEFAULT_TOLERANCE
