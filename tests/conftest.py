import math

import pytest

from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.jacobi import solve_fundamental
from zollforms.surface import MetricModel, SurfacePoint


@pytest.fixture(scope="session")
def round_metric():
    return MetricModel.round()


@pytest.fixture(scope="session")
def cubic_metric():
    # h(x) = 0.3 (x^3 - x): smooth at the poles, |h|_inf ~ 0.115
    return MetricModel.zoll_revolution([-0.3, 0.3])


@pytest.fixture(scope="session")
def linear_metric():
    # linear profile a1 = 0.1 (cone points at the poles, geodesics still close)
    return MetricModel.zoll_revolution([0.1])


@pytest.fixture(scope="session")
def nonzoll_metric():
    # even term destroys the Zoll property (negative control)
    return MetricModel.zoll_revolution([0.05], [0.1])


@pytest.fixture(scope="session")
def equator_ic():
    return (SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0))


@pytest.fixture(scope="session")
def meridian_ic():
    return (SurfacePoint.north(math.pi / 2, 0.0), (1.0, 0.0))


@pytest.fixture(scope="session")
def generic_ic():
    return sample_initial_conditions(1, seed=11)[0]


@pytest.fixture(scope="session")
def round_path(round_metric, equator_ic):
    return trace_geodesic(round_metric, equator_ic, 1024)


@pytest.fixture(scope="session")
def round_frame(round_path):
    return solve_fundamental(round_path)


@pytest.fixture(scope="session")
def cubic_path(cubic_metric, generic_ic):
    return trace_geodesic(cubic_metric, generic_ic, 1024)


@pytest.fixture(scope="session")
def cubic_frame(cubic_path):
    return solve_fundamental(cubic_path)


@pytest.fixture(scope="session")
def cubic_path_2048(cubic_metric, generic_ic):
    return trace_geodesic(cubic_metric, generic_ic, 2048)


@pytest.fixture(scope="session")
def cubic_frame_2048(cubic_path_2048):
    return solve_fundamental(cubic_path_2048)


@pytest.fixture(scope="session")
def linear_path(linear_metric, generic_ic):
    return trace_geodesic(linear_metric, generic_ic, 1024)


@pytest.fixture(scope="session")
def linear_frame(linear_path):
    return solve_fundamental(linear_path)


@pytest.fixture(scope="session")
def nonzoll_path(nonzoll_metric, generic_ic):
    return trace_geodesic(nonzoll_metric, generic_ic, 1024, enforce_closure=False)


@pytest.fixture(scope="session")
def nonzoll_frame(nonzoll_path):
    return solve_fundamental(nonzoll_path)
