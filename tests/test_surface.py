"""Metric models, the ODE oracle's chart conversions, exponential map,
curvature jets, and what the flow computes and when."""

import math

import numpy as np
import pytest
from oracles import (
    ambient_beta,
    ambient_start,
    analytic_jet,
    curvature,
    exp_map,
    fd_curvature_jet,
    from_ambient,
    rotate_tangent,
    state_distance,
    surface_integral_of_curvature,
    tau_nunu_stencil,
    whole_grid_closure_defect,
)

from zollforms import cli, surface
from zollforms.geodesic import trace_geodesic
from zollforms.surface import MetricModel, SurfacePoint

P0 = SurfacePoint.north(math.pi / 3, 0.7)
V0 = np.array([0.6, 0.8])


class TestMetricModel:
    def test_inadmissible_profile_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            MetricModel.zoll_revolution([1.2])

    def test_admissible_profiles(self):
        MetricModel.zoll_revolution([0.1])
        MetricModel.zoll_revolution([-0.3, 0.3])

    def test_empty_profile_is_round(self):
        m = MetricModel.zoll_revolution([])
        assert m.h_odd_coeffs == () and m.h_even_coeffs == ()
        assert curvature(m, P0) == 1.0


class TestCharts:
    """The north polar chart against the ambient chart of the ODE oracle (x on S^2 in R^3)."""

    @pytest.mark.parametrize("r", [0.05, 0.4, math.pi / 2, 2.8, math.pi - 0.05])
    @pytest.mark.parametrize("phi", [0.0, 1.3, 5.9])
    def test_round_trip(self, cubic_metric, r, phi):
        p = SurfacePoint.north(r, phi)
        v = np.array([0.6, 0.8])
        y = np.array(ambient_start(cubic_metric, p.r, p.phi, v))[:, None]
        r2, phi2, v1, v2 = from_ambient(cubic_metric, y, math.sin(p.r) * v[1])
        assert abs(r2[0] - p.r) < 1e-12 and abs(phi2[0] - p.phi) < 1e-12
        assert abs(v1[0] - v[0]) < 1e-12 and abs(v2[0] - v[1]) < 1e-12

    def test_tangent_conversion_preserves_norm(self, cubic_metric):
        """A unit tangent maps to an ambient velocity of unit length in the
        metric |dx|^2 + beta(u) du^2."""
        p = SurfacePoint.north(1.0, 0.5)
        x1, x2, u, p1, p2, w = ambient_start(cubic_metric, p.r, p.phi, (0.6, 0.8))
        beta = np.polyval(ambient_beta(cubic_metric)[0], u)
        assert abs(p1 * p1 + p2 * p2 + w * w + beta * w * w - 1.0) < 1e-15


class TestGaussianCurvature:
    def test_round_sphere(self, round_metric):
        assert curvature(round_metric, P0) == 1.0

    def test_fd_area_element_oracle(self, linear_metric):
        """K = -(d^2_y J)/J with J the Fermi area element built from exp_map.

        J(y) is proportional to the distance between points of two nearby
        normal geodesics; the proportionality cancels in J''/J.  Richardson
        extrapolation removes the leading stencil error.
        """
        metric = linear_metric
        p = SurfacePoint.north(math.pi / 3, 0.2)
        v = np.array([1.0, 0.0])
        delta = 1e-3
        q_plus, w_plus = exp_map(metric, p, v, delta)
        q_minus, w_minus = exp_map(metric, p, v, -delta)
        n_plus = rotate_tangent(w_plus, math.pi / 2)
        n_minus = rotate_tangent(w_minus, math.pi / 2)

        def area_element(y):
            a, _ = exp_map(metric, q_plus, n_plus, y) if y else (q_plus, None)
            b, _ = exp_map(metric, q_minus, n_minus, y) if y else (q_minus, None)
            return state_distance(metric, a, (1.0, 0.0), b, (1.0, 0.0))

        def curvature_fd(h):
            vals = [area_element(y) for y in (-h, 0.0, h)]
            return -(vals[0] - 2.0 * vals[1] + vals[2]) / h**2 / vals[1]

        h = 1e-2
        got = curvature_fd(h) + (curvature_fd(h) - curvature_fd(2 * h)) / 3.0
        expected = curvature(metric, p)
        assert abs(got - expected) < 1e-6

    def test_gauss_bonnet_smooth_profile(self, cubic_metric):
        total = surface_integral_of_curvature(cubic_metric)
        assert abs(total - 4.0 * math.pi) < 1e-6

    def test_gauss_bonnet_cone_defect(self, linear_metric):
        # h(1) = 0.1 produces cone points; defect = 4 pi h(1)^2/(1 - h(1)^2)
        total = surface_integral_of_curvature(linear_metric)
        expected = 4.0 * math.pi * (1.0 + 0.01 / 0.99)
        assert abs(total - expected) < 1e-10


class TestExpMap:
    def test_round_great_circle_closes(self, round_metric):
        q, w = exp_map(round_metric, P0, V0, 2.0 * math.pi)
        assert state_distance(round_metric, P0, V0, q, w) < 1e-8

    def test_round_antipode(self, round_metric):
        q, _ = exp_map(round_metric, P0, V0, math.pi)
        assert abs(q.r - (math.pi - P0.r)) < 1e-9

    def test_zoll_closes(self, linear_metric):
        q, w = exp_map(linear_metric, P0, V0, 2.0 * math.pi)
        assert state_distance(linear_metric, P0, V0, q, w) < 1e-6

    def test_unit_tangent_required(self, round_metric):
        with pytest.raises(ValueError, match="unit"):
            exp_map(round_metric, P0, np.array([1.0, 1.0]), 1.0)

    def test_unit_speed_preserved(self, cubic_metric):
        _, w = exp_map(cubic_metric, P0, V0, 1.7)
        assert abs(np.hypot(*w) - 1.0) < 1e-10

    def test_meridian_through_pole(self, cubic_metric):
        p = SurfacePoint.north(0.4, 1.0)
        q, w = exp_map(cubic_metric, p, np.array([-1.0, 0.0]), 1.0)
        # crossed the north pole onto the opposite meridian
        assert abs((q.phi - (1.0 + math.pi)) % (2 * math.pi)) < 1e-9
        assert w[0] > 0


class TestCurvatureJets:
    def test_round_jets_vanish(self, round_metric):
        jet = analytic_jet(round_metric, P0, V0)
        assert (jet.tau, jet.tau_s, jet.tau_nu, jet.tau_nunu) == (1.0, 0.0, 0.0, 0.0)

    def test_analytic_gradient_value(self, linear_metric):
        # tau_nu = g(grad K, nu) with grad K = (K'(r)/f^2) d_r
        p = SurfacePoint.north(math.pi / 3, 0.0)
        v = np.array([0.0, 1.0])  # azimuthal tangent: normal is -e1
        jet = analytic_jet(linear_metric, p, v)
        r = p.r
        u = math.cos(r)
        eps = 1e-6
        kp = (curvature(linear_metric, SurfacePoint.north(r + eps, 0)) -
              curvature(linear_metric, SurfacePoint.north(r - eps, 0))) / (2 * eps)
        f = 1.0 + 0.1 * u
        assert abs(jet.tau_nu - (-kp / f)) < 1e-7

    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.1])
    def test_fd_cross_check(self, cubic_metric, theta):
        v = np.array([math.cos(theta), math.sin(theta)])
        a = analytic_jet(cubic_metric, P0, v)
        f = fd_curvature_jet(cubic_metric, P0, v)
        assert abs(a.tau_s - f.tau_s) < 1e-7
        assert abs(a.tau_nu - f.tau_nu) < 1e-7
        assert abs(a.tau_nunu - f.tau_nunu) < 1e-6

    def test_stencil_self_consistency(self, cubic_metric):
        five = tau_nunu_stencil(cubic_metric, P0, V0, points=5)
        seven = tau_nunu_stencil(cubic_metric, P0, V0, points=7)
        assert abs(five - seven) < 1e-6


class TestRotationIsometry:
    """The revolution isometry phi -> phi + a keeps the frame components."""

    def test_identity_and_full_turn(self):
        for angle in (0.0, 2.0 * math.pi):
            q, w = SurfacePoint.north(P0.r, P0.phi + angle), V0
            assert abs(q.r - P0.r) < 1e-15 and abs(q.phi - P0.phi) < 1e-12
            assert np.allclose(w, V0)

    def test_jets_invariant(self, cubic_metric):
        q, w = SurfacePoint.north(P0.r, P0.phi + 1.234), V0
        a = analytic_jet(cubic_metric, P0, V0)
        b = analytic_jet(cubic_metric, q, w)
        for name in ("tau", "tau_s", "tau_nu", "tau_nunu"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-12


# the five standard profiles (round, cubic, cone, cone, quintic), two that
# bring f down to 0.1 and 0.01 at a pole, and a non-Zoll control
CLOSURE_PROFILES = {"round": ((), ()), "cubic": ((-0.3, 0.3), ()), "linear": ((0.1,), ()),
                    "cone": ((-0.309, 0.294), ()), "quintic": ((0.2, -0.5, 0.3), ()),
                    "-0.9": ((-0.9,), ()), "-0.99": ((-0.99,), ()), "nonzoll": ((0.05,), (0.1,))}


class TestFlowReads:
    """The flow computes what the pipeline reads; the rest waits for a read."""

    @pytest.mark.parametrize("n", [256, 2048, 32768])
    @pytest.mark.parametrize("profile", CLOSURE_PROFILES)
    def test_closure_at_the_ends_is_the_whole_grid_reading(self, profile, n):
        """On the CLI's 32 starts (the equator and the meridian first) the
        defect read at the two ends of the turn is bitwise the one read off
        the whole grid."""
        metric = MetricModel.zoll_revolution(*CLOSURE_PROFILES[profile])
        starts = [ic for _, ic in cli._initial_conditions(cli.RunConfig())]
        assert len(starts) == 32
        for start in starts:
            got = surface.flow(metric, start, n).closure_defect
            assert got == whole_grid_closure_defect(metric, start, n), start

    def test_chart_waits_for_its_first_read(self, cubic_metric, generic_ic, monkeypatch):
        """A traced path has built no chart, and holds at most 10 n floats
        of its own: the weight, 4 jets and the (4, n + 1) Jacobi block.  The
        first read of a chart array builds all five, once."""
        calls = []
        real_chart = surface._chart

        def chart(*args):
            calls.append(args)
            return real_chart(*args)

        monkeypatch.setattr(surface, "_chart", chart)
        n = 4096
        path = trace_geodesic(cubic_metric, generic_ic, n)
        assert not calls
        owned = {}
        for value in vars(path).values():
            if isinstance(value, np.ndarray):
                base = value if value.base is None else value.base
                owned[id(base)] = base.nbytes
        assert sum(owned.values()) <= 10 * n * np.dtype(float).itemsize
        first = [path.s, path.r, path.phi, path.tangent, path.normal]
        again = [path.s, path.r, path.phi, path.tangent, path.normal]
        assert len(calls) == 1 and all(a is b for a, b in zip(first, again))
        assert [a.shape for a in first] == [(n,), (n,), (n,), (n, 2), (n, 2)]
