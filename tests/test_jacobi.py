"""Jacobi frame, Poincare/Floquet data, and the variation equation."""

import math

import numpy as np
import pytest

from zollforms.geodesic import GeodesicPath
from zollforms.jacobi import floquet_exponents, solve_fundamental
from zollforms.surface import MetricModel, SurfacePoint

from oracles import (ds, exp_map, ode_flow, ode_frame, ode_variation_field, rebase,
                     rotate_tangent, variation_field)


def constant_curvature_path(tau_value, n=512):
    """Synthetic fixture: a formal path with constant curvature samples,
    uniform in arclength (weight 1); its chart is the round sphere's
    equator."""
    zeros = np.zeros(n)
    return GeodesicPath(
        metric=MetricModel.round(), init=(SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0)),
        n=n, weight=np.ones(n), tau=np.full(n, float(tau_value)), tau_s=zeros,
        tau_nu=zeros, tau_nunu=zeros, jacobi=None, jacobi_end=None,
        closure_defect=0.0,
    )


class TestFundamentalFrame:
    def test_round_closed_forms(self, round_path, round_frame):
        s = round_path.s
        assert np.max(np.abs(round_frame.y1 - np.sin(s))) < 1e-9
        assert np.max(np.abs(round_frame.y2 - np.cos(s))) < 1e-9
        assert np.max(np.abs(round_frame.Y - np.exp(1j * s))) < 1e-9
        assert np.max(np.abs(round_frame.poincare - np.eye(2))) < 1e-9

    def test_wronskian_conserved(self, cubic_frame):
        assert cubic_frame.wronskian_drift < 1e-10

    def test_omega_constant_minus_2i(self, cubic_frame):
        assert np.max(np.abs(cubic_frame.omega + 2j)) < 1e-10

    def test_zoll_poincare_identity(self, cubic_frame, linear_frame):
        for frame in (cubic_frame, linear_frame):
            assert np.max(np.abs(frame.poincare - np.eye(2))) < 1e-6
            assert abs(np.linalg.det(frame.poincare) - 1.0) < 1e-10

    def test_zoll_periodicity(self, cubic_frame):
        # all solutions periodic: compare first samples against the wrap
        assert abs(cubic_frame.poincare[1, 1] - 1.0) < 1e-6

    def test_constant_curvature_four(self):
        path = constant_curvature_path(4.0)
        frame = ode_frame(path)
        assert np.max(np.abs(frame.y1 - np.sin(2 * path.s) / 2)) < 1e-9
        assert np.max(np.abs(frame.y2 - np.cos(2 * path.s))) < 1e-9
        assert np.max(np.abs(frame.poincare - np.eye(2))) < 1e-9

    def test_non_periodic_tau_hyperbolic_guard(self):
        # tau = -1: hyperbolic Jacobi flow, Poincare eigenvalues off the circle
        path = constant_curvature_path(-1.0)
        frame = ode_frame(path)
        with pytest.raises(ValueError, match="not elliptic"):
            floquet_exponents(frame)


    def test_carried_frame_matches_ode_oracle(self, round_frame, cubic_frame, linear_frame):
        """The closed-form frame equals the interpolant-driven ODE solve of
        y'' + tau y = 0 at the arclengths of the traced samples."""
        for frame in (round_frame, cubic_frame, linear_frame):
            oracle = ode_frame(frame.path)
            for name in ("y1", "dy1", "y2", "dy2", "poincare"):
                gap = np.max(np.abs(getattr(frame, name) - getattr(oracle, name)))
                assert gap <= 1e-10, (name, gap)

    def test_rebased_frame_matches_ode_oracle(self, cubic_path):
        shifted = rebase(cubic_path, 313)
        frame, oracle = solve_fundamental(shifted), ode_frame(shifted)
        for name in ("y1", "dy1", "y2", "dy2", "poincare"):
            assert np.max(np.abs(getattr(frame, name) - getattr(oracle, name))) <= 1e-10
        assert frame.wronskian_drift < 1e-10


class TestFloquet:
    def test_identity(self):
        assert floquet_exponents(np.eye(2)) == 0.0

    def test_rotation(self):
        a = 0.3
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        assert abs(floquet_exponents(rot) - a) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_named_error(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            floquet_exponents(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_zoll_alpha_vanishes(self, cubic_frame, linear_frame):
        # arccos turns a 1e-12 Poincare defect into a ~1e-6 exponent bound
        assert floquet_exponents(cubic_frame) < 1e-6
        assert floquet_exponents(linear_frame) < 1e-6


class TestVariationField:
    def test_round_sphere_trivial(self, round_path, round_frame):
        vf = variation_field(round_frame)
        assert np.max(np.abs(vf.y_nu)) < 1e-10

    def test_zero_forcing_zero_data(self, cubic_frame):
        vf = variation_field(cubic_frame, direction=np.zeros(cubic_frame.path.n))
        assert np.max(np.abs(vf.y_nu)) < 1e-12

    def test_residual_invariant(self, cubic_frame):
        """Collocation residual of y_nu'' + tau_nu Y^2 + tau y_nu = 0, with
        d/ds = (1/f) d/d(theta) by FFT.  One derivative of dy_nu instead of
        two of y_nu keeps the sample noise from being amplified by the
        squared Nyquist wavenumber."""
        vf = variation_field(cubic_frame)
        path = cubic_frame.path
        residual = (ds(path, vf.dy_nu) + path.tau_nu * cubic_frame.Y ** 2
                    + path.tau * vf.y_nu)
        bound = 1e-8 * max(np.max(np.abs(path.tau_nu)), 1.0)
        assert np.max(np.abs(residual)) < bound

    def test_wronskian_variation_identity(self, cubic_frame):
        # real deformation directions: Im(y_nu Ybar' - y_nu' Ybar) = 0 pointwise
        for direction in (cubic_frame.y2, cubic_frame.y1):
            vf = variation_field(cubic_frame, direction=direction)
            vals = np.imag(vf.y_nu * np.conj(cubic_frame.dY)
                           - vf.dy_nu * np.conj(cubic_frame.Y))
            assert np.max(np.abs(vals)) < 1e-7

    def test_quadrature_matches_ode_oracle(self, cubic_frame, linear_frame):
        """Variation of parameters equals the forced ODE solve, for the
        diagonal field and the real y2 direction."""
        for frame in (cubic_frame, linear_frame):
            for direction in (None, frame.y2):
                vf = variation_field(frame, direction=direction)
                oracle = ode_variation_field(frame, direction=direction)
                assert np.max(np.abs(vf.y_nu - oracle.y_nu)) <= 1e-10
                assert np.max(np.abs(vf.dy_nu - oracle.dy_nu)) <= 1e-10

    def test_finite_difference_oracle(self, cubic_metric, cubic_path, cubic_frame):
        """The variation field equals central differences of Y across the
        +-eps nu geodesics, whose frames the ODE oracle reads at the base
        path's arclengths."""
        eps = 1e-4
        p0, v0 = cubic_path.init
        v0 = np.asarray(v0)
        nu0 = rotate_tangent(v0, math.pi / 2)
        frames = {}
        for sign in (+1.0, -1.0):
            q, w = exp_map(cubic_metric, p0, sign * nu0, eps)
            # sign*w is the parallel transport of +nu0; rotating it by -pi/2
            # transports the original tangent v0
            tangent = rotate_tangent(sign * w, -math.pi / 2)
            y1, _, y2, _ = ode_flow(cubic_metric, (q, tangent), cubic_path.s).jacobi
            frames[sign] = y2 + 1j * y1
        fd = (frames[1.0] - frames[-1.0]) / (2.0 * eps)
        vf = variation_field(cubic_frame, direction=cubic_frame.y2)
        assert np.max(np.abs(vf.y_nu - fd)) < 1e-5
