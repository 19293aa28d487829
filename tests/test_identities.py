"""The universal integral identity suite and its negative control."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from zollforms import fourier, identities
from zollforms.geodesic import trace_geodesic
from zollforms.identities import (
    check_4id,
    check_cube,
    check_quartic,
    check_tau_s,
    run_all_checks,
)
from zollforms.jacobi import solve_fundamental
from zollforms.surface import MetricModel

from oracles import (commutator_reduction, commutator_special_case, ode_variation_field,
                     variation_field)

CHECK_NAMES = ["check_cube", "check_tau_s", "check_quartic", "check_4id_im",
               "check_4id_relation"]


class TestCheckResult:
    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scale", [0.0, 1e-14, 1.0])
    def test_non_finite_residual_fails_at_any_scale(self, raw, scale):
        """A NaN or infinite residual fails, also where the scale is below
        ZERO_SCALE and a finite one would normalize to 0."""
        res = identities.CheckResult("check_tau_s", raw=raw, scale=scale)
        assert not res.passed()
        assert not res.passed(math.inf)
        assert math.isnan(res.normalized) if math.isnan(raw) else res.normalized == math.inf

    def test_zero_scale_still_normalizes_to_zero(self):
        assert identities.CheckResult("check_tau_s", raw=1e-20, scale=0.0).normalized == 0.0


class TestCube:
    def test_round_sphere_exact(self, round_path, round_frame):
        res = check_cube(round_path, round_frame)
        assert res.raw == 0.0 and res.normalized == 0.0

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_zoll_all_pairs(self, cubic_path, cubic_frame, nonzoll_path, nonzoll_frame, pair):
        """check_cube reports the worst of the four real cubics: on each
        frame it reads no better than the pair's own integral
        int tau_nu y^2 y' ds, to roundoff, and on the Zoll one below 1e-7."""
        for path, frame in ((cubic_path, cubic_frame), (nonzoll_path, nonzoll_frame)):
            y, y2 = ((frame.y1, frame.y2)[i] for i in pair)
            integrand = path.tau_nu * y * y * y2
            own = abs(path.mean(integrand)) / path.mean(np.abs(integrand))
            assert own <= check_cube(path, frame).normalized + 1e-15
        assert check_cube(cubic_path, cubic_frame).normalized < 1e-7

    def test_negative_control_fails(self, nonzoll_path, nonzoll_frame):
        assert check_cube(nonzoll_path, nonzoll_frame).normalized > 1e-2


class TestTauS:
    def test_round(self, round_path, round_frame):
        assert check_tau_s(round_path, round_frame).normalized == 0.0

    def test_zoll(self, cubic_path, cubic_frame):
        assert check_tau_s(cubic_path, cubic_frame).normalized < 1e-7

    def test_grid_doubling_stability(self, cubic_frame, cubic_frame_2048):
        """The raw residual moves < 1e-9 from N = 1024 to 2048, and agrees to
        1e-12 at N = 256 and 2048 on the first 8 geodesics of the CLI sample
        of five profiles (measured: <= 1.8e-15)."""
        from zollforms import cli

        a = check_tau_s(cubic_frame.path, cubic_frame)
        b = check_tau_s(cubic_frame_2048.path, cubic_frame_2048)
        assert abs(a.raw - b.raw) < 1e-9
        for spec in ("zoll:-0.3,0.3", "zoll:0.1", "zoll:0.2,-0.5,0.3", "zoll:0.6,-0.2",
                     "zoll:-0.309,0.294"):
            cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec),
                                            "geodesics": 8})
            for _, ic in cli._initial_conditions(cfg):
                coarse, fine = (check_tau_s(path, solve_fundamental(path))
                                for path in (trace_geodesic(cfg.metric_model, ic, n)
                                             for n in (256, 2048)))
                assert abs(coarse.raw - fine.raw) <= 1e-12, spec


class TestQuartic:
    def test_round_closed_forms(self, round_path, round_frame):
        # y = sin s: lhs = pi/4, rhs = (1/3)(3 pi/4)
        lhs = 2 * math.pi * round_path.mean(
            round_path.tau * round_frame.y1**2 * round_frame.dy1**2)
        rhs = 2 * math.pi * round_path.mean(round_frame.dy1**4) / 3.0
        assert abs(lhs - math.pi / 4) < 1e-10
        assert abs(rhs - math.pi / 4) < 1e-10
        assert check_quartic(round_path, round_frame).normalized < 1e-12

    def test_zoll(self, cubic_path, cubic_frame):
        assert check_quartic(cubic_path, cubic_frame).normalized < 1e-7

    def test_horizontal_solution(self, round_path, round_frame):
        """The identity holds for every real Jacobi solution: the check
        reads y1, so a frame carrying y2 there checks the horizontal one."""
        swapped = replace(round_frame, y1=round_frame.y2, dy1=round_frame.dy2)
        assert check_quartic(round_path, swapped).normalized < 1e-12


class Test4Id:
    def test_round_closed_forms(self, round_path, round_frame):
        # |Y'|^4 -> 2pi, tau|YY'|^2 -> 2pi, Re tau (Y'Ybar)^2 -> -2pi
        q = 2 * math.pi * round_path.mean(
            round_path.tau * (round_frame.dY * np.conj(round_frame.Y))**2)
        assert abs(q.real + 2 * math.pi) < 1e-9 and abs(q.imag) < 1e-9
        res_im, res_rel = check_4id(round_path, round_frame)
        assert res_im.normalized < 1e-12 and res_rel.normalized < 1e-12

    def test_zoll(self, cubic_path, cubic_frame):
        res_im, res_rel = check_4id(cubic_path, cubic_frame)
        assert res_im.normalized < 1e-7 and res_rel.normalized < 1e-7

    def test_scaling_homogeneity(self, cubic_path, cubic_frame):
        lam = 1.7 - 0.4j
        Y, dY = lam * cubic_frame.Y, lam * cubic_frame.dY
        t = cubic_path.tau
        q = cubic_path.mean(t * (dY * np.conj(Y))**2)
        quart = cubic_path.mean(np.abs(dY)**4)
        cross = cubic_path.mean(t * np.abs(Y * dY)**2)
        scale = abs(lam) ** 4
        assert abs(q.imag) / scale**2 < 1e-7
        assert abs(quart - 2 * cross - q.real) / scale**2 < 1e-7


@pytest.fixture(scope="module")
def cubic_ode_fields(cubic_frame):
    """The ODE-solved diagonal field and the field of the real direction y2."""
    return (ode_variation_field(cubic_frame),
            ode_variation_field(cubic_frame, direction=cubic_frame.y2))


class TestCommutatorReduction:
    """The paper's reduction of the commutator term to boundary terms of
    the variation field, on the field the ODE oracle solves: a field that
    shares no quadrature with the antiderivatives the reduction compares
    it with."""

    def test_round(self, round_path, round_frame):
        fields = (ode_variation_field(round_frame),
                  ode_variation_field(round_frame, direction=round_frame.y2))
        res, res_im = commutator_reduction(round_path, round_frame, *fields)
        assert res.normalized == 0.0 or res.raw < 1e-10
        assert res_im.raw < 1e-10

    def test_zoll(self, cubic_path, cubic_frame, cubic_ode_fields):
        res, res_im = commutator_reduction(cubic_path, cubic_frame, *cubic_ode_fields)
        assert res.normalized < 1e-6
        assert res_im.normalized < 1e-6

    def test_special_case_m2_n1(self, cubic_path, cubic_frame, cubic_ode_fields):
        res = commutator_special_case(cubic_path, cubic_frame, cubic_ode_fields[0])
        assert res.normalized < 1e-6

    @pytest.mark.parametrize("stretch", [1.0, 1.01])
    def test_quadrature_residual_is_one_minus_wronskian(self, cubic_path, cubic_frame,
                                                        stretch):
        """On the field taken by quadrature on the frame, the reduction's
        residual for w = Ybar is exactly (1 - W) int_0^s Ybar F, F = tau_nu Y^2,
        with W = y2 y1' - y1 y2' the frame's Wronskian: the reduction holds
        by construction wherever W = 1, which `solve_fundamental` gates, so
        as a check on that field it could not fail.  Stretching y1 by 1.01
        makes W = 1.01 and the residual 1 % of the integral."""
        frame = replace(cubic_frame, y1=stretch * cubic_frame.y1,
                        dy1=stretch * cubic_frame.dy1)
        Y, dY = frame.Y, frame.dY
        vf = variation_field(frame)
        cum = cubic_path.antiderivative(cubic_path.tau_nu * Y * Y * np.conj(Y))
        residual = cum + vf.dy_nu * np.conj(Y) - vf.y_nu * np.conj(dY)
        wronskian = frame.y2 * frame.dy1 - frame.y1 * frame.dy2
        scale = np.max(np.abs(cum))
        assert np.max(np.abs(residual - (1.0 - wronskian) * cum)) <= 1e-13 * scale
        assert np.max(np.abs(residual)) >= 0.9 * (stretch - 1.0) * scale

    def test_fd_variation_substitution(self, cubic_path, cubic_frame):
        """The reduction holds with the diagonal variation recombined from
        real-direction solves (bilinearity oracle), within 1e-5."""
        w2 = variation_field(cubic_frame, direction=cubic_frame.y2)
        w1 = variation_field(cubic_frame, direction=cubic_frame.y1)
        # D_Y Y = D_{y2} Y + i D_{y1} Y
        y_nu = w2.y_nu + 1j * w1.y_nu
        dy_nu = w2.dy_nu + 1j * w1.dy_nu
        diag = variation_field(cubic_frame)
        assert np.max(np.abs(y_nu - diag.y_nu)) < 1e-5
        assert np.max(np.abs(dy_nu - diag.dy_nu)) < 1e-5


class TestSpectralRate:
    def test_residuals_shrink_spectrally(self):
        """On a profile with higher harmonics, halving the grid error shows
        super-algebraic decay until the solver floor."""
        from zollforms.geodesic import sample_initial_conditions

        metric = MetricModel.zoll_revolution([-0.12, 0.05, 0.0, 0.07])
        ic = sample_initial_conditions(1, seed=3)[0]
        residuals = []
        for n in (256, 512, 1024):
            path = trace_geodesic(metric, ic, n)
            frame = solve_fundamental(path)
            worst = max(c.normalized for c in run_all_checks(path, frame))
            residuals.append(worst)
        floor = 1e-10
        assert residuals[-1] < max(floor, residuals[0])
        assert residuals[-1] < 1e-6


class TestRunAll:
    def test_no_antiderivative_and_five_checks_in_order(self, monkeypatch, cubic_path,
                                                        cubic_frame):
        """The suite integrates only samples the path and frame hold: no
        spectral antiderivative, and the five named checks in reporting
        order."""
        calls = []
        real = fourier.spectral_antiderivative

        def counting(values):
            calls.append(len(values))
            return real(values)

        for name, module in list(sys.modules.items()):
            if name.startswith("zollforms") and \
                    getattr(module, "spectral_antiderivative", None) is real:
                monkeypatch.setattr(module, "spectral_antiderivative", counting)
        cubic_path.antiderivative(cubic_path.tau)   # the count sees the path's calls
        assert len(calls) == 1
        checks = run_all_checks(cubic_path, cubic_frame)
        assert len(calls) == 1
        assert [c.name for c in checks] == CHECK_NAMES

    def test_all_pass_on_zoll(self, cubic_path, cubic_frame):
        checks = run_all_checks(cubic_path, cubic_frame)
        assert checks[0].name == "check_cube"
        for c in checks:
            assert c.passed(1e-6), f"{c.name}: {c.normalized}"
