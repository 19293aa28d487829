"""Tracing, closure, sampling, and the spectral quadrature contract."""

import math

import numpy as np
import pytest

from zollforms import cli, fourier, surface
from zollforms.fourier import spectral_antiderivative
from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.surface import IntegrationError, MetricModel, SurfacePoint
from oracles import (FLOW_TOL, MERIDIAN_TOL, curvature_jet_arrays, ds, embedded, equator_start,
                     jet_values, ode_flow, rebase, smooth_at_poles, spectral_derivative,
                     turn_length)


class TestTracing:
    def test_round_equator(self, round_path):
        assert np.allclose(round_path.tau, 1.0)
        assert round_path.closure_defect < 1e-10

    def test_round_generic(self, round_metric):
        ic = sample_initial_conditions(1, seed=4)[0]
        path = trace_geodesic(round_metric, ic, 1024)
        assert np.allclose(path.tau, 1.0, atol=1e-12)
        assert path.closure_defect < 1e-10

    def test_zoll_closure(self, cubic_path, linear_path):
        assert cubic_path.closure_defect < 1e-6
        assert linear_path.closure_defect < 1e-6

    def test_linear_profile_closure_at_2048(self, linear_metric):
        ic = sample_initial_conditions(1, seed=8)[0]
        path = trace_geodesic(linear_metric, ic, 2048)
        assert path.closure_defect < 1e-6

    def test_small_amplitude_profile_closure(self):
        from zollforms.surface import MetricModel
        metric = MetricModel.zoll_revolution([0.05])
        ic = sample_initial_conditions(1, seed=9)[0]
        path = trace_geodesic(metric, ic, 512)
        assert path.closure_defect < 1e-6

    def test_frame_orthonormal(self, cubic_path):
        t, n = cubic_path.tangent, cubic_path.normal
        assert np.max(np.abs(np.sum(t * t, axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.sum(t * n, axis=1))) < 1e-10

    def test_non_zoll_rejected(self, nonzoll_metric, generic_ic):
        with pytest.raises(IntegrationError, match="not Zoll"):
            trace_geodesic(nonzoll_metric, generic_ic, 512)

    def test_non_zoll_defect_magnitude(self, nonzoll_path):
        """The even term x^2/10 lengthens a turn of theta by
        (pi/10) a^2, a^2 = 1 - c^2: the period defect."""
        p, (_, v2) = nonzoll_path.init
        c = math.sin(p.r) * v2
        assert nonzoll_path.closure_defect >= 0.1 * math.pi * (1.0 - c * c) - 1e-12
        assert nonzoll_path.closure_defect > 1e-2

    def test_grid_validation(self, round_metric, equator_ic, monkeypatch):
        """No power of two, or one outside [MIN_GRID, MAX_GRID], raises
        before the flow allocates a sample."""
        monkeypatch.setattr(surface, "flow", lambda *args: pytest.fail("the flow ran"))
        for n in (1000, 128, 2**21):
            with pytest.raises(ValueError, match="power of two"):
                trace_geodesic(round_metric, equator_ic, n)

    @pytest.mark.parametrize("start", [
        ((math.pi / 2, 0.0), (math.nan, 0.0)), ((math.pi / 2, 0.0), (0.0, math.nan)),
        ((math.pi / 2, 0.0), (math.inf, 0.0)), ((math.nan, 0.0), (0.0, 1.0)),
        ((math.inf, 0.0), (0.0, 1.0)), ((math.pi / 2, math.nan), (0.0, 1.0)),
        ((math.pi / 2, -math.inf), (0.0, 1.0))])
    def test_non_finite_start_is_rejected(self, round_metric, start):
        """A NaN or infinite tangent component, r0 or phi0 is no start: the
        same ValueError as a tangent off unit length, also without the
        closure gate, which a NaN closure defect would not trip."""
        (r0, phi0), tangent = start
        with pytest.raises(ValueError, match="unit length|finite"):
            trace_geodesic(round_metric, (SurfacePoint.north(r0, phi0), tangent), 256,
                           enforce_closure=False)

    def test_rebase_rolls_samples(self, cubic_path):
        shifted = rebase(cubic_path, 100)
        assert np.allclose(shifted.tau, np.roll(cubic_path.tau, -100))
        assert shifted.closure_defect == cubic_path.closure_defect


def _trace_each(metric, starts, n):
    """Each start traced by its own `trace_geodesic` call, as the CLI does:
    its path, or the IntegrationError that ended it."""
    out = []
    for start in starts:
        try:
            out.append(trace_geodesic(metric, start, n))
        except IntegrationError as exc:
            out.append(exc)
    return out


class TestStackedTrace:
    """Many starts, traced one at a time by `trace_geodesic`."""

    @pytest.mark.parametrize("spec, n, sizes", [
        ("round", 2048, [256, 2048]),
        ("zoll:-0.3,0.3", 2048, [256, 2048]),
        ("zoll:-0.309,0.294", 2048, [256, 2048]),
        ("zoll:0.2,-0.5,0.3", 32768, [256, 32768]),
    ])
    def test_matches_per_start_traces(self, spec, n, sizes):
        """On the CLI's 32-geodesic sample (at grid n) every geodesic's
        closure defect stays below 1e-10 on each of the grids `sizes`, and
        the theta grids nest: the coarse path is every (fine/coarse)-th
        sample of the fine one, to roundoff."""
        cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec), "grid": n})
        for _, init in cli._initial_conditions(cfg):
            coarse, fine = (trace_geodesic(cfg.metric_model, init, size) for size in sizes)
            assert max(coarse.closure_defect, fine.closure_defect) <= 1e-10
            step = fine.n // coarse.n
            for name in ("s", "weight", "r", "tau", "tau_s", "tau_nu", "tau_nunu"):
                ours, theirs = getattr(coarse, name), getattr(fine, name)[::step]
                assert np.max(np.abs(ours - theirs)) <= 1e-12 * max(1.0, np.max(np.abs(theirs)))
            assert np.max(np.abs(coarse.jacobi - fine.jacobi[:, ::step])) <= 1e-12

    def test_closure_failure_stays_with_its_start(self, nonzoll_metric, generic_ic, equator_ic):
        """Under enforce_closure a start that does not close ends in its own
        IntegrationError; the equator, which closes by symmetry, still traces."""
        equator, generic = _trace_each(nonzoll_metric, [equator_ic, generic_ic], 512)
        assert equator.closure_defect < 1e-10
        assert isinstance(generic, IntegrationError) and "not Zoll" in str(generic)

    def test_flow_failure_stays_with_its_start(self, linear_metric, monkeypatch):
        """A start whose flow raises ends in its own IntegrationError; the
        starts before and after it trace."""
        equator, oblique = (SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0)), equator_start(0.5)
        real_flow = surface.flow

        def flow(metric, start, n):
            if start is oblique:
                raise IntegrationError("forced failure")
            return real_flow(metric, start, n)

        monkeypatch.setattr(surface, "flow", flow)
        paths = _trace_each(linear_metric, [equator, oblique, equator], 2048)
        assert isinstance(paths[1], IntegrationError) and "forced failure" in str(paths[1])
        for path in paths[0], paths[2]:
            assert path.closure_defect < 1e-12


class TestOdeOracle:
    """The closed form against an ODE solve of the geodesic equations with
    the Jacobi pair (`oracles.ode_flow`, scipy's DOP853 at 1e-13): r, the
    point and velocity in R^3 (so phi and v where the north chart is
    regular), the jets (relative to max(1, sup |jet|)) and the Jacobi rows
    at the arclengths s_j of the theta samples and at the end of the turn
    agree to 1e-10.

    On a cone profile the ODE runs in the Clairaut chart, whose arclength
    is good to about FLOW_TOL; near the cone point the velocity turns at
    the rate c / sin^2 r, up to 1/c where the geodesic passes it.  The
    equator starts put theta samples on the passages (theta0 + pi/2 and
    theta0 + 3 pi/2 are samples n/4 and 3n/4), where the ODE's velocity
    reads 2.9e-10 (h = 0.1 x) and 1.6e-9 (h = -0.309 x + 0.294 x^3) off
    the closed form at c = 1e-4, and tighter ODE tolerances make it worse;
    so there the velocity is held to 1e-10 + 10 FLOW_TOL c / sin^2 r."""

    POLE_STARTS = [(SurfacePoint.north(r0, 0.7), heading) for r0 in (0.0, math.pi)
                   for heading in ((1.0, 0.0), (-1.0, 0.0), (0.6, 0.8))]

    @staticmethod
    def _assert_matches(metric, start, n=512):
        path = trace_geodesic(metric, start, n, enforce_closure=False)
        oracle = ode_flow(metric, start, np.append(path.s, turn_length(path)))
        assert np.max(np.abs(path.r - oracle.r[:-1])) <= 1e-10
        x, dx = embedded(metric, path.r, path.phi, *path.tangent.T)
        assert np.max(np.abs(x - oracle.x[:, :-1])) <= 1e-10
        c = abs(math.sin(start[0].r) * start[1][1])
        meridian = c < MERIDIAN_TOL
        turn_rate = 0.0 if meridian or smooth_at_poles(metric) else c / np.sin(path.r) ** 2
        assert np.all(np.abs(dx - oracle.dx[:, :-1]) <= 1e-10 + 10.0 * FLOW_TOL * turn_rate)
        jets = curvature_jet_arrays(metric, oracle.r[:-1], oracle.v1[:-1], oracle.v2[:-1])
        for ours, theirs in zip(jet_values(path).values(), jets):
            assert np.max(np.abs(ours - theirs)) <= 1e-10 * max(1.0, np.max(np.abs(theirs)))
        assert np.max(np.abs(path.jacobi - oracle.jacobi[:, :-1])) <= 1e-10
        assert np.max(np.abs(path.jacobi_end - oracle.jacobi[:, -1])) <= 1e-10

    @pytest.mark.parametrize("coeffs", [[], [-0.3, 0.3], [0.1], [0.2, -0.5, 0.3], [-0.309, 0.294]],
                             ids=["round", "smooth", "cone", "degree-5", "cone-cubic"])
    def test_jets_match_the_chart_formula(self, coeffs):
        """The flow's jets, written in u = a sin(theta), a cos(theta) and c,
        equal the chart formula `oracles.curvature_jet_arrays` on the path's
        own (r, v1, v2) to 1e-12 relative to max(1, sup |jet|): sampled and
        pole starts, near-meridians from c = 1e-1 down to 1e-12, and the
        meridian."""
        metric = MetricModel.zoll_revolution(coeffs)
        near_meridians = [equator_start(10.0 ** k) for k in range(-1, -13, -1)]
        for start in (sample_initial_conditions(3, seed=5) + self.POLE_STARTS
                      + near_meridians + [equator_start(0.0)]):
            path = trace_geodesic(metric, start, 512)
            jets = curvature_jet_arrays(metric, path.r, *path.tangent.T)
            for ours, theirs in zip(jet_values(path).values(), jets):
                assert np.max(np.abs(ours - theirs)) <= 1e-12 * max(1.0, np.max(np.abs(theirs)))

    @pytest.mark.parametrize("coeffs", [[], [-0.3, 0.3], [0.1], [0.2, -0.5, 0.3], [-0.309, 0.294]],
                             ids=["round", "smooth", "cone", "degree-5", "cone-cubic"])
    def test_sampled_and_pole_starts(self, coeffs):
        metric = MetricModel.zoll_revolution(coeffs)
        for start in sample_initial_conditions(3, seed=5) + self.POLE_STARTS:
            self._assert_matches(metric, start)

    @pytest.mark.parametrize("coeffs, smallest", [([-0.3, 0.3], -12), ([0.2, -0.5, 0.3], -12),
                                                  ([0.1], -4), ([-0.309, 0.294], -4)],
                             ids=["smooth", "degree-5", "cone", "cone-cubic"])
    def test_near_meridians(self, coeffs, smallest):
        """From the equator at c = 1e-1 down to 1e-12, and the meridian.  On
        cone profiles the ODE's cost grows as 1/c, so its ladder stops at 1e-4."""
        metric = MetricModel.zoll_revolution(coeffs)
        for exponent in range(-1, smallest - 1, -1):
            self._assert_matches(metric, equator_start(10.0 ** exponent))
        self._assert_matches(metric, equator_start(0.0))

    def test_non_zoll_end_state(self, nonzoll_metric):
        """With an even profile term a turn of theta takes more than 2*pi of
        arclength: the end state, the Jacobi rows included, is read at
        theta0 + 2*pi, which the ODE confirms at that arclength, and the
        path does not close."""
        for start in sample_initial_conditions(3, seed=11):
            self._assert_matches(nonzoll_metric, start)
            assert trace_geodesic(nonzoll_metric, start, 512,
                                  enforce_closure=False).closure_defect > 1e-2

    @pytest.mark.parametrize("coeffs", [[-0.99], [0.0, 0.0, -0.99], [-1.5, 0.6]])
    def test_strongly_warped_profiles(self, coeffs):
        """f = 1 + h comes down to 0.01 (0.1) at a pole, where theta(s) is
        steep: meridian and near-meridian included, every path closes, and
        the oblique ones match the ODE.  (Near the poles of these profiles
        the ODE itself loses accuracy.)"""
        metric = MetricModel.zoll_revolution(coeffs)
        oblique = [equator_start(0.3), *sample_initial_conditions(2, seed=2)]
        for start in [equator_start(0.0), equator_start(1e-6), *oblique]:
            path = trace_geodesic(metric, start, 2048)
            assert path.closure_defect <= 1e-12
        for start in oblique:
            self._assert_matches(metric, start)


def _meridian_arclength(coeffs, rho):
    """F(rho) = rho + int h(cos rho) d rho for h(x) = sum_k a_k x^(2k+1).

    cos^(2k+1) = (1 - sin^2)^k cos, so F is rho plus a polynomial in sin rho.
    """
    sin = np.sin(rho)
    out = np.array(rho, dtype=float)
    for k, a in enumerate(coeffs):
        for j in range(k + 1):
            out = out + a * math.comb(k, j) * (-1) ** j * sin ** (2 * j + 1) / (2 * j + 1)
    return out


def _meridian_of(start):
    """(psi, sign): the meridian phi = psi that the start (point, tangent) runs
    along, read as the ambient chart reads it, and the sign of d(rho)/ds for
    the polar angle rho in that meridian's plane.  At the north pole the
    tangent (cos theta, sin theta) heads along phi0 + theta, at the south
    pole along phi0 + pi - theta, away from the pole."""
    p, (v1, v2) = start
    theta = math.atan2(v2, v1)
    if p.r == 0.0:
        return p.phi + theta, 1.0
    if p.r == math.pi:
        return p.phi + math.pi - theta, -1.0
    return p.phi, math.copysign(1.0, v1)


def _unrolled_angle(path, psi):
    """Polar angle of the samples in the plane of the meridian psi, unwrapped
    through the poles; it is negative on the opposite meridian psi + pi."""
    along = np.sin(path.r) * np.cos(path.phi - psi)
    return np.unwrap(np.arctan2(along, np.cos(path.r)))


def _assert_closed_form(coeffs, path, start):
    """Along a meridian ds = f d(rho), so s = F(rho) - F(rho0) in closed form,
    a route that shares no code with the flow."""
    psi, sign = _meridian_of(start)
    rho = _unrolled_angle(path, psi)
    s = sign * (_meridian_arclength(coeffs, rho) - _meridian_arclength(coeffs, rho[0]))
    assert np.max(np.abs(s - path.s)) <= 1e-10


CONE_PROFILES = [[0.1], [-0.309, 0.294]]
MERIDIAN_STARTS = [(r0, heading) for r0 in (math.pi / 2, 0.3, 2.9, 0.0, math.pi)
                   for heading in (1.0, -1.0)]
POLE_HEADINGS = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]


class TestConeMeridians:
    """Meridians of cone profiles (c = 0) pass the poles; they follow the
    closed-form meridian arclength."""

    @pytest.mark.parametrize("coeffs", CONE_PROFILES)
    @pytest.mark.parametrize("r0, heading", MERIDIAN_STARTS)
    def test_one_start(self, coeffs, r0, heading):
        """Heading north (-1) and south (+1), from the equator, near either pole
        and at each pole, with closure enforced."""
        metric = MetricModel.zoll_revolution(coeffs)
        start = (SurfacePoint.north(r0, 0.7), (heading, 0.0))
        path = trace_geodesic(metric, start, 512)
        _assert_closed_form(coeffs, path, start)
        assert not np.any(path.tangent[:, 1])
        assert path.closure_defect <= 1e-12

    @pytest.mark.parametrize("coeffs", CONE_PROFILES)
    def test_one_stack(self, coeffs):
        """The same starts one after another, pole starts included."""
        metric = MetricModel.zoll_revolution(coeffs)
        starts = [(SurfacePoint.north(r0, 0.7), (heading, 0.0)) for r0, heading in MERIDIAN_STARTS]
        for start, path in zip(starts, _trace_each(metric, starts, 512)):
            assert path.closure_defect <= 1e-12
            _assert_closed_form(coeffs, path, start)


class TestPoleStarts:
    """A start at either pole runs along the meridian its heading picks, on
    smooth and cone profiles: from (0, 0.7) heading (0, 1) along
    phi = 0.7 + pi/2.  It closes under the default enforce_closure, since
    the closure defect is read in the closed form's coordinates, which are
    regular at the poles where north-chart angles are not.  Its samples
    read out finite, also where the heading is orthogonal to the azimuth
    phi0 = 0."""

    @pytest.mark.parametrize("coeffs", [[0.1], [-0.309, 0.294], [-0.3, 0.3]])
    def test_every_heading_closes(self, coeffs):
        metric = MetricModel.zoll_revolution(coeffs)
        starts = [(SurfacePoint.north(r0, phi0), tangent) for r0 in (0.0, math.pi)
                  for phi0 in (0.0, 0.7) for tangent in POLE_HEADINGS]
        for start in starts:
            path = trace_geodesic(metric, start, 512)
            assert path.closure_defect <= 1e-12
            _assert_closed_form(coeffs, path, start)
            assert all(np.all(np.isfinite(jet)) for jet in jet_values(path).values())


class TestSpectralDerivative:
    """The FFT oracle of d/ds = (1/f) d/d(theta), and the package's
    antiderivative."""

    def test_constant(self, round_path):
        der = spectral_derivative(np.full(round_path.n, 2.5))
        assert np.max(np.abs(der)) < 1e-12

    def test_sine(self, round_path):
        der = ds(round_path, np.sin(round_path.s))
        assert np.max(np.abs(der - np.cos(round_path.s))) < 1e-10

    def test_tau_s_two_routes(self, cubic_path):
        der = ds(cubic_path, cubic_path.tau)
        assert np.max(np.abs(der - cubic_path.tau_s)) < 1e-7

    def test_derivative_mean_vanishes(self, cubic_path):
        der = ds(cubic_path, cubic_path.tau_nu)
        assert abs(cubic_path.mean(der)) < 1e-12

    def test_antiderivative_closed_form(self):
        n = 512
        s = 2.0 * math.pi * np.arange(n) / n
        f = np.cos(3 * s)
        got = spectral_antiderivative(f)
        assert np.max(np.abs(got - np.sin(3 * s) / 3.0)) < 1e-12

    def test_antiderivative_vs_trapezoid(self, cubic_path):
        f = cubic_path.tau_nu * cubic_path.tau
        got = spectral_antiderivative(f)
        # independent cumulative trapezoid oracle, O(h^2) accurate
        hstep = 2.0 * math.pi / cubic_path.n
        trap = np.concatenate(([0.0], np.cumsum((f[1:] + f[:-1]) / 2.0))) * hstep
        assert np.max(np.abs(got - trap)) < 40.0 * hstep**2

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_antiderivative_scale_free(self, scale):
        """A real mean keeps its ramp and a mean-free input stays periodic at
        any scale of the data: the mean-zero threshold is relative."""
        n = 256
        s = 2.0 * math.pi * np.arange(n) / n
        ramp = spectral_antiderivative(scale * (1.0 + np.cos(s)))
        assert np.max(np.abs(ramp - scale * (s + np.sin(s)))) < 1e-14 * scale
        periodic = spectral_antiderivative(scale * np.cos(s))
        assert np.max(np.abs(periodic - scale * np.sin(s))) < 1e-14 * scale

    @pytest.mark.parametrize("mean, ramp", [(0.7, True), (1e-12, False), (0.0, False)])
    def test_real_route_matches_complex_route(self, mean, ramp):
        """A real input takes the real transform and returns a real array
        that agrees with the complex route to 1e-14 of the data's scale; the
        mean keeps its ramp only above MEAN_ZERO_TOL of max |f|."""
        n, scale = 512, 3.0
        s = 2.0 * math.pi * np.arange(n) / n
        f = scale * (mean + np.cos(s) - 0.5 * np.sin(4 * s) + 0.25 * np.cos(9 * s))
        want = scale * ((mean * s if ramp else 0.0) + np.sin(s)
                        + 0.125 * (np.cos(4 * s) - 1.0) + np.sin(9 * s) / 36.0)
        got = spectral_antiderivative(f)
        ref = spectral_antiderivative(f.astype(complex))
        assert got.dtype == np.float64 and ref.dtype == np.complex128
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_antiderivative_needs_a_power_of_two(self, dtype):
        with pytest.raises(ValueError, match="power of two"):
            spectral_antiderivative(np.ones(768, dtype=dtype))


class TestSpectralPairing:
    """Means of products with an antiderivative, read from spectra
    (`antiderivative_spectrum`, `spectral_pairing`), against the
    antiderivative taken on the grid."""

    @staticmethod
    def _noise(rng, n, real):
        v = rng.standard_normal(n)
        return v if real else v + 1j * rng.standard_normal(n)

    @pytest.mark.parametrize("mean", [0.0, 0.3])
    @pytest.mark.parametrize("x_real", [True, False])
    @pytest.mark.parametrize("n", [2 ** k for k in range(8, 16)])
    def test_pairing_equals_the_grid_mean(self, n, x_real, mean):
        """mean(F y), F = spectral_antiderivative(x - mean(x)), for real
        and complex x and y, equals the pairing of the spectra to 1e-13 of
        max |F| max |y|, and the conjugate pairing equals mean(F conj(y)).
        The spectrum takes no ramp: where x has a mean, F is still the
        antiderivative of the mean-free part."""
        rng = np.random.default_rng(n + 2 * x_real)
        x = self._noise(rng, n, x_real)
        x = x - np.mean(x) + mean
        antiderivative = spectral_antiderivative(x - np.mean(x))
        coeffs = np.fft.fft(x)
        spectrum = fourier.antiderivative_spectrum(coeffs)
        assert spectrum is coeffs     # written over its input, as the engine reads it
        for y_real in (True, False):
            y = self._noise(rng, n, y_real)
            scale = np.max(np.abs(antiderivative)) * np.max(np.abs(y))
            got = fourier.spectral_pairing(spectrum, np.fft.fft(y))
            assert abs(got - np.mean(antiderivative * y)) <= 1e-13 * scale, y_real
            got = fourier.spectral_pairing(spectrum, np.fft.fft(y), conjugate=True)
            assert abs(got - np.mean(antiderivative * np.conj(y))) <= 1e-13 * scale, y_real

    def test_nan_propagates(self):
        n = 256
        clean, nan = np.cos(fourier.grid(n)), np.full(n, 1.0)
        nan[7] = math.nan
        for x, y in ((nan, clean), (clean, nan)):
            spectrum = fourier.antiderivative_spectrum(np.fft.fft(x))
            for conjugate in (False, True):
                assert math.isnan(abs(fourier.spectral_pairing(spectrum, np.fft.fft(y),
                                                               conjugate)))

    @pytest.mark.parametrize("n", [2, 4, 256])
    def test_full_spectrum_of_real_samples(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        full = fourier.full_spectrum(np.fft.rfft(x), n)
        assert np.max(np.abs(full - np.fft.fft(x))) <= 1e-13 * math.sqrt(n)


class TestQuadratureContract:
    def test_doubling_grid_is_stable(self, cubic_metric, generic_ic,
                                     cubic_path, cubic_path_2048):
        """Integrals of products of up to 8 sampled factors move < 1e-9."""
        for path_a, path_b in ((cubic_path, cubic_path_2048),):
            for fields in (("tau",), ("tau", "tau_nu"),
                           ("tau",) * 4 + ("tau_nu",) * 4):
                prod_a = np.ones(path_a.n)
                prod_b = np.ones(path_b.n)
                for name in fields:
                    prod_a = prod_a * getattr(path_a, name)
                    prod_b = prod_b * getattr(path_b, name)
                int_a = 2 * math.pi * path_a.mean(prod_a)
                int_b = 2 * math.pi * path_b.mean(prod_b)
                assert abs(int_a - int_b) < 1e-9

    def test_sampling_reproducible(self):
        a = sample_initial_conditions(5, seed=42)
        b = sample_initial_conditions(5, seed=42)
        for (pa, va), (pb, vb) in zip(a, b):
            assert pa == pb and va == vb
