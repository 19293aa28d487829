"""Normal form pipeline: substitution, homological equations, invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.jacobi import solve_fundamental
from oracles import (commutator_double_integral, d_half, d_zero_restricted, ds, field_mean,
                     frame_conjugated, metaplectic_substitute, order_zero_by_q, rebase,
                     solve_first_homological, transvectant, weyl_quantize)
from zollforms.expansion import SOperator
from zollforms.normalform import (
    FirstObstructionError,
    InvariantRecord,
    assemble_p1,
    compute_H,
    conjugated_order_zero,
    first_obstruction_means,
    frame_terms,
)
from zollforms.surface import SurfacePoint
from zollforms.weyl import PolySymbol


class FrameStub:
    """Minimal frame carrier for substitution tests."""

    def __init__(self, Y, dY, path=None):
        self.Y = np.asarray(Y, dtype=complex)
        self.dY = np.asarray(dY, dtype=complex)
        self.path = path


def assert_frame_cancels():
    """h is read off the weight -1 term that it cancels, and c_s = 2 makes
    the scaling by 1/c_s exact: in exact arithmetic the framed weight -1
    operator has D_s part c_s and D_s-free part c_s h, so the weight -1
    operator that stage 2 reads is exactly c_s D_s."""
    from oracles import stage2_inputs
    from zollforms.expansion import (JetPolynomial, _frame_formal, formal_oscillator,
                                     graded_laplacian, transverse_symbols)

    graded = graded_laplacian()
    exact_c_s, h = formal_oscillator(graded)
    syms = transverse_symbols(graded[Fraction(-1)])
    assert set(syms) == {0, 1}
    ds_part, free = _frame_formal([syms[1], syms[0]])
    assert ds_part.coeffs == {(0, 0): JetPolynomial.const(exact_c_s)}
    assert free.coeffs == h.map_coeffs(lambda v: v * exact_c_s).coeffs
    assert complex(exact_c_s) == 2.0
    _, ops = stage2_inputs()
    assert {k: sym.coeffs for k, sym in ops[Fraction(-1)].terms.items()} == {
        1: {(0, 0): JetPolynomial.const(exact_c_s)}}


class TestMetaplecticSubstitute:
    def test_round_frame_y_squared(self, round_frame):
        # y^2 -> (e^{-is} z + e^{is} zbar)^2 / 4
        y2 = PolySymbol({(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})
        [got] = metaplectic_substitute([y2], round_frame)
        s = round_frame.path.s
        assert np.max(np.abs(got[(2, 0)] - 0.25 * np.exp(-2j * s))) < 1e-9
        assert np.max(np.abs(got[(1, 1)] - 0.5)) < 1e-9
        assert np.max(np.abs(got[(0, 2)] - 0.25 * np.exp(2j * s))) < 1e-9

    def test_identity_frame_fixture(self):
        n = 256
        frame = FrameStub(np.ones(n), 1j * np.ones(n))
        y_sym = PolySymbol({(1, 0): 0.5, (0, 1): 0.5})
        [got] = metaplectic_substitute([y_sym], frame)
        assert np.max(np.abs(got[(1, 0)] - 0.5)) < 1e-15
        assert np.max(np.abs(got[(0, 1)] - 0.5)) < 1e-15

    def test_poisson_bracket_preserved(self, cubic_frame):
        rng = np.random.default_rng(6)
        for _ in range(4):
            a = PolySymbol({(m, n): complex(*rng.standard_normal(2))
                            for m in range(3) for n in range(3 - m)})
            b = PolySymbol({(m, n): complex(*rng.standard_normal(2))
                            for m in range(4) for n in range(4 - m) if m + n == 3})
            [lhs] = metaplectic_substitute([transvectant(a, b, 1)], cubic_frame)
            rhs = transvectant(*metaplectic_substitute([a, b], cubic_frame), 1)
            worst, scale = 0.0, 1.0
            for k in set(lhs.coeffs) | set(rhs.coeffs):
                lv = np.asarray(lhs[k], dtype=complex)
                rv = np.asarray(rhs[k], dtype=complex)
                worst = max(worst, float(np.max(np.abs(lv - rv))))
                scale = max(scale, float(np.max(np.abs(rv))))
            assert worst / scale < 1e-10


class TestMetaplecticPropagatorOracle:
    """The frame substitution is what conjugation by the transverse
    propagator does to Weyl symbols.

    Independently of the symbol machinery, solve i dU/ds = H(s) U with
    H(s) = (Op(eta^2) + tau(s) Op(y^2))/2 on the truncated oscillator
    basis, in the Clairaut angle (d/d(theta) = f d/ds), and compare
    U(s)* Op(a) U(s) against Op(a o A(s)) for a = y^2.
    This ties together the quantization oracle, the Jacobi frame, and the
    substitution convention in one statement.
    """

    def test_heisenberg_evolution_matches_substitution(self, cubic_path, cubic_frame):
        from scipy.integrate import solve_ivp
        from oracles import TrigInterpolant

        n_trunc = 48
        size = n_trunc
        y_sym = PolySymbol({(1, 0): 0.5, (0, 1): 0.5})
        eta_sym = PolySymbol({(1, 0): -0.5j, (0, 1): 0.5j})
        y2_op = weyl_quantize(transvectant(y_sym, y_sym, 0), size)
        eta2_op = weyl_quantize(transvectant(eta_sym, eta_sym, 0), size)
        tau, weight = TrigInterpolant(cubic_path.tau), TrigInterpolant(cubic_path.weight)

        def rhs(theta, u_flat):
            u = u_flat.reshape(size, size)
            h = 0.5 * (eta2_op + tau(theta) * y2_op)
            return (-1j * weight(theta) * (h @ u)).ravel()

        j_target = cubic_path.n // 3
        theta_target = 2.0 * math.pi * j_target / cubic_path.n
        sol = solve_ivp(rhs, (0.0, theta_target), np.eye(size, dtype=complex).ravel(),
                        method="DOP853", rtol=1e-10, atol=1e-10)
        U = sol.y[:, -1].reshape(size, size)
        lhs = U.conj().T @ y2_op @ U

        [sub] = metaplectic_substitute([transvectant(y_sym, y_sym, 0)], cubic_frame)
        at_s = PolySymbol({k: complex(v[j_target]) for k, v in sub.coeffs.items()})
        rhs_op = weyl_quantize(at_s, size)
        # the truncated propagator corrupts the top of the basis; compare
        # well inside the block (error decays ~1e3 per 8 states here)
        k = size // 3
        err = np.max(np.abs(lhs[:k, :k] - rhs_op[:k, :k]))
        assert err < 1e-8
        # and the reversed conjugation is decisively wrong (direction pin)
        wrong = U @ y2_op @ U.conj().T
        assert np.max(np.abs(wrong[:k, :k] - rhs_op[:k, :k])) > 1.0


class TestDHalf:
    def test_round_sphere_vanishes(self, round_frame):
        d = d_half(round_frame)
        assert max(np.max(np.abs(v)) for v in d.coeffs.values()) < 1e-14

    def test_binomial_structure(self, cubic_frame):
        d = d_half(cubic_frame)
        # coefficient of z^2 zbar is 3x the z^3 one with Y/Ybar swapped once
        Y = cubic_frame.Y
        ratio = d[(2, 1)] / d[(3, 0)]
        assert np.max(np.abs(ratio - 3.0 * Y / np.conj(Y))) < 1e-8

    def test_zoll_means_vanish(self, cubic_frame, linear_frame):
        for frame in (cubic_frame, linear_frame):
            d = d_half(frame)
            worst = max(abs(complex(frame.path.mean(v))) for v in d.coeffs.values())
            assert worst < 1e-7

    def test_engine_obstruction_equals_d_half_means(self, cubic_frame, linear_frame):
        """The engine reads the first obstruction off its own odd term; it is
        the number the standalone d_half route gives, to roundoff on the
        scale of d: the engine substitutes in (y, eta), the oracle in
        (z, zbar), so the two means are independent roundings (about 1e-17
        on these frames)."""
        for frame in (cubic_frame, linear_frame):
            d = d_half(frame)
            expected = max(abs(complex(frame.path.mean(v))) for v in d.coeffs.values())
            scale = max(float(np.max(np.abs(v))) for v in d.coeffs.values())
            _, first_obstruction = conjugated_order_zero(frame.path, frame)
            assert abs(first_obstruction - expected) <= 1e-15 * scale


class TestFirstHomological:
    def test_zero_input(self, cubic_frame):
        path = cubic_frame.path
        q, means = solve_first_homological(path, {(3, 0): np.zeros(path.n, dtype=complex)})
        assert means == {(3, 0): 0j, (0, 3): 0j}
        assert np.max(np.abs(q[(3, 0)])) == 0.0

    def test_single_mode_closed_form(self, round_path):
        """On the round equator, where f = 1 and the samples are uniform in s."""
        s = round_path.s
        d = {(2, 1): np.exp(1j * s) * round_path.weight}
        q, _ = solve_first_homological(round_path, d)
        expected = -0.5 * (np.exp(1j * s) - 1.0) / 1j
        assert np.max(np.abs(q[(2, 1)] - expected)) < 1e-12

    def test_periodicity(self, cubic_frame):
        path = cubic_frame.path
        d = {k: v * path.weight for k, v in d_half(cubic_frame).items()}
        q, _ = solve_first_homological(path, d)
        for v in q.values():
            # spectral antiderivative of numerically mean-free data is periodic
            assert abs(v[0]) < 1e-12

    def test_small_mean_keeps_q_periodic(self, round_path):
        """A mean between the antiderivative's zeroing threshold (1e-10 of
        max |d|) and MEAN_TOL passes the gate and is reported, and Q stays
        periodic with its FFT derivative -(d - M)/c_s."""
        s = round_path.s
        d = {(3, 0): np.cos(s) + 1e-8, (2, 1): np.exp(2j * s) - 3e-9j}
        q, means = solve_first_homological(
            round_path, {k: v * round_path.weight for k, v in d.items()})
        assert abs(means[(3, 0)] - 1e-8) <= 1e-15 and abs(means[(2, 1)] + 3e-9j) <= 1e-15
        fft = {k: ds(round_path, v) for k, v in q.items()}
        for key in d:
            assert abs(q[key][0]) == 0.0
            q_s = -(d[key] - means[key]) / 2.0
            assert np.max(np.abs(q_s - fft[key])) <= 1e-13, key
        assert np.max(np.abs(q[(3, 0)] + 0.5 * np.sin(s))) <= 1e-13

    def test_obstruction_error(self):
        """A mean of 0.3 on the y2^3 density alone gives each entry of d
        0.3 times its y2^3 coefficient, 1/24 or 1/8: (2, 1) is named, the
        first of the largest."""
        with pytest.raises(FirstObstructionError, match="z\\^2 zbar\\^1") as err:
            first_obstruction_means(np.array([0.0, 0.0, 0.0, 0.3]))
        assert err.value.value == 0.3 / 8

    def test_nan_entry_is_an_obstruction(self):
        with pytest.raises(FirstObstructionError):
            first_obstruction_means(np.array([0.0, math.nan, 0.0, 0.0]))

    def test_gate_reads_every_entry_in_order(self):
        """Given the means m of the four cubic densities, the gate reads
        the means of all four entries of the odd term, M = alpha m, in its
        order, the largest first and, among equal ones, the first in that
        order: a mirror entry (equal |mean|) is never named before its
        first entry, nor (2, 1) before (3, 0) at equal |mean|; a NaN
        reaches every entry and is named at the first."""
        from zollforms.normalform import _symbols

        stage = _symbols()
        assert stage.d_keys == ((3, 0), (2, 1), (1, 2), (0, 3))
        # columns: the densities of y1 y2^2, y1^2 y2, y1^3, y2^3
        assert np.array_equal(stage.alpha * 24, [[-3j, -3, 1j, 1], [-3j, 3, -3j, 3],
                                                 [3j, 3, 3j, 3], [3j, -3, -1j, 1]])
        for m, named in (((0, -1, 0, 1), (3, 0)), ((0, 0, 1, 0), (2, 1)), ((0, 0, 0, 1), (2, 1)),
                         ((1, 0, 0, 0), (3, 0)), ((0, 1, 0, 0), (3, 0)),
                         ((0, math.nan, 0, 0), (3, 0))):
            with pytest.raises(FirstObstructionError) as err:
                first_obstruction_means(0.3 * np.array(m))
            assert err.value.entry == named, m

    @pytest.mark.parametrize("spec", ["zoll:-0.3,0.3", "zoll:0.1", "zoll:0.2,-0.5,0.3",
                                      "zoll:0.6,-0.2", "zoll:-0.309,0.294", "zoll:-0.9"])
    def test_conjugate_pairs_share_one_antiderivative(self, spec, monkeypatch):
        """The engine's four cubic densities, combined by alpha, give every
        entry of the odd term times f as the pointwise route does, to
        roundoff, on the first 8 CLI geodesics.  d is a real symbol, so the
        reference Q route given (3, 0) and (2, 1) alone integrates only
        them: the means it returns for (1, 2) and (0, 3) are the conjugates
        of theirs, and so are the pointwise route's own means, and each
        geodesic takes 2 antiderivatives."""
        import oracles
        from zollforms import cli, normalform

        real = oracles.spectral_antiderivative
        calls = []
        monkeypatch.setattr(oracles, "spectral_antiderivative",
                            lambda v: calls.append(v) or real(v))
        cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec), "geodesics": 8})
        for name, ic in cli._initial_conditions(cfg):
            path = trace_geodesic(cfg.metric_model, ic, cfg.grid)
            frame = solve_fundamental(path)
            _, odd = frame_terms(path, frame)
            pointwise, _ = frame_conjugated(path, frame)
            stage = normalform._symbols()
            scale = max(float(np.max(np.abs(v * path.weight))) for v in pointwise.coeffs.values())
            for key, row in zip(stage.d_keys, stage.alpha):
                got = row @ odd.view(float)[:, :path.n]
                assert np.max(np.abs(got - pointwise[key] * path.weight)) <= 1e-14 * scale, key
            d = {key: pointwise[key] * path.weight for key in ((3, 0), (2, 1))}
            calls.clear()
            q, means = solve_first_homological(path, d)
            assert len(calls) == len(q) == 2
            for m, n in ((0, 3), (1, 2)):
                assert means[m, n] == np.conj(means[n, m]), (spec, name)
                assert abs(means[m, n] - path.mean(pointwise[m, n])) <= 1e-15 * scale

    def test_unpaired_entries_take_their_own_antiderivative(self, cubic_path, monkeypatch):
        """An entry given beside its mirror is integrated by itself: 4
        entries take 4 antiderivatives, each equal to the per-entry route.
        Given the first entry of each pair, d takes 2, and the means of the
        other two are their conjugates."""
        import oracles

        wave = np.exp(1j * cubic_path.s)    # mean-free along the closed path
        entries = {(3, 0): wave + 1e-9, (0, 3): np.conj(wave + 1e-9),
                   (2, 1): 0.5j * wave ** 2, (1, 2): np.conj(0.5j * wave ** 2)}
        hermitian = {k: v * cubic_path.weight for k, v in entries.items()}
        real = oracles.spectral_antiderivative
        calls = []
        monkeypatch.setattr(oracles, "spectral_antiderivative",
                            lambda v: calls.append(v) or real(v))
        q, means = solve_first_homological(cubic_path, hermitian)
        assert len(calls) == len(q) == 4
        for key, v in hermitian.items():
            own = real((v - means[key] * cubic_path.weight) * (-1.0 / 2.0))
            assert np.array_equal(q[key], own), key
        calls.clear()
        firsts = {k: hermitian[k] for k in ((3, 0), (2, 1))}
        q, paired = solve_first_homological(cubic_path, firsts)
        assert len(calls) == len(q) == 2
        assert paired == means


class TestCommutatorDoubleIntegral:
    def test_zero_and_round(self, round_frame):
        out = commutator_double_integral(round_frame.path, d_half(round_frame))
        worst = max((abs(v) for v in out.coeffs.values()), default=0.0)
        assert worst < 1e-14

    def test_no_action_term(self, cubic_frame):
        out = commutator_double_integral(cubic_frame.path, d_half(cubic_frame))
        assert abs(out[(1, 1)]) < 1e-12

    def test_random_degree3_has_no_action_term(self, cubic_path):
        rng = np.random.default_rng(3)
        n = cubic_path.n
        d = PolySymbol({(m, 3 - m): rng.standard_normal(n) + 1j * rng.standard_normal(n)
                        for m in range(4)})
        out = commutator_double_integral(cubic_path, d)
        assert abs(out[(1, 1)]) < 1e-12


class TestMeanFreeTerms:
    def test_oscillator_derivative_term_averages_out(self, generic_ic):
        """The i d_s(h) piece of the D_s^2 conjugation is a total derivative:
        every entry's mean vanishes (term (iv) of the order-zero symbol).
        The closed-form dh/ds = tau_s (image of y^2)/2, framed exactly and
        evaluated on the path as the engine's stage 1 is, equals the FFT
        derivative of the evaluated h, (1/f) d/d(theta), to 1e-10 of its
        scale, on h = 0.3 (x^3 - x) and h = 0.2 x - 0.5 x^3 + 0.3 x^5."""
        from zollforms.expansion import (TAU_S, QQi, _frame_formal, formal_oscillator,
                                         graded_laplacian)
        from oracles import evaluate, evaluation_plan, path_values
        from zollforms.surface import MetricModel

        _, h = formal_oscillator(graded_laplacian())
        exact = [h.scale(QQi(-1)),
                 *_frame_formal([PolySymbol({(2, 0): TAU_S * QQi(Fraction(-1, 2))})])]
        plan = evaluation_plan(exact)
        for h_odd in ((-0.3, 0.3), (0.2, -0.5, 0.3)):
            path = trace_geodesic(MetricModel.zoll_revolution(h_odd), generic_ic, 1024)
            frame = solve_fundamental(path)
            minus_h, minus_h_s = evaluate(plan, path_values(path, frame))
            assert set(minus_h_s.coeffs) == set(minus_h.coeffs)
            scale = max(float(np.max(np.abs(v))) for v in minus_h_s.coeffs.values())
            for key, v in minus_h_s.coeffs.items():
                assert np.max(np.abs(v - ds(path, minus_h[key]))) <= 1e-10 * scale, key
            worst = max(abs(complex(path.mean(v))) for v in minus_h_s.coeffs.values())
            assert worst < 1e-8

    def test_tau_s_quadratic_means_vanish(self, cubic_path, cubic_frame):
        """int tau_s Y^a Ybar^b = 0 for a + b = 2 on Zoll geodesics (the
        differentiated-Jacobi identity), so the tau_s y^2 jet term carries
        no diagonal or off-diagonal average."""
        Y = cubic_frame.Y
        for prod in (Y * Y, Y * np.conj(Y), np.conj(Y) * np.conj(Y)):
            val = abs(complex(cubic_path.mean(cubic_path.tau_s * prod)))
            assert val < 1e-8


class TestEngineAgainstExplicitRoute:
    def test_dual_route_agreement(self, cubic_path, cubic_frame):
        """Generic conjugation engine == closed-form route + commutator term.

        This also pins the commutator prefactor -i/4 used by the constants
        report against the machine conjugation.
        """
        m_engine, _ = conjugated_order_zero(cubic_path, cubic_frame)
        explicit = field_mean(cubic_path, d_zero_restricted(cubic_frame)) \
            + commutator_double_integral(cubic_path, d_half(cubic_frame))
        for k in set(m_engine) | set(explicit.coeffs):
            assert abs(complex(m_engine.get(k, 0)) - complex(explicit[k])) < 1e-12, k

    def test_small_mean_reads_as_the_obstruction(self, cubic_path, cubic_frame, monkeypatch):
        """A mean of 1e-8 added to the odd term (above the antiderivative's
        zeroing threshold, below MEAN_TOL) reads in first_obstruction_max,
        and the averaged symbol moves by no more than the shift allows:
        8e-8 f added to the y2^3 density moves entry (2, 1), the largest,
        by 1/8 of it.
        What the conjugation leaves at weight -1/2 is exactly the means
        (`TestExactStage2`), so no residual is left to report beside them."""
        from zollforms import normalform

        clean, _ = conjugated_order_zero(cubic_path, cubic_frame)
        real = normalform.frame_terms

        def shifted(path, frame):
            d0, odd = real(path, frame)
            odd.view(float)[3, :path.n] += 8e-8 * path.weight
            return d0, odd

        monkeypatch.setattr(normalform, "frame_terms", shifted)
        means, first_obstruction = conjugated_order_zero(cubic_path, cubic_frame)
        assert abs(first_obstruction - 1e-8) <= 1e-15
        assert means.keys() == clean.keys()
        assert max(abs(means[k] - clean[k]) for k in means) <= 1e-7

    def test_stage_one_equals_closed_form_terms(self, cubic_path, cubic_frame):
        """The stage 1 symbols, evaluated term by term, carry the
        closed-form pieces pointwise: the D_s-free weight 0 part is
        d_zero_restricted and the weight -1/2 part is d_half; the weight -1
        operator is c_s D_s."""
        d, d0 = frame_conjugated(cubic_path, cubic_frame)
        assert_frame_cancels()
        for got, ref in ((d0, d_zero_restricted(cubic_frame)), (d, d_half(cubic_frame))):
            scale = max(float(np.max(np.abs(v))) for v in ref.coeffs.values())
            for k in set(got.coeffs) | set(ref.coeffs):
                diff = np.asarray(got[k]) - np.asarray(ref[k])
                assert np.max(np.abs(diff)) <= 1e-12 * scale, k

    def test_round_sphere_exact_mean(self, round_path, round_frame):
        means, _ = conjugated_order_zero(round_path, round_frame)
        assert abs(means[(0, 0)] - (-0.25)) < 1e-9
        assert abs(means[(2, 2)]) < 1e-10
        assert abs(means[(1, 1)]) < 1e-10


class TestAssembleP1:
    def test_round_sphere_mdl(self, round_metric):
        recs = []
        for ic in sample_initial_conditions(3, seed=2):
            path = trace_geodesic(round_metric, ic, 1024)
            frame = solve_fundamental(path)
            recs.append(assemble_p1(round_metric, ic, path=path, frame=frame))
            means, _ = conjugated_order_zero(path, frame)
            assert means[(0, 0)].imag == 0.0 and means[(2, 2)].imag == 0.0
        for rec in recs:
            assert abs(rec.c2) < 1e-7
            assert rec.c01 < 1e-9
        c0s = [rec.c0 for rec in recs]
        assert max(c0s) - min(c0s) < 1e-9
        assert all(abs(rec.c0 + 0.125) < 1e-9 for rec in recs)

    def test_zoll_offdiagonal_vanishing(self, cubic_metric, generic_ic,
                                        cubic_path, cubic_frame):
        rec = assemble_p1(cubic_metric, generic_ic, path=cubic_path,
                          frame=cubic_frame)
        assert rec.offdiag_max < 1e-6
        assert rec.first_obstruction_max < 1e-6
        assert rec.c01 < 1e-9
        # stage 2 adds to the diagonal in exact conjugate pairs
        means, _ = conjugated_order_zero(cubic_path, cubic_frame)
        assert means[(0, 0)].imag == 0.0 and means[(2, 2)].imag == 0.0

    def test_isometry_invariance(self, cubic_metric, generic_ic):
        p0, v0 = generic_ic
        rec_a = assemble_p1(cubic_metric, generic_ic, 1024)
        rec_b = assemble_p1(cubic_metric, (SurfacePoint.north(p0.r, p0.phi + 1.9), v0), 1024)
        assert abs(rec_a.c0 - rec_b.c0) < 1e-8
        assert abs(rec_a.c2 - rec_b.c2) < 1e-8
        assert abs(rec_a.H_b - rec_b.H_b) < 1e-8
        assert abs(rec_a.offdiag_max - rec_b.offdiag_max) < 1e-7

    def test_base_point_invariance(self, cubic_metric, cubic_path_2048):
        path = cubic_path_2048
        frame = solve_fundamental(path)
        rec_a = assemble_p1(cubic_metric, path.init, path=path, frame=frame)
        shifted = rebase(path, 777)
        frame_b = solve_fundamental(shifted)
        rec_b = assemble_p1(cubic_metric, shifted.init, path=shifted, frame=frame_b)
        assert abs(rec_a.c0 - rec_b.c0) < 1e-7
        assert abs(rec_a.c2 - rec_b.c2) < 1e-7
        assert abs(rec_a.offdiag_max - rec_b.offdiag_max) < 1e-7
        # H reads the open factor of the cluster-shift integrand as y = u,
        # the reading that is base-point invariant
        assert abs(rec_a.H_b - rec_b.H_b) < 1e-7

    def test_non_zoll_raises_first_obstruction(self, nonzoll_metric, nonzoll_path):
        frame = solve_fundamental(nonzoll_path)
        with pytest.raises(FirstObstructionError):
            assemble_p1(nonzoll_metric, nonzoll_path.init,
                        path=nonzoll_path, frame=frame)


class TestNanPropagates:
    """A NaN anywhere in what a maximum reads makes the maximum NaN (JSON
    null), also where it is not the first value: Python's max drops it."""

    def test_offdiag_max(self, round_path, round_frame):
        from dataclasses import replace

        rec = assemble_p1(round_path.metric, round_path.init, round_path.n,
                          path=round_path, frame=round_frame)
        last = list(rec.offdiag)[-1]
        assert math.isnan(replace(rec, offdiag={**rec.offdiag, last: complex(math.nan)}).offdiag_max)


class TestComputeH:
    def test_round_sphere(self, round_path, round_frame):
        assert abs(compute_H(round_path, round_frame)[0] - 2.0 * math.pi) < 1e-10

    def test_grid_doubling_stability(self, cubic_frame, cubic_frame_2048):
        """H moves < 1e-8 from N = 1024 to 2048.  Sampled uniformly in
        theta, the invariants at N = 256 and 2048 agree to 1e-12 on the
        first 8 geodesics of the CLI sample of five profiles (measured:
        <= 3.6e-15 on H, <= 6e-17 on the rest)."""
        from zollforms import cli

        a, _ = compute_H(cubic_frame.path, cubic_frame)
        b, _ = compute_H(cubic_frame_2048.path, cubic_frame_2048)
        assert abs(a - b) < 1e-8
        for spec in ("zoll:-0.3,0.3", "zoll:0.1", "zoll:0.2,-0.5,0.3", "zoll:0.6,-0.2",
                     "zoll:-0.309,0.294"):
            cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec),
                                            "geodesics": 8})
            for name, ic in cli._initial_conditions(cfg):
                coarse, fine = (assemble_p1(cfg.metric_model, ic, n) for n in (256, 2048))
                for key in ("c0", "c01", "c2", "H_b", "offdiag_max"):
                    gap = abs(getattr(coarse, key) - getattr(fine, key))
                    assert gap <= 1e-12, (spec, name, key, gap)

    def test_meridian_readings_coincide(self, cubic_metric, meridian_ic):
        # tau_nu vanishes along meridians: H reduces to int tau
        path = trace_geodesic(cubic_metric, meridian_ic, 1024)
        frame = solve_fundamental(path)
        base = 2.0 * math.pi * path.mean(path.tau)
        assert abs(compute_H(path, frame)[0] - base) < 1e-12


class TestClusterShiftRelation:
    """c0 = -H / (16 pi): the engine's order-zero symbol (two conjugations,
    then an average) against the cluster-shift integral H, which shares
    only the traced path and frame with it.

    Over these profiles, starts and grids, and over 20 further seeded
    starts at N = 256 and 2048, |c0 + H / (16 pi)| stayed below
    1.4e-13, i.e. below 1.2e-12 |c0|; the tolerance is ten times that.
    """

    @pytest.mark.parametrize("n", [256, 2048, 32768])
    @pytest.mark.parametrize("h_odd", [(-0.3, 0.3), (0.1,), (0.2, -0.5, 0.3)],
                             ids=["cubic", "cone", "quintic"])
    def test_c0_is_minus_H_over_16pi(self, h_odd, n):
        from zollforms.geodesic import canonical_initial_conditions
        from zollforms.surface import MetricModel

        metric = MetricModel.zoll_revolution(h_odd)
        starts = [ic for _, ic in canonical_initial_conditions()]
        starts += sample_initial_conditions(3, seed=5)
        for ic in starts:
            rec = assemble_p1(metric, ic, n)
            assert abs(rec.c0 + rec.H_b / (16.0 * math.pi)) <= 1e-11 * abs(rec.c0)


class TestEquatorValue:
    """On the equator u = 0: f = 1, tau = K(0) = 1, the Jacobi solutions are
    cos s and sin s, and tau_nu = K'(0) = -3 h'(0) is constant.  By hand,
    `compute_H` is then 2 pi + 9 h'(0)^2 (-13 pi / 72 - pi / 24)
    = 2 pi (1 - h'(0)^2), so c0 = -H / (16 pi) = (h'(0)^2 - 1) / 8: the
    profile's first odd coefficient alone decides it, on cone profiles
    too.  The expected value shares no code with the engine."""

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("h_odd", [(-0.3, 0.3), (0.1,), (0.2, -0.5, 0.3), (0.6, -0.2),
                                       (-0.45,)])
    def test_c0_from_the_first_coefficient(self, equator_ic, h_odd, n):
        from zollforms.surface import MetricModel

        rec = assemble_p1(MetricModel.zoll_revolution(h_odd), equator_ic, n)
        assert abs(rec.c0 - (h_odd[0] ** 2 - 1.0) / 8.0) <= 1e-11


def _jet(sym, order):
    """(sym, d sym/ds, ...) up to `order`, by the formal d/ds of the jets."""
    jet = [sym]
    for _ in range(order):
        jet.append(jet[-1].map_coeffs(lambda v: v.s_derivative()))
    return jet


def _exact_symbol(rng, degrees=(0, 2, 3)):
    """Random symbol whose entries are jet polynomials a + b tau, with
    Gaussian rational coefficients."""
    from zollforms.expansion import TAU, JetPolynomial, QQi

    def rational():
        return QQi(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                   Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))

    return PolySymbol({(m, d - m): JetPolynomial.const(rational()) + TAU * rational()
                       for d in degrees for m in range(d + 1)})


def _assert_operators_equal(got, ref):
    """Every D_s part and entry of `got` equals that of `ref`, exactly."""
    assert {k: sym.coeffs for k, sym in got.terms.items()} == \
        {k: sym.coeffs for k, sym in ref.terms.items()}


class TestSOperatorCommutator:
    def test_ds_free_left_equals_compose_difference(self):
        """[Op(a), B] through the odd-only star commutator plus the d_s^l a
        terms equals Op(a) o B - B o Op(a), exactly, for B with D_s^0..D_s^2
        parts: the oracle's step of the ad-series."""
        from oracles import ad_symbol
        from zollforms.expansion import QQi

        rng = np.random.default_rng(21)
        q = _exact_symbol(rng, (3,))
        q_jet = _jet(q, 2)
        a = SOperator({0: q})
        b = SOperator({k: _exact_symbol(rng) for k in range(3)})
        ab, ba = a.compose([b]), b.compose([SOperator({0: d}) for d in q_jet])
        for weight in (QQi(1), QQi(0, Fraction(-1, 2))):
            got = ad_symbol(q_jet, b, weight)
            ref = SOperator({k: (ab.ds_part(k) - ba.ds_part(k)).map_coeffs(lambda v: v * weight)
                             for k in set(ab.terms) | set(ba.terms)})
            _assert_operators_equal(got, ref)


class TestHornerRule:
    """Both conjugation series, by Horner's rule, against their term-by-term
    sums, in exact arithmetic: the shift of stage 1, and the oracle's
    ad-series of stage 2."""

    def test_ad_series_equals_term_by_term(self):
        """B_t = sum_j (-i)^j / j! ad_Q^j(ops[t - j/2]) for t = -1/2 and 0,
        on operators at every weight from -2 to 0 with D_s parts, so the
        j = 3 and 4 factors, which the engine never meets, are exercised;
        and again without weight -3/2, which must still take its step."""
        from oracles import ad_series, ad_symbol
        from zollforms.expansion import QQi, _MINUS_I_POWERS

        rng = np.random.default_rng(23)
        q_jet = _jet(_exact_symbol(rng, (3,)), 1)
        half = Fraction(1, 2)
        full = {Fraction(-2): SOperator({0: _exact_symbol(rng, (0, 2))}),
                Fraction(-3, 2): SOperator({1: _exact_symbol(rng, (1,)),
                                            0: _exact_symbol(rng, (3,))}),
                Fraction(-1): SOperator({1: PolySymbol.constant(QQi(2)),
                                         0: _exact_symbol(rng, (2,))}),
                Fraction(-1, 2): SOperator({0: _exact_symbol(rng, (3,))}),
                Fraction(0): SOperator({2: PolySymbol.constant(QQi(1)),
                                        1: _exact_symbol(rng, (2,)),
                                        0: _exact_symbol(rng, (0, 2, 4))})}
        gapped = {w: op for w, op in full.items() if w != Fraction(-3, 2)}
        for ops in (full, gapped):
            for t in (Fraction(-1, 2), Fraction(0)):
                ref = SOperator()
                for j in range(int(2 * (t + 2)) + 1):
                    term = ops.get(t - j * half, SOperator())
                    for _ in range(j):
                        term = ad_symbol(q_jet, term)
                    factor = _MINUS_I_POWERS[j % 4] * QQi(Fraction(1, math.factorial(j)))
                    ref = ref + SOperator({k: sym.map_coeffs(lambda v: v * factor)
                                           for k, sym in term.terms.items()})
                _assert_operators_equal(ad_series(q_jet, ops, t), ref)

    def test_shift_equals_sum_of_powers(self):
        """Horner's X <- X o S + Op(a_k) equals sum_k Op(a_k) S^k, with the
        powers of S = D_s - Op(h) built by compose, for D_s^0 ... D_s^3."""
        from zollforms.expansion import QQi, _shift_ds

        rng = np.random.default_rng(25)
        minus_h_jet = _jet(_exact_symbol(rng, (2,)), 3)
        shift = [SOperator({1: PolySymbol.constant(QQi(1)), 0: minus_h_jet[0]})]
        shift += [SOperator({0: d}) for d in minus_h_jet[1:]]
        op = SOperator({3: PolySymbol.constant(QQi(1, 2)), 2: _exact_symbol(rng, (0, 1)),
                        1: _exact_symbol(rng, (2,)), 0: _exact_symbol(rng, (0, 2))})
        power, ref = SOperator({0: PolySymbol.constant(QQi(1))}), SOperator()
        for k in range(4):
            ref = ref + SOperator({0: op.ds_part(k)}).compose([power])
            power = power.compose(shift)
        got = _shift_ds(op, shift)
        assert set(got.terms) == set(ref.terms) == {0, 1, 2, 3}
        _assert_operators_equal(got, ref)


class TestEnginePin:
    """The engine against the closed-form oracle on the reference Zoll metric."""

    @pytest.mark.parametrize("n", [2048, 32768])
    @pytest.mark.parametrize("start", ["equator", "meridian", "oblique"])
    def test_assemble_p1_matches_closed_form(self, cubic_metric, equator_ic, meridian_ic,
                                             generic_ic, start, n):
        ic = {"equator": equator_ic, "meridian": meridian_ic, "oblique": generic_ic}[start]
        path = trace_geodesic(cubic_metric, ic, n)
        frame = solve_fundamental(path)
        rec = assemble_p1(cubic_metric, ic, path=path, frame=frame)
        oracle = field_mean(path, d_zero_restricted(frame)) \
            + commutator_double_integral(path, d_half(frame))
        assert abs(rec.c0 - complex(oracle[(0, 0)]).real / 2.0) <= 1e-10
        assert abs(rec.c01 - abs(complex(oracle[(1, 1)])) / 2.0) <= 1e-10
        assert abs(rec.c2 - complex(oracle[(2, 2)]).real / 2.0) <= 1e-10
        for key, v in rec.offdiag.items():
            assert abs(v - complex(oracle[key]) / 2.0) <= 1e-10, key
        for key, v in oracle.coeffs.items():
            if key[0] != key[1] and sum(key) <= 4:
                assert abs(rec.offdiag.get(key, 0.0) - complex(v) / 2.0) <= 1e-10, key


def _exact_over_real_monomials():
    """(d, D0) of stage 1 over the real monomials, as the engine writes
    them: {key: `_real_monomials` of the entry}."""
    from zollforms import expansion
    from zollforms.normalform import _real_monomials

    _, d, d0 = expansion.conjugated_symbols()
    return tuple({key: _real_monomials(jp) for key, jp in sym.coeffs.items()} for sym in (d, d0))


class TestEvaluate:
    """The exact stage 1 is written over real monomials once per process; a
    path only forms the monomials and sums them into means."""

    def test_each_monomial_formed_once_per_block(self, cubic_frame, monkeypatch):
        """D0's 9 entries pair up into 6 first entries: (4, 0), (3, 1) and
        (2, 0) with their real and imaginary parts, (2, 2) and (0, 0) real
        and (1, 1) imaginary, 9 real rows over 28 monomials; d's 4 entries
        are 4 x 4 coefficients over its 4 y-cubics, all times tau_nu.  Each
        D0 monomial times f is one entry of the Gram product of 11 weight
        rows f * jet * a with 7 base rows b (1 and the 6 products of two
        rows of one Jacobi pair), picked once.  Per block of samples 24
        products form the rows, one more takes d's cubics times f tau_nu
        into the densities, and one Gram product sums the block; at
        N = 32768 that is 16 blocks.  The D0 means, and the densities
        combined by the coefficients, equal the term-by-term route to
        roundoff."""
        from collections import Counter
        from zollforms import normalform
        from zollforms.surface import MetricModel

        stage = normalform._symbols()
        d_exact, d0_exact = _exact_over_real_monomials()
        firsts = [key for key, _ in stage.d0_parts]
        assert sorted(set(firsts), key=firsts.index) == [(4, 0), (3, 1), (2, 0), (2, 2),
                                                           (1, 1), (0, 0)]
        assert stage.d0_parts[6:] == (((2, 2), 1), ((1, 1), 1j), ((0, 0), 1))
        d0_monomials = {m for key in set(firsts) for m in d0_exact[key][1]}
        d_monomials = {m for key in stage.d_keys for m in d_exact[key][1]}
        assert set(stage.d0_monomials) == d0_monomials and len(d0_monomials) == 28
        assert len(d_monomials) == 4 and all(dict(m)["tau_nu"] == 1 for m in d_monomials)
        assert (stage.d0_coeffs.shape, stage.alpha.shape) == ((9, 28), (4, 4))
        assert stage.gram == (11, 7) and len(stage.steps) == 24
        assert len(set(stage.picks)) == 28 and max(stage.picks) < 11 * 7

        path = trace_geodesic(MetricModel.zoll_revolution([-0.3, 0.3]), cubic_frame.path.init,
                              32768)
        frame = solve_fundamental(path)
        calls = Counter()
        for name in ("multiply", "matmul"):
            def counting(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls[_name, np.shape(args[0]) if _name == "matmul" else None] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, counting)
        d0, d = frame_terms(path, frame)
        monkeypatch.undo()
        blocks = path.n // normalform.BLOCK
        assert blocks == 16
        assert calls == Counter({("multiply", None): 25 * blocks, ("matmul", (11, 2048)): blocks})

        pointwise_d, pointwise_d0 = frame_conjugated(path, frame)
        want = field_mean(path, pointwise_d0)
        assert set(d0) == set(want.coeffs)
        for key in want.coeffs:
            assert abs(d0[key] - want[key]) <= 1e-15, key
        for key, row in zip(stage.d_keys, stage.alpha):
            ref = pointwise_d[key] * path.weight
            got = row @ d.view(float)[:, :path.n]
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), key

    def test_real_coefficients_stay_real(self):
        """The pointwise route: real coefficients evaluate to float64 on
        real samples, any other to complex128; a constant polynomial stays
        a Python scalar."""
        from oracles import evaluate, evaluation_plan
        from zollforms.expansion import TAU, TAU_NU, JetPolynomial, QQi

        rng = np.random.default_rng(8)
        vals = {"tau": rng.standard_normal(8), "tau_nu": rng.standard_normal(8)}
        real = TAU * TAU * QQi(Fraction(2, 3)) + TAU_NU * QQi(Fraction(1, 12))
        mixed = real + TAU * JetPolynomial.const(QQi(0, 1))
        sym = PolySymbol({(0, 0): real, (1, 0): mixed, (0, 1): JetPolynomial.const(2),
                          (1, 1): JetPolynomial.const(QQi(1, 1))})
        [got] = evaluate(evaluation_plan([sym]), vals)
        assert got[0, 0].dtype == np.float64 and got[1, 0].dtype == np.complex128
        expected = (2 / 3) * vals["tau"] ** 2 + vals["tau_nu"] / 12
        assert np.max(np.abs(got[0, 0] - expected)) <= 1e-15
        assert np.max(np.abs(got[1, 0] - (expected + 1j * vals["tau"]))) <= 1e-15
        assert type(got[0, 1]) is float
        assert type(got[1, 1]) is complex

    def test_built_once_per_process(self, cubic_path, cubic_frame, round_path, round_frame):
        """The stage is built once; and from cold caches, the constants
        table and one geodesic through the engine derive the exact stage 1,
        the stage 2 weights and the engine's stage once, the table's
        integrand being the engine's own |z|^4 entry of D0."""
        from zollforms import expansion, normalform

        frame_terms(cubic_path, cubic_frame)
        before = normalform._symbols.cache_info()
        frame_terms(round_path, round_frame)
        conjugated_order_zero(cubic_path, cubic_frame)
        after = normalform._symbols.cache_info()
        assert (after.misses, after.currsize) == (before.misses, 1)
        # frame_terms once; the engine call itself, its frame_terms and its
        # first_obstruction_means once each
        assert after.hits == before.hits + 4

        for cached in (expansion.conjugated_symbols, expansion.stage2_weights,
                       normalform._symbols):
            cached.cache_clear()
        expansion.constants_report()
        assemble_p1(cubic_path.metric, cubic_path.init, cubic_path.n,
                    path=cubic_path, frame=cubic_frame)
        for cached in (expansion.conjugated_symbols, expansion.stage2_weights,
                       normalform._symbols):
            info = cached.cache_info()
            assert (info.misses, info.currsize) == (1, 1)
        _, _, d0 = expansion.conjugated_symbols()
        assert expansion.derive_normal_form_integrands()["z4"] is d0.coeffs[2, 2]


class TestRealMonomials:
    """The exact map of stage 1 over the real Jacobi rows, and the D0 means
    read through it."""

    def test_map_recontracts_to_the_exact_symbols(self):
        """Every entry of d and D0, written over real monomials in
        y1, y2, dy1, dy2, gives back the entry term for term in QQi when
        y2 = (Y + Yb)/2, y1 = (Y - Yb)/(2i) and likewise for dy1, dy2; and
        each entry (m, n) is its sign times the conjugate of entry (n, m),
        the sign the engine unfolds the means of mirrored entries by; for
        d, a real symbol, the sign is + throughout."""
        from zollforms import expansion, normalform
        from zollforms.expansion import JetPolynomial, QQi

        half, var = QQi(Fraction(1, 2)), JetPolynomial.var
        back = {"y2": (var("Y") + var("Yb")) * half, "y1": (var("Y") - var("Yb")) * QQi(0, -half.re),
                "dy2": (var("dY") + var("dYb")) * half,
                "dy1": (var("dY") - var("dYb")) * QQi(0, -half.re)}
        _, d, d0 = expansion.conjugated_symbols()
        for sym, exact in zip((d, d0), _exact_over_real_monomials()):
            assert list(exact) == list(sym.coeffs)
            for key, (scale, terms) in exact.items():
                total = JetPolynomial()
                for mono, (re, im) in terms.items():
                    term = JetPolynomial.const(QQi(Fraction(re, scale), Fraction(im, scale)))
                    for name, p in mono:
                        for _ in range(p):
                            term = term * back.get(name, var(name))
                    total = total + term
                assert total == sym.coeffs[key], key
        stage = normalform._symbols()
        for exact, mirrors in zip(_exact_over_real_monomials(),
                                  (tuple((key, 1) for key in d.coeffs), stage.d0_mirrors)):
            for (m, n), sign in mirrors:
                scale, terms = exact[n, m]
                assert exact[m, n] == (scale, {mono: (sign * re, -sign * im)
                                               for mono, (re, im) in terms.items()}), (m, n)

    def test_a_broken_mirror_pair_raises(self, monkeypatch):
        """Each mirrored entry is checked once, exactly, against +- the
        conjugate of its first entry, and stage 2's exact table must pair
        its entries as D0 does: a D0 whose (0, 4) entry is not, or an odd
        term times 1 + i, whose stage 2 is i times the real one's and so
        pairs each entry with minus the conjugate of its mirror, raises
        when the stage is built."""
        from zollforms import expansion, normalform
        from zollforms.expansion import TAU, QQi

        c_s, d, d0 = expansion.conjugated_symbols()
        broken_d0 = PolySymbol({**d0.coeffs, (0, 4): d0.coeffs[0, 4] + TAU * QQi(0, 1)})
        turned_d = PolySymbol({k: v * QQi(1, 1) for k, v in d.coeffs.items()})
        for symbols, match in (((c_s, d, broken_d0), "entry \\(0, 4\\)"),
                               ((c_s, turned_d, d0), "does not pair as D0's")):
            monkeypatch.setattr(expansion, "conjugated_symbols", lambda: symbols)
            with pytest.raises(AssertionError, match=match):
                normalform._symbols.__wrapped__()

    @pytest.mark.parametrize("case", ["cubic", "round", "zoll:-0.99-256", "zoll:-0.99-2048"])
    def test_d0_means_match_the_pointwise_route(self, cubic_path, cubic_frame, round_path,
                                                round_frame, case):
        """The D0 means from the Gram sums equal the means of the
        term-by-term evaluation to 1e-13 of the largest of them, on every
        first 8 CLI geodesic of zoll:-0.99, where the terms reach about
        1e3 and cancel (measured: <= 3.4e-14 relative; <= 1e-15 when the
        terms cancelled sample by sample)."""
        from zollforms import cli

        if case == "cubic":
            frames = [cubic_frame]
        elif case == "round":
            frames = [round_frame]
        else:
            spec, n = case.rsplit("-", 1)
            cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec), "geodesics": 8})
            frames = [solve_fundamental(trace_geodesic(cfg.metric_model, ic, int(n)))
                      for _, ic in cli._initial_conditions(cfg)]
        for frame in frames:
            got, _ = frame_terms(frame.path, frame)
            want = field_mean(frame.path, frame_conjugated(frame.path, frame)[1])
            scale = max(abs(v) for v in want.coeffs.values())
            for key in set(got) | set(want.coeffs):
                assert abs(got.get(key, 0) - want[key]) <= 1e-13 * scale, key

    def test_a_nan_sample_makes_every_d0_mean_nan(self, cubic_path, cubic_frame):
        """A NaN at one sample of any input row (the weight, each jet, each
        Jacobi row) reaches every mean of D0 that the row feeds, and every
        density of the odd term that it feeds.  D0 reads every row but
        tau_nu, and the coefficient rows combine the Gram sums by a matrix
        product, so all 9 means are NaN; d reads f and tau_nu in every
        density and y1 and y2 in those of the cubics that hold them.  No
        record passes: where d is NaN the first obstruction gate refuses
        the geodesic, and elsewhere c0 is NaN, so h_relation fails its
        gate."""
        from dataclasses import replace
        from zollforms.cli import H_RELATION_TOL

        for name in ("weight", "tau", "tau_s", "tau_nu", "tau_nunu", "y1", "y2", "dy1", "dy2"):
            on_frame = name in ("y1", "y2", "dy1", "dy2")
            row = getattr(cubic_frame if on_frame else cubic_path, name).copy()
            row[cubic_path.n // 3] = math.nan
            path = cubic_path if on_frame else replace(cubic_path, **{name: row})
            frame = replace(cubic_frame, **{name: row}) if on_frame else cubic_frame
            d0, d = frame_terms(path, frame)
            assert len(d0) == 9
            assert [bool(np.isnan(v)) for v in d0.values()] == [name != "tau_nu"] * 9, name
            feeds_d = name in ("weight", "tau_nu", "y1", "y2")
            # the densities of y1 y2^2, y1^2 y2, y1^3, y2^3
            feeds = {"y1": [True] * 3 + [False], "y2": [True, True, False, True]}.get(
                name, [feeds_d] * 4)
            assert list(np.isnan(d.view(float)[:, :path.n]).any(axis=1)) == feeds, name
            if feeds_d:
                with pytest.raises(FirstObstructionError):
                    assemble_p1(path.metric, path.init, path.n, path=path, frame=frame)
            else:
                rec = assemble_p1(path.metric, path.init, path.n, path=path, frame=frame)
                assert math.isnan(rec.c0) and not rec.h_relation <= H_RELATION_TOL, name

    def test_a_monomial_the_gram_plan_cannot_split_raises(self, monkeypatch):
        """The Gram plan is derived from the exact monomials: a D0 term
        tau y2, of odd degree in the rows, is no jet times two halves,
        and an odd term with a tau y-cubic beside its tau_nu ones is not
        one jet times products of rows; either raises when the stage is
        built."""
        from zollforms import expansion, normalform
        from zollforms.expansion import TAU, JetPolynomial

        c_s, d, d0 = expansion.conjugated_symbols()
        Y, Yb = JetPolynomial.var("Y"), JetPolynomial.var("Yb")
        odd_d0 = PolySymbol({**d0.coeffs, (0, 0): d0.coeffs[0, 0] + TAU * (Y + Yb)})
        two_jets = PolySymbol({**d.coeffs, (3, 0): d.coeffs[3, 0] + TAU * Y * Y * Y,
                               (0, 3): d.coeffs[0, 3] + TAU * Yb * Yb * Yb})
        for symbols, match in (((c_s, d, odd_d0), "no jet times two halves"),
                               ((c_s, two_jets, d0), "not one jet")):
            monkeypatch.setattr(expansion, "conjugated_symbols", lambda: symbols)
            with pytest.raises(AssertionError, match=match):
                normalform._symbols.__wrapped__()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("spec", ["zoll:-0.99", "zoll:-0.999", "zoll:-2.4733,2.4733"])
    def test_d0_means_against_extended_precision(self, spec):
        """Each D0 part, summed monomial by monomial through the Gram
        product and combined after, is within 4 eps of its term scale of
        the same exact monomials on the same samples in np.longdouble; the
        term scale is sum |c| <|f m|> over the part's coefficients c and
        monomials m.  c0 moves by under 1e-10 of itself.  On the first 8
        CLI geodesics at N = 2048 (x86-64, 80-bit long double) the largest
        error read 1.01, 1.09 and 1.51 eps of the term scale, and c0's
        2.0e-14, 1.4e-13 and 6.0e-12 relative, against 0.38, 0.59 and 0.69
        eps and 1.0e-14, 9.9e-14 and 7.8e-13 for the sample-by-sample sum
        that the Gram product replaced."""
        from zollforms import cli, normalform

        eps = np.finfo(float).eps
        stage = normalform._symbols()
        _, d0_exact = _exact_over_real_monomials()
        cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec), "geodesics": 8})
        for name, ic in cli._initial_conditions(cfg):
            path = trace_geodesic(cfg.metric_model, ic, 2048)
            frame = solve_fundamental(path)
            got, _ = frame_terms(path, frame)
            values = {row: getattr(frame, row).astype(np.longdouble)
                      for row in ("y1", "y2", "dy1", "dy2")}
            values.update({jet: getattr(path, jet).astype(np.longdouble)
                           for jet in ("tau", "tau_s", "tau_nu", "tau_nunu")})
            sums, sizes = {}, {}
            for mono in stage.d0_monomials:
                x = path.weight.astype(np.longdouble)
                for factor, p in mono:
                    x = x * values[factor] ** p
                sums[mono], sizes[mono] = np.mean(x), np.mean(np.abs(x))
            for key, unit in stage.d0_parts:
                scale, terms = d0_exact[key]
                coeffs = {m: np.longdouble(c[0 if unit == 1 else 1]) / scale
                          for m, c in terms.items()}
                want = sum(c * sums[m] for m, c in coeffs.items())
                size = sum(abs(c) * sizes[m] for m, c in coeffs.items())
                value = got[key].real if unit == 1 else got[key].imag
                error = abs(np.longdouble(value) - want)
                assert error <= 4 * eps * size, (name, key, float(error / size / eps))
                if key == (0, 0):
                    c0 = conjugated_order_zero(path, frame)[0][0, 0].real / 2.0
                    assert error / 2.0 <= 1e-10 * abs(c0), (name, float(error / 2.0 / abs(c0)))

    def test_meridian_takes_no_stage_2(self, cubic_metric, monkeypatch):
        """On the canonical meridian tau_nu = 0, so the odd term is exactly
        0: an engine call takes no transform and no antiderivative
        spectrum, and the record is the D0 means of the term-by-term route,
        to 1e-15."""
        from zollforms import normalform, surface
        from zollforms.geodesic import canonical_initial_conditions

        ic = dict(canonical_initial_conditions())["meridian"]
        path = trace_geodesic(cubic_metric, ic, 2048)
        frame = solve_fundamental(path)
        normalform._symbols()
        calls = []
        for owner, name in ((surface, "spectral_antiderivative"), (np.fft, "fft"),
                            (np.fft, "rfft"), (normalform, "antiderivative_spectrum")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *v, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*v, **k))
        rec = assemble_p1(cubic_metric, ic, path=path, frame=frame)
        # compute_H's, none of the engine's
        assert calls == ["spectral_antiderivative", "rfft"] * 2
        assert rec.first_obstruction_max == 0.0
        want = field_mean(path, frame_conjugated(path, frame)[1])
        assert abs(rec.c0 - want[0, 0].real / 2.0) <= 1e-15
        assert abs(rec.c2 - want[2, 2].real / 2.0) <= 1e-15
        assert abs(rec.c01 - abs(want[1, 1]) / 2.0) <= 1e-15
        for key, v in rec.offdiag.items():
            assert abs(v - want[key] / 2.0) <= 1e-15, key

    def test_one_engine_call_holds_few_grid_arrays(self, cubic_metric, generic_ic):
        """Traced by tracemalloc, one engine call at N = 32768 peaks below
        3.1 complex grid arrays (16 N bytes each): the Gram rows live one
        block at a time, D0 is never held as sampled entries, the four
        cubic densities are transformed in place, one row at a time at
        this N, Q is never sampled, and one antiderivative spectrum, half
        a grid array, is alive at a time (measured: 3.05, set by
        frame_terms, and 3.26 while stage 2 cast the means of the
        densities in a buffered product; 5.0 when stage 2 took the
        complex entries of d, 5.3 when the blocks held every monomial, 6.5
        with Q sampled, and 18.5 when D0 was evaluated entry by entry)."""
        import tracemalloc

        n = 32768
        path = trace_geodesic(cubic_metric, generic_ic, n)
        frame = solve_fundamental(path)
        conjugated_order_zero(path, frame)    # the per-process stage, and the FFT plans
        tracemalloc.start()
        try:
            conjugated_order_zero(path, frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 16 * n, peak / (16 * n)


class TestSubstitutionCount:
    def test_each_monomial_substituted_once(self, cubic_path, cubic_frame, monkeypatch):
        """The frame image of each (y, eta) monomial is built once per
        process, in the exact stage 1, and the commutator weights of stage
        2 are taken once per process too, so an engine call forms no symbol
        product and no star product or commutator."""
        from collections import Counter
        from oracles import degree
        from zollforms import weyl

        conjugated_order_zero(cubic_path, cubic_frame)   # the exact stages, once per process
        built = Counter()
        real = weyl.PolySymbol.__mul__

        def counting(a, b):
            if isinstance(b, weyl.PolySymbol):
                built[(degree(a), degree(b))] += 1
            return real(a, b)

        monkeypatch.setattr(weyl.PolySymbol, "__mul__", counting)
        monkeypatch.setattr(weyl, "_moyal", lambda *args: built.update(["star"]))
        conjugated_order_zero(cubic_path, cubic_frame)
        assert built == Counter()

    def test_spectral_calls(self, cubic_metric, generic_ic, meridian_ic, monkeypatch):
        """One engine call takes no spectral derivative, no antiderivative
        and no grid mean: dh/ds is closed form, and Q is read only through
        its spectrum.  At N = 1024 it takes the antiderivative spectra of
        all 4 cubic densities of the odd term in one call, which sums each
        row's modes once for its offset, and pairs them with the densities
        and the weight by products of float views.  D0 is summed by Gram
        products, with no np.sum.
        On the meridian the odd term is exactly 0 and stage 2 takes none of
        them.  No call forms a star product or commutator: stage 1 and the
        commutator weights of stage 2 are taken once per process, in exact
        arithmetic."""
        from collections import Counter
        from zollforms import fourier, normalform, surface, weyl

        calls = Counter()

        def count(owner, name, key):
            def counting(*args, _real=getattr(owner, name), **kwargs):
                calls[key] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)

        frames = [solve_fundamental(trace_geodesic(cubic_metric, ic, 1024))
                  for ic in (generic_ic, meridian_ic)]
        conjugated_order_zero(frames[0].path, frames[0])   # the exact stages, once per process
        count(surface, "spectral_antiderivative", "spectral_antiderivative")
        count(normalform, "antiderivative_spectrum", "antiderivative_spectrum")
        count(np, "mean", "mean")
        count(np, "sum", "sums")
        count(weyl, "_moyal", "star")
        for frame, want in zip(frames, (Counter(antiderivative_spectrum=1, sums=1), Counter())):
            calls.clear()
            conjugated_order_zero(frame.path, frame)
            assert calls == want, calls
        assert not any(hasattr(module, "spectral_derivative")
                       for module in (fourier, normalform, surface))

    def test_fft_calls(self, cubic_path, cubic_frame, monkeypatch):
        """One assemble_p1 takes no complex FFT.  The engine transforms
        the 4 cubic densities of the odd term forward in one real
        transform of 4 rows (at N = 1024 one step takes them all) and the
        weight in one more, and no inverse; compute_H takes 2 real pairs
        (its inner integrals)."""
        from collections import Counter

        calls = Counter()     # (transform, rows) per call
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counting(a, *args, _real=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name, 1 if np.ndim(a) == 1 else len(a)] += 1
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        assemble_p1(cubic_path.metric, cubic_path.init, cubic_path.n,
                    path=cubic_path, frame=cubic_frame)
        assert calls == Counter({("rfft", 4): 1, ("rfft", 1): 1 + 2, ("irfft", 1): 2})


class TestSpectralStage2:
    """The engine reads Q only through its spectrum; the reference route
    samples Q (`oracles.order_zero_by_q`)."""

    @pytest.mark.parametrize("n", [256, 2048, 32768])
    @pytest.mark.parametrize("spec", ["zoll:-0.3,0.3", "zoll:0.1", "zoll:0.2,-0.5,0.3",
                                      "zoll:-0.9", "zoll:-0.99", "zoll:-0.999", "round"])
    def test_matches_the_q_route(self, spec, n, monkeypatch):
        """On the 8 CLI geodesics every invariant of the record, over the
        same offdiag keys, equals the one the sampled-Q route gives, to 1e-11 of max(1, |value|)
        (measured: <= 1.5e-12, on zoll:-0.999), and a geodesic one route
        refuses at the first obstruction gate the other refuses too, on
        the same entry."""
        from zollforms import cli, normalform

        cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag(spec), "geodesics": 8})
        for name, ic in cli._initial_conditions(cfg):
            path = trace_geodesic(cfg.metric_model, ic, n, enforce_closure=False)
            frame = solve_fundamental(path)
            records = []
            for route in (normalform.conjugated_order_zero, order_zero_by_q):
                monkeypatch.setattr(normalform, "conjugated_order_zero", route)
                try:
                    records.append(assemble_p1(cfg.metric_model, ic, n, path=path, frame=frame))
                except FirstObstructionError as exc:
                    records.append(exc.entry)
            monkeypatch.undo()
            got, want = records
            if not isinstance(want, InvariantRecord):
                assert got == want, (spec, n, name)
                continue
            assert got.offdiag.keys() == want.offdiag.keys(), (spec, n, name)
            pairs = [(got.offdiag[k], want.offdiag[k]) for k in want.offdiag]
            pairs += [(getattr(got, k), getattr(want, k))
                      for k in ("c0", "c01", "c2", "H_b", "first_obstruction_max")]
            for x, y in pairs:
                assert abs(x - y) <= 1e-11 * max(1.0, abs(y)), (spec, n, name, x, y)


    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps
                        or np.fft.rfft(np.zeros(4, np.longdouble)).dtype != np.clongdouble,
                        reason="np.longdouble is no wider than float64, or the FFT narrows it")
    def test_stage2_against_extended_precision(self):
        """c0 is within 1e-8 of itself of the same stage 2 on the same
        samples in np.longdouble, on zoll:-2.4733,2.4733 at N = 32768,
        where stage 2's terms cancel about 2e5 times over: every entry of d
        times f from the exact real monomials, Q sampled by the FFT and
        the exact weights of `expansion.stage2_weights`, all in
        np.longdouble, plus the engine's mean of D0.  On the 7 of the
        first 8 CLI geodesics where stage 2 is nonzero (all but the
        meridian; x86-64, 80-bit long double) the largest error read
        2.6e-9, at the floor the float64 densities set (3.6e-9 from their
        rounding alone); 1.5e-6 when stage 2 took the complex entries of d."""
        from zollforms import cli, expansion, normalform

        ld = np.longdouble

        def exact(x):
            return ld(x.numerator) / ld(x.denominator)

        n = 32768
        c_s, d, _ = expansion.conjugated_symbols()
        weights = {pair: {key: exact(w.re) + 1j * exact(w.im) for key, w in sym.coeffs.items()}
                   for pair, sym in expansion.stage2_weights().items()}
        k = np.fft.fftfreq(n, 1.0 / n).astype(ld)
        k[n // 2] = 0
        inv_ik = np.zeros(n, dtype=np.clongdouble)
        inv_ik[k != 0] = 1 / (1j * k[k != 0])
        cfg = cli.RunConfig.load(None, {"metric": cli.parse_metric_flag("zoll:-2.4733,2.4733"),
                                        "geodesics": 8})
        errors = []
        for name, ic in cli._initial_conditions(cfg):
            path = trace_geodesic(cfg.metric_model, ic, n)
            frame = solve_fundamental(path)
            samples = {row: getattr(frame, row).astype(ld) for row in ("y1", "y2")}
            samples["tau_nu"] = path.tau_nu.astype(ld)
            f = path.weight.astype(ld)
            density, q = {}, {}
            for key, jp in d.coeffs.items():
                scale, terms = normalform._real_monomials(jp)
                density[key] = sum((ld(re) + 1j * ld(im)) / scale
                                   * np.prod([samples[x] ** p for x, p in mono], axis=0) * f
                                   for mono, (re, im) in terms.items())
            means = {key: np.mean(v) for key, v in density.items()}
            for key, v in density.items():
                primitive = np.fft.ifft(np.fft.fft(v - means[key] * f) * inv_ik)
                q[key] = -(primitive - primitive[0]) / exact(c_s.re)
            stage2 = sum(w * (np.mean(q[a] * density[b]) + np.mean(q[a] * f) * means[b])
                         for (a, b), sym in weights.items() for key, w in sym.items()
                         if key == (0, 0))
            if stage2 == 0:
                continue
            d0, _ = frame_terms(path, frame)
            want = (ld(d0[0, 0].real) + stage2.real) / 2
            got, _ = conjugated_order_zero(path, frame)
            errors.append(float(abs(ld(got[0, 0].real) / 2 - want) / abs(want)))
        assert len(errors) == 7 and max(errors) <= 1e-8, errors

    def test_a_mean_below_the_gate_matches_the_q_route(self, cubic_path, cubic_frame,
                                                       monkeypatch):
        """With 1e-7 f added to every cubic density, and so alpha_a 1e-7
        summed over the cubics added to entry a of the odd term in the
        sampled-Q route (a mean below MEAN_TOL, which stage 2 takes out of
        d before integrating), the engine's means still equal the
        sampled-Q route's to 1e-11 of max(1, |value|); leaving the mean in
        would move them by about 1e-7."""
        import oracles
        from zollforms import normalform

        real, real_pointwise = normalform.frame_terms, oracles.frame_conjugated
        stage = normalform._symbols()

        def shifted(path, frame):
            d0, odd = real(path, frame)
            odd.view(float)[:, :path.n] += 1e-7 * path.weight
            return d0, odd

        def shifted_pointwise(path, frame):
            d, d0 = real_pointwise(path, frame)
            moved = {key: d[key] + 1e-7 * row.sum() for key, row in zip(stage.d_keys, stage.alpha)}
            return PolySymbol(moved), d0

        monkeypatch.setattr(oracles, "frame_conjugated", shifted_pointwise)
        monkeypatch.setattr(normalform, "frame_terms", shifted)
        got, got_max = conjugated_order_zero(cubic_path, cubic_frame)
        want, want_max = order_zero_by_q(cubic_path, cubic_frame)
        assert got.keys() == want.keys() and abs(got_max - want_max) <= 1e-15
        for key, v in want.items():
            assert abs(got[key] - v) <= 1e-11 * max(1.0, abs(v)), key


class TestRealTransverseBasis:
    """The engine's symbols in (y, eta) against the (z, zbar) route."""

    def test_symbols_map_back_to_graded_symbols(self):
        """y -> (z + zbar)/2, eta -> (z - zbar)/(2i) takes every (y, eta)
        symbol to its Weyl symbol in (z, zbar), exactly."""
        from oracles import graded_symbols
        from zollforms.expansion import QQi, JetPolynomial, graded_laplacian, transverse_symbols
        from zollforms.weyl import substitute_linear

        half = Fraction(1, 2)
        const = JetPolynomial.const
        y_image = (const(QQi(half)), const(QQi(half)))
        eta_image = (const(QQi(0, -half)), const(QQi(0, half)))
        graded = graded_laplacian()
        formal = {w: transverse_symbols(op) for w, op in graded.items() if w <= 0}
        for w, syms in formal.items():
            ref = graded_symbols(graded[w])
            assert set(syms) == set(ref), w
            for c, sym in syms.items():
                [got] = substitute_linear([sym], y_image, eta_image)
                assert got.coeffs == ref[c].coeffs, (w, c)

    @pytest.mark.parametrize("n", [2048, 32768])
    @pytest.mark.parametrize("profile", ["cubic", "linear"])
    def test_frame_substitution_matches_oracle(self, cubic_metric, linear_metric, generic_ic,
                                               profile, n):
        """The graded symbols framed in exact arithmetic, as the engine's
        stage 1 frames them, and evaluated on the path, equal the oracle's
        symbols in (z, zbar) with the frame substituted on the grid."""
        from oracles import evaluate, evaluation_plan, graded_zzbar, path_values
        from zollforms.expansion import _frame_formal, graded_laplacian, transverse_symbols

        metric = {"cubic": cubic_metric, "linear": linear_metric}[profile]
        path = trace_geodesic(metric, generic_ic, n)
        frame = solve_fundamental(path)
        slots = [(w, c, sym) for w, op in graded_laplacian().items() if w <= 0
                 for c, sym in transverse_symbols(op).items()]
        framed = _frame_formal([sym for _, _, sym in slots])
        got = {}
        for (w, c, _), image in zip(slots, evaluate(evaluation_plan(framed), path_values(path, frame))):
            got.setdefault(w, {})[c] = image
        ref = graded_zzbar(path)
        assert set(got) == set(ref)
        for w, syms in ref.items():
            assert set(got[w]) == set(syms), w
            for c, sym in syms.items():
                [want] = metaplectic_substitute([sym], frame)
                scale = max(float(np.max(np.abs(v))) for v in want.coeffs.values())
                image = got[w][c]
                for key in set(image.coeffs) | set(want.coeffs):
                    diff = np.asarray(image[key]) - np.asarray(want[key])
                    assert np.max(np.abs(diff)) <= 1e-13 * scale, (w, c, key)

    @pytest.mark.parametrize("n", [1024, 32768])
    @pytest.mark.parametrize("profile", ["cubic", "linear"])
    def test_q_s_is_the_derivative_of_q(self, cubic_metric, linear_metric, generic_ic,
                                        profile, n):
        """dQ/ds = -(d - M)/c_s of the homological equation equals the FFT
        derivative of Q, (1/f) d/d(theta), to 1e-10 relative on Zoll frames;
        the FFT's own roundoff is about 1e-11 at N = 32768."""
        from zollforms.normalform import _symbols

        metric = {"cubic": cubic_metric, "linear": linear_metric}[profile]
        path = trace_geodesic(metric, generic_ic, n)
        frame = solve_fundamental(path)
        _, odd = frame_terms(path, frame)
        stage = _symbols()
        d = {key: row @ odd.view(float)[:, :n]
             for key, row in zip(stage.d_keys, stage.alpha) if key in ((3, 0), (2, 1))}
        q, means = solve_first_homological(path, d)
        q_s = {k: -(v / path.weight - means[k]) / 2.0 for k, v in d.items()}
        fft = {k: ds(path, v) for k, v in q.items()}
        assert set(q_s) == set(fft) == {(3, 0), (2, 1)}
        scale = max(float(np.max(np.abs(v))) for v in q_s.values())
        for key, v in q_s.items():
            assert np.max(np.abs(v - fft[key])) <= 1e-10 * scale, key
