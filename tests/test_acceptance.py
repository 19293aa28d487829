"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS line with the measured figures after its
assertions; run `pytest -v tests/test_acceptance.py -s` to see them.
The sweep metric is the odd cubic profile h = 0.3 (x^3 - x)
(amplitude ~0.115 <= 0.15); 32 geodesics = equator + meridian + 30
seeded random initial conditions at N = 2048.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from zollforms.cli import RunConfig, build_report
from zollforms.expansion import (
    JetPolynomial,
    derive_normal_form_integrands,
    fermi_metric_jets,
    grade_expansion,
    half_density_laplacian,
    QQi,
    TAU,
    TAU_NU,
    _match_integrand_basis,
)
from zollforms.geodesic import sample_initial_conditions, trace_geodesic
from zollforms.identities import (
    check_4id,
    check_cube,
    check_quartic,
    check_tau_s,
)
from zollforms.jacobi import solve_fundamental
from zollforms.normalform import assemble_p1
from zollforms.surface import MetricModel, SurfacePoint
from zollforms.weyl import star_commutator
from oracles import (commutator_reduction, monomial, ode_variation_field, rebase,
                     round_sphere_c2, weyl_quantize)

from fractions import Fraction

N_GRID = 2048
SWEEP_COUNT = 32


def _announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def sweep_metric():
    return MetricModel.zoll_revolution([-0.3, 0.3])


@pytest.fixture(scope="module")
def sweep(sweep_metric):
    ics = [("equator", (SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0))),
           ("meridian", (SurfacePoint.north(math.pi / 2, 0.0), (1.0, 0.0)))]
    ics += [(f"random-{i:02d}", ic) for i, ic in
            enumerate(sample_initial_conditions(SWEEP_COUNT - 2, seed=0))]
    out = []
    for name, ic in ics:
        path = trace_geodesic(sweep_metric, ic, N_GRID)
        frame = solve_fundamental(path)
        out.append((name, ic, path, frame))
    return out


@pytest.fixture(scope="module")
def round_records():
    metric = MetricModel.round()
    ics = [(SurfacePoint.north(math.pi / 2, 0.0), (0.0, 1.0))]
    ics += sample_initial_conditions(15, seed=5)
    return [assemble_p1(metric, ic, N_GRID) for ic in ics]


def test_criterion_1_round_sphere_closed_forms():
    """Round sphere: y1 = sin, y2 = cos, Y = e^{is}, Poincare = I at 1e-9,
    under one second per geodesic at N = 2048."""
    metric = MetricModel.round()
    ic = sample_initial_conditions(1, seed=1)[0]
    start = time.perf_counter()
    path = trace_geodesic(metric, ic, N_GRID)
    frame = solve_fundamental(path)
    elapsed = time.perf_counter() - start
    s = path.s
    errs = [np.max(np.abs(frame.y1 - np.sin(s))),
            np.max(np.abs(frame.y2 - np.cos(s))),
            np.max(np.abs(frame.Y - np.exp(1j * s))),
            np.max(np.abs(frame.poincare - np.eye(2)))]
    assert max(errs) < 1e-9
    assert elapsed < 1.0
    _announce(1, f"max closed-form error {max(errs):.2e}, {elapsed:.2f}s/geodesic")


def test_criterion_2_zoll_degeneracy(sweep):
    """Closure < 1e-6 and Poincare = I within 1e-6 on >= 32 geodesics."""
    assert len(sweep) >= 32
    worst_closure = max(path.closure_defect for _, _, path, _ in sweep)
    worst_poincare = max(np.max(np.abs(frame.poincare - np.eye(2)))
                         for _, _, _, frame in sweep)
    assert worst_closure < 1e-6
    assert worst_poincare < 1e-6
    _announce(2, f"{len(sweep)} geodesics, closure {worst_closure:.2e}, "
                 f"|P - I| {worst_poincare:.2e}")


def test_criterion_3_first_obstruction(sweep):
    """Normalized cube integrals < 1e-6 on all four real cubics and
    geodesics; the negative control fails by at least 1e-2."""
    worst = max(check_cube(path, frame).normalized for _, _, path, frame in sweep)
    assert worst < 1e-6
    control = MetricModel.zoll_revolution([0.05], [0.1])
    ic = sample_initial_conditions(1, seed=11)[0]
    path = trace_geodesic(control, ic, 1024, enforce_closure=False)
    frame = solve_fundamental(path)
    control_worst = check_cube(path, frame).normalized
    assert control_worst >= 1e-2
    _announce(3, f"Zoll max {worst:.2e}, negative control {control_worst:.2e}")


def _subsampled(path, frame, m):
    step = path.n // m
    sl = slice(None, None, step)
    new_path = replace(path, n=m, weight=path.weight[sl],
                       tau=path.tau[sl], tau_s=path.tau_s[sl],
                       tau_nu=path.tau_nu[sl], tau_nunu=path.tau_nunu[sl])
    new_frame = replace(frame, path=new_path, y1=frame.y1[sl], dy1=frame.dy1[sl],
                        y2=frame.y2[sl], dy2=frame.dy2[sl])
    return new_path, new_frame


def test_criterion_4_identity_suite(sweep):
    """tau_s, quartic and 4id identities pass at 1e-6 on every sampled
    geodesic, and the commutator reduction on the ODE-solved variation
    field of the first four sampled starts; quadrature residuals decay
    spectrally."""
    worst = {}
    for _, _, path, frame in sweep:
        results = [check_tau_s(path, frame), check_quartic(path, frame),
                   *check_4id(path, frame)]
        for res in results:
            worst[res.name] = max(worst.get(res.name, 0.0), res.normalized)
    for _, _, path, frame in sweep[2:6]:
        fields = (ode_variation_field(frame), ode_variation_field(frame, direction=frame.y2))
        for res in commutator_reduction(path, frame, *fields):
            worst[res.name] = max(worst.get(res.name, 0.0), res.normalized)
    assert len(worst) == 6
    assert max(worst.values()) < 1e-6, worst

    # spectral rate: on a profile with higher harmonics, the quadrature
    # residuals of the pure-integral checks collapse super-algebraically
    # as the sample grid doubles (exact samples, no solver error)
    rich = MetricModel.zoll_revolution([-0.38, 0.15, 0.0, 0.23])
    ic = sample_initial_conditions(1, seed=3)[0]
    path = trace_geodesic(rich, ic, 4096)
    frame = solve_fundamental(path)
    decays = []
    for m in (8, 16, 32):
        sub_path, sub_frame = _subsampled(path, frame, m)
        res = max(check_cube(sub_path, sub_frame).normalized,
                  check_tau_s(sub_path, sub_frame).normalized,
                  check_quartic(sub_path, sub_frame).normalized,
                  max(r.normalized for r in check_4id(sub_path, sub_frame)))
        decays.append(res)
    assert decays[1] < max(decays[0] / 50.0, 1e-10)
    assert decays[2] < max(decays[1] / 50.0, 1e-10)
    _announce(4, f"suite max {max(worst.values()):.2e}; coarse-grid residuals "
                 + " -> ".join(f"{d:.1e}" for d in decays))


def test_criterion_5_weyl_oracle():
    """Symbol star-commutator equals the matrix commutator for every
    monomial pair of degree <= 4 on the interior block, relative error
    < 1e-10 at N_trunc = 64 (relative to the product magnitude)."""
    n_trunc = 64
    monomials = [(m, n) for m in range(5) for n in range(5 - m)]
    mats = {mn: weyl_quantize(monomial(*mn), n_trunc) for mn in monomials}
    worst = 0.0
    worst_raw_low = 0.0
    for mn in monomials:
        for munu in monomials:
            A, B = mats[mn], mats[munu]
            rhs = A @ B - B @ A
            sc = star_commutator(monomial(*mn), monomial(*munu))
            lhs = weyl_quantize(sc, n_trunc) if sc.coeffs else np.zeros_like(rhs)
            k = n_trunc - (sum(mn) + sum(munu))
            gap = np.max(np.abs(lhs[:k, :k] - rhs[:k, :k]))
            scale = max(np.max(np.abs(A)) * np.max(np.abs(B)), 1.0)
            worst = max(worst, gap / scale)
            if sum(mn) <= 2 and sum(munu) <= 2:
                worst_raw_low = max(worst_raw_low, gap)
    assert worst < 1e-10
    assert worst_raw_low < 1e-10  # low degrees also agree without rescaling
    _announce(5, f"worst interior relative error {worst:.2e} over "
                 f"{len(monomials)**2} pairs (raw {worst_raw_low:.2e} at degree <= 2)")


def test_criterion_6_derived_constants():
    """Exact symbolic assertions: metric jets, graded operators, the two
    structural vanishing statements, and the round-sphere linear relation."""
    J, g00 = fermi_metric_jets()
    assert g00.terms[(2, 0, 0)] == TAU                            # C1 = 1
    assert g00.terms[(3, 0, 0)] == TAU_NU * QQi(Fraction(1, 3))   # C2 = 1/3
    graded = grade_expansion(half_density_laplacian())
    l2 = graded[Fraction(-2)]
    assert l2.terms[(0, 0, 0)] == JetPolynomial.const(1)          # L2 = 1
    assert Fraction(-3, 2) not in graded                          # L_3/2 = 0
    l1 = graded[Fraction(-1)]
    assert set(l1.terms) == {(0, 0, 1), (0, 2, 0), (2, 0, 0)}     # 2Ds + Dy^2 + tau y^2
    l12 = graded[Fraction(-1, 2)]
    assert set(l12.terms) == {(3, 0, 0)}                          # single monomial
    parts = derive_normal_form_integrands()
    y4, _ = _match_integrand_basis(parts["z4"])
    y0, _ = _match_integrand_basis(parts["z0"])
    assert y4["e"] == QQi(0)                                      # e_2 = 0
    assert y0["d"] == QQi(0)                                      # d_0 = 0
    assert round_sphere_c2() == QQi(0)                            # linear relation
    _announce(6, "C1 = 1, C2 = 1/3, L-shapes exact, e2 = d0 = 0, "
                 "round-sphere relation = 0 (exact rational arithmetic)")


def test_criterion_7_round_sphere_mdl(round_records):
    """Round sphere: c2 < 1e-7, c01 < 1e-9, c0 constant across 16 geodesics
    within 1e-9."""
    assert len(round_records) == 16
    c2_max = max(abs(r.c2) for r in round_records)
    c01_max = max(r.c01 for r in round_records)
    c0s = [r.c0 for r in round_records]
    spread = max(c0s) - min(c0s)
    assert c2_max < 1e-7
    assert c01_max < 1e-9
    assert spread < 1e-9
    _announce(7, f"c2 max {c2_max:.2e}, c01 max {c01_max:.2e}, "
                 f"c0 spread {spread:.2e} over 16 geodesics")


def test_criterion_8_offdiagonal_vanishing(sweep_metric, sweep):
    """All averaged off-diagonal coefficients (m != n, m + n <= 4) below
    1e-6 on every sampled Zoll geodesic."""
    worst = 0.0
    for _, ic, path, frame in sweep:
        rec = assemble_p1(sweep_metric, ic, path=path, frame=frame)
        worst = max(worst, rec.offdiag_max)
    assert worst < 1e-6
    _announce(8, f"max |off-diagonal mean| {worst:.2e} over {len(sweep)} geodesics")


def test_criterion_9_invariance(sweep_metric, sweep):
    """InvariantRecord stable under rotational isometries and base-point
    shifts to 1e-7 (H through its base-point-invariant reading)."""
    _, ic, path, frame = sweep[2]
    rec = assemble_p1(sweep_metric, ic, path=path, frame=frame)
    p0, v0 = ic
    rot_ic = (SurfacePoint.north(p0.r, p0.phi + 2.3), v0)
    rec_rot = assemble_p1(sweep_metric, rot_ic, N_GRID)
    shifted = rebase(path, 913)
    rec_shift = assemble_p1(sweep_metric, shifted.init, path=shifted,
                            frame=solve_fundamental(shifted))
    gaps = [abs(rec.c0 - rec_rot.c0), abs(rec.c2 - rec_rot.c2),
            abs(rec.H_b - rec_rot.H_b),
            abs(rec.offdiag_max - rec_rot.offdiag_max),
            abs(rec.c0 - rec_shift.c0), abs(rec.c2 - rec_shift.c2),
            abs(rec.H_b - rec_shift.H_b),
            abs(rec.offdiag_max - rec_shift.offdiag_max)]
    assert max(gaps) < 1e-7
    _announce(9, f"max invariance gap {max(gaps):.2e} (rotation + base point)")


def test_criterion_10_full_default_run():
    """verify + invariants, 32 geodesics at N = 2048, in under 5 minutes."""
    start = time.perf_counter()
    cfg = RunConfig.load(None, {"metric": {"kind": "zoll_revolution",
                                           "h_odd_coeffs": [-0.3, 0.3]},
                                "geodesics": 32, "grid": 2048})
    verify_report, verify_code = build_report(cfg, "verify")
    invariants_report, inv_code = build_report(cfg, "invariants")
    elapsed = time.perf_counter() - start
    assert verify_code == 0, verify_report["summary"]["failures"][:3]
    assert inv_code == 0, invariants_report["summary"]["failures"][:3]
    assert elapsed < 300.0
    _announce(10, f"verify + invariants over 32 geodesics in {elapsed:.1f}s")
