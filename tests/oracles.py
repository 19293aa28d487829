"""Independent routes to quantities the package computes, and the
geometry only tests need.

The production geodesic and its Jacobi frame come from closed formulas
(`zollforms.surface.flow`).  `ode_flow` integrates the geodesic
equations instead, with the Jacobi pair riding along, by scipy's DOP853:
in ambient coordinates x on S^2 in R^3 for smooth profiles, where the
metric is |dx|^2 + beta(u) du^2 and nothing is singular at the poles,
and in the Clairaut chart (r, phi, p_r) for profiles with cone points,
where beta has a pole; a meridian is that chart's c = 0 case, and its r
runs on through the poles.  `exp_map` reads the geodesic end points off
it.

The variation field, which the package does not need, has two routes
here.  `variation_field` takes it by quadrature on the frame (variation
of parameters, two antiderivatives of the path).  `ode_frame` and
`ode_variation_field` solve the Jacobi and forced variation equations a
second way: ODE solves in s, driven by the trigonometric interpolants of
the sampled curvature and of the weight f = ds/d(theta), with the
Clairaut angle riding along by d(theta)/ds = 1/f, and read at the path's
arclengths.  Tests pin the two routes to each other.  The paper's
reduction of the commutator term to boundary terms of the field
(`commutator_reduction`, `commutator_special_case`) is checked on the
ODE-solved field: on the quadrature field its residual is exactly
(1 - W) int Ybar F, with W the frame's Wronskian, so it could not fail
there.  `spectral_derivative` is the FFT derivative on
the uniform grid, and `ds` = (1/f) d/d(theta) the FFT route to the
s-derivatives that the package takes in closed form.

The curvature jets have two more routes.  `curvature_jet_arrays` writes
them in the chart's (r, v1, v2), where `zollforms.surface.flow` writes
them in the closed form's u = a sin(theta), a cos(theta) and c; and the
curvature sampled along the normal and tangent geodesics (`exp_map`),
differentiated by central stencils, checks that formula
(`analytic_jet`, one sample of it).
`surface_integral_of_curvature` is the Gauss-Bonnet check of the
curvature formula.

The order-zero normal form symbol has four more routes.
`frame_conjugated` evaluates the exact stage 1 term by term on the
samples (`evaluation_plan`, `evaluate`, `path_values`, with the jets
by name from `jet_values`), entry by entry in complex arithmetic, so
terms cancel sample by sample; the engine
(`zollforms.normalform.frame_terms`) reads D0 over real monomials and
only through its means, each monomial summed over the grid by a Gram
product before the coefficients combine them, and the tests also pin
those means to the same monomials summed in np.longdouble.
`field_mean` averages a sampled symbol.
`order_zero_by_q` takes the engine's stage 2 with Q on the grid: Q by
`solve_first_homological`, one antiderivative per entry, and each mean
over the samples, where the engine pairs spectra and never samples Q.  The
closed form `d_zero_restricted` of the frame-conjugated metric terms plus
`commutator_double_integral` of the odd term `d_half` is written out by
hand on the samples, where the engine
(`zollforms.normalform.conjugated_order_zero`) evaluates the exact stage
1 (`zollforms.expansion.conjugated_symbols`) and the closed form
D0 - (i/2)[Q, d + M] of stage 2.  `ad_series` derives stage 2 without
that closed form: the series exp(-i ad_Q) over the exact stage 1
operators (`stage2_inputs`), by Horner's rule, with the entries of Q, of
the odd term d and of its means M as indeterminates (`entry_name`);
`ad_symbol` is one of its steps and `order_zero_by_ad_series` its weight
0 result.  The closed form also substitutes the frame its own way:
`graded_symbols` writes the Weyl symbols in (z, zbar) as star
products of the pure symbols of y and eta, `graded_zzbar` samples them
as complex arrays, and `metaplectic_substitute` maps z and zbar, where
the package reads its symbols in (y, eta) off the operators' keys
(`zollforms.expansion.transverse_symbols`) and maps y and eta.  `weyl_quantize` is the matrix
oracle of the symbol calculus: Weyl quantization on the oscillator basis.
`transvectant` is the term-by-term definition of P_j(a, b), which the
package's fused star kernel and plain product are tested against;
`degree` reads a symbol's total degree.

`rebase` re-parametrizes a traced geodesic from another base point by
linear algebra on its Jacobi samples, for the base-point invariance
tests.  `whole_grid_closure_defect` reads the closure defect off the
whole sample grid, where the package evaluates its closed forms at the
two ends of the turn only.  `monomial` and `conjugate` (of a symbol),
`round_sphere_c2`, `equator_start` (the near-meridian starts),
`state_distance` (the gap between two nearby states, for the exp-map and
area-element tests) and `embedded` (samples in R^3) are helpers only the
tests call.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from zollforms import expansion, normalform, surface
from zollforms.fourier import spectral_antiderivative
from zollforms.geodesic import GeodesicPath
from zollforms.identities import CheckResult
from zollforms.jacobi import JacobiFrame
from zollforms.surface import SurfacePoint
from zollforms.weyl import (PolySymbol, star_commutator, star_product, substitute_linear,
                            transvectant_constant)

ODE_TOL = 1e-12
FLOW_TOL = 1e-13        # ode_flow's tolerance
MERIDIAN_TOL = 1e-12    # |c| of an ode_flow start, or sin r of an ambient sample: a meridian
INTERP_TOL = 1e-15     # relative magnitude below which interpolant modes are dropped


class TrigInterpolant:
    """Evaluates the trigonometric interpolant of periodic samples anywhere.

    Modes with relative magnitude below INTERP_TOL are discarded, so evaluation
    cost scales with the number of significant harmonics rather than the
    grid size.  Used to drive ODE solves with sampled coefficients.
    """

    def __init__(self, values):
        self._real = np.isrealobj(np.asarray(values))
        values = np.asarray(values, dtype=complex)
        n = values.shape[-1]
        coeffs = np.fft.fft(values) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        scale = np.max(np.abs(coeffs)) or 1.0
        keep = np.abs(coeffs) > INTERP_TOL * scale
        keep[0] = True
        self._k = k[keep]
        self._c = coeffs[keep]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        phases = np.exp(1j * np.multiply.outer(s, self._k))
        out = phases @ self._c
        if self._real:
            out = out.real
        return out if out.shape else out[()]


def spectral_derivative(values):
    """d/d(theta) of periodic samples on the uniform grid over [0, 2*pi),
    by FFT; the unpaired Nyquist mode is dropped."""
    values = np.asarray(values)
    n = values.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    out = np.fft.ifft(np.fft.fft(values) * (1j * k))
    return out.real if np.isrealobj(values) else out


def ds(path, values):
    """d/ds = (1/f) d/d(theta) of samples along `path`, by FFT."""
    return spectral_derivative(values) / path.weight


def turn_length(path):
    """Arclength of one turn of theta, 2 pi times the theta-mean of f
    (exact: f is a trigonometric polynomial of degree below the grid)."""
    return 2.0 * math.pi * float(np.mean(path.weight))


def whole_grid_closure_defect(metric, start, n):
    """The closure defect of the geodesic through `start`, with s and the
    longitude evaluated on the whole grid of n + 1 angles and read at its
    last one: the reference for `zollforms.surface.flow`, which evaluates
    them at the two ends of the turn only."""
    c, a, theta0, h_a = surface._clairaut(metric, start)
    theta, sin, cos = surface._angles(theta0, *surface._turn(n))
    s = theta + surface._sine_integral(h_a, theta, sin, cos)
    s -= s[0]
    defect = abs(s[-1] - 2.0 * math.pi)
    if abs(c) < surface.MERIDIAN_TOL:
        return defect
    gained = surface._longitude(metric, a, c, theta, sin, cos)
    gained -= gained[0]
    return max(defect, surface._wrapped(gained[-1]))


def _solve(rhs, start, t_eval, tol=ODE_TOL, t_end=2.0 * math.pi):
    sol = solve_ivp(rhs, (0.0, t_end), start, method="DOP853",
                    t_eval=t_eval, rtol=tol, atol=tol)
    assert sol.success, sol.message
    return sol.y


def ode_frame(path):
    """Fundamental Jacobi frame from y'' + tau(s) y = 0, read at the path's
    arclengths and at the end of the turn, with tau and f interpolated in
    theta and theta solved along."""
    tau, weight = TrigInterpolant(path.tau), TrigInterpolant(path.weight)

    def rhs(s, y):
        t = tau(y[4])
        return (y[1], -t * y[0], y[3], -t * y[2], 1.0 / weight(y[4]))

    end = turn_length(path)
    y1, dy1, y2, dy2, _ = _solve(rhs, [0.0, 1.0, 1.0, 0.0, 0.0], np.append(path.s, end),
                                 t_end=end)
    return JacobiFrame(
        path=path, y1=y1[:-1], dy1=dy1[:-1], y2=y2[:-1], dy2=dy2[:-1],
        poincare=np.array([[dy1[-1], dy2[-1]], [y1[-1], y2[-1]]]),
        wronskian_drift=float(np.max(np.abs(y2 * dy1 - y1 * dy2 - 1.0))),
    )


@dataclass(frozen=True)
class VariationField:
    """Solution y_nu, y_nu' of the forced variation equation
    y_nu'' + tau_nu v y + tau y_nu = 0; for the diagonal case v = y,
    y_nu'' + tau_nu y^2 + tau y_nu = 0."""

    y_nu: np.ndarray
    dy_nu: np.ndarray


def variation_field(frame, direction=None):
    """Variation of the complex frame Y under a normal deformation of the geodesic.

    Solves y_nu'' = -tau y_nu - F with F = tau_nu v(s) y(s), y = Y and
    initial data (0, 0), the variation of the canonical family with frozen
    initial conditions; v = `direction` is the Jacobi field generating the
    deformation.  By default v = y, the diagonal form
    y_nu'' + tau_nu y^2 + tau y_nu = 0.  The deformation is
    geometric (a family of nearby geodesics) only for real v: the
    Wronskian-variation identity Im(y_nu Ybar' - y_nu' Ybar) = 0 holds for
    real directions, e.g. v = y2 for the family displaced along the unit
    normal at the base point.

    Variation of parameters on the frame gives the field in closed form:
    y_nu = y2 int_0^s y1 F - y1 int_0^s y2 F and
    y_nu' = y2' int_0^s y1 F - y1' int_0^s y2 F.
    """
    y = frame.Y
    path = frame.path
    force = path.tau_nu * (y if direction is None else np.asarray(direction)) * y
    a = path.antiderivative(frame.y1 * force)
    b = path.antiderivative(frame.y2 * force)
    return VariationField(y_nu=frame.y2 * a - frame.y1 * b,
                          dy_nu=frame.dy2 * a - frame.dy1 * b)


def ode_variation_field(frame, direction=None):
    """The variation field of `variation_field`, by a forced ODE solve."""
    path = frame.path
    y = frame.Y
    direction = y if direction is None else np.asarray(direction)
    tau_i, weight_i = TrigInterpolant(path.tau), TrigInterpolant(path.weight)
    force_i = TrigInterpolant(path.tau_nu * direction * y)

    def rhs(s, state):
        theta = state[2].real
        return (state[1], -tau_i(theta) * state[0] - force_i(theta), 1.0 / weight_i(theta))

    y_nu, dy_nu, _ = _solve(rhs, np.zeros(3, dtype=complex), path.s, t_end=path.s[-1])
    return VariationField(y_nu=y_nu, dy_nu=dy_nu)


def commutator_reduction(path, frame, variation, real_variation):
    """Reduction of the inner commutator integral to variation boundary terms.

    With the diagonal variation Y_nu (forcing tau_nu Y^2, initial data
    (0, 0)) in `variation`:
        int_0^s tau_nu Ybar^n Y^m dt = -(Y_nu' w - Y_nu w')(s)
    for (m, n) = (2, 1) with w = Ybar and (m, n) = (3, 0) with w = Y.
    The pointwise Wronskian-variation identity
        Im(y_nu Ybar' - y_nu' Ybar) = 0
    is checked on `real_variation`, the field of the real deformation
    direction y2 (the family displaced along the unit normal at the base
    point).  Returns (reduction residual, pointwise Im-identity residual)
    as CheckResults.
    """
    Y, dY = frame.Y, frame.dY
    worst_raw, worst_scale = 0.0, 0.0
    for w, dw, inner in (
        (np.conj(Y), np.conj(dY), path.tau_nu * Y * Y * np.conj(Y)),
        (Y, dY, path.tau_nu * Y ** 3),
    ):
        cum = path.antiderivative(inner)
        boundary = variation.dy_nu * w - variation.y_nu * dw
        worst_raw = max(worst_raw, float(np.max(np.abs(cum + boundary))))
        worst_scale = max(worst_scale, 2.0 * math.pi * float(path.mean(np.abs(inner))),
                          float(np.max(np.abs(boundary))))
    res = CheckResult("check_commutator_reduction", raw=worst_raw, scale=worst_scale)
    im_vals = np.imag(real_variation.y_nu * np.conj(dY) - real_variation.dy_nu * np.conj(Y))
    im_scale = float(np.max(np.abs(real_variation.y_nu * np.conj(dY))
                            + np.abs(real_variation.dy_nu * np.conj(Y))))
    res_im = CheckResult("check_commutator_reduction_im",
                         raw=float(np.max(np.abs(im_vals))), scale=im_scale)
    return res, res_im


def commutator_special_case(path, frame, variation):
    """The (m, n) = (2, 1) term written through the diagonal variation field.

    Im of the ordered double integral with outer tau_nu Ybar^2 Y and inner
    tau_nu Ybar Y^2 equals -Im int tau_nu Ybar^2 Y (Y_nu' Ybar - Y_nu Ybar') ds.
    """
    Y = frame.Y
    outer = path.tau_nu * np.conj(Y) ** 2 * Y
    # ordered double integral (1/2pi) int outer(s) int_0^s inner(t) dt ds
    lhs = path.mean(outer * path.antiderivative(path.tau_nu * np.conj(Y) * Y ** 2)).imag
    boundary = variation.dy_nu * np.conj(Y) - variation.y_nu * np.conj(frame.dY)
    rhs = -path.mean(outer * boundary).imag
    scale = (2.0 * math.pi * float(path.mean(np.abs(outer)))) ** 2 + abs(lhs) + abs(rhs)
    return CheckResult("check_commutator_special_case",
                       raw=float(abs(lhs - rhs)), scale=float(scale))


def substitute(jp, values):
    """A jet polynomial evaluated term by term with numeric values (scalars
    or arrays) per name: the plain reading the engine's evaluator is
    tested against."""
    total = 0
    for key, val in jp.terms.items():
        term = complex(val)
        for name, p in key:
            term = term * values[name] ** p
        total = total + term
    return total


def field_mean(path, sym):
    """Arclength mean along `path` of every sampled entry: a scalar PolySymbol."""
    return PolySymbol({k: complex(path.mean(v) if isinstance(v, np.ndarray) else v)
                       for k, v in sym.coeffs.items()})


_CONJUGATE_NAMES = {"Y": "Yb", "Yb": "Y", "dY": "dYb", "dYb": "dY"}   # the jets are real


def _conjugate(jp):
    """The formal complex conjugate of a jet polynomial in the jets and the frame."""
    return expansion.JetPolynomial({
        tuple(sorted((_CONJUGATE_NAMES.get(name, name), p) for name, p in mono)):
            expansion.QQi(c.re, -c.im) for mono, c in jp.terms.items()})


def evaluation_plan(symbols):
    """How `evaluate` computes exact symbols on a path: (steps, slots).

    Each distinct jet polynomial is one step: the index of an earlier
    step that holds its formal conjugate, or else its terms as (scalar,
    ((name, power), ...)), whose names sort the frame's before the jets',
    so that a complex term takes its array at its first product.
    slots[i] maps each key of symbols[i] to its step.
    """
    steps, index = [], {}
    for sym in symbols:
        for jp in sym.coeffs.values():
            if jp not in index:
                twin = index.get(_conjugate(jp))
                index[jp] = len(steps)
                steps.append(twin if twin is not None else tuple(
                    (float(c.re) if c.im == 0 else complex(c), mono)
                    for mono, c in jp.terms.items()))
    return tuple(steps), [{key: index[jp] for key, jp in sym.coeffs.items()} for sym in symbols]


def _into(ufunc, acc, v):
    """ufunc(acc, v), written into acc where acc is an array of the step
    being evaluated that holds the result's dtype."""
    own = isinstance(acc, np.ndarray) and acc.dtype == np.result_type(acc, v)
    return ufunc(acc, v, out=acc if own else None)


def jet_values(path):
    """The path's curvature jets by name."""
    return {name: getattr(path, name) for name in ("tau", "tau_s", "tau_nu", "tau_nunu")}


def path_values(path, frame):
    """The indeterminates' values on a path: its jets and its frame."""
    Y, dY = frame.Y, frame.dY
    return {**jet_values(path), "Y": Y, "Yb": np.conj(Y), "dY": dY, "dYb": np.conj(dY)}


def evaluate(plan, values):
    """The symbols of an `evaluation_plan` evaluated with numeric values
    (scalars or arrays) per name.

    Each step is evaluated once, each term in one array of its own: a
    power is taken factor by factor into the term, so no power is held
    beside it.  A step that holds the formal conjugate of an earlier one
    is np.conj of its value, so that the two agree bit for bit.  Real
    coefficients evaluate real values to real ones, any other to complex;
    a constant polynomial stays a Python scalar.
    """
    steps, slots = plan
    fields = []
    for step in steps:
        if isinstance(step, int):
            fields.append(np.conj(fields[step]))
            continue
        total = None
        for term, mono in step:
            for name, p in mono:
                for _ in range(p):
                    term = _into(np.multiply, term, values[name])
            total = term if total is None else _into(np.add, total, term)
        fields.append(total)
    return [PolySymbol({key: fields[i] for key, i in sym.items()}) for sym in slots]


@functools.lru_cache(maxsize=1)
def _stage1_plan():
    _, d, d0 = expansion.conjugated_symbols()
    return evaluation_plan([d, d0])


def frame_conjugated(path, frame):
    """Stage 1 on a path, term by term: [d, D0], the odd term of weight
    -1/2 and the D_s-free part of weight 0, evaluated pointwise on the
    path's jets and frame.  The engine reads D0 only through its means,
    by real monomials (`zollforms.normalform.frame_terms`); it is pinned
    to this route."""
    return evaluate(_stage1_plan(), path_values(path, frame))


def solve_first_homological(path, d):
    """Q(s) on the samples, the reference route of the engine's stage 2:
    Q' = -(d - <d>)/c_s, Q(0) = 0, one antiderivative per entry.

    `d` maps keys of the odd term to theta-densities, an entry's samples
    times the path's weight f = ds/d(theta): a density's theta-mean is
    the entry's arclength mean, and its theta-antiderivative the
    arclength one.  The odd term is a real symbol, so an entry that `d`
    leaves out but whose mirror (n, m) it gives is the conjugate of that
    one, and so are its mean and its Q.  A mean above MEAN_TOL, or a NaN
    mean, raises FirstObstructionError as the engine's gate does.  The
    means are taken out before the antiderivative, so Q is periodic.
    Returns (Q of each entry of `d`, the means of these entries and of
    their mirrors as {key: complex}).
    """
    stage = normalform._symbols()
    own = {k: np.mean(v) for k, v in d.items()}
    means = normalform._unfold(own, stage.d_mirrors)
    for k, m in sorted(means.items(), key=lambda kv: -abs(kv[1])):
        if not abs(m) <= normalform.MEAN_TOL:
            raise normalform.FirstObstructionError(k, complex(m))
    q = {}
    for k, v in d.items():
        centred = np.multiply(path.weight, own[k])
        np.subtract(v, centred, out=centred)
        centred *= -1.0 / stage.c_s
        q[k] = spectral_antiderivative(centred)
    return q, {k: complex(m) for k, m in means.items()}


def order_zero_by_q(path, frame):
    """`zollforms.normalform.conjugated_order_zero` with Q sampled: Q by
    `solve_first_homological`, and every mean of stage 2 (<Q_a d_b> and
    <Q_a>) taken over the grid.  The engine pairs spectra instead and is
    pinned to this route."""
    stage = normalform._symbols()
    sums, d = normalform.frame_terms(path, frame)
    if not d.any():
        return sums, 0.0
    d = dict(zip(stage.d_firsts, d))
    q, means = solve_first_homological(path, d)
    for a, _, pairs in stage.products:
        q_mean = path.mean(q[a])
        for b, _, _, weights, mirror_weights in pairs:
            density = d[b] if b in d else np.conj(d[b[::-1]])
            term = np.mean(q[a] * density) + q_mean * means[b]
            for key, w in weights:
                sums[key] = sums.get(key, 0.0) + w * term
            for key, w in mirror_weights:
                sums[key] = sums.get(key, 0.0) + w * np.conj(term)
    return sums, max(abs(m) for m in means.values())


def _to_field(value, n):
    out = np.asarray(value, dtype=complex)
    if out.ndim == 0:
        out = np.full(n, complex(out))
    return out


def graded_symbols(graded_term):
    """(y, D_y)-part of a graded operator as Weyl symbols in (z, zbar) per
    D_s power: {ds_power: PolySymbol with JetPolynomial entries}.  The
    Weyl symbol of y^k D_y^b is the star product of the pure symbols of y
    and eta, so terms that mix y with D_y come out Weyl-ordered as well."""
    JP, QQi = expansion.JetPolynomial, expansion.QQi
    half = QQi(Fraction(1, 2))
    mhalf_i = QQi(0, Fraction(-1, 2))
    y_sym = PolySymbol({(1, 0): JP.const(half), (0, 1): JP.const(half)})
    eta_sym = PolySymbol({(1, 0): JP.const(mhalf_i), (0, 1): JP.const(-mhalf_i)})
    out = {}
    for (k, b, c), coeff in graded_term.terms.items():
        sym = PolySymbol.constant(JP.const(1))
        for _ in range(k):
            sym = sym * y_sym
        for _ in range(b):
            sym = star_product(sym, eta_sym)
        sym = sym.map_coeffs(lambda v, c0=coeff: v * c0)
        out[c] = out.get(c, PolySymbol()) + sym
    return out


@functools.lru_cache(maxsize=1)
def _graded_zzbar_formal():
    return {w: graded_symbols(op)
            for w, op in expansion.graded_laplacian().items() if w <= 0}


def graded_zzbar(path):
    """{weight: {D_s power: symbol in (z, zbar)}} of the graded operators of
    weight <= 0, every entry a complex array on the path grid."""
    values = jet_values(path)
    return {w: {c: sym.map_coeffs(lambda jp: _to_field(substitute(jp, values), path.n))
                for c, sym in syms.items()}
            for w, syms in _graded_zzbar_formal().items()}


def metaplectic_substitute(symbols, frame):
    """Conjugate symbols in (z, zbar) by the moving metaplectic frame of the
    Jacobi flow.

    Applies the exact linear substitution
        z    -> (Ybar + i dYbar)/2 z + (Y + i dY)/2 zbar
        zbar -> (Ybar - i dYbar)/2 z + (Y - i dY)/2 zbar
    to a list of PolySymbols (entries scalars or sample arrays) in one
    pass, and returns the list of symbols sampled on the frame's grid.
    """
    Y, dY = frame.Y, frame.dY
    Yb, dYb = np.conj(Y), np.conj(dY)
    fields = [sym.map_coeffs(lambda v: _to_field(v, Y.shape[0])) for sym in symbols]
    return substitute_linear(fields, (0.5 * (Yb + 1j * dYb), 0.5 * (Y + 1j * dY)),
                             (0.5 * (Yb - 1j * dYb), 0.5 * (Y - 1j * dY)))


def d_half(frame):
    """Substituted odd term D_(1/2)(s, z, zbar): the cubic obstruction symbol.

    Equals (coefficient from the graded expansion) * tau_nu(s) *
    ((Ybar z + Y zbar)/2)^3; entries carry the exact binomial structure.
    """
    syms = graded_zzbar(frame.path)[Fraction(-1, 2)]
    if set(syms) != {0}:
        raise AssertionError("odd term should carry no D_s")
    return metaplectic_substitute([syms[0]], frame)[0]


def commutator_double_integral(path, d):
    """s-average of the ordered commutator double integral, as a scalar symbol.

    Computes pref * (1/2pi) int [d(s), int_0^s d(t) dt] ds along `path`
    with the star commutator and the engine-verified prefactor -i/4, so
    the result is exactly the correction the order-zero term acquires
    from the first conjugation.
    """
    cum = d.map_coeffs(path.antiderivative)
    comm = star_commutator(d, cum)
    return field_mean(path, comm).scale(complex(expansion.COMMUTATOR_PREFACTOR))


def d_zero_restricted(frame):
    """Explicit D_s-free part of the frame-conjugated order-zero term.

    With h the substituted oscillator and a_k the substituted order-zero
    symbols per D_s power,
        D_0|0 = a_0 - a_1 # h + a_2 # (h#h + i d_s h).
    """
    graded_num = graded_zzbar(frame.path)
    l1 = graded_num[Fraction(-1)]
    c_s = complex(l1[1][(0, 0)][0])
    h = metaplectic_substitute([l1[0]], frame)[0].scale(1.0 / c_s)
    l0 = graded_num[Fraction(0)]
    out = PolySymbol()
    for k in sorted(l0):
        a_k = metaplectic_substitute([l0[k]], frame)[0]
        if k == 0:
            out = out + a_k
        elif k == 1:
            out = out + star_product(a_k, h).scale(-1.0)
        elif k == 2:
            inner = star_product(h, h) + h.map_coeffs(lambda v: ds(frame.path, v)).scale(1j)
            out = out + star_product(a_k, inner)
        else:
            raise AssertionError(f"unexpected D_s power {k} at weight 0")
    return out


def entry_name(prefix, key):
    """The indeterminate of entry (m, n) of Q, of the odd term d or of its means M."""
    return f"{prefix}{key[0]}{key[1]}"


def ad_symbol(q_jet, op, weight=expansion.QQi(1), plus=None):
    """weight * [Op(q), op] + plus for a D_s-free symbol q, as an SOperator.

    `q_jet` is (q, dq/ds, ...), up to the top D_s power of `op`.  The
    D_s^k parts of op commute through the odd-only star commutator, and
    moving D_s^k past Op(q) adds -C(k, l) (-i)^l b_k # d_s^l q at D_s^(k-l).
    """
    QQi, minus_i_powers = expansion.QQi, expansion._MINUS_I_POWERS
    out = {}
    for k, b in op.terms.items():
        star_commutator(q_jet[0], b, weight, out.setdefault(k, PolySymbol()))
        for l in range(1, k + 1):
            star_product(b, q_jet[l], -weight * QQi(math.comb(k, l)) * minus_i_powers[l % 4],
                         out.setdefault(k - l, PolySymbol()))
    return expansion.SOperator(out) + (plus or expansion.SOperator())


def ad_series(q_jet, ops, t):
    """The weight t part of exp(-i ad_Q) applied to the graded operators:
    B_t = sum_j (-i)^j / j! ad_Q^j(ops[t - j/2]), by Horner's rule from
    the lowest weight up, B_w = ops[w] + (-i) / (2 (t - w) + 1)
    ad_Q(B_(w - 1/2)); a weight with no operator still takes its step.
    """
    w = min(ops)
    out = ops[w]
    while w < t:
        w += Fraction(1, 2)
        out = ad_symbol(q_jet, out, expansion.QQi(0, Fraction(-1, 2 * (t - w) + 1)),
                        ops.get(w, expansion.SOperator()))
    return out


def stage2_inputs():
    """(q_jet, ops) of the ad-series: Q with dQ/ds = -(d - M)/c_s from the
    first homological equation, and the exact stage 1 operators it reads,
    c_s D_s at weight -1 (h cancels its D_s-free part), d at -1/2 and D0
    at 0.  The entries of Q, d and M are indeterminates: the series never
    differentiates d.  The unit at weight -2 commutes with Q."""
    JP, SOperator = expansion.JetPolynomial, expansion.SOperator
    c_s, d, d0 = expansion.conjugated_symbols()
    q, means, odd = (PolySymbol({key: JP.var(entry_name(prefix, key)) for key in d.coeffs})
                     for prefix in "QMd")
    q_s = (odd - means).map_coeffs(lambda v: v * (-expansion.QQi(1) / c_s))
    ops = {Fraction(-1): SOperator({1: PolySymbol.constant(JP.const(c_s))}),
           Fraction(-1, 2): SOperator({0: odd}), Fraction(0): SOperator({0: d0})}
    return (q, q_s), ops


@functools.lru_cache(maxsize=1)
def order_zero_by_ad_series():
    """The D_s-free weight 0 part of the ad-series, derived once per test
    process; treat it as read-only."""
    return ad_series(*stage2_inputs(), Fraction(0)).ds_part(0)


def rotate_tangent(v, angle):
    """Rotate frame components by `angle` counterclockwise."""
    c, s = math.cos(angle), math.sin(angle)
    v = np.asarray(v, dtype=float)
    return np.array([c * v[0] - s * v[1], c * v[1] + s * v[0]])


def equator_start(c):
    """Equator start, phi = 0, with Clairaut constant c."""
    theta = math.asin(c)
    return (SurfacePoint.north(math.pi / 2, 0.0), (math.cos(theta), math.sin(theta)))


def exp_map(metric, p, v, t):
    """Geodesic endpoint and transported unit tangent after arclength t."""
    v = np.asarray(v, dtype=float)
    norm = math.hypot(v[0], v[1])
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"tangent must be unit length, |v| = {norm}")
    if t == 0.0:
        return p, v
    if t < 0.0:
        q, w = exp_map(metric, p, -v, -t)
        return q, -w
    flow = ode_flow(metric, (p, v), [t])
    return (SurfacePoint.north(float(flow.r[-1]), float(flow.phi[-1])),
            np.array([float(flow.v1[-1]), float(flow.v2[-1])]))


def smooth_at_poles(metric):
    """True when h(+-1) = 0 to roundoff, so h = (1 - u^2) q."""
    h = np.array(metric._table["h"])
    roundoff = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(h)))
    return max(abs(np.polyval(h, 1.0)), abs(np.polyval(h, -1.0))) <= roundoff


def ambient_beta(metric):
    """(beta, beta') as descending coefficients, for a smooth profile
    h = (1 - u^2) q: beta = h (2 + h) / (1 - u^2) = q (2 + h)."""
    h = np.array(metric._table["h"])
    q, _ = np.polydiv(h, [-1.0, 0.0, 1.0])
    beta = np.polymul(q, np.polyadd(h, [2.0]))
    return beta, np.polyder(beta)


def _ambient_rhs(metric):
    """x'' = mu x - kappa e3 on S^2 in R^3, with the Jacobi pair riding along.

    The metric is |dx|^2 + beta(u) du^2 with u = x3; with w = u' and
    f = 1 + h, kappa = (beta' w^2 / 2 - beta u |x'|^2) / f^2 and
    mu = kappa u - |x'|^2 keep x on the sphere.
    """
    beta, betap = ambient_beta(metric)

    def rhs(_s, state):
        x1, x2, u, p1, p2, w, y1, dy1, y2, dy2 = state
        f, k = metric.warp(u), metric.curvature_u_derivs(u)[0]
        speed2 = p1 * p1 + p2 * p2 + w * w
        kappa = (0.5 * np.polyval(betap, u) * w * w - np.polyval(beta, u) * u * speed2) / (f * f)
        mu = kappa * u - speed2
        return [p1, p2, w, mu * x1, mu * x2, mu * u - kappa, dy1, -k * y1, dy2, -k * y2]
    return rhs


def _clairaut_rhs(metric, c):
    """(r, phi, p_r) with the Jacobi pair, for the Clairaut constant c.

    With c = 0 these are the meridian equations, and r runs on through the
    poles: phi' = c / sin^2 r is then 0, and the centrifugal term
    c^2 u / sin^3 r is written phi'^2 u sin r.
    """
    hp = np.array(metric._table["hp"])

    def rhs(_s, state):
        r, _phi, pr, y1, dy1, y2, dy2 = state
        u, sr = math.cos(r), math.sin(r)
        f, k = metric.warp(u), metric.curvature_u_derivs(u)[0]
        dphi = c / (sr * sr) if c else 0.0
        return [pr / (f * f), dphi, -pr * pr * sr * np.polyval(hp, u) / f**3 + dphi * dphi * u * sr,
                dy1, -k * y1, dy2, -k * y2]
    return rhs


def _clairaut_start(metric, p, v, meridian):
    """(r, phi, p_r) of the north-chart start (p, v) in the Clairaut chart.

    A meridian keeps unit speed and runs along the meridian its heading
    picks: at a pole, phi0 + theta from the north pole and
    phi0 + pi - theta from the south pole, for v = (cos theta, sin theta).
    """
    f = metric.warp(math.cos(p.r))
    if not meridian:
        return [p.r, p.phi, f * v[0]]
    sign = 1.0 if v[0] >= 0 else -1.0
    return [p.r, p.phi + math.atan2(sign * v[1] * math.cos(p.r), abs(v[0])), f * sign]


def _from_clairaut(metric, y, c):
    """(r, phi, v1, v2) in the north chart from Clairaut samples (r, phi, p_r).

    A meridian's r runs past the poles; it is folded back into [0, pi],
    onto the opposite meridian phi + pi, where d_r points the other way.
    """
    r, phi, pr = y[:3]
    m = np.mod(r, 2.0 * math.pi)
    upper = m <= math.pi
    r = np.where(upper, m, 2.0 * math.pi - m)
    v1 = np.where(upper, 1.0, -1.0) * pr / metric.warp(np.cos(r))
    v2 = c / np.sin(r) if c else np.zeros_like(r)
    return r, np.where(upper, phi, phi + math.pi) % (2.0 * math.pi), v1, v2


def ambient_start(metric, r0, phi0, v):
    """(x, x') in R^3 for the north-chart point (r0, phi0) and frame components v."""
    st, ct = math.sin(r0), math.cos(r0)
    sp, cp = math.sin(phi0), math.cos(phi0)
    a = v[0] / metric.warp(ct)   # dr/ds
    return [st * cp, st * sp, ct,
            a * ct * cp - v[1] * sp, a * ct * sp + v[1] * cp, -a * st]


def from_ambient(metric, y, c):
    """(r, phi, v1, v2) in the north chart from ambient samples (x, x').

    v2 = c / sin r by Clairaut's relation.  Within MERIDIAN_TOL of a pole
    the position's azimuth is roundoff, so such a sample is read on the
    meridian its velocity runs along, with v2 = 0.  The pair is then
    scaled to unit length.
    """
    x = y[:3] / np.sqrt(np.sum(y[:3] ** 2, axis=0))
    p1, p2, p3 = y[3:6]
    sin_r = np.hypot(x[0], x[1])
    off_pole = sin_r >= MERIDIAN_TOL
    phi = np.where(off_pole, np.arctan2(x[1], x[0]), np.arctan2(p2, p1))
    v1 = metric.warp(x[2]) * (x[2] * (p1 * np.cos(phi) + p2 * np.sin(phi)) - sin_r * p3)
    v2 = np.divide(c, sin_r, out=np.zeros_like(sin_r), where=off_pole)
    norm = np.hypot(v1, v2)
    return np.arctan2(sin_r, x[2]), phi % (2.0 * math.pi), v1 / norm, v2 / norm


def embedded(metric, r, phi, v1, v2):
    """Points x and velocities dx/ds in R^3 of north-chart samples, which
    are regular where the north chart's angles are not: at a pole x is the
    pole and dx/ds the same vector on either meridian reading."""
    e_r = np.array([np.cos(r) * np.cos(phi), np.cos(r) * np.sin(phi), -np.sin(r)])
    e_phi = np.array([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    x = np.array([np.sin(r) * np.cos(phi), np.sin(r) * np.sin(phi), np.cos(r)])
    return x, v1 / metric.warp(np.cos(r)) * e_r + v2 * e_phi


OdeFlow = namedtuple("OdeFlow", "x dx r phi v1 v2 jacobi")


def ode_flow(metric, start, t_eval):
    """The geodesic through `start` = (point, unit tangent) and its Jacobi
    frame at the arclengths t_eval, by an ODE solve (see the module
    docstring).  Returns OdeFlow: the point x and velocity dx/ds in R^3,
    which are regular at the poles, the north-chart read-out (r, phi, v1,
    v2) and the (4, T) rows (y1, y1', y2, y2')."""
    p, v = start
    v = np.asarray(v, dtype=float)
    t_eval = np.asarray(t_eval, dtype=float)
    c = math.sin(p.r) * v[1]
    jacobi_start = [0.0, 1.0, 1.0, 0.0]
    if smooth_at_poles(metric):
        y = _solve(_ambient_rhs(metric), [*ambient_start(metric, p.r, p.phi, v), *jacobi_start],
                   t_eval, FLOW_TOL, t_eval[-1])
        x, dx = y[:3], y[3:6]
        r, phi, v1, v2 = from_ambient(metric, y, c)
        return OdeFlow(x, dx, r, phi, v1, v2, y[6:])
    meridian = abs(c) < MERIDIAN_TOL
    c = 0.0 if meridian else c
    y = _solve(_clairaut_rhs(metric, c), [*_clairaut_start(metric, p, v, meridian), *jacobi_start],
               t_eval, FLOW_TOL, t_eval[-1])
    rho, phi, pr = y[:3]
    f = metric.warp(np.cos(rho))
    along = np.array([np.cos(rho) * np.cos(phi), np.cos(rho) * np.sin(phi), -np.sin(rho)])
    across = np.array([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    x = np.array([np.sin(rho) * np.cos(phi), np.sin(rho) * np.sin(phi), np.cos(rho)])
    dx = pr / (f * f) * along + (c / np.sin(rho) if c else 0.0) * across
    r, phi, v1, v2 = _from_clairaut(metric, y, c)
    return OdeFlow(x, dx, r, phi, v1, v2, y[3:])


def state_distance(metric, p1, v1, p2, v2):
    """Distance in the unit tangent bundle between two nearby states.

    Surface distance is the local metric chord (second-order accurate for
    nearby points); the tangent gap is the frame angle difference.
    """
    rbar = 0.5 * (p1.r + p2.r)
    f = float(metric.warp(math.cos(rbar)))
    dphi = (p1.phi - p2.phi + math.pi) % (2.0 * math.pi) - math.pi
    dist = math.hypot(f * (p1.r - p2.r), math.sin(rbar) * dphi)
    th1, th2 = math.atan2(v1[1], v1[0]), math.atan2(v2[1], v2[0])
    dth = abs((th1 - th2 + math.pi) % (2.0 * math.pi) - math.pi)
    return dist + dth


def curvature(metric, p):
    """Gaussian curvature K(u = cos r) at the point p."""
    return float(metric.curvature_u_derivs(math.cos(p.r))[0])


Jet = namedtuple("Jet", "tau tau_s tau_nu tau_nunu")


def curvature_jet_arrays(metric, r, v1, v2):
    """The curvature jets (tau, tau_s, tau_nu, tau_nunu) at colatitudes r
    along unit tangents with frame components (v1, v2), whose +pi/2
    rotation (-v2, v1) is the unit normal; written in u = cos r."""
    u = np.cos(r)
    sin_r = np.sin(r)
    f = metric.warp(u)
    hp = np.polyval(metric._table["hp"], u)
    K, Kp, Kpp = metric.curvature_u_derivs(u)
    sin2 = 1.0 - u * u
    tau_s = -Kp * sin_r * v1 / f
    tau_nu = Kp * sin_r * v2 / f
    tau_nunu = (v2**2 / f**2) * (Kpp * sin2 - Kp * u - Kp * sin2 * hp / f) \
        - Kp * u * v1**2 / f**2
    return K, tau_s, tau_nu, tau_nunu


def analytic_jet(metric, p, tangent):
    """The curvature jet at p along a unit tangent (one sample of
    `curvature_jet_arrays`, normal = +pi/2 rotation of the tangent)."""
    v = np.asarray(tangent, dtype=float)
    return Jet(*(float(a[0]) for a in curvature_jet_arrays(metric, np.array([p.r]), v[:1], v[1:])))


def surface_integral_of_curvature(metric, n_quad=400):
    """Integral of K over the surface by Gauss-Legendre quadrature in u = cos r.

    dA = f(r) sin r dr dphi, so the integral is 2*pi * int_{-1}^{1} K(u) f(u) du.
    Equals 4*pi for smooth profiles (h(+-1) = 0); cone-pointed profiles show
    the angle defect.
    """
    x, w = np.polynomial.legendre.leggauss(n_quad)
    vals = metric.curvature_u_derivs(x)[0] * metric.warp(x)
    return 2.0 * math.pi * float(np.dot(w, vals))


def _curvature_along(metric, p, tangent, direction, fd_step):
    """t -> K(exp_p(t * fd_step * direction)), direction "normal" or "tangent"."""
    v = np.asarray(tangent, dtype=float)
    d = rotate_tangent(v, math.pi / 2) if direction == "normal" else v

    def k(t):
        q, _ = exp_map(metric, p, d, t * fd_step)
        return curvature(metric, q)
    return k


def fd_curvature_jet(metric, p, tangent, fd_step=1e-3):
    """Curvature jet by 5-point central differences along the normal geodesic
    (tau_nu, tau_nunu) and the tangent geodesic (tau_s)."""
    kn = _curvature_along(metric, p, tangent, "normal", fd_step)
    kt = _curvature_along(metric, p, tangent, "tangent", fd_step)
    n = [kn(t) for t in (-2, -1, 0, 1, 2)]
    t = [kt(t) for t in (-2, -1, 1, 2)]
    h = fd_step
    return Jet(
        tau=n[2],
        tau_s=(t[0] - 8 * t[1] + 8 * t[2] - t[3]) / (12 * h),
        tau_nu=(n[0] - 8 * n[1] + 8 * n[3] - n[4]) / (12 * h),
        tau_nunu=(-n[0] + 16 * n[1] - 30 * n[2] + 16 * n[3] - n[4]) / (12 * h * h),
    )


def tau_nunu_stencil(metric, p, tangent, points=5, fd_step=1e-3):
    """tau_nunu by a pure central stencil along the normal geodesic (5 or 7 points)."""
    k = _curvature_along(metric, p, tangent, "normal", fd_step)
    h = fd_step
    if points == 5:
        vals = [k(t) for t in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    if points == 7:
        vals = [k(t) for t in (-3, -2, -1, 0, 1, 2, 3)]
        num = (2 * vals[0] - 27 * vals[1] + 270 * vals[2] - 490 * vals[3]
               + 270 * vals[4] - 27 * vals[5] + 2 * vals[6])
        return num / (180 * h * h)
    raise ValueError("points must be 5 or 7")


def transvectant(a, b, j):
    """j-th transvectant P_j(a, b), term by term from its definition; P_0 is
    the product, degree drop 2j."""
    if j < 0:
        raise ValueError("transvectant order must be >= 0")
    out = PolySymbol()
    for (m, n), av in a.coeffs.items():
        for (mu, nu), bv in b.coeffs.items():
            acc = transvectant_constant((m, n), (mu, nu), j)
            key = (m + mu - j, n + nu - j)
            if acc == 0 or key[0] < 0 or key[1] < 0:
                continue
            term = acc * (av * bv)
            cur = out.coeffs.get(key)
            out[key] = term if cur is None else cur + term
    return out


def monomial(m, n, coeff=1):
    """The symbol coeff * z^m zbar^n."""
    return PolySymbol({(m, n): coeff})


def conjugate(a):
    """Complex conjugate symbol of `a`: swaps (m, n) and conjugates entries."""
    return PolySymbol({(n, m): np.conjugate(v) for (m, n), v in a.coeffs.items()})


def _ladder_matrices(size):
    q = np.arange(1, size)
    create = np.zeros((size, size))
    create[q, q - 1] = np.sqrt(q)  # a^dag |q-1> = sqrt(q) |q>
    annihilate = create.T.copy()
    return annihilate, create


def _monomial_matrices(max_degree, size):
    """Exact oscillator-basis matrices of Op_W(z^m zbar^n), m+n <= max_degree.

    Uses Op(z) = sqrt(2) a and the recursion
        Op_W(z^m zbar^n) = Op(z) Op_W(z^(m-1) zbar^n) - n Op_W(z^(m-1) zbar^(n-1))
    which follows from z # p = z p + d_zbar p.
    """
    ann, cre = _ladder_matrices(size)
    opz = math.sqrt(2) * ann
    opzb = math.sqrt(2) * cre
    mats = {(0, 0): np.eye(size)}
    for n in range(1, max_degree + 1):
        mats[(0, n)] = opzb @ mats[(0, n - 1)]
    for m in range(1, max_degree + 1):
        for n in range(0, max_degree + 1 - m):
            mat = opz @ mats[(m - 1, n)]
            if n > 0:
                mat = mat - n * mats[(m - 1, n - 1)]
            mats[(m, n)] = mat
    return mats


def degree(a):
    """Total degree of a symbol (0 for the zero symbol)."""
    return max((m + n for m, n in a.coeffs), default=0)


def weyl_quantize(a, n_trunc):
    """Matrix of the Weyl quantization of `a` on oscillator states 0..n_trunc-1.

    The matrix is built with enough padding that every returned entry equals
    the corresponding entry of the untruncated operator.
    """
    deg = degree(a)
    if n_trunc < deg + 16:
        raise ValueError(f"n_trunc must be >= deg + 16 = {deg + 16}")
    size = n_trunc + deg + 2
    mats = _monomial_matrices(deg, size)
    out = np.zeros((size, size), dtype=complex)
    for (m, n), v in a.coeffs.items():
        out += complex(v) * mats[(m, n)]
    return out[:n_trunc, :n_trunc]


def round_sphere_c2():
    """Exact |z|^4 coefficient of the averaged order-zero symbol on the round sphere.

    Substitutes Y = e^{is}, tau = 1 into the derived integrands.  Zero is
    the universal linear relation among the constants.
    """
    return expansion._round_sphere_mean(expansion.derive_normal_form_integrands()["z4"])


def _fundamental(jacobi):
    """Rows (y1, y1', y2, y2') to the fundamental matrix [[y2, y1], [y2', y1']]."""
    y1, dy1, y2, dy2 = jacobi
    return np.moveaxis(np.array([[y2, y1], [dy2, dy1]]), (0, 1), (-2, -1))


def _jacobi_rows(fund):
    return np.array([fund[..., 0, 1], fund[..., 1, 1], fund[..., 0, 0], fund[..., 1, 0]])


def rebase(path, j0):
    """The same closed geodesic re-parametrized from its sample j0.

    Rolls the periodic sample arrays; the chart, s measured from s_j0
    included, is the one traced from the start at sample j0.  Valid up
    to the closure defect.
    The Jacobi frame is re-based by linear algebra: with Phi(s) the
    fundamental matrix on states (y, y'), the new frame is
    Phi(s_j0 + t) Phi(s_j0)^-1, and samples past the end of the turn
    continue as Phi(s) Phi(end), since tau is periodic on a closed geodesic.
    """
    j0 = int(j0) % path.n
    roll = lambda a: np.roll(a, -j0, axis=0)
    init = (SurfacePoint.north(float(path.r[j0]), float(path.phi[j0])), tuple(path.tangent[j0]))
    fund, fund_end = _fundamental(path.jacobi), _fundamental(path.jacobi_end)
    base_inv = np.linalg.inv(fund[j0])
    ahead = np.concatenate([fund[j0:], fund[:j0] @ fund_end]) @ base_inv
    return GeodesicPath(
        metric=path.metric, init=init, n=path.n, weight=roll(path.weight),
        tau=roll(path.tau), tau_s=roll(path.tau_s),
        tau_nu=roll(path.tau_nu), tau_nunu=roll(path.tau_nunu),
        jacobi=_jacobi_rows(ahead),
        jacobi_end=_jacobi_rows(fund[j0] @ fund_end @ base_inv),
        closure_defect=path.closure_defect,
    )
