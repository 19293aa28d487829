"""Degree-2 quantum Birkhoff normal form invariant along a closed geodesic.

The pipeline conjugates the graded half-density Laplacian (from
`expansion`) in two stages:

  1. the moving metaplectic frame of the Jacobi flow, acting on Weyl
     symbols by the exact linear substitution
     y -> (Ybar z + Y zbar)/2, eta -> (Ybar' z + Y' zbar)/2
     (equivalently z -> (Ybar + i Ybar')/2 z + (Y + i Y')/2 zbar), and on
     the tangential derivative by D_s -> D_s - Op(h), h the substituted
     transverse oscillator;
  2. exp(i h^(1/2) Q) with Q solving the first homological equation,
     applied as the operator ad-series.

Stage 1 is the same algebra on every geodesic, so it runs once per
process in exact arithmetic, in `expansion.conjugated_symbols`, with the
curvature jets and Y, Ybar, Y', Ybar' as indeterminates; the constants
table reads its diagonal.  A geodesic only evaluates the jet polynomials
of what stage 2 reads.
Both series run by Horner's rule: the shift from the top D_s power down,
X <- X o (D_s - Op(h)) + Op(a_k), and the ad-series from the lowest
weight up to each weight read, one ad_Q per step.  No commutator
prefactor is typed by hand: both stages are generic operator algebra.
The explicit closed-form route (`d_half`, `d_zero_restricted` +
`commutator_double_integral`) is the independent cross-check of this
engine and lives with the tests (`tests/oracles.py`), with its own Weyl
symbols and substitution in (z, zbar).

In stage 2 a symbol's coefficient is a sample vector on the geodesic
grid, or a scalar where it is constant; means and antiderivatives along
s are the path's (`surface.GeodesicPath`), which weighs the samples by
ds/d(theta).  A product with a constant symbol takes no star product.
No symbol is differentiated numerically: the shift takes dh/ds in closed
form and the ad-series takes dQ/ds from the homological equation.  Q
takes one antiderivative per conjugate pair of the odd term, and a
Horner step sums its addend into its product's accumulator.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import expansion as _exp
from .expansion import SOperator
from .geodesic import trace_geodesic
from .jacobi import solve_fundamental
from .weyl import PolySymbol, diagonal_part, star_commutator, star_product

__all__ = [
    "InvariantRecord",
    "FirstObstructionError",
    "solve_first_homological",
    "ad_symbol",
    "frame_conjugated",
    "conjugated_order_zero",
    "assemble_p1",
    "compute_H",
    "field_mean",
]

MEAN_TOL = 1e-6          # Zoll solvability tolerance for the first obstruction
OFFDIAG_DEGREE = 4


class FirstObstructionError(RuntimeError):
    """A cubic obstruction mean is nonzero: the metric is not Zoll at tolerance."""

    def __init__(self, entry, value):
        super().__init__(
            f"first obstruction nonvanishing: not Zoll at tolerance "
            f"(entry z^{entry[0]} zbar^{entry[1]}, mean {value:.3e})")
        self.entry = entry
        self.value = value


def field_mean(path, sym):
    """Arclength mean along `path` of every sampled entry: a scalar PolySymbol."""
    return PolySymbol({k: complex(path.mean(v) if isinstance(v, np.ndarray) else v)
                       for k, v in sym.coeffs.items()})


def _constant(sym):
    """The value of a symbol constant in (z, zbar) (one entry, at (0, 0),
    that is no sample vector), else None."""
    v = sym.coeffs.get((0, 0))
    return None if len(sym.coeffs) != 1 or isinstance(v, np.ndarray) else v


def _add_product(out, a, b, weight):
    """out += weight * (a # b).  A constant operand makes the product a
    multiple of the other, so no star product is formed."""
    ca, cb = _constant(a), _constant(b)
    if ca is not None:
        out.add_scaled(b, ca * weight)
    elif cb is not None:
        out.add_scaled(a, cb * weight)
    elif a.coeffs and b.coeffs:
        star_product(a, b, weight, out)


def _max_abs(op):
    """The largest |coefficient| of an SOperator over every entry; NaN if any entry holds one."""
    return float(np.max([np.max(np.abs(v)) for sym in op.terms.values()
                         for v in sym.coeffs.values()], initial=0.0))


def ad_symbol(q_jet, op, weight, plus=None):
    """weight * [Op(q), op] for a D_s-free symbol q, plus the operator
    `plus` if given, summed into the same result.

    `q_jet` is (q, dq/ds, ...), up to the top D_s power of `op`.  The
    D_s^k parts of op commute through the odd-only star commutator, and
    moving D_s^k past Op(q) adds -C(k, l) (-i)^l b_k # d_s^l q at
    D_s^(k-l).  A constant part commutes with q.
    """
    q = q_jet[0]
    out = defaultdict(PolySymbol)
    for k, b in op.terms.items():
        if _constant(b) is None:
            star_commutator(q, b, weight, out[k])
        for l in range(1, k + 1):
            _add_product(out[k - l], b, q_jet[l],
                         -weight * math.comb(k, l) * _exp._MINUS_I_POWERS[l % 4])
    for k, sym in plus.terms.items() if plus is not None else ():
        out[k].add_scaled(sym)
    return SOperator(out)


_CONJUGATE_NAMES = {"Y": "Yb", "Yb": "Y", "dY": "dYb", "dYb": "dY"}   # the jets are real


def _conjugate(jp):
    """The formal complex conjugate of a jet polynomial in the jets and the frame."""
    return _exp.JetPolynomial({
        tuple(sorted((_CONJUGATE_NAMES.get(name, name), p) for name, p in mono)):
            _exp.QQi(c.re, -c.im) for mono, c in jp.terms.items()})


def _plan(symbols):
    """How `_evaluate` computes exact symbols on a path: (steps, slots).

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


def _path_values(path, frame):
    """The indeterminates' values on a path: its jets and its frame."""
    Y, dY = frame.Y, frame.dY
    return {**path.jets(), "Y": Y, "Yb": np.conj(Y), "dY": dY, "dYb": np.conj(dY)}


def _evaluate(plan, values):
    """The symbols of a `_plan` evaluated with numeric values (scalars or
    arrays) per name.

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


@lru_cache(maxsize=1)
def _stage1():
    """`expansion.conjugated_symbols` with its evaluation plan, once per
    process: (c_s as a float, d, D0, plan).  Every caller shares the
    result; treat it as read-only."""
    c_s, d, d0 = _exp.conjugated_symbols()
    return float(c_s.re), d, d0, _plan([d, d0])


def frame_conjugated(path, frame):
    """Stage 1 on a path: (c_s, {weight: SOperator}), the graded operators
    after the frame and D_s -> D_s - Op(h) as far as stage 2 reads them.

    The weight -1 operator is c_s D_s, as h is defined to cancel its
    D_s-free part; c_s = 2 makes the scaling by 1/c_s exact.  Weight -1/2
    holds the odd term, weight 0 the D_s-free part of its operator.  The
    unit at weight -2 commutes with Q and is left out.
    """
    c_s, _, _, plan = _stage1()
    d, d0 = _evaluate(plan, _path_values(path, frame))
    return c_s, {Fraction(-1): SOperator({1: PolySymbol.constant(c_s)}),
                 Fraction(-1, 2): SOperator({0: d}), Fraction(0): SOperator({0: d0})}


def solve_first_homological(path, d, c_s=2.0):
    """Q(s) with the conjugation removing the odd term: Q' = -(d - <d>)/c_s, Q(0) = 0.

    Solvable on the period only when every entry of d has vanishing mean
    (the Zoll first obstruction); a mean above MEAN_TOL, or a NaN mean,
    raises FirstObstructionError with the offending entry.  The means
    below it are taken out before the antiderivative, so Q is periodic
    and dQ/ds, which comes exactly from the equation, is its derivative.
    Returns ((Q, dQ/ds), means of d as a scalar PolySymbol); the largest
    |mean| is the first obstruction of d.  Means and antiderivatives are
    taken along `path`.  The engine's d is a real symbol, so
    where d[n,m] = conj d[m,n] bit for bit, Q[n,m] = conj Q[m,n] takes no
    antiderivative of its own.
    """
    means = {k: path.mean(v) for k, v in d.coeffs.items()}
    for k, m in sorted(means.items(), key=lambda kv: -abs(kv[1])):
        if not abs(m) <= MEAN_TOL:
            raise FirstObstructionError(k, complex(m))
    q_s = PolySymbol({k: (v - means[k]) * (-1.0 / c_s) for k, v in d.coeffs.items()})
    q = {}
    for (m, n), v in sorted(q_s.coeffs.items()):
        paired = (n, m) in q and np.array_equal(d[m, n], np.conj(d[n, m]))
        q[m, n] = np.conj(q[n, m]) if paired else path.antiderivative(v)
    return (PolySymbol(q), q_s), PolySymbol({k: complex(m) for k, m in means.items()})


def _ad_series(q_jet, ops, t):
    """The weight t part of exp(-i ad_Q) applied to the graded operators:
    B_t = sum_j (-i)^j / j! ad_Q^j(ops[t - j/2]).

    Horner's rule steps over the half-integer weights from the lowest up
    to t, B_w = ops[w] + (-i) / (2 (t - w) + 1) ad_Q(B_(w - 1/2)); a weight
    with no operator still takes its step.
    """
    w = min(ops)
    out = ops[w]
    while w < t:
        w += Fraction(1, 2)
        out = ad_symbol(q_jet, out, -1j / int(2 * (t - w) + 1), plus=ops.get(w))
    return out


def conjugated_order_zero(path, frame):
    """Order-zero, D_s-free symbol after both conjugations (the engine route).

    Takes the stage 1 operators of `frame_conjugated`, then applies the
    ad-series of exp(i h^(1/2) Q̂) with Q from the first homological
    equation.  Returns (symbol field, diagnostics dict); the diagnostics
    are `first_obstruction_max` (the largest |mean| of the odd term the
    first conjugation removes) and `odd_residual` (what is left at weight
    -1/2 after it besides those means: ~0 when the ad-series cancels the
    oscillating part of the odd term).
    """
    c_s, conj = frame_conjugated(path, frame)
    d = conj[Fraction(-1, 2)].ds_part(0)
    q_jet, means = solve_first_homological(path, d, c_s=c_s)
    # the means of d stay at weight -1/2, reported as the first obstruction
    odd = _ad_series(q_jet, conj, Fraction(-1, 2)) + SOperator({0: -means})
    diag = {"first_obstruction_max": max((abs(m) for m in means.coeffs.values()), default=0.0),
            "odd_residual": _max_abs(odd)}
    del odd   # not held through the weight 0 series
    return _ad_series(q_jet, conj, Fraction(0)).ds_part(0), diag


@dataclass(frozen=True)
class InvariantRecord:
    """Per-geodesic degree-2 normal form data.

    c0, c01, c2 are the diagonal coefficients of the averaged order-zero
    symbol divided by 2 (the p1 normalization).  offdiag maps (m, n),
    m != n, m + n <= 4 to the complex averaged coefficient.  H_b is the
    order-(-1) cluster-shift integral H(gamma) of `compute_H`, with
    c0 = -H_b / (16 pi), and H_scale the integral of its integrand's
    absolute value.
    """

    geodesic_id: str
    c0: float
    c01: float
    c2: float
    reality_defect: float
    offdiag: dict
    H_b: float
    H_scale: float
    closure_defect: float
    first_obstruction_max: float
    diagnostics: dict = field(default_factory=dict)   # odd_residual, the engine self-check

    @property
    def offdiag_max(self):
        return float(np.max(np.abs(list(self.offdiag.values())), initial=0.0))   # NaN propagates

    @property
    def h_relation(self):
        """|c0 + H_b/(16 pi)| / (H_scale/(16 pi)): the residual of
        c0 = -H/(16 pi) relative to the size of the terms H sums, as the
        identity suite normalizes.  Relative to |c0| it would read roundoff
        as an O(1) residual where c0 is 0, as on the equator of a profile
        with h'(0) = +-1."""
        gap = abs(self.c0 + self.H_b / (16.0 * math.pi))
        scale = self.H_scale / (16.0 * math.pi)
        return gap / scale if scale else math.inf

    def as_dict(self):
        return {
            "geodesic_id": self.geodesic_id,
            "c0": self.c0, "c01": self.c01, "c2": self.c2,
            "reality_defect": self.reality_defect,
            "offdiag": {f"{m},{n}": [v.real, v.imag] for (m, n), v in self.offdiag.items()},
            "offdiag_max": self.offdiag_max,
            "H_b": self.H_b,
            "h_relation": self.h_relation,
            "closure_defect": self.closure_defect,
            "first_obstruction_max": self.first_obstruction_max,
            "diagnostics": dict(self.diagnostics),
        }


def compute_H(path, frame):
    """The regularized cluster-shift integral H(gamma), c0 = -H / (16 pi),
    and its scale: the same integral of the integrand's absolute value.

    H = int_gamma tau + [ (1/3) tau_nu u^3 int_0^s tau_nu J^3
                          - tau_nu u^2 J int_0^s tau_nu u J^2 ] ds
    with u the Jacobi solution with u(0) = 1, u'(0) = 0 and J the one with
    J(0) = 0, J'(0) = 1.  The source formula leaves the standalone factor
    of the cubic term open; it is u here, the one reading under which H
    is base-point invariant and c0 = -H / (16 pi) holds to roundoff
    (pinned in the tests on cone and smooth profiles); reading J there
    satisfies neither.
    """
    u, Jf = frame.y2, frame.y1
    tn = path.tau_nu
    tn_J2 = tn * Jf * Jf
    inner_J3 = path.antiderivative(tn_J2 * Jf)
    inner_uJ2 = path.antiderivative(tn_J2 * u)
    tn_u2 = tn * u * u
    cubic = tn_u2 * u * (inner_J3 / 3.0) - tn_u2 * Jf * inner_uJ2
    H = float(2.0 * math.pi * path.mean(path.tau) + 2.0 * math.pi * path.mean(cubic))
    scale = float(2.0 * math.pi * (path.mean(np.abs(path.tau)) + path.mean(np.abs(cubic))))
    return H, scale


def assemble_p1(metric, init, n=2048, geodesic_id="geodesic", path=None, frame=None):
    """Full pipeline on one geodesic: trace, frame, conjugations, extraction.

    Returns the InvariantRecord with the diagonal invariant (c2 |z|^4 +
    c01 |z|^2 + c0, halved order-zero symbol), the off-diagonal averaged
    coefficients, and H(gamma).
    """
    if path is None:
        path = trace_geodesic(metric, init, n)
    if frame is None:
        frame = solve_fundamental(path)
    sym, diag = conjugated_order_zero(path, frame)
    means = field_mean(path, sym)
    diag_coeffs, residue = diagonal_part(means)
    diag_coeffs = (diag_coeffs + [0.0] * 3)[:3]
    # every key, also where the pruned engine symbol holds no entry, so
    # that the key set does not depend on which means come out exactly 0
    offdiag = {(m, n): residue[m, n] / 2.0 for m in range(OFFDIAG_DEGREE + 1)
               for n in range(OFFDIAG_DEGREE + 1 - m) if m != n}
    c0, c01, c2 = (complex(c) / 2.0 for c in diag_coeffs)
    H, H_scale = compute_H(path, frame)
    return InvariantRecord(
        geodesic_id=geodesic_id,
        c0=c0.real, c01=abs(c01), c2=c2.real,
        reality_defect=float(np.maximum(abs(c0.imag), abs(c2.imag))),   # NaN propagates
        offdiag=offdiag,
        H_b=H,
        H_scale=H_scale,
        closure_defect=path.closure_defect,
        first_obstruction_max=diag["first_obstruction_max"],
        diagnostics={"odd_residual": diag["odd_residual"]},
    )
