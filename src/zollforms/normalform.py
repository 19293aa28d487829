"""Degree-2 quantum Birkhoff normal form invariant along a closed geodesic.

The pipeline conjugates the graded half-density Laplacian (from
`expansion`) in two stages:

  1. the moving metaplectic frame of the Jacobi flow, acting on Weyl
     symbols by the exact linear substitution
     y -> (Ybar z + Y zbar)/2, eta -> (Ybar' z + Y' zbar)/2
     (equivalently z -> (Ybar + i Ybar')/2 z + (Y + i Y')/2 zbar), and on
     the tangential derivative by D_s -> D_s - Op(h), h the substituted
     transverse oscillator;
  2. exp(i h^(1/2) Q) with Q solving the first homological equation
     dQ/ds = -(d - M)/c_s, d the odd term of weight -1/2 and M its means.

Stage 1 is the same algebra on every geodesic, so it runs once per
process in exact arithmetic (`expansion.conjugated_symbols`): it gives d
and D0, the framed and shifted D_s-free part of weight 0.  Stage 2 then
leaves at weight 0 exactly

    Z = D0 - (i/2) [Q, d + M],

the star commutator of Q with d + M: in the series exp(-i ad_Q) the
weight -1 operator c_s D_s turns ad_Q^2 into a commutator with dQ/ds,
and no operator sits at weight -3/2.  A geodesic only evaluates,
integrates and averages: it evaluates d and D0 on its jets and frame,
takes Q from the homological equation (one antiderivative per conjugate
pair of d), and adds to the mean of D0, per pair (a, b) of entries of d,
the exact commutator weights of z^a and z^b times <Q_a d_b> + <Q_a> M_b.
Means and antiderivatives are the path's (`surface.GeodesicPath`).  Two
independent routes check this engine and live with the tests
(`tests/oracles.py`): the closed form on the samples (`d_half`,
`d_zero_restricted` + `commutator_double_integral`), and the exact
ad-series, which derives Z without assuming its form.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expansion as _exp
from .geodesic import trace_geodesic
from .jacobi import solve_fundamental
from .weyl import PolySymbol, diagonal_part, star_commutator

__all__ = [
    "InvariantRecord",
    "FirstObstructionError",
    "solve_first_homological",
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
def _symbols():
    """Stage 1 with its evaluation plan, and the weights of stage 2's closed
    form, once per process: (c_s as a float, plan of d and D0, pairs).

    pairs holds, per pair (a, b) of keys of d whose unit monomials do not
    commute, (a, b, weights): the entries (key, w) of
    -(i/2) [z^a, z^b], each an exact weight taken to a complex number.
    The pair adds w (<Q_a d_b> + <Q_a> M_b) to entry `key` of the mean of
    Z.  Every caller shares the result; treat it as read-only.
    """
    c_s, d, d0 = _exp.conjugated_symbols()
    weight = 2 * _exp.COMMUTATOR_PREFACTOR   # -i/2
    pairs = []
    for a in d.coeffs:
        for b in d.coeffs:
            comm = star_commutator(PolySymbol({a: 1}), PolySymbol({b: 1}), weight)
            if comm.coeffs:
                pairs.append((a, b, tuple((key, complex(w)) for key, w in comm.items())))
    return float(c_s.re), _plan([d, d0]), tuple(pairs)


def frame_conjugated(path, frame):
    """Stage 1 on a path: [d, D0], the odd term of weight -1/2 and the
    D_s-free part of weight 0, evaluated on the path's jets and frame."""
    return _evaluate(_symbols()[1], _path_values(path, frame))


def solve_first_homological(path, d, c_s=2.0):
    """Q(s) with the conjugation removing the odd term: Q' = -(d - <d>)/c_s, Q(0) = 0.

    Solvable on the period only when every entry of d has vanishing mean
    (the Zoll first obstruction); a mean above MEAN_TOL, or a NaN mean,
    raises FirstObstructionError with the offending entry.  The means
    below it are taken out before the antiderivative, so Q is periodic.
    Returns (Q, means of d as a scalar PolySymbol).  The engine's d is a
    real symbol, so where d[n,m] = conj d[m,n] bit for bit, Q[n,m] =
    conj Q[m,n] takes no antiderivative of its own.
    """
    means = {k: path.mean(v) for k, v in d.coeffs.items()}
    for k, m in sorted(means.items(), key=lambda kv: -abs(kv[1])):
        if not abs(m) <= MEAN_TOL:
            raise FirstObstructionError(k, complex(m))
    q = {}
    for (m, n), v in sorted(d.coeffs.items()):
        paired = (n, m) in q and np.array_equal(d[m, n], np.conj(d[n, m]))
        q[m, n] = (np.conj(q[n, m]) if paired
                   else path.antiderivative((v - means[m, n]) * (-1.0 / c_s)))
    return PolySymbol(q), PolySymbol({k: complex(m) for k, m in means.items()})


def conjugated_order_zero(path, frame):
    """The engine route: (the mean of the order-zero, D_s-free symbol
    after both conjugations as a scalar PolySymbol, first_obstruction_max).

    The mean of Z = D0 - (i/2) [Q, d + M]: the mean of D0 plus, per pair
    of `_symbols`, its weights times <Q_a d_b> + <Q_a> M_b.
    first_obstruction_max is the largest |mean| of the odd term, all that
    the conjugation leaves at weight -1/2.
    """
    c_s, _, pairs = _symbols()
    d, d0 = frame_conjugated(path, frame)
    q, means = solve_first_homological(path, d, c_s=c_s)
    q_means = {a: path.mean(v) for a, v in q.coeffs.items()}
    sums = dict(field_mean(path, d0).coeffs)
    for a, b, weights in pairs:
        mean = path.mean(q[a], d[b]) + q_means[a] * means[b]
        for key, w in weights:
            sums[key] = sums.get(key, 0.0) + w * mean
    return PolySymbol(sums), max((abs(m) for m in means.coeffs.values()), default=0.0)


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
    means, first_obstruction_max = conjugated_order_zero(path, frame)
    diag_coeffs, residue = diagonal_part(means)
    diag_coeffs = (diag_coeffs + [0.0] * 3)[:3]
    # every key, also where the engine symbol holds no entry, so
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
        first_obstruction_max=first_obstruction_max,
    )
