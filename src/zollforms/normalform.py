"""Degree-2 quantum Birkhoff normal form invariant along a closed geodesic.

The pipeline conjugates the graded half-density Laplacian (from
`expansion`, with exact jet coefficients instantiated on the traced
geodesic) in two stages:

  1. the moving metaplectic frame of the Jacobi flow, acting on Weyl
     symbols by the exact linear substitution
     z -> (Ybar + i Ybar')/2 z + (Y + i Y')/2 zbar and on the tangential
     derivative by D_s -> D_s - Op(h), h the substituted transverse
     oscillator;
  2. exp(i h^(1/2) Q) with Q solving the first homological equation,
     applied as the operator ad-series.

No commutator prefactor is typed by hand: stage 2 is generic operator
algebra on sampled symbols, and the explicit closed-form route
(`d_zero_restricted` + `commutator_double_integral`) exists as the
independent cross-check of the engine.

A `CoefficientFunction` is a complex sample vector on the geodesic grid;
a `SymbolField` is a PolySymbol whose entries are coefficient functions.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import expansion as _exp
from .fourier import periodic_mean, spectral_antiderivative, spectral_derivative
from .geodesic import trace_geodesic
from .jacobi import solve_fundamental
from .weyl import PolySymbol, diagonal_part, star_commutator, star_product

__all__ = [
    "InvariantRecord",
    "SOperator",
    "FirstObstructionError",
    "metaplectic_substitute",
    "d_half",
    "solve_first_homological",
    "commutator_double_integral",
    "d_zero_restricted",
    "conjugated_order_zero",
    "assemble_p1",
    "compute_H",
    "field_mean",
]

MEAN_TOL = 1e-6          # Zoll solvability tolerance for the first obstruction
OFFDIAG_DEGREE = 4

CoefficientFunction = np.ndarray
SymbolField = PolySymbol


class FirstObstructionError(RuntimeError):
    """A cubic obstruction mean is nonzero: the metric is not Zoll at tolerance."""

    def __init__(self, entry, value):
        super().__init__(
            f"first obstruction nonvanishing: not Zoll at tolerance "
            f"(entry z^{entry[0]} zbar^{entry[1]}, mean {value:.3e})")
        self.entry = entry
        self.value = value


def _to_field(value, n):
    out = np.asarray(value, dtype=complex)
    if out.ndim == 0:
        out = np.full(n, complex(out))
    return out


def field_mean(sym):
    """Trapezoidal s-mean of every entry: SymbolField -> scalar PolySymbol."""
    return PolySymbol({k: complex(periodic_mean(v)) for k, v in sym.coeffs.items()})


def _symbol_ds(sym):
    return sym.map_coeffs(spectral_derivative)


class SOperator:
    """Operator sum_k Op(a_k(s, z, zbar)) D_s^k with sampled symbol coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v.coeffs}

    @classmethod
    def symbol(cls, sym):
        return cls({0: sym})

    def __add__(self, other):
        out = dict(self.terms)
        for k, sym in other.terms.items():
            out[k] = out[k] + sym if k in out else sym
        return SOperator(out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return SOperator({k: v.scale(factor) for k, v in self.terms.items()})

    def map_symbols(self, fn):
        return SOperator({k: fn(v) for k, v in self.terms.items()})

    def ds_part(self, k):
        return self.terms.get(k, PolySymbol())

    def max_abs(self):
        return max((float(np.max(np.abs(v))) for sym in self.terms.values()
                    for v in sym.coeffs.values()), default=0.0)

    def compose(self, other):
        """Operator product; D_s is moved right with [D_s, Op(b)] = Op(-i b_s)."""
        out = {}
        for j, asym in self.terms.items():
            for k, bsym in other.terms.items():
                b_deriv = bsym
                for l in range(j + 1):
                    coeff = math.comb(j, l) * (-1j) ** l
                    term = star_product(asym, b_deriv).scale(coeff)
                    key = j - l + k
                    out[key] = out[key] + term if key in out else term
                    if l < j:
                        b_deriv = _symbol_ds(b_deriv)
        return SOperator(out)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def substitute_ds(self, h_sym):
        """Replace D_s by D_s - Op(h) (the metaplectic frame conjugation)."""
        shifted = SOperator({1: _unit_symbol(h_sym), 0: h_sym.scale(-1.0)})
        out = SOperator()
        for k, sym in sorted(self.terms.items()):
            power = SOperator({0: _unit_symbol(h_sym)})
            for _ in range(k):
                power = power.compose(shifted)
            out = out + SOperator.symbol(sym).compose(power)
        return out


def _unit_symbol(like):
    n = next(iter(like.coeffs.values())).shape[0] if like.coeffs else 0
    return PolySymbol({(0, 0): np.ones(n, dtype=complex)})


def _prune(op):
    """Drop identically zero sample arrays (kept by the generic symbol algebra)."""
    out = {}
    for k, sym in op.terms.items():
        kept = {key: v for key, v in sym.coeffs.items() if np.any(v)}
        if kept:
            out[k] = PolySymbol(kept)
    return SOperator(out)


@lru_cache(maxsize=1)
def _graded_formal():
    graded = _exp.graded_laplacian()
    return {w: _exp.graded_symbols(op) for w, op in graded.items() if w <= 0}


def _instantiate(path):
    """Graded operator family with jet values substituted on the path grid."""
    values = path.jets()
    n = path.n
    out = {}
    for w, syms in _graded_formal().items():
        terms = {}
        for c, sym in syms.items():
            terms[c] = PolySymbol({k: _to_field(jp.substitute(values), n)
                                   for k, jp in sym.coeffs.items()})
        out[w] = SOperator(terms)
    return out


def metaplectic_substitute(op_symbol, frame):
    """Conjugate a symbol by the moving metaplectic frame of the Jacobi flow.

    Applies the exact linear substitution
        z    -> (Ybar + i dYbar)/2 z + (Y + i dY)/2 zbar
        zbar -> (Ybar - i dYbar)/2 z + (Y - i dY)/2 zbar
    equivalently y -> (Ybar z + Y zbar)/2, eta -> (dYbar z + dY zbar)/2.
    Accepts a PolySymbol (entries scalars or sample arrays) and returns a
    SymbolField on the frame's grid.
    """
    Y, dY = frame.Y, frame.dY
    Yb, dYb = np.conj(Y), np.conj(dY)
    n = Y.shape[0]
    sym = op_symbol.map_coeffs(lambda v: _to_field(v, n))
    return sym.substitute_linear(
        (0.5 * (Yb + 1j * dYb), 0.5 * (Y + 1j * dY)),
        (0.5 * (Yb - 1j * dYb), 0.5 * (Y - 1j * dY)),
    )


def _oscillator(graded_num, frame):
    """(c_s, substituted oscillator h) read off the weight -1 graded term."""
    l1 = graded_num[Fraction(-1)]
    ds_sym = l1.ds_part(1)
    c_entry = ds_sym.coeffs.get((0, 0))
    if c_entry is None or set(ds_sym.coeffs) != {(0, 0)}:
        raise AssertionError("unexpected D_s structure at weight -1")
    c_s = complex(c_entry[0])
    osc = metaplectic_substitute(l1.ds_part(0), frame)
    return c_s, osc.scale(1.0 / c_s)


def d_half(frame):
    """Substituted odd term D_(1/2)(s, z, zbar): the cubic obstruction symbol.

    Equals (coefficient from the graded expansion) * tau_nu(s) *
    ((Ybar z + Y zbar)/2)^3; entries carry the exact binomial structure.
    The engine builds the same symbol inside `conjugated_order_zero`; this
    standalone form is the reference for tests and the closed-form route.
    """
    path = frame.path
    syms = _graded_formal()[Fraction(-1, 2)]
    if set(syms) != {0}:
        raise AssertionError("odd term should carry no D_s")
    values = path.jets()
    base = PolySymbol({k: _to_field(jp.substitute(values), path.n)
                       for k, jp in syms[0].coeffs.items()})
    return metaplectic_substitute(base, frame)


def solve_first_homological(d, c_s=2.0):
    """Q(s) with the conjugation removing the odd term: dQ/ds = -d/c_s, Q(0) = 0.

    Solvable on the period only when every entry of d has vanishing mean
    (the Zoll first obstruction); a mean above MEAN_TOL, or a NaN mean,
    raises FirstObstructionError with the offending entry.  Returns
    (Q, largest |mean|), the latter being the first obstruction of d.
    """
    means = {k: complex(periodic_mean(v)) for k, v in d.coeffs.items()}
    for k, m in sorted(means.items(), key=lambda kv: -abs(kv[1])):
        if not abs(m) <= MEAN_TOL:
            raise FirstObstructionError(k, m)
    q = d.map_coeffs(lambda v: spectral_antiderivative(v) * (-1.0 / c_s))
    return q, max((abs(m) for m in means.values()), default=0.0)


def commutator_double_integral(d):
    """s-average of the ordered commutator double integral, as a scalar symbol.

    Computes pref * (1/2pi) int [d(s), int_0^s d(t) dt] ds with the star
    commutator and the engine-verified prefactor -i/4, so the result is
    exactly the correction the order-zero term acquires from the first
    conjugation.
    """
    cum = d.map_coeffs(spectral_antiderivative)
    comm = star_commutator(d, cum)
    return field_mean(comm).scale(complex(_exp.COMMUTATOR_PREFACTOR))


def d_zero_restricted(frame):
    """Explicit D_s-free part of the frame-conjugated order-zero term.

    The closed-form route: with h the substituted oscillator and a_k the
    substituted order-zero symbols per D_s power,
        D_0|0 = a_0 - a_1 # h + a_2 # (h#h + i d_s h).
    Kept as the independent cross-check of the generic engine.
    """
    graded_num = _instantiate(frame.path)
    _, h = _oscillator(graded_num, frame)
    l0 = graded_num[Fraction(0)]
    out = PolySymbol()
    for k in sorted(l0.terms):
        a_k = metaplectic_substitute(l0.ds_part(k), frame)
        if k == 0:
            out = out + a_k
        elif k == 1:
            out = out + star_product(a_k, h).scale(-1.0)
        elif k == 2:
            inner = star_product(h, h) + _symbol_ds(h).scale(1j)
            out = out + star_product(a_k, inner)
        else:
            raise AssertionError(f"unexpected D_s power {k} at weight 0")
    return out


def conjugated_order_zero(path, frame):
    """Order-zero, D_s-free symbol after both conjugations (the engine route).

    Substitutes the metaplectic frame into every graded term, replaces
    D_s by D_s - Op(h), then applies the ad-series of exp(i h^(1/2) Q̂)
    with Q from the first homological equation.  Returns (symbol field,
    diagnostics dict); the diagnostics include `first_obstruction_max`,
    the largest |mean| of the odd term the first conjugation removes.
    """
    graded_num = _instantiate(path)
    c_s, h = _oscillator(graded_num, frame)
    conj = {}
    for w, op in graded_num.items():
        conj[w] = _prune(op.map_symbols(lambda s: metaplectic_substitute(s, frame))
                         .substitute_ds(h))
    # the weight -1 term must now be exactly c_s D_s
    diag = {"frame_cancellation": SOperator({0: conj[Fraction(-1)].ds_part(0)}).max_abs()}

    d = conj[Fraction(-1, 2)].ds_part(0)
    q, diag["first_obstruction_max"] = solve_first_homological(d, c_s=c_s)
    q_op = SOperator.symbol(q)

    result = {}
    half = Fraction(1, 2)
    for w, op in conj.items():
        term = op
        jmax = int((0 - w) / half)
        for j in range(jmax + 1):
            factor = (-1j) ** j / math.factorial(j)
            result_key = w + j * half
            scaled = term.scale(factor)
            result[result_key] = result.get(result_key, SOperator()) + scaled
            if j == jmax:
                break
            term = _prune(q_op.commutator(term))
            if not term.terms:
                break
    diag["odd_residual"] = result.get(Fraction(-1, 2), SOperator()).max_abs()
    out = result.get(Fraction(0), SOperator()).ds_part(0)
    return out, diag


@dataclass(frozen=True)
class InvariantRecord:
    """Per-geodesic degree-2 normal form data.

    c0, c01, c2 are the diagonal coefficients of the averaged order-zero
    symbol divided by 2 (the p1 normalization).  offdiag maps (m, n),
    m != n, m + n <= 4 to the complex averaged coefficient.  H_a / H_b are
    the two readings of the order-(-1) cluster-shift integral.
    """

    geodesic_id: str
    c0: float
    c01: float
    c2: float
    reality_defect: float
    offdiag: dict
    H_a: float
    H_b: float
    closure_defect: float
    first_obstruction_max: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def offdiag_max(self):
        return max((abs(v) for v in self.offdiag.values()), default=0.0)

    def as_dict(self):
        return {
            "geodesic_id": self.geodesic_id,
            "c0": self.c0, "c01": self.c01, "c2": self.c2,
            "reality_defect": self.reality_defect,
            "offdiag": {f"{m},{n}": [v.real, v.imag] for (m, n), v in self.offdiag.items()},
            "offdiag_max": self.offdiag_max,
            "H_a": self.H_a, "H_b": self.H_b,
            "closure_defect": self.closure_defect,
            "first_obstruction_max": self.first_obstruction_max,
        }


def compute_H(path, frame):
    """Both readings of the regularized cluster-shift integral H(gamma).

    H = int_gamma tau + [ (1/3) tau_nu y^3 int_0^s tau_nu J^3
                          - tau_nu u^2 J int_0^s tau_nu u J^2 ] ds
    with u the Jacobi solution with u(0) = 1, u'(0) = 0 and J the one with
    J(0) = 0, J'(0) = 1.  The standalone y is ambiguous in the source
    formula; reading a takes y = J, reading b takes y = u, and both values
    are reported.
    """
    u, Jf = frame.y2, frame.y1
    tn = path.tau_nu
    inner_J3 = spectral_antiderivative(tn * Jf**3)
    inner_uJ2 = spectral_antiderivative(tn * u * Jf**2)
    term2 = tn * u**2 * Jf * inner_uJ2
    base = 2.0 * math.pi * periodic_mean(path.tau)
    h_a = base + 2.0 * math.pi * periodic_mean(tn * Jf**3 / 3.0 * inner_J3 - term2)
    h_b = base + 2.0 * math.pi * periodic_mean(tn * u**3 / 3.0 * inner_J3 - term2)
    return float(h_a), float(h_b)


def assemble_p1(metric, init, n=2048, geodesic_id="geodesic", path=None, frame=None):
    """Full pipeline on one geodesic: trace, frame, conjugations, extraction.

    Returns the InvariantRecord with the diagonal invariant (c2 |z|^4 +
    c01 |z|^2 + c0, halved order-zero symbol), the off-diagonal averaged
    coefficients, and both H readings.
    """
    if path is None:
        path = trace_geodesic(metric, init, n)
    if frame is None:
        frame = solve_fundamental(path)
    sym, diag = conjugated_order_zero(path, frame)
    means = field_mean(sym)
    diag_coeffs, residue = diagonal_part(means)
    diag_coeffs = (diag_coeffs + [0.0] * 3)[:3]
    offdiag = {k: v / 2.0 for k, v in residue.coeffs.items()
               if k[0] + k[1] <= OFFDIAG_DEGREE}
    h_a, h_b = compute_H(path, frame)
    c0, c01, c2 = (complex(c) / 2.0 for c in diag_coeffs)
    return InvariantRecord(
        geodesic_id=geodesic_id,
        c0=c0.real, c01=abs(c01), c2=c2.real,
        reality_defect=max(abs(c0.imag), abs(c2.imag)),
        offdiag=offdiag,
        H_a=h_a, H_b=h_b,
        closure_defect=path.closure_defect,
        first_obstruction_max=diag["first_obstruction_max"],
        diagnostics=diag,
    )
