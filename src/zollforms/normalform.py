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
and no operator sits at weight -3/2.

`_symbols` writes every entry of d and D0, once per process and exactly,
over real monomials: a curvature jet times a product of the real Jacobi
rows y1, y2, dy1, dy2 (Y = y2 + i y1, dY = dy2 + i dy1).  Entry (n, m)
of either is + or - the conjugate of entry (m, n), checked exactly
there, so one entry of each mirror pair is evaluated, as its real and
imaginary parts: real rows of coefficients over the monomials.  A
geodesic only evaluates, integrates and averages.  Block by block of
samples it forms the monomials times the weight f = ds/d(theta) and
sums them into the rows by one real matrix product, pointwise, so terms
cancel sample by sample before the pairwise sums of the mean; D0 is read
only through its means.  The same product gives the first entry of each
mirror pair of the odd term as a theta-density d f.  Stage 2 transforms
them forward, once, reads their means M off the zero modes (the first
obstruction gate, `first_obstruction_means`), and adds to the mean of
D0, per pair (a, b) of entries of d, the commutator weights of z^a and
z^b (`expansion.stage2_weights`, taken to complex numbers) times
<Q_a d_b> + <Q_a> M_b; the mirror pairs come as exact conjugates.  Q
is never sampled: each of these means is a pairing of the spectrum of
Q_a, the antiderivative of -(d_a - M_a)/c_s, with a spectrum the engine
already holds (`fourier.spectral_pairing`), so the engine takes no
inverse transform.  It derives no constant itself and imports nothing
from `weyl`.  On a meridian d is exactly 0 (tau_nu = 0), and stage 2
adds nothing.  Four independent routes check this engine and live with
the tests (`tests/oracles.py`): the exact symbols evaluated term by term
on the samples (`frame_conjugated`), stage 2 with Q sampled on the grid
(`order_zero_by_q`), the closed form on the samples (`d_half`,
`d_zero_restricted` + `commutator_double_integral`), and the exact
ad-series, which derives Z without assuming its form.

The construction fixes two facts, which the record (`InvariantRecord`)
carries as no field: a diagonal entry of D0 is evaluated as its real
part alone and stage 2 adds to it in exact conjugate pairs, so the
(0, 0) and (2, 2) means are exactly real; and the mean holds D0's keys
alone, all of even degree.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expansion as _exp
from .fourier import antiderivative_spectrum, full_spectrum, spectral_pairing
from .geodesic import trace_geodesic
from .jacobi import solve_fundamental

__all__ = [
    "InvariantRecord",
    "FirstObstructionError",
    "frame_terms",
    "first_obstruction_means",
    "conjugated_order_zero",
    "assemble_p1",
    "compute_H",
]

MEAN_TOL = 1e-6          # Zoll solvability tolerance for the first obstruction
BLOCK = 4096             # samples per block of monomials; grids are powers of two


class FirstObstructionError(RuntimeError):
    """A cubic obstruction mean is nonzero: the metric is not Zoll at tolerance."""

    def __init__(self, entry, value):
        super().__init__(
            f"first obstruction nonvanishing: not Zoll at tolerance "
            f"(entry z^{entry[0]} zbar^{entry[1]}, mean {value:.3e})")
        self.entry = entry
        self.value = value


_ROWS = ("y1", "y2", "dy1", "dy2")      # the real Jacobi rows, in a monomial's product order
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))   # i^k as (re, im), k mod 4


@lru_cache(maxsize=None)
def _binomial(a, b):
    """(y2 + i y1)^a (y2 - i y1)^b as ((power of y1, re, im), ...), with
    Gaussian integer coefficients; the power of y2 is a + b less that of y1."""
    out = {}
    for k in range(a + 1):
        for l in range(b + 1):
            re, im = _I_POWERS[(k + 3 * l) % 4]
            c = math.comb(a, k) * math.comb(b, l)
            acc = out.setdefault(k + l, [0, 0])
            acc[0] += c * re
            acc[1] += c * im
    return tuple((p, re, im) for p, (re, im) in out.items() if re or im)


def _real_monomials(jp):
    """A jet polynomial in the jets and Y, Yb, dY, dYb over the real
    monomials, exactly: (q, {((name, power), ...) sorted by name: (re, im)}),
    the coefficient of a monomial being (re + i im) / q in Gaussian
    integers, q the common denominator of the polynomial's coefficients."""
    scale = math.lcm(*(q.denominator for c in jp.terms.values() for q in (c.re, c.im)))
    out = {}
    for mono, c in jp.terms.items():
        cr, ci = (q.numerator * (scale // q.denominator) for q in (c.re, c.im))
        powers = dict(mono)
        jets = [(name, p) for name, p in mono if name not in ("Y", "Yb", "dY", "dYb")]
        y, dy = (powers.get(a, 0) + powers.get(b, 0) for a, b in (("Y", "Yb"), ("dY", "dYb")))
        for p1, r1, i1 in _binomial(powers.get("Y", 0), powers.get("Yb", 0)):
            for p2, r2, i2 in _binomial(powers.get("dY", 0), powers.get("dYb", 0)):
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                rows = (("y1", p1), ("y2", y - p1), ("dy1", p2), ("dy2", dy - p2))
                key = tuple(sorted(jets + [(name, p) for name, p in rows if p]))
                acc_re, acc_im = out.get(key, (0, 0))
                out[key] = (acc_re + cr * re - ci * im, acc_im + cr * im + ci * re)
    return scale, {key: c for key, c in out.items() if c != (0, 0)}


def _mirror_signs(exact):
    """{key: sign} for the first entry of each mirror pair of an exact
    real-monomial symbol, in its order: entry (n, m) is sign * conj of
    entry (m, n), so a diagonal entry is real (+1) or imaginary (-1).
    Raises AssertionError where no sign holds."""
    signs = {}
    for (m, n), (scale, terms) in exact.items():
        if (n, m) in signs:
            continue
        for sign in (1, -1):
            if exact.get((n, m)) == (scale, {mono: (sign * re, -sign * im)
                                             for mono, (re, im) in terms.items()}):
                signs[m, n] = sign
                break
        else:
            raise AssertionError(f"entry {(n, m)} is not +- the conjugate of entry {(m, n)}")
    return signs


def _unfold(values, mirrors):
    """The entries of `mirrors` ((key, sign) per entry, in order) that
    `values` gives or mirrors: one it leaves out is sign * conj of entry
    (n, m)."""
    return {key: values[key] if key in values else sign * np.conj(values[key[::-1]])
            for key, sign in mirrors if key in values or key[::-1] in values}


def _block_plan(monomials):
    """How a block of samples takes every monomial times f: (steps, rows).

    Row 0 holds f and rows 1, 2, ... the monomials in order.  Each step
    (row, row of its prefix, factor) is one product; a monomial's
    factors, the real rows first, are taken in order, and a prefix that
    is no monomial sits in the row after them of its depth.  The
    monomials are walked in lexicographic order of their factors, i.e.
    depth first, so a prefix is still held while the monomials below it
    are taken.
    """
    rank = {name: i for i, name in enumerate(_ROWS)}

    def factors(mono):
        ordered = sorted(mono, key=lambda item: (rank.get(item[0], len(rank)), item[0]))
        return tuple(name for name, p in ordered for _ in range(p))

    seqs = [factors(mono) for mono in monomials]
    where = {(): 0}
    row = {seq: i for i, seq in enumerate(seqs, 1)}
    steps = []
    for seq in sorted(seqs):
        for depth in range(1, len(seq) + 1):
            prefix = seq[:depth]
            if prefix not in where:
                where[prefix] = row.get(prefix, len(seqs) + depth)
                steps.append((where[prefix], where[prefix[:-1]], prefix[-1]))
    return tuple(steps), len(seqs) + 1 + max(map(len, seqs))


@dataclass(frozen=True)
class _Stage:
    """The per-process part of the engine (`_symbols`); read-only."""

    c_s: float            # the weight -1 operator is c_s D_s
    d_mirrors: tuple      # (key, sign) per entry of d, in its order
    d_firsts: tuple       # the first entry of each mirror pair of d, in its order
    d0_mirrors: tuple     # (key, sign) per entry of D0, in its order
    monomials: tuple      # the columns of `coeffs`
    steps: tuple          # of `_block_plan`
    block_rows: int
    coeffs: np.ndarray    # rows: the parts of D0's first entries per mirror pair, then d's
    d0_parts: tuple       # (key, 1 or 1j) per D0 row of `coeffs`
    products: tuple       # (a, row of a, pairs): per first entry a of d, the pairs (a, b) as
                          # (b, row of b or of its mirror, mirrored?, weights, mirror weights)


@lru_cache(maxsize=1)
def _symbols():
    """Stage 1 over real monomials with the block plan, and the weights of
    stage 2's closed form, once per process: a `_Stage`.

    Every entry of d and D0 is written exactly over the real monomials;
    the first entry of each mirror pair is kept, as one real row of
    coefficients per part: the real and imaginary parts of an
    off-diagonal entry, the real or the imaginary part of a diagonal one.
    d must be a real symbol (each sign +1), so that Q and every mean of
    stage 2 pair up as conjugates too.  A weight of stage 2, per pair
    (a, b) of keys of d whose unit monomials do not commute, is an entry
    (key, w) of `expansion.stage2_weights`, taken to a complex number;
    the pair adds w (<Q_a d_b> + <Q_a> M_b) to entry `key` of the mean
    of Z.
    `products` holds the pairs whose a is a first entry of d, by a, each
    with the row of d that gives b (b's own, or its mirror's for a
    mirrored b, whose density is the conjugate) and with the weights of
    its mirror pair (n_a m_a, n_b m_b), whose term is the conjugate.
    Every caller shares the result; treat it as read-only.
    """
    c_s, d, d0 = _exp.conjugated_symbols()
    exact = tuple({key: _real_monomials(jp) for key, jp in sym.coeffs.items()} for sym in (d, d0))
    d_signs, d0_signs = (_mirror_signs(sym) for sym in exact)
    if set(d_signs.values()) != {1}:
        raise AssertionError("the odd term is not a real symbol")
    # D0's rows, then d's: (exact entry, key, part)
    parts = [(sym, key, unit) for sym, signs in zip(exact[::-1], (d0_signs, d_signs))
             for key, sign in signs.items()
             for unit in ((1, 1j) if key[0] != key[1] else (1,) if sign == 1 else (1j,))]
    monomials = tuple(sorted({mono for sym, key, _ in parts for mono in sym[key][1]}))
    column = {mono: i for i, mono in enumerate(monomials)}
    coeffs = np.zeros((len(parts), len(monomials)))
    for row, (sym, key, unit) in enumerate(parts):
        scale, terms = sym[key]
        for mono, c in terms.items():
            coeffs[row, column[mono]] = c[0 if unit == 1 else 1] / scale   # rounded once
    coeffs.flags.writeable = False
    table = {pair: tuple((key, complex(w)) for key, w in sym.items())
             for pair, sym in _exp.stage2_weights().items()}
    steps, block_rows = _block_plan(monomials)
    rows = {key: i for i, key in enumerate(d_signs)}
    return _Stage(
        c_s=float(c_s.re), d_mirrors=tuple((key, 1) for key in d.coeffs),
        d_firsts=tuple(d_signs),
        d0_mirrors=tuple((key, d0_signs.get(key) or d0_signs[key[::-1]]) for key in d0.coeffs),
        monomials=monomials, steps=steps, block_rows=block_rows, coeffs=coeffs,
        d0_parts=tuple((key, unit) for sym, key, unit in parts if sym is exact[1]),
        products=tuple((a, row, tuple((b, rows.get(b, rows.get(b[::-1])), b not in rows,
                                       table[a, b], table[a[::-1], b[::-1]])
                                      for b in d.coeffs if table[a, b]))
                       for a, row in rows.items()))


def frame_terms(path, frame):
    """Stage 1 on a path: (the mean of D0 as {key: complex}, the odd
    term's first entries per mirror pair as theta-densities d f, one row
    each of a (2, N) complex array, in the odd term's order).

    Per block of BLOCK samples the monomials times f fill one block
    array, and one matrix product of the real coefficient rows sums them
    pointwise; a row's mean is its block sums (pairwise) over the grid.
    """
    stage = _symbols()
    n = path.n
    width = min(n, BLOCK)          # both powers of two, so blocks tile the grid
    values = {**path.jets(), "y1": frame.y1, "y2": frame.y2, "dy1": frame.dy1, "dy2": frame.dy2}
    block = np.empty((stage.block_rows, width))
    monomials = block[1:1 + len(stage.monomials)]
    summed = np.empty((len(stage.coeffs), width))
    n0 = len(stage.d0_parts)
    sums = np.zeros(n0)
    d = np.empty((len(stage.d_firsts), n), dtype=complex)
    for start in range(0, n, width):
        part = slice(start, start + width)
        block[0] = path.weight[part]
        sliced = {name: v[part] for name, v in values.items()}
        for row, prefix, name in stage.steps:
            np.multiply(block[prefix], sliced[name], out=block[row])
        np.matmul(stage.coeffs, monomials, out=summed)
        sums += np.sum(summed[:n0], axis=1)
        d.real[:, part] = summed[n0::2]       # an entry of d is off-diagonal: (re, im) rows
        d.imag[:, part] = summed[n0 + 1::2]
    means = {}
    for (key, unit), total in zip(stage.d0_parts, sums):
        means[key] = means.get(key, 0j) + unit * (total / n)
    return _unfold(means, stage.d0_mirrors), d


def first_obstruction_means(spectra):
    """The means of every entry of the odd term as {key: complex}, read
    off the zero modes of `spectra`, the DFTs of the first entries per
    mirror pair as theta-densities d f (rows in the odd term's order);
    a mirrored entry's mean is the conjugate.

    The conjugation is solvable on the period only when every mean
    vanishes (the Zoll first obstruction): a mean above MEAN_TOL, or a
    NaN mean, raises FirstObstructionError with the offending entry, the
    largest first and, among equal ones, the first in the odd term's
    order.
    """
    stage = _symbols()
    n = spectra.shape[-1]
    own = {key: c / n for key, c in zip(stage.d_firsts, spectra[:, 0])}
    means = {k: complex(m) for k, m in _unfold(own, stage.d_mirrors).items()}
    for k, m in sorted(means.items(), key=lambda kv: -abs(kv[1])):
        if not abs(m) <= MEAN_TOL:
            raise FirstObstructionError(k, m)
    return means


def conjugated_order_zero(path, frame):
    """The engine route: (the mean of the order-zero, D_s-free symbol
    after both conjugations as {key: complex}, first_obstruction_max).

    The mean of Z = D0 - (i/2) [Q, d + M]: the mean of D0 plus, per pair
    of `_symbols`, its weights times <Q_a d_b> + <Q_a> M_b, and the
    conjugate for its mirror pair.  Q is never sampled.  With f the
    path's weight, Q_a is the antiderivative of -(d_a f - M_a f)/c_s, so
    the DFT of c_s Q_a is minus that of the antiderivative of d_a f - M_a f
    (`fourier.antiderivative_spectrum`), and each mean is a pairing of
    spectra (`fourier.spectral_pairing`): with d_b f, with conj(d_b' f)
    for a mirrored entry b, and with f, which is real and so pairs as its
    own conjugate.  Each density takes one forward transform, in place,
    and f one real one.  first_obstruction_max is the largest |mean| of
    the odd term, all that the conjugation leaves at weight -1/2.  Where
    the odd term is exactly 0, as on a meridian, so are Q and every term
    of stage 2, and none is taken.
    """
    sums, d = frame_terms(path, frame)
    if not d.any():                               # a NaN counts as nonzero
        return sums, 0.0
    stage = _symbols()
    spectra = d                                   # in place: the samples are not read again
    for row in spectra:
        row[:] = np.fft.fft(row)
    means = first_obstruction_means(spectra)
    weight = full_spectrum(np.fft.rfft(path.weight), path.n)
    primitive = np.empty(path.n, dtype=complex)
    for a, row, pairs in stage.products:
        np.multiply(weight, means[a], out=primitive)
        np.subtract(spectra[row], primitive, out=primitive)
        antiderivative_spectrum(primitive)
        q_mean = spectral_pairing(primitive, weight, True) / -stage.c_s    # f is real
        for b, other, conjugate, weights, mirror_weights in pairs:
            term = spectral_pairing(primitive, spectra[other], conjugate) / -stage.c_s \
                + q_mean * means[b]
            for key, w in weights:
                sums[key] = sums.get(key, 0.0) + w * term
            for key, w in mirror_weights:
                sums[key] = sums.get(key, 0.0) + w * np.conj(term)
    return sums, max(abs(m) for m in means.values())


@dataclass(frozen=True)
class InvariantRecord:
    """Per-geodesic degree-2 normal form data.

    c0, c01, c2 are the diagonal coefficients of the averaged order-zero
    symbol divided by 2 (the p1 normalization); the (0, 0) and (2, 2)
    means are exactly real, so c0 and c2 drop no imaginary part.
    offdiag maps each off-diagonal key (m, n) of the engine's mean to the
    complex averaged coefficient: those of D0, (2, 0), (3, 1), (4, 0) and
    their mirrors, as the order-zero symbol has even degree only.  H_b is
    the order-(-1) cluster-shift integral H(gamma) of `compute_H`, with
    c0 = -H_b / (16 pi), and H_scale the integral of its integrand's
    absolute value.
    """

    c0: float
    c01: float
    c2: float
    offdiag: dict
    H_b: float
    H_scale: float
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
            "c0": self.c0, "c01": self.c01, "c2": self.c2,
            "offdiag": {f"{m},{n}": [v.real, v.imag] for (m, n), v in self.offdiag.items()},
            "offdiag_max": self.offdiag_max,
            "H_b": self.H_b,
            "h_relation": self.h_relation,
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


def assemble_p1(metric, init, n=2048, path=None, frame=None):
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
    c0, c01, c2 = (complex(means.get((k, k), 0)) / 2.0 for k in range(3))
    H, H_scale = compute_H(path, frame)
    return InvariantRecord(
        c0=c0.real, c01=abs(c01), c2=c2.real,
        offdiag={key: v / 2.0 for key, v in means.items() if key[0] != key[1]},
        H_b=H,
        H_scale=H_scale,
        first_obstruction_max=first_obstruction_max,
    )
