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
geodesic only evaluates, integrates and averages.  D0 is read only
through its means, and each of its monomials times the weight
f = ds/d(theta) is f * jet * a * b, with a and b halves (1 or a product
of two rows of one Jacobi pair): its grid sum is one entry of the Gram
product of weight rows f * jet * a with base rows b, summed block by
block of samples, and the coefficient rows combine these sums.  The
terms so no longer cancel sample by sample: the roundoff of a mean is
about eps times the size of its terms, sum |c| <|f m|> over
coefficients c and monomials m (at most 1.6 eps, measured against
np.longdouble), which on zoll:-2.4733,2.4733 reads as c0 off by up to
6.0e-12 of itself at N = 2048 and 2.4e-12 at N = 32768 (7.8e-13 and
1.8e-13 when the terms cancelled pointwise), well under the 1.2e-9 by
which c0 wanders across grids on zoll:-2.509,2.509.  The odd term is
one jet, tau_nu, times y-cubics, taken pointwise: f tau_nu times one
small product of its coefficients with the cubics gives the first entry
of each of its mirror pairs as a theta-density d f.  Stage 2
transforms them forward, once, reads their means M off the zero modes
(the first obstruction gate, `first_obstruction_means`), and adds to the
mean of D0, per pair (a, b) of entries of d, the commutator weights of
z^a and z^b (`expansion.stage2_weights`, taken to complex numbers) times
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

import itertools
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
BLOCK = 2048             # samples per block of Gram rows; grids are powers of two, and the
                         # default grid is one block.  invariants-fine (N = 32768) read
                         # report_s 0.271 / 0.278 / 0.297 s and peak RSS 46.9 / 47.2 / 47.5 MB
                         # with blocks of 1024 / 2048 / 4096 (medians of 8-11 runs of 8 s)


class FirstObstructionError(RuntimeError):
    """A cubic obstruction mean is nonzero: the metric is not Zoll at tolerance."""

    def __init__(self, entry, value):
        super().__init__(
            f"first obstruction nonvanishing: not Zoll at tolerance "
            f"(entry z^{entry[0]} zbar^{entry[1]}, mean {value:.3e})")
        self.entry = entry
        self.value = value


_ROWS = ("y1", "y2", "dy1", "dy2")      # the real Jacobi rows, read off the frame
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))   # i^k as (re, im), k mod 4
_SOURCES = ("weight", "tau", "tau_s", "tau_nu", "tau_nunu") + _ROWS   # sampled factors, by name


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


def _factors(mono):
    """A real monomial ((name, power), ...) as (its jets' factors, its
    rows' factors), each a sorted tuple with a name once per power."""
    factors = sorted(name for name, p in mono for _ in range(p))
    return (tuple(x for x in factors if x not in _ROWS),
            tuple(x for x in factors if x in _ROWS))


def _gram_plan(d0_monomials, d_monomials):
    """How a block of samples takes the grid sums of D0's monomials and
    the samples of d's, as the `_Stage` fields steps, block_rows, gram,
    picks and d_weight.

    A D0 monomial times f is f * jet * a * b, with a and b halves: 1 or
    the product of two rows of one Jacobi pair, (y1, y2) or (dy1, dy2).
    Its grid sum is entry (f * jet * a, b) of the Gram product of the
    weight rows with the base rows (gram = their counts), `picks` its
    flat index in it.  Per jet, the fewest halves a that split every
    monomial of the jet are taken, the first such set in sorted order,
    and each monomial takes the first of them that splits it, so it is
    summed exactly once; a weight row is a product, so f alone is none.
    A monomial that no pair of halves splits raises AssertionError.  d's
    monomials are one jet times row monomials (raising AssertionError
    otherwise), taken pointwise as the row monomials times f * jet, whose
    index is `d_weight`.

    The block holds the weight rows, the base rows (the first of them
    the row of ones), d's row monomials, then what forms them; a step
    (out, left, right) is one product, an index below len(_SOURCES)
    naming a sliced source and one above it a block row.
    """
    halves = ((),) + tuple(sorted((p, q) for pair in (("y1", "y2"), ("dy1", "dy2"))
                                  for i, p in enumerate(pair) for q in pair[i:]))
    by_jet = {}
    for mono in d0_monomials:
        jet, rows = _factors(mono)
        splits = {a: b for a in halves for b in halves
                  if (jet or a) and tuple(sorted(a + b)) == rows}
        if not splits:
            raise AssertionError(f"monomial {mono} of D0 is no jet times two halves")
        by_jet.setdefault(jet, []).append((mono, splits))
    split = {}
    for jet, members in sorted(by_jet.items()):
        lefts = sorted({a for _, splits in members for a in splits})
        cover = next(c for size in range(1, len(lefts) + 1)
                     for c in itertools.combinations(lefts, size)
                     if all(any(a in splits for a in c) for _, splits in members))
        for mono, splits in members:
            a = next(a for a in cover if a in splits)
            split[mono] = (jet, a), splits[a]
    weights = sorted({w for w, _ in split.values()})
    bases = sorted({b for _, b in split.values()} | {()})
    d_jets, d_rows = zip(*map(_factors, d_monomials))
    if len(set(d_jets)) != 1 or min(map(len, d_rows)) < 2:
        raise AssertionError("the odd term is not one jet times products of rows")

    samples = bases + list(d_rows)             # the base rows and d's row monomials
    slot = {(name,): i for i, name in enumerate(_SOURCES)}
    reserved = {mono: i for i, mono in enumerate(
        [("weight",) + jet if not a else (jet, a) for jet, a in weights] + samples, len(_SOURCES))}
    slot[()] = reserved[()]          # the row of ones, which frame_terms fills once
    scratch = itertools.count(len(_SOURCES) + len(reserved))
    steps = []

    def form(mono):
        """The index of `mono`, formed as the rest times its last factor."""
        if mono not in slot:
            left, right = form(mono[:-1]), form(mono[-1:])
            slot[mono] = reserved[mono] if mono in reserved else next(scratch)
            steps.append((slot[mono], left, right))
        return slot[mono]

    for jet, a in weights:
        if a:
            steps.append((reserved[jet, a], form(("weight",) + jet), form(a)))
        else:
            form(("weight",) + jet)
    for mono in samples:
        form(mono)
    d_weight = form(("weight",) + d_jets[0])
    picks = np.array([weights.index(split[mono][0]) * len(bases) + bases.index(split[mono][1])
                      for mono in d0_monomials])
    picks.flags.writeable = False
    return dict(steps=tuple(steps), block_rows=next(scratch) - len(_SOURCES),
                gram=(len(weights), len(bases)), picks=picks, d_weight=d_weight)


@dataclass(frozen=True)
class _Stage:
    """The per-process part of the engine (`_symbols`); read-only."""

    c_s: float            # the weight -1 operator is c_s D_s
    d_mirrors: tuple      # (key, sign) per entry of d, in its order
    d_firsts: tuple       # the first entry of each mirror pair of d, in its order
    d0_mirrors: tuple     # (key, sign) per entry of D0, in its order
    d0_monomials: tuple   # the columns of `d0_coeffs`
    d0_coeffs: np.ndarray  # rows: the parts of D0's first entries per mirror pair
    d0_parts: tuple       # (key, 1 or 1j) per row of `d0_coeffs`
    d_coeffs: np.ndarray  # rows: (re, im) of d's first entries; columns: its row monomials
    steps: tuple          # of `_gram_plan`
    block_rows: int
    gram: tuple           # (weight rows, base rows)
    picks: np.ndarray     # the flat index in the Gram product per column of `d0_coeffs`
    d_weight: int         # the index of f times d's jet
    products: tuple       # (a, row of a, pairs): per first entry a of d, the pairs (a, b) as
                          # (b, row of b or of its mirror, mirrored?, weights, mirror weights)


@lru_cache(maxsize=1)
def _symbols():
    """Stage 1 over real monomials with the Gram plan, and the weights of
    stage 2's closed form, once per process: a `_Stage`.

    Every entry of d and D0 is written exactly over the real monomials;
    the first entry of each mirror pair is kept, as one real row of
    coefficients per part: the real and imaginary parts of an
    off-diagonal entry, the real or the imaginary part of a diagonal one.
    D0's rows are over its monomials, whose grid sums `_gram_plan`'s
    picks read off the Gram product, and d's over its monomials, which
    share one jet.
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

    def parts(sym, signs):
        """(key, unit, exact terms) per part of the first entry of each mirror pair."""
        return [(key, unit, sym[key]) for key, sign in signs.items()
                for unit in ((1, 1j) if key[0] != key[1] else (1,) if sign == 1 else (1j,))]

    def matrix(entries, columns):
        out = np.zeros((len(entries), len(columns)))
        for row, (_, unit, (scale, terms)) in enumerate(entries):
            for mono, c in terms.items():
                out[row, columns.index(mono)] = c[0 if unit == 1 else 1] / scale   # rounded once
        out.flags.writeable = False
        return out

    d0_rows, d_rows = parts(exact[1], d0_signs), parts(exact[0], d_signs)
    d0_monomials = sorted({mono for *_, (_, terms) in d0_rows for mono in terms})
    d_monomials = sorted({mono for *_, (_, terms) in d_rows for mono in terms})
    table = {pair: tuple((key, complex(w)) for key, w in sym.items())
             for pair, sym in _exp.stage2_weights().items()}
    rows = {key: i for i, key in enumerate(d_signs)}
    return _Stage(
        c_s=float(c_s.re), d_mirrors=tuple((key, 1) for key in d.coeffs),
        d_firsts=tuple(d_signs),
        d0_mirrors=tuple((key, d0_signs.get(key) or d0_signs[key[::-1]]) for key in d0.coeffs),
        d0_monomials=tuple(d0_monomials), d0_coeffs=matrix(d0_rows, d0_monomials),
        d0_parts=tuple((key, unit) for key, unit, _ in d0_rows),
        d_coeffs=matrix(d_rows, d_monomials),
        **_gram_plan(d0_monomials, d_monomials),
        products=tuple((a, row, tuple((b, rows.get(b, rows.get(b[::-1])), b not in rows,
                                       table[a, b], table[a[::-1], b[::-1]])
                                      for b in d.coeffs if table[a, b]))
                       for a, row in rows.items()))


def frame_terms(path, frame):
    """Stage 1 on a path: (the mean of D0 as {key: complex}, the odd
    term's first entries per mirror pair as theta-densities d f, one row
    each of a (2, N) complex array, in the odd term's order).

    Per block of BLOCK samples the steps of `_symbols`' plan fill one
    block array, one Gram product of its weight rows with its base rows
    sums every D0 monomial times f over the block, and one product of
    d's coefficients with its row monomials, times f and d's jet, gives
    the odd term.  The D0 means are the coefficient rows times the
    monomials' grid sums, over N.
    """
    stage = _symbols()
    n = path.n
    width = min(n, BLOCK)          # both powers of two, so blocks tile the grid
    inputs = [getattr(frame if name in _ROWS else path, name) for name in _SOURCES]
    nw, nb = stage.gram
    nc = stage.d_coeffs.shape[1]
    block = np.empty((stage.block_rows, width))
    arrays = [None] * len(inputs) + list(block)
    weights, bases, cubics = block[:nw], block[nw:nw + nb], block[nw + nb:nw + nb + nc]
    bases[0] = 1.0
    gram = np.empty((nw, nb))
    total = np.zeros((nw, nb))
    odd = np.empty((len(stage.d_coeffs), width))
    d = np.empty((len(stage.d_firsts), n), dtype=complex)
    for start in range(0, n, width):
        part = slice(start, start + width)
        arrays[:len(inputs)] = [v[part] for v in inputs]
        for out, left, right in stage.steps:
            np.multiply(arrays[left], arrays[right], out=arrays[out])
        np.matmul(weights, bases.T, out=gram)
        total += gram
        np.matmul(stage.d_coeffs, cubics, out=odd)
        np.multiply(odd, arrays[stage.d_weight], out=odd)
        d.real[:, part] = odd[0::2]           # an entry of d is off-diagonal: (re, im) rows
        d.imag[:, part] = odd[1::2]
    means = {}
    for (key, unit), mean in zip(stage.d0_parts, stage.d0_coeffs @ total.ravel()[stage.picks]):
        means[key] = means.get(key, 0j) + unit * (mean / n)
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
        with h'(0) = +-1.

        It compares two routes that share the trace and the frame: the
        engine (the exact stage 1 over its Gram plan, then stage 2) and
        the closed form of `compute_H`.  So it sees a fault in either
        route's algebra or code: one coefficient of the (0, 0) row of the
        Gram plan off by 1e-7 of itself reads 2e-7 on every default
        geodesic (pinned by a mutation test).  It cannot see an
        under-resolved grid or wrong samples, which both routes read
        alike: where c0 and H were off by up to 0.26 it read <= 1.2e-12."""
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
