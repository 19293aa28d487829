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
of D0 is + or - the conjugate of entry (m, n), checked exactly there,
so one entry of each mirror pair is evaluated, as its real and
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
np.longdouble).

The odd term is one jet, tau_nu, times y-cubics, so each entry of it is
d_a f = sum_k alpha_ak c_k over four real theta-densities
c_k = f tau_nu {y1 y2^2, y1^2 y2, y1^3, y2^3}, alpha exact Gaussian
rationals.  With m_k = <c_k> and A_k the antiderivative of c_k - m_k f,
0 at theta_0, Q_a is -(1/c_s) sum_k alpha_ak A_k, and stage 2 is linear
in one real 4 x 4 matrix, R_kl = <A_k c_l> + <A_k f> m_l: the pair
(a, b) of entries of d adds the commutator weights of z^a and z^b
(`expansion.stage2_weights`) times <Q_a d_b> + <Q_a> M_b, which is
-(1/c_s) sum_kl alpha_ak alpha_bl R_kl.  `_symbols` folds the weights,
alpha and -1/c_s into one exact table over R, one row per part of D0,
rounded once.  A geodesic takes one real transform of each c_k and of
f, reads m off the zero modes (the first obstruction gate,
`first_obstruction_means`, reads M = alpha m), and forms R from real
products of half spectra: Q is never sampled, and the engine takes no
inverse transform.  Against np.longdouble on the same samples, c0 is
off by up to 2.6e-9 of itself on zoll:-2.4733,2.4733 at N = 32768,
where stage 2's terms cancel about 2e5 times over: the rounding of the
float64 densities alone accounts for it (1.5e-6 when stage 2 took the
complex entries of d).
It derives no constant itself and imports nothing from `weyl`.  On a
meridian d is exactly 0 (tau_nu = 0), and stage 2 adds nothing.  Four
independent routes check this engine and live with the tests
(`tests/oracles.py`): the exact symbols evaluated term by term on the
samples (`frame_conjugated`), stage 2 with Q sampled on the grid
(`order_zero_by_q`), the closed form on the samples (`d_half`,
`d_zero_restricted` + `commutator_double_integral`), and the exact
ad-series, which derives Z without assuming its form.

The construction fixes two facts, which the record (`InvariantRecord`)
carries as no field: a diagonal entry of D0 and of stage 2 is evaluated
as its real part alone, so the (0, 0) and (2, 2) means are exactly
real; and the mean holds D0's keys alone, all of even degree.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expansion as _exp
from .fourier import antiderivative_spectrum
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
                         # with blocks of 1024 / 2048 / 4096 (medians of 8-11 runs of 8 s).
                         # Stage 2 steps 4 BLOCK samples of rows: a step costs ~15 us of calls
                         # at N = 2048; 4 rows at N = 32768 took 608 page faults per call


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
    pairs = {}                       # the pairs of halves by the rows they multiply to
    for a, b in itertools.product(halves, repeat=2):
        pairs.setdefault(tuple(sorted(a + b)), []).append((a, b))
    by_jet = {}
    for mono in d0_monomials:
        jet, rows = _factors(mono)
        splits = {a: b for a, b in pairs.get(rows, ()) if jet or a}
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

    d_keys: tuple         # the entries of d, in its order
    alpha: np.ndarray     # d_a f = sum_k alpha[a, k] c_k, c_k in `_gram_plan`'s order
    d0_mirrors: tuple     # (key, sign) per entry of D0, in its order
    d0_monomials: tuple   # the columns of `d0_coeffs`
    d0_coeffs: np.ndarray  # rows: the parts of D0's first entries per mirror pair
    d0_parts: tuple       # (key, 1 or 1j) per row of `d0_coeffs`
    steps: tuple          # of `_gram_plan`
    block_rows: int
    gram: tuple           # (weight rows, base rows)
    picks: np.ndarray     # the flat index in the Gram product per column of `d0_coeffs`
    d_weight: int         # the index of f times d's jet
    stage2: np.ndarray    # stage 2 adds stage2 @ R.ravel() to the rows of `d0_coeffs`


@lru_cache(maxsize=1)
def _symbols():
    """Stage 1 over real monomials with the Gram plan, and stage 2 as one
    table over R, once per process: a `_Stage`.

    Every entry of d and D0 is written exactly over the real monomials.
    Of D0 the first entry of each mirror pair is kept, as one real row of
    coefficients per part: the real and imaginary parts of an
    off-diagonal entry, the real or the imaginary part of a diagonal one,
    over its monomials, whose grid sums `_gram_plan`'s picks read off the
    Gram product.  d's monomials share one jet; alpha_ak, the coefficient
    of cubic k in entry a, gives the gate its means.  The pair (a, b) of
    `expansion.stage2_weights` with weight w at `key` adds
    -w alpha_ak alpha_bl / c_s to the weight of R_kl there: the table sums
    these over Gaussian integer numerators, must hold D0's keys alone and
    pair them as D0 does (entry (n, m) the same sign times the conjugate
    of entry (m, n)), and is kept as D0's parts, rounded once.
    Every caller shares the result; treat it as read-only.
    """
    c_s, d, d0 = _exp.conjugated_symbols()
    d_exact, d0_exact = ({key: _real_monomials(jp) for key, jp in sym.coeffs.items()}
                         for sym in (d, d0))
    d0_signs = _mirror_signs(d0_exact)

    def matrix(entries, columns):
        out = np.zeros((len(entries), len(columns)))
        for row, (_, unit, (scale, terms)) in enumerate(entries):
            for mono, c in terms.items():
                out[row, columns.index(mono)] = c[0 if unit == 1 else 1] / scale   # rounded once
        out.flags.writeable = False
        return out

    d0_rows = [(key, unit, d0_exact[key]) for key, sign in d0_signs.items()
               for unit in ((1, 1j) if key[0] != key[1] else (1,) if sign == 1 else (1j,))]
    d0_monomials = sorted({mono for *_, (_, terms) in d0_rows for mono in terms})
    cubics = sorted({mono for _, terms in d_exact.values() for mono in terms})
    columns = list(itertools.product(range(len(cubics)), repeat=2))   # R.ravel()'s order
    weights, scale = _exp.stage2_weights(), math.lcm(*(q for q, _ in d_exact.values()))
    numerators = {a: [(re * (scale // q), im * (scale // q))    # of alpha, over `scale`
                      for re, im in (terms.get(mono, (0, 0)) for mono in cubics)]
                  for a, (q, terms) in d_exact.items()}
    w_scale = math.lcm(*(x.denominator for sym in weights.values()
                         for w in sym.coeffs.values() for x in (w.re, w.im)))
    table = {}
    for (a, b), sym in weights.items():
        outer = [(xr * yr - xi * yi, xr * yi + xi * yr)
                 for xr, xi in numerators[a] for yr, yi in numerators[b]]
        for key, w in sym.coeffs.items():
            wr, wi = (-c_s.re.denominator * x.numerator * (w_scale // x.denominator)
                      for x in (w.re, w.im))
            table[key] = [(re + wr * pr - wi * pi, im + wr * pi + wi * pr)
                          for (re, im), (pr, pi) in zip(table.get(key, [(0, 0)] * len(outer)), outer)]
    table = {key: (w_scale * scale * scale * c_s.re.numerator,
                   {kl: v for kl, v in zip(columns, terms) if v != (0, 0)})
             for key, terms in table.items() if set(terms) != {(0, 0)}}
    pair_signs = {**d0_signs, **{key[::-1]: sign for key, sign in d0_signs.items()}}
    for key, sign in _mirror_signs(table).items():
        if pair_signs.get(key) != sign:
            raise AssertionError(f"stage 2's entry {key} does not pair as D0's")
    alpha = sum(unit * matrix([(a, unit, d_exact[a]) for a in d.coeffs], cubics) for unit in (1, 1j))
    alpha.flags.writeable = False
    return _Stage(
        d_keys=tuple(d.coeffs), alpha=alpha,
        d0_mirrors=tuple((key, pair_signs[key]) for key in d0.coeffs),
        d0_monomials=tuple(d0_monomials), d0_coeffs=matrix(d0_rows, d0_monomials),
        d0_parts=tuple((key, unit) for key, unit, _ in d0_rows),
        **_gram_plan(d0_monomials, cubics),
        stage2=matrix([(key, unit, table.get(key, (1, {}))) for key, unit, _ in d0_rows], columns))


def _means(stage, parts):
    """Every entry of D0's keys from `parts`, one value per row of
    `d0_coeffs`: an entry (n, m) of no row is sign * conj of entry (m, n)."""
    means = {}
    for (key, unit), value in zip(stage.d0_parts, parts):
        means[key] = means.get(key, 0j) + unit * value
    return {key: means[key] if key in means else sign * np.conj(means[key[::-1]])
            for key, sign in stage.d0_mirrors}


def frame_terms(path, frame):
    """Stage 1 on a path: (the mean of D0 as {key: complex}, the odd term
    as its four real theta-densities c_k, f tau_nu times the y-cubics in
    the column order of `_Stage.alpha`).  The densities are one (4, N/2 + 1)
    complex array: row k holds c_k's N samples as its first N reals
    (`.view(float)[:, :N]`) and 0 after them, room for the real transform
    that stage 2 writes over them.

    Per block of BLOCK samples the steps of `_symbols`' plan fill one
    block array, one Gram product of its weight rows with its base rows
    sums every D0 monomial times f over the block, and one product of the
    y-cubics with f tau_nu gives the densities.  The D0 means are the
    coefficient rows times the monomials' grid sums, over N.
    """
    stage = _symbols()
    n = path.n
    width = min(n, BLOCK)          # both powers of two, so blocks tile the grid
    inputs = [getattr(frame if name in _ROWS else path, name) for name in _SOURCES]
    nw, nb = stage.gram
    nc = stage.alpha.shape[1]
    block = np.empty((stage.block_rows, width))
    arrays = [None] * len(inputs) + list(block)
    weights, bases, cubics = block[:nw], block[nw:nw + nb], block[nw + nb:nw + nb + nc]
    bases[0] = 1.0
    gram = np.empty((nw, nb))
    total = np.zeros((nw, nb))
    odd = np.empty((nc, n // 2 + 1), dtype=complex)
    odd[:, -1] = 0.0
    samples = odd.view(float)[:, :n]
    for start in range(0, n, width):
        part = slice(start, start + width)
        arrays[:len(inputs)] = [v[part] for v in inputs]
        for out, left, right in stage.steps:
            np.multiply(arrays[left], arrays[right], out=arrays[out])
        np.matmul(weights, bases.T, out=gram)
        total += gram
        np.multiply(cubics, arrays[stage.d_weight], out=samples[:, part])
    return _means(stage, stage.d0_coeffs @ total.ravel()[stage.picks] / n), odd


def first_obstruction_means(cubic_means):
    """The means of every entry of the odd term as {key: complex}, in its
    order, from the means of its four real densities (`frame_terms`):
    M_a = sum_k alpha_ak <c_k>.

    The conjugation is solvable on the period only when every mean
    vanishes (the Zoll first obstruction): a mean above MEAN_TOL, or a
    NaN mean, raises FirstObstructionError with the offending entry, the
    largest first and, among equal ones, the first in the odd term's
    order.
    """
    stage = _symbols()
    means = {key: complex(m) for key, m in zip(stage.d_keys, stage.alpha @ cubic_means)}
    for k, m in sorted(means.items(), key=lambda kv: -abs(kv[1])):
        if not abs(m) <= MEAN_TOL:
            raise FirstObstructionError(k, m)
    return means


def conjugated_order_zero(path, frame):
    """The engine route: (the mean of the order-zero, D_s-free symbol
    after both conjugations as {key: complex}, first_obstruction_max).

    The mean of Z = D0 - (i/2) [Q, d + M] is the mean of D0 plus
    `_Stage.stage2` times R, R_kl = <A_k c_l> + <A_k f> m_l (see the
    module).  Each density's real transform is written over its samples,
    f takes one more, and A_k's (`fourier.antiderivative_spectrum`) is
    formed in one buffer, a step of rows at a time (see BLOCK).  By
    Parseval, for real x and y with real transforms X and Y,
    mean(x y) = (2 sum_k Re(X_k conj(Y_k)) - X_0 Y_0 - X_{N/2} Y_{N/2}) / N^2;
    A_k has no Nyquist mode, so with its zero mode halved R is products
    of float views.  Q is never sampled.  first_obstruction_max is the
    largest |mean| of the odd term, all that the conjugation leaves at
    weight -1/2.  Where the odd term is exactly 0, as on a meridian, so
    are Q and stage 2, and none is taken.
    """
    means, odd = frame_terms(path, frame)
    if not odd.any():                             # a NaN counts as nonzero
        return means, 0.0
    stage = _symbols()
    n = path.n
    step = min(len(odd), max(1, 4 * BLOCK // n))  # rows a step, 1, 2 or 4: see BLOCK
    spectra, samples = odd.view(float), odd.view(float)[:, :n]
    for k in range(0, len(odd), step):            # each step reads its rows, then writes them
        odd[k:k + step] = np.fft.rfft(samples[k:k + step])
    weight = np.fft.rfft(path.weight)
    m = odd[:, 0].real / n
    obstruction = first_obstruction_means(m)
    products = np.empty((len(odd), len(odd) + 1))   # per A_k: with each c_l, then with f
    a = np.empty((step, len(weight)), dtype=complex)
    for k in range(0, len(odd), step):
        rows = slice(k, k + step)
        np.multiply(m[rows, None].astype(complex), weight, out=a)   # cast first: no buffer
        np.subtract(odd[rows], a, out=a)
        antiderivative_spectrum(a)
        a[:, 0] *= 0.5
        np.matmul(a.view(float), spectra.T, out=products[rows, :-1])
        np.matmul(a.view(float), weight.view(float), out=products[rows, -1])
    products *= 2.0 / (n * n)
    r = products[:, :-1] + products[:, -1:] * m
    added = _means(stage, stage.stage2 @ r.ravel())
    return ({key: v + added[key] for key, v in means.items()},
            max(abs(v) for v in obstruction.values()))


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
        alike: where c0 and H were off by up to 0.26 it read <= 1.2e-12.
        Nor can it see the roundoff of stage 2, which H bounds only on
        the scale of its terms: where stage 2 took the complex entries of
        d, c0 was off by 1.5e-6 of itself against np.longdouble on
        zoll:-2.4733,2.4733 at N = 32768, and it read 3.8e-14."""
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
