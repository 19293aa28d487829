"""Exact Weyl-symbol algebra on polynomials in (z, zbar).

Conventions (fixed once, pinned by the matrix oracle of the tests):
    z = y + i*eta,  hbar = 1,  Op(z) = y + i*D_y = sqrt(2) * annihilation.
The Moyal product of polynomial symbols is the terminating sum

    a # b = sum_k P_k(a, b) / k!

with the k-th transvectant

    P_k(a, b) = sum_l C(k,l) (-1)^l (d_zbar^l d_z^(k-l) a) (d_z^l d_zbar^(k-l) b).

P_0 is multiplication, P_1(z^m zbar^n, z^mu zbar^nu) =
sigma((m,n),(mu,nu)) z^(m+mu-1) zbar^(n+nu-1) with sigma the symplectic
inner product of exponent vectors, and commutators expand in odd
transvectants only:  a#b - b#a = sum_{k odd} 2 P_k(a, b) / k!.

Coefficients are generic: exact scalars (Fraction/complex), numpy sample
arrays (periodic coefficient functions), or jet polynomials all work.

`star_product` and `star_commutator` run one kernel: one coefficient
product per monomial pair, added with the cached constants sum_j w_j P_j
into an accumulator symbol the caller may pass.  A sample array is a
value: no operation writes one, so a sum makes a new array.  The
term-by-term transvectant, the definition the kernel is tested against,
lives with the tests.  In the package every star product and
substitution runs on exact symbols, once per process, in `expansion`:
in stage 1 of the normal form, and in the commutators of unit monomials
that weight stage 2 (`expansion.stage2_weights`).
The tests' oracles run them on sampled symbols too, so the sample-array
branches (`_is_zero`'s ndarray case, the array path of `_scale`) run
only under the tests.  They stay here: the oracles' sampled reference
route (`metaplectic_substitute`, `commutator_double_integral`,
`d_zero_restricted`) runs this same `_moyal` kernel, and moving the
branches to the tests would mean keeping a second kernel there.
"""

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "PolySymbol",
    "DegreeOverflowError",
    "star_product",
    "star_commutator",
    "substitute_linear",
    "transvectant_constant",
]

DEGREE_CAP = 8


class DegreeOverflowError(ValueError):
    """Raised when a symbol operation would exceed the degree cap."""


def _check_degree(key):
    if sum(key) > DEGREE_CAP:
        m, n = key
        raise DegreeOverflowError(f"monomial z^{m} zbar^{n} exceeds degree cap {DEGREE_CAP}")


def _is_zero(v):
    if isinstance(v, np.ndarray):
        return False  # keep sampled coefficient functions, even if all-zero
    try:
        return v == 0
    except Exception:
        return False


class PolySymbol:
    """Polynomial symbol sum_{m,n} c[m,n] z^m zbar^n with m + n <= DEGREE_CAP.

    The coefficient table is a dict {(m, n): value}.  Values may be any
    ring elements supporting +, -, * (complex numbers, Fractions, numpy
    arrays of samples, jet polynomials).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for (m, n), v in coeffs.items():
                self[m, n] = v

    @classmethod
    def constant(cls, value):
        return cls({(0, 0): value})

    def __getitem__(self, key):
        return self.coeffs.get(key, 0)

    def __setitem__(self, key, value):
        if min(key) < 0:
            raise ValueError(f"negative exponents {key}")
        _check_degree(key)
        if _is_zero(value):
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = value

    def items(self):
        return self.coeffs.items()

    def __add__(self, other):
        out = PolySymbol(dict(self.coeffs))
        for key, v in other.coeffs.items():
            cur = out.coeffs.get(key)
            out[key] = v if cur is None else cur + v
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolySymbol({k: -v for k, v in self.coeffs.items()})

    def scale(self, factor):
        return PolySymbol({k: factor * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        """The plain product of two symbols (P_0), or a scalar multiple."""
        if not isinstance(other, PolySymbol):
            return self.scale(other)
        out = {}
        for (m, n), av in self.coeffs.items():
            for (mu, nu), bv in other.coeffs.items():
                _accumulate(out, (m + mu, n + nu), av * bv)
        return PolySymbol(out)

    __rmul__ = scale

    def map_coeffs(self, fn):
        return PolySymbol({k: fn(v) for k, v in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "PolySymbol(0)"
        parts = [f"({v!r})*z^{m}*zb^{n}" for (m, n), v in sorted(self.coeffs.items())]
        return "PolySymbol(" + " + ".join(parts) + ")"


def _ff(n, k):
    """Falling factorial n (n-1) ... (n-k+1)."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def transvectant_constant(mn, munu, j):
    """Integer C with P_j(z^m zbar^n, z^mu zbar^nu) = C z^(m+mu-j) zbar^(n+nu-j)."""
    (m, n), (mu, nu) = mn, munu
    return sum(math.comb(j, l) * (-1) ** l * _ff(m, j - l) * _ff(n, l) * _ff(mu, l) * _ff(nu, j - l)
               for l in range(j + 1))


@lru_cache(maxsize=None)
def _moyal_constants(mn, munu, odd):
    """((key, w), ...) with z^m zbar^n # z^mu zbar^nu = sum of w z^key: w is
    P_j / j! over all orders j, or 2 P_j / j! over odd j (the commutator).
    Zero constants are left out; exponents are capped, so the cache is finite."""
    (m, n), (mu, nu) = mn, munu
    out = []
    for j in range(1 if odd else 0, min(m + n, mu + nu) + 1, 2 if odd else 1):
        c = transvectant_constant(mn, munu, j)
        if c:
            out.append(((m + mu - j, n + nu - j), Fraction(2 if odd else 1, math.factorial(j)) * c))
    return tuple(out)


def _scale(v, c):
    """c * v; at c == 1, v itself, since no operation writes a value a
    symbol holds.  An exact c stays exact on exact v and becomes a float
    (a Fraction) or a complex number (a Gaussian rational) on sample
    arrays and floats."""
    if c == 1:
        return v
    if isinstance(v, (np.ndarray, float, complex)) and not isinstance(c, (int, float, complex)):
        c = float(c) if isinstance(c, Fraction) else complex(c)  # else an object array
    return v * c  # ring elements define Fraction multiplication themselves


def _accumulate(out, key, term):
    """out[key] += term, dropping the key where an exact sum vanishes."""
    cur = out.get(key)
    total = term if cur is None else cur + term
    if _is_zero(total):
        out.pop(key, None)
    else:
        out[key] = total


def _moyal(a, b, odd, weight, out):
    """out += weight * (a # b), or weight * (a # b - b # a) when `odd`: one
    coefficient product per monomial pair, added with its cached constants."""
    out = PolySymbol() if out is None else out
    for mn, av in a.coeffs.items():
        for munu, bv in b.coeffs.items():
            consts = _moyal_constants(mn, munu, odd)
            if not consts:
                continue
            _check_degree(consts[0][0])   # the lowest order keeps the highest degree
            prod = av * bv
            for key, w in consts:
                _accumulate(out.coeffs, key, _scale(prod, w * weight))
    return out


def star_product(a, b, weight=1, out=None):
    """Moyal product a # b (terminating sum of transvectants), times `weight`,
    added into the accumulator `out` when given; returns the sum."""
    return _moyal(a, b, False, weight, out)


def star_commutator(a, b, weight=1, out=None):
    """a # b - b # a = sum over odd j of (2/j!) P_j(a, b), times `weight`,
    added into the accumulator `out` when given; returns the sum."""
    return _moyal(a, b, True, weight, out)


def substitute_linear(symbols, first_image, second_image):
    """Compose each symbol with a linear map of its two variables into (z, zbar).

    A symbol here is a polynomial in two variables (x1, x2) keyed by
    their exponents: (z, zbar) themselves, or (y, eta).  The map is
    x1 -> a1*z + b1*zbar, x2 -> a2*z + b2*zbar, with `first_image` =
    (a1, b1) and `second_image` = (a2, b2).  One pass over the union of
    monomials: the powers of each linear form are taken once, each from
    the one below it, so a pure power costs no product; each mixed
    monomial is built once and added into every symbol that carries it.
    Returns the list of substituted symbols.
    """
    carriers = defaultdict(list)
    for idx, sym in enumerate(symbols):
        for mn, v in sym.coeffs.items():
            carriers[mn].append((idx, v))
    forms = [PolySymbol({(1, 0): a, (0, 1): b}) for a, b in (first_image, second_image)]
    powers = [[PolySymbol.constant(1), form] for form in forms]
    outs = [{} for _ in symbols]
    for m, n in sorted(carriers):
        for form, pw, need in zip(forms, powers, (m, n)):
            while len(pw) <= need:
                pw.append(pw[-1] * form)
        image = powers[1][n] if not m else powers[0][m] if not n else powers[0][m] * powers[1][n]
        for idx, v in carriers[m, n]:
            for key, u in image.items():
                _accumulate(outs[idx], key, u * v)
    return [PolySymbol(out) for out in outs]
