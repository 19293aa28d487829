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
into arrays the kernel owns.  The term-by-term transvectant, the
definition the kernel is tested against, lives with the tests.
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
    "diagonal_part",
    "transvectant_constant",
]

DEGREE_CAP = 8


class DegreeOverflowError(ValueError):
    """Raised when a symbol operation would exceed the degree cap."""


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
        m, n = key
        if m < 0 or n < 0:
            raise ValueError(f"negative exponents {key}")
        if m + n > DEGREE_CAP:
            raise DegreeOverflowError(f"monomial z^{m} zbar^{n} exceeds degree cap {DEGREE_CAP}")
        if _is_zero(value):
            self.coeffs.pop((m, n), None)
        else:
            self.coeffs[key] = value

    def items(self):
        return self.coeffs.items()

    @property
    def degree(self):
        return max((m + n for m, n in self.coeffs), default=0)

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
    """c * v; an exact c stays exact on exact v and becomes a float on floats."""
    if isinstance(c, Fraction) and isinstance(v, (np.ndarray, float, complex)):
        c = float(c)  # Fraction * ndarray would make an object array
    return v * c  # ring elements define Fraction multiplication themselves


def _accumulate(out, key, term):
    """out[key] += term; a complex sample array already in `out` is added to
    in place, so `out` must hold only arrays made for it."""
    cur = out.get(key)
    if cur is None:
        out[key] = term
    elif isinstance(cur, np.ndarray) and cur.dtype == np.complex128:
        cur += term
    else:
        out[key] = cur + term


def _moyal(a, b, odd, weight):
    """weight * (a # b), or weight * (a # b - b # a) when `odd`: one
    coefficient product per monomial pair, added with its cached constants."""
    out = {}
    for mn, av in a.coeffs.items():
        for munu, bv in b.coeffs.items():
            consts = _moyal_constants(mn, munu, odd)
            if not consts:
                continue
            prod = av * bv
            for i, (key, w) in enumerate(consts):
                c = w * weight
                # the keys of one pair differ, so only the first may keep prod itself
                _accumulate(out, key, prod if c == 1 and i == 0 else _scale(prod, c))
    return PolySymbol(out)


def star_product(a, b, weight=1):
    """Moyal product a # b (terminating sum of transvectants), times `weight`."""
    return _moyal(a, b, False, weight)


def star_commutator(a, b, weight=1):
    """a # b - b # a = sum over odd j of (2/j!) P_j(a, b), times `weight`."""
    return _moyal(a, b, True, weight)


def substitute_linear(symbols, z_image, zbar_image):
    """Compose each symbol with z -> az*z + bz*zbar, zbar -> azb*z + bzb*zbar.

    `z_image` = (az, bz) and `zbar_image` = (azb, bzb) may be scalars or
    sample arrays.  One pass over the union of monomials: the powers of
    the two linear forms are taken once, and each substituted monomial is
    built once, added into every symbol that carries it, and dropped.
    Returns the list of substituted symbols.
    """
    top = max((sym.degree for sym in symbols), default=0)
    zpow, zbpow = ([PolySymbol.constant(1), PolySymbol({(1, 0): a, (0, 1): b})]
                   for a, b in (z_image, zbar_image))
    for _ in range(2, top + 1):
        zpow.append(zpow[-1] * zpow[1])
        zbpow.append(zbpow[-1] * zbpow[1])
    carriers = defaultdict(list)
    for idx, sym in enumerate(symbols):
        for mn, v in sym.coeffs.items():
            carriers[mn].append((idx, v))
    outs = [{} for _ in symbols]
    for (m, n), uses in carriers.items():
        image = zpow[m] * zbpow[n]
        for idx, v in uses:
            for key, u in image.items():
                _accumulate(outs[idx], key, u * v)
    return [PolySymbol(out) for out in outs]


def diagonal_part(a):
    """Split a symbol into powers of |z|^2 and the off-diagonal residue.

    Returns (diag, residue): diag[k] is the coefficient of |z|^(2k)
    (i.e. the (k, k) table entry), residue holds every (m, n) with m != n.
    """
    top = max((m for m, n in a.coeffs if m == n), default=0)
    diag = [a[k, k] for k in range(top + 1)]
    residue = PolySymbol({k: v for k, v in a.coeffs.items() if k[0] != k[1]})
    return diag, residue

