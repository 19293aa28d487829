"""Exact jet algebra for the transverse expansion of the half-density Laplacian.

Everything here is exact: coefficients are Gaussian rationals (QQi), the
curvature data along the geodesic are formal indeterminates
{tau, tau_s, tau_nu, tau_nunu}, and operators are finite sums

    (jet polynomial) * y^k * D_y^b * D_s^c

in normal order (coefficient functions to the left of all derivatives).
The module derives the Fermi metric jets, builds the conjugated positive
half-density Laplacian, grades it semiclassically, runs stage 1 of the
normal form and emits every universal constant the construction needs.
Stage 1, the metaplectic frame and D_s -> D_s - Op(h), takes the frame
Y, Yb, dY, dYb as further indeterminates and runs once per process
(`conjugated_symbols`).  Stage 2, exp(i h^(1/2) Q), leaves at weight 0
the closed form D0 - (i/2)[Q, d + M], whose star-commutator weights
`stage2_weights` takes once per process.  Each constant is derived once
here: the engine (`normalform`) converts stage 1 and the weights and
evaluates them on each geodesic, and the constants table reads the
diagonal of D0, the odd term's coefficients, -1/c_s and the weights off
the same results.  The module imports no numpy and nothing of the
engine.

Scaling conventions: the semiclassical parameter absorbs the period
(hbar = 1/r, the "hL" combination), so the dilation rules are
y -> hbar^(1/2) y, D_y -> hbar^(-1/2) D_y, D_s -> hbar^(-1) + D_s.
With these, the complex Jacobi frame keeps the normalization
Y(0) = 1, Y'(0) = i used by every downstream integral formula.
"""

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from .weyl import (PolySymbol, star_commutator, star_product, substitute_linear,
                   transvectant_constant)

__all__ = [
    "QQi",
    "JetPolynomial",
    "FormalOperator",
    "fermi_metric_jets",
    "half_density_laplacian",
    "grade_expansion",
    "graded_laplacian",
    "transverse_symbols",
    "SOperator",
    "conjugated_symbols",
    "stage2_weights",
    "constants_report",
]

SERIES_TRUNC = 6  # y-degree kept in all jet series


class QQi:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is kept as it is: wrapping it again costs a new object
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _as_qqi(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_qqi(other))

    def __rsub__(self, other):
        return _as_qqi(other) + (-self)

    def __mul__(self, other):
        """The exact product; with a float or complex, a complex number."""
        if isinstance(other, JetPolynomial):
            return other * self
        if isinstance(other, (float, complex)):
            return complex(self) * other
        other = _as_qqi(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qqi(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError
        return QQi(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __eq__(self, other):
        try:
            other = _as_qqi(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re} + {self.im}*i)"


def _as_qqi(v):
    if isinstance(v, QQi):
        return v
    if isinstance(v, (int, Fraction)):
        return QQi(v)
    raise TypeError(f"cannot coerce {type(v)} to QQi")


ONE = QQi(1)
I = QQi(0, 1)


class JetPolynomial:
    """Multivariate polynomial in named jet indeterminates over QQi.

    Keys are canonical tuples of (name, power) pairs sorted by name; the
    empty tuple is the constant term.  New indeterminate names (e.g. mixed
    jets like tau_nu_s produced by s-differentiation) are created on the
    fly and surface in reports.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, val in terms.items():
                val = val if isinstance(val, QQi) else _as_qqi(val)
                if val:
                    self.terms[key] = val

    @classmethod
    def var(cls, name, coeff=1):
        return cls({((name, 1),): _as_qqi(coeff) if not isinstance(coeff, QQi) else coeff})

    @classmethod
    def const(cls, value):
        value = value if isinstance(value, QQi) else _as_qqi(value)
        return cls({(): value}) if value else cls()

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = JetPolynomial.const(other)
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = JetPolynomial.const(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key, QQi()) + val
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return JetPolynomial._raw(out)

    __radd__ = __add__

    @classmethod
    def _raw(cls, terms):
        obj = cls.__new__(cls)
        obj.terms = terms
        return obj

    def __neg__(self):
        return JetPolynomial._raw({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = JetPolynomial.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            c = other if isinstance(other, QQi) else _as_qqi(other)
            if not c:
                return JetPolynomial()
            return JetPolynomial._raw({k: v * c for k, v in self.terms.items()})
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        out = {}
        for k1, v1 in self.terms.items():
            e1 = dict(k1)
            for k2, v2 in other.terms.items():
                e = dict(e1)
                for name, p in k2:
                    e[name] = e.get(name, 0) + p
                key = tuple(sorted(e.items()))
                acc = out.get(key, QQi()) + v1 * v2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return JetPolynomial._raw(out)

    __rmul__ = __mul__

    def s_derivative(self):
        """Formal d/ds: each indeterminate x maps to the indeterminate x_s."""
        out = JetPolynomial()
        for key, val in self.terms.items():
            for i, (name, p) in enumerate(key):
                rest = dict(key)
                rest[name] = p - 1
                if rest[name] == 0:
                    del rest[name]
                dname = name + "_s"
                rest[dname] = rest.get(dname, 0) + 1
                newkey = tuple(sorted(rest.items()))
                out = out + JetPolynomial._raw({newkey: val * QQi(p)})
        return out

    def coefficient(self, monomial):
        """Coefficient of a monomial given as a dict name -> power."""
        key = tuple(sorted((n, p) for n, p in monomial.items() if p))
        return self.terms.get(key, QQi())

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for key, val in sorted(self.terms.items()):
            mono = "*".join(f"{n}^{p}" if p > 1 else n for n, p in key)
            parts.append(f"({val!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = pretty


JP = JetPolynomial
TAU = JP.var("tau")
TAU_S = JP.var("tau_s")
TAU_NU = JP.var("tau_nu")
TAU_NUNU = JP.var("tau_nunu")


class FormalOperator:
    """Normal-ordered operator sum of (jet polynomial) * y^k * D_y^b * D_s^c.

    `terms` maps (k, b, c) to a nonzero JetPolynomial; products keep no
    y-degree above SERIES_TRUNC.  An operator with only b = c = 0 keys is
    multiplication by a truncated y-series, and {(0, 0, 1): I} is d/ds.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: p for key, p in (terms or {}).items() if not p.is_zero()}

    @classmethod
    def series(cls, coeffs):
        """Multiplication by sum_k coeffs[k] y^k."""
        return cls({(k, 0, 0): p for k, p in enumerate(coeffs)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, p in other.terms.items():
            _accumulate(out, key, p)
        return FormalOperator(out)

    def __neg__(self):
        return FormalOperator({key: -p for key, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return FormalOperator({key: p * factor for key, p in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FormalOperator) and self.terms == other.terms

    def compose(self, other):
        """Operator product self . other, renormal-ordered.

        D_y^b D_s^c moves right past g y^k' by the Leibniz rule with
        D = -i d: it leaves C(b,j) C(c,l) (-i)^(j+l) k'!/(k'-j)! (d_s^l g)
        y^(k'-j) D_y^(b-j) D_s^(c-l) for j <= min(b, k') and l <= c.  A
        product of y-degree above SERIES_TRUNC is skipped before it is formed.
        """
        out = {}
        derivs = {key: [g] for key, g in other.terms.items()}   # d_s^l g, l = 0, 1, ...
        for (k, b, c), fa in self.terms.items():
            for (kp, bp, cp), g in other.terms.items():
                ds_g = derivs[kp, bp, cp]
                while len(ds_g) <= c:
                    ds_g.append(ds_g[-1].s_derivative())
                for j in range(min(b, kp) + 1):
                    if k + kp - j > SERIES_TRUNC:
                        continue
                    for l in range(c + 1):
                        if ds_g[l].is_zero():
                            continue
                        weight = math.comb(b, j) * math.comb(c, l) * math.perm(kp, j)
                        term = fa * ds_g[l] * (_MINUS_I_POWERS[(j + l) % 4] * QQi(weight))
                        _accumulate(out, (k + kp - j, b - j + bp, c - l + cp), term)
        return FormalOperator(out)

    def power(self, alpha):
        """self^alpha for a multiplication operator with constant term 1 and
        a rational alpha (int or Fraction): the binomial series, truncated
        at SERIES_TRUNC."""
        one = FormalOperator.series([JP.const(1)])
        if self.terms.get((0, 0, 0)) != JP.const(1) or any(b or c for _, b, c in self.terms):
            raise ValueError("power requires a multiplication operator with constant term 1")
        x = self - one
        out = xk = one
        coeff = Fraction(1)
        for k in range(1, SERIES_TRUNC + 1):   # x^k has y-degree >= k
            xk = xk.compose(x)
            coeff = coeff * (alpha - (k - 1)) / k
            out = out + xk.scale(QQi(coeff))
        return out

    def pretty(self):
        """One line per D_y^b D_s^c, its y-series in rising powers of y."""
        groups = {}
        for k, b, c in sorted(self.terms, key=lambda key: (key[1], key[2], key[0])):
            groups.setdefault((b, c), []).append(f"y^{k}: {self.terms[k, b, c].pretty()}")
        lines = []
        for (b, c), parts in groups.items():
            ops = ("D_y^%d " % b if b else "") + ("D_s^%d" % c if c else "")
            lines.append(f"[{ops.strip() or '1'}] {{ {'; '.join(parts)} }}")
        return "\n".join(lines) or "0"

    __repr__ = pretty


_MINUS_I_POWERS = (ONE, -I, -ONE, I)   # (-i)^n, n mod 4


def _accumulate(terms, key, p):
    """terms[key] += p, dropping the key where the sum vanishes."""
    cur = terms.get(key)
    acc = p if cur is None else cur + p
    if acc.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = acc


# ---------------------------------------------------------------------------
# Fermi metric jets and the half-density Laplacian
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def fermi_metric_jets():
    """Taylor jets of the Fermi area density J(s, y) and of g^00 = J^-2.

    J solves d^2_y J = -K J with J(s,0) = 1, d_y J(s,0) = 0 and the
    curvature 2-jet K(s,y) = tau + tau_nu*y + (1/2)tau_nunu*y^2; higher
    y-jets of K are not tracked (they only enter beyond the graded orders
    this package uses).  Returns (J, g00) as multiplication operators, up
    to y^SERIES_TRUNC, derived once per process: every caller shares the
    pair; treat it as read-only.
    """
    K = [TAU, TAU_NU, TAU_NUNU * QQi(Fraction(1, 2))]
    j = [JP.const(1), JP()]
    for k in range(SERIES_TRUNC - 1):
        # (k+2)(k+1) j_{k+2} = - sum_m K_m j_{k-m}
        acc = JP()
        for m, Km in enumerate(K[: k + 1]):
            acc = acc + Km * j[k - m]
        j.append(acc * QQi(Fraction(-1, (k + 2) * (k + 1))))
    J = FormalOperator.series(j)
    return J, J.power(-2)


def half_density_laplacian():
    """Positive half-density Laplacian in Fermi coordinates, normal-ordered.

    Built verbatim from the symmetric form
        -P = J^(-1/2) d_s g00 J d_s J^(-1/2) + J^(-1/2) d_y J d_y J^(-1/2)
    with d = i*D.  Truncated at y-degree SERIES_TRUNC.
    """
    J, g00 = fermi_metric_jets()
    Jm12 = J.power(Fraction(-1, 2))
    ds = FormalOperator({(0, 0, 1): JP.const(I)})   # d/ds = i D_s
    dy = FormalOperator({(0, 1, 0): JP.const(I)})   # d/dy = i D_y
    s_part = Jm12.compose(ds).compose(g00.compose(J)).compose(ds).compose(Jm12)
    y_part = Jm12.compose(dy).compose(J).compose(dy).compose(Jm12)
    return (s_part + y_part).scale(QQi(-1))


# ---------------------------------------------------------------------------
# Semiclassical grading
# ---------------------------------------------------------------------------

def grade_expansion(op):
    """Collect h-powers of T_h^* M_h^* op T_h M_h.

    Rules: y -> h^(1/2) y, D_y -> h^(-1/2) D_y, D_s -> h^(-1) + D_s.
    Returns a dict {weight (Fraction): FormalOperator}; the graded
    operator L_{2-m/2} sits at weight -2 + m/2.  Nothing is dropped: weights above
    zero are retained (callers report them as the residual).
    """
    graded = {}
    for (k, b, c), coeff in op.terms.items():
        for j in range(c + 1):
            w = Fraction(k - b, 2) - (c - j)
            term = FormalOperator({(k, b, j): coeff * QQi(math.comb(c, j))})
            graded[w] = graded.get(w, FormalOperator()) + term
    return {w: t for w, t in graded.items() if t.terms}


@lru_cache(maxsize=1)
def graded_laplacian():
    """grade_expansion(half_density_laplacian()), derived once per process.

    Every caller shares the one dict; treat it as read-only.
    """
    return grade_expansion(half_density_laplacian())


def transverse_symbols(graded_term):
    """(y, D_y)-part of a graded operator as Weyl symbols per D_s power.

    Returns {ds_power: PolySymbol in (y, eta) with JetPolynomial entries},
    keyed (y power, eta power).  The Weyl symbol of y^k D_y^b is y^k eta^b
    exactly when k or b is 0, so the symbols are the operator's own
    (k, b, c) keys; no graded term of weight <= 0 has both, and a term
    that has both raises.
    """
    out = {}
    for (k, b, c), coeff in graded_term.terms.items():
        if k and b:
            raise AssertionError(f"graded term y^{k} D_y^{b} mixes y with D_y")
        out.setdefault(c, PolySymbol())[k, b] = coeff
    return out


# ---------------------------------------------------------------------------
# Stage 1 of the normal form: the metaplectic frame and D_s -> D_s - Op(h)
# ---------------------------------------------------------------------------

def _frame_formal(symbols):
    """Substitute y -> (Yb z + Y zbar)/2, eta -> (dYb z + dY zbar)/2, formally."""
    half = QQi(Fraction(1, 2))
    y_img = (JP.var("Yb", half), JP.var("Y", half))
    eta_img = (JP.var("dYb", half), JP.var("dY", half))
    return substitute_linear(symbols, y_img, eta_img)


def formal_oscillator(graded):
    """Substituted oscillator symbol h with U* D_s U = D_s - Op(h).

    Read off from the graded order: L1 = c_s D_s + osc(y, D_y), so the
    metaplectic frame propagator has generator osc/c_s.  Returns
    (c_s as QQi, formal substituted symbol of osc/c_s).
    """
    l1 = graded[Fraction(-1)]
    syms = transverse_symbols(l1)
    ds_part = syms.get(1)
    if ds_part is None or set(ds_part.coeffs) != {(0, 0)}:
        raise AssertionError("unexpected D_s structure in the h^-1 graded term")
    c_s = ds_part[(0, 0)].terms.get((), QQi())
    osc = syms.get(0, PolySymbol())
    h = _frame_formal([osc])[0].map_coeffs(lambda v: v * (ONE / c_s))
    return c_s, h


class SOperator:
    """Operator sum_k Op(a_k(s, z, zbar)) D_s^k with jet-polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v.coeffs}

    def ds_part(self, k):
        return self.terms.get(k, PolySymbol())

    def __add__(self, other):
        return SOperator({k: self.ds_part(k) + other.ds_part(k)
                          for k in self.terms.keys() | other.terms.keys()})

    def compose(self, jet):
        """Operator product self o B, with D_s moved right by
        [D_s, Op(b)] = Op(-i b_s), one star product per pair of parts.

        `jet` is (B, dB/ds, ...), up to the top D_s power of self.
        """
        out = defaultdict(PolySymbol)
        for k in jet[0].terms:
            for j, asym in self.terms.items():
                for l in range(j + 1):
                    star_product(asym, jet[l].ds_part(k),
                                 math.comb(j, l) * _MINUS_I_POWERS[l % 4], out[j - l + k])
        return SOperator(out)


def _shift_ds(op, shift_jet):
    """op with D_s replaced by the operator S, shift_jet = (S, dS/ds, ...),
    by Horner's rule: from the top D_s power down, X <- X o S + Op(a_k)."""
    top = max(op.terms, default=0)
    out = SOperator({0: op.ds_part(top)})
    for k in range(top - 1, -1, -1):
        out = out.compose(shift_jet) + SOperator({0: op.ds_part(k)})
    return out


@lru_cache(maxsize=1)
def conjugated_symbols():
    """Stage 1 of the normal form in exact arithmetic, once per process:
    (c_s, d, D0).

    The graded symbols of weight -1/2 and 0 are framed over the free ring
    in the curvature jets and {Y, Yb, dY, dYb}, and D_s -> D_s - Op(h)
    runs by Horner's rule.  -tau_s y^2 / 2 is framed with them: it is
    -dh/ds, since along the Jacobi flow the image of eta has derivative
    -tau (image of y).  d is the odd term of weight -1/2 and D0 the D_s-free
    part of weight 0, the only parts stage 2 reads; c_s is the QQi 2.
    Stage 2 leaves D0 - (i/2)[Q, d + M] at weight 0 only where no graded
    term sits at weight -3/2: one that does not commute with Q would add
    its ad_Q^j at weights -1, -1/2 and 0, so such a term raises
    AssertionError.  Every caller shares the result; treat it as
    read-only.
    """
    graded = graded_laplacian()
    if Fraction(-3, 2) in graded:
        raise AssertionError("graded term at weight -3/2: stage 2 is not the closed form")
    c_s, h = formal_oscillator(graded)
    odd, zero = (transverse_symbols(graded[w]) for w in (Fraction(-1, 2), Fraction(0)))
    if set(odd) != {0}:
        raise AssertionError("unexpected D_s structure at weight -1/2")
    minus_h_s = PolySymbol({(2, 0): TAU_S * QQi(Fraction(-1, 2))})
    d, minus_h_s, *framed = _frame_formal([odd[0], minus_h_s, *zero.values()])
    shift = (SOperator({1: PolySymbol.constant(1), 0: -h}), SOperator({0: minus_h_s}))
    return c_s, d, _shift_ds(SOperator(dict(zip(zero, framed))), shift).ds_part(0)


# ---------------------------------------------------------------------------
# Universal constants report
# ---------------------------------------------------------------------------

_INTEGRAND_BASIS = {
    "a": ({"dY": 2, "dYb": 2}, 1),
    "b1": ({"tau": 1, "Y": 1, "Yb": 1, "dY": 1, "dYb": 1}, 1),
    "b2": ({"tau": 1, "Yb": 2, "dY": 2}, 2),  # Re-pair; partner checked for equality
    "c": ({"tau": 2, "Y": 2, "Yb": 2}, 1),
    "d": ({"tau_nunu": 1, "Y": 2, "Yb": 2}, 1),
    "e": ({"tau": 1}, 1),
}


def _match_integrand_basis(poly):
    """Express a diagonal JetPolynomial in the closed integrand basis.

    Returns (coeffs dict, residual JetPolynomial).  The b2 entry multiplies
    Re(dY*Yb)^2, i.e. the two conjugate monomials with equal coefficients.
    """
    coeffs = {}
    residual = poly
    for name, (mono, _weight) in _INTEGRAND_BASIS.items():
        c = residual.coefficient(mono)
        if not c:
            coeffs[name] = QQi()
            continue
        if name == "b2":
            partner = {"tau": 1, "Y": 2, "dYb": 2}
            cp = residual.coefficient(partner)
            if cp != c:
                raise AssertionError("Re-structure violated in b2 extraction")
            # c w + c conj(w) = 2c Re(w): the table entry multiplies Re(dY Yb)^2
            coeffs[name] = QQi(2) * c
            sub = JP({tuple(sorted((k, v) for k, v in mono.items())): c})
            subp = JP({tuple(sorted((k, v) for k, v in partner.items())): cp})
            residual = residual - sub - subp
        else:
            coeffs[name] = c
            sub = JP({tuple(sorted((k, v) for k, v in mono.items())): c})
            residual = residual - sub
    return coeffs, residual


def derive_normal_form_integrands():
    """The |z|^4 and |z|^0 entries of D0 in `conjugated_symbols`: the
    diagonal of the order-zero operator after the metaplectic frame and
    D_s -> D_s - Op(h), which the constants table writes in its integrand
    basis.

    The total s-derivatives of the shift (i d_s h from D_s^2, the
    tau_s y^2 jet term and the odd transvectants of a # h) land on the
    entries (2, 0), (1, 1) and (0, 2) only, so neither entry holds a
    tau_s monomial.
    """
    _, _, d0 = conjugated_symbols()
    return {"z4": d0[2, 2], "z0": d0[0, 0]}


# Verified against the exact ad-series of the tests: the order-zero
# commutator correction of stage 2 is COMMUTATOR_PREFACTOR * [d(s), int_0^s d],
# which is -(i/2) [Q, d] with Q = -(1/c_s) int_0^s d.
COMMUTATOR_PREFACTOR = QQi(0, Fraction(-1, 4))


@lru_cache(maxsize=1)
def stage2_weights():
    """The weights of stage 2's closed form, once per process:
    {(a, b): 2 * COMMUTATOR_PREFACTOR * [z^a, z^b]} over the ordered pairs
    of keys of the odd term d, the star commutator of the unit monomials
    as an exact PolySymbol.  The pair (a, b) adds the entry at `key`
    times <Q_a d_b> + <Q_a> M_b to the mean of D0 - (i/2) [Q, d + M].
    Every caller shares the result; treat it as read-only.
    """
    _, d, _ = conjugated_symbols()
    weight = 2 * COMMUTATOR_PREFACTOR   # -i/2
    return {(a, b): star_commutator(PolySymbol({a: 1}), PolySymbol({b: 1}), weight)
            for a in d.coeffs for b in d.coeffs}


def _odd_term_coefficients(d):
    """{m: c_m} with entry (m, 3 - m) of the odd term d equal to
    c_m tau_nu Yb^m Y^(3-m), c_m rational: the framed (1/3) tau_nu y^3.
    Raises AssertionError where an entry has another form."""
    out = {}
    for (m, n), jp in d.coeffs.items():
        mono = tuple(sorted((name, p) for name, p in (("tau_nu", 1), ("Yb", m), ("Y", n)) if p))
        c = jp.terms.get(mono, QQi())
        if m + n != 3 or set(jp.terms) != {mono} or c.im:
            raise AssertionError(f"odd term entry {(m, n)} is not c tau_nu Yb^{m} Y^{n}")
        out[m] = c.re
    return out


def constants_report():
    """Machine-derived table of every universal constant in the construction."""
    J, g00 = fermi_metric_jets()
    graded = graded_laplacian()

    def entry(op, k, b=0, c=0):
        """Text of the coefficient of y^k D_y^b D_s^c in op."""
        return op.terms.get((k, b, c), JP()).pretty()

    l2 = graded.get(Fraction(-2), FormalOperator())
    l32 = graded.get(Fraction(-3, 2), FormalOperator())
    l1 = graded.get(Fraction(-1), FormalOperator())
    l12 = graded.get(Fraction(-1, 2), FormalOperator())
    l0 = graded.get(Fraction(0), FormalOperator())
    residual = {str(w): t.pretty() for w, t in graded.items() if w > 0}

    yints = derive_normal_form_integrands()
    y4, rem4 = _match_integrand_basis(yints["z4"])
    y0, rem0 = _match_integrand_basis(yints["z0"])

    # the diagonal weights of Im{int F_mn int_0^s F_nm}, F_mn = tau_nu Yb^m Y^n:
    # i c_m c_n times the stage 2 weight of the pair at |z|^4 and |z|^0
    c_s, d, _ = conjugated_symbols()
    c = _odd_term_coefficients(d)
    weights = stage2_weights()
    comm = {key: {f"({m},{n})": repr(I * QQi(c[m] * c[n]) * weights[(m, n), (n, m)][key])
                  for m, n in ((3, 0), (2, 1))} for key in ((2, 2), (0, 0))}

    # P_1 and P_3 between cubic monomials
    cubic_pairs = {j: {
        f"({m},{3 - m}),({mu},{3 - mu})": transvectant_constant((m, 3 - m), (mu, 3 - mu), j)
        for m in range(4) for mu in range(4)
    } for j in (1, 3)}

    report = {
        "normalization": {
            "hbar": "1/r (period absorbed); dilations y->h^(1/2)y, D_y->h^(-1/2)D_y, D_s->h^(-1)+D_s",
            "laplacian_sign": "positive (geometer's); quantization target is the displayed -Delta = ... operator",
            "frame": "Y = y2 + i*y1, Y(0)=1, Y'(0)=i; omega(Y, Ybar) = -2i",
            "p1": "reported invariants are the order-zero diagonal symbol divided by 2 (lambda ~ (r + p1/r)^2)",
            "L_powers": "with an explicit period L the y-jet terms carry L^-2 and the D_s terms L^-1; absorbed here",
        },
        "metric_jets": {
            "J_y2": entry(J, 2),
            "J_y3": entry(J, 3),
            "J_y4": entry(J, 4),
            "g00_y2 (C1)": entry(g00, 2),
            "g00_y3 (C2)": entry(g00, 3),
            "g00_y4": entry(g00, 4),
        },
        "graded": {
            "L2": entry(l2, 0),
            "L_3/2": "0" if not l32.terms else l32.pretty(),
            "L1_Ds": entry(l1, 0, 0, 1),
            "L1_Dy2": entry(l1, 0, 2),
            "L1_y2": entry(l1, 2),
            "L_1/2_y3 (C)": entry(l12, 3),
            "L0_Ds2": entry(l0, 0, 0, 2),
            "L0_y2Ds (C2)": entry(l0, 2, 0, 1),
            "L0_y2 (C3)": entry(l0, 2),
            "L0_y4 (C1 + tau^2 part)": entry(l0, 4),
            "L0_yDy (C4)": entry(l0, 1, 1),
            "L0_const (C5)": entry(l0, 0),
        },
        "transvectants": {
            "P1_general": "P1(z^m zb^n, z^mu zb^nu) = sigma((m,n),(mu,nu)) z^(m+mu-1) zb^(n+nu-1)",
            "normalization_note": "references using C_1 = sigma/2 are half this convention",
            "P1_cubic_pairs": cubic_pairs[1],
            "P3_cubic_pairs": cubic_pairs[3],
        },
        "pipeline_factors": {
            "first_homological (Q = factor * int d)": repr(-ONE / c_s),
            "commutator_prefactor ([d, int d] weight)": repr(COMMUTATOR_PREFACTOR),
            "d_half cubic coefficients (C_mn;3)": {f"({m},{3 - m})": str(c[m]) for m in range(4)},
        },
        "invariant_integrals": {
            "note": "weights of (1/2pi) int over gamma in the order-zero diagonal symbol "
                    "(divide by 2 for the p1 normalization); basis "
                    "[ |dY|^4, tau |dY Y|^2, tau Re(dY Yb)^2, tau^2 |Y|^4, tau_nunu |Y|^4, tau ]",
            "j2 (|z|^4)": {k: repr(v) for k, v in y4.items()},
            "j0 (|z|^0)": {k: repr(v) for k, v in y0.items()},
            "j2_residual": rem4.pretty(),
            "j0_residual": rem0.pretty(),
            "shift_derivative_terms": "i d_s(h), the tau_s y^2 jet term and the odd transvectants "
                                      "of a # h land on z^2, |z|^2 and zb^2 only; j2 and j0 are "
                                      "the full |z|^4 and |z|^0 entries of D0, with no tau_s term",
            "commutator_j2 (weights of Im double integrals)": comm[2, 2],
            "commutator_j0": comm[0, 0],
        },
        "assertions": {
            "e2_zero": repr(y4["e"]),
            "d0_zero": repr(y0["d"]),
            "C4_zero": entry(l0, 1, 1),
            "round_sphere_c2": repr(_round_sphere_mean(yints["z4"])),
        },
        "residual_weights": residual,
    }
    return report


def _round_sphere_mean(poly):
    """Exact s-mean of a jet polynomial in Y-monomials at Y = e^{is}, tau = 1.

    A monomial Y^p Yb^q dY^r dYb^t has s-mean i^r (-i)^t [p + r == q + t],
    so the basis coefficients combine exactly.
    """
    total = QQi()
    for key, val in poly.terms.items():
        e = dict(key)
        p, q = e.pop("Y", 0), e.pop("Yb", 0)
        r, t = e.pop("dY", 0), e.pop("dYb", 0)
        e.pop("tau", None)
        if e.pop("tau_nunu", 0) or e.pop("tau_s", 0) or e:
            continue  # vanishing jets on the round sphere
        if p + r != q + t:
            continue  # oscillatory mean
        total = total + val * _MINUS_I_POWERS[-r % 4] * _MINUS_I_POWERS[t % 4]
    return total
