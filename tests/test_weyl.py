"""Symbol algebra: transvectants, star products, and the matrix oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import conjugate, degree, monomial, transvectant, weyl_quantize

from zollforms.weyl import (
    DegreeOverflowError,
    PolySymbol,
    star_commutator,
    star_product,
    substitute_linear,
    transvectant_constant,
)

MONOMIALS_DEG4 = [(m, n) for m in range(5) for n in range(5 - m)]
MONOMIALS_DEG3 = [(m, n) for (m, n) in MONOMIALS_DEG4 if m + n == 3]


def random_symbol(rng, max_degree=3):
    sym = PolySymbol()
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            sym[m, n] = complex(rng.standard_normal(), rng.standard_normal())
    return sym


def symbols_close(a, b, tol=1e-12):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(abs(complex(a[k]) - complex(b[k])) <= tol for k in keys)


class TestTransvectants:
    def test_p0_is_product(self):
        """The symbol product a * b is P_0, coefficient by coefficient."""
        rng = np.random.default_rng(0)
        a, b = random_symbol(rng), random_symbol(rng)
        prod = a * b
        expected = sum(a[m, n] * b[3 - m, 2 - n]
                       for m in range(4) for n in range(3))
        assert abs(prod[3, 2] - expected) < 1e-12
        assert symbols_close(prod, transvectant(a, b, 0))

    @pytest.mark.parametrize("mn", MONOMIALS_DEG3)
    @pytest.mark.parametrize("munu", MONOMIALS_DEG3)
    def test_p1_symplectic_constant(self, mn, munu):
        got = transvectant(monomial(*mn), monomial(*munu), 1)
        sigma = mn[0] * munu[1] - mn[1] * munu[0]   # m nu - n mu
        key = (mn[0] + munu[0] - 1, mn[1] + munu[1] - 1)
        assert got[key] == sigma

    def test_p1_of_action_with_itself_vanishes(self):
        action = monomial(1, 1)
        assert not transvectant(action, action, 1).coeffs

    @pytest.mark.parametrize("mn", MONOMIALS_DEG3)
    @pytest.mark.parametrize("munu", MONOMIALS_DEG3)
    def test_p3_of_cubics_is_constant(self, mn, munu):
        got = transvectant(monomial(*mn), monomial(*munu), 3)
        assert set(got.coeffs) <= {(0, 0)}

    def test_p3_reference_values(self):
        assert transvectant_constant((3, 0), (0, 3), 3) == 36
        assert transvectant_constant((2, 1), (1, 2), 3) == -12

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_symmetry_and_bilinearity(self, j):
        rng = np.random.default_rng(j + 1)
        a, b, c = (random_symbol(rng) for _ in range(3))
        ab = transvectant(a, b, j)
        ba = transvectant(b, a, j)
        assert symbols_close(ab, ba.scale((-1.0) ** j))
        lin = transvectant(a + c.scale(2.0), b, j)
        ref = transvectant(a, b, j) + transvectant(c, b, j).scale(2.0)
        assert symbols_close(lin, ref)

    def test_degree_bookkeeping(self):
        rng = np.random.default_rng(5)
        a, b = random_symbol(rng, 3), random_symbol(rng, 4)
        for j in range(4):
            got = transvectant(a, b, j)
            assert degree(got) == degree(a) + degree(b) - 2 * j

    def test_degree_cap_enforced(self):
        big = monomial(4, 4)
        with pytest.raises(DegreeOverflowError):
            big * monomial(1, 0)


class TestStarCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(7)
        a = random_symbol(rng)
        comm = star_commutator(a, a)
        worst = max((abs(complex(v)) for v in comm.coeffs.values()), default=0.0)
        assert worst < 1e-12  # pairwise cancellation up to float addition order

    def test_z_zbar(self):
        got = star_commutator(monomial(1, 0), monomial(0, 1))
        assert set(got.coeffs) == {(0, 0)}
        assert complex(got[0, 0]) == 2.0

    def test_cubic_commutator_degrees(self):
        rng = np.random.default_rng(8)
        a = PolySymbol({k: complex(rng.standard_normal()) for k in MONOMIALS_DEG3})
        b = PolySymbol({k: complex(rng.standard_normal()) for k in MONOMIALS_DEG3})
        got = star_commutator(a, b)
        degrees = {m + n for (m, n) in got.coeffs}
        assert degrees <= {0, 4}

    def test_real_cubics_have_no_action_term(self):
        rng = np.random.default_rng(9)

        def real_cubic():
            vals = {(3, 0): complex(rng.standard_normal(), rng.standard_normal()),
                    (2, 1): complex(rng.standard_normal(), rng.standard_normal())}
            return PolySymbol({**vals, (0, 3): np.conj(vals[3, 0]),
                               (1, 2): np.conj(vals[2, 1])})

        comm = star_commutator(real_cubic(), real_cubic())
        assert (2, 2) in comm.coeffs
        assert abs(complex(comm[1, 1])) < 1e-12


class TestQuantization:
    def test_identity(self):
        got = weyl_quantize(PolySymbol.constant(1.0), 32)
        assert np.allclose(got, np.eye(32))

    def test_action_spectrum(self):
        H = weyl_quantize(monomial(1, 1), 64)
        evals = np.sort(np.linalg.eigvalsh(H.real))
        assert np.allclose(evals[:32], 2.0 * np.arange(32) + 1.0, atol=1e-10)

    def test_real_symbol_hermitian(self):
        rng = np.random.default_rng(10)
        a = random_symbol(rng, 2)
        real_sym = a + conjugate(a)
        M = weyl_quantize(real_sym, 32)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12

    def test_ntrunc_precondition(self):
        with pytest.raises(ValueError):
            weyl_quantize(monomial(2, 2), 16)


class TestMatrixOracle:
    """weyl_quantize(star_commutator(a, b)) == [W(a), W(b)] on the interior block.

    The error is measured relative to the product magnitude
    max|W(a)| * max|W(b)| (the natural float64 scale of the comparison).
    """

    N_TRUNC = 64

    @pytest.mark.parametrize("mn", MONOMIALS_DEG4)
    @pytest.mark.parametrize("munu", MONOMIALS_DEG4)
    def test_commutator_matches(self, mn, munu):
        a, b = monomial(*mn), monomial(*munu)
        A = weyl_quantize(a, self.N_TRUNC)
        B = weyl_quantize(b, self.N_TRUNC)
        rhs = A @ B - B @ A
        sc = star_commutator(a, b)
        lhs = weyl_quantize(sc, self.N_TRUNC) if sc.coeffs else np.zeros_like(rhs)
        k = self.N_TRUNC - (sum(mn) + sum(munu))
        scale = max(np.max(np.abs(A)) * np.max(np.abs(B)), 1.0)
        rel = np.max(np.abs(lhs[:k, :k] - rhs[:k, :k])) / scale
        assert rel < 1e-10


def random_exact_symbol(rng, max_degree=4):
    return PolySymbol({(m, n): Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                       for m in range(max_degree + 1) for n in range(max_degree + 1 - m)})


def random_field_symbol(rng, size=16, max_degree=4):
    return PolySymbol({(m, n): rng.standard_normal(size) + 1j * rng.standard_normal(size)
                       for m in range(max_degree + 1) for n in range(max_degree + 1 - m)})


def transvectant_sum(a, b, orders, weight):
    """sum over j in orders of weight(j) * P_j(a, b), term by term from the definition."""
    out = PolySymbol()
    for j in orders:
        w = weight(j)
        term = transvectant(a, b, j)
        out = out + term.map_coeffs(lambda v: v * (float(w) if isinstance(v, (np.ndarray, complex)) else w))
    return out


def moyal_reference(a, b):
    return transvectant_sum(a, b, range(min(degree(a), degree(b)) + 1),
                            lambda j: Fraction(1, math.factorial(j)))


def commutator_reference(a, b):
    return transvectant_sum(a, b, range(1, min(degree(a), degree(b)) + 1, 2),
                            lambda j: Fraction(2, math.factorial(j)))


def fields_close(a, b, tol=1e-12):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(np.max(np.abs(np.asarray(a[k]) - np.asarray(b[k]))) <= tol for k in keys)


class TestFusedKernel:
    """star_product / star_commutator (one pass per monomial pair) against the
    term-by-term transvectant sums they fuse."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complex_coefficients(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b = random_symbol(rng, 4), random_symbol(rng, 4)
        assert symbols_close(star_product(a, b), moyal_reference(a, b), 1e-9)
        assert symbols_close(star_commutator(a, b), commutator_reference(a, b), 1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fraction_coefficients_exact(self, seed):
        rng = np.random.default_rng(200 + seed)
        a, b = random_exact_symbol(rng), random_exact_symbol(rng)
        assert star_product(a, b).coeffs == moyal_reference(a, b).coeffs
        assert star_commutator(a, b).coeffs == commutator_reference(a, b).coeffs

    def test_sample_array_coefficients(self):
        rng = np.random.default_rng(300)
        a, b = random_field_symbol(rng), random_field_symbol(rng)
        assert fields_close(star_product(a, b), moyal_reference(a, b), 1e-9)
        assert fields_close(star_commutator(a, b), commutator_reference(a, b), 1e-9)
        # the inputs are not written to by the in-place accumulation
        a_copy = {k: v.copy() for k, v in a.coeffs.items()}
        star_product(a, a)
        assert all(np.array_equal(a[k], v) for k, v in a_copy.items())

    def test_weight_is_folded_in(self):
        rng = np.random.default_rng(400)
        a, b = random_field_symbol(rng), random_field_symbol(rng)
        w = 0.25 - 1.5j
        assert fields_close(star_product(a, b, w), star_product(a, b).scale(w), 1e-9)
        assert fields_close(star_commutator(a, b, w), star_commutator(a, b).scale(w), 1e-9)

    @pytest.mark.parametrize("mn", MONOMIALS_DEG4)
    def test_commutator_has_only_odd_orders(self, mn):
        """Every term of z^m zbar^n # b - b # z^m zbar^n drops the degree by
        2j with j odd; the even orders cancel and are never formed."""
        for munu in MONOMIALS_DEG4:
            got = star_commutator(monomial(*mn), monomial(*munu))
            for (p, q) in got.coeffs:
                j = (sum(mn) + sum(munu) - p - q) // 2
                assert j % 2 == 1, (mn, munu, (p, q))


class TestAccumulator:
    """star_product, star_commutator and substitute_linear add
    into their results' tables, and never write an array: not an operand's,
    and not one a result holds."""

    @staticmethod
    def snapshot(*syms):
        return [{k: np.array(v, copy=True) for k, v in sym.coeffs.items()} for sym in syms]

    @staticmethod
    def unchanged(syms, shots):
        return all(sym.coeffs.keys() == shot.keys()
                   and all(np.array_equal(sym.coeffs[k], v) for k, v in shot.items())
                   for sym, shot in zip(syms, shots))

    def test_unit_operand_shares_and_nothing_is_written(self):
        rng = np.random.default_rng(500)
        a, b = random_field_symbol(rng, max_degree=2), random_field_symbol(rng, max_degree=2)
        shots = self.snapshot(a, b)
        unit = PolySymbol.constant(1)
        acc = star_product(unit, a)
        held = []   # (an array the accumulator held, its value then)
        for step in (lambda: star_product(a, b, 0.5, acc), lambda: star_commutator(b, a, 2.0, acc),
                     lambda: star_product(unit, b, 1, acc),
                     lambda: star_product(unit, a, -1.5j, acc)):
            held += [(v, v.copy()) for v in acc.coeffs.values()]
            step()
        assert all(np.array_equal(v, value) for v, value in held)
        assert self.unchanged((a, b), shots)
        ref = (a + moyal_reference(a, b).scale(0.5) + commutator_reference(b, a).scale(2.0)
               + b + a.scale(-1.5j))
        assert fields_close(acc, ref, 1e-12)

    def test_lent_array_is_not_written_by_its_owner(self):
        """A symbol that shares an array with another sums into a new array,
        so the other keeps its value."""
        rng = np.random.default_rng(503)
        x = random_field_symbol(rng, max_degree=2)
        shots = self.snapshot(x)
        unit = PolySymbol.constant(1)
        acc = star_product(unit, x, 2.0)
        other = PolySymbol(acc.coeffs)   # holds acc's arrays
        other_shot = self.snapshot(other)
        star_product(unit, x, 1, acc)
        star_product(unit, x, 1, acc)
        assert self.unchanged((x, other), shots + other_shot)
        assert fields_close(acc, x.scale(4.0), 1e-12)

    def test_real_accumulator_takes_complex_terms(self):
        rng = np.random.default_rng(501)
        real = PolySymbol({(0, 0): rng.standard_normal(16), (1, 1): rng.standard_normal(16)})
        b = random_field_symbol(rng, max_degree=2)
        shots = self.snapshot(real, b)
        unit = PolySymbol.constant(1)
        acc = star_product(unit, real, 2.0)
        assert all(v.dtype == np.float64 for v in acc.coeffs.values())
        star_product(unit, b, 1j, acc)
        assert self.unchanged((real, b), shots)
        assert fields_close(acc, real.scale(2.0) + b.scale(1j), 1e-12)

    def test_substitute_linear_keeps_its_inputs(self):
        rng = np.random.default_rng(502)
        images = [tuple(rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(2))
                  for _ in range(2)]
        first, second = PolySymbol({(1, 0): 1}), PolySymbol({(0, 1): 1, (2, 0): 1.0})
        image_copies = [tuple(v.copy() for v in pair) for pair in images]
        got = substitute_linear([first, second], *images)
        assert all(np.array_equal(v, w) for pair, copy in zip(images, image_copies)
                   for v, w in zip(pair, copy))
        (a1, b1), (a2, b2) = images
        assert fields_close(got[0], PolySymbol({(1, 0): a1, (0, 1): b1}), 0.0)
        square = PolySymbol({(2, 0): a1 * a1, (1, 1): 2 * a1 * b1, (0, 2): b1 * b1})
        assert fields_close(got[1], PolySymbol({(1, 0): a2, (0, 1): b2}) + square, 1e-12)
