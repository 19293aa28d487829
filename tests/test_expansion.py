"""Exact jet algebra: Fermi metric jets, grading, and derived constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zollforms.expansion import (
    FormalOperator,
    JetPolynomial,
    QQi,
    SERIES_TRUNC,
    TAU,
    TAU_NU,
    TAU_NUNU,
    conjugated_symbols,
    constants_report,
    derive_normal_form_integrands,
    fermi_metric_jets,
    grade_expansion,
    graded_laplacian,
    half_density_laplacian,
    stage2_weights,
    transverse_symbols,
    _frame_formal,
    _match_integrand_basis,
    _round_sphere_mean,
)
from oracles import graded_symbols, round_sphere_c2, substitute

JP = JetPolynomial
HALF = Fraction(1, 2)


def jp(value):
    return JP.const(value)


def jet_names(op):
    """Every jet indeterminate in the coefficients of a FormalOperator."""
    return {name for p in op.terms.values() for key in p.terms for name, _ in key}


class TestQQi:
    def test_arithmetic(self):
        a = QQi(Fraction(1, 2), Fraction(1, 3))
        b = QQi(2, -1)
        assert a + b == QQi(Fraction(5, 2), Fraction(-2, 3))
        assert a * QQi(0, 1) == QQi(Fraction(-1, 3), Fraction(1, 2))
        assert (a * b) / b == a
        assert complex(QQi(1, 2)) == 1 + 2j


class TestFermiJets:
    def test_low_order_jets(self):
        J, g00 = fermi_metric_jets()
        assert J.terms[(2, 0, 0)] == TAU * QQi(Fraction(-1, 2))
        assert J.terms[(3, 0, 0)] == TAU_NU * QQi(Fraction(-1, 6))
        assert J.terms[(4, 0, 0)] == (TAU * TAU - TAU_NUNU) * QQi(Fraction(1, 24))
        assert g00.terms[(2, 0, 0)] == TAU                      # C1 = 1
        assert g00.terms[(3, 0, 0)] == TAU_NU * QQi(Fraction(1, 3))  # C2 = 1/3
        assert g00.terms[(4, 0, 0)] == TAU * TAU * QQi(Fraction(2, 3)) \
            + TAU_NUNU * QQi(Fraction(1, 12))

    def test_jacobi_relation_holds_identically(self):
        # d^2_y J + K J = 0 as jet polynomials at every computed order:
        # (k+2)(k+1) j_{k+2} + sum_m K_m j_{k-m} = 0
        J, _ = fermi_metric_jets()
        assert {b + c for _, b, c in J.terms} == {0}
        j = [J.terms.get((k, 0, 0), JP()) for k in range(SERIES_TRUNC + 1)]
        K = [TAU, TAU_NU, TAU_NUNU * QQi(HALF)]
        for k in range(SERIES_TRUNC - 1):
            residual = j[k + 2] * QQi((k + 2) * (k + 1))
            for m, Km in enumerate(K[: k + 1]):
                residual = residual + Km * j[k - m]
            assert residual.is_zero(), f"y^{k}: {residual}"

    def test_series_inversion_against_numeric_oracle(self):
        # independent float route: evaluate J with concrete jets, invert 1/J^2
        # by naive power-series recursion, compare with the exact g00 jets
        J, g00 = fermi_metric_jets()
        vals = {"tau": 0.7, "tau_nu": 0.3, "tau_nunu": -0.2}

        def values(op):
            return [complex(substitute(op.terms.get((k, 0, 0), JP()), vals)).real
                    for k in range(SERIES_TRUNC + 1)]

        jc = values(J)
        j2 = np.polynomial.polynomial.polymul(jc, jc)[: len(jc)]
        inv = np.zeros_like(j2)
        inv[0] = 1.0 / j2[0]
        for k in range(1, len(inv)):
            inv[k] = -sum(j2[i] * inv[k - i] for i in range(1, k + 1)) / j2[0]
        assert np.allclose(values(g00), inv, atol=1e-12)

    def test_derived_once_per_process(self):
        """The Laplacian and the constants table share one pair of jets."""
        fermi_metric_jets.cache_clear()
        half_density_laplacian()
        constants_report()
        info = fermi_metric_jets.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
        assert fermi_metric_jets() is fermi_metric_jets()


class TestHalfDensityLaplacian:
    def test_flat_jets_give_plain_derivatives(self):
        # every jet and its s-derivatives set to 0: -(d_s^2 + d_y^2) = D_s^2 + D_y^2
        op = half_density_laplacian()
        flat = dict.fromkeys(jet_names(op), 0)
        survivors = {key: substitute(p, flat) for key, p in op.terms.items()}
        survivors = {key: v for key, v in survivors.items() if v}
        assert survivors == {(0, 0, 2): 1, (0, 2, 0): 1}

    def test_half_density_potential_at_axis(self):
        # the multiplication part of the display operator is tau/2 + O(y),
        # the known scalar half-density potential; P = -display flips the sign
        op = half_density_laplacian()
        assert op.terms[(0, 0, 0)] == TAU * QQi(Fraction(-1, 2))

    def test_constant_curvature_substitution(self):
        # tau = 1, other jets 0: no tau_nu / tau_nunu monomials anywhere
        op = half_density_laplacian()
        graded = grade_expansion(op)
        l0 = graded[Fraction(0)]
        vals = {"tau": 1.0, "tau_s": 0.0, "tau_nu": 0.0, "tau_nunu": 0.0}
        quartic = substitute(l0.terms[(4, 0, 0)], vals)
        assert abs(quartic - 2.0 / 3.0) < 1e-15


class TestGrading:
    def test_leading_orders(self):
        graded = grade_expansion(half_density_laplacian())
        l2 = graded[Fraction(-2)]
        assert set(l2.terms) == {(0, 0, 0)}
        assert l2.terms[(0, 0, 0)] == jp(1)                 # L2 = 1
        assert Fraction(-3, 2) not in graded                 # L_3/2 = 0

    def test_l1_matches_lcal(self):
        # L1 = 2 D_s + D_y^2 + tau y^2: tangential derivative plus the
        # curvature oscillator
        l1 = grade_expansion(half_density_laplacian())[Fraction(-1)]
        assert l1.terms[(0, 0, 1)] == jp(2)
        assert l1.terms[(0, 2, 0)] == jp(1)
        assert l1.terms[(2, 0, 0)] == TAU
        assert set(l1.terms) == {(0, 0, 1), (0, 2, 0), (2, 0, 0)}

    def test_l_half_single_monomial(self):
        l12 = grade_expansion(half_density_laplacian())[Fraction(-1, 2)]
        assert set(l12.terms) == {(3, 0, 0)}
        assert l12.terms[(3, 0, 0)] == TAU_NU * QQi(Fraction(1, 3))

    def test_l0_five_term_shape(self):
        l0 = grade_expansion(half_density_laplacian())[Fraction(0)]
        # D_s^2, 2 tau y^2 D_s and y^0, y^2, y^4; no yD_y term: C4 = 0
        assert set(l0.terms) == {(0, 0, 2), (2, 0, 1), (0, 0, 0), (2, 0, 0), (4, 0, 0)}
        assert l0.terms[(0, 0, 2)] == jp(1)                 # D_s^2
        assert l0.terms[(2, 0, 1)] == TAU * QQi(2)          # 2 tau y^2 D_s
        assert l0.terms[(0, 0, 0)] == TAU * QQi(Fraction(-1, 2))     # C5
        assert l0.terms[(2, 0, 0)] == TAU_S_POLY                      # C3
        assert l0.terms[(4, 0, 0)] == TAU * TAU * QQi(Fraction(2, 3)) \
            + TAU_NUNU * QQi(Fraction(1, 12))                        # C1 + tau^2

    def test_graded_jets_stay_in_basic_set(self):
        graded = grade_expansion(half_density_laplacian())
        basic = {"tau", "tau_s", "tau_nu", "tau_nunu"}
        for w, op in graded.items():
            if w <= 0:
                assert jet_names(op) <= basic, f"weight {w} uses {jet_names(op)}"

    def test_resummation_is_exact(self):
        # substituting an exact rational value for h must reproduce the
        # operator with D_s -> h^-1 + D_s and y -> h^(1/2) y re-expanded
        op = half_density_laplacian()
        graded = grade_expansion(op)
        for hroot in (Fraction(1), Fraction(3), Fraction(1, 2)):
            total = FormalOperator()
            for w, part in graded.items():
                total = total + part.scale(QQi(hroot ** int(2 * w)))
            expected = _substituted(op, hroot)
            assert total == expected


def _substituted(op, hroot):
    """op with y -> hroot y, D_y -> D_y/hroot, D_s -> h^-1 + D_s, exact."""
    h = hroot * hroot
    out = FormalOperator()
    for (k, b, c), coeff in op.terms.items():
        for j in range(c + 1):
            # y^k carries hroot^k, D_y^b carries h^(-b/2) = hroot^-b
            factor = QQi(Fraction(math.comb(c, j)) * (1 / h) ** (c - j) * hroot ** (k - b))
            out = out + FormalOperator({(k, b, j): coeff * factor})
    return out


TAU_S_POLY = JetPolynomial.var("tau_s", QQi(0, -1))


class TestDerivedConstants:
    def test_integrand_tables(self):
        parts = derive_normal_form_integrands()
        y4, rem4 = _match_integrand_basis(parts["z4"])
        y0, rem0 = _match_integrand_basis(parts["z0"])
        assert rem4.is_zero() and rem0.is_zero()
        assert y4 == {"a": QQi(Fraction(3, 32)), "b1": QQi(Fraction(-1, 8)),
                      "b2": QQi(Fraction(-1, 16)), "c": QQi(Fraction(-1, 32)),
                      "d": QQi(Fraction(1, 32)), "e": QQi(0)}
        assert y0 == {"a": QQi(0), "b1": QQi(Fraction(1, 8)),
                      "b2": QQi(Fraction(-1, 8)), "c": QQi(0),
                      "d": QQi(0), "e": QQi(Fraction(-1, 2))}

    def test_structural_vanishing_assertions(self):
        parts = derive_normal_form_integrands()
        y4, _ = _match_integrand_basis(parts["z4"])
        y0, _ = _match_integrand_basis(parts["z0"])
        assert y4["e"] == QQi(0)   # e_j = 0 for j = 2
        assert y0["d"] == QQi(0)   # d_j = 0 for j = 0

    def test_round_sphere_linear_relation(self):
        assert round_sphere_c2() == QQi(0)

    def test_report_round_sphere_entry_matches_standalone(self):
        report = constants_report()
        assert report["assertions"]["round_sphere_c2"] == repr(round_sphere_c2())

    def test_shared_graded_expansion_matches_fresh_derivation(self):
        assert graded_laplacian() == grade_expansion(half_density_laplacian())

    def test_round_sphere_constant_term(self):
        parts = derive_normal_form_integrands()
        assert _round_sphere_mean(parts["z0"]) == QQi(Fraction(-1, 4))

    def test_commutator_weights(self):
        """The table's weights are i c_m c_n times the stage 2 weight of
        the pair (z^(m,n), z^(n,m)) at |z|^4 and |z|^0: -i P_1 and
        -i P_3 / 6, the star commutator's 2 P_j / j! times -i/2."""
        weights = stage2_weights()
        assert weights[(3, 0), (0, 3)][2, 2] == QQi(0, -9)
        assert weights[(2, 1), (1, 2)][2, 2] == QQi(0, -3)
        assert weights[(3, 0), (0, 3)][0, 0] == QQi(0, -6)
        assert weights[(2, 1), (1, 2)][0, 0] == QQi(0, 2)
        table = constants_report()["invariant_integrals"]
        assert table["commutator_j2 (weights of Im double integrals)"] == \
            {"(3,0)": "1/64", "(2,1)": "3/64"}
        assert table["commutator_j0"] == {"(3,0)": "1/96", "(2,1)": "-1/32"}

    def test_d_half_binomials(self):
        """The odd term is (1/3) tau_nu y^3 framed: entry (m, 3 - m) is
        C(3, m)/24 tau_nu Yb^m Y^(3-m); the table reads c_m and the
        homological factor -1/c_s off stage 1."""
        assert graded_laplacian()[Fraction(-1, 2)].terms == {(3, 0, 0): TAU_NU * QQi(Fraction(1, 3))}
        c_s, d, _ = conjugated_symbols()
        want = {0: Fraction(1, 24), 1: Fraction(1, 8), 2: Fraction(1, 8), 3: Fraction(1, 24)}
        for m, c in want.items():
            mono = tuple(sorted((name, p) for name, p in (("Y", 3 - m), ("Yb", m), ("tau_nu", 1))
                                if p))
            assert d[m, 3 - m] == JP({mono: QQi(c)}), m
        factors = constants_report()["pipeline_factors"]
        assert factors["d_half cubic coefficients (C_mn;3)"] == \
            {"(0,3)": "1/24", "(1,2)": "1/8", "(2,1)": "1/8", "(3,0)": "1/24"}
        assert factors["first_homological (Q = factor * int d)"] == "-1/2"
        assert c_s == QQi(2)

    def test_odd_term_of_another_form_raises(self, monkeypatch):
        """The table reads c_m off the odd term only where entry (m, 3 - m)
        is a rational times tau_nu Yb^m Y^(3-m)."""
        from zollforms import expansion
        from zollforms.weyl import PolySymbol

        c_s, d, d0 = conjugated_symbols()
        for broken in ({**d.coeffs, (3, 0): d[3, 0] * QQi(0, 1)},
                       {**d.coeffs, (3, 0): d[3, 0] + TAU}):
            monkeypatch.setattr(expansion, "conjugated_symbols",
                                lambda sym=PolySymbol(broken): (c_s, sym, d0))
            with pytest.raises(AssertionError, match="odd term entry \\(3, 0\\)"):
                constants_report()

    def test_report_contents(self):
        report = constants_report()
        assert report["metric_jets"]["g00_y2 (C1)"] == "(1)*tau"
        assert "1/3" in report["metric_jets"]["g00_y3 (C2)"]
        assert report["assertions"]["e2_zero"] == "0"
        assert report["assertions"]["d0_zero"] == "0"
        assert report["assertions"]["C4_zero"] == "0"
        assert report["assertions"]["round_sphere_c2"] == "0"
        assert report["graded"]["L2"] == "(1)"
        assert report["graded"]["L_3/2"] == "0"

    def test_graded_symbols_weyl_ordering(self):
        # y D_y as a graded term: Weyl symbol must be y*eta + i/2,
        # with y*eta = (z^2 - zbar^2)/(4i)
        term = FormalOperator({(1, 1, 0): jp(1)})
        sym = graded_symbols(term)[0]
        assert sym[(2, 0)] == JP.const(QQi(0, Fraction(-1, 4)))
        assert sym[(0, 2)] == JP.const(QQi(0, Fraction(1, 4)))
        assert sym[(0, 0)] == JP.const(QQi(0, HALF))
        assert (1, 1) not in sym.coeffs

    def test_transverse_symbols_reject_mixed_terms(self):
        # y D_y has the Weyl symbol y*eta + i/2, not the key reading y*eta
        term = FormalOperator({(1, 1, 0): jp(1)})
        try:
            transverse_symbols(term)
        except AssertionError as exc:
            assert "mixes y with D_y" in str(exc)
        else:
            raise AssertionError("a term mixing y with D_y was read off its key")

    def test_frame_formal_equals_the_zzbar_route(self):
        """The (y, eta) substitution y -> (Yb z + Y zbar)/2, eta -> (dYb z +
        dY zbar)/2 gives the same jet polynomials as substituting z, zbar
        into the Weyl symbols in (z, zbar), at every weight <= 0."""
        from zollforms.weyl import substitute_linear

        half, halfi = QQi(HALF), QQi(0, HALF)
        Y, Yb, dY, dYb = (JP.var(name) for name in ("Y", "Yb", "dY", "dYb"))
        z_img = (Yb * half + dYb * halfi, Y * half + dY * halfi)
        zb_img = (Yb * half - dYb * halfi, Y * half - dY * halfi)
        for w, op in graded_laplacian().items():
            if w > 0:
                continue
            syms, ref = transverse_symbols(op), graded_symbols(op)
            assert set(syms) == set(ref), w
            got = _frame_formal(list(syms.values()))
            want = substitute_linear([ref[c] for c in syms], z_img, zb_img)
            for c, a, b in zip(syms, got, want):
                assert a.coeffs == b.coeffs, (w, c)


class TestExactStage2:
    """Stage 2, exp(i h^(1/2) Q), in exact arithmetic: the oracle's
    ad-series over the stage 1 operators, with the entries of Q, of the odd
    term d and of its means M as indeterminates, against the closed form
    the engine evaluates."""

    def test_weight_minus_half_is_the_means(self):
        """What the conjugation leaves at weight -1/2 is exactly M: the
        oscillating part of d cancels identically, so no residual is left
        to report beside the first obstruction."""
        from oracles import ad_series, entry_name, stage2_inputs
        from zollforms.expansion import SOperator
        from zollforms.weyl import PolySymbol

        q_jet, ops = stage2_inputs()
        got = ad_series(q_jet, ops, Fraction(-1, 2))
        keys = ((3, 0), (2, 1), (1, 2), (0, 3))
        want = SOperator({0: PolySymbol({k: JP.var(entry_name("M", k)) for k in keys})})
        assert {k: sym.coeffs for k, sym in got.terms.items()} == \
            {k: sym.coeffs for k, sym in want.terms.items()}

    def test_weight_zero_is_d0_plus_terms_linear_in_q(self):
        """Weight 0 is D0 (37 terms) plus 32 terms, each one entry Q_a
        times one M_b or d_b: 69 terms in 9 entries.  They are
        -(i/2) [Q, d + M], the commutator weight of the closed-form route,
        and the Q-free part is D0 itself."""
        from oracles import entry_name, order_zero_by_ad_series, stage2_inputs
        from zollforms.expansion import COMMUTATOR_PREFACTOR, conjugated_symbols
        from zollforms.weyl import PolySymbol, star_commutator

        c_s, d, d0 = conjugated_symbols()
        z = order_zero_by_ad_series()
        assert complex(c_s) == 2.0
        assert len(z.coeffs) == 9 and set(z.coeffs) == set(d0.coeffs)
        assert sum(len(jp.terms) for jp in z.coeffs.values()) == 69
        q_names = {entry_name("Q", k) for k in d.coeffs}
        other = {entry_name(p, k) for p in "Md" for k in d.coeffs}
        linear = 0
        for key, jp in z.coeffs.items():
            free = JP({mono: c for mono, c in jp.terms.items()
                       if not any(name in q_names for name, _ in mono)})
            assert free == d0[key], key
            for mono in set(jp.terms) - set(free.terms):
                names = [name for name, p in mono for _ in range(p)]
                assert len(names) == 2 and len(q_names.intersection(names)) == 1, mono
                assert len(other.intersection(names)) == 1, mono
                linear += 1
        assert linear == 32

        (q, _), ops = stage2_inputs()
        odd = ops[Fraction(-1, 2)].ds_part(0)
        means = PolySymbol({k: JP.var(entry_name("M", k)) for k in d.coeffs})
        want = star_commutator(q, odd + means, COMMUTATOR_PREFACTOR * QQi(2),
                               PolySymbol(dict(d0.coeffs)))
        assert want.coeffs == z.coeffs

    def test_engine_weights_are_the_ad_series_terms(self):
        """The engine's table of stage 2 (its pairs whose a is a first
        entry of d, each with the weights of its mirror pair), per pair
        (a, b) of entries of d and key, the weight of
        <Q_a d_b> + <Q_a> M_b, is the coefficient of
        Q_a d_b and of Q_a M_b in the ad-series at weight 0: 16 (pair, key)
        terms, and no other term in Q."""
        from oracles import entry_name, order_zero_by_ad_series
        from zollforms import normalform

        table = {}
        for a, _, pairs in normalform._symbols().products:
            for b, _, _, weights, mirror_weights in pairs:
                table.update({(key, a, b): w for key, w in weights})
                table.update({(key, a[::-1], b[::-1]): w for key, w in mirror_weights})
        assert len(table) == 16
        z = order_zero_by_ad_series()
        keys = ((3, 0), (2, 1), (1, 2), (0, 3))
        for prefix in "dM":
            got = {}
            for key, jp in z.coeffs.items():
                for mono, c in jp.terms.items():
                    names = dict(mono)
                    a = [k for k in keys if entry_name("Q", k) in names]
                    b = [k for k in keys if entry_name(prefix, k) in names]
                    if a and b:
                        got[key, *a, *b] = complex(c)
            assert got == table, prefix

    def test_a_graded_term_at_weight_minus_three_halves_raises(self, monkeypatch):
        """The closed form of stage 2 holds only with no graded operator at
        weight -3/2, which would add its ad_Q^j at weights -1, -1/2 and 0:
        stage 1 refuses to derive the symbols the closed form reads."""
        from zollforms import expansion

        graded = expansion.graded_laplacian()
        cubic = FormalOperator({(3, 0, 0): TAU_NU})
        monkeypatch.setattr(expansion, "graded_laplacian",
                            lambda: {**graded, Fraction(-3, 2): cubic})
        with pytest.raises(AssertionError, match="weight -3/2"):
            expansion.conjugated_symbols.__wrapped__()
