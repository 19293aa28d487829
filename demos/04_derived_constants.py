"""The machine-derived universal constants of the construction.

Everything in this table is exact rational (or Gaussian-rational)
arithmetic: the Fermi metric jets, the graded operators of the scaled
half-density Laplacian, the transvectant tables of the Weyl calculus,
and the coefficient tables of the order-zero diagonal integrand over the
Jacobi-monomial basis, including the two structural vanishing statements
and the round-sphere linear relation among the constants.
"""

from zollforms.expansion import constants_report

report = constants_report()

print("== normalization conventions ==")
for key, value in report["normalization"].items():
    print(f"  {key:16s} {value}")

print()
print("== Fermi metric jets (J and g^00) ==")
for key, value in report["metric_jets"].items():
    print(f"  {key:16s} {value}")

print()
print("== graded operators ==")
for key, value in report["graded"].items():
    print(f"  {key:28s} {value}")

print()
print("== order-zero diagonal integrand, closed basis ==")
print("   basis: |dY|^4, tau |dY Y|^2, tau Re(dY Yb)^2, tau^2 |Y|^4,")
print("          tau_nunu |Y|^4, tau")
for j in ("j2 (|z|^4)", "j0 (|z|^0)"):
    print(f"  {j}: {report['invariant_integrals'][j]}")
print(f"  commutator weights (|z|^4): "
      f"{report['invariant_integrals']['commutator_j2 (weights of Im double integrals)']}")
print(f"  commutator weights (|z|^0): {report['invariant_integrals']['commutator_j0']}")

print()
print("== structural assertions ==")
for key, value in report["assertions"].items():
    print(f"  {key:18s} {value}")

print()
print("== transvectant tables for cubic monomials ==")
print(f"  P1: {report['transvectants']['P1_cubic_pairs']}")
print(f"  P3: {report['transvectants']['P3_cubic_pairs']}")
