"""Pauli-string algebra and the Jordan-Wigner Majorana representation.

Every operator in this library is a product i**e * X**x * Z**z encoded as two
bit masks plus a phase exponent, so products, commutation checks, and
Hermiticity are exact integer arithmetic.  This script walks through the
basic algebra and verifies {chi_i, chi_j} = 2 delta_ij for the Jordan-Wigner
Majoranas, then shows the (-1)**(k+m) sign law between SYK term operators.

Run:  python demos/01_pauli_and_majorana_algebra.py
"""

import numpy as np

from syklab.fermions import jordan_wigner, term_operator
from syklab.pauli import PauliString, commutes, is_hermitian, multiply, to_dense

# --- single-qubit sanity: Y = i X Z ---------------------------------------
y = PauliString(num_qubits=1, x_mask=1, z_mask=1, phase_exp=1)
print("Y as bit masks:", y, "->", y.label())
print("Y dense:\n", to_dense(y))
print("Y hermitian:", is_hermitian(y))

# X and Z anticommute; their product is -iY
x = PauliString(1, 1, 0, 0)
z = PauliString(1, 0, 1, 0)
print("\n[X, Z] vanish?", commutes(x, z))
print("X * Z =", multiply(x, z).label())

# --- Jordan-Wigner Majoranas ----------------------------------------------
n = 8
chis = [jordan_wigner(i, n) for i in range(1, n + 1)]
print(f"\nMajoranas for n = {n} (dimension {2 ** (n // 2)}):")
for i, chi in enumerate(chis[:4], 1):
    print(f"  chi_{i} = {chi.label()}")

violations = 0
for i, a in enumerate(chis):
    sq = multiply(a, a)
    violations += (sq.x_mask, sq.z_mask, sq.phase_exp) != (0, 0, 0)
    for b in chis[i + 1:]:
        ab, ba = multiply(a, b), multiply(b, a)
        violations += (ab.phase_exp - ba.phase_exp) % 4 != 2
print(f"{{chi_i, chi_j}} = 2 delta_ij violations: {violations}")

# --- SYK term operators and the sign law ----------------------------------
# i**(k(k-1)/2) chi_{i1} ... chi_{ik} is Hermitian and involutory; two terms
# commute iff k + |hyperedge overlap| is even.
k = 4
a = term_operator((1, 2, 3, 4), n)
b = term_operator((1, 2, 5, 6), n)   # overlap 2 -> k + m even -> commute
c = term_operator((1, 2, 3, 5), n)   # overlap 3 -> odd -> anticommute
print(f"\nterm (1,2,3,4) hermitian: {is_hermitian(a)}")
print("overlap 2 commutes:", commutes(a, b))
print("overlap 3 commutes:", commutes(a, c))

mat = to_dense(a)
print("dense check: T^2 = I ->", np.allclose(mat @ mat, np.eye(len(mat))))
