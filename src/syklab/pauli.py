"""Exact integer-arithmetic algebra of n-qubit Pauli strings.

A Pauli string is stored in the symplectic representation

    P = i**phase_exp * X**x_mask * Z**z_mask,

where ``X**x_mask`` denotes the tensor product of X on every qubit whose bit
is set in ``x_mask`` (qubit j <-> bit j-1), and likewise for Z.  All algebra
(multiplication, commutation) is exact integer arithmetic on the masks and
the phase exponent.  :func:`to_dense` is the one dense view, built from the
signed permutation P|b> = coeff[b] |b ^ x_mask>; the Hamiltonian and the
product formulas read that permutation from ``fermions.term_table``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PauliString",
    "multiply",
    "commutes",
    "is_hermitian",
    "to_dense",
]


class DimensionError(ValueError):
    """Raised when two operands act on different numbers of qubits."""


# slots: each cached fermions.term_table keeps its C(n,k) terms for good
@dataclass(frozen=True, slots=True)
class PauliString:
    """An n-qubit Pauli operator: two bit masks plus a global phase i**k."""

    num_qubits: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        full = (1 << self.num_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask does not fit in num_qubits bits")
        if self.phase_exp not in (0, 1, 2, 3):
            object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def label(self) -> str:
        """Human-readable label, e.g. ``'(-i) XZY'`` (qubit 1 first).

        Each displayed Y stands for i*XZ, so the printed phase is
        phase_exp minus one per Y (mod 4).
        """
        chars = []
        for j in range(self.num_qubits):
            x = (self.x_mask >> j) & 1
            z = (self.z_mask >> j) & 1
            chars.append("IXZW"[x + 2 * z].replace("W", "Y"))
        shown = (self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 4
        pref = {0: "", 1: "(i) ", 2: "(-) ", 3: "(-i) "}[shown]
        return pref + "".join(chars)


def _check_same_size(a: PauliString, b: PauliString) -> None:
    if a.num_qubits != b.num_qubits:
        raise DimensionError(
            f"operand sizes differ: {a.num_qubits} vs {b.num_qubits} qubits"
        )


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a*b.

    With P = i**e X**x Z**z, commuting Z**z_a past X**x_b costs
    (-1)**|z_a & x_b|, so the product phase exponent is
    e_a + e_b + 2*|z_a & x_b| (mod 4); masks XOR.
    """
    _check_same_size(a, b)
    swap = (a.z_mask & b.x_mask).bit_count()
    return PauliString(
        a.num_qubits,
        a.x_mask ^ b.x_mask,
        a.z_mask ^ b.z_mask,
        (a.phase_exp + b.phase_exp + 2 * swap) % 4,
    )


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff [a, b] = 0: symplectic overlap |x_a&z_b| + |z_a&x_b| even."""
    _check_same_size(a, b)
    overlap = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return overlap % 2 == 0


def is_hermitian(p: PauliString) -> bool:
    """P** = i**(-e) (-1)**|x&z| X**x Z**z, so Hermitian iff e = |x&z| (mod 2)."""
    return (p.phase_exp - (p.x_mask & p.z_mask).bit_count()) % 2 == 0


def _coefficients(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation data: P|b> = coeff[b] |b ^ x_mask>.

    coeff[b] = i**phase_exp * (-1)**|z_mask & b|.
    """
    dim = 1 << p.num_qubits
    basis = np.arange(dim, dtype=np.uint64)
    signs = 1.0 - 2.0 * (
        np.bitwise_count(basis & np.uint64(p.z_mask)).astype(np.int64) % 2
    )
    perm = (basis ^ np.uint64(p.x_mask)).astype(np.intp)
    return perm, (1j ** p.phase_exp) * signs


def to_dense(p: PauliString) -> np.ndarray:
    """Dense matrix of ``p`` (basis index bit j-1 = state of qubit j)."""
    dim = 1 << p.num_qubits
    perm, coeff = _coefficients(p)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), perm] = coeff[perm]
    return mat
