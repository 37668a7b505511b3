"""Jordan-Wigner representation of Majorana fermions and k-local term operators.

Convention (pinned for reproducibility; any representation obeying
{chi_i, chi_j} = 2 delta_ij would do):

    chi_{2j-1} = Z_1 ... Z_{j-1} X_j
    chi_{2j}   = Z_1 ... Z_{j-1} Y_j

n Majoranas act on n/2 qubits, so the Hilbert-space dimension is D = 2**(n/2).
A hyperedge {i_1 < ... < i_k} maps to the Hermitian, involutory term operator

    K = i**(k(k-1)/2) * chi_{i_1} ... chi_{i_k},

a Pauli string built in closed form: its X mask is the XOR of the factors'
qubit bits, its Z mask the XOR of their Z strings (plus the factor's own bit
for an even index, Y = iXZ), and its phase exponent the number of even
indices plus k(k-1)/2.  In increasing order no factor's Z string reaches a
later factor's qubit, so moving the Zs past the Xs costs no sign.

:func:`term_table` is the one term set of each (n, k): the C(n,k) term
operators as Pauli strings, which ``chains`` reads, and their
signed-permutation data and parity sectors, which assembly and
Trotterization read, and its mirror, with which the round kernel builds a
reverse sweep from a forward one.  It is built once per (n, k) and shared.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .model import _validate_n, ordering_map
from .pauli import PauliString, multiply

__all__ = [
    "jordan_wigner",
    "term_operator",
    "TermTable",
    "term_table",
    "hilbert_dim",
]


def hilbert_dim(n: int) -> int:
    """Dimension D = 2**(n/2) of the space carrying n Majorana fermions."""
    _validate_n(n)
    return 1 << (n // 2)


def jordan_wigner(index: int, n: int) -> PauliString:
    """Pauli string of Majorana chi_index (1-based) among n Majoranas."""
    _validate_n(n)
    if not 1 <= index <= n:
        raise ValueError(f"Majorana index {index} out of range [1, {n}]")
    num_qubits = n // 2
    site = (index + 1) // 2  # qubit carrying the X or Y factor, 1-based
    z_string = (1 << (site - 1)) - 1  # Z on qubits 1 .. site-1
    bit = 1 << (site - 1)
    if index % 2 == 1:  # chi_{2j-1} = Z...Z X_j
        return PauliString(num_qubits, bit, z_string, 0)
    # chi_{2j} = Z...Z Y_j with Y = i X Z
    return PauliString(num_qubits, bit, z_string | bit, 1)


def term_operator(hyperedge: Sequence[int], n: int) -> PauliString:
    """Hermitian term operator i**(k(k-1)/2) chi_{i_1}...chi_{i_k}.

    ``hyperedge`` must be strictly increasing with entries in [1, n].
    """
    _validate_n(n)
    edge = tuple(hyperedge)
    if not edge:
        raise ValueError("hyperedge must be non-empty")
    if any(not 1 <= i <= n for i in edge):
        raise ValueError(f"hyperedge {edge} has entries outside [1, {n}]")
    if any(a >= b for a, b in zip(edge, edge[1:])):
        raise ValueError(f"hyperedge {edge} must be strictly increasing")
    k = len(edge)
    x_mask = z_mask = evens = 0
    for i in edge:
        bit = 1 << ((i - 1) // 2)  # qubit of chi_i
        x_mask ^= bit
        z_mask ^= bit - 1  # Z on the qubits before it
        if i % 2 == 0:  # chi_{2j} carries Y = i X Z
            z_mask ^= bit
            evens += 1
    return PauliString(n // 2, x_mask, z_mask, (evens + k * (k - 1) // 2) % 4)


# i**e for e = 0..3, the entries of a Pauli string
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _entry_powers(pauli: PauliString, sectors: np.ndarray) -> np.ndarray:
    """(B, W) uint8 e with i**e the entry of ``pauli`` in row b = sectors[q, j]:
    (phase_exp + 2 parity((b ^ x) & z)) % 4."""
    parity = np.bitwise_count((sectors ^ pauli.x_mask) & pauli.z_mask) & 1
    return ((pauli.phase_exp + 2 * parity) % 4).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class TermTable:
    """Read-only term set of all C(n,k) SYK term operators, in parity-block
    coordinates.

    Term g belongs to the g-th hyperedge of ``model.ordering_map(n, k)``;
    ``terms[g]`` is its :class:`PauliString` K_g.  Every K_g keeps the B
    parity sectors of width W = D/B that ``sectors`` lists in increasing
    order: even and odd popcount for even k (B = 2), all D indices for odd k
    (B = 1).  This is the one map from a basis index b to its (sector,
    position) coordinates: b = sectors[q, j] with j = b >> (B - 1), as one of
    2j and 2j + 1 has each parity.  Block q of K_g holds coeff[q, j] at
    (j, j ^ s_g) with s_g = shifts[g] = x_g >> (B - 1) and coeff =
    permuted_coefficients(g), so block q of K_g @ M has row j = coeff[q, j] *
    M_q[j ^ s_g].  Every entry of a Pauli string is a power of i, so coeff is
    stored as its exponents: coeff[q, j] = i**powers[g, q, j].  ``sectors``
    (D * 8 bytes), ``powers`` (Gamma * D bytes) and ``mirror`` are built on
    first read, so a caller that reads only ``terms`` pays for none; the rest
    takes at most Gamma * 72 bytes (64 per term).
    """

    n: int
    k: int
    terms: tuple[PauliString, ...]
    shifts: np.ndarray  # (Gamma,) intp, s_g < W: K_g maps position j to j ^ s_g

    @cached_property
    def sectors(self) -> np.ndarray:
        """(B, W) intp: the basis indices of each parity sector, increasing."""
        basis = np.arange(hilbert_dim(self.n))
        parity = np.bitwise_count(basis) & 1 if self.k % 2 == 0 else np.zeros_like(basis)
        sectors = np.stack([basis[parity == q] for q in range(2 - self.k % 2)])
        sectors.flags.writeable = False
        return sectors

    @cached_property
    def powers(self) -> np.ndarray:
        """(Gamma, B, W) uint8: K_g's entry in row b = sectors[q, j] is
        i**powers[g, q, j], powers = (phase_exp + 2 parity((b ^ x_g) & z_g)) % 4."""
        powers = np.empty((len(self.terms),) + self.sectors.shape, dtype=np.uint8)
        for g, pauli in enumerate(self.terms):
            powers[g] = _entry_powers(pauli, self.sectors)
        powers.flags.writeable = False
        return powers

    @cached_property
    def mirror(self) -> PauliString | None:
        """The Pauli string Q with Q K_g^T Q^dag = K_g for every term, or
        None, chosen from (n, k): K_g^T = (-1)**(k(k-1)/2 + e_g) K_g, e_g the
        even indices of g (Y^T = -Y), and the product of the m = n/2 odd (even)
        Majoranas conjugates chi_i to (-1)**m chi_i, or (-1)**(m-1) chi_i for
        its own factors, so Q K_g^T Q^dag = (-1)**(k(k-1)/2 + k(m-1)) K_g for
        Q = chi_1 chi_3 ... chi_{n-1} and (-1)**(k(k-1)/2 + k m) K_g for chi_2
        chi_4 ... chi_n, whatever g.  Both are odd for k = 2 (mod 4): None."""
        if self.k % 4 == 2:
            return None
        # the odd product where its exponent is even (every k = 0 (mod 4)), else the even one
        first = 1 if (self.k * (self.k - 1) // 2 + self.k * (self.n // 2 - 1)) % 2 == 0 else 2
        return reduce(multiply, (jordan_wigner(i, self.n) for i in range(first, self.n + 1, 2)))

    def mirrored(self, stack: np.ndarray) -> np.ndarray:
        """Q F^T Q^dag for each (B, W, W) block stack F of an (N, B, W, W)
        ``stack``, Q = ``mirror``: Q maps row sectors[q, j] to column
        sectors[q ^ swap, j ^ shift] with entry c[q, j] = i**e[q, j], so block
        q of Q F^T Q^dag is c[q, j] conj(c[q, l]) F_{q ^ swap}[l ^ shift, j ^
        shift] at (j, l): one gather and one (B, W, W) phase multiply."""
        num_blocks, width = self.sectors.shape
        x_mask = self.mirror.x_mask
        swap = (num_blocks - 1) * (x_mask.bit_count() & 1)  # 1 if Q flips parity
        sectors = (np.arange(num_blocks) ^ swap)[:, None, None]
        perm = np.arange(width) ^ (x_mask >> (num_blocks - 1))
        powers = _entry_powers(self.mirror, self.sectors)
        # c_j conj(c_l) = i**(e[j] - e[l]); uint8 wraps mod 256, a multiple of 4
        phase = _POWERS_OF_I.take((powers[:, :, None] - powers[:, None, :]) % 4)
        return stack[:, sectors, perm, perm[:, None]] * phase

    def permuted_coefficients(self, g: int, scale: complex = 1.0) -> np.ndarray:
        """scale * coeff: the (B, W) nonzero entries of scale * K_g; an
        (N, 1, 1) array of scales gives the (N, B, W) entries of N multiples."""
        return scale * _POWERS_OF_I.take(self.powers[g])


_TABLE_LOCK = threading.Lock()


@lru_cache(maxsize=32)
def _build_term_table(n: int, k: int) -> TermTable:
    terms = tuple(term_operator(edge, n) for edge in ordering_map(n, k))
    # B - 1: even k keeps two parity sectors, odd k one
    shifts = np.array([pauli.x_mask >> (1 - k % 2) for pauli in terms], dtype=np.intp)
    shifts.flags.writeable = False
    return TermTable(n, k, terms, shifts)


def term_table(n: int, k: int) -> TermTable:
    """The cached :class:`TermTable` of all C(n,k) terms among n Majoranas.

    Built on first use and shared afterwards; the lock makes concurrent
    first calls build it once.
    """
    with _TABLE_LOCK:
        return _build_term_table(n, k)
