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

:func:`term_table` is the one term set of each (n, k), built from arrays:
the (C(n,k), k) hyperedges give, by the same closed form in one vectorized
pass, every term's X and Z masks (uint64) and phase exponent, and from them
the shifts.  ``chains`` reads the masks; assembly and Trotterization read the
shifts and the entry powers, parity sectors, sweep runs and mirror built
from them on first read (the sweep runs group commuting terms of equal
shift into fewer kernel steps, the mirror lets the round kernel build a
reverse sweep from a forward one).  The terms as :class:`PauliString`
objects are formed only when something reads them.  The table is built once
per (n, k) and shared.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .model import _validate_n, _validate_nk
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

# entries of the (terms, B, W) mask transient in each chunk of _entry_powers
_CHUNK_ENTRIES = 1 << 16


def _entry_powers(x: np.ndarray, z: np.ndarray, phase_exps: np.ndarray,
                  sectors: np.ndarray) -> np.ndarray:
    """(G, B, W) uint8 e with i**e[g, q, j] the entry of the g-th Pauli string
    (``x``, ``z`` uint64 masks, ``phase_exps``) in row b = sectors[q, j]:
    (phase_exp + 2 parity((b ^ x) & z)) % 4, where parity((b ^ x) & z) =
    parity(x & z) ^ parity(b & z).  b and z are below D, so b & z is taken in
    the narrowest dtype that holds D - 1, a chunk of terms at a time: the
    transient stays small next to the G * D-byte result."""
    dtype = np.min_scalar_type(sectors.size - 1)
    rows, z_rows = sectors.astype(dtype), z.astype(dtype)[:, None, None]
    offsets = ((phase_exps + 2 * (np.bitwise_count(x & z) & 1)) % 4)[:, None, None]
    powers = np.empty((len(z),) + sectors.shape, dtype=np.uint8)
    step = max(1, _CHUNK_ENTRIES // sectors.size)
    for lo in range(0, len(z), step):
        block = powers[lo:lo + step]
        np.bitwise_count(z_rows[lo:lo + step] & rows, out=block)
        block &= 1
        block <<= 1
        block += offsets[lo:lo + step]
        block &= 3
    return powers


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TermTable:
    """Read-only term set of all C(n,k) SYK term operators, as arrays, in
    parity-block coordinates.

    Term g belongs to the g-th hyperedge of ``model.ordering_map(n, k)``; its
    term operator K_g = i**phase_exps[g] X**x_masks[g] Z**z_masks[g] is read
    as a :class:`PauliString` from ``terms[g]``.  Every K_g keeps the B
    parity sectors of width W = D/B that ``sectors`` lists in increasing
    order: even and odd popcount for even k (B = 2), all D indices for odd k
    (B = 1).  This is the one map from a basis index b to its (sector,
    position) coordinates: b = sectors[q, j] with j = b >> (B - 1), as one of
    2j and 2j + 1 has each parity.  Block q of K_g holds coeff[q, j] at
    (j, j ^ s_g) with s_g = shifts[g] = x_g >> (B - 1), so block q of K_g @ M
    has row j = coeff[q, j] * M_q[j ^ s_g].  Every entry of a Pauli string is
    a power of i, so coeff is stored as its exponents: coeff[q, j] =
    i**powers[g, q, j].  Terms of one shift share one X mask; ``sweep_runs``
    lists the terms as the round kernel applies them, in runs of one shift.

    The masks, phase exponents and shifts are built with the table, Gamma *
    25 bytes.  The rest is built on first read: ``terms`` (Gamma * 72 bytes,
    a Pauli string and its tuple slot, plus up to 64 for mask integers past
    256), ``sectors`` (D * 8 bytes), ``powers`` (Gamma * D bytes),
    ``sweep_runs`` (Gamma * 8 bytes, plus about 120 per run for an array
    header and its tuple slot) and ``mirror``.  A caller that reads only the
    arrays (``chains.build_graph``, assembly, the round kernel) forms no
    Pauli string.
    """

    n: int
    k: int
    x_masks: np.ndarray  # (Gamma,) uint64
    z_masks: np.ndarray  # (Gamma,) uint64
    phase_exps: np.ndarray  # (Gamma,) uint8, 0..3
    shifts: np.ndarray  # (Gamma,) intp, s_g < W: K_g maps position j to j ^ s_g

    @cached_property
    def terms(self) -> tuple[PauliString, ...]:
        """The C(n,k) term operators as Pauli strings, in hyperedge order."""
        return tuple(map(partial(PauliString, self.n // 2), self.x_masks.tolist(),
                         self.z_masks.tolist(), self.phase_exps.tolist()))

    @cached_property
    def sectors(self) -> np.ndarray:
        """(B, W) intp: the basis indices of each parity sector, increasing."""
        basis = np.arange(hilbert_dim(self.n))
        parity = np.bitwise_count(basis) & 1 if self.k % 2 == 0 else np.zeros_like(basis)
        sectors = np.stack([basis[parity == q] for q in range(2 - self.k % 2)])
        _read_only(sectors)
        return sectors

    @cached_property
    def powers(self) -> np.ndarray:
        """(Gamma, B, W) uint8: K_g's entry in row b = sectors[q, j] is
        i**powers[g, q, j], powers = (phase_exp + 2 parity((b ^ x_g) & z_g)) % 4."""
        powers = _entry_powers(self.x_masks, self.z_masks, self.phase_exps, self.sectors)
        _read_only(powers)
        return powers

    @cached_property
    def sweep_runs(self) -> tuple[np.ndarray, ...]:
        """The terms in the order a forward sweep applies them, as runs of one
        shift (read-only intp arrays), which the round kernel takes one step
        each; together a permutation of hyperedge order.  Taken in hyperedge
        order, each term moves back past the runs whose terms all commute
        with it and joins the latest run of its own shift if it reaches one,
        else it starts a new run at the end.  Exponentials of commuting terms
        commute, so the sweep is the same operator: anticommuting pairs and
        same-shift terms keep hyperedge order.  Adjacent runs differ in
        shift, as a term whose shift is the last run's joins it.  K_g and K_h
        commute iff popcount((x_g & z_h) ^ (z_g & x_h)) is even; a run's terms
        share one X mask x_r, so that parity is popcount(x_g & z_h) +
        popcount(z_g & x_r) for a term h of the run."""
        runs: list[tuple[int, list[int], list[int]]] = []  # (x_r, Z masks, terms)
        latest: dict[int, int] = {}  # shift -> index of its latest run
        for g, (x, z, shift) in enumerate(zip(self.x_masks.tolist(), self.z_masks.tolist(),
                                              self.shifts.tolist())):
            target = latest.get(shift, -1)
            i = len(runs) - 1
            while i > target:
                run_x, run_zs, _ = runs[i]
                parity = (z & run_x).bit_count()
                if any((parity + (x & run_z).bit_count()) & 1 for run_z in run_zs):
                    break
                i -= 1
            if i == target >= 0:
                runs[i][1].append(z)
                runs[i][2].append(g)
            else:
                latest[shift] = len(runs)
                runs.append((x, [z], [g]))
        sweep = tuple(np.array(terms, dtype=np.intp) for _, _, terms in runs)
        _read_only(*sweep)
        return sweep

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
        mirror = self.mirror
        powers = _entry_powers(np.array([mirror.x_mask], np.uint64),
                               np.array([mirror.z_mask], np.uint64),
                               np.array([mirror.phase_exp], np.uint8), self.sectors)[0]
        # c_j conj(c_l) = i**(e[j] - e[l]); uint8 wraps mod 256, a multiple of 4
        phase = _POWERS_OF_I.take((powers[:, :, None] - powers[:, None, :]) % 4)
        return stack[:, sectors, perm, perm[:, None]] * phase


_TABLE_LOCK = threading.Lock()


def _hyperedges(n: int, k: int) -> np.ndarray:
    """(C(n,k), k) uint8: the hyperedges of ``model.ordering_map(n, k)``, one
    per row, in its order."""
    count = math.comb(n, k)
    flat = chain.from_iterable(combinations(range(1, n + 1), k))
    return np.fromiter(flat, dtype=np.uint8, count=count * k).reshape(count, k)


@lru_cache(maxsize=32)
def _build_term_table(n: int, k: int) -> TermTable:
    """The closed form of :func:`term_operator`, on every hyperedge at once."""
    edges = _hyperedges(n, k)
    bits = np.left_shift(np.uint64(1), ((edges - 1) >> 1).astype(np.uint64))  # qubit of chi_i
    evens = edges % 2 == 0  # chi_{2j} carries Y = i X Z
    x_masks = np.bitwise_xor.reduce(bits, axis=1)
    z_masks = np.bitwise_xor.reduce((bits - 1) ^ (bits * evens), axis=1)
    phase_exps = ((evens.sum(axis=1) + k * (k - 1) // 2) % 4).astype(np.uint8)
    # B - 1: even k keeps two parity sectors, odd k one
    shifts = (x_masks >> (1 - k % 2)).astype(np.intp)
    _read_only(x_masks, z_masks, phase_exps, shifts)
    return TermTable(n, k, x_masks, z_masks, phase_exps, shifts)


def term_table(n: int, k: int) -> TermTable:
    """The cached :class:`TermTable` of all C(n,k) terms among n Majoranas.

    Its masks are uint64 and its shifts intp, so it holds n <= 128 for even
    k and n <= 126 for odd k (the shift x >> (B - 1) of an odd-k term can
    take bit n/2 - 1); past that it raises ValueError.  Built on first use
    and shared afterwards; the lock makes concurrent first calls build it
    once.
    """
    _validate_nk(n, k)
    limit = 128 if k % 2 == 0 else 126
    if n > limit:
        parity = "even" if k % 2 == 0 else "odd"
        raise ValueError(f"a term table at {parity} k holds n <= {limit} Majoranas "
                         f"(its shifts are 63-bit), got n={n}")
    with _TABLE_LOCK:
        return _build_term_table(n, k)
