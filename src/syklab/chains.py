"""Exact combinatorics of nested-commutator chains.

Everything here is oracle-grade: exact counts at small sizes, used to verify
the counting lemmas behind the higher-order bounds.

A :class:`TermSet` is its terms' X and Z mask arrays first: the full SYK set
of :func:`syk_termset` takes them from ``fermions.term_table(n, k)``, an
explicit list of terms derives them from its Pauli strings, and
:func:`build_graph` reads nothing else.  The terms as :class:`PauliString`
objects are formed only on demand (``TermSet.terms``).

For a chain (j_0, ..., j_{g-1}) over a set of m Pauli terms, the nested
commutator L_{j_{g-1}} ... L_{j_1}[H_{j_0}] (L_a = [H_a, .]) is nonzero iff
at every step the next term anticommutes with the accumulated product, since
a commutator of Pauli strings is either 0 or 2x their product.  The
symplectic form is bilinear over GF(2), so the anticommutation row of a
product (bit j set iff term j anticommutes with it) is the XOR of its
factors' rows: chains are followed on the termset's rows
(:attr:`TermSet.anticommuting`) and no Pauli product is formed.

G_w(H) = sum over weight vectors w_vec with |w_vec| = w of
    ( sum over pi in S_g, v_vec with |w_vec| + 2|v_vec| = g of
        ind(pi[eta(w_vec, 2 v_vec)]) )^2,

with eta the unary encoding (term i repeated w_vec_i times, then term j
repeated 2 v_vec_j times).  The sum over pi in S_g is an exact integer that
depends only on the multiset, so each termset holds one table of them
(:meth:`TermSet.surviving`), built forward by multiset size: a multiset U
with count c and product row a extends by term j iff U is empty or bit j of
a is set, adding c * (U_j + 1) to U + e_j (its copies of j count apart, as
in S_g).  Each surviving U of size g is then split, once for every w, into
each w_vec with w_vec_i in {U_i mod 2, U_i mod 2 + 2, ..., U_i}; the counts
are kept on the termset per (g, |w_vec|), and the support and w_vecs of a
count vector are formed once per distinct U (:func:`_split`).  The
Bernoulli average <G_w> weights each w_vec by prod_{i in Supp(w_vec)} b_i
outside the square and each v_vec by prod_{j in Supp(v_vec) \\ Supp(w_vec)}
b_j inside.  Expanding the square, b^2 = b and independent b_i with mean p_B
give it in closed form:

<G_w> = sum over w_vec, and over pairs (v_vec, v_vec') of its surviving
    counts, of count * count' * p_B^|Supp(w_vec) u Supp(v_vec) u Supp(v_vec')|.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .fermions import TermTable, _read_only, term_operator, term_table
from .pauli import PauliString

__all__ = [
    "TermSet",
    "syk_termset",
    "indicator",
    "q_max",
    "gw_bruteforce",
    "avg_gw_exact",
    "lemma_d_bound",
    "lemma_e_bound",
    "build_graph",
    "greedy_coloring",
]

MAX_CHAIN_LENGTH = 5
MAX_TERMS = 6
_WORD = (1 << 64) - 1
_ROW_BLOCK = 128  # adjacency rows build_graph forms at a time


def _packed_rows(adjacency: np.ndarray) -> tuple[int, ...]:
    """The rows of an (m, m) bool adjacency as integers: bit j of entry i is
    entry (i, j)."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _mask_words(x: Sequence[int] | np.ndarray,
                z: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (m, W) word arrays of :class:`TermSet` for X and Z masks given as
    lists of ints or as uint64 arrays."""
    biggest = int(max(np.max(x, initial=0), np.max(z, initial=0)))
    if biggest <= _WORD:
        dtype = np.min_scalar_type(biggest)
        words = [np.asarray(masks, dtype=dtype)[:, None] for masks in (x, z)]
    else:
        shifts = range(0, biggest.bit_length(), 64)
        words = [np.array([[mask >> s & _WORD for s in shifts] for mask in masks],
                          dtype=np.uint64) for masks in (x, z)]
    _read_only(*words)
    return words[0], words[1]


class TermSet:
    """m Hermitian Pauli terms (any pair commutes or anticommutes).

    The terms are held as their masks: ``x`` and ``z`` are (m, W) read-only
    arrays of the X and Z masks' 64-bit words, least significant first.
    Masks that fit 64 bits take one word (W = 1) in the narrowest unsigned
    dtype that holds all of them (uint8 up to 8 qubits).  ``TermSet(terms)``
    takes a sequence of :class:`PauliString` and derives its masks from
    them; the full set of :func:`syk_termset` takes the term table's arrays,
    and its ``terms`` are the table's, formed on first read.
    """

    _table: TermTable | None = None  # the full SYK set's, which holds its terms

    def __init__(self, terms: Sequence[PauliString]) -> None:
        self._terms = tuple(terms)
        self.x, self.z = _mask_words([t.x_mask for t in self._terms],
                                     [t.z_mask for t in self._terms])

    @classmethod
    def _of_table(cls, table: TermTable) -> TermSet:
        termset = cls.__new__(cls)
        termset._table = table
        termset.x, termset.z = _mask_words(table.x_masks, table.z_masks)
        return termset

    @property
    def terms(self) -> tuple[PauliString, ...]:
        """The terms as Pauli strings; a full SYK set reads its table's."""
        return self._terms if self._table is None else self._table.terms

    @property
    def m(self) -> int:
        return len(self.x)

    @cached_property
    def anticommuting(self) -> tuple[int, ...]:
        """Anticommutation rows: bit j of entry i is set iff terms i and j
        anticommute (a term commutes with itself, so bit i is clear); the
        rows of :func:`build_graph`'s adjacency, packed into integers."""
        return _packed_rows(build_graph(self))

    @cached_property
    def _layers(self) -> list[dict[tuple[int, ...], tuple[int, int]]]:
        return [{(0,) * self.m: (1, 0)}]

    @cached_property
    def _counts(self) -> dict[int, dict[int, list[list[tuple[int, int]]]]]:
        return {}  # g -> w -> the chain counts of _chain_counts

    def surviving(self, size: int) -> dict[tuple[int, ...], tuple[int, int]]:
        """Multisets of ``size`` terms with surviving orderings: count vector
        U -> (number of orderings pi with ind(pi[eta(U)]) = 1, copies told
        apart, anticommutation row of the product).  Layers are built once,
        up to the largest size asked for."""
        layers, rows = self._layers, self.anticommuting
        while len(layers) <= size:
            nxt: dict[tuple[int, ...], tuple[int, int]] = {}
            for u, (num, row) in layers[-1].items():
                allowed = row if len(layers) > 1 else (1 << self.m) - 1
                for j in range(self.m):
                    if allowed >> j & 1:
                        v = u[:j] + (u[j] + 1,) + u[j + 1:]
                        total = nxt[v][0] if v in nxt else 0
                        nxt[v] = (total + num * (u[j] + 1), row ^ rows[j])
            layers.append(nxt)
        return layers[size]


def syk_termset(n: int, k: int, edges: Sequence[Sequence[int]] | None = None) -> TermSet:
    """Termset of SYK term operators: those of ``edges``, in order, or by
    default all C(n,k) terms of the cached ``fermions.term_table(n, k)``."""
    if edges is None:
        return TermSet._of_table(term_table(n, k))
    return TermSet(tuple(term_operator(e, n) for e in edges))


def indicator(chain: Sequence[int], terms: TermSet) -> int:
    """1 iff the nested commutator over ``chain`` (0-based indices,
    chain[0] innermost) is nonzero.  Every index must lie in [0, m)."""
    if len(chain) == 0:
        raise ValueError("chain must be non-empty")
    rows = terms.anticommuting
    if not 0 <= min(chain) <= max(chain) < len(rows):
        bad = next(j for j in chain if not 0 <= j < len(rows))
        raise ValueError(f"chain index {bad} is outside the termset's {len(rows)} terms")
    acc = rows[chain[0]]
    for j in chain[1:]:
        if not acc >> j & 1:
            return 0
        acc ^= rows[j]
    return 1


def q_max(terms: TermSet) -> int:
    """max over terms of the number of anticommuting partners."""
    return max((row.bit_count() for row in terms.anticommuting), default=0)


def _check_guards(terms: TermSet, g: int, w: int) -> None:
    if g > MAX_CHAIN_LENGTH:
        raise ValueError(f"cost guard: chain length g <= {MAX_CHAIN_LENGTH}")
    if terms.m > MAX_TERMS:
        raise ValueError(f"cost guard: m <= {MAX_TERMS} terms")
    if g < 1:
        raise ValueError(f"chains need length g >= 1, got g={g}")
    if not 0 <= w <= g:
        raise ValueError(f"need 0 <= w <= g, got w={w}, g={g}")


# keyed on count vectors of at most MAX_TERMS entries summing to at most
# MAX_CHAIN_LENGTH (the chain guards): 917 of them with g >= 1
@lru_cache(maxsize=None)
def _split(u: tuple[int, ...]) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """The support mask of the count vector u (bit i set iff u_i > 0), and
    each w_vec with w_vec_i in {u_i mod 2, u_i mod 2 + 2, ..., u_i}, with
    its size |w_vec|: the weight vectors u splits into."""
    w_vecs = product(*(range(c % 2, c + 1, 2) for c in u))
    return (sum(1 << i for i, c in enumerate(u) if c),
            tuple((sum(w_vec), w_vec) for w_vec in w_vecs))


def _chain_counts(terms: TermSet, g: int, w: int) -> list[list[tuple[int, int]]]:
    """For each w_vec with |w_vec| = w, and each v_vec with |w_vec| + 2|v_vec|
    = g whose chains survive: the support mask Supp(w_vec) u Supp(v_vec) of
    eta and the count of its surviving orderings.  A w_vec with no surviving
    v_vec has no entry.  The first call for (terms, g) splits each surviving
    multiset once, into its w_vecs of every w, and keeps the result on
    ``terms``."""
    if g not in terms._counts:
        splits = defaultdict(dict)  # w -> w_vec -> [(support, count)]
        for u, (count, _) in terms.surviving(g).items():
            support, w_vecs = _split(u)
            for size, w_vec in w_vecs:
                splits[size].setdefault(w_vec, []).append((support, count))
        terms._counts[g] = {size: list(inner.values()) for size, inner in splits.items()}
    return terms._counts[g].get(w, [])


def gw_bruteforce(terms: TermSet, g: int, w: int) -> int:
    """Exact G_w(H) by full enumeration (guards: g <= 5, m <= 6)."""
    _check_guards(terms, g, w)
    if (g - w) % 2 != 0:
        return 0
    return sum(sum(count for _, count in inner) ** 2 for inner in _chain_counts(terms, g, w))


def avg_gw_exact(terms: TermSet, g: int, w: int, p_b: float) -> float:
    """Exact Bernoulli expectation <G_w(H(B))>, in closed form over the
    chain counts of :func:`gw_bruteforce` (same guards: g <= 5, m <= 6)."""
    _check_guards(terms, g, w)
    if not 0.0 <= p_b <= 1.0:
        raise ValueError("p_B must lie in [0, 1]")
    if (g - w) % 2 != 0:
        return 0.0
    return math.fsum(
        count * count2 * p_b ** (mask | mask2).bit_count()
        for inner in _chain_counts(terms, g, w)
        for mask, count in inner
        for mask2, count2 in inner
    )


def lemma_d_bound(g: int, m: int, qmax: int) -> float:
    """Counting bound G_w <= g^(3g-2) m^2 Q_max^(g-2) (Q_max^0 = 1)."""
    # 0.0 ** 0 == 1.0 and 0.0 ** e == 0.0 for e > 0; only e < 0 divides by 0
    qpow = math.inf if qmax == 0 and g < 2 else float(qmax) ** (g - 2)
    return float(g) ** (3 * g - 2) * m**2 * qpow


def lemma_e_bound(g: int, w: int, m: int, qmax: int, p_b: float) -> float:
    """Averaged bound <G_w> <= g^(4g) m^2 Q_max^(-2)
    * sum_{s<=w} sum_{q,q'<=(g-w)/2} sum_{c<=min(q,q')} (p_B Q_max)^(s+q+q'-c)."""
    if qmax <= 0:
        raise ValueError("lemma_e_bound needs Q_max >= 1")
    half = (g - w) // 2
    total = 0.0
    for s in range(w + 1):
        for qa in range(half + 1):
            for qb in range(half + 1):
                for c in range(min(qa, qb) + 1):
                    total += (p_b * qmax) ** (s + qa + qb - c)
    return float(g) ** (4 * g) * m**2 * total / qmax**2


def build_graph(terms: TermSet) -> np.ndarray:
    """The anticommutation graph as its (m, m) bool adjacency: entry (i, j)
    is set iff terms i and j anticommute (the diagonal is clear), from
    vectorized symplectic parities of the termset's mask arrays, in their
    dtype.  Rows are formed ``_ROW_BLOCK`` (128) at a time in two reused
    (rows, m) buffers and written into the result, so no (m, m) temporary
    is made."""
    m = terms.m
    adj = np.empty((m, m), dtype=bool)
    acc = np.empty((min(m, _ROW_BLOCK), m), dtype=terms.x.dtype)
    tmp = np.empty_like(acc)
    # |x_i & z_j| + |z_i & x_j| = |(x_i & z_j) ^ (z_i & x_j)| (mod 2), and
    # the parities of a mask's words add up (mod 2) as their XOR does
    for start in range(0, m, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, m)
        block, scratch = acc[: stop - start], tmp[: stop - start]
        block.fill(0)
        for x, z in zip(terms.x.T, terms.z.T):
            np.bitwise_and(x[start:stop, None], z, out=scratch)
            block ^= scratch
            np.bitwise_and(z[start:stop, None], x, out=scratch)
            block ^= scratch
        np.bitwise_count(block, out=block)
        np.bitwise_and(block, 1, out=adj[start:stop].view(np.uint8))
    np.fill_diagonal(adj, False)
    return adj


def greedy_coloring(adjacency: np.ndarray) -> int:
    """Sequential greedy coloring of the graph with symmetric (m, m) bool
    adjacency ``adjacency``, in vertex-index order (vertex v takes the
    smallest color that no neighbour u < v has); returns the number of
    colors used, at most maxdegree + 1.

    The colors are formed one class at a time on the rows packed into
    integers: class c takes, in index order, each uncolored vertex with no
    neighbour in the class so far (the lowest still free, whose neighbours
    then stop being free).  By induction on c this is the vertex-order
    coloring: a vertex gets color c exactly when it has no lower color and
    no lower neighbour of color c."""
    rows = _packed_rows(adjacency)
    uncolored, used = (1 << len(rows)) - 1, 0
    while uncolored:
        free = uncolored
        while free:
            low = free & -free
            uncolored ^= low
            free ^= low
            free &= ~rows[low.bit_length() - 1]
        used += 1
    return used
