"""Exact combinatorics of nested-commutator chains.

Everything here is oracle-grade: exact counts at small sizes, used to verify
the counting lemmas behind the higher-order bounds.

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
repeated 2 v_vec_j times).  The sum over pi in S_g is an exact integer
count: a depth-first search over orderings of the multiset eta that picks
the next term only while it anticommutes with the product so far, weighted
by the copies of that term left (so copies count apart, as in S_g).  The
Bernoulli average <G_w> weights each w_vec by prod_{i in Supp(w_vec)} b_i
outside the square and each v_vec by prod_{j in Supp(v_vec) \\ Supp(w_vec)}
b_j inside.  Expanding the square, b^2 = b and independent b_i with mean p_B
give it in closed form:

<G_w> = sum over w_vec, and over pairs (v_vec, v_vec') of its surviving
    counts, of count * count' * p_B^|Supp(w_vec) u Supp(v_vec) u Supp(v_vec')|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .fermions import term_operator, term_table
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


@dataclass(frozen=True)
class TermSet:
    """m Hermitian Pauli terms (any pair commutes or anticommutes)."""

    terms: tuple[PauliString, ...]

    @property
    def m(self) -> int:
        return len(self.terms)

    @cached_property
    def anticommuting(self) -> tuple[int, ...]:
        """Anticommutation rows: bit j of entry i is set iff terms i and j
        anticommute (a term commutes with itself, so bit i is clear); the
        rows of :func:`build_graph`'s adjacency, packed into integers."""
        packed = np.packbits(build_graph(self), axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def syk_termset(n: int, k: int, edges: Sequence[Sequence[int]] | None = None) -> TermSet:
    """Termset of SYK term operators: those of ``edges``, in order, or by
    default all C(n,k) terms of the cached ``fermions.term_table(n, k)``."""
    if edges is None:
        return TermSet(term_table(n, k).terms)
    return TermSet(tuple(term_operator(e, n) for e in edges))


def indicator(chain: Sequence[int], terms: TermSet) -> int:
    """1 iff the nested commutator over ``chain`` (0-based indices,
    chain[0] innermost) is nonzero."""
    if len(chain) == 0:
        raise ValueError("chain must be non-empty")
    rows = terms.anticommuting
    acc = rows[chain[0]]
    for j in chain[1:]:
        row = rows[j]  # an index outside the termset raises here
        if not acc >> j & 1:
            return 0
        acc ^= row
    return 1


def q_max(terms: TermSet) -> int:
    """max over terms of the number of anticommuting partners."""
    return max((row.bit_count() for row in terms.anticommuting), default=0)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of given length summing to total
    (for no parts, the empty vector iff total is 0)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_guards(terms: TermSet, g: int, w: int) -> None:
    if g > MAX_CHAIN_LENGTH:
        raise ValueError(f"cost guard: chain length g <= {MAX_CHAIN_LENGTH}")
    if terms.m > MAX_TERMS:
        raise ValueError(f"cost guard: m <= {MAX_TERMS} terms")
    if g < 1:
        raise ValueError(f"chains need length g >= 1, got g={g}")
    if not 0 <= w <= g:
        raise ValueError(f"need 0 <= w <= g, got w={w}, g={g}")


def _support(vec: Sequence[int]) -> int:
    """Bit mask of the indices where ``vec`` is nonzero."""
    return sum(1 << i for i, c in enumerate(vec) if c)


def _surviving_orderings(
    rows: tuple[int, ...], counts: list[int], acc: int | None = None
) -> int:
    """Orderings of the multiset holding term i counts[i] times (copies of a
    term told apart, as in S_g) that keep the nested commutator nonzero when
    they extend a chain whose product has anticommutation row ``acc`` (None:
    an empty chain, so the result is sum of indicator(pi[eta]) over S_g).
    ``counts`` is restored before returning."""
    if not any(counts):
        return 1
    total = 0
    for j, c in enumerate(counts):
        if c and (acc is None or acc >> j & 1):
            counts[j] = c - 1
            nxt = rows[j] if acc is None else acc ^ rows[j]
            total += c * _surviving_orderings(rows, counts, nxt)
            counts[j] = c
    return total


def _chain_counts(terms: TermSet, g: int, w: int) -> list[list[tuple[int, int]]]:
    """For each w_vec with |w_vec| = w, and each v_vec with |w_vec| + 2|v_vec|
    = g whose chains survive: the support mask Supp(w_vec) u Supp(v_vec) of
    eta and the count of its surviving orderings."""
    rows = terms.anticommuting
    v_vecs = list(_compositions((g - w) // 2, terms.m))
    table = []
    for w_vec in _compositions(w, terms.m):
        inner = []
        for v_vec in v_vecs:
            counts = [a + 2 * b for a, b in zip(w_vec, v_vec)]
            count = _surviving_orderings(rows, counts)
            if count:
                inner.append((_support(counts), count))
        table.append(inner)
    return table


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
    vectorized symplectic parities."""
    ts = terms.terms
    dtype = np.min_scalar_type(max((max(t.x_mask, t.z_mask) for t in ts), default=0))
    x = np.array([t.x_mask for t in ts], dtype=dtype)
    z = np.array([t.z_mask for t in ts], dtype=dtype)
    # |x_i & z_j| + |z_i & x_j| = |(x_i & z_j) ^ (z_i & x_j)| (mod 2)
    adj = (np.bitwise_count((x[:, None] & z) ^ (z[:, None] & x)) & 1).astype(bool)
    np.fill_diagonal(adj, False)
    return adj


def greedy_coloring(adjacency: np.ndarray) -> int:
    """Sequential greedy coloring of the graph with (m, m) bool adjacency
    ``adjacency``, in vertex-index order (vertex v takes the smallest color
    that no neighbour u < v has); returns the number of colors used, at most
    maxdegree + 1."""
    m = len(adjacency)
    colors = np.zeros(m, dtype=np.int64)
    for v in range(m):
        taken = np.zeros(v + 1, dtype=bool)  # colors so far are all < v + 1
        taken[colors[:v][adjacency[v, :v]]] = True
        colors[v] = taken.argmin()  # the first color not taken
    return int(colors.max()) + 1 if m else 0
