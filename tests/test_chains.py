"""Nested-commutator chain combinatorics against dense commutator arithmetic."""

import math
import random
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import xor

import numpy as np
import pytest

from syklab import fermions
from syklab.bounds import q_of
from syklab.chains import (
    TermSet,
    avg_gw_exact,
    build_graph,
    greedy_coloring,
    gw_bruteforce,
    indicator,
    lemma_d_bound,
    lemma_e_bound,
    q_max,
    syk_termset,
)
from syklab.experiments import _lemma_termsets
from syklab.fermions import jordan_wigner, term_table
from syklab.pauli import PauliString, commutes, to_dense


def pauli(nq: int, x: int, z: int, e: int = 0) -> PauliString:
    return PauliString(num_qubits=nq, x_mask=x, z_mask=z, phase_exp=e)


# X1, Z1: anticommuting pair on one qubit
XZ_PAIR = TermSet((pauli(1, 1, 0), pauli(1, 0, 1)))
# Z1, Z2: commuting pair
ZZ_PAIR = TermSet((pauli(2, 0, 1), pauli(2, 0, 2)))


class TestIndicator:
    def test_length_one_always_survives(self):
        assert indicator([0], XZ_PAIR) == 1
        assert indicator([1], ZZ_PAIR) == 1

    def test_commuting_step_kills(self):
        assert indicator([0, 1], ZZ_PAIR) == 0
        assert indicator([0, 0], XZ_PAIR) == 0  # a term commutes with itself

    def test_anticommuting_step_survives(self):
        assert indicator([0, 1], XZ_PAIR) == 1
        # accumulated product after (X, Z) is Y-like, and X anticommutes with it
        assert indicator([0, 1, 0], XZ_PAIR) == 1

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_dense_nested_commutators(self, g):
        """ind(chain) == 1 iff the dense nested commutator is nonzero,
        exhaustively over all chains of a small Majorana-product termset."""
        n = 4
        edges = list(combinations(range(1, n + 1), 2))
        terms = syk_termset(n, 2, edges)
        dense = [to_dense(t) for t in terms.terms]
        for chain in product(range(terms.m), repeat=g):
            acc = dense[chain[0]]
            for j in chain[1:]:
                acc = dense[j] @ acc - acc @ dense[j]
            nonzero = np.linalg.norm(acc) > 1e-9
            assert indicator(chain, terms) == int(nonzero), chain

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            indicator([], XZ_PAIR)

    def test_index_outside_termset_rejected(self):
        with pytest.raises(ValueError, match="chain index 2 is outside"):
            indicator([0, 2], XZ_PAIR)
        with pytest.raises(ValueError, match="chain index 3 is outside"):
            indicator([3], XZ_PAIR)
        # refused even where an earlier commuting step would end the chain
        with pytest.raises(ValueError, match="chain index 2 is outside"):
            indicator([0, 0, 2], XZ_PAIR)

    @pytest.mark.parametrize("chain", [[-1], [-20, 0], [0, -1], [0, 1, -1]],
                             ids=["first", "first-of-two", "second", "third"])
    def test_negative_index_rejected(self, chain):
        """A negative index would read a row from the end of the termset
        (row -1 of the (6, 3) set is term 19's), or shift by a negative
        count; it is refused at any position, naming the index."""
        bad = next(j for j in chain if j < 0)
        with pytest.raises(ValueError, match=f"chain index {bad} is outside the termset's 20"):
            indicator(chain, syk_termset(6, 3))


def reference_indicator(chain, terms):
    """indicator() from Pauli products: the next term must anticommute with
    the accumulated product, which is then multiplied out."""
    acc = terms.terms[chain[0]]
    for j in chain[1:]:
        nxt = terms.terms[j]
        if commutes(nxt, acc):
            return 0
        acc = nxt * acc
    return 1


def compositions(total, parts):
    """All nonnegative integer vectors of length ``parts`` summing to total."""
    return [v for v in product(range(total + 1), repeat=parts) if sum(v) == total]


def reference_orderings(rows, counts, acc=None):
    """Depth-first search over orderings of the multiset holding term i
    counts[i] times (copies told apart, as in S_g) that keep the nested
    commutator nonzero when they extend a chain whose product has
    anticommutation row ``acc`` (None: an empty chain).  ``counts`` is
    restored before returning."""
    if not any(counts):
        return 1
    total = 0
    for j, c in enumerate(counts):
        if c and (acc is None or acc >> j & 1):
            counts[j] = c - 1
            nxt = rows[j] if acc is None else acc ^ rows[j]
            total += c * reference_orderings(rows, counts, nxt)
            counts[j] = c
    return total


def reference_chain_counts(terms, g, w):
    """(support mask, count) of each surviving eta(w_vec, 2 v_vec), grouped
    by w_vec, from the ordering search."""
    table = []
    for w_vec in compositions(w, terms.m):
        inner = []
        for v_vec in compositions((g - w) // 2, terms.m):
            counts = [a + 2 * b for a, b in zip(w_vec, v_vec)]
            count = reference_orderings(terms.anticommuting, counts)
            if count:
                inner.append((sum(1 << i for i, c in enumerate(counts) if c), count))
        table.append(inner)
    return table


def reference_gw(terms, g, w):
    if (g - w) % 2:
        return 0
    return sum(sum(c for _, c in inner) ** 2 for inner in reference_chain_counts(terms, g, w))


def reference_avg_gw(terms, g, w, p_b):
    if (g - w) % 2:
        return 0.0
    return math.fsum(
        count * count2 * p_b ** (mask | mask2).bit_count()
        for inner in reference_chain_counts(terms, g, w)
        for mask, count in inner
        for mask2, count2 in inner
    )


def random_syk_termsets():
    """Random SYK termsets of 4 to 6 distinct terms (k = 2, 3, 4)."""
    rng = np.random.default_rng(2718)
    for n, k in [(6, 2), (6, 3), (8, 3), (8, 4), (10, 4)]:
        all_edges = list(combinations(range(1, n + 1), k))
        for m in (4, 6):
            picked = rng.choice(len(all_edges), m, replace=False)
            yield syk_termset(n, k, [all_edges[i] for i in sorted(picked)])


class TestAnticommutationRows:
    @pytest.mark.parametrize("terms", list(random_syk_termsets()))
    def test_indicator_matches_pauli_products(self, terms):
        for g in range(1, 6):
            for chain in product(range(terms.m), repeat=g):
                assert indicator(chain, terms) == reference_indicator(chain, terms), chain

    @pytest.mark.parametrize("terms", list(random_syk_termsets()))
    def test_multiset_count_matches_permutations(self, terms):
        """Every multiset of 1 to 5 terms: the table's count equals the sum
        over permutations(eta) (0 for a multiset absent from the table), and
        its row is the XOR of the rows of the terms used an odd number of
        times."""
        rows = terms.anticommuting
        for size in range(1, 6):
            table = terms.surviving(size)
            for eta in combinations_with_replacement(range(terms.m), size):
                counts = tuple(Counter(eta).get(i, 0) for i in range(terms.m))
                expected = sum(reference_indicator(c, terms) for c in permutations(eta))
                count, row = table.get(counts, (0, None))
                assert count == expected, counts
                if count:
                    odd = [rows[i] for i, c in enumerate(counts) if c % 2]
                    assert row == reduce(xor, odd, 0), counts
        assert terms.surviving(0) == {(0,) * terms.m: (1, 0)}

    @pytest.mark.parametrize("terms", list(random_syk_termsets()) + [TermSet(())])
    def test_counts_match_the_ordering_search(self, terms):
        """G_w and <G_w> from the table equal, exactly, their values from the
        depth-first search over orderings, for every g <= 5 and w <= g."""
        for g in range(1, 6):
            for w in range(g + 1):
                assert gw_bruteforce(terms, g, w) == reference_gw(terms, g, w), (g, w)
                for p_b in (0.0, 0.37, 0.9, 1.0):
                    assert avg_gw_exact(terms, g, w, p_b) == reference_avg_gw(
                        terms, g, w, p_b), (g, w, p_b)

    @pytest.mark.parametrize("terms", list(random_syk_termsets()) + [
        syk_termset(6, 3), syk_termset(8, 4), XZ_PAIR, ZZ_PAIR, TermSet(()),
    ])
    def test_rows_match_build_graph(self, terms):
        """The rows are packed from build_graph's adjacency, so both are
        checked against the pairwise rule of pauli.commutes."""
        adj = build_graph(terms)
        rows = terms.anticommuting
        assert len(rows) == terms.m
        for i, row in enumerate(rows):
            expected = [not commutes(terms.terms[i], b) for b in terms.terms]
            assert adj[i].tolist() == expected
            assert [bool(row >> j & 1) for j in range(terms.m)] == expected
            assert row >> terms.m == 0

    def test_rows_cached(self):
        terms = syk_termset(6, 3)
        assert terms.anticommuting is terms.anticommuting


def uncached_chain_counts(terms, g, w):
    """The chain counts of one w with nothing kept between calls: every
    surviving multiset of size g split into its w_vecs of weight w."""
    splits = {}
    for u, (count, _) in terms.surviving(g).items():
        support = sum(1 << i for i, c in enumerate(u) if c)
        for w_vec in product(*(range(c % 2, c + 1, 2) for c in u)):
            if sum(w_vec) == w:
                splits.setdefault(w_vec, []).append((support, count))
    return list(splits.values())


class TestCachedChainCounts:
    @pytest.mark.parametrize("seed,draws", [(808, 4), (909, 1)], ids=["lemma-d", "lemma-e"])
    def test_cache_matches_uncached_enumeration(self, seed, draws):
        """G_w and <G_w> from the counts kept per (termset, g) equal those of
        a fresh termset's uncached split, for every g <= 5 and w <= g, asked
        in shuffled order with every (g, w) asked twice."""
        asked = [(g, w) for g in range(1, 6) for w in range(g + 1)] * 2
        random.Random(seed).shuffle(asked)
        p_b = 0.37
        for terms in _lemma_termsets(seed, draws):
            fresh = TermSet(terms.terms)
            for g, w in asked:
                inner = uncached_chain_counts(fresh, g, w) if (g - w) % 2 == 0 else []
                assert gw_bruteforce(terms, g, w) == sum(
                    sum(c for _, c in counts) ** 2 for counts in inner), (g, w)
                assert avg_gw_exact(terms, g, w, p_b) == math.fsum(
                    c * c2 * p_b ** (mask | mask2).bit_count()
                    for counts in inner for mask, c in counts for mask2, c2 in counts), (g, w)
            assert sorted(terms._counts) == [1, 2, 3, 4, 5]


class TestQMax:
    def test_pair(self):
        assert q_max(XZ_PAIR) == 1
        assert q_max(ZZ_PAIR) == 0

    def test_empty(self):
        assert q_max(TermSet(())) == 0

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3)])
    def test_full_syk_termset_matches_q_formula(self, n, k):
        assert q_max(syk_termset(n, k)) == q_of(n, k)


class TestGwBruteforce:
    def test_parity_mismatch_is_zero(self):
        assert gw_bruteforce(XZ_PAIR, 3, 2) == 0
        assert gw_bruteforce(XZ_PAIR, 2, 1) == 0

    def test_pinned_anticommuting_pair(self):
        # g = w = 2: chains (0,1) and (1,0) survive; weight vectors (1,1)
        # contribute (1 + 1)^2 = 4
        assert gw_bruteforce(XZ_PAIR, 2, 2) == 4

    def test_g1(self):
        # g = w = 1: each single-term chain contributes 1^2
        assert gw_bruteforce(XZ_PAIR, 1, 1) == 2
        assert gw_bruteforce(ZZ_PAIR, 1, 1) == 2

    def test_all_commuting_zero_beyond_g1(self):
        for g in (2, 3, 4):
            for w in range(g + 1):
                if (g - w) % 2:
                    continue
                if g == w == 0:
                    continue
                assert gw_bruteforce(ZZ_PAIR, g, w) == 0 or g == 0

    @pytest.mark.parametrize("g,w", [(2, 0), (2, 2), (3, 1), (3, 3), (4, 2)])
    def test_independent_reimplementation_small(self, g, w):
        """G_w recomputed directly: for each integer vector w_vec with
        |w_vec| = w, the inner sum collects every chain whose per-term counts
        dominate w_vec with even slack, weighted by prod(count_i!) for the
        S_g permutation multiplicity — no eta/composition factoring."""
        from collections import defaultdict

        terms = syk_termset(4, 2, [(1, 2), (1, 3), (2, 3)])
        m = terms.m

        inner: dict = defaultdict(int)
        w_vecs = compositions(w, m)
        for chain in product(range(m), repeat=g):
            counts = Counter(chain)
            cvec = tuple(counts.get(i, 0) for i in range(m))
            weight = math.prod(math.factorial(c) for c in cvec)
            surv = indicator(chain, terms)
            if not surv:
                continue
            for w_vec in w_vecs:
                if all(c >= wv and (c - wv) % 2 == 0 for c, wv in zip(cvec, w_vec)):
                    inner[w_vec] += weight
        total = sum(v * v for v in inner.values())
        assert gw_bruteforce(terms, g, w) == total

    def test_guards(self):
        with pytest.raises(ValueError):
            gw_bruteforce(XZ_PAIR, 6, 2)
        with pytest.raises(ValueError):
            gw_bruteforce(syk_termset(6, 2, list(combinations(range(1, 6), 2))), 2, 2)
        with pytest.raises(ValueError):
            gw_bruteforce(XZ_PAIR, 2, 3)

    def test_empty_chain_length_rejected(self):
        with pytest.raises(ValueError):
            gw_bruteforce(XZ_PAIR, 0, 0)
        with pytest.raises(ValueError):
            avg_gw_exact(XZ_PAIR, 0, 0, 0.5)

    @pytest.mark.parametrize("g,w", [(1, 1), (2, 0), (2, 2), (3, 1), (4, 2)])
    def test_empty_termset_is_zero(self, g, w):
        # no terms, no chains
        assert gw_bruteforce(TermSet(()), g, w) == 0
        assert avg_gw_exact(TermSet(()), g, w, 0.5) == 0.0


class TestAvgGw:
    @pytest.mark.parametrize("g,w", [(1, 1), (2, 0), (2, 2), (3, 1), (3, 3)])
    def test_p_b_one_equals_bruteforce(self, g, w):
        terms = syk_termset(4, 2, [(1, 2), (1, 3), (2, 3), (1, 4)])
        assert avg_gw_exact(terms, g, w, 1.0) == pytest.approx(
            float(gw_bruteforce(terms, g, w)), rel=1e-12
        )

    def test_p_b_zero(self):
        assert avg_gw_exact(XZ_PAIR, 2, 2, 0.0) == 0.0

    def test_monotone_in_p_b(self):
        terms = syk_termset(4, 2, [(1, 2), (1, 3), (2, 3)])
        vals = [avg_gw_exact(terms, 2, 2, p) for p in (0.1, 0.4, 0.7, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_polynomial_degree_at_most_m(self):
        """<G_w>(p_B) is a polynomial in p_B of degree <= m; fitting on m+1
        nodes must reproduce a held-out point exactly."""
        terms = syk_termset(4, 2, [(1, 2), (1, 3), (2, 3), (3, 4)])
        m = terms.m
        g, w = 3, 1
        nodes = np.linspace(0.05, 0.95, m + 1)
        vals = [avg_gw_exact(terms, g, w, p) for p in nodes]
        coeffs = np.polyfit(nodes, vals, m)
        held_out = 0.37
        assert np.polyval(coeffs, held_out) == pytest.approx(
            avg_gw_exact(terms, g, w, held_out), rel=1e-8, abs=1e-10
        )

    def test_invalid_p_b(self):
        with pytest.raises(ValueError):
            avg_gw_exact(XZ_PAIR, 2, 2, 1.5)

    def test_guard_m(self):
        terms = syk_termset(6, 2, list(combinations(range(1, 7), 2))[:7])
        with pytest.raises(ValueError):
            avg_gw_exact(terms, 2, 2, 0.5)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_literal_mask_average(self, m):
        """<G_w> against its definition: the sum over all 2^m masks B of
        P(B) * G_w on the kept terms, for every g <= 5 and valid w."""
        rng = np.random.default_rng(2718 + m)
        edges = list(combinations(range(1, 7), 3))
        terms = syk_termset(6, 3, [edges[i] for i in rng.choice(len(edges), m, replace=False)])
        for g in range(1, 6):
            for w in range(g % 2, g + 1, 2):
                kept = [gw_bruteforce(TermSet(tuple(
                    t for i, t in enumerate(terms.terms) if bits >> i & 1)), g, w)
                    for bits in range(1 << m)]
                for p_b in (0.0, 0.1, 0.5, 0.9, 1.0):
                    reference = math.fsum(
                        p_b ** bits.bit_count() * (1.0 - p_b) ** (m - bits.bit_count()) * gw
                        for bits, gw in enumerate(kept)
                    )
                    got = avg_gw_exact(terms, g, w, p_b)
                    if reference == 0.0:
                        assert got == 0.0, (g, w, p_b)
                    else:
                        assert got == pytest.approx(reference, rel=1e-12, abs=0.0), (g, w, p_b)
                assert avg_gw_exact(terms, g, w, 1.0) == gw_bruteforce(terms, g, w)


class TestLemmaD:
    def test_pinned_values(self):
        assert lemma_d_bound(2, 2, 1) == 2**4 * 4  # g^ (3g-2) m^2 Q^0
        assert lemma_d_bound(2, 2, 0) == 64.0  # Q^0 = 1 even at Q = 0
        assert lemma_d_bound(3, 2, 0) == 0.0
        assert lemma_d_bound(1, 2, 0) == math.inf

    @pytest.mark.parametrize("edges", [
        [(1, 2), (1, 3)],
        [(1, 2), (1, 3), (2, 3)],
        [(1, 2), (3, 4)],
        [(1, 2), (1, 3), (2, 4), (3, 4)],
    ])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_dominates_bruteforce(self, edges, g):
        terms = syk_termset(4, 2, edges)
        qm = q_max(terms)
        bound = lemma_d_bound(g, terms.m, qm)
        for w in range(g % 2, g + 1, 2):
            assert gw_bruteforce(terms, g, w) <= bound

    def test_dominates_on_syk_draws(self):
        rng = np.random.default_rng(101)
        all_edges = list(combinations(range(1, 7), 3))
        for _ in range(6):
            picked = [all_edges[i] for i in rng.choice(len(all_edges), 5, replace=False)]
            terms = syk_termset(6, 3, picked)
            qm = q_max(terms)
            for g in (2, 3):
                bound = lemma_d_bound(g, terms.m, qm)
                for w in range(g % 2, g + 1, 2):
                    assert gw_bruteforce(terms, g, w) <= bound


class TestLemmaE:
    @pytest.mark.parametrize("p_b", [0.1, 0.5, 0.9, 1.0])
    def test_dominates_exact_average(self, p_b):
        terms = syk_termset(4, 2, [(1, 2), (1, 3), (2, 3), (2, 4)])
        qm = q_max(terms)
        for g in (2, 3):
            for w in range(g % 2, g + 1, 2):
                bound = lemma_e_bound(g, w, terms.m, qm, p_b)
                assert avg_gw_exact(terms, g, w, p_b) <= bound

    def test_p_b_one_dominates_bruteforce(self):
        terms = syk_termset(6, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 6)])
        qm = q_max(terms)
        for g in (2, 3):
            for w in range(g % 2, g + 1, 2):
                assert gw_bruteforce(terms, g, w) <= lemma_e_bound(
                    g, w, terms.m, qm, 1.0
                )

    def test_monotone_in_p_b(self):
        vals = [lemma_e_bound(3, 1, 4, 2, p) for p in (0.1, 0.5, 0.9, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_requires_positive_q_max(self):
        with pytest.raises(ValueError):
            lemma_e_bound(2, 2, 2, 0, 0.5)


class TestGraph:
    def test_regularity_full_syk(self):
        # n = 6, k = 4: 15 vertices, each with exactly Q(6,4) = 8 partners
        adj = build_graph(syk_termset(6, 4))
        assert adj.shape == (15, 15) and adj.dtype == bool
        assert adj.sum(axis=1).tolist() == [8] * 15

    def test_edges_symmetric_no_loops(self):
        adj = build_graph(syk_termset(6, 3))
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_matches_pairwise_commutes(self):
        terms = syk_termset(6, 3)
        adj = build_graph(terms)
        from syklab.pauli import commutes

        for i in range(terms.m):
            for j in range(terms.m):
                expected = i != j and not commutes(terms.terms[i], terms.terms[j])
                assert bool(adj[i, j]) == expected

    def test_full_table_graph_forms_no_pauli_string(self, monkeypatch):
        """n = 16, k = 4: the graph is read from the table's mask arrays,
        uint8 on 8 qubits, with no PauliString formed, and the build's traced
        peak stays under 16 MiB (a uint64 (1820, 1820) temporary is 26 MB)."""
        def refuse(self):
            raise AssertionError("a PauliString was formed")

        fermions._build_term_table.cache_clear()
        monkeypatch.setattr(PauliString, "__post_init__", refuse)
        tracemalloc.start()
        try:
            terms = syk_termset(16, 4)
            adj = build_graph(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert "terms" not in vars(term_table(16, 4))
        assert terms.x.dtype == terms.z.dtype == np.uint8
        assert peak < 16 << 20
        rng = np.random.default_rng(16)
        for i, j in rng.integers(0, terms.m, size=(2000, 2)):
            assert adj[i, j] == (i != j and not commutes(terms.terms[i], terms.terms[j]))

    def test_two_word_masks_past_one_row_block(self):
        """chi_1 ... chi_130 at n = 130: 65 qubits put the masks on two
        words, and 130 rows are one full block of build_graph and part of a
        second.  They pairwise anticommute: K_130."""
        terms = TermSet(tuple(jordan_wigner(i, 130) for i in range(1, 131)))
        assert terms.x.shape == terms.z.shape == (130, 2)
        adj = build_graph(terms)
        for i in range(terms.m):
            for j in range(terms.m):
                expected = i != j and not commutes(terms.terms[i], terms.terms[j])
                assert bool(adj[i, j]) == expected
        assert adj.sum() == 130 * 129

    def test_matches_pairwise_commutes_uint16_masks(self):
        """n = 18 puts the masks on 9 qubits, past uint8."""
        rng = np.random.default_rng(18)
        all_edges = list(combinations(range(1, 19), 4))
        picked = sorted(rng.choice(len(all_edges), 150, replace=False))
        terms = syk_termset(18, 4, [all_edges[i] for i in picked])
        biggest = max(max(t.x_mask, t.z_mask) for t in terms.terms)
        assert np.min_scalar_type(biggest) == np.uint16
        adj = build_graph(terms)
        for i in range(terms.m):
            for j in range(terms.m):
                expected = i != j and not commutes(terms.terms[i], terms.terms[j])
                assert bool(adj[i, j]) == expected


def vertex_order_coloring(adj: np.ndarray) -> np.ndarray:
    """The colors of the vertex-order greedy loop: vertex v, in index order,
    takes the smallest color that none of its already colored (lower)
    neighbours has."""
    colors = np.full(len(adj), -1)
    for v in range(len(adj)):
        used = set(colors[adj[v]][colors[adj[v]] >= 0].tolist())
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def random_symmetric_graphs(count: int, seed: int):
    """``count`` seeded random symmetric bool adjacencies, diagonal clear:
    m = 0 and 300, then m drawn from 0..300, with edge densities cycling
    through 0, 0.1, ..., 1."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = (0, 300)[i] if i < 2 else int(rng.integers(0, 301))
        upper = np.triu(rng.random((m, m)) < (i % 11) / 10, 1)
        yield upper | upper.T


class TestColoring:
    def test_empty(self):
        assert greedy_coloring(build_graph(TermSet(()))) == 0

    def test_edgeless(self):
        assert greedy_coloring(build_graph(ZZ_PAIR)) == 1

    def test_complete_graph_needs_m_colors(self):
        # chi_1 ... chi_m pairwise anticommute: K_m; K_130 needs 130 color
        # classes, more than fit one 64-bit word
        for n, m in ((6, 2), (6, 3), (6, 5), (130, 130)):
            terms = TermSet(tuple(jordan_wigner(i, n) for i in range(1, m + 1)))
            adj = build_graph(terms)
            assert adj.sum() == m * (m - 1)  # each edge once in each direction
            assert greedy_coloring(adj) == m

    @pytest.mark.parametrize("n", [6, 8, 10, 12], ids=lambda n: f"{n}-natural")
    def test_at_most_q_plus_one(self, n):
        colors = greedy_coloring(build_graph(syk_termset(n, 4)))
        assert 1 <= colors <= q_of(n, 4) + 1

    @pytest.mark.parametrize("n,colors", [(6, 7), (8, 8), (10, 29), (12, 62), (14, 113),
                                          (16, 167)])
    def test_pinned_syk_color_counts(self, n, colors):
        """The color counts the oracle's coloring check reports, n = 6..16."""
        assert greedy_coloring(build_graph(syk_termset(n, 4))) == colors

    def test_matches_vertex_order_loop_on_random_graphs(self):
        """The class-by-class coloring on packed rows uses as many colors as
        the vertex-order loop on 220 random symmetric graphs: sizes that are
        not multiples of 8 (padding bits in the packed rows), every density
        from edgeless to complete, and graphs past 64 colors."""
        sizes, most = set(), 0
        for adj in random_symmetric_graphs(220, seed=38):
            expected = int(vertex_order_coloring(adj).max(initial=-1)) + 1
            assert greedy_coloring(adj) == expected, (len(adj), int(adj.sum()))
            sizes.add(len(adj))
            most = max(most, expected)
        assert {0, 300} <= sizes and any(m % 8 for m in sizes)
        assert most > 64

    def test_proper_coloring_reconstruction(self):
        """Re-run the greedy loop and verify no edge is monochromatic, at
        n = 8 and at n = 16, which needs 167 colors (more color classes than
        fit one 64-bit word, and 1,820-bit packed rows)."""
        for n in (8, 16):
            adj = build_graph(syk_termset(n, 4))
            colors = vertex_order_coloring(adj)
            assert int(colors.max()) + 1 == greedy_coloring(adj) == {8: 8, 16: 167}[n]
            i, j = np.nonzero(adj)
            assert not np.any(colors[i] == colors[j])
