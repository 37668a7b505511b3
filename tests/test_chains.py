"""Nested-commutator chain combinatorics against dense commutator arithmetic."""

import math
from itertools import combinations, permutations, product

import numpy as np
import pytest

from syklab.bounds import q_of
from syklab.chains import (
    TermSet,
    _compositions,
    _surviving_orderings,
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
from syklab.fermions import jordan_wigner
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
        with pytest.raises(IndexError):
            indicator([0, 2], XZ_PAIR)
        with pytest.raises(IndexError):
            indicator([3], XZ_PAIR)


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
        """Every eta that gw_bruteforce visits (all g <= 5, w <= g of the
        same parity): the count equals the sum over permutations(eta)."""
        rows = terms.anticommuting
        seen = set()
        for g in range(1, 6):
            for w in range(g % 2, g + 1, 2):
                for w_vec in _compositions(w, terms.m):
                    for v_vec in _compositions((g - w) // 2, terms.m):
                        counts = tuple(a + 2 * b for a, b in zip(w_vec, v_vec))
                        if counts in seen:
                            continue
                        seen.add(counts)
                        eta = [i for i, c in enumerate(counts) for _ in range(c)]
                        expected = sum(
                            reference_indicator(c, terms) for c in permutations(eta)
                        )
                        assert _surviving_orderings(rows, list(counts)) == expected, counts

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
        from collections import Counter, defaultdict

        terms = syk_termset(4, 2, [(1, 2), (1, 3), (2, 3)])
        m = terms.m
        from syklab.chains import _compositions

        inner: dict = defaultdict(int)
        w_vecs = list(_compositions(w, m))
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


class TestColoring:
    def test_empty(self):
        assert greedy_coloring(build_graph(TermSet(()))) == 0

    def test_edgeless(self):
        assert greedy_coloring(build_graph(ZZ_PAIR)) == 1

    def test_complete_graph_needs_m_colors(self):
        # chi_1 ... chi_m pairwise anticommute: K_m
        for m in (2, 3, 5):
            terms = TermSet(tuple(jordan_wigner(i, 6) for i in range(1, m + 1)))
            adj = build_graph(terms)
            assert adj.sum() == m * (m - 1)  # each edge once in each direction
            assert greedy_coloring(adj) == m

    @pytest.mark.parametrize("n", [6, 8, 10, 12], ids=lambda n: f"{n}-natural")
    def test_at_most_q_plus_one(self, n):
        colors = greedy_coloring(build_graph(syk_termset(n, 4)))
        assert 1 <= colors <= q_of(n, 4) + 1

    def test_proper_coloring_reconstruction(self):
        """Re-run the greedy loop and verify no edge is monochromatic."""
        terms = syk_termset(8, 4)
        adj = build_graph(terms)
        m = len(adj)
        colors = np.full(m, -1)
        for v in range(m):
            used = set(colors[adj[v]][colors[adj[v]] >= 0].tolist())
            c = 0
            while c in used:
                c += 1
            colors[v] = c
        assert int(colors.max()) + 1 == greedy_coloring(adj)
        for i, j in zip(*np.nonzero(adj)):
            assert colors[i] != colors[j]
