"""Jordan-Wigner Majoranas and term operators: exact algebraic identities."""

import math
import sys
import threading
import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from syklab import fermions
from syklab.chains import syk_termset
from syklab.fermions import hilbert_dim, jordan_wigner, term_operator, term_table
from syklab.linalg import assemble
from syklab.model import ordering_map, sample_dense, sample_sparse
from syklab.pauli import (
    PauliString,
    _coefficients,
    commutes,
    is_hermitian,
    multiply,
    to_dense,
)
from syklab.trotter import averaged_error, observed_error

from conftest import dense_oracle


def test_hilbert_dim():
    assert hilbert_dim(8) == 16
    with pytest.raises(ValueError):
        hilbert_dim(7)


def test_chi1_chi2_are_x_and_y_on_first_qubit():
    chi1 = jordan_wigner(1, 4)
    assert (chi1.x_mask, chi1.z_mask, chi1.phase_exp) == (1, 0, 0)
    chi2 = jordan_wigner(2, 4)
    # Y = i X Z in the symplectic convention
    assert (chi2.x_mask, chi2.z_mask, chi2.phase_exp) == (1, 1, 1)
    y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(dense_oracle(chi2), np.kron(np.eye(2), y))


def test_out_of_range_index():
    with pytest.raises(ValueError):
        jordan_wigner(9, 8)
    with pytest.raises(ValueError):
        jordan_wigner(1, 5)  # odd n


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_majorana_anticommutation_exact(n):
    """{chi_i, chi_j} = 2 delta_ij, checked in exact integer algebra."""
    chis = [jordan_wigner(i, n) for i in range(1, n + 1)]
    for i, a in enumerate(chis):
        # chi_i**2 = I exactly
        sq = multiply(a, a)
        assert (sq.x_mask, sq.z_mask, sq.phase_exp) == (0, 0, 0)
        for b in chis[i + 1:]:
            # anti-commutator vanishes iff ab = -ba exactly
            ab, ba = multiply(a, b), multiply(b, a)
            assert (ab.x_mask, ab.z_mask) == (ba.x_mask, ba.z_mask)
            assert (ab.phase_exp - ba.phase_exp) % 4 == 2


def test_majorana_anticommutation_dense_n8():
    n = 8
    dim = hilbert_dim(n)
    dense = [to_dense(jordan_wigner(i, n)) for i in range(1, n + 1)]
    for i, a in enumerate(dense):
        for j, b in enumerate(dense):
            anti = a @ b + b @ a
            expected = 2 * np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.allclose(anti, expected, atol=1e-13)


class TestTermOperator:
    def test_k1_is_bare_majorana(self):
        assert term_operator((3,), 8) == jordan_wigner(3, 8)

    def test_k2_prefactor_makes_hermitian(self):
        mat = to_dense(term_operator((1, 2), 4))
        assert np.allclose(mat, mat.conj().T)
        assert np.allclose(mat @ mat, np.eye(4))
        # i * chi1 chi2 from the dense side
        ref = 1j * dense_oracle(jordan_wigner(1, 4)) @ dense_oracle(jordan_wigner(2, 4))
        assert np.allclose(mat, ref)

    @pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 4), (10, 3)])
    def test_hermitian_involutory_unit_norm(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        edges = list(combinations(range(1, n + 1), k))
        for idx in rng.choice(len(edges), size=min(12, len(edges)), replace=False):
            mat = to_dense(term_operator(edges[idx], n))
            assert np.allclose(mat, mat.conj().T, atol=1e-13)
            assert np.allclose(mat @ mat, np.eye(len(mat)), atol=1e-13)
            svals = np.linalg.svd(mat, compute_uv=False)
            assert np.allclose(svals, 1.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_closed_form_matches_majorana_product(self, n):
        """The closed form equals i**(k(k-1)/2) chi_{i_1} ... chi_{i_k}
        multiplied out in exact Pauli algebra, for every edge with k <= 6."""
        for k in range(1, min(6, n) + 1):
            for edge in combinations(range(1, n + 1), k):
                prod = reduce(multiply, (jordan_wigner(i, n) for i in edge))
                ref = multiply(PauliString(n // 2, 0, 0, k * (k - 1) // 2), prod)
                term = term_operator(edge, n)
                assert term == ref, edge
                assert is_hermitian(term)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            term_operator((2, 1), 4)
        with pytest.raises(ValueError):
            term_operator((1, 1), 4)

    def test_rejects_empty_or_out_of_range(self):
        with pytest.raises(ValueError, match="hyperedge must be non-empty"):
            term_operator((), 4)
        for edge in ((0, 1), (1, 5)):
            with pytest.raises(ValueError, match=r"has entries outside \[1, 4\]"):
                term_operator(edge, 4)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_anticommutation_sign_law(k):
    """T_a T_b = (-1)**(k+m) T_b T_a with m the hyperedge overlap (n = 8)."""
    n = 8
    edges = list(combinations(range(1, n + 1), k))
    terms = {e: term_operator(e, n) for e in edges}
    for i, ea in enumerate(edges):
        for eb in edges[i:]:
            m = len(set(ea) & set(eb))
            should_commute = (k + m) % 2 == 0
            assert commutes(terms[ea], terms[eb]) == should_commute
            # and the exact product identity, not just the boolean
            ab = multiply(terms[ea], terms[eb])
            ba = multiply(terms[eb], terms[ea])
            assert (ab.x_mask, ab.z_mask) == (ba.x_mask, ba.z_mask)
            expected_shift = 0 if should_commute else 2
            assert (ab.phase_exp - ba.phase_exp) % 4 == expected_shift


@pytest.fixture
def table_builds(monkeypatch):
    """(n, k) of each term table built from here on, with an empty table cache."""
    builds = []
    original = fermions._hyperedges

    def counting(n, k):
        builds.append((n, k))
        return original(n, k)

    monkeypatch.setattr(fermions, "_hyperedges", counting)
    fermions._build_term_table.cache_clear()
    return builds


class TestTermTable:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_rows_match_term_operators(self, n):
        """Each term's block data is its natural-order signed permutation
        from ``pauli._coefficients`` read at (sector, position) coordinates:
        b = sectors[q, j] with q the parity of b (even k) and j = b >> (B - 1)."""
        dim = hilbert_dim(n)
        for k in range(1, min(5, n) + 1):
            table = term_table(n, k)
            edges = ordering_map(n, k)
            blocks = 2 if k % 2 == 0 else 1
            sectors = table.sectors
            assert sectors.shape == (blocks, dim // blocks)
            assert sorted(sectors.ravel()) == list(range(dim))
            assert np.all(np.diff(sectors) > 0)
            if blocks == 2:
                assert np.all(np.bitwise_count(sectors) & 1 == [[0], [1]])
            positions = np.arange(dim // blocks)
            assert np.array_equal(sectors >> (blocks - 1),
                                  np.broadcast_to(positions, sectors.shape))
            assert table.powers.shape == (len(edges),) + sectors.shape
            for g, edge in enumerate(edges):
                pauli = term_operator(edge, n)
                perm, coeff = _coefficients(pauli)
                assert table.shifts[g] == pauli.x_mask >> (blocks - 1)
                assert np.array_equal(sectors[:, positions ^ table.shifts[g]], perm[sectors])
                entries = fermions._POWERS_OF_I.take(table.powers[g])
                assert np.array_equal(entries, coeff[perm][sectors])
                rows = sectors.ravel()
                assert np.array_equal(to_dense(pauli)[rows, rows ^ pauli.x_mask],
                                      entries.ravel())

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_scaled_rows_match_term_operators(self, n):
        """N scales times i**e (e = 0..3), taken at a term's powers as the
        round kernel takes them, give the (N, B, W) entries of N multiples
        of each term."""
        scale = np.array([0.3 - 1.7j, -2.5j, 1.25])
        scaled_powers = scale[:, None] * fermions._POWERS_OF_I
        for k in range(1, min(5, n) + 1):
            table = term_table(n, k)
            for g, pauli in enumerate(table.terms):
                perm, coeff = _coefficients(pauli)
                assert np.array_equal(np.take(scaled_powers, table.powers[g], axis=1),
                                      scale[:, None, None] * coeff[perm][table.sectors])

    @pytest.mark.parametrize("n", range(2, 22, 2))
    def test_sectors_are_the_parities_present(self, n):
        """B = 2 - k % 2 sectors are exactly the parities np.unique finds:
        both for even k, the one all-zero label for odd k."""
        basis = np.arange(hilbert_dim(n))
        for k in range(1, min(3, n) + 1):
            parity = np.bitwise_count(basis) & 1 if k % 2 == 0 else np.zeros_like(basis)
            expected = np.stack([basis[parity == q] for q in np.unique(parity)])
            assert np.array_equal(term_table(n, k).sectors, expected)

    def test_arrays_are_read_only(self):
        for k in (3, 4):
            table = term_table(8, k)
            for array in (table.x_masks, table.z_masks, table.phase_exps, table.shifts,
                          table.powers, table.sectors, table.sectors.ravel(),
                          *table.sweep_runs):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 8])
    def test_mirror_transposes_every_term(self, k):
        """Q K_g^T Q^dag = K_g for every term on dense matrices, Q a product
        of every odd or every even Majorana, and ``mirrored`` is Q F^T Q^dag
        on the blocks of a random block-diagonal F: the dense product is
        block diagonal and its blocks are the stack's, entry for entry."""
        rng = np.random.default_rng(59)
        for n in range(k + k % 2, 12, 2):
            table = term_table(n, k)
            assert table.mirror in [
                reduce(multiply, (jordan_wigner(i, n) for i in range(first, n + 1, 2)))
                for first in (1, 2)]
            q_mat = to_dense(table.mirror)
            for pauli in table.terms:
                term = to_dense(pauli)
                assert np.array_equal(q_mat @ term.T @ q_mat.conj().T, term)
            sectors = table.sectors
            num_blocks, width = sectors.shape
            stack = (rng.standard_normal((2, num_blocks, width, width))
                     + 1j * rng.standard_normal((2, num_blocks, width, width)))
            rows, cols = sectors[:, :, None], sectors[:, None, :]
            for blocks, mirrored in zip(stack, table.mirrored(stack)):
                dense = np.zeros((sectors.size, sectors.size), dtype=complex)
                dense[rows, cols] = blocks
                expected = q_mat @ dense.T @ q_mat.conj().T
                assert np.array_equal(expected[rows, cols], mirrored)
                expected[rows, cols] = 0
                assert not expected.any()

    def test_mirror_formula_is_the_term_by_term_search(self):
        """The mirror picked from (n, k) is the first of the odd and the even
        Majorana product that passes for every term, tested term by term:
        conjugation by Q multiplies K_g by (-1)**(|x_Q & z_g| + |z_Q & x_g|)
        and transposition by (-1)**|x_g & z_g|; every even n <= 16, 1 <= k <= n."""
        for n in range(2, 17, 2):
            for k in range(1, n + 1):
                table = term_table(n, k)
                searched = None
                for first in (1, 2):
                    pauli = reduce(multiply, (jordan_wigner(i, n) for i in range(first, n + 1, 2)))
                    if all(((pauli.x_mask & term.z_mask).bit_count()
                            + (pauli.z_mask & term.x_mask).bit_count()
                            + (term.x_mask & term.z_mask).bit_count()) % 2 == 0
                           for term in table.terms):
                        searched = pauli
                        break
                assert table.mirror == searched, (n, k)

    @pytest.mark.parametrize("k", [2, 6])
    def test_no_mirror_when_k_is_2_mod_4(self, k):
        for n in range(k + 2, 16, 2):
            assert term_table(n, k).mirror is None

    def test_cached_per_n_k(self):
        assert term_table(8, 4) is term_table(8, 4)
        assert term_table(8, 3) is not term_table(8, 4)

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (10, 2)])
    def test_chains_termset_is_the_table_terms(self, n, k):
        table = term_table(n, k)
        assert syk_termset(n, k).terms is table.terms
        assert table.terms == tuple(term_operator(e, n) for e in ordering_map(n, k))

    def test_signs_built_on_first_read(self, table_builds):
        n, k = 8, 4
        assert syk_termset(n, k).anticommuting  # reads only the mask arrays
        for name in ("terms", "sectors", "powers", "sweep_runs"):
            assert name not in vars(term_table(n, k))
        assemble(n, k, sample_dense(n, k).couplings[None])
        assert "sectors" in vars(term_table(n, k))
        assert "powers" in vars(term_table(n, k))
        for name in ("mirror", "sweep_runs"):  # read by the round kernel alone
            assert name not in vars(term_table(n, k))
        assert "terms" not in vars(term_table(n, k))
        assert table_builds == [(n, k)]

    def test_terms_alone_allocate_no_basis(self):
        """At n = 40 (D = 2**20) the sectors alone take 8 MiB; the 780 terms
        that ``chains`` reads take a small fraction of 1 MiB."""
        fermions._build_term_table.cache_clear()
        tracemalloc.start()
        try:
            syk_termset(40, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_table_build_per_n_k(self, table_builds):
        n, k = 8, 4
        for i in range(3):
            for inst in (sample_dense(n, k, seed=i), sample_sparse(n, k, seed=i)):
                observed_error(inst, 2, 1.0, 4, 2)  # assemble and the round kernel
        assert table_builds == [(n, k)]

    @pytest.mark.parametrize("call", [
        lambda: observed_error(sample_dense(8, 4, seed=3), 2, 1.0, 4, 2),
        lambda: averaged_error(8, 4, 2, 1.0, 4, 2, 5, 2),
        lambda: averaged_error(8, 4, 2, 1.0, 4, 2, 5, 2, kappa=4.0, num_bernoulli=2),
    ], ids=["observed_error", "averaged_error", "averaged_error-sparse"])
    def test_error_paths_form_no_pauli_string(self, call):
        fermions._build_term_table.cache_clear()
        call()
        assert "powers" in vars(term_table(8, 4))
        assert "terms" not in vars(term_table(8, 4))

    def test_concurrent_first_calls_build_one_table(self, table_builds):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fermions._build_term_table.cache_clear()
                table_builds.clear()
                tables = []
                start = threading.Barrier(8, timeout=60)

                def first_call():
                    start.wait()
                    tables.append(term_table(10, 3))

                threads = [threading.Thread(target=first_call) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(tables) == 8 and all(t is tables[0] for t in tables)
                assert table_builds == [(10, 3)]
        finally:
            sys.setswitchinterval(interval)


_SWEEP_CASES = [(n, k) for n in range(2, 13, 2) for k in range(1, n + 1)] + [(16, 2), (20, 4)]


class TestSweepOrder:
    """``TermTable.sweep_runs`` reorders only what commutes: the anticommuting
    pairs and the same-shift terms keep hyperedge order, so a sweep in the
    runs' order is the same operator, and its runs of one shift are what the
    round kernel steps through."""

    @pytest.mark.parametrize("n,k", _SWEEP_CASES, ids=lambda case: str(case))
    def test_only_commuting_terms_change_order(self, n, k):
        table = term_table(n, k)
        assert all(run.dtype == np.intp and run.size for run in table.sweep_runs)
        order = np.concatenate(table.sweep_runs)
        assert sorted(order.tolist()) == list(range(math.comb(n, k)))
        position = np.argsort(order)
        # T_g T_h = (-1)**(k + m) T_h T_g with m the hyperedges' overlap
        edges = np.bitwise_or.reduce(
            np.left_shift(1, np.array(ordering_map(n, k), dtype=np.int64) - 1), axis=1)
        for g in range(len(edges) - 1):
            later = np.arange(g + 1, len(edges))
            anticommuting = (k + np.bitwise_count(edges[g] & edges[later])) % 2 == 1
            same_shift = table.shifts[later] == table.shifts[g]
            assert np.all(position[later[anticommuting | same_shift]] > position[g])

    @pytest.mark.parametrize("n,k", [(10, 4), (12, 3), (16, 2)])
    def test_adjacent_runs_differ_in_shift(self, n, k):
        """Each run has one shift, and a term reaching a run of its own shift
        joins it, so the runs are the maximal equal-shift stretches of the
        order."""
        table = term_table(n, k)
        runs = [table.shifts[run] for run in table.sweep_runs]
        assert all(np.all(run == run[0]) for run in runs)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))


def _per_term_table(n: int, k: int) -> tuple[list[PauliString], np.ndarray, np.ndarray]:
    """Terms, shifts and powers as built one term_operator at a time."""
    terms = [term_operator(edge, n) for edge in ordering_map(n, k)]
    shifts = np.array([t.x_mask >> (1 - k % 2) for t in terms], dtype=np.intp)
    if n > 20:
        return terms, shifts, None
    sectors = term_table(n, k).sectors
    powers = np.stack([(t.phase_exp + 2 * (np.bitwise_count((sectors ^ t.x_mask) & t.z_mask) & 1)) % 4
                       for t in terms]).astype(np.uint8)
    return terms, shifts, powers


class TestArrayTable:
    """The vectorized table build against term_operator, one term at a time."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 17, 2) for k in range(1, n + 1)]
                             + [(40, 2), (126, 1), (128, 2)])
    def test_arrays_match_term_operators(self, n, k):
        table = term_table(n, k)
        terms, shifts, powers = _per_term_table(n, k)
        assert table.x_masks.dtype == table.z_masks.dtype == np.uint64
        assert table.x_masks.tolist() == [t.x_mask for t in terms]
        assert table.z_masks.tolist() == [t.z_mask for t in terms]
        assert table.phase_exps.tolist() == [t.phase_exp for t in terms]
        assert table.shifts.dtype == np.intp
        assert np.array_equal(table.shifts, shifts)
        if powers is not None:
            assert np.array_equal(table.powers, powers)
        assert table.terms == tuple(terms)

    @pytest.mark.parametrize("n,k", [(128, 1), (128, 3), (130, 2), (130, 130), (200, 4)])
    def test_past_the_shift_range_is_refused(self, n, k):
        with pytest.raises(ValueError, match=f"got n={n}$"):
            term_table(n, k)
        with pytest.raises(ValueError, match=f"got n={n}$"):
            syk_termset(n, k)

    def test_explicit_edges_past_64_qubits_build_their_graph(self):
        """Explicit-edge termsets keep any n: their masks take several words."""
        terms = syk_termset(200, 2, [(1, 2), (1, 199), (2, 200)])
        assert terms.x.shape == (3, 2)
        assert terms.anticommuting == (6, 1, 1)
        for i, a in enumerate(terms.terms):
            for j, b in enumerate(terms.terms):
                assert bool(terms.anticommuting[i] >> j & 1) == (not commutes(a, b))
