"""Dense backend: assembly, evolution, Schatten norms, Monte-Carlo norms."""

import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.stats import unitary_group

from conftest import dense_hamiltonian
from syklab import fermions
from syklab.fermions import hilbert_dim, term_operator, term_table
from syklab.linalg import (
    NormEstimate,
    DEFAULT_DIM_CAP,
    ResourceError,
    assemble,
    exact_evolution,
    evolution_factory,
    expected_norm,
    schatten_norm,
)
from syklab.model import ordering_map, sample_bernoulli_mask, sample_dense, sample_sparse
from syklab.pauli import to_dense
from syklab.trotter import _error_operators, build_schedule


def _assemble(*instances):
    """assemble() of the instances' couplings, all of one (n, k)."""
    first = instances[0]
    return assemble(first.n, first.k, np.array([inst.couplings for inst in instances]))


def _gather(mat, n, k):
    """The (B, W, W) diagonal blocks of a D x D matrix on the sectors of the
    (n, k) term table."""
    sectors = term_table(n, k).sectors
    return mat[sectors[:, :, None], sectors[:, None, :]]


def _per_term_sum(n, k, couplings):
    """H's parity blocks built by adding J_g K_g for each term some row keeps,
    in increasing g, into a zero stack."""
    table = term_table(n, k)
    width = table.sectors.shape[1]
    ham = np.zeros((len(couplings),) + table.sectors.shape + (width,), dtype=complex)
    positions = np.arange(width)
    for g in np.flatnonzero(couplings.any(axis=0)):
        entries = couplings[:, g, None, None] * fermions._POWERS_OF_I.take(table.powers[g])
        ham[..., positions, positions ^ table.shifts[g]] += entries
    return ham


class TestAssemble:
    def test_zero_couplings(self):
        inst = sample_dense(6, 3, seed=1)
        zero = dataclasses.replace(inst, couplings=np.zeros_like(inst.couplings))
        assert np.array_equal(_assemble(zero), np.zeros((1, 1, 8, 8)))

    def test_single_term(self):
        inst = sample_dense(6, 3, seed=2)
        couplings = np.zeros_like(inst.couplings)
        couplings[0] = 1.7
        single = dataclasses.replace(inst, couplings=couplings)
        edge = ordering_map(6, 3)[0]
        expected = 1.7 * to_dense(term_operator(edge, 6))
        assert np.allclose(_assemble(single)[0], _gather(expected, 6, 3))

    def test_sum_of_terms_matches_naive(self):
        inst = sample_dense(6, 2, seed=3)
        naive = sum(
            inst.couplings[i] * to_dense(term_operator(e, 6))
            for i, e in enumerate(ordering_map(6, 2))
        )
        assert np.allclose(_assemble(inst)[0], _gather(naive, 6, 2), atol=1e-13)

    def test_hermitian(self):
        ham = _assemble(sample_dense(6, 3, seed=4))
        assert (np.linalg.norm(ham - ham.conj().swapaxes(-1, -2))
                < 1e-13 * np.linalg.norm(ham))

    def test_mask_respected(self):
        inst = sample_sparse(6, 3, kappa=2.0, seed=5)
        kept = sum(
            inst.couplings[i] * to_dense(term_operator(e, 6))
            for i, e in enumerate(ordering_map(6, 3))
            if inst.mask[i]
        )
        if isinstance(kept, int):  # all masked out
            kept = np.zeros((8, 8))
        assert np.allclose(_assemble(inst)[0], _gather(kept, 6, 3), atol=1e-13)

    def test_dimension_cap(self):
        inst = sample_dense(22, 2, seed=6)  # D = 2048
        assert hilbert_dim(inst.n) > DEFAULT_DIM_CAP
        with pytest.raises(ResourceError, match="dimension 2048 .* cap 1024"):
            _assemble(inst)
        assert hilbert_dim(20) == DEFAULT_DIM_CAP  # the largest D it builds

    @pytest.mark.parametrize("n,k", [(8, 1), (8, 2), (8, 3), (10, 4), (6, 4)])
    def test_blocks_match_independent_reference(self, n, k):
        """Each sample's blocks are those of sum_g J_g to_dense(K_g) on the
        table's sectors, and the reference has no entry between sectors (for
        even k, none between the basis states of even and of odd popcount)."""
        instances = [sample_dense(n, k, seed=18, sample_index=i) for i in range(3)]
        self._assert_matches_reference(instances)

    def test_sparse_stack_of_different_masks_matches_reference(self):
        instances = [
            sample_sparse(10, 4, kappa=4.0, seed=19, coupling_index=i,
                          mask=sample_bernoulli_mask(10, 4, 4.0, 19, i))
            for i in range(4)
        ]
        masks = np.array([inst.mask for inst in instances])
        assert np.any(masks.any(axis=0) & ~masks.all(axis=0))
        self._assert_matches_reference(instances)

    @staticmethod
    def _assert_matches_reference(instances):
        n, k = instances[0].n, instances[0].k
        sectors = term_table(n, k).sectors
        sector_of = np.empty(sectors.size, dtype=int)
        for q, sector in enumerate(sectors):
            sector_of[sector] = q
        cross = sector_of[:, None] != sector_of[None, :]
        stack = _assemble(*instances)
        assert stack.shape == (len(instances),) + sectors.shape + sectors.shape[-1:]
        for inst, blocks in zip(instances, stack):
            ref = dense_hamiltonian(inst)
            assert np.count_nonzero(ref[~cross]) > 0
            assert np.count_nonzero(ref[cross]) == 0
            assert np.array_equal(blocks, _gather(ref, n, k))

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 4), (8, 3), (10, 4), (10, 5), (12, 6)])
    def test_bytes_are_the_per_term_sum(self, n, k):
        """One scatter per shift class writes, byte for byte, what adding
        J_g K_g into H term by term in increasing g writes, zero signs too:
        for dense rows (one negated, one all zero) and for a stack of
        different sparse masks."""
        dense = np.array([sample_dense(n, k, seed=21, sample_index=i).couplings
                          for i in range(3)])
        dense[1] *= -1
        dense[2] = 0.0
        kappa = math.comb(n, k) / (2 * n)  # each term kept with probability 1/2
        sparse = np.array([
            sample_sparse(n, k, kappa=kappa, seed=21, coupling_index=i,
                          mask=sample_bernoulli_mask(n, k, kappa, 21, i)).couplings
            for i in range(3)
        ])
        assert len({tuple(row != 0) for row in sparse}) == 3
        for couplings in (dense, sparse):
            assert assemble(n, k, couplings).tobytes() == _per_term_sum(n, k, couplings).tobytes()

    @pytest.mark.parametrize("n,k", [(8, 4), (8, 3), (10, 2)])
    def test_stack_is_separate_calls(self, n, k):
        instances = [sample_dense(n, k, seed=20, sample_index=i) for i in range(4)]
        instances.append(sample_sparse(n, k, kappa=2.0, seed=20))
        stack = _assemble(*instances)
        for inst, blocks in zip(instances, stack):
            assert np.array_equal(blocks, _assemble(inst)[0])

    @pytest.mark.parametrize("shape", [(28,), (2, 27), (2, 28, 1), (0,)])
    def test_rejects_couplings_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"shape \(N, C\(n,k\)\) = \(N, 28\)"):
            assemble(8, 2, np.ones(shape))


class TestExactEvolution:
    def test_t_zero(self):
        # exactly I, not I rebuilt from the eigenvectors, for one matrix or a stack
        ham = dense_hamiltonian(sample_dense(6, 3, seed=7))
        blocks = np.stack([ham[:4, :4], ham[4:, 4:]])
        assert np.array_equal(exact_evolution(ham, 0.0), np.eye(8))
        assert np.array_equal(evolution_factory(blocks)(0.0), np.stack([np.eye(4)] * 2))

    def test_diagonal_case(self):
        ham = np.diag([1.0, -1.0]).astype(complex)
        u = exact_evolution(ham, np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_unitary_and_conserves_h(self):
        rng = np.random.default_rng(8)
        mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        ham = (mat + mat.conj().T) / 2
        u = exact_evolution(ham, 0.9)
        assert np.linalg.norm(u @ u.conj().T - np.eye(16)) < 1e-10
        assert np.linalg.norm(u.conj().T @ ham @ u - ham) < 1e-10

    def test_group_law(self):
        ham = dense_hamiltonian(sample_dense(8, 3, seed=9))
        u1 = exact_evolution(ham, 0.3)
        u2 = exact_evolution(ham, 1.1)
        u12 = exact_evolution(ham, 1.4)
        assert np.linalg.norm(u1 @ u2 - u12) < 1e-9

    def test_factory_reuses_decomposition(self):
        ham = dense_hamiltonian(sample_dense(6, 3, seed=10))
        evolve = evolution_factory(ham)
        for t in (0.1, 0.7):
            assert np.allclose(evolve(t), exact_evolution(ham, t), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            exact_evolution(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_hermiticity_check_survives_overflowing_norms(self):
        """At entries of 1e200 the Frobenius norms overflow; the check is
        then made on the rescaled matrix, so a non-Hermitian matrix is still
        refused and a Hermitian one evolves with no numpy warning."""
        with pytest.raises(ValueError, match="not Hermitian"):
            evolution_factory(1e200 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        ham = 1e200 * np.array([[1.0, 2j], [-2j, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unitary = evolution_factory(ham)(0.5)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_rejects_non_finite_entries(self, entry):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            evolution_factory(np.array([[entry, 0.0], [0.0, 1.0]]))

    def test_stack_is_separate_calls(self):
        rng = np.random.default_rng(16)
        mats = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
        stack = (mats + mats.conj().swapaxes(-1, -2)) / 2
        evolve = evolution_factory(stack)
        for t in (0.4, 2.5):
            got = evolve(t)
            assert got.shape == (2, 8, 8)
            for block, ham in zip(got, stack):
                assert np.allclose(block, evolution_factory(ham)(t), rtol=0, atol=1e-14)

    def test_rejects_stack_with_one_non_hermitian_block(self):
        stack = np.zeros((2, 2, 2), dtype=complex)
        stack[0] = np.eye(2)
        stack[1, 0, 1] = 1.0
        with pytest.raises(ValueError):
            evolution_factory(stack)


class TestSchattenNorm:
    def test_identity(self):
        for p in (2, 3, 4):
            assert schatten_norm(np.eye(8), p) == pytest.approx(8 ** (1 / p))
        assert schatten_norm(np.eye(8), np.inf) == pytest.approx(1.0)

    def test_unitary_spectral_norm(self):
        u = unitary_group.rvs(8, random_state=1)
        assert schatten_norm(u, np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_p2_is_frobenius(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert schatten_norm(mat, 2) == pytest.approx(
            math.sqrt((np.abs(mat) ** 2).sum()), rel=1e-12
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        u = unitary_group.rvs(8, random_state=2)
        v = unitary_group.rvs(8, random_state=3)
        for p in (2, 3, np.inf):
            assert schatten_norm(u @ mat @ v, p) == pytest.approx(
                schatten_norm(mat, p), rel=1e-10
            )

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)

    def test_rejects_nan_p(self):
        with pytest.raises(ValueError, match="p >= 1, got nan"):
            schatten_norm(np.eye(2), math.nan)

    @pytest.mark.parametrize("scale", [1e-3, 1e3], ids=["underflow", "overflow"])
    def test_refuses_p_whose_power_of_s_max_is_not_normal(self, scale):
        assert schatten_norm(scale * np.eye(4), 50) == pytest.approx(scale * 4 ** (1 / 50))
        with pytest.raises(ValueError, match=r"Schatten order p \(--p\) = 200 .*s_max\*\*p"):
            schatten_norm(scale * np.eye(4), 200)

    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8, np.inf])
    def test_stack_is_its_block_diagonal_matrix(self, p):
        """A (B, W, W) stack has the norm of the block-diagonal matrix of its
        blocks; the largest singular value sits in the last block."""
        rng = np.random.default_rng(17)
        stack = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        stack[2] *= 4.0
        assert schatten_norm(stack, p) == pytest.approx(
            schatten_norm(block_diag(*stack), p), rel=1e-12
        )
        if p == np.inf:
            assert schatten_norm(stack, p) == max(schatten_norm(b, p) for b in stack)

    @staticmethod
    def _svd_norm(mat, p):
        svals = np.linalg.svd(mat, compute_uv=False)
        return float(np.sum(svals**p) ** (1.0 / p))

    # p = 4 and 8 take the even-m branch of the Gram ladder, 6 and 10 the odd
    _EVEN_P = [4, 6, 8, 10]

    @pytest.mark.parametrize("p", _EVEN_P)
    @pytest.mark.parametrize("shape", [(8, 8), (5, 7), (7, 5), (2, 16, 16), (3, 6, 6)])
    def test_gram_norm_matches_svd_on_random_matrices(self, p, shape):
        rng = np.random.default_rng(31)
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert schatten_norm(mat, p) == pytest.approx(self._svd_norm(mat, p), rel=1e-12)

    @pytest.mark.parametrize("p", _EVEN_P)
    @pytest.mark.parametrize("r", [100, 10**5], ids=["r=100", "floor"])
    def test_gram_norm_matches_svd_on_error_blocks(self, p, r):
        """Real (2, 8, 8) Trotter error blocks at n = 8, k = 4, l = 2; at
        r = 1e5 the error sits on the floor, ||E||_F ~ 3e-10."""
        inst = sample_dense(8, 4, seed=5, sample_index=0)
        err = next(_error_operators(8, 4, inst.couplings[None], build_schedule(2), 1.0, r))
        assert err.shape == (2, 8, 8)
        if r == 10**5:
            assert np.linalg.norm(err) < 1e-9
        assert schatten_norm(err, p) == pytest.approx(self._svd_norm(err, p), rel=1e-12)

    @pytest.mark.parametrize("p", _EVEN_P)
    @pytest.mark.parametrize("scale", [1e-200, 1e200], ids=["underflow", "overflow"])
    def test_gram_ladder_out_of_range_refuses_as_the_svd_does(self, p, scale):
        """The Gram sum underflows to 0 or overflows to inf (and to nan past
        the first product, inf * 0): the SVD's refusal is raised, not a
        floating-point warning."""
        with pytest.raises(ValueError, match=rf"p \(--p\) = {p} .*s_max\*\*p = "):
            schatten_norm(scale * np.eye(4, dtype=complex), p)

    def test_even_p_takes_no_svd(self, monkeypatch):
        """Even p >= 4 in the normal range never calls the SVD; p = 3, p = inf
        and an even p whose s_max**p is not normal still do."""
        rng = np.random.default_rng(37)
        stack = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))

        class SvdCalled(Exception):
            pass

        def no_svd(*args, **kwargs):
            raise SvdCalled

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for p in (2, 4, 6, 8, 10, 20):
            assert schatten_norm(stack, p) > 0
        for p in (3, np.inf):
            with pytest.raises(SvdCalled):
                schatten_norm(stack, p)
        with pytest.raises(SvdCalled):
            schatten_norm(1e3 * np.eye(4), 200)


class TestExpectedNorm:
    def test_identity_statistic(self):
        est = expected_norm((np.eye(8, dtype=complex) for _ in range(4)), 2)
        assert est.value == pytest.approx(math.sqrt(8))
        assert est.stderr == pytest.approx(0.0, abs=1e-14)

    def test_zero_statistic(self):
        est = expected_norm([np.zeros((4, 4))] * 4, 2)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_refuses_p_whose_variance_would_underflow(self):
        """||A||_p**p = 4e-200 is normal, its square is not: the stderr
        would read 0."""
        mats = [1e-4 * np.eye(4) * (1 + i / 10) for i in range(4)]
        assert expected_norm(mats, 20).stderr > 0
        with pytest.raises(ValueError, match=r"p \(--p\) = 50 .*\(largest \|\|A\|\|_p\*\*p\)\*\*2"):
            expected_norm(mats, 50)

    def test_refuses_a_norm_whose_power_underflows(self):
        """At p = 2 no SVD is taken: the norm's own square is checked."""
        with pytest.raises(ValueError, match=r"p \(--p\) = 2 .*\|\|A\|\|_p\*\*p = "):
            expected_norm([1e-160 * np.eye(4)] * 4, 2)

    def test_zero_statistic_at_large_p(self):
        est = expected_norm([np.zeros((4, 4))] * 4, 100)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_self_difference(self):
        def stat(inst):
            ham = dense_hamiltonian(inst)
            return exact_evolution(ham, 1.0) - exact_evolution(ham, 1.0)

        est = expected_norm(
            (stat(sample_dense(6, 3, seed=13, sample_index=i)) for i in range(3)), 2
        )
        assert est.value == 0.0

    def test_stderr_shrinks_with_samples(self):
        def hamiltonians(num):
            return assemble(6, 2, np.array(
                [sample_dense(6, 2, seed=15, sample_index=i).couplings for i in range(num)]))

        small = expected_norm(hamiltonians(24), 2)
        large = expected_norm(hamiltonians(96), 2)
        # ratio should be ~ 1/2; allow generous statistical slack
        assert large.stderr < small.stderr

    def test_sample_order_does_not_move_bits(self):
        """The mean and standard error are exactly rounded sums, so every
        permutation of the samples gives the same bits."""
        rng = np.random.default_rng(61)
        mats = list(rng.standard_normal((32, 8, 8)) * rng.uniform(0.5, 2.0, (32, 1, 1)))
        est = expected_norm(mats, 4)
        for _ in range(200):
            assert expected_norm([mats[i] for i in rng.permutation(32)], 4) == est

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            expected_norm([np.eye(2)], 2)

    def test_drops_each_matrix_before_the_next(self):
        refs = []

        def matrices():
            for i in range(4):
                mat = np.full((4, 4), i + 1.0)
                refs.append(weakref.ref(mat))
                yield mat
                del mat
                assert refs[-1]() is None, "the previous matrix is still held"

        est = expected_norm(matrices(), 2)
        assert est.num_samples == 4


def test_norm_estimate_is_frozen_with_positional_fields():
    est = NormEstimate(0.5, 0.01, 4, 2.0)
    assert (est.value, est.stderr, est.num_samples, est.p) == (0.5, 0.01, 4, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.value = 1.0
