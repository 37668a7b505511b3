"""Schedules and Trotterized evolution, against straight-line reimplementations."""

import csv
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import dense_hamiltonian
from syklab import fermions, trotter
from syklab.fermions import hilbert_dim, term_operator, term_table
from syklab.linalg import (
    NormEstimate, ResourceError, _mean_sem, exact_evolution, expected_norm,
)
from syklab.model import (
    coupling_groups, ordering_map, sample_bernoulli_mask, sample_dense, sample_sparse,
)
from syklab.pauli import _coefficients, to_dense
from syklab.trotter import (
    Schedule,
    averaged_error,
    build_schedule,
    fixed_state_error,
    observed_error,
    stage_count,
    trotterized,
)


class TestSchedule:
    def test_first_order_forward_sweep(self):
        sched = build_schedule(1)
        assert sched.order == sched.stages == 1
        couplings = np.array([sample_dense(8, 4, seed=19, sample_index=i).couplings
                              for i in range(2)])
        assert np.array_equal(trotter._round_matrices(8, 4, couplings, sched, 0.6),
                              _swept(8, 4, couplings, 0.6, (1.0, True)))

    def test_second_order_reverse_then_forward(self):
        """S_2 is the reverse sweep at scale 1/2, then the forward one: built
        so without a mirror (k = 2), and through F's mirror to ulps (k = 4)."""
        sched = build_schedule(2)
        assert sched.order == sched.stages == 2
        for k in (2, 4):
            couplings = np.array([sample_dense(8, k, seed=19, sample_index=i).couplings
                                  for i in range(2)])
            ours = trotter._round_matrices(8, k, couplings, sched, 0.6)
            swept = _swept(8, k, couplings, 0.6, (0.5, False), (0.5, True))
            if term_table(8, k).mirror is None:
                assert np.array_equal(ours, swept)
            else:
                _assert_ulps_from(ours, swept)

    @pytest.mark.parametrize("order,expected", [(1, 1), (2, 2), (4, 10), (6, 50)])
    def test_stage_counts(self, order, expected):
        assert stage_count(order) == expected
        assert build_schedule(order).stages == len(_sweeps(order)) == expected

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_per_term_coefficients_sum_to_one(self, order):
        """The reference flattening ``_sweeps``, which the kernel's l >= 4
        rounds are checked against, passes every term once per sweep, so a
        term's coefficients are the sweep scales: they sum to 1, half in
        each direction."""
        sums = {True: 0.0, False: 0.0}
        for scale, forward in _sweeps(order):
            sums[forward] += scale
        assert sums[True] == pytest.approx(0.5, abs=1e-14)
        assert sums[False] == pytest.approx(0.5, abs=1e-14)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            build_schedule(3)

    def test_rejects_an_order_past_the_sweep_cap(self):
        """A round of l = 16 builds 2**7 Strang pairs and each order doubles
        them, so the Trotter path refuses l = 18, while stage_count (the
        bounds' and gate counts' one use of l) still takes it."""
        assert build_schedule(16).stages == 2 * 5**7
        with pytest.raises(ValueError, match=r"order l \(--l\) = 18 exceeds 16"):
            build_schedule(18)
        assert stage_count(18) == 2 * 5**8

    def test_stage_count_refuses_past_4300_digits(self):
        assert len(str(stage_count(12304))) == 4300
        with pytest.raises(ValueError, match=r"order l \(--l\) = 12306 is too large"):
            stage_count(12306)


def _sweeps(order):
    """S_l flattened by Suzuki's recursion into (scale, forward?) sweeps in
    application order, independent of the kernel's recursion on matrices."""
    if order == 1:
        return [(1.0, True)]
    if order == 2:
        return [(0.5, False), (0.5, True)]
    q = 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))
    return [(block * scale, forward) for block in (q, q, 1.0 - 4.0 * q, q, q)
            for scale, forward in _sweeps(order - 2)]


def _steps(schedule, gamma, order=None):
    """The schedule as (scale, 0-based term index) steps in application order:
    each sweep one forward or reverse pass over all ``gamma`` terms, in
    ``order`` (a permutation; hyperedge order if None)."""
    order = range(gamma) if order is None else order
    return [(scale, i) for scale, forward in _sweeps(schedule.order)
            for i in (order if forward else reversed(order))]


def _swept(n, k, couplings, tau, *sweeps):
    """The (N, B, W, W) identity stack with ``trotter._sweep`` applied for
    each (scale, forward?) of ``sweeps`` in order, on the kernel's runs."""
    table = term_table(n, k)
    num_blocks, width = table.sectors.shape
    runs = trotter._sweep_runs(table, couplings.any(axis=0) & (tau != 0))
    stack = np.tile(np.eye(width, dtype=complex), (len(couplings), num_blocks, 1, 1))
    for scale, forward in sweeps:
        walk = runs if forward else [run[::-1] for run in runs[::-1]]
        trotter._sweep(stack, table, walk, couplings, scale, tau)
    return stack


def _naive_product(instance, order, t, r):
    """Straight-line oracle: dense expm per factor, repeated r times."""
    dim = hilbert_dim(instance.n)
    edges = ordering_map(instance.n, instance.k)
    round_mat = np.eye(dim, dtype=complex)
    for a, b in _steps(build_schedule(order), len(edges)):
        if instance.mask is not None and instance.mask[b] == 0:
            continue
        ham_b = instance.couplings[b] * to_dense(term_operator(edges[b], instance.n))
        round_mat = expm(1j * a * (t / r) * ham_b) @ round_mat
    total = np.eye(dim, dtype=complex)
    for _ in range(r):
        total = round_mat @ total
    return total


def _natural_terms(instance):
    """Each term's natural-order signed permutation (perm, coeff) from
    ``pauli._coefficients``: K_b|x> = coeff[x] |perm[x]>, so row x of K_b
    holds coeff[perm[x]] in column perm[x]."""
    return [_coefficients(term_operator(edge, instance.n))
            for edge in ordering_map(instance.n, instance.k)]


def _sweep_state(instance, schedule, t, r, state):
    """Reference kernel: S_l(t/r)**r |state> by r sweeps of state-vector
    exponentials cos(theta) + i sin(theta) K_b, independent of the term
    table's layout."""
    terms = _natural_terms(instance)
    psi = state
    for _ in range(r):
        for a_j, i in _steps(schedule, instance.gamma_count):
            if instance.mask is not None and instance.mask[i] == 0:
                continue
            theta = a_j * instance.couplings[i] * t / r
            perm, coeff = terms[i]
            psi = np.cos(theta) * psi + (1j * np.sin(theta)) * (coeff[perm] * psi[perm])
    return psi


class TestTrotterized:
    def test_single_term_is_exact(self):
        inst = sample_dense(6, 3, seed=20)
        couplings = np.zeros_like(inst.couplings)
        couplings[7] = inst.couplings[7]
        single = dataclasses.replace(inst, couplings=couplings)
        exact = exact_evolution(dense_hamiltonian(single), 1.3)
        for order, r in ((1, 1), (2, 3), (4, 2), (6, 2)):
            sched = build_schedule(order)
            approx = trotterized(single, sched, 1.3, r)
            assert np.linalg.norm(exact - approx) < 1e-12

    def test_t_zero_is_identity(self):
        inst = sample_dense(6, 2, seed=21)
        sched = build_schedule(2)
        assert np.allclose(trotterized(inst, sched, 0.0, 4), np.eye(8))

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_naive_expm_product(self, order):
        inst = sample_dense(6, 3, seed=22)
        sched = build_schedule(order)
        ours = trotterized(inst, sched, 0.8, 3)
        naive = _naive_product(inst, order, 0.8, 3)
        assert np.linalg.norm(ours - naive) < 1e-10

    def test_sparse_masked_terms_skipped(self):
        inst = sample_sparse(6, 3, kappa=2.0, seed=23)
        sched = build_schedule(2)
        ours = trotterized(inst, sched, 0.5, 2)
        naive = _naive_product(inst, 2, 0.5, 2)
        assert np.linalg.norm(ours - naive) < 1e-10

    def test_unitarity(self):
        for order in (1, 2, 4):
            inst = sample_dense(8, 4, seed=24)
            sched = build_schedule(order)
            s = trotterized(inst, sched, 1.0, 8)
            assert np.linalg.norm(s @ s.conj().T - np.eye(16)) < 1e-10

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_t(self, t):
        inst = sample_dense(6, 3, seed=25)
        with pytest.raises(ValueError, match="time t must be finite"):
            trotterized(inst, build_schedule(1), t, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_round_is_the_reference_round(self, k):
        inst = sample_dense(8, k, seed=54)
        for order in (1, 2, 4, 6):
            sched = build_schedule(order)
            _assert_ulps_from(trotterized(inst, sched, 0.7, 1),
                              _round_matrix_reference(inst, sched, 0.7))


# A fused run of equal-shift terms rounds differently from its term-by-term
# steps, by a few ulps of the unit-norm round matrix.
_FUSED_ATOL = 1e-13


def _assert_ulps_from(ours, reference):
    assert np.max(np.abs(ours - reference)) <= _FUSED_ATOL


def _round_matrix_reference(instance, schedule, tau, order=None):
    """Reference kernel: one round S_l(tau) as a full D x D matrix, built by
    applying each step exponential cos(theta) + i sin(theta) K_g to the
    accumulating matrix in place, K_g in natural basis order (not the term
    table's sector order), each sweep in hyperedge order or in ``order``."""
    terms = _natural_terms(instance)
    mat = np.eye(hilbert_dim(instance.n), dtype=complex)
    buf = np.empty_like(mat)
    for a_j, i in _steps(schedule, instance.gamma_count, order):
        if instance.mask is not None and instance.mask[i] == 0:
            continue
        theta = a_j * instance.couplings[i] * tau
        if theta == 0.0:
            continue
        perm, coeff = terms[i]
        np.take(mat, perm, axis=0, out=buf, mode="clip")
        buf *= (1j * np.sin(theta) * coeff[perm])[:, None]
        mat *= np.cos(theta)
        mat += buf
    return mat


def _place(blocks, n, k):
    """Each (B, W, W) parity-block sample of ``blocks`` placed into D x D."""
    sectors = term_table(n, k).sectors
    assert blocks.shape[1:] == sectors.shape + sectors.shape[-1:]
    full = np.zeros((len(blocks), sectors.size, sectors.size), dtype=complex)
    full[:, sectors[:, :, None], sectors[:, None, :]] = blocks
    return full


def _stack(instances, schedule, tau):
    """The kernel's (N, B, W, W) parity blocks, each sample placed into D x D."""
    first = instances[0]
    couplings = np.array([inst.couplings for inst in instances])
    blocks = trotter._round_matrices(first.n, first.k, couplings, schedule, tau)
    assert len(blocks) == len(instances)
    return _place(blocks, first.n, first.k)


def _assert_stack_is_separate_calls(instances, schedule, tau):
    stack = _stack(instances, schedule, tau)
    assert stack.shape == (len(instances),) + (hilbert_dim(instances[0].n),) * 2
    for inst, mat in zip(instances, stack):
        assert np.array_equal(mat, _stack([inst], schedule, tau)[0])
    return stack


class TestShiftRuns:
    """The kernel's split of the live terms, in the order of the table's
    sweep runs, into runs of equal shift."""

    @staticmethod
    def _assert_runs_split(n, k, live):
        table = term_table(n, k)
        order = np.concatenate(table.sweep_runs)
        runs = trotter._sweep_runs(table, live)
        assert [g for run in runs for g in run] == order[live[order]].tolist()
        position = np.argsort(order)  # each term's place in the sweep order
        shifts = table.shifts[order]
        for run in runs:
            # one shift over the run's whole span in the sweep order, dead terms too
            span = shifts[position[run[0]]:position[run[-1]] + 1]
            assert np.all(span == shifts[position[run[0]]])
        for before, after in zip(runs, runs[1:]):
            # the next run starts after a term of another shift, live or not
            between = shifts[position[before[-1]] + 1:position[after[0]] + 1]
            assert np.any(between != table.shifts[before[-1]])
        return runs

    @pytest.mark.parametrize("n,k", [(10, 4), (12, 3)])
    def test_dense_runs_partition_every_term(self, n, k):
        gamma = math.comb(n, k)
        runs = self._assert_runs_split(n, k, np.ones(gamma, dtype=bool))
        assert runs == [run.tolist() for run in term_table(n, k).sweep_runs]
        shifts = term_table(n, k).shifts
        assert all(shifts[a[0]] != shifts[b[0]] for a, b in zip(runs, runs[1:]))
        assert len(runs) < _hyperedge_runs(shifts)

    @pytest.mark.parametrize("n,k", [(10, 4), (12, 3)])
    def test_sparse_runs_partition_the_kept_terms(self, n, k):
        masks = np.array([sample_bernoulli_mask(n, k, 4.0, 62, i) for i in range(3)])
        live = masks.any(axis=0)
        assert 0 < np.count_nonzero(live) < masks.shape[1]
        self._assert_runs_split(n, k, live)

    def test_no_live_term_is_no_run(self):
        assert trotter._sweep_runs(term_table(8, 4), np.zeros(70, dtype=bool)) == []

    @pytest.mark.parametrize("n,k,hyperedge,steps", [
        (8, 4, 33, 29), (10, 4, 102, 83), (12, 4, 246, 187), (16, 4, 927, 641),
        (20, 4, 2492, 1623), (10, 3, 60, 46), (16, 2, 63, 36),
    ])
    def test_steps_per_sweep(self, n, k, hyperedge, steps):
        """A dense sweep takes one step per sweep run of the table, fewer than
        the runs of equal shift in hyperedge order (pinned, so that a change
        in how far terms fuse shows here)."""
        table = term_table(n, k)
        assert _hyperedge_runs(table.shifts) == hyperedge
        assert len(trotter._sweep_runs(table, np.ones(len(table.shifts), dtype=bool))) == steps


def _hyperedge_runs(shifts):
    """The number of maximal runs of equal shift in hyperedge order."""
    return 1 + int(np.count_nonzero(shifts[1:] != shifts[:-1]))


class TestRoundMatrices:
    """The stack kernel: N samples at once equal N one-sample calls, and the
    parity layout equals the full-D reference to ulps (bit for bit where
    every run holds one term and the round is built sweep after sweep)."""

    @pytest.mark.parametrize("n,k", [(8, 4), (10, 4), (8, 3), (8, 2)])
    def test_dense_stack_is_separate_calls(self, n, k):
        """Both pair routes, one pair and a product of pairs: a mirror for
        k = 3 and 4, none for k = 2."""
        instances = [sample_dense(n, k, seed=50, sample_index=i) for i in range(5)]
        for order in (2, 4):
            _assert_stack_is_separate_calls(instances, build_schedule(order), 0.3)

    def test_sparse_stack_shares_one_mask(self):
        mask = sample_bernoulli_mask(10, 4, 4.0, 51, 0)
        assert 0 < mask.sum() < len(mask)
        instances = [sample_sparse(10, 4, kappa=4.0, seed=51, coupling_index=i, mask=mask)
                     for i in range(4)]
        _assert_stack_is_separate_calls(instances, build_schedule(2), 0.4)

    def test_sparse_stack_of_different_masks(self):
        """A deleted term is a zero coupling, so samples with different masks
        share a stack: a term deleted in one sample and live in another
        leaves the first sample's bits as a one-sample call does."""
        instances = [
            sample_sparse(10, 4, kappa=4.0, seed=51, coupling_index=i,
                          mask=sample_bernoulli_mask(10, 4, 4.0, 51, i))
            for i in range(4)
        ]
        masks = np.array([inst.mask for inst in instances])
        assert len({mask.tobytes() for mask in masks}) == 4
        assert np.any(masks.any(axis=0) & ~masks.all(axis=0))
        _assert_stack_is_separate_calls(instances, build_schedule(2), 0.4)

    def test_all_zero_coupling_row_gives_identity(self):
        instances = [sample_dense(8, 4, seed=52, sample_index=i) for i in range(3)]
        instances[1] = dataclasses.replace(
            instances[1], couplings=np.zeros(instances[1].gamma_count))
        stack = _assert_stack_is_separate_calls(instances, build_schedule(2), 0.5)
        assert np.array_equal(stack[1], np.eye(16))
        assert not np.array_equal(stack[0], np.eye(16))

    @pytest.mark.parametrize("k", [3, 4])
    def test_t_zero_is_identity(self, k):
        instances = [sample_dense(8, k, seed=53, sample_index=i) for i in range(3)]
        stack = _stack(instances, build_schedule(2), 0.0)
        assert np.array_equal(stack, np.broadcast_to(np.eye(16), stack.shape))

    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    def test_one_exponential_per_sweep_and_live_term(self, monkeypatch, order):
        """A round applies one exponential per built sweep and live term:
        built x Gamma for dense rows, built x (terms some row keeps) for a
        stack of different sparse masks, and none at tau = 0.  l = 1 builds
        its one sweep; an even l builds the 2**(l/2-1) Strang pairs of
        Suzuki's recursion, each as one forward sweep with the table's mirror
        and as a reverse and a forward sweep without one."""
        applied = []
        original = trotter._sweep

        def counted(stack, table, runs, *args):
            applied.extend(g for run in runs for g in run)
            return original(stack, table, runs, *args)

        monkeypatch.setattr(trotter, "_sweep", counted)
        sched = build_schedule(order)
        for n, k, kappa, built in (
                (10, 4, 4.0, {1: 1, 2: 1, 4: 2, 6: 4}),  # a mirror: one sweep per pair
                (10, 2, 1.0, {1: 1, 2: 2, 4: 4, 6: 8})):  # none: two sweeps per pair
            assert (term_table(n, k).mirror is None) == (k == 2)
            dense = np.array([sample_dense(n, k, seed=58, sample_index=i).couplings
                              for i in range(3)])
            masks = np.array([sample_bernoulli_mask(n, k, kappa, 58, i) for i in range(3)])
            sparse = np.array([
                sample_sparse(n, k, kappa=kappa, seed=58, coupling_index=i, mask=mask).couplings
                for i, mask in enumerate(masks)])
            kept = np.flatnonzero(masks.any(axis=0))
            assert 0 < len(kept) < masks.shape[1]
            for couplings, tau, live in ((dense, 0.3, np.arange(dense.shape[1])),
                                         (sparse, 0.3, kept),
                                         (dense, 0.0, np.arange(0))):
                applied.clear()
                trotter._round_matrices(n, k, couplings, sched, tau)
                assert sorted(applied) == sorted(live.tolist() * built[order])

    @pytest.mark.parametrize("n", [8, 10, 12])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parity_layout_matches_full_reference(self, n, k):
        inst = sample_dense(n, k, seed=54)
        for order in (1, 2, 4):
            sched = build_schedule(order)
            ours = _stack([inst], sched, 0.7)[0]
            _assert_ulps_from(ours, _round_matrix_reference(inst, sched, 0.7))

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_sparse_stack_of_different_masks_matches_full_reference(self, order):
        instances = [
            sample_sparse(10, 4, kappa=4.0, seed=59, coupling_index=i,
                          mask=sample_bernoulli_mask(10, 4, 4.0, 59, i))
            for i in range(3)
        ]
        sched = build_schedule(order)
        for inst, ours in zip(instances, _stack(instances, sched, 0.6)):
            _assert_ulps_from(ours, _round_matrix_reference(inst, sched, 0.6))

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("n,k", [(10, 4), (10, 3), (10, 2)])
    def test_one_term_runs_are_the_reference_bits(self, n, k, order):
        """With every coupling zeroed but the first of each of the table's
        sweep runs, each run holds one live term, whose step is the reference's
        step operation for operation.  So a round built term by term, l = 1
        and, without a mirror (k = 2), l = 2, is bit for bit the reference
        applied in the sweep order; a mirrored sweep or a product of pairs
        rounds differently, to ulps."""
        table = term_table(n, k)
        first_of_run = np.zeros(len(table.shifts), dtype=bool)
        first_of_run[[run[0] for run in table.sweep_runs]] = True
        assert not first_of_run.all()
        instances = [sample_dense(n, k, seed=60, sample_index=i) for i in range(3)]
        instances = [
            dataclasses.replace(inst, couplings=np.where(first_of_run, inst.couplings, 0.0))
            for inst in instances
        ]
        sched = build_schedule(order)
        term_by_term = order == 1 or (order == 2 and table.mirror is None)
        for inst, ours in zip(instances, _stack(instances, sched, 0.7)):
            reference = _round_matrix_reference(inst, sched, 0.7,
                                                np.concatenate(table.sweep_runs))
            if term_by_term:
                assert np.array_equal(ours, reference)
            else:
                _assert_ulps_from(ours, reference)

    def test_fused_rounds_add_no_floor(self):
        """Fused runs, mirrored sweeps (k = 4) and the recursion's products
        (l = 4 with and without a mirror, l = 6 without) keep each round's
        parity blocks unitary to round-off, max_q ||S_q^dag S_q - I||_F /
        sqrt(W) <= 1e-13, at n = 12, tau = 0.01."""
        n = 12
        for k, order in ((4, 2), (4, 4), (2, 4), (2, 6)):
            assert (term_table(n, k).mirror is None) == (k == 2)
            couplings = np.array([sample_dense(n, k, seed=61, sample_index=i).couplings
                                  for i in range(2)])
            rounds = trotter._round_matrices(n, k, couplings, build_schedule(order), 0.01)
            width = rounds.shape[-1]
            defect = np.linalg.norm(
                np.conj(np.swapaxes(rounds, -1, -2)) @ rounds - np.eye(width),
                axis=(-2, -1)) / math.sqrt(width)
            assert defect.max() <= 1e-13

    @pytest.mark.parametrize("n,k", [(8, 1), (10, 3), (10, 4), (10, 5), (10, 8)])
    def test_mirrored_forward_sweep_is_the_reverse_sweep(self, n, k):
        """Q F^T Q^dag, F the forward sweep, equals the reverse sweep to
        ulps, on a dense stack and on a stack of different sparse masks."""
        table = term_table(n, k)
        dense = np.array([sample_dense(n, k, seed=63, sample_index=i).couplings
                          for i in range(3)])
        kappa = math.comb(n, k) / (2 * n)  # each term kept with probability 1/2
        sparse = np.array([
            sample_sparse(n, k, kappa=kappa, seed=63, coupling_index=i,
                          mask=sample_bernoulli_mask(n, k, kappa, 63, i)).couplings
            for i in range(3)
        ])
        assert len({tuple(row != 0) for row in sparse}) == 3
        for couplings in (dense, sparse):
            forward, reverse = (_swept(n, k, couplings, 0.8, (0.35, fwd))
                                for fwd in (True, False))
            assert np.max(np.abs(forward - reverse)) > 1e-6  # far above the ulps
            _assert_ulps_from(table.mirrored(forward), reverse)


class TestObservedError:
    def test_t_zero(self):
        inst = sample_dense(6, 2, seed=26)
        assert observed_error(inst, 1, 0.0, 4, 2) == 0.0
        assert observed_error(sample_dense(8, 4, seed=26), 2, 0.0, 10, math.inf) == 0.0

    def test_large_r_converges(self):
        inst = sample_dense(6, 2, seed=27)
        assert observed_error(inst, 2, 1.0, 10**4, 2) < 1e-6

    def test_matches_naive_reimplementation(self):
        inst = sample_dense(8, 4, seed=28)
        t, r = 1.0, 50
        ours = observed_error(inst, 1, t, r, 2)
        exact = exact_evolution(dense_hamiltonian(inst), t)
        naive = np.linalg.norm(exact - _naive_product(inst, 1, t, r)) / math.sqrt(16)
        assert ours == pytest.approx(naive, abs=1e-10)

    @pytest.mark.parametrize("order", [1, 2])
    def test_convergence_order(self, order):
        inst = sample_dense(8, 4, seed=29)
        errs = {
            r: observed_error(inst, order, 1.0, r, 2)
            for r in (64, 128, 256, 512)
        }
        for r in (64, 128, 256):
            ratio = errs[r] / errs[2 * r]
            assert 0.85 * 2**order <= ratio <= 1.15 * 2**order

    def test_second_order_beats_first(self):
        inst = sample_dense(8, 3, seed=30)
        e1 = observed_error(inst, 1, 1.0, 64, 2)
        e2 = observed_error(inst, 2, 1.0, 64, 2)
        assert e2 <= e1

    def test_large_p_is_refused_not_reported_as_zero(self):
        inst = sample_dense(8, 4, seed=0)
        assert observed_error(inst, 2, 1.0, 10, math.inf) > 1e-4
        with pytest.raises(ValueError, match=r"p \(--p\) = 200 is too large.*s_max\*\*p"):
            observed_error(inst, 2, 1.0, 10, 200)

    def test_error_in_valid_range(self):
        inst = sample_dense(6, 3, seed=31)
        err = observed_error(inst, 1, 50.0, 3, 2)
        assert 0.0 <= err <= 2.0

    @pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
    def test_rejects_p_below_one_before_any_work(self, monkeypatch, p):
        def no_work(*args):
            raise AssertionError("a Hamiltonian was assembled")

        monkeypatch.setattr(trotter, "assemble", no_work)
        inst = sample_dense(6, 3, seed=32)
        with pytest.raises(ValueError, match=f"p >= 1, got {p}"):
            observed_error(inst, 1, 1.0, 16, p)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_t(self, t):
        inst = sample_dense(6, 3, seed=32)
        with pytest.raises(ValueError, match="time t must be finite"):
            observed_error(inst, 1, t, 16, 2)
        with pytest.raises(ValueError, match="time t must be finite"):
            averaged_error(6, 3, 1, t, 16, 2, 41, 3)

    def test_rejects_r_beyond_float_range(self):
        """t / r needs r as a float: a larger r is refused, as BoundInput
        refuses it, instead of raising OverflowError."""
        inst = sample_dense(6, 3, seed=32)
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must satisfy 1 <= r"):
            observed_error(inst, 1, 1.0, 10**400, 2)
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must satisfy 1 <= r"):
            trotterized(inst, build_schedule(1), 1.0, 10**400)

    @pytest.mark.parametrize("r", [100.0, 2.5])
    def test_rejects_non_integral_r_before_any_work(self, monkeypatch, r):
        """The r-th power needs an integer r: a float is refused before H is
        assembled, not by a TypeError after the eigh."""
        def no_work(*args):
            raise AssertionError("a Hamiltonian was assembled")

        monkeypatch.setattr(trotter, "assemble", no_work)
        inst = sample_dense(6, 3, seed=32)
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must be an integer"):
            observed_error(inst, 2, 1.0, r, 2)

    def test_accepts_numpy_integer_r(self):
        inst = sample_dense(6, 3, seed=32)
        assert observed_error(inst, 1, 1.0, np.int64(16), 2) == observed_error(inst, 1, 1.0, 16, 2)

    def test_spectral_norm_variant(self):
        inst = sample_dense(6, 3, seed=32)
        err_inf = observed_error(inst, 1, 1.0, 16, np.inf)
        err_2 = observed_error(inst, 1, 1.0, 16, 2)
        assert err_inf >= err_2  # normalized p=2 is dominated by p=inf


def _svals_full_reference(instance, order, t, r):
    """Singular values of the full D x D error operator, built without the
    block path: a full-width exp(iHt) and the reference round's r-th power."""
    sched = build_schedule(order)
    rounds = np.linalg.matrix_power(_round_matrix_reference(instance, sched, t / r), r)
    err = exact_evolution(dense_hamiltonian(instance), t) - rounds
    return np.linalg.svd(err, compute_uv=False)


BLOCK_CASES = [
    sample_dense(8, 2, seed=60),
    sample_dense(8, 3, seed=61),
    sample_dense(8, 4, seed=62),
    sample_sparse(10, 4, kappa=2.0, seed=63),
]
BLOCK_IDS = ["dense-k2", "dense-k3", "dense-k4", "sparse-k4"]


class TestBlockPath:
    """The error operator is carried as parity blocks (two D/2 blocks for
    even k, one D block for odd k); its norms match the full-D operator."""

    @pytest.mark.parametrize("p", [2, 4, math.inf])
    @pytest.mark.parametrize("inst", BLOCK_CASES, ids=BLOCK_IDS)
    def test_norm_matches_full_reference(self, inst, p):
        assert inst.mask is None or 0 < inst.mask.sum() < inst.gamma_count
        t, r, order = 0.9, 5, 2
        svals = _svals_full_reference(inst, order, t, r)
        ref = svals[0] if p == math.inf else np.sum(svals**p) ** (1 / p)
        dim = hilbert_dim(inst.n)
        got = observed_error(inst, order, t, r, p) * dim ** (1 / p)
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("inst", [sample_dense(8, 4, seed=64), sample_dense(8, 3, seed=65)],
                             ids=["even-k", "odd-k"])
    def test_operator_norm_is_largest_over_blocks(self, inst):
        t, r, order = 1.0, 3, 1
        got = observed_error(inst, order, t, r, math.inf)
        assert got == pytest.approx(_svals_full_reference(inst, order, t, r)[0], rel=1e-12)

    @pytest.mark.parametrize("inst", [
        sample_dense(8, 2, seed=66),
        sample_dense(10, 4, seed=67),
        sample_sparse(10, 4, kappa=2.0, seed=63),
    ], ids=["dense-k2", "dense-k4", "sparse-k4"])
    def test_even_k_hamiltonian_has_no_cross_parity_entries(self, inst):
        """The block path rests on this: H is exactly zero between the basis
        states of even and of odd popcount."""
        ham = dense_hamiltonian(inst)
        parity = np.array([bin(b).count("1") % 2 for b in range(len(ham))])
        cross = parity[:, None] != parity[None, :]
        assert np.count_nonzero(ham[~cross]) > 0
        assert np.count_nonzero(ham[cross]) == 0

    @pytest.mark.parametrize("k,blocks", [(2, 2), (4, 2), (3, 1)])
    def test_sector_shape(self, k, blocks):
        sectors = term_table(8, k).sectors
        assert sectors.shape == (blocks, 16 // blocks)
        assert sorted(sectors.ravel()) == list(range(16))


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_row(name: str, n: int) -> dict:
    with open(GOLDEN / name, encoding="utf-8") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return next(row for row in rows if int(row["n"]) == n)


class TestAveragedError:
    @pytest.mark.parametrize("name", ["scan_n_dense.csv", "scan_n_sparse.csv"])
    def test_reproduces_golden_row(self, name):
        row = _golden_row(name, 8)
        sparse = row["model"] == "sparse"
        est = averaged_error(
            int(row["n"]), int(row["k"]), int(row["l"]), float(row["t"]),
            int(row["r"]), float(row["p"]), int(row["seed"]),
            int(row["N_disorder"]),
            kappa=float(row["kappa"]) if sparse else None,
            num_bernoulli=int(row["N_bernoulli"]),
        )
        assert est.value == float(row["observed"])
        assert est.stderr == float(row["observed_stderr"])

    @pytest.mark.parametrize("p", [50, 100])
    def test_large_p_is_refused_not_reported_as_zero(self, p):
        """Errors near 2e-4: at p = 50 the p-th powers are normal but their
        squares (the variance) underflow, at p = 100 s_max**p does."""
        assert averaged_error(8, 4, 2, 1.0, 10, 4, 7, 4).stderr > 0
        with pytest.raises(ValueError, match=rf"Schatten order p \(--p\) = {p} is too large"):
            averaged_error(8, 4, 2, 1.0, 10, p, 7, 4)

    @pytest.mark.parametrize("p", [2, 4, 100])
    def test_t_zero_is_exactly_zero(self, p):
        """exp(0) is I exactly, as is the round kernel at tau = 0, so E = 0
        with no round-off for the large-p check to refuse."""
        est = averaged_error(8, 4, 2, 0.0, 10, p, 7, 4)
        assert (est.value, est.stderr) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [1.5, math.inf, math.nan])
    def test_rejects_p_outside_two_to_inf(self, p):
        with pytest.raises(ValueError, match=r"norm order p \(--p\) must satisfy 2 <= p < inf"):
            averaged_error(6, 3, 1, 0.5, 4, p, 41, 3)

    def test_dense_is_normalized_mean_over_disorder(self):
        n, k, t, r, seed = 6, 3, 0.5, 8, 41
        est = averaged_error(n, k, 1, t, r, 2, seed, 3)
        powers = [observed_error(sample_dense(n, k, 1.0, seed, i), 1, t, r, 2) ** 2
                  for i in range(3)]
        assert est.value == pytest.approx(math.sqrt(sum(powers) / 3), rel=1e-12)
        assert est.num_samples == 3

    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("kappa", [None, 4.0], ids=["dense", "sparse"])
    def test_rows_are_the_one_row_samples(self, monkeypatch, n, k, kappa):
        """The coupling rows that averaged_error draws a group at a time are,
        byte for byte, the stacked couplings of sample_dense / sample_sparse;
        a deleted sparse term is +0.0."""
        groups = []
        original = trotter._error_operators

        def error_operators(n, k, couplings, *args):
            groups.append(couplings)
            return original(n, k, couplings, *args)

        monkeypatch.setattr(trotter, "_error_operators", error_operators)
        seed, num_disorder, num_bernoulli = 57, 3, 2
        averaged_error(n, k, 1, 0.5, 2, 2, seed, num_disorder, energy_constant=1.3,
                       kappa=kappa, num_bernoulli=num_bernoulli)
        if kappa is None:
            expected = [[sample_dense(n, k, 1.3, seed, i) for i in range(num_disorder)]]
        else:
            expected = [[sample_sparse(n, k, 1.3, kappa, seed, b * num_disorder + i,
                                       mask=sample_bernoulli_mask(n, k, kappa, seed, b))
                         for i in range(num_disorder)] for b in range(num_bernoulli)]
        assert len(groups) == len(expected)
        for rows, instances in zip(groups, expected):
            stacked = np.array([inst.couplings for inst in instances])
            assert rows.shape == stacked.shape and rows.tobytes() == stacked.tobytes()
            if kappa is not None:
                deleted = rows[:, instances[0].mask == 0]
                assert deleted.size and not deleted.any() and not np.signbit(deleted).any()

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("kappa,k", [(None, 4), (4.0, 4), (None, 3), (4.0, 3)],
                             ids=["dense", "sparse", "dense-odd-k", "sparse-odd-k"])
    def test_stack_size_does_not_move_bits(self, monkeypatch, kappa, k, p):
        """Stacks of one sample, the default budget and one stack give the
        same bits.  At n = 12 the default budget holds 8 samples for even k
        (B = 2 blocks of W = 32), so 10 samples make a stack of 8 and one of
        2, and 4 samples for odd k (B = 1 block of W = 64), so stacks of 4, 4
        and 2."""
        def estimate(stack_bytes):
            monkeypatch.setattr(trotter, "_STACK_BYTES", stack_bytes)
            return averaged_error(12, k, 1, 1.0, 20, p, 55, 10, kappa=kappa,
                                  num_bernoulli=2)

        default = estimate(trotter._STACK_BYTES)
        assert estimate(1) == default
        assert estimate(1 << 40) == default

    def test_rejects_r_below_one(self):
        with pytest.raises(ValueError, match="Trotter number"):
            averaged_error(6, 3, 1, 0.5, 0, 2, 41, 3)

    def test_sparse_is_mean_sem_of_the_per_mask_estimates(self):
        """The outer average is ``_mean_sem`` of the normalized per-mask
        expected norms, bit for bit."""
        n, k, t, r, p, seed, num_disorder, num_bernoulli = 8, 4, 1.0, 10, 4, 58, 3, 4
        est = averaged_error(n, k, 2, t, r, p, seed, num_disorder, kappa=4.0,
                             num_bernoulli=num_bernoulli)
        groups = coupling_groups(n, k, 1.0, seed, num_disorder, 4.0, num_bernoulli)
        values = [expected_norm(trotter._error_operators(n, k, rows, build_schedule(2), t, r),
                                p).value / hilbert_dim(n) ** (1 / p) for rows in groups]
        assert est == NormEstimate(*_mean_sem(values), num_bernoulli, p)

    @pytest.mark.parametrize("stack_bytes,stacks", [(None, 1), (1, 10)])
    def test_assembles_once_per_stack(self, monkeypatch, stack_bytes, stacks):
        """H is assembled and exp(iHt) formed once per stack, both as
        (N, B, W, W) parity blocks."""
        stacks_in, hams_in = [], []
        original_assemble, original_evolution = trotter.assemble, trotter.exact_evolution

        def assemble(n, k, couplings):
            stacks_in.append(couplings.shape)
            return original_assemble(n, k, couplings)

        def exact_evolution(ham, t):
            hams_in.append(ham.shape)
            return original_evolution(ham, t)

        if stack_bytes is not None:
            monkeypatch.setattr(trotter, "_STACK_BYTES", stack_bytes)
        monkeypatch.setattr(trotter, "assemble", assemble)
        monkeypatch.setattr(trotter, "exact_evolution", exact_evolution)
        averaged_error(8, 4, 1, 1.0, 4, 2, 56, 10)
        samples = 10 // stacks
        assert stacks_in == [(samples, 70)] * stacks
        assert hams_in == [(samples, 2, 8, 8)] * stacks

    @pytest.mark.parametrize("r", [0, -3])
    def test_sparse_rejects_r_below_one_before_any_work(self, monkeypatch, r):
        def no_work(*args):
            raise AssertionError("a Hamiltonian was assembled")

        monkeypatch.setattr(trotter, "assemble", no_work)
        with pytest.raises(ValueError, match="Trotter number"):
            averaged_error(6, 3, 1, 0.5, r, 2, 41, 3, kappa=4.0, num_bernoulli=2)


class TestFixedStateError:
    def test_t_zero(self):
        inst = sample_dense(6, 2, seed=33)
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        assert fixed_state_error(inst, 1, 0.0, 2, state) == pytest.approx(0.0, abs=1e-13)

    def test_matches_dense_matrices(self):
        inst = sample_dense(8, 3, seed=34)
        rng = np.random.default_rng(35)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        got = fixed_state_error(inst, 2, 1.0, 7, state)
        exact = exact_evolution(dense_hamiltonian(inst), 1.0)
        ref = np.linalg.norm((exact - _naive_product(inst, 2, 1.0, 7)) @ state)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_dominated_by_spectral_error(self):
        inst = sample_dense(6, 3, seed=36)
        rng = np.random.default_rng(37)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        fixed = fixed_state_error(inst, 1, 1.0, 9, state)
        spectral = observed_error(inst, 1, 1.0, 9, np.inf)
        assert fixed <= spectral + 1e-10

    def test_matches_state_difference_on_masked_sparse(self):
        inst = sample_sparse(8, 4, kappa=2.0, seed=41)
        assert 0 < inst.mask.sum() < inst.gamma_count
        rng = np.random.default_rng(42)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        t, r = 1.1, 5
        sched = build_schedule(2)
        ref = np.linalg.norm(
            exact_evolution(dense_hamiltonian(inst), t) @ state
            - _sweep_state(inst, sched, t, r, state)
        )
        assert fixed_state_error(inst, 2, t, r, state) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("inst", [
        sample_dense(8, 3, seed=43),
        sample_dense(10, 4, seed=44),
        sample_sparse(8, 4, kappa=2.0, seed=41),
        sample_sparse(10, 4, kappa=2.0, seed=45),
    ], ids=["dense-8", "dense-10", "sparse-8", "sparse-10"])
    def test_matches_matrix_route(self, inst):
        """The error from the round matrix is ||U psi - S^r psi|| with S^r psi
        from a state-vector sweep of the same schedule and U from the full-D
        Hamiltonian.  The error (~1e-4) is a difference of two unit vectors,
        so it is compared absolutely, at the 1e-13 to which the two routes'
        states agree (they differ by ~1e-15 here)."""
        assert inst.mask is None or 0 < inst.mask.sum() < inst.gamma_count
        dim = hilbert_dim(inst.n)
        rng = np.random.default_rng(46)
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        t, r, order = 0.9, 6, 2
        sched = build_schedule(order)
        approx = _sweep_state(inst, sched, t, r, state)
        ref = np.linalg.norm(exact_evolution(dense_hamiltonian(inst), t) @ state - approx)
        assert fixed_state_error(inst, order, t, r, state) == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("inst", [
        sample_dense(8, 4, seed=47),
        sample_sparse(8, 4, kappa=2.0, seed=41),
    ], ids=["dense-8", "sparse-8"])
    def test_basis_sum_is_frobenius(self, inst):
        """sum_b ||E e_b||^2 = ||E||_F^2 = D * observed_error(p=2)^2: the
        Haar average of the fixed-state error squared is the p=2 column."""
        assert inst.mask is None or 0 < inst.mask.sum() < inst.gamma_count
        dim = hilbert_dim(inst.n)
        t, r, order = 0.9, 6, 2
        total = sum(fixed_state_error(inst, order, t, r, basis) ** 2
                    for basis in np.eye(dim, dtype=complex))
        frob = dim * observed_error(inst, order, t, r, 2) ** 2
        assert total == pytest.approx(frob, rel=1e-12)

    @pytest.mark.parametrize("model", ["dense", "sparse"])
    @pytest.mark.parametrize("n,k,order,t,r", [(8, 4, 1, 1.0, 10), (8, 3, 2, 2.0, 5)])
    def test_fixed_state_mean_is_frobenius_mean(self, model, n, k, order, t, r):
        """E_J ||E psi||^2 = E_J ||E||_F^2 / D for a fixed psi, as the coupling
        law is unchanged when one J_g flips sign: only the monomials of E^dag E
        that hold every K_g an even number of times, +-I, survive the average.
        Over 128 samples (sparse: one fixed kappa = 4 mask) the mean per-sample
        difference at psi = |0...0> lies within 3 standard errors of 0."""
        state = np.zeros(hilbert_dim(n), dtype=complex)
        state[0] = 1.0
        mask = sample_bernoulli_mask(n, k, 4.0, seed=49)
        assert 0 < mask.sum() < len(mask)
        diffs = []
        for i in range(128):
            inst = (sample_dense(n, k, seed=49, sample_index=i) if model == "dense" else
                    sample_sparse(n, k, kappa=4.0, seed=49, coupling_index=i, mask=mask))
            diffs.append(fixed_state_error(inst, order, t, r, state) ** 2
                         - observed_error(inst, order, t, r, 2) ** 2)
        assert abs(np.mean(diffs)) <= 3 * np.std(diffs, ddof=1) / math.sqrt(len(diffs))

    def test_rejects_unnormalized(self):
        inst = sample_dense(6, 2, seed=38)
        with pytest.raises(ValueError):
            fixed_state_error(inst, 1, 1.0, 2, np.ones(8, dtype=complex))

    def test_rejects_nan_state(self):
        inst = sample_dense(6, 2, seed=38)
        with pytest.raises(ValueError, match="normalized"):
            fixed_state_error(inst, 1, 1.0, 2, np.full(8, math.nan, dtype=complex))

    @pytest.mark.parametrize("shape", [(8,), (16, 1), (32,)])
    def test_rejects_wrong_shape_before_any_work(self, monkeypatch, shape):
        def no_work(*args):
            raise AssertionError("the error operator was formed")

        monkeypatch.setattr(trotter, "_error_operators", no_work)
        inst = sample_dense(8, 4, seed=48)  # D = 16
        state = np.zeros(shape, dtype=complex)
        state.flat[0] = 1.0
        with pytest.raises(ValueError, match=r"shape \(D,\) = \(16,\)"):
            fixed_state_error(inst, 1, 1.0, 2, state)


CAP_CALLS = {
    "observed_error": lambda inst, sched, state: observed_error(inst, 2, 1.0, 4, 2),
    "averaged_error": lambda inst, sched, state: averaged_error(40, 2, 2, 1.0, 4, 2, 70, 2),
    "fixed_state_error": lambda inst, sched, state: fixed_state_error(inst, 2, 1.0, 4, state),
    "trotterized": lambda inst, sched, state: trotterized(inst, sched, 1.0, 4),
}


@pytest.mark.parametrize("name", CAP_CALLS)
def test_dense_cap_is_checked_before_any_d_sized_array(name):
    """Each entry to the matrix route refuses n = 40 (D = 2**20) while its
    traced peak stays under 1 MiB (the state is allocated before tracing),
    and no D-sized term-table array is built or cached."""
    fermions._build_term_table.cache_clear()
    inst = sample_dense(40, 2, seed=70)
    sched = build_schedule(2)
    state = np.zeros(hilbert_dim(40), dtype=complex)
    state[0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="dimension 1048576 .* exceeds the dense cap"):
            CAP_CALLS[name](inst, sched, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "sectors" not in vars(term_table(40, 2))


ENTRY_CALLS = {
    "observed_error": lambda inst, order, t, r: observed_error(inst, order, t, r, 2),
    "fixed_state_error": lambda inst, order, t, r: fixed_state_error(
        inst, order, t, r, np.eye(hilbert_dim(inst.n), dtype=complex)[0]),
    "trotterized": lambda inst, order, t, r: trotterized(inst, build_schedule(order), t, r),
    "trotterized-Schedule": lambda inst, order, t, r: trotterized(inst, Schedule(order), t, r),
}


@pytest.mark.parametrize("order,t,r,message", [
    (3, 1.0, 4, r"order must be 1 or even >= 2 \(--l\), got 3"),
    (18, 1.0, 4, r"order l \(--l\) = 18 exceeds 16"),
    (2, 1.0, 0, r"Trotter number r \(--r\) must satisfy 1 <= r"),
    (2, 1.0, 2.5, r"Trotter number r \(--r\) must be an integer, got 2.5"),
    (2, math.inf, 4, "time t must be finite, got inf"),
    (3, 1.0, 0, r"order must be 1 or even >= 2 \(--l\), got 3"),
], ids=["l-odd", "l-sweeps", "r", "r-non-integral", "t", "l-before-r"])
@pytest.mark.parametrize("name", ENTRY_CALLS)
def test_entry_checks_order_t_and_r_before_any_term_table_array(name, order, t, r, message):
    """Each one-instance entry refuses a bad l, r or t itself, before the
    term table's sector array is built, as averaged_error does before a draw;
    a bad l is reported before a bad r, and a Schedule cannot hold one."""
    inst = sample_dense(8, 4, seed=71)
    fermions._build_term_table.cache_clear()
    with pytest.raises(ValueError, match=message):
        ENTRY_CALLS[name](inst, order, t, r)
    assert "sectors" not in vars(term_table(8, 4))


@pytest.mark.parametrize("n,k", [(24, 12), (2100, 2)])
@pytest.mark.parametrize("kappa", [None, 4.0], ids=["dense", "sparse"])
def test_averaged_error_checks_the_cap_before_any_draw(kappa, n, k):
    """At (24, 12) a sample has Gamma = 2,704,156 couplings: the cap refuses
    D = 4096 before the first one is drawn, with a traced peak under 1 MiB.
    At n = 2100, D**(1/p) is past the float range: the cap comes first."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=rf"\(n = {n}\) exceeds the dense cap"):
            averaged_error(n, k, 2, 1.0, 4, 2, 70, 2, kappa=kappa, num_bernoulli=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("order,t,r,message", [
    (1, 1.0, 0, "Trotter number"),
    (1, math.inf, 4, "time t must be finite"),
    (1, 1.0, 2.5, "Trotter number r .* must be an integer"),
    (3, 1.0, 4, "order must be 1 or even"),
    (24, 1.0, 4, r"order l \(--l\) = 24 exceeds 16"),
    (3, 1.0, 0, "order must be 1 or even"),
], ids=["r", "t", "r-non-integral", "l-odd", "l-sweeps", "l-before-r"])
@pytest.mark.parametrize("kappa", [None, 4.0], ids=["dense", "sparse"])
def test_averaged_error_checks_t_and_r_before_any_draw(monkeypatch, kappa, order, t, r,
                                                       message):
    """t, r and the order l are refused before a coupling or mask is drawn;
    a round of l = 24 would build 2**11 Strang pairs."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a coupling or mask was drawn")

    monkeypatch.setattr(trotter, "coupling_groups", no_draw)
    with pytest.raises(ValueError, match=message):
        averaged_error(8, 4, order, t, r, 2, 70, 2, kappa=kappa, num_bernoulli=2)


def test_term_order_changes_s_but_not_u():
    """A reversed sweep order gives a different S for the same exact U."""
    inst = sample_dense(6, 3, seed=39)
    t, r = 1.0, 8
    s_fwd = trotterized(inst, build_schedule(1), t, r)
    rounds = _swept(6, 3, inst.couplings[None], t / r, (1.0, False))
    s_rev = _place(np.linalg.matrix_power(rounds, r), 6, 3)[0]
    assert np.linalg.norm(s_fwd - s_rev) > 1e-8  # S depends on the order
    exact = exact_evolution(dense_hamiltonian(inst), t)  # U does not
    for s in (s_fwd, s_rev):
        err = np.linalg.norm(exact - s) / math.sqrt(8)
        assert 0.0 <= err <= 2.0
        assert np.linalg.norm(s @ s.conj().T - np.eye(8)) < 1e-10
