"""Ordering map, disorder sampling statistics, and serialization."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from syklab.model import (
    SykInstance,
    _gaussian,
    bernoulli_probability,
    from_json,
    ordering_map,
    sample_bernoulli_mask,
    sample_dense,
    sample_sparse,
    sigma_dense,
    sigma_sparse,
    stream_rng,
    to_json,
)


class TestOrderingMap:
    def test_n4_k2(self):
        edges = ordering_map(4, 2)
        assert len(edges) == 6
        assert edges[0] == (1, 2)
        assert edges[5] == (3, 4)

    def test_gamma_count_n8_k4(self):
        assert len(ordering_map(8, 4)) == 70

    def test_lexicographic_and_bijective(self):
        edges = ordering_map(8, 3)
        assert sorted(set(edges)) == list(edges)
        assert len(edges) == math.comb(8, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ordering_map(5, 2)
        with pytest.raises(ValueError):
            ordering_map(4, 5)


class TestSigma:
    def test_value_n10_k4(self):
        assert sigma_dense(10, 4) ** 2 == pytest.approx(6 / 4000, rel=1e-14)

    def test_k1(self):
        assert sigma_dense(8, 1) == 1.0

    def test_square_beyond_float_range_rejected(self):
        """Every finite square gives a finite sigma (here 6 * 1e154**2 is past
        the float range, so sigma**2 is the exact ratio rounded once); a square
        past the float range is an input error naming the flag, not an
        OverflowError."""
        assert sigma_dense(8, 4, 1e154) == math.sqrt(
            float(Fraction(6, 4 * 8**3) * Fraction(1e154) ** 2))
        with pytest.raises(ValueError, match=r"energy constant \(--energy-constant\) "
                                             r"squared exceeds the float range, got 1e\+155"):
            sigma_dense(8, 4, 1e155)

    @pytest.mark.parametrize("n,k", [(1260, 100), (400, 150)])
    def test_n_to_the_k_beyond_float_range(self, n, k):
        """k * n**(k-1) past the float range (1260, 100) or n**(k-1) alone
        (400, 150): sigma is the exact ratio's, not 0 or an OverflowError."""
        exact = Fraction(math.factorial(k - 1), k * n ** (k - 1))
        assert math.isclose(sigma_dense(n, k), math.sqrt(exact), rel_tol=1e-12)

    def test_variance_below_normal_range_rejected(self):
        with pytest.raises(ValueError, match=r"at n=1000000000 \(--n\), k=41 \(--k\) "
                                             r"is below the normal float range"):
            sigma_dense(10**9, 41)

    @pytest.mark.parametrize("energy_constant", [0.0, -1.0, math.inf, math.nan])
    def test_energy_constant_must_be_positive_and_finite(self, energy_constant):
        with pytest.raises(ValueError, match="energy constant must be positive and finite"):
            sigma_dense(8, 4, energy_constant)

    def test_sparse_is_inflated_by_one_over_sqrt_p_b(self):
        assert sigma_sparse(10, 4, 1.0, 0.25) == sigma_dense(10, 4) / 0.5
        assert sigma_sparse(10, 4, 1.0, 0.0) == 0.0


class TestBernoulliProbability:
    def test_value(self):
        p_b, clamped = bernoulli_probability(10, 4, 4.0)
        assert p_b == pytest.approx(40 / 210)
        assert not clamped

    def test_clamped(self):
        p_b, clamped = bernoulli_probability(4, 2, 100.0)
        assert p_b == 1.0 and clamped

    @pytest.mark.parametrize("kappa", [4.0, 0.0])
    def test_c_n_k_beyond_float_range(self, kappa):
        """C(3e7, 50) passes the float range: p_B is the exact ratio
        kappa n / C(n,k), rounded once."""
        n, k = 30_000_000, 50
        want = float(Fraction(kappa * n) / math.comb(n, k))
        assert bernoulli_probability(n, k, kappa) == (want, False)

    def test_infinite_kappa_beyond_float_range_keeps_every_term(self):
        assert bernoulli_probability(30_000_000, 50, math.inf) == (1.0, True)

    @pytest.mark.parametrize("kappa", [-1.0, math.nan])
    def test_rejects_negative_or_nan_kappa(self, kappa):
        """A nan kappa would clamp to p_B = 1 and keep every term."""
        with pytest.raises(ValueError, match="kappa must be nonnegative"):
            bernoulli_probability(8, 4, kappa)


class TestSampling:
    def test_reproducible(self):
        a = sample_dense(8, 3, seed=42, sample_index=3)
        b = sample_dense(8, 3, seed=42, sample_index=3)
        assert np.array_equal(a.couplings, b.couplings)
        c = sample_dense(8, 3, seed=42, sample_index=4)
        assert not np.array_equal(a.couplings, c.couplings)

    def test_dense_moments(self):
        # many small instances pooled: mean ~ 0, variance ~ sigma**2
        n, k = 8, 2
        sigma = sigma_dense(n, k)
        pooled = np.concatenate(
            [sample_dense(n, k, seed=1, sample_index=i).couplings for i in range(200)]
        )
        count = len(pooled)
        assert abs(pooled.mean()) < 4 * sigma / math.sqrt(count)
        var = pooled.var(ddof=1)
        # stderr of the sample variance of a Gaussian: sigma^2 sqrt(2/(count-1))
        assert abs(var - sigma**2) < 4 * sigma**2 * math.sqrt(2 / (count - 1))

    def test_sparse_mask_mean(self):
        n, k, kappa = 8, 3, 2.0
        sizes = [
            sample_bernoulli_mask(n, k, kappa, seed=3, sample_index=i).sum()
            for i in range(1000)
        ]
        p_b, _ = bernoulli_probability(n, k, kappa)
        gamma = math.comb(n, k)
        mean = np.mean(sizes)
        stderr = math.sqrt(gamma * p_b * (1 - p_b) / len(sizes))
        assert abs(mean - kappa * n) < 4 * stderr

    def test_sparse_variance_renormalization(self):
        inst = sample_sparse(10, 4, kappa=4.0, seed=9)
        sigma2_dense = sigma_dense(10, 4) ** 2
        assert inst.p_B * inst.sigma**2 == pytest.approx(sigma2_dense, rel=1e-12)

    def test_kappa_zero(self):
        inst = sample_sparse(6, 3, kappa=0.0, seed=1)
        assert inst.mask.sum() == 0

    def test_fixed_mask_with_fresh_couplings(self):
        mask = sample_bernoulli_mask(8, 3, 4.0, seed=5, sample_index=0)
        a = sample_sparse(8, 3, kappa=4.0, seed=5, coupling_index=0, mask=mask)
        b = sample_sparse(8, 3, kappa=4.0, seed=5, coupling_index=1, mask=mask)
        assert np.array_equal(a.mask, b.mask)
        assert not np.array_equal(a.couplings, b.couplings)

    def test_instance_arrays_are_read_only_copies(self):
        mask = sample_bernoulli_mask(8, 3, 4.0, seed=5, sample_index=0)
        inst = sample_sparse(8, 3, kappa=4.0, seed=5, mask=mask)
        for array in (inst.couplings, inst.mask):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        mask[0] ^= 1  # the caller's array stays writable and detached
        assert inst.mask[0] != mask[0]

    def test_sparse_at_p_b_zero_is_all_positive_zero(self):
        """kappa = 0: p_B = 0, so sigma is 0 and the mask deletes every term,
        which the instance stores as +0.0."""
        inst = sample_sparse(8, 4, kappa=0.0, seed=3)
        assert inst.p_B == 0.0 and inst.sigma == 0.0 and not inst.mask.any()
        assert (inst.couplings == 0.0).all() and not np.signbit(inst.couplings).any()


class TestSykInstance:
    """An instance checks its (n, k) and that it has one coupling, and one
    mask entry, per term, wherever it is built."""

    def test_rejects_wrong_length_couplings(self):
        with pytest.raises(ValueError, match=re.escape("3 couplings != C(n,k) = 70")):
            SykInstance(8, 4, 1.0, 0.1, np.ones(3))

    def test_rejects_wrong_length_mask(self):
        with pytest.raises(ValueError, match=re.escape("mask length 3 != C(n,k) = 70")):
            SykInstance(8, 4, 1.0, 0.1, np.ones(70), mask=np.ones(3, dtype=np.int8))

    @pytest.mark.parametrize("n,k", [(7, 3), (8, 0), (8, 9)])
    def test_rejects_invalid_n_k(self, n, k):
        with pytest.raises(ValueError, match=r"^(n must be even|k must satisfy)"):
            SykInstance(n, k, 1.0, 0.1, np.ones(1))

    def test_sample_sparse_rejects_wrong_length_mask(self):
        with pytest.raises(ValueError, match=re.escape("mask length 69 != C(n,k) = 70")):
            sample_sparse(8, 4, mask=np.ones(69, dtype=np.int8))

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.update(couplings=d["couplings"][:-1]), "55 couplings != C(n,k) = 56"),
        (lambda d: d.update(mask=d["mask"] + [0]), "mask length 57 != C(n,k) = 56"),
    ], ids=["short-couplings", "long-mask"])
    def test_from_json_keeps_length_messages(self, edit, message):
        doc = json.loads(to_json(sample_sparse(8, 3, kappa=4.0, seed=3)))
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            from_json(json.dumps(doc))


class TestSerialization:
    def test_dense_roundtrip_exact(self):
        inst = sample_dense(8, 4, seed=17)
        back = from_json(to_json(inst))
        assert back.n == inst.n and back.k == inst.k
        assert back.sigma == inst.sigma
        assert np.array_equal(back.couplings, inst.couplings)
        assert back.mask is None

    def test_sparse_roundtrip_exact(self):
        inst = sample_sparse(8, 3, kappa=4.0, seed=21)
        back = from_json(to_json(inst))
        assert np.array_equal(back.couplings, inst.couplings)
        assert np.array_equal(back.mask, inst.mask)
        assert back.p_B == inst.p_B
        assert back.clamped == inst.clamped


def _doc(instance) -> dict:
    return json.loads(to_json(instance))


class TestSparseCouplings:
    """A sparse instance stores b_g J_g: +0.0 exactly where the mask deletes
    a term, and the raw stream draw J_g everywhere else."""

    @staticmethod
    def _raw_draw(inst, coupling_index):
        rng = stream_rng(inst.seed, "sparse_couplings", coupling_index)
        return _gaussian(rng, inst.sigma, inst.gamma_count)

    @staticmethod
    def _assert_deleted_terms_are_zero(couplings, mask, raw):
        deleted = mask == 0
        assert np.any(raw[deleted] < 0)  # a product b * J would give -0.0 here
        assert np.all(couplings[deleted] == 0.0)
        assert not np.any(np.signbit(couplings[deleted]))
        assert np.array_equal(couplings[~deleted], raw[~deleted])

    @pytest.mark.parametrize("coupling_index", [0, 3])
    def test_sample_sparse(self, coupling_index):
        inst = sample_sparse(10, 4, kappa=4.0, seed=61, coupling_index=coupling_index)
        assert 0 < inst.mask.sum() < inst.gamma_count
        self._assert_deleted_terms_are_zero(
            inst.couplings, inst.mask, self._raw_draw(inst, coupling_index))

    def test_from_json_and_to_json(self):
        inst = sample_sparse(10, 4, kappa=4.0, seed=62)
        raw = self._raw_draw(inst, 0)
        written = np.array(_doc(inst)["couplings"])  # JSON keeps the sign of 0.0
        self._assert_deleted_terms_are_zero(written, inst.mask, raw)
        self._assert_deleted_terms_are_zero(
            from_json(to_json(inst)).couplings, inst.mask, raw)

    def test_older_document_with_masked_couplings_loads_zeroed(self):
        """Documents that kept J_g under a deleted term still load, to the
        same couplings as the instance they were written from."""
        inst = sample_sparse(10, 4, kappa=4.0, seed=63)
        raw = self._raw_draw(inst, 0)
        doc = dict(_doc(inst), couplings=raw.tolist())
        assert np.any(raw[inst.mask == 0] != 0.0)
        back = from_json(json.dumps(doc))
        self._assert_deleted_terms_are_zero(back.couplings, back.mask, raw)
        assert np.array_equal(back.couplings, inst.couplings)


class TestFromJsonValidation:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_round_trip_is_accepted(self, sparse):
        inst = sample_sparse(8, 3, seed=2) if sparse else sample_dense(8, 3, seed=2)
        assert from_json(json.dumps(_doc(inst))).gamma_count == 56

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: d.update(couplings=d["couplings"][:-1]), id="short-couplings"),
            pytest.param(lambda d: d.update(mask=d["mask"] + [0]), id="long-mask"),
            pytest.param(lambda d: d["mask"].__setitem__(0, 2), id="mask-not-0/1"),
            pytest.param(lambda d: d["couplings"].__setitem__(3, float("nan")), id="nan-coupling"),
            pytest.param(lambda d: d["couplings"].__setitem__(3, float("inf")), id="inf-coupling"),
            pytest.param(lambda d: d.update(sigma=2 * d["sigma"]), id="sigma-mismatch"),
            pytest.param(lambda d: d.update(p_B=None), id="sparse-without-p_B"),
            pytest.param(lambda d: d.update(p_B=1.5), id="p_B-above-one"),
            pytest.param(lambda d: d.update(p_B=0.5), id="p_B-inconsistent-with-sigma"),
            pytest.param(lambda d: d.update(n=7), id="odd-n"),
            pytest.param(lambda d: d.update(energy_constant=-1.0), id="energy-constant"),
        ],
    )
    def test_rejects_inconsistent_sparse_document(self, edit):
        doc = _doc(sample_sparse(8, 3, kappa=4.0, seed=3))
        edit(doc)
        with pytest.raises(ValueError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda d: [d], "an instance must be a JSON object, got list",
                         id="array"),
            pytest.param(lambda d: d.__delitem__("n"), "instance key 'n' is missing",
                         id="missing-n"),
            pytest.param(lambda d: d.update(spin=0.5), "instance key 'spin' is unknown",
                         id="unknown-key"),
            pytest.param(lambda d: d.update(n="8"), "'n' needs an integer, got '8'",
                         id="n-string"),
            pytest.param(lambda d: d.update(k=3.0), "'k' needs an integer, got 3.0",
                         id="k-float"),
            pytest.param(lambda d: d.update(n=True), "'n' needs an integer, got True",
                         id="n-bool"),
            pytest.param(lambda d: d.update(seed="x"), "'seed' needs an integer, got 'x'",
                         id="seed-string"),
            pytest.param(lambda d: d.update(clamped="yes"),
                         "'clamped' needs true or false, got 'yes'", id="clamped-string"),
            pytest.param(lambda d: d.update(clamped=1),
                         "'clamped' needs true or false, got 1", id="clamped-int"),
            pytest.param(lambda d: d.update(sigma="x"), "'sigma' needs a number, got 'x'",
                         id="sigma-string"),
            pytest.param(lambda d: d.update(p_B="x"),
                         "'p_B' needs a number or null, got 'x'", id="p_B-string"),
        ],
    )
    def test_rejects_malformed_document(self, edit, message):
        """``edit`` changes the document in place or returns its replacement."""
        doc = _doc(sample_sparse(8, 3, kappa=4.0, seed=3))
        replacement = edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            from_json(json.dumps(doc if replacement is None else replacement))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: d.update(p_B=0.5), id="dense-with-p_B"),
            pytest.param(lambda d: d.update(sigma=d["sigma"] * (1 + 1e-9)), id="sigma-mismatch"),
            pytest.param(lambda d: d.update(couplings=d["couplings"] + [0.1]), id="long-couplings"),
        ],
    )
    def test_rejects_inconsistent_dense_document(self, edit):
        doc = _doc(sample_dense(8, 3, seed=4))
        edit(doc)
        with pytest.raises(ValueError):
            from_json(json.dumps(doc))
