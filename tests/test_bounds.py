"""Bound evaluators, Trotter-number solver, gate counts, log-log fits."""

import bisect
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from syklab.bounds import (
    BoundInput,
    ContractError,
    SolverInput,
    delta1_dense,
    delta_l_dense,
    delta_l_sparse,
    error_bound,
    error_ratio,
    gate_counts,
    log_prefactor_higher,
    log_prefactor_sparse,
    loglog_fit,
    q_of,
    solve_trotter_number,
    term_count,
)
from syklab.experiments import ExperimentConfig, _bound_input
from syklab.linalg import NormEstimate
from syklab.model import bernoulli_probability, sigma_dense
from syklab.trotter import stage_count


def brute_force_q(n: int, k: int) -> int:
    """Anticommuting partners of a fixed hyperedge, by the overlap sign law:
    terms anticommute iff k + |overlap| is odd."""
    fixed = set(range(1, k + 1))
    count = 0
    for other in combinations(range(1, n + 1), k):
        if set(other) == fixed:
            continue
        m = len(fixed & set(other))
        if (k + m) % 2 == 1:
            count += 1
    return count


class TestQ:
    def test_empty_sum(self):
        assert q_of(2, 2) == 0

    def test_k1(self):
        for n in (2, 6, 10, 14):
            assert q_of(n, 1) == n - 1

    def test_pinned_value(self):
        assert q_of(6, 4) == 8

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
    def test_equals_brute_force(self, n):
        for k in range(1, min(5, n) + 1):
            assert q_of(n, k) == brute_force_q(n, k), (n, k)

    @pytest.mark.parametrize("n,k,message", [(7, 3, "n must be even"), (1, 1, "n must be even"),
                                             (8, 0, "k must satisfy"), (8, 9, "k must satisfy")])
    def test_invalid_nk_raises_on_every_call(self, n, k, message):
        """Q(n, k) is summed once per (n, k); an invalid pair is never kept,
        so a repeated call raises again."""
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                q_of(n, k)

    def test_float_n_is_not_the_int_n(self):
        """Q(8, 4) is summed once and kept, but a float n still reaches
        ``math.comb``, which refuses it, as on the first call."""
        assert q_of(8, 4) == q_of(8, 4) == brute_force_q(8, 4)
        for _ in range(2):
            with pytest.raises(TypeError):
                q_of(8.0, 4)


def independent_delta1(n, k, p, t, r, j0=1.0):
    """Separately coded arithmetic for the first-order bound."""
    sigma2 = math.factorial(k - 1) * j0**2 / (k * n ** (k - 1))
    q = q_of(n, k)
    gamma = math.comb(n, k)
    first = 1.0 / (2.0 * r)
    second = math.sqrt(sigma2) * math.sqrt(q) * t / (3.0 * r * r)
    return 4 * math.sqrt(2) * p * p * sigma2 * math.sqrt(gamma * q) * t * t * (first + second)


def independent_delta_l(n, k, l, p, t, r, j0=1.0, unit=False):
    """Separately coded arithmetic for the higher-order bound."""
    sigma = math.sqrt(math.factorial(k - 1) * j0**2 / (k * n ** (k - 1)))
    q = q_of(n, k)
    gamma = math.comb(n, k)
    ups = 1 if l == 1 else 2 * 5 ** (l // 2 - 1)
    cl = 1.0 if unit else (
        ups ** (l + 3) * math.sqrt(l + 3) * (l + 2) ** (3 * (l + 2) - 1) / (l + 1)
    )
    br = math.sqrt(p) * sigma * math.sqrt(q) * t / r
    return cl * math.sqrt(p) * sigma * t / math.sqrt(q) * (
        gamma * br**l + gamma**2 * br ** (l + 1)
    )


def independent_delta_sparse(n, k, l, p, t, r, p_b, j0=1.0):
    """Separately coded arithmetic for the sparse bound at keep-probability
    p_b, with the renormalized deviation sigma_dense/sqrt(p_b)."""
    sigma = math.sqrt(math.factorial(k - 1) * j0**2 / (k * n ** (k - 1)) / p_b)
    q = q_of(n, k)
    gamma = math.comb(n, k)
    ups = 2 * 5 ** (l // 2 - 1)
    beta = ((l + 3) ** 2.5 * (l + 2) ** (2 * (l + 2)) * ups ** (l + 3)
            * (l + 2) ** (1.5 * (l + 2)) / (l + 1))
    if p_b * q >= 1:
        br = math.sqrt(p) * sigma * math.sqrt(p_b * q) * t / r
        front = gamma * math.sqrt(p) * sigma * math.sqrt(p_b) * t / math.sqrt(q)
    else:
        br = math.sqrt(p) * sigma * t / r
        front = gamma * math.sqrt(p) * sigma * t / q
    return beta * front * (br**l + gamma * br ** (l + 1))


class TestDelta1:
    def test_t_zero(self):
        assert delta1_dense(BoundInput(n=8, k=4, l=1, p=2, t=0.0, r=10)) == 0.0

    def test_halves_with_r(self):
        # r large enough that the 1/r**2 term is negligible
        a = delta1_dense(BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=10**6))
        b = delta1_dense(BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=2 * 10**6))
        assert a / b == pytest.approx(2.0, rel=1e-2)

    def test_against_independent_arithmetic(self):
        got = delta1_dense(BoundInput(n=10, k=4, l=1, p=2, t=1.0, r=10**5))
        want = independent_delta1(10, 4, 2, 1.0, 10**5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_requires_l1(self):
        with pytest.raises(ValueError):
            delta1_dense(BoundInput(n=8, k=4, l=2, p=2, t=1.0, r=10))

    @pytest.mark.parametrize("p", [1.5, math.inf, math.nan])
    def test_p_outside_two_to_inf_rejected(self, p):
        with pytest.raises(ValueError, match=r"norm order p \(--p\)"):
            BoundInput(n=8, k=4, l=1, p=p, t=1.0, r=10)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_negative_or_nan_t_rejected(self, t):
        with pytest.raises(ValueError, match=rf"time t \(--t\) must be nonnegative, got {t}"):
            BoundInput(n=8, k=4, l=1, p=2, t=t, r=10)

    @pytest.mark.parametrize("r", [0, 10**400], ids=["zero", "beyond-float-range"])
    def test_r_outside_one_to_float_range_rejected(self, r):
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must satisfy 1 <= r"):
            BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=r)

    @pytest.mark.parametrize("r", [2.5, 10.0])
    def test_non_integral_r_rejected(self, r):
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must be an integer"):
            BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=r)

    def test_numpy_integer_r_accepted(self):
        assert BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=np.int64(10)).r == 10

    def test_unknown_prefactor_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown prefactor_mode 'half'"):
            BoundInput(n=8, k=4, l=2, p=2, t=1.0, r=10, prefactor_mode="half")

    def test_one_term_is_exact(self):
        """k = n: one term, Q = 0, so every pair commutes and the bound is 0."""
        assert delta1_dense(BoundInput(n=8, k=8, l=1, p=2, t=1.0, r=10)) == 0.0

    @pytest.mark.parametrize("big", ["p", "t"])
    def test_square_beyond_float_range_is_inf(self, big):
        inp = BoundInput(**{**dict(n=8, k=4, l=1, p=2, t=1.0, r=10), big: 1e200})
        assert delta1_dense(inp) == math.inf

    def test_r_squared_beyond_float_range_drops_its_term(self):
        r = 10**200
        got = delta1_dense(BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=r))
        sigma, q = sigma_dense(8, 4), q_of(8, 4)
        want = 4.0 * math.sqrt(2.0) * 2**2 * sigma**2 * math.sqrt(70 * q) * (1.0 / (2.0 * r))
        assert got == want > 0

    @pytest.mark.parametrize("n,k,energy_constant,want", [
        (1400, 100, 1.0, 2.9919188509986945e-6),  # Gamma Q beyond the float range
        (30_000_000, 50, 1.0, 0.12393370855091708),  # Gamma too
        (10**12, 30, 1e10, 2.5141612117001046e27),  # Q too
    ])
    def test_gamma_q_beyond_float_range(self, n, k, energy_constant, want):
        """Where Gamma Q (or Gamma, or Q) passes the float range while sigma
        is normal, Delta_1 matches a 60-digit mpmath evaluation."""
        got = delta1_dense(BoundInput(n=n, k=k, l=1, p=2, t=1.0, r=10**4,
                                      energy_constant=energy_constant))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_monotonicity(self):
        base = dict(n=8, k=3, l=1, p=2, t=1.0, r=100)
        d = delta1_dense(BoundInput(**base))
        assert delta1_dense(BoundInput(**{**base, "t": 2.0})) > d
        assert delta1_dense(BoundInput(**{**base, "r": 200})) < d
        assert delta1_dense(BoundInput(**{**base, "p": 3})) > d


class TestDeltaL:
    def test_t_zero(self):
        assert delta_l_dense(BoundInput(n=8, k=4, l=2, p=2, t=0.0, r=10)) == 0.0

    def test_decreasing_in_r(self):
        vals = [
            delta_l_dense(BoundInput(n=8, k=4, l=2, p=2, t=1.0, r=r))
            for r in (10, 100, 1000, 10**6)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("l", [2, 4])
    @pytest.mark.parametrize("unit", [False, True])
    def test_against_independent_arithmetic(self, l, unit):
        mode = "unit" if unit else "full"
        got = delta_l_dense(
            BoundInput(n=10, k=4, l=l, p=2, t=1.0, r=1000, prefactor_mode=mode)
        )
        want = independent_delta_l(10, 4, l, 2, 1.0, 1000, unit=unit)
        assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            delta_l_dense(BoundInput(n=8, k=4, l=3, p=2, t=1.0, r=10))

    def test_log_space_survives_huge_prefactor(self):
        # l = 10: the constant overflows naive repeated multiplication ranges
        val = delta_l_dense(BoundInput(n=50, k=4, l=10, p=2, t=1.0, r=10**6))
        assert np.isfinite(val) or val == math.inf
        assert val >= 0

    def test_one_term_is_exact(self):
        """k = n: Q = 0 gives a zero bound, not an error."""
        assert delta_l_dense(BoundInput(n=8, k=8, l=2, p=2, t=1.0, r=10)) == 0.0

    def test_beyond_float_range_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = delta_l_dense(BoundInput(n=8, k=4, l=2, p=2, t=1e300, r=10))
        assert val == math.inf

    @pytest.mark.parametrize("l", [2, 4, 6])
    def test_n_to_the_k_plus_one_past_the_crossover(self, l):
        """The paper's n^(k+1) growth: at n = 5000, far past the crossover of
        the bound's two terms, the local exponent d ln Delta_l / d ln n of the
        unit-prefactor bound (k = 4, t = 1, r = 1e6) is k + 1 = 5 within 0.02
        (5.0054, 5.0084, 5.0114 for l = 2, 4, 6)."""
        lo, hi = (
            delta_l_dense(BoundInput(n=n, k=4, l=l, p=2, t=1.0, r=10**6,
                                     prefactor_mode="unit"))
            for n in (4998, 5002)
        )
        exponent = (math.log(hi) - math.log(lo)) / (math.log(5002) - math.log(4998))
        assert abs(exponent - 5.0) <= 0.02

    def test_monotonicity(self):
        base = dict(n=8, k=4, l=2, p=2, t=1.0, r=100)
        d = delta_l_dense(BoundInput(**base))
        assert delta_l_dense(BoundInput(**{**base, "t": 2.0})) > d
        assert delta_l_dense(BoundInput(**{**base, "p": 4})) > d


class TestDeltaSparse:
    def test_t_zero(self):
        v = delta_l_sparse(BoundInput(n=8, k=4, l=2, p=2, t=0.0, r=10, kappa=4.0))
        assert v == 0.0

    def test_one_term_is_exact(self):
        """k = n: Q = 0 gives a zero bound, not an error."""
        v = delta_l_sparse(BoundInput(n=8, k=8, l=2, p=2, t=1.0, r=10, kappa=4.0))
        assert v == 0.0

    def test_beyond_float_range_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = delta_l_sparse(
                BoundInput(n=8, k=4, l=2, p=2, t=1e300, r=10, kappa=4.0))
        assert val == math.inf

    def test_needs_p_b(self):
        with pytest.raises(ValueError):
            delta_l_sparse(BoundInput(n=8, k=4, l=2, p=2, t=1.0, r=10))

    def test_p_b_one_ratio_to_dense_is_constant(self):
        """At p_B = 1 the sparse/dense ratio is beta(l)/C(l), independent of
        n, t, r (kappa = C(n,4)/n makes p_B exactly 1)."""
        expected = math.exp(log_prefactor_sparse(2) - log_prefactor_higher(2))
        for n, t, r in [(8, 1.0, 100), (10, 3.0, 500), (12, 0.2, 10**4)]:
            kappa = math.comb(n, 4) / n
            assert bernoulli_probability(n, 4, kappa)[0] == 1.0
            dense = delta_l_dense(BoundInput(n=n, k=4, l=2, p=2, t=t, r=r))
            sparse = delta_l_sparse(
                BoundInput(n=n, k=4, l=2, p=2, t=t, r=r, kappa=kappa)
            )
            assert sparse / dense == pytest.approx(expected, rel=1e-10)

    def test_regime_boundary_continuity(self):
        """kappa puts p_B * Q at 1 +- 1e-13; the two regimes agree there."""
        for n in (8, 10, 12):
            q, gamma = q_of(n, 4), math.comb(n, 4)
            values = []
            for side in (1 + 1e-13, 1 - 1e-13):
                kappa = side * gamma / (n * q)
                p_b = bernoulli_probability(n, 4, kappa)[0]
                assert (p_b * q >= 1.0) == (side > 1)
                values.append(delta_l_sparse(
                    BoundInput(n=n, k=4, l=2, p=2, t=1.0, r=100, kappa=kappa)))
            assert values[0] == pytest.approx(values[1], rel=1e-10)

    def test_kappa_resolution(self):
        """p_B = kappa n / C(n,k) at n = 10, k = 4 (Q = 104), on both sides
        of p_B Q = 1."""
        for kappa, p_b in ((4.0, 40 / 210), (0.1, 1 / 210)):
            got = delta_l_sparse(
                BoundInput(n=10, k=4, l=2, p=2, t=1.0, r=100, kappa=kappa))
            want = independent_delta_sparse(10, 4, 2, 2, 1.0, 100, p_b)
            assert got == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("n,k,energy_constant", [
        (30_000_000, 50, 1.0),  # C(n,k) beyond the float range
        (10**12, 30, 1e10),  # Q too
    ])
    def test_gamma_beyond_float_range_is_inf(self, n, k, energy_constant):
        """sigma is normal here and dense Delta_2 is inf, so is the sparse
        bound (its C(n,k)^2 term passes the float range)."""
        inp = BoundInput(n=n, k=k, l=2, p=2, t=1.0, r=10**4, kappa=4.0,
                         energy_constant=energy_constant)
        assert delta_l_dense(replace(inp, kappa=None)) == math.inf
        assert delta_l_sparse(inp) == math.inf


class TestErrorBound:
    def test_picks_the_bound_from_the_input(self):
        dense1 = BoundInput(n=10, k=4, l=1, p=2, t=1.0, r=50)
        dense2 = BoundInput(n=10, k=4, l=2, p=2, t=1.0, r=50)
        sparse = BoundInput(n=10, k=4, l=2, p=2, t=1.0, r=50, kappa=4.0)
        assert error_bound(dense1) == delta1_dense(dense1)
        assert error_bound(dense2) == delta_l_dense(dense2)
        assert error_bound(sparse) == delta_l_sparse(sparse)

    def test_sparse_rejects_first_order(self):
        with pytest.raises(ValueError, match="even l"):
            error_bound(BoundInput(n=10, k=4, l=1, p=2, t=1.0, r=50, kappa=4.0))


# the bases of the probe tests: dense l = 1, 2, 4 and sparse l = 2, 4, both
# prefactor modes and a coupling scale J0 != 1
PROBE_BASES = [
    BoundInput(n=n, k=k, l=l, p=2, t=t, r=1, energy_constant=j0, kappa=kappa,
               prefactor_mode=mode)
    for n, k, t, j0 in ((8, 4, 1.0, 1.0), (12, 3, 0.25, 1.5), (1600, 4, 7.0, 1.0))
    for kappa, orders in ((None, (1, 2, 4)), (4.0, (2, 4)))
    for l in orders
    for mode in ("full", "unit")
]


class TestSolver:
    @pytest.mark.parametrize("mode", ["operator_norm", "fixed_state"])
    @pytest.mark.parametrize("base", PROBE_BASES, ids=lambda b: (
        f"n{b.n}-k{b.k}-l{b.l}-{'dense' if b.kappa is None else 'sparse'}-{b.prefactor_mode}"))
    def test_lam_is_the_replaced_base_bound(self, base, mode):
        """lambda(r) is bit for bit the bound at ``base`` with p* and r put
        in by ``dataclasses.replace``, for r from 1 to 2^62."""
        inp = SolverInput(0.1, 0.01, mode, base)
        p_star = inp.p_star()
        for r in [1, 2, 3, 7, 100, 12345, 10**9 + 7, 2**53 + 1, 10**17, 2**62 - 1, 2**62]:
            assert inp.lam(r) == error_bound(replace(base, p=p_star, r=r)) / p_star, r

    @pytest.mark.parametrize("base,r", [
        (BoundInput(n=8, k=4, l=2, p=2, t=1.0, r=1), 0),
        (BoundInput(n=8, k=4, l=2, p=2, t=1.0, r=1), -3),
        (BoundInput(n=10, k=4, l=1, p=2, t=1.0, r=1, kappa=4.0), 5),
    ], ids=["r-zero", "r-negative", "sparse-first-order"])
    def test_lam_probe_fails_as_replace_does(self, base, r):
        """The probe is a checked BoundInput: an r below 1, or a sparse base
        at l = 1, raises what the bound at ``replace(base, p=p*, r=r)``
        raises."""
        inp = SolverInput(0.1, 0.01, "operator_norm", base)
        with pytest.raises(ValueError) as direct:
            inp.lam(r)
        with pytest.raises(ValueError) as replaced:
            error_bound(replace(base, p=inp.p_star(), r=r))
        assert str(direct.value) == str(replaced.value)

    def test_algebraic_inversion_first_order(self):
        """For lambda ~ a/r (t/r**2 term negligible) r ~ ceil(e p* a / eps)."""
        inp = SolverInput(
            epsilon=1e-3, delta=0.01, mode="operator_norm",
            base=BoundInput(n=10, k=4, l=1, p=2, t=0.01, r=1),
        )
        r = solve_trotter_number(inp)
        p_star = inp.p_star()
        sigma = sigma_dense(10, 4)
        a = (4 * math.sqrt(2) * p_star * sigma**2
             * math.sqrt(math.comb(10, 4) * q_of(10, 4)) * 0.01**2 / 2)
        r_closed = math.ceil(math.e * p_star * a / 1e-3)
        assert abs(r - r_closed) <= 1

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("mode", ["operator_norm", "fixed_state"])
    def test_minimality_and_back_substitution(self, l, mode):
        inp = SolverInput(
            epsilon=0.05, delta=0.02, mode=mode,
            base=BoundInput(n=10, k=4, l=l, p=2, t=1.0, r=1),
        )
        r = solve_trotter_number(inp)
        p_star = inp.p_star()
        target = inp.epsilon / (math.e * p_star)
        assert inp.lam(r) == error_bound(BoundInput(n=10, k=4, l=l, p=p_star, t=1.0, r=r)) / p_star
        assert inp.target() == target
        assert inp.lam(r) <= target
        if r > 1:
            assert inp.lam(r - 1) > target

    def test_fixed_state_needs_fewer_rounds(self):
        for n in (8, 10, 12):
            base = BoundInput(n=n, k=4, l=1, p=2, t=1.0, r=1)
            rs = {
                mode: solve_trotter_number(
                    SolverInput(0.1, 0.01, mode, base)
                )
                for mode in ("operator_norm", "fixed_state")
            }
            assert rs["fixed_state"] <= rs["operator_norm"]

    def test_larger_epsilon_never_needs_more_rounds(self):
        base = BoundInput(n=10, k=4, l=1, p=2, t=1.0, r=1)
        rs = [
            solve_trotter_number(
                SolverInput(eps, 0.01, "operator_norm", base)
            )
            for eps in (0.01, 0.05, 0.1, 0.5)
        ]
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_sparse_family(self):
        base = BoundInput(n=10, k=4, l=2, p=2, t=1.0, r=1, kappa=4.0)
        inp = SolverInput(0.1, 0.01, "operator_norm", base)
        r = solve_trotter_number(inp)
        assert r >= 1

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_epsilon_not_positive_rejected(self, epsilon):
        """nan too: it would double r up to 2^62 and report no solution."""
        base = BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=1)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SolverInput(epsilon, 0.01, "operator_norm", base)

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.nan])
    def test_delta_outside_zero_one_rejected(self, delta):
        base = BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=1)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            SolverInput(0.1, delta, "operator_norm", base)

    def test_unknown_mode_rejected(self):
        base = BoundInput(n=8, k=4, l=1, p=2, t=1.0, r=1)
        with pytest.raises(ValueError, match="unknown mode 'spectral'"):
            SolverInput(0.1, 0.01, "spectral", base)

    def test_kappa_selects_the_sparse_bound(self):
        """A base with kappa solves against the sparse bound, whatever l."""
        base = BoundInput(n=10, k=4, l=2, p=2, t=1, r=1, kappa=4)
        assert solve_trotter_number(SolverInput(0.1, 0.01, "operator_norm", base)) == 4_159_544

    @pytest.mark.parametrize("n,kappa,r_operator", [(6400, None, 1_729_450_923_864_442),
                                                    (1600, 4.0, 3_527_971_558_710_782)])
    @pytest.mark.parametrize("mode", ["operator_norm", "fixed_state"])
    def test_solves_where_lambda_is_inf_at_small_r(self, n, kappa, r_operator, mode):
        """solve-r --n 6400 --k 3 --l 20 and the sparse n = 1600, kappa = 4
        one: in operator-norm mode lambda is inf at r = 1 and 2 (the bound
        leaves the float range), so the contract is checked from the first
        power of two where lambda is finite, and the solved r is minimal."""
        inp = SolverInput(0.1, 0.01, mode, BoundInput(n=n, k=3, l=20, p=2, t=1.0, r=1,
                                                      kappa=kappa))
        if mode == "operator_norm":
            assert inp.lam(1) == inp.lam(2) == math.inf
        r = solve_trotter_number(inp)
        assert inp.lam(r) <= inp.target() < inp.lam(r - 1)
        if mode == "operator_norm":
            assert r == r_operator


def _doubling_bisection(inp: SolverInput) -> int:
    """The solver's search before the secant: double r from r0 until the
    criterion holds, then bisect over [1, hi].  The r0 probe, contract check
    and back substitution are the solver's."""
    target = inp.target()
    hi, lam0 = 1, inp.lam(1)
    while not math.isfinite(lam0) and hi < 1 << 62:
        hi *= 2
        lam0 = inp.lam(hi)
    if not 0 < lam0 < math.inf or inp.lam(2 * hi) >= lam0:
        raise ContractError("lambda(p, r) must be positive and strictly decreasing in r")

    def ok(r: int) -> bool:
        return inp.lam(r) <= target

    while not ok(hi):
        hi *= 2
        if hi > 1 << 62:
            raise ContractError("no satisfying Trotter number below 2^62")
    lo = bisect.bisect_left(range(1, hi + 1), True, key=ok) + 1
    if not ok(lo) or (lo > 1 and ok(lo - 1)):
        raise ContractError("lambda(p, r) must be positive and strictly decreasing in r")
    return lo


def _outcome(solve, inp: SolverInput):
    try:
        return solve(inp)
    except ValueError as exc:
        return type(exc), str(exc)


# 13 n x 4 k x 12 (model, l) x 2 modes = 1,248 solves, r from 1 to ~5e16
SOLVER_GRID = [
    (n, k, l, kappa, mode)
    for n in (6, 8, 10, 12, 16, 24, 50, 100, 200, 400, 800, 1600, 6400)
    for k in (1, 2, 3, 4)
    for kappa, orders in ((None, (1, 2, 4, 6, 12, 20)), (4.0, (2, 4, 6, 8, 12, 20)))
    for l in orders
    for mode in ("operator_norm", "fixed_state")
]


class TestSolverSearch:
    """The secant search returns what doubling and bisection return."""

    def test_grid_matches_doubling_bisection(self):
        assert len(SOLVER_GRID) == 1248
        mismatches = []
        for n, k, l, kappa, mode in SOLVER_GRID:
            inp = SolverInput(0.1, 0.01, mode, BoundInput(n=n, k=k, l=l, p=2, t=1.0, r=1,
                                                          kappa=kappa))
            got, want = _outcome(solve_trotter_number, inp), _outcome(_doubling_bisection, inp)
            if got != want:
                mismatches.append((n, k, l, kappa, mode, got, want))
        assert mismatches == []

    def test_float_plateau(self):
        """solve-r --n 6400 --k 1 --l 20 --model sparse --kappa 4: past
        r ~ 2^53 lambda takes equal values on runs of r, where the log-log
        line through two probes is undefined."""
        inp = SolverInput(0.1, 0.01, "operator_norm",
                          BoundInput(n=6400, k=1, l=20, p=2, t=1.0, r=1, kappa=4.0))
        r = solve_trotter_number(inp)
        assert r == 47_884_881_848_796_581 > 2**53
        assert inp.lam(r) <= inp.target() < inp.lam(r - 1)
        assert inp.lam(r + 1) == inp.lam(r)  # a plateau

    def test_plateau_while_r_grows(self, monkeypatch):
        """lambda flat above the target over several growth probes (r = 2, 8,
        16, 32, 64): the log-log line through two of them never meets the target,
        so hi doubles until lambda falls again."""
        def lam(self, r):
            target = self.target()
            if r == 1:
                return 8 * target
            return 4 * target if r < 64 else 4 * target * (64 / r) ** 2

        inp = SolverInput(0.1, 0.01, "operator_norm", BoundInput(n=10, k=4, l=2, p=2, t=1.0, r=1))
        monkeypatch.setattr(SolverInput, "lam", lam)
        assert solve_trotter_number(inp) == 128
        assert _outcome(solve_trotter_number, inp) == _outcome(_doubling_bisection, inp)

    @pytest.mark.parametrize("l,kappa", [(1, None), (2, None), (20, 4.0)])
    def test_unreachable_epsilon_raises_as_before(self, l, kappa):
        inp = SolverInput(1e-300, 0.01, "operator_norm",
                          BoundInput(n=10, k=4, l=l, p=2, t=1.0, r=1, kappa=kappa))
        with pytest.raises(ContractError, match="no satisfying Trotter number below 2"):
            solve_trotter_number(inp)
        assert _outcome(solve_trotter_number, inp) == _outcome(_doubling_bisection, inp)

    @pytest.mark.parametrize("lam", [lambda r: 1.0, lambda r: 0.0, lambda r: math.inf,
                                     lambda r: float(r)])
    def test_contract_violations_raise_as_before(self, monkeypatch, lam):
        inp = SolverInput(0.1, 0.01, "operator_norm", BoundInput(n=10, k=4, l=2, p=2, t=1.0, r=1))
        monkeypatch.setattr(SolverInput, "lam", lambda self, r: lam(r))
        with pytest.raises(ContractError, match="strictly decreasing"):
            solve_trotter_number(inp)
        assert _outcome(solve_trotter_number, inp) == _outcome(_doubling_bisection, inp)

    def test_probes_per_oracle_sweep(self, monkeypatch):
        """The lambda evaluations of the 40 solves of the benchmark's oracle
        workload (solve-r defaults at n = 8..16, k = 3, 4, l = 1, 2, both
        modes); doubling and bisection took 1,378.  Pinned, so that a change
        in the search's cost shows here."""
        calls = []
        lam = SolverInput.lam
        monkeypatch.setattr(SolverInput, "lam", lambda self, r: calls.append(r) or lam(self, r))
        for n in (8, 10, 12, 14, 16):
            for k in (3, 4):
                for l in (1, 2):
                    config = ExperimentConfig(command="solve-r", n_list=(n,), k=k, l=l)
                    base = _bound_input(config, n, config.t, p=2.0, r=1)
                    for mode in ("operator_norm", "fixed_state"):
                        solve_trotter_number(
                            SolverInput(config.epsilon, config.delta, mode, base))
        assert len(calls) == 390


@pytest.mark.parametrize("n,k", [(1260, 100), (400, 150)])
def test_bounds_where_n_to_the_k_leaves_float_range(n, k):
    """Where sigma's float expression under- or overflows, every bound
    (Delta_1, Delta_2 and the sparse l = 2 one; the sparse bound has no l = 1)
    is finite and positive, not 0 or an OverflowError."""
    for l, kappa in ((1, None), (2, None), (2, 4.0)):
        value = error_bound(BoundInput(n=n, k=k, l=l, p=2, t=1.0, r=100, kappa=kappa))
        assert 0 < value < math.inf


class TestGateCount:
    def test_plain_product(self):
        assert gate_counts(2, 70, 100, 16)["none"] == 14000

    def test_overhead_ratio(self):
        counts = gate_counts(2, 70, 100, 16)
        assert list(counts) == ["none", "log_n", "linear_n"]
        assert counts["log_n"] / counts["none"] == pytest.approx(4.0)
        assert counts["linear_n"] / counts["none"] == pytest.approx(16.0)

    @pytest.mark.parametrize("r", [0, -5])
    def test_rejects_r_below_one(self, r):
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must satisfy 1 <= r"):
            gate_counts(1, 70, r, 16)

    def test_rejects_r_beyond_float_range(self):
        with pytest.raises(ValueError, match=r"Trotter number r \(--r\) must satisfy 1 <= r"):
            gate_counts(1, 70, 10**400, 16)

    def test_counts_beyond_float_range_are_inf(self):
        """An r within the float range may still give counts past it."""
        counts = gate_counts(1, 70, 10**307, 16)
        assert counts == {"none": math.inf, "log_n": math.inf, "linear_n": math.inf}
        # below the float range the exact integer count is rounded once
        assert gate_counts(2, 70, 3**40, 16)["linear_n"] == float(2 * 70 * 3**40 * 16)

    def test_non_integer_gamma_is_exact(self):
        """A sparse expected Gamma such as 10.4 is multiplied out exactly,
        and past the float range, from Upsilon or r, the counts are inf."""
        assert gate_counts(2, 10.4, 3**40, 8)["linear_n"] == float(
            2 * Fraction(10.4) * 3**40 * 8)
        assert set(gate_counts(2000, 10.4, 10, 8).values()) == {math.inf}
        assert set(gate_counts(2, 10.4, 10**308, 8).values()) == {math.inf}

    @pytest.mark.parametrize("kappa,gamma", [(None, 70), (4.0, 32), (1.3, 10.4), (12.5, 70),
                                             (1e308, 70), (0.0, 0)])
    def test_term_count(self, kappa, gamma):
        """C(n,k) dense; min(kappa n, C(n,k)) sparse, an int where kappa n is one."""
        count = term_count(8, 4, kappa)
        assert count == gamma and type(count) is type(gamma)

    def test_fourth_order_stage_factor(self):
        assert gate_counts(4, 10, 10, 8)["none"] == 10 * 10 * stage_count(4)
        assert stage_count(4) == 10


class TestErrorRatio:
    def test_zero_observed(self):
        assert error_ratio(NormEstimate(0.0, 0.0, 4, 2), 1.0) == (0.0, 0.0)

    def test_equal(self):
        ratio, err = error_ratio(NormEstimate(0.5, 0.01, 4, 2), 0.5)
        assert ratio == pytest.approx(1.0)
        assert err == pytest.approx(0.02)

    def test_zero_bound_rejected(self):
        with pytest.raises(ZeroDivisionError):
            error_ratio(NormEstimate(0.5, 0.0, 4, 2), 0.0)


class TestLogLogFit:
    def test_exact_square_law(self):
        xs = np.array([1.0, 2.0, 5.0, 13.0])
        slope, intercept, residual = loglog_fit(list(zip(xs, xs**2)))
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        slope, _, _ = loglog_fit([(1, 3.0), (2, 3.0), (4, 3.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_delta1_t_slope_between_2_and_3(self):
        ts = np.logspace(1, 3, 8)
        pts = [
            (t, delta1_dense(BoundInput(n=10, k=4, l=1, p=2, t=float(t), r=10**4)))
            for t in ts
        ]
        slope, _, _ = loglog_fit(pts)
        assert 2.0 <= slope <= 3.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            loglog_fit([(1, 1), (2, 2)])

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            loglog_fit([(2, 1), (2, 2), (2, 3)])

    @pytest.mark.parametrize("points", [[(0, 1), (2, 2), (3, 3)], [(1, 1), (2, -2), (3, 3)]],
                             ids=["x-zero", "y-negative"])
    def test_non_positive_coordinate(self, points):
        with pytest.raises(ValueError, match="log-log fit needs positive coordinates"):
            loglog_fit(points)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_coordinate(self, y):
        with pytest.raises(ValueError, match="log-log fit needs finite coordinates"):
            loglog_fit([(1, 0.16), (2, 0.5), (3, y)])
