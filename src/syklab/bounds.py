"""Closed-form evaluators: Q(n,k), dense and sparse Trotter-error bounds,
concentration-based Trotter-number solver, gate counts, and log-log fits.

The dense bounds are

    Delta_1 = 4 sqrt(2) p^2 sigma^2 sqrt(C(n,k) Q) t^2 [1/(2r) + sigma sqrt(Q) t/(3 r^2)]

    Delta_l = C(l) sqrt(p) sigma t / sqrt(Q)
              * ( C(n,k) [sqrt(p) sigma sqrt(Q) t/r]^l
                + C(n,k)^2 [sqrt(p) sigma sqrt(Q) t/r]^(l+1) ),

with C(l) = A(l)/(l+1), A(l) = Upsilon^(l+3) (l+3)^(1/2) (l+2)^(3(l+2)-1).
The sparse (Bernoulli-averaged) bound has two regimes split at p_B*Q = 1 and
prefactor beta(l) = (l+3)^(5/2) (l+2)^(2(l+2)) * Upsilon^(l+3)
(l+2)^(3(l+2)/2) / (l+1).  Prefactors are evaluated in log space; the "unit"
prefactor mode replaces the purely l-dependent constant by 1 (the practice
used when plotting, where the constant is astronomically large).

Each bound reads a :class:`BoundInput` and returns a float.  It takes
Gamma = C(n,k) and Q = Q(n,k), and sigma and p_B from ``model`` as the
sampler does: ``sigma_dense``, and for the sparse model p_B = kappa n / C(n,k)
and ``sigma_sparse`` = sigma_dense / sqrt(p_B).  A bound is 0 at t = 0 and at
Q = 0 (k = n: one term, so the product formula is exact), and inf where it
exceeds the float range.  :func:`error_bound` is the one place that picks
the bound for an input: the sparse bound when kappa is set, else Delta_1 or
Delta_l by l.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .model import _validate_nk, bernoulli_probability, sigma_dense, sigma_sparse
from .trotter import _check_r, stage_count

__all__ = [
    "BoundInput",
    "SolverInput",
    "q_of",
    "log_prefactor_higher",
    "log_prefactor_sparse",
    "delta1_dense",
    "delta_l_dense",
    "delta_l_sparse",
    "error_bound",
    "solve_trotter_number",
    "gate_counts",
    "error_ratio",
    "loglog_fit",
]


def q_of(n: int, k: int) -> int:
    """Number of hyperedges whose term anticommutes with a fixed hyperedge.

    Q(n,k) = sum over overlap sizes s of the right parity (odd for even k,
    even for odd k), max(0, k-(n-k)) <= s <= k-1, of C(n-k, k-s) * C(k, s).
    """
    _validate_nk(n, k)
    mu = max(0, k - (n - k))
    parity = 1 if k % 2 == 0 else 0
    return sum(
        math.comb(n - k, k - s) * math.comb(k, s)
        for s in range(mu, k)
        if s % 2 == parity
    )


@dataclass(frozen=True)
class BoundInput:
    """Parameter bundle for the bound evaluators."""

    n: int
    k: int
    l: int
    p: float
    t: float
    r: int
    energy_constant: float = 1.0
    kappa: float | None = None  # set for the sparse model
    prefactor_mode: str = "full"  # "full" | "unit"

    def __post_init__(self) -> None:
        if not 2 <= self.p < math.inf:
            raise ValueError(
                f"norm order p (--p) must satisfy 2 <= p < inf (got {self.p}); "
                "for the operator norm use solve-r's finite p* = log(e^2 D/delta)"
            )
        if not self.t >= 0:  # nan too
            raise ValueError("time t must be nonnegative")
        _check_r(self.r)
        if self.prefactor_mode not in ("full", "unit"):
            raise ValueError(f"unknown prefactor_mode {self.prefactor_mode!r}")


def log_prefactor_higher(order: int, prefactor_mode: str = "full") -> float:
    """log C(l), C(l) = Upsilon^(l+3) (l+3)^(1/2) (l+2)^(3(l+2)-1) / (l+1)."""
    if prefactor_mode == "unit":
        return 0.0
    l = order
    ups = stage_count(l)
    return (
        (l + 3) * math.log(ups)
        + 0.5 * math.log(l + 3)
        + (3 * (l + 2) - 1) * math.log(l + 2)
        - math.log(l + 1)
    )


def log_prefactor_sparse(order: int, prefactor_mode: str = "full") -> float:
    """log beta(l) = log[(l+3)^(5/2) (l+2)^(2(l+2)) Upsilon^(l+3)
    (l+2)^(3(l+2)/2) / (l+1)]."""
    if prefactor_mode == "unit":
        return 0.0
    l = order
    ups = stage_count(l)
    return (
        2.5 * math.log(l + 3)
        + 2 * (l + 2) * math.log(l + 2)
        + (l + 3) * math.log(ups)
        + 1.5 * (l + 2) * math.log(l + 2)
        - math.log(l + 1)
    )


def _check_even_order(order: int, bound: str) -> None:
    if order < 2 or order % 2 != 0:
        raise ValueError(f"no {bound} bound for l = {order}: it needs even l >= 2 (--l)")


def _exp_of_sum(log_common: float, term1: float, term2: float) -> float:
    """exp(log_common) (e^term1 + e^term2), inf beyond the float range."""
    log_value = log_common + np.logaddexp(term1, term2)
    with np.errstate(over="ignore"):
        return float(np.exp(log_value))


def delta1_dense(inp: BoundInput) -> float:
    """Delta_1 for the dense SYK model."""
    if inp.l != 1:
        raise ValueError("delta1_dense requires l = 1")
    gamma, q = math.comb(inp.n, inp.k), q_of(inp.n, inp.k)
    sigma = sigma_dense(inp.n, inp.k, inp.energy_constant)
    p, t, r = inp.p, inp.t, inp.r
    if t == 0.0 or sigma == 0.0 or q == 0:
        return 0.0
    try:
        root = math.sqrt(gamma * q)
    except OverflowError:  # Gamma Q beyond the float range: evaluate in log space
        log_sigma_t = math.log(sigma) + math.log(t)
        return _exp_of_sum(
            math.log(4.0 * math.sqrt(2.0)) + 2.0 * (math.log(p) + log_sigma_t)
            + 0.5 * (math.log(gamma) + math.log(q)),
            -math.log(2.0) - math.log(r),
            log_sigma_t + 0.5 * math.log(q) - math.log(3.0) - 2.0 * math.log(r),
        )
    try:
        p_squared, t_squared = p**2, t**2
    except OverflowError:  # p or t beyond the square root of the float range
        return math.inf
    try:
        second = sigma * math.sqrt(q) * t / (3.0 * r**2)
    except OverflowError:  # r**2 beyond the float range
        second = 0.0
    return (
        4.0
        * math.sqrt(2.0)
        * p_squared
        * sigma**2
        * root
        * t_squared
        * (1.0 / (2.0 * r) + second)
    )


def delta_l_dense(inp: BoundInput) -> float:
    """Delta_l for the dense SYK model (even l >= 2), evaluated in log space."""
    gamma, q = math.comb(inp.n, inp.k), q_of(inp.n, inp.k)
    sigma = sigma_dense(inp.n, inp.k, inp.energy_constant)
    _check_even_order(inp.l, "higher-order")
    l, p, t, r = inp.l, inp.p, inp.t, inp.r
    if t == 0.0 or sigma == 0.0 or q == 0:
        return 0.0
    log_bracket = (
        0.5 * math.log(p) + math.log(sigma) + 0.5 * math.log(q)
        + math.log(t) - math.log(r)
    )
    log_common = (
        log_prefactor_higher(l, inp.prefactor_mode)
        + 0.5 * math.log(p)
        + math.log(sigma)
        + math.log(t)
        - 0.5 * math.log(q)
    )
    term1 = math.log(gamma) + l * log_bracket
    term2 = 2.0 * math.log(gamma) + (l + 1) * log_bracket
    return _exp_of_sum(log_common, term1, term2)


def delta_l_sparse(inp: BoundInput) -> float:
    """Bernoulli-averaged sparse-SYK bound (even l >= 2); needs kappa.  The
    regime splits at p_B * Q = 1; the two displays agree on the boundary."""
    gamma, q = math.comb(inp.n, inp.k), q_of(inp.n, inp.k)
    if inp.kappa is None:
        raise ValueError("sparse bound needs kappa")
    p_b = bernoulli_probability(inp.n, inp.k, inp.kappa)[0]
    sigma = sigma_sparse(inp.n, inp.k, inp.energy_constant, p_b)
    _check_even_order(inp.l, "sparse-SYK")
    l, p, t, r = inp.l, inp.p, inp.t, inp.r
    if t == 0.0 or sigma == 0.0 or q == 0:  # sigma is 0 at p_B = 0
        return 0.0
    log_beta = log_prefactor_sparse(l, inp.prefactor_mode)
    try:
        log_pq = math.log(p_b * q)
    except OverflowError:  # Q beyond the float range
        log_pq = math.log(p_b) + math.log(q)
    if log_pq >= 0.0:  # p_B Q >= 1
        log_bracket = (
            0.5 * math.log(p) + math.log(sigma)
            + 0.5 * log_pq + math.log(t) - math.log(r)
        )
        log_common = (
            log_beta + math.log(gamma) + 0.5 * math.log(p) + math.log(sigma)
            + 0.5 * math.log(p_b) + math.log(t) - 0.5 * math.log(q)
        )
    else:
        log_bracket = (
            0.5 * math.log(p) + math.log(sigma) + math.log(t) - math.log(r)
        )
        log_common = (
            log_beta + math.log(gamma) + 0.5 * math.log(p) + math.log(sigma)
            + math.log(t) - math.log(q)
        )
    term1 = l * log_bracket
    term2 = math.log(gamma) + (l + 1) * log_bracket
    return _exp_of_sum(log_common, term1, term2)


def error_bound(inp: BoundInput) -> float:
    """The bound that applies to ``inp``: the sparse bound when kappa is set,
    otherwise Delta_1 for l = 1 and Delta_l for other l."""
    if inp.kappa is not None:
        return delta_l_sparse(inp)
    return delta1_dense(inp) if inp.l == 1 else delta_l_dense(inp)


@dataclass(frozen=True)
class SolverInput:
    """Inputs for the concentration-inequality Trotter-number solver.

    The solver bounds the error by ``error_bound`` at ``base`` with its p and
    r replaced, so ``base.kappa`` alone selects the sparse bound.
    """

    epsilon: float
    delta: float
    mode: str  # "operator_norm" | "fixed_state"
    base: BoundInput  # r is ignored; p is replaced by p_star

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in ("operator_norm", "fixed_state"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.base.t <= 0:  # at t = 0 every r meets any epsilon
            raise ValueError(f"the solver needs time t (--t) > 0, got {self.base.t}")

    def p_star(self) -> float:
        """log(e^2 ||I||_p^p / delta): D = 2^(n/2) in operator mode, 1 fixed-state."""
        log_dim = 0.5 * self.base.n * math.log(2.0) if self.mode == "operator_norm" else 0.0
        return 2.0 + log_dim - math.log(self.delta)


class ContractError(ValueError):
    """The bound violated the solver's monotonicity contract."""


def _lambda_factory(inp: SolverInput):
    """lambda(p, r) = Delta(p, r)/p for the bound of ``inp.base``."""
    return lambda p, r: error_bound(replace(inp.base, p=p, r=r)) / p


def solve_trotter_number(inp: SolverInput) -> int:
    """Minimal Trotter number r with lambda(p_star, r)/epsilon <= 1/(e*p_star).

    p_star = log(e^2 2^(n/2)/delta) in operator_norm mode, log(e^2/delta) in
    fixed_state mode.  Exponential bracketing from r = 1 plus bisection.  The
    result is verified by back substitution (and r-1 checked to violate the
    inequality).
    """
    p_star = inp.p_star()
    lam = _lambda_factory(inp)
    target = inp.epsilon / (math.e * p_star)

    if not lam(p_star, 1) > 0 or lam(p_star, 2) >= lam(p_star, 1):
        raise ContractError("lambda(p, r) must be positive and strictly decreasing in r")

    def ok(r: int) -> bool:
        return lam(p_star, r) <= target

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 1 << 62:
            raise ContractError("no satisfying Trotter number below 2^62")
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    r = lo
    assert ok(r) and (r == 1 or not ok(r - 1))
    return r


def gate_counts(order: int, gamma: int, r: int, n: int) -> dict[str, float]:
    """Gate complexity Upsilon(l) * Gamma * r of n Majoranas under each
    fermion-to-qubit overhead: {"none": 1, "log_n": log2(n) (ternary tree),
    "linear_n": n (Jordan-Wigner)} times the plain product; inf beyond the
    float range."""
    _check_r(r)
    base = stage_count(order) * gamma * r

    def rounded(count: int) -> float:
        return float(count) if count <= sys.float_info.max else math.inf

    return {"none": rounded(base), "log_n": rounded(base) * math.log2(n),
            "linear_n": rounded(base * n)}


def error_ratio(observed, bound: float) -> tuple[float, float]:
    """eta = observed/bound with propagated stderr; observed is a NormEstimate.
    The one ratio definition: scan rows and the acceptance criteria use it."""
    if bound <= 0:
        if observed.value == 0:
            return 0.0, 0.0
        raise ZeroDivisionError("error ratio undefined: bound is 0 with observed > 0")
    return observed.value / bound, observed.stderr / bound


def loglog_fit(points) -> tuple[float, float, float]:
    """Least-squares line through (ln x, ln y): returns (slope, intercept,
    RMS residual).  Needs >= 3 points with positive coordinates."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("log-log fit needs at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.ptp(lx) == 0:
        raise ValueError("degenerate fit: all x values equal")
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), residual
