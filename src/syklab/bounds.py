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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import _validate_nk, bernoulli_probability, sigma_dense, sigma_sparse
from .trotter import _check_norm_order, _check_r, stage_count

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
    "term_count",
    "gate_counts",
    "error_ratio",
    "loglog_fit",
]


@lru_cache(maxsize=None, typed=True)
def q_of(n: int, k: int) -> int:
    """Number of hyperedges whose term anticommutes with a fixed hyperedge.

    Q(n,k) = sum over overlap sizes s of the right parity (odd for even k,
    even for odd k), max(0, k-(n-k)) <= s <= k-1, of C(n-k, k-s) * C(k, s).
    Each bound evaluation reads it, so it is summed once per (n, k); an
    invalid (n, k) raises on every call.
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
        _check_norm_order(self.p)
        if not self.t >= 0:  # nan too
            raise ValueError(f"time t (--t) must be nonnegative, got {self.t}")
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
    # n, k and J0 are checked before kappa: no kappa mends a coupling
    # variance below the float range
    sigma_dense(inp.n, inp.k, inp.energy_constant)
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
    """Inputs for the concentration-inequality Trotter-number solver, and its
    criterion lambda(r) <= target: ``error_bound`` at ``base`` with its p and
    r replaced, so ``base.kappa`` alone selects the sparse bound.
    """

    epsilon: float
    delta: float
    mode: str  # "operator_norm" | "fixed_state"
    base: BoundInput  # r is ignored; p is replaced by p_star

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # nan too
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in ("operator_norm", "fixed_state"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.base.t <= 0:  # at t = 0 every r meets any epsilon
            raise ValueError(f"the solver needs time t (--t) > 0, got {self.base.t}")
        if q_of(self.base.n, self.base.k) == 0:  # k = n: one term, exact at every r
            raise ValueError(f"the solver needs Q(n, k) > 0, got k (--k) = n = {self.base.n}")

    def p_star(self) -> float:
        """log(e^2 ||I||_p^p / delta): D = 2^(n/2) in operator mode, 1 fixed-state."""
        log_dim = 0.5 * self.base.n * math.log(2.0) if self.mode == "operator_norm" else 0.0
        return 2.0 + log_dim - math.log(self.delta)

    def lam(self, r: int) -> float:
        """lambda(r) = Delta(p*, r)/p* for the bound of ``base``: the probe
        is ``base`` with p* and r in place of its p and r, built directly
        (its checks run as in ``dataclasses.replace``)."""
        p_star, b = self.p_star(), self.base
        probe = BoundInput(b.n, b.k, b.l, p_star, b.t, r, b.energy_constant, b.kappa,
                           b.prefactor_mode)
        return error_bound(probe) / p_star

    def target(self) -> float:
        """epsilon/(e p*): r meets epsilon when lambda(r) <= target."""
        return self.epsilon / (math.e * self.p_star())


class ContractError(ValueError):
    """The bound violated the solver's monotonicity contract."""


_R_CAP = 1 << 62  # the largest Trotter number the solver tries


def _loglog_root(r_a: int, lam_a: float, r_b: int, lam_b: float, target: float) -> float | None:
    """log r where the line through two probes in (log r, log lambda) meets
    log target, at most log 2^62; None where that line is undefined: lambda
    is inf or 0 at either probe, or either log is equal at both."""
    if not (0 < lam_a < math.inf and 0 < lam_b < math.inf):
        return None
    rise, run = math.log(lam_b) - math.log(lam_a), math.log(r_b) - math.log(r_a)
    if rise == 0 or run == 0:
        return None
    return min(math.log(r_b) + (math.log(target) - math.log(lam_b)) * run / rise,
               math.log(_R_CAP))


def solve_trotter_number(inp: SolverInput) -> int:
    """Minimal Trotter number r with lambda(p_star, r)/epsilon <= 1/(e*p_star).

    p_star = log(e^2 2^(n/2)/delta) in operator_norm mode, log(e^2/delta) in
    fixed_state mode.  The search starts from r0, the first power of two
    with finite lambda, where the contract is checked, and is a safeguarded
    secant on (log r, log lambda), where the bound is nearly a line:

    - hi is pushed out to where the line through the last two probes meets
      the target, at least doubling each step and capped at 2^62;
    - the bracket [lo, hi], lambda(lo) > target >= lambda(hi), then shrinks
      by probing the integer where the line through its ends meets the
      target, clamped inside the bracket;
    - the midpoint is probed instead (or hi doubled) where that line is
      undefined: lambda inf or 0, or equal at both ends.  At large r,
      lambda is a float step function (r ~ 2^53, and earlier where log r
      rounds), so a probe that lands on the lambda of the end it replaces
      also sends the next probe to the midpoint;
    - so does a bracket that has not halved in two steps.

    Wherever lambda is non-increasing in r the result is the minimal r, the
    one a bisection finds, in about a dozen evaluations of lambda.  It is
    verified by back substitution (and r-1 checked to violate the inequality).
    """
    target = inp.target()
    r0, lam0 = 1, inp.lam(1)
    while not math.isfinite(lam0) and r0 < _R_CAP:
        r0 *= 2
        lam0 = inp.lam(r0)
    lam_twice = inp.lam(2 * r0)
    if not 0 < lam0 < math.inf or lam_twice >= lam0:
        raise ContractError("lambda(p, r) must be positive and strictly decreasing in r")

    def lam(r: int) -> float:
        return lam_twice if r == 2 * r0 else inp.lam(r)

    lo, lam_lo, hi, lam_hi = r0 // 2, math.inf, r0, lam0  # lambda(r0 // 2) is inf, or r0 = 1
    while lam_hi > target:
        if hi >= _R_CAP:
            raise ContractError("no satisfying Trotter number below 2^62")
        log_r = _loglog_root(lo, lam_lo, hi, lam_hi, target)
        grown = 2 * hi if log_r is None else max(2 * hi, math.ceil(math.exp(log_r)))
        lo, lam_lo, hi = hi, lam_hi, min(grown, _R_CAP)
        lam_hi = lam(hi)
    widths, flat = [hi - lo], False
    while hi - lo > 1:
        log_r = None if flat else _loglog_root(lo, lam_lo, hi, lam_hi, target)
        if log_r is None or (len(widths) > 2 and 2 * widths[-1] > widths[-3]):
            r = (lo + hi) // 2
        else:
            r = min(max(math.ceil(math.exp(log_r)), lo + 1), hi - 1)
        lam_r = lam(r)
        if lam_r <= target:  # flat: r is on the plateau of the end it replaces
            flat, hi, lam_hi = lam_r == lam_hi, r, lam_r
        else:
            flat, lo, lam_lo = lam_r == lam_lo, r, lam_r
        widths.append(hi - lo)
    if not inp.lam(hi) <= target or (hi > 1 and inp.lam(hi - 1) <= target):  # back substitution
        raise ContractError("lambda(p, r) must be positive and strictly decreasing in r")
    return hi


def term_count(n: int, k: int, kappa: float | None = None) -> int | float:
    """Gamma of a gate count: C(n,k), or for the sparse model (``kappa`` set)
    the expected kept terms p_B C(n,k) = min(kappa n, C(n,k)), as the minimum
    so that an integer kappa n stays exact (and an int)."""
    _validate_nk(n, k)
    if kappa is None:
        return math.comb(n, k)
    bernoulli_probability(n, k, kappa)  # checks kappa as the sampler does
    kept = min(kappa * n, math.comb(n, k))
    return int(kept) if kept == int(kept) else kept


def gate_counts(order: int, gamma: int | float, r: int, n: int) -> dict[str, float]:
    """Gate complexity Upsilon(l) * Gamma * r of n Majoranas under each
    fermion-to-qubit overhead: {"none": 1, "log_n": log2(n) (ternary tree),
    "linear_n": n (Jordan-Wigner)} times the plain product, formed exactly
    and rounded once; inf beyond the float range."""
    _check_r(r)
    num, den = gamma.as_integer_ratio()  # exact, for an int or a float Gamma
    base = stage_count(order) * num * r

    def rounded(count: int) -> float:
        return count / den if count // den <= sys.float_info.max else math.inf

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
    RMS residual).  Needs >= 3 points with positive, finite coordinates."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("log-log fit needs at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit needs positive coordinates")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError("log-log fit needs finite coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.ptp(lx) == 0:
        raise ValueError("degenerate fit: all x values equal")
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), residual
