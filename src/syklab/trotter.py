"""Lie-Trotter-Suzuki schedules and Trotterized evolution.

A schedule is the flattened product formula S_l(tau): an ordered sequence of
steps (a_j, b_j) meaning "apply exp(i * a_j * tau * H_gamma(b_j))", listed in
application order (steps[0] acts on the state first).  The recursion

    S_{2p}(tau) = S_{2p-2}(q_p tau)^2 S_{2p-2}((1-4q_p) tau) S_{2p-2}(q_p tau)^2,
    q_p = 1 / (4 - 4**(1/(2p-1))),

flattens to Upsilon = 2 * 5**(l/2 - 1) sweeps per round, each sweep a forward
or reverse pass over all Gamma terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fermions import hilbert_dim, term_table
from .linalg import NormEstimate, assemble, exact_evolution, expected_norm, schatten_norm
from .model import SykInstance, sample_bernoulli_mask, sample_dense, sample_sparse

__all__ = [
    "Schedule",
    "stage_count",
    "build_schedule",
    "trotterized",
    "observed_error",
    "averaged_error",
    "fixed_state_error",
]


def stage_count(order: int) -> int:
    """Number of sweeps Upsilon per round: 1 for l=1, 2*5**(l/2-1) for even l."""
    if order == 1:
        return 1
    if order >= 2 and order % 2 == 0:
        return 2 * 5 ** (order // 2 - 1)
    raise ValueError(f"order must be 1 or even >= 2, got {order}")


@dataclass(frozen=True)
class Schedule:
    """Flattened product formula S_l for Gamma terms."""

    order: int
    stages: int
    gamma_count: int
    steps: tuple[tuple[float, int], ...]  # (coefficient a_j, 1-based term b_j)


def _sweep_scales(order: int) -> list[tuple[float, bool]]:
    """List of (scale, forward?) sweeps in application order for even order."""
    if order == 2:
        # S_2(tau) = (reverse sweep at tau/2)(forward sweep at tau/2):
        # applied to a state, the reverse sweep acts first.
        return [(0.5, False), (0.5, True)]
    p = order // 2
    q = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * p - 1)))
    inner = _sweep_scales(order - 2)
    out: list[tuple[float, bool]] = []
    for block_scale in (q, q, 1.0 - 4.0 * q, q, q):
        out.extend((block_scale * s, fwd) for s, fwd in inner)
    return out


def build_schedule(order: int, gamma_count: int) -> Schedule:
    """Schedule for S_l over ``gamma_count`` terms; order 1 or even >= 2."""
    stages = stage_count(order)  # validates the order
    if gamma_count < 1:
        raise ValueError("gamma_count must be positive")
    if order == 1:
        steps = tuple((1.0, b) for b in range(1, gamma_count + 1))
    else:
        steps_list: list[tuple[float, int]] = []
        for scale, forward in _sweep_scales(order):
            terms = range(1, gamma_count + 1) if forward else range(gamma_count, 0, -1)
            steps_list.extend((scale, b) for b in terms)
        steps = tuple(steps_list)
    assert len(steps) == stages * gamma_count
    return Schedule(order, stages, gamma_count, steps)


def _round_matrix(
    instance: SykInstance, schedule: Schedule, tau: float
) -> np.ndarray:
    """One round S_l(tau) as a dense matrix, built by applying each step
    exponential cos(theta) + i sin(theta) K_g to the accumulating matrix in
    place, with K_g read from the cached term table."""
    table = term_table(instance.n, instance.k)
    mat = np.eye(table.dim, dtype=complex)
    buf = np.empty_like(mat)
    perm = np.empty_like(table.rows)
    mask = instance.mask
    couplings = instance.couplings
    for a_j, b_j in schedule.steps:
        i = b_j - 1
        if mask is not None and mask[i] == 0:
            continue
        theta = a_j * couplings[i] * tau
        if theta == 0.0:
            continue
        table.permutation(i, out=perm)
        # perm is in range by construction; mode="clip" skips the copy that
        # take() makes for out= under the default bounds check.
        np.take(mat, perm, axis=0, out=buf, mode="clip")
        buf *= table.permuted_coefficients(i, 1j * np.sin(theta))[:, None]
        mat *= np.cos(theta)
        mat += buf
    return mat


def _matrix_power(mat: np.ndarray, power: int) -> np.ndarray:
    """Repeated-squaring power for the r rounds S_l(t/r)**r."""
    result = np.eye(mat.shape[0], dtype=complex)
    base = mat
    while power:
        if power & 1:
            result = base @ result
        base = base @ base
        power >>= 1
    return result


def trotterized(
    instance: SykInstance, schedule: Schedule, t: float, r: int
) -> np.ndarray:
    """S_l(t/r)**r as a dense unitary."""
    if schedule.gamma_count != instance.gamma_count:
        raise ValueError(
            f"schedule has {schedule.gamma_count} terms, instance has "
            f"{instance.gamma_count}"
        )
    if r < 1:
        raise ValueError("Trotter number r must be >= 1")
    return _matrix_power(_round_matrix(instance, schedule, t / r), r)


def _error_operator(
    instance: SykInstance, schedule: Schedule, t: float, r: int
) -> np.ndarray:
    """The Trotter error operator E = exp(iHt) - S_l(t/r)**r, the one
    definition behind every error this module reports."""
    return exact_evolution(assemble(instance), t) - trotterized(instance, schedule, t, r)


def observed_error(instance: SykInstance, order: int, t: float, r: int, p: float) -> float:
    """Normalized Trotter error ||E||_p / D**(1/p); p = inf is the operator norm."""
    schedule = build_schedule(order, instance.gamma_count)
    err = _error_operator(instance, schedule, t, r)
    return schatten_norm(err, p) / hilbert_dim(instance.n) ** (1.0 / p)


def averaged_error(
    n: int, k: int, order: int, t: float, r: int, p: float, seed: int,
    num_disorder: int, energy_constant: float = 1.0, kappa: float | None = None,
    num_bernoulli: int = 32,
) -> NormEstimate:
    """Disorder-averaged normalized Trotter error and its standard error.

    Dense (``kappa`` None): (E ||exp(iHt) - S_l(t/r)**r||_p^p)**(1/p) / D**(1/p)
    over ``sample_dense(n, k, energy_constant, seed, i)``, i < num_disorder.
    Sparse (Xu-Susskind-Su-Swingle): the plain mean over ``num_bernoulli``
    masks b (outside) of that Gaussian-disorder expectation (inside), with
    couplings drawn at ``coupling_index = b * num_disorder + i``.
    """
    if not 2 <= p < math.inf:
        raise ValueError(
            f"need 2 <= p < inf for the disorder-averaged error (--p; got {p}); "
            "for the operator norm use solve-r's finite p* = log(e^2 D/delta)"
        )
    schedule = build_schedule(order, math.comb(n, k))
    scale = hilbert_dim(n) ** (1.0 / p)

    def statistic(instance: SykInstance) -> np.ndarray:
        return _error_operator(instance, schedule, t, r)

    if num_disorder < 2:
        raise ValueError(f"need N_disorder >= 2 for a standard error, got {num_disorder}")
    if kappa is None:
        est = expected_norm(
            lambda i: sample_dense(n, k, energy_constant, seed, i),
            statistic, p, num_disorder,
        )
        return replace(est, value=est.value / scale, stderr=est.stderr / scale)
    if num_bernoulli < 2:
        raise ValueError("need num_bernoulli >= 2 for a standard error")
    per_mask = []
    for b in range(num_bernoulli):
        mask, _, _ = sample_bernoulli_mask(n, k, kappa, seed, b)
        est = expected_norm(  # the sampler is used up before b and mask move on
            lambda i: sample_sparse(n, k, energy_constant, kappa, seed,
                                    coupling_index=b * num_disorder + i, mask=mask),
            statistic, p, num_disorder,
        )
        per_mask.append(est.value / scale)
    values = np.asarray(per_mask)
    stderr = float(values.std(ddof=1) / math.sqrt(num_bernoulli))
    return NormEstimate(float(values.mean()), stderr, num_bernoulli, p)


def fixed_state_error(
    instance: SykInstance,
    order: int,
    t: float,
    r: int,
    state: np.ndarray,
) -> float:
    """l2 norm of E |state> = (exp(iHt) - S_l(t/r)**r) |state>.

    Costs what one ``observed_error`` does before its norm: one ``eigh`` of
    H, one round matrix (Upsilon * Gamma in-place term updates) and its r-th
    power by repeated squaring (log2 r squarings plus one product per set bit
    of r), then one matrix-vector product.
    """
    state = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-12:
        raise ValueError("input state must be normalized to 1 within 1e-12")
    schedule = build_schedule(order, instance.gamma_count)
    return float(np.linalg.norm(_error_operator(instance, schedule, t, r) @ state))
