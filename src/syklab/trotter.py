"""Lie-Trotter-Suzuki schedules and Trotterized evolution.

A schedule is the product formula S_l(tau) by its order l.  A sweep at scale
s applies exp(i * s * tau * J_g K_g) for every live term g, in increasing g
if forward, else decreasing (the kernel applies them in an order that swaps
only commuting terms, the same operator); a term is live when tau != 0 and
some coupling on it is nonzero, and the rest are the identity.  S_1(tau) is
one forward sweep at scale 1, and S_2(tau) = F R is the Strang pair: R the
reverse sweep at scale 1/2, applied first, then F the forward one.  Suzuki's
recursion (J. Math. Phys. 32, 400 (1991))

    S_{2p}(tau) = S_{2p-2}(q_p tau)^2 S_{2p-2}((1-4q_p) tau) S_{2p-2}(q_p tau)^2,
    q_p = 1 / (4 - 4**(1/(2p-1))),

gives every higher even order.  Flattened, a round is Upsilon =
2 * 5**(l/2 - 1) sweeps (``stage_count``, the count the bounds and gate
counts use).  The kernel instead evaluates the recursion on round matrices:
it builds A = S_{l-2}(q_p tau) once and squares it, so a round of order
l >= 4 builds 2**(l/2 - 1) Strang pairs and takes 3 * (2**(l/2 - 1) - 1)
block matmuls beyond them (3 at l = 4, 9 at l = 6), where multiplying out
the flattened pairs would take 5**(l/2 - 1) - 1.

For even k every x_g has even popcount, so H, exp(iHt) and S_l(tau) keep the
parity of the basis index: each is block diagonal with B = 2 parity sectors
of width W = D/2.  Odd k maps one parity to the other and has one sector,
B = 1 and W = D, in the same code.  Round matrices are built by one kernel,
``_round_matrices``, on the (N, B, W, W) parity-block stack of N samples that
share (n, k), in the (sector, position) coordinates of the one cached term
set ``fermions.term_table(n, k)``.  Terms with equal X masks share the
in-sector permutation j -> j ^ shifts[g] (hyperedges that differ only on
the two Majoranas of one qubit have equal X masks), and a run of them
multiplies to alpha + beta P_s with (N, B, W) coefficients alpha and beta.
So each sweep makes one step per run of equal shift, not per term: one
``take`` of every block's rows along the run's permutation, one coefficient
multiply, one scale and one add for all N samples.  A sweep applies the
terms in the table's ``sweep_runs``, not in hyperedge order: each term
moves back past the terms it commutes with to join an earlier run of its
shift, which leaves the sweep the same operator (only anticommuting pairs
and same-shift terms must keep their order) and makes its runs longer.  A
forward sweep of all terms then takes 187 steps for 495 terms at (n, k) =
(12, 4), where hyperedge order takes 246, and 36 for 120 at (16, 2), against
63.  A reverse sweep walks the same runs backwards.  A stack drops its dead
terms from the table's runs, and the runs that leaves empty, so every stack
of one (n, k) splits its terms along the same runs.  A deleted sparse term
is a zero coupling, so the kernel reads only couplings and the samples'
masks may differ: a term that is dead for some samples of a stack is an
exact identity for them, and a stack's rounds equal its samples' one-sample
calls entry for entry.

For k != 2 (mod 4) the term table's ``mirror``, a Pauli string Q with
Q K_g^T Q^dag = K_g for every term, gives R = Q F^T Q^dag (its ``mirrored``):
one sweep, one gather and one block matmul make a Strang pair, so an even-l
round builds 2**(l/2 - 1) sweeps (one at l = 2, two at l = 4, four at l = 6).
For k = 2 (mod 4) no such Q exists and each pair is its reverse sweep, then
its forward sweep, on one stack: twice as many sweeps.

The error operator E = exp(iHt) - S_l(t/r)**r is formed on parity blocks
by ``_error_operators``, which reads only (n, k), coupling rows and a built
schedule: ``observed_error`` and ``fixed_state_error`` pass their instance's
one row, and ``averaged_error`` each group that ``model.coupling_groups``
yields (which samples make up an average is decided there), in stacks of at
most ``_STACK_BYTES``.  Every stage runs once per stack: assembly (H comes
from ``assemble`` as the same block stack), round kernel, exact evolution
(``exact_evolution``: Taylor products or eigh, block by block), power and E;
a consumer holds one stack of E at a time, and only the Schatten norm is
taken per sample.  Each public entry checks its inputs once, before any
coupling is drawn or D-sized array is built: the order l in ``Schedule``,
the dense cap, r and t in ``_check_path``; the private stages check
nothing.  Blocks meet D space only where ``fixed_state_error`` splits its
state and ``trotterized`` returns a D x D matrix; ``trotterized`` is kept
for tests and the benchmark tracer and has no production caller.
A run of one term takes the floating-point operations of a one-matrix,
full-D, term-by-term build in the sweep order, entry for entry, and so does
a round built sweep after sweep on one stack: l = 1, and l = 2 without a
mirror.  A longer run, a mirrored sweep and the recursion's products
(l >= 4) round differently, and so does the sweep order against hyperedge
order, so the rounds match a term-by-term build in hyperedge order to ulps
(1e-13 at n <= 12), not bit for bit.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .fermions import _POWERS_OF_I, TermTable, hilbert_dim, term_table
from .linalg import (
    NormEstimate, _check_dim_cap, _check_schatten_order, _check_time, _mean_sem,
    assemble, exact_evolution, expected_norm, schatten_norm,
)
from .model import SykInstance, coupling_groups

__all__ = [
    "Schedule",
    "stage_count",
    "build_schedule",
    "trotterized",
    "observed_error",
    "averaged_error",
    "fixed_state_error",
]

# Bytes of round-matrix parity blocks in one stack.  The kernel's working set
# is a sweep F with its take() buffer, F's mirror and their product, plus at
# l >= 4 one squared factor A^2 per open level of the recursion (l/2 nested
# stacks in all), which stays inside a 2 MiB L2 at l = 2; at D = 256 a stack
# holds one sample.
_STACK_BYTES = 256 * 1024

# Largest order the Trotter path builds: 2**7 Strang pairs per round, whose
# count doubles with each order; the bounds and gate counts, which need only
# stage_count, take every even l whose Upsilon has at most 4300 digits,
# Python's default int-to-str limit.
_MAX_ORDER = 16
_MAX_STAGE_DIGITS = 4300


def stage_count(order: int) -> int:
    """Number of sweeps Upsilon per round: 1 for l=1, 2*5**(l/2-1) for even l
    (refused, before the power is formed, past 4300 digits: l > 12304)."""
    if order == 1:
        return 1
    if order >= 2 and order % 2 == 0:
        if math.log10(2) + (order // 2 - 1) * math.log10(5) >= _MAX_STAGE_DIGITS:
            raise ValueError(f"order l (--l) = {order} is too large: its Upsilon = "
                             f"2*5**(l/2-1) would pass {_MAX_STAGE_DIGITS} digits")
        return 2 * 5 ** (order // 2 - 1)
    raise ValueError(f"order must be 1 or even >= 2 (--l), got {order}")


@dataclass(frozen=True)
class Schedule:
    """Product formula S_l by its order l, checked here: 1 or even >= 2, as
    ``stage_count``, and at most ``_MAX_ORDER``, since a round builds
    2**(l/2-1) Strang pairs, twice as many with each order."""

    order: int

    def __post_init__(self) -> None:
        if self.order > _MAX_ORDER and self.order % 2 == 0:
            raise ValueError(f"order l (--l) = {self.order} exceeds {_MAX_ORDER}: a round "
                             "would build 2**(l/2-1) Strang pairs, twice as many with each order")
        stage_count(self.order)

    @property
    def stages(self) -> int:
        """Upsilon, the number of sweeps per round of the flattened formula."""
        return stage_count(self.order)


def build_schedule(order: int) -> Schedule:
    """Schedule for S_l; ``Schedule`` checks l."""
    return Schedule(order)


def _sweep_runs(table: TermTable, live: np.ndarray) -> list[list[int]]:
    """The table's ``sweep_runs`` without their dead terms (``live`` a bool
    mask over all terms), and without the runs that leaves empty.  A term
    dead for some samples of a stack so leaves their live terms in the runs
    of their one-sample calls."""
    runs = (run[live[run]] for run in table.sweep_runs)
    return [run.tolist() for run in runs if run.size]


def _sweep(
    stack: np.ndarray, table: TermTable, runs: list[list[int]],
    couplings: np.ndarray, scale: float, tau: float,
) -> None:
    """Apply one sweep to the (N, B, W, W) ``stack`` in place: for each run
    of ``runs``, in the order given, its exponentials cos(theta) + i
    sin(theta) K_g, theta = scale * J_g * tau, with K_g = C_g P_s read from
    ``table`` (C_g the (B, W) coefficients, P_s the row map j -> j ^ s).
    theta, its cosine and i sin(theta) i**e (e = 0..3) are formed once for
    the sweep's terms, so a term's coefficients i sin(theta) C_g are one
    ``take`` into a preallocated (N, B, W) buffer.  Each run is one step on
    the whole stack: its exponentials multiplied, in the run's order, into
    alpha + beta P_s with (N, B, W) coefficients, then M <- alpha M + beta
    M[perm].  The run's first term gives (alpha, beta) = (cos(theta), i
    sin(theta) C_g); applying each further c + i s C_g P_s gives alpha' = c
    alpha + i s C_g beta[perm] and beta' = c beta + i s C_g alpha[perm], as
    P_s squares to the identity; a term dead for a sample (theta = 0) leaves
    its coefficients exact.
    """
    theta = scale * couplings[:, list(chain.from_iterable(runs))] * tau
    cos = np.cos(theta).T  # (terms, N)
    isin = (1j * np.sin(theta)).T[..., None] * _POWERS_OF_I  # (terms, N, 4)
    buf = np.empty_like(stack)
    coeffs = np.empty((2,) + stack.shape[:-1], dtype=complex)  # (alpha, beta)
    alpha, beta = coeffs
    swapped = np.empty_like(coeffs)
    term = np.empty_like(beta)
    positions = np.arange(stack.shape[-1])
    perm = np.empty_like(positions)
    j = 0
    for run in runs:
        np.bitwise_xor(positions, table.shifts[run[0]], out=perm)
        # perm and the powers are in range by construction; mode="clip" skips
        # the copy that take() makes for out= under the default bounds check
        stack.take(perm, axis=2, out=buf, mode="clip")
        alpha[...] = cos[j, :, None, None]
        isin[j].take(table.powers[run[0]], axis=1, out=beta, mode="clip")
        for g in run[1:]:
            j += 1
            # (beta, alpha)[perm]
            coeffs[::-1].take(perm, axis=3, out=swapped, mode="clip")
            isin[j].take(table.powers[g], axis=1, out=term, mode="clip")
            swapped *= term
            coeffs *= cos[j, :, None, None]
            coeffs += swapped
        j += 1
        buf *= beta[..., None]
        stack *= alpha[..., None]
        stack += buf


def _round_matrices(
    n: int, k: int, couplings: np.ndarray, schedule: Schedule, tau: float
) -> np.ndarray:
    """S_l(tau) for each row of ``couplings`` (N, Gamma), all of one (n, k),
    as an (N, B, W, W) stack of parity blocks on the table's sectors, by
    Suzuki's recursion on round matrices (counted in the module docstring).

    A sweep is ``_sweep`` on the live terms' runs of ``_sweep_runs``,
    walked in reverse for a reversed sweep; a term is live when tau != 0
    and some sample's coupling on it is nonzero.  l = 1 is one forward
    sweep in place on the identity.  S_2(s tau) is F @ Q F^T Q^dag, the
    table's ``mirrored(F)``, else R then F in place on one identity stack.
    For l >= 4, S_l(s tau) builds A = S_{l-2}(q s tau) once and returns
    A^2 S_{l-2}((1-4q) s tau) A^2.
    """
    table = term_table(n, k)
    num_blocks, width = table.sectors.shape
    runs = _sweep_runs(table, couplings.any(axis=0) & (tau != 0))
    reversed_runs = [run[::-1] for run in runs[::-1]]

    def swept(*sweeps: tuple[float, bool]) -> np.ndarray:
        stack = np.tile(np.eye(width, dtype=complex), (len(couplings), num_blocks, 1, 1))
        for scale, forward in sweeps:
            _sweep(stack, table, runs if forward else reversed_runs, couplings, scale, tau)
        return stack

    def suzuki(order: int, scale: float) -> np.ndarray:
        if order == 1:
            return swept((scale, True))
        if order == 2:
            if table.mirror is None:
                return swept((scale / 2, False), (scale / 2, True))
            forward = swept((scale / 2, True))
            return forward @ table.mirrored(forward)
        q = 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))
        outer = suzuki(order - 2, q * scale)
        outer = outer @ outer
        return outer @ suzuki(order - 2, (1.0 - 4.0 * q) * scale) @ outer

    return suzuki(schedule.order, 1.0)


def _check_r(r: int) -> None:
    """The one check of a Trotter number r, which BoundInput and gate_counts
    share: an integer (numpy's too), as the r-th power needs, with 1 <= r <=
    the largest float, as t / r needs."""
    if not isinstance(r, numbers.Integral):
        raise ValueError(f"Trotter number r (--r) must be an integer, got {r!r}")
    if not 1 <= r <= sys.float_info.max:
        raise ValueError(
            f"Trotter number r (--r) must satisfy 1 <= r <= {sys.float_info.max!r}")


def _check_norm_order(p: float) -> None:
    """The one check of the norm order p of a disorder average or a bound,
    which BoundInput and averaged_error share: 2 <= p < inf."""
    if not 2 <= p < math.inf:
        raise ValueError(f"norm order p (--p) must satisfy 2 <= p < inf (got {p}); for the "
                         "operator norm use solve-r's finite p* = log(e^2 D/delta)")


def _check_path(n: int, t: float, r: int) -> None:
    """The one check of a Trotter-path entry's n, t and r: the dense cap,
    before any D-sized array is built, then r, then t (finite)."""
    _check_dim_cap(n)
    _check_r(r)
    _check_time(t)


def trotterized(
    instance: SykInstance, schedule: Schedule, t: float, r: int
) -> np.ndarray:
    """S_l(t/r)**r as a dense D x D unitary, placed from its parity blocks;
    kept for tests and the benchmark tracer, with no production caller."""
    _check_path(instance.n, t, r)
    rounds = _round_matrices(instance.n, instance.k, instance.couplings[None],
                             schedule, t / r)
    sectors = term_table(instance.n, instance.k).sectors
    full = np.zeros((sectors.size, sectors.size), dtype=complex)
    full[sectors[:, :, None], sectors[:, None, :]] = np.linalg.matrix_power(rounds[0], r)
    return full


def _error_operators(
    n: int, k: int, couplings: np.ndarray, schedule: Schedule, t: float, r: int
) -> Iterator[np.ndarray]:
    """The (B, W, W) parity blocks of the Trotter error operator
    E = exp(iHt) - S_l(t/r)**r for each row of ``couplings`` (N, Gamma), all
    of one (n, k), in order, for inputs that its caller has checked.

    The rows go in stacks of at most ``_STACK_BYTES`` (at least one row), and
    every stage runs once per stack: assembly, round kernel, exact evolution
    (one ``exact_evolution`` call), power and E.  The stack's other arrays
    are freed before its first E is yielded, so a consumer that drops each E
    holds one stack of E at a time.
    """
    sectors = term_table(n, k).sectors
    per_sample = np.dtype(complex).itemsize * sectors.size * sectors.shape[1]
    size = max(1, _STACK_BYTES // per_sample)
    for start in range(0, len(couplings), size):
        stack = couplings[start:start + size]
        yield from exact_evolution(assemble(n, k, stack), t) - np.linalg.matrix_power(
            _round_matrices(n, k, stack, schedule, t / r), r)


def observed_error(instance: SykInstance, order: int, t: float, r: int, p: float) -> float:
    """Normalized Trotter error ||E||_p / D**(1/p); p = inf is the operator norm."""
    _check_schatten_order(p)
    schedule = build_schedule(order)
    _check_path(instance.n, t, r)
    err = next(_error_operators(instance.n, instance.k, instance.couplings[None], schedule, t, r))
    return schatten_norm(err, p) / hilbert_dim(instance.n) ** (1.0 / p)


def averaged_error(
    n: int, k: int, order: int, t: float, r: int, p: float, seed: int,
    num_disorder: int, energy_constant: float = 1.0, kappa: float | None = None,
    num_bernoulli: int = 32,
) -> NormEstimate:
    """Disorder-averaged normalized Trotter error and its standard error.

    Dense (``kappa`` None): (E ||exp(iHt) - S_l(t/r)**r||_p^p)**(1/p) / D**(1/p)
    over the rows of the one group of ``model.coupling_groups``.  Sparse
    (Xu-Susskind-Su-Swingle): the plain mean over its ``num_bernoulli``
    groups, one per Bernoulli mask (outside), of that Gaussian-disorder
    expectation (inside), with its standard error; both averages take their
    mean and standard error from ``linalg._mean_sem``.  The order, the dense
    cap, t and r are checked before the first group is drawn.
    """
    _check_norm_order(p)
    if num_disorder < 2:
        raise ValueError(f"need N_disorder >= 2 for a standard error, got {num_disorder}")
    if kappa is not None and num_bernoulli < 2:
        raise ValueError(f"need N_bernoulli >= 2 for a standard error, got {num_bernoulli}")
    schedule = build_schedule(order)
    _check_path(n, t, r)
    scale = hilbert_dim(n) ** (1.0 / p)
    groups = coupling_groups(n, k, energy_constant, seed, num_disorder, kappa, num_bernoulli)
    ests = [expected_norm(_error_operators(n, k, rows, schedule, t, r), p) for rows in groups]
    values = [est.value / scale for est in ests]
    if kappa is None:
        return NormEstimate(values[0], ests[0].stderr / scale, num_disorder, p)
    return NormEstimate(*_mean_sem(values), num_bernoulli, p)


def fixed_state_error(
    instance: SykInstance,
    order: int,
    t: float,
    r: int,
    state: np.ndarray,
) -> float:
    """l2 norm of E |state> = (exp(iHt) - S_l(t/r)**r) |state>.

    ``state`` must be a normalized vector of shape (D,).  Costs what one
    ``observed_error`` does before its norm: exp(iHt) on each parity block of
    H (two D/2 blocks for even k, one D block for odd k), by 7 to 10 block
    matmuls where ||Ht||_1 <= 8 theta_18 and one ``eigh`` elsewhere (see
    ``linalg.exact_evolution``), one round matrix
    (its sweeps and block matmuls as the module docstring counts them, each
    sweep one in-place update per run of live terms of equal shift in the
    term table's sweep runs, 187 for the 495 terms of a dense (12, 4)
    sweep) and its r-th power on the blocks by
    repeated squaring (log2 r squarings plus one product per further set
    bit of r), then one block matrix-vector product: the state splits by
    parity, ||E psi||^2 = sum_q ||E_q psi_q||^2.
    """
    dim = hilbert_dim(instance.n)
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(
            f"input state must have shape (D,) = ({dim},) for n = {instance.n}, "
            f"got {state.shape}"
        )
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-12:  # nan too
        raise ValueError("input state must be normalized to 1 within 1e-12")
    schedule = build_schedule(order)
    _check_path(instance.n, t, r)
    err = next(_error_operators(instance.n, instance.k, instance.couplings[None], schedule, t, r))
    psi = state[term_table(instance.n, instance.k).sectors, None]
    return float(np.linalg.norm(err @ psi))
