"""Dense complex backend: Hamiltonian assembly, exact evolution, Schatten
norms, and the Monte-Carlo expected-norm estimator.  ``_mean_sem`` is the
one mean and standard error of both disorder averages, its sums exactly
rounded by ``math.fsum``, so no estimate depends on the sample order.

``assemble`` builds H for N samples of one (n, k) as (N, B, W, W) parity
blocks, D = 2**(n/2) = B * W; ``DEFAULT_DIM_CAP`` (2**10) caps D to guard
memory; ``_check_dim_cap`` is the one check, made before any D-sized array
is built.  Evolution and norms take one W x W matrix or a stack (..., W, W) of
the diagonal blocks of a block-diagonal operator, such as its parity sectors:
exp(iHt) is formed block by block and the norm is that of the whole operator.

``exact_evolution`` picks each block's route from ||Ht||_1 alone, against
theta_18 = 1.0909, the degree-18 Taylor threshold of Al-Mohy and Higham
(SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1).  A block that s <= 3
halvings bring below it gets the Taylor polynomial by Paterson-Stockmeyer
and s squarings, 7 + s block products; any other block gets exp(iHt) from
its eigendecomposition, the route ``evolution_factory`` keeps for reuse
across t.  The scans' blocks (W = 8 to 32, ||Ht||_1 of 0.7 to 4.9 at t = 1)
take products, at 0.44 to 0.66 of the eigh route's time there (numpy's
OpenBLAS, one thread of a Xeon vCPU), where LAPACK's ``zheevd`` costs
20-25 block products; the t-scan benchmark's W = 128 blocks (||Ht||_1 >=
8.8) keep ``eigh``, which products past s = 3 do not beat.

``schatten_norm`` takes no SVD at even p: p = 2 is the Frobenius norm, and
p = 2m >= 4 sums s**p as Tr((E^dag E)**m), the squared Frobenius norm of a
product of Gram matrices.  Other finite p and p = inf use the SVD.

A finite Schatten order p so large that a p-th power leaves the normal float
range is refused (ValueError naming p), not reported as a silent 0: in
``schatten_norm`` when s_max**p is not normal for s_max > 0 (p != 2), and in
``expected_norm`` when a nonzero norm's p-th power, or the square of the
largest p-th power (the variance), is not.  An operator that is exactly 0
still has norm 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .fermions import _POWERS_OF_I, hilbert_dim, term_table

__all__ = [
    "DEFAULT_DIM_CAP",
    "NormEstimate",
    "assemble",
    "exact_evolution",
    "evolution_factory",
    "schatten_norm",
    "expected_norm",
]

DEFAULT_DIM_CAP = 1 << 10
_HERMITICITY_TOL = 1e-10  # relative to the Frobenius norm


class ResourceError(ValueError):
    """Raised when a requested dense computation exceeds the dimension cap."""


def _check_dim_cap(n: int) -> None:
    """The one check of the dense cap: D = 2**(n/2) <= ``DEFAULT_DIM_CAP``."""
    dim = hilbert_dim(n)
    if dim > DEFAULT_DIM_CAP:
        raise ResourceError(
            f"dimension {dim} (n = {n}) exceeds the dense cap {DEFAULT_DIM_CAP}"
        )


def assemble(n: int, k: int, couplings: np.ndarray) -> np.ndarray:
    """H = sum_g J_g K_g for each row J of ``couplings`` (N, C(n,k)), as the
    (N, B, W, W) stack of its parity blocks on ``term_table(n, k).sectors``.

    Block q of K_g holds coeff[q, j] at (j, j ^ s_g), so the terms of one
    shift s fill the same entries and no others: each shift class that some
    sample keeps is summed from 0 in increasing g, as term-by-term additions
    into H would be, and written with one scatter for all N samples.
    Raises :class:`ResourceError` when D exceeds ``DEFAULT_DIM_CAP``.
    """
    _check_dim_cap(n)
    table = term_table(n, k)
    if couplings.shape[1:] != table.shifts.shape:
        raise ValueError(f"couplings must have shape (N, C(n,k)) = (N, {len(table.shifts)}), "
                         f"got {couplings.shape}")
    width = table.sectors.shape[1]
    ham = np.zeros((len(couplings),) + table.sectors.shape + (width,), dtype=complex)
    positions = np.arange(width)
    # a term zero in one sample only adds a +-0 product there: no bit moves
    live = np.flatnonzero(couplings.any(axis=0))
    by_shift = live[np.argsort(table.shifts[live], kind="stable")]
    cuts = np.flatnonzero(np.diff(table.shifts[by_shift])) + 1
    for terms in np.split(by_shift, cuts) if live.size else ():
        # (N, terms, B, W); add.reduce runs over the terms axis in order,
        # from the initial 0, for every entry
        coeffs = couplings[:, terms, None, None] * _POWERS_OF_I.take(table.powers[terms])
        ham[..., positions, positions ^ table.shifts[terms[0]]] = np.add.reduce(
            coeffs, axis=1, initial=0)
    return ham


def _check_time(t: float) -> None:
    """The one check of an evolution time t: finite."""
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t}")


def _hermiticity(ham: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of a stack and of its anti-Hermitian defect H - H^dag."""
    return float(np.linalg.norm(ham)), float(np.linalg.norm(ham - ham.conj().swapaxes(-1, -2)))


def _check_hermitian(ham: np.ndarray) -> None:
    """The one Hermiticity check of both evolution entries, as
    :func:`evolution_factory` states it."""
    with np.errstate(over="ignore", invalid="ignore"):  # compared below
        scale, defect = _hermiticity(ham)
        if not math.isfinite(scale):
            peak = max(np.max(np.abs(ham.real)), np.max(np.abs(ham.imag)))
            if not math.isfinite(peak):  # inf or nan
                raise ValueError("matrix entries must be finite")
            scale, defect = _hermiticity(ham / peak)
    if not defect <= _HERMITICITY_TOL * (scale or 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")


def _identity(shape: tuple[int, ...]) -> np.ndarray:
    """A stack of identity blocks of ``shape`` (..., W, W), exact."""
    return np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()


# theta_18 of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011), Table
# 3.1): the largest ||A||_1 at which the degree-18 Taylor polynomial of e^A
# has backward error at most 2**-53 (recomputed with mpmath: 1.0908637...).
# A block with ||Ht||_1 <= theta_18 * 2**s takes the product route with s
# halvings; _PRODUCT_NORMS holds those limits for s = 0 .. 3.
_THETA_18 = 1.0908637192900362
_PRODUCT_NORMS = _THETA_18 * 2.0 ** np.arange(4)
_TAYLOR_COEFFS = [1.0 / math.factorial(j) for j in range(19)]


def _taylor_evolution(blocks: np.ndarray, t: float, squarings: int) -> np.ndarray:
    """exp(i*H*t) for a (M, W, W) stack of H with ||Ht||_1 <= theta_18 *
    2**squarings: the degree-18 Taylor polynomial of A = i*H*t / 2**squarings
    by Paterson-Stockmeyer, then ``squarings`` squarings.

    With B_j = sum_{i<3} A^i / (3j + i)!, T_18(A) = B_0 + A^3 (B_1 + A^3 (B_2
    + A^3 (B_3 + A^3 (B_4 + A^3 (B_5 + A^3 / 18!))))): A^2, A^3 and five
    Horner products, 7 block matmuls, as many as a Horner in A^4 takes with
    one power fewer held.  Besides A, A^2 and A^3 it holds the accumulator
    and one buffer, which takes each product and lends the freed
    accumulator as scratch for the B_j terms.  Every step is per block, so
    a block's result does not depend on the rest of the stack.
    """
    a = blocks * (1j * (t / 2**squarings))
    a2 = a @ a
    a3 = a2 @ a
    diagonal = (slice(None), slice(None, None, a.shape[-1] + 1))

    def add_chunk(out: np.ndarray, scratch: np.ndarray, j: int) -> None:
        """out += B_j, using ``scratch`` for the scaled powers."""
        for power, coeff in ((a, _TAYLOR_COEFFS[3 * j + 1]), (a2, _TAYLOR_COEFFS[3 * j + 2])):
            np.multiply(power, coeff, out=scratch)
            out += scratch
        out.reshape(len(out), -1)[diagonal] += _TAYLOR_COEFFS[3 * j]

    acc = a3 * _TAYLOR_COEFFS[18]
    buf = np.empty_like(a)
    add_chunk(acc, buf, 5)
    for j in (4, 3, 2, 1, 0):
        np.matmul(a3, acc, out=buf)
        add_chunk(buf, acc, j)
        acc, buf = buf, acc
    for _ in range(squarings):
        np.matmul(acc, acc, out=buf)
        acc, buf = buf, acc
    return acc


def exact_evolution(ham: np.ndarray, t: float) -> np.ndarray:
    """U = exp(i*H*t) for one matrix or a stack (..., W, W) of blocks, each
    evolved on its own by the route its ||Ht||_1 sets (module docstring):
    the degree-18 Taylor polynomial and s <= 3 squarings
    (``_taylor_evolution``), else the eigendecomposition.

    t must be finite (ValueError naming t), and the stack passes the one
    Hermiticity check of :func:`evolution_factory` before either route
    runs; at t = 0 it is the identity exactly.  Blocks are grouped by route
    and every step is per block, so a stack equals its blocks' separate
    calls bit for bit.
    """
    _check_time(t)
    _check_hermitian(ham)
    if t == 0:
        return _identity(ham.shape)
    width = ham.shape[-1]
    blocks = ham.reshape(-1, width, width)
    with np.errstate(over="ignore"):  # an infinite norm takes eigh
        norms = abs(t) * np.abs(blocks).sum(axis=1).max(axis=1)
    # s where s <= 3, else len(_PRODUCT_NORMS): eigh (an overflowed norm too)
    routes = np.searchsorted(_PRODUCT_NORMS, norms)
    groups = sorted(set(routes.tolist()))
    if len(groups) == 1:
        return _routed_evolution(blocks, t, groups[0]).reshape(ham.shape)
    out = np.empty(blocks.shape, dtype=complex)
    for route in groups:
        rows = routes == route
        out[rows] = _routed_evolution(blocks[rows], t, route)
    return out.reshape(ham.shape)


def _routed_evolution(blocks: np.ndarray, t: float, route: int) -> np.ndarray:
    """exp(i*H*t) for a (M, W, W) stack of one route: s = ``route``
    squarings of the Taylor polynomial, or eigh past the last s."""
    if route < len(_PRODUCT_NORMS):
        return _taylor_evolution(blocks, t, route)
    return _eigen_evolution(blocks)(t)


def _eigen_evolution(ham: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> exp(i*H*t) from one ``eigh`` of the stack, for checked H."""
    evals, evecs = np.linalg.eigh(ham)

    def evolve(t: float) -> np.ndarray:
        _check_time(t)
        if t == 0:
            return _identity(ham.shape)
        phases = np.exp(1j * evals * t)
        return (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)

    return evolve


def evolution_factory(ham: np.ndarray) -> Callable[[float], np.ndarray]:
    """Return t -> exp(i*H*t), reusing one eigendecomposition across t values:
    the eigh route of :func:`exact_evolution`, for callers that evolve one H
    to many t.

    ``ham`` is one matrix or a stack (..., W, W) of blocks, each evolved on
    its own.  The stack must be finite and Hermitian within 1e-10 relative
    to its Frobenius norm (both taken over the whole stack).  Where a norm
    overflows (entries past about 1e154), both are taken again on ham
    divided by its largest real or imaginary part.  Each t must be finite
    (ValueError naming t); at t = 0 it is the identity exactly, not rebuilt
    from the eigenvectors.
    """
    _check_hermitian(ham)
    return _eigen_evolution(ham)


def _check_schatten_order(p: float) -> None:
    """The one check of a Schatten order: p >= 1, inf allowed."""
    if not p >= 1:  # nan too
        raise ValueError(f"Schatten order p (--p) must satisfy p >= 1, got {p}")


def _check_power(base: float, power: float, p: float, what: str) -> None:
    """The one check of a large finite order p: a nonzero ``base`` whose
    ``power`` (its p-th power, or that squared) is not a normal float would
    lose its digits to underflow (or overflow), so it is refused."""
    if base > 0 and not sys.float_info.min <= power < math.inf:
        raise ValueError(f"Schatten order p (--p) = {p} is too large here: {what} = "
                         f"{power:.6g} (from {base:.6g}) is not a normal float")


def schatten_norm(mat: np.ndarray, p: float) -> float:
    """Schatten p-norm (sum of p-th powers of singular values)**(1/p).

    ``mat`` is one matrix or a stack (..., W, W) of the diagonal blocks of a
    block-diagonal operator, whose singular values are those of all blocks
    together.  p = 2 is the Frobenius norm of the stack (no SVD).  An even
    p = 2m >= 4 takes no SVD either: with G = E^dag E per block, the sum of
    s**p is ||G**(m/2)||_F**2 for even m and ||E G**((m-1)/2)||_F**2 for odd
    m, G's power built by repeated squaring.  That sum S is returned only
    when #s * float_min <= S < inf (#s singular values in all), where
    s_max**p is normal too, since S / #s <= s_max**p <= S; outside that
    range the SVD below decides.  Other finite p and p = inf use the SVD;
    p = inf is the largest singular value of any block.  A finite p with
    s_max**p not a normal float is refused (see the module docstring).
    """
    _check_schatten_order(p)
    if p == 2:
        return float(np.linalg.norm(mat))
    if p < math.inf and p % 2 == 0:
        m = int(p) // 2
        # a sum out of range (0, inf, or nan from inf * 0) goes to the SVD
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            gram = mat.conj().swapaxes(-1, -2) @ mat
            root = np.linalg.matrix_power(gram, m // 2)
            if m % 2:
                root = mat @ root
            total = np.vdot(root, root).real
        count = math.prod(mat.shape[:-2]) * min(mat.shape[-2:])
        if count * sys.float_info.min <= total < math.inf:
            return float(total ** (1.0 / p))
    svals = np.linalg.svd(mat, compute_uv=False)
    if np.isinf(p):
        return float(svals.max(initial=0.0))
    with np.errstate(over="ignore"):  # refused below
        powers = svals**p
    _check_power(svals.max(initial=0.0), powers.max(initial=0.0), p, "s_max**p")
    return float(np.sum(powers) ** (1.0 / p))


@dataclass(frozen=True)
class NormEstimate:
    """Monte-Carlo estimate of (E ||A||_p^p)**(1/p) with a delta-method stderr."""

    value: float
    stderr: float
    num_samples: int
    p: float


def _mean_sem(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean of ``values`` and its standard error, sqrt(s^2 / N) with
    the N - 1 variance s^2, both sums exactly rounded by ``math.fsum``, so
    neither depends on the order of the values."""
    num = len(values)
    mean = math.fsum(values) / num
    var_mean = math.fsum((x - mean) ** 2 for x in values) / (num - 1) / num
    return mean, math.sqrt(var_mean)


def _pth_power(norm: float, p: float) -> float:
    """norm**p, checked by ``_check_power``."""
    power = norm**p
    _check_power(norm, power, p, "||A||_p**p")
    return power


def expected_norm(matrices: Iterable[np.ndarray], p: float) -> NormEstimate:
    """Estimate (E ||A_i||_p^p)**(1/p) from per-sample matrices A_i (each
    one matrix or a block stack, as :func:`schatten_norm` takes).

    ``matrices`` is consumed once, in index order, and the mean of its p-th
    powers and their standard error are taken by ``_mean_sem`` (exactly
    rounded sums), so the estimate does not depend on the sample order.
    Each matrix is dropped before the next one is asked for, so a generator
    keeps one of them alive at a time.  A p whose powers or their squares
    underflow is refused (see the module docstring).
    """
    # map() releases each matrix before it asks for the next one; the loop
    # variable of a list comprehension would still hold the previous one
    powers = list(map(lambda mat: _pth_power(schatten_norm(mat, p), p), matrices))
    num_samples = len(powers)
    if num_samples < 2:
        raise ValueError("need num_samples >= 2 for a standard error")
    top = max(powers)
    _check_power(top, top * top, p, "(largest ||A||_p**p)**2")
    mean, sem = _mean_sem(powers)
    value = mean ** (1.0 / p) if mean > 0 else 0.0
    # delta method: d(m**(1/p))/dm = m**(1/p - 1)/p
    stderr = (mean ** (1.0 / p - 1.0) / p) * sem if mean > 0 else 0.0
    return NormEstimate(value, stderr, num_samples, p)
