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


def exact_evolution(ham: np.ndarray, t: float) -> np.ndarray:
    """U = exp(i*H*t) from the Hermitian eigendecomposition."""
    return evolution_factory(ham)(t)


def _hermiticity(ham: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of a stack and of its anti-Hermitian defect H - H^dag."""
    return float(np.linalg.norm(ham)), float(np.linalg.norm(ham - ham.conj().swapaxes(-1, -2)))


def evolution_factory(ham: np.ndarray) -> Callable[[float], np.ndarray]:
    """Return t -> exp(i*H*t), reusing one eigendecomposition across t values.

    ``ham`` is one matrix or a stack (..., W, W) of blocks, each evolved on
    its own.  The stack must be finite and Hermitian within 1e-10 relative
    to its Frobenius norm (both taken over the whole stack).  Where a norm
    overflows (entries past about 1e154), both are taken again on ham
    divided by its largest real or imaginary part.  At t = 0 it is the
    identity exactly, not rebuilt from the eigenvectors.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # compared below
        scale, defect = _hermiticity(ham)
        if not math.isfinite(scale):
            peak = max(np.max(np.abs(ham.real)), np.max(np.abs(ham.imag)))
            if not math.isfinite(peak):  # inf or nan
                raise ValueError("matrix entries must be finite")
            scale, defect = _hermiticity(ham / peak)
    if not defect <= _HERMITICITY_TOL * (scale or 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(ham)

    def evolve(t: float) -> np.ndarray:
        if t == 0:
            return np.broadcast_to(np.eye(ham.shape[-1], dtype=complex), ham.shape).copy()
        phases = np.exp(1j * evals * t)
        return (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)

    return evolve


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
