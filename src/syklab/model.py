"""Hyperedge ordering and sampling of dense and sparse SYK instances.

The dense model is

    H = i**(k(k-1)/2) * sum_{i_1 < ... < i_k} J_{i_1...i_k} chi_{i_1}...chi_{i_k}

with i.i.d. couplings J ~ N(0, sigma**2), sigma**2 = (k-1)! J0**2 / (k n**(k-1))
for energy constant J0.  The sparse model keeps each term with probability
p_B = min(1, kappa*n / C(n,k)) and rescales the coupling variance by 1/p_B to
keep the model extensive: H = sum_g b_g J_g K_g with Bernoulli b_g, and a
sparse instance stores b_g J_g as its couplings beside its mask b.

Randomness: every stream is a counter-based Philox generator keyed by
(master_seed, stream_tag, sample_index), so disorder averages are independent
of worker count and evaluation order.  Gaussians are drawn by inverse-CDF
(scipy.special.ndtri) on the counter stream; that pins the map from uniforms
to normals, so the *statistics* are reproducible across ports even though
bit-exactness is only promised within one build.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from dataclasses import dataclass, field, fields
from itertools import combinations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "SykInstance",
    "ordering_map",
    "sigma_dense",
    "sigma_sparse",
    "bernoulli_probability",
    "sample_dense",
    "sample_sparse",
    "stream_rng",
    "to_json",
    "from_json",
]


def _validate_n(n: int) -> None:
    """The one check of a Majorana count n: even and >= 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")


def _validate_nk(n: int, k: int) -> None:
    """The one check of (n, k): n as :func:`_validate_n`, 1 <= k <= n."""
    _validate_n(n)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")


def ordering_map(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The C(n,k) hyperedges of n Majoranas, 1-based, in lexicographic
    order: term g of every instance and term table is the g-th of them."""
    _validate_nk(n, k)
    return tuple(combinations(range(1, n + 1), k))


def sigma_dense(n: int, k: int, energy_constant: float = 1.0) -> float:
    """Per-term standard deviation of the dense model couplings.

    sigma**2 is formed in floats; where that leaves the normal float range
    (n**(k-1) or (k-1)! past it), from the exact integer ratio, rounded
    once.  A sigma**2 that is not a positive normal float even so is an
    input error."""
    _validate_nk(n, k)
    if not 0 < energy_constant < math.inf:  # nan too
        raise ValueError("energy constant must be positive and finite, "
                         f"got {energy_constant!r}")
    try:
        square = energy_constant**2
    except OverflowError:
        raise ValueError("energy constant (--energy-constant) squared exceeds the "
                         f"float range, got {energy_constant!r}") from None
    try:
        variance = math.factorial(k - 1) * square / (k * float(n) ** (k - 1))
    except OverflowError:
        variance = 0.0
    if not sys.float_info.min <= variance < math.inf:
        num, den = float(energy_constant).as_integer_ratio()  # J0 = num / den
        variance = math.factorial(k - 1) * num**2 / (k * n ** (k - 1) * den**2)
        if not sys.float_info.min <= variance:
            raise ValueError(f"the coupling variance (k-1)! J0^2 / (k n^(k-1)) at n={n} "
                             f"(--n), k={k} (--k) is below the normal float range")
    return math.sqrt(variance)


def sigma_sparse(n: int, k: int, energy_constant: float, p_b: float) -> float:
    """Per-term standard deviation of the sparse model's Gaussian couplings:
    sigma_dense / sqrt(p_B), so the mean of b_g^2 J_g^2 is the dense one; 0
    at p_B = 0."""
    sigma = sigma_dense(n, k, energy_constant)
    return sigma / math.sqrt(p_b) if p_b > 0.0 else 0.0


def bernoulli_probability(n: int, k: int, kappa: float) -> tuple[float, bool]:
    """Sparse keep-probability p_B = kappa*n/C(n,k), clamped at 1.

    Returns (p_B, clamped).  The clamp handles the small-n corner where
    kappa*n exceeds the number of available terms.  A kappa > 0 whose p_B
    rounds to 0 is refused: it would delete every term, as kappa = 0 does.
    """
    _validate_nk(n, k)
    if not kappa >= 0:  # nan too: min(1.0, nan) would keep every term
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    gamma = math.comb(n, k)
    try:
        raw = kappa * n / gamma
    except OverflowError:  # C(n,k) beyond the float range: the exact ratio, rounded once
        if kappa * n < math.inf:
            num, den = (kappa * n).as_integer_ratio()
            raw = num / (den * gamma)
        else:
            raw = math.inf
    if kappa > 0 and raw == 0.0:
        raise ValueError(f"kappa (--kappa) = {kappa!r} makes p_B = kappa*n/C(n,k) underflow "
                         f"to 0 at n={n}, k={k}")
    return min(1.0, raw), raw > 1.0


@dataclass(frozen=True)
class SykInstance:
    """One sampled Hamiltonian: couplings (and, if sparse, the Bernoulli mask).

    The arrays are read-only copies, so a frozen instance stays unchanged.
    A sparse instance's couplings are b_g J_g: +0.0 wherever the mask is 0.
    """

    n: int
    k: int
    energy_constant: float
    sigma: float
    couplings: np.ndarray
    mask: np.ndarray | None = None
    p_B: float | None = None
    seed: int = 0
    clamped: bool = field(default=False)

    def __post_init__(self) -> None:
        _validate_nk(self.n, self.k)
        gamma_count = math.comb(self.n, self.k)
        couplings = np.array(self.couplings)
        if couplings.shape != (gamma_count,):
            raise ValueError(f"{couplings.size} couplings != C(n,k) = {gamma_count}")
        if self.mask is not None:
            mask = np.array(self.mask)
            if mask.shape != (gamma_count,):
                raise ValueError(f"mask length {mask.size} != C(n,k) = {gamma_count}")
            mask.flags.writeable = False
            object.__setattr__(self, "mask", mask)
            # np.where, not a product: a deleted term is +0.0, never -0.0
            couplings = np.where(mask == 0, 0.0, couplings)
        couplings.flags.writeable = False
        object.__setattr__(self, "couplings", couplings)

    @property
    def gamma_count(self) -> int:
        return len(self.couplings)


def stream_rng(master_seed: int, stream_tag: str, sample_index: int) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by (seed, tag, index)."""
    tag_id = zlib.crc32(stream_tag.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=[int(master_seed), tag_id, int(sample_index)])
    return np.random.Generator(np.random.Philox(seq))


def _gaussian(rng: np.random.Generator, sigma: float, size: int) -> np.ndarray:
    """Inverse-CDF Gaussians on the counter stream (see module docstring)."""
    u = rng.random(size)
    np.clip(u, np.finfo(float).tiny, None, out=u)  # ndtri(0) = -inf guard
    return sigma * ndtri(u)


def sample_dense(
    n: int, k: int, energy_constant: float = 1.0, seed: int = 0, sample_index: int = 0
) -> SykInstance:
    """Sample a dense SYK instance; deterministic given (seed, sample_index)."""
    sigma = sigma_dense(n, k, energy_constant)
    gamma_count = math.comb(n, k)
    rng = stream_rng(seed, "dense_couplings", sample_index)
    couplings = _gaussian(rng, sigma, gamma_count)
    return SykInstance(n, k, energy_constant, sigma, couplings, seed=seed)


def sample_bernoulli_mask(
    n: int, k: int, kappa: float, seed: int = 0, sample_index: int = 0
) -> np.ndarray:
    """Sample just the sparse mask b: (C(n,k),) int8, each entry 1 w.p. p_B."""
    p_b, _ = bernoulli_probability(n, k, kappa)
    rng = stream_rng(seed, "sparse_mask", sample_index)
    return (rng.random(math.comb(n, k)) < p_b).astype(np.int8)


def sample_sparse(
    n: int,
    k: int,
    energy_constant: float = 1.0,
    kappa: float = 4.0,
    seed: int = 0,
    coupling_index: int = 0,
    mask: np.ndarray | None = None,
) -> SykInstance:
    """Sample a sparse SYK instance: couplings b_g J_g, with J drawn for
    every term and zeroed where the mask b deletes it.

    The mask and coupling streams are keyed separately so drivers can hold a
    mask fixed (``mask=...``; by default the mask at sample index 0) while
    redrawing the Gaussian disorder, as required by the nested sparse
    averaging.
    """
    p_b, clamped = bernoulli_probability(n, k, kappa)
    if mask is None:
        mask = sample_bernoulli_mask(n, k, kappa, seed)
    mask = np.asarray(mask, dtype=np.int8)
    gamma_count = math.comb(n, k)
    sigma = sigma_sparse(n, k, energy_constant, p_b)
    rng = stream_rng(seed, "sparse_couplings", coupling_index)
    couplings = _gaussian(rng, sigma, gamma_count)
    return SykInstance(
        n, k, energy_constant, sigma, couplings, mask=mask, p_B=p_b, seed=seed,
        clamped=clamped,
    )


def to_json(instance: SykInstance) -> str:
    """Serialize an instance to JSON; round-trips exactly."""
    doc = {
        "n": instance.n,
        "k": instance.k,
        "energy_constant": instance.energy_constant,
        "sigma": instance.sigma,
        "couplings": instance.couplings.tolist(),
        "mask": None if instance.mask is None else instance.mask.tolist(),
        "p_B": instance.p_B,
        "seed": instance.seed,
        "clamped": instance.clamped,
    }
    return json.dumps(doc)


# the JSON value of each instance key whose type numpy does not check
_DOC_TYPES = {
    "n": ("an integer", int), "k": ("an integer", int), "seed": ("an integer", int),
    "clamped": ("true or false", bool),
    "energy_constant": ("a number", int, float), "sigma": ("a number", int, float),
    "p_B": ("a number or null", int, float, type(None)),
}


def from_json(text: str) -> SykInstance:
    """Parse an instance written by :func:`to_json`, rejecting malformed or
    inconsistent documents (ValueError): a missing, unknown or mistyped key,
    wrong array lengths, a mask that is not 0/1, non-finite couplings, or a
    sigma / p_B that does not match the model.  A masked coupling loads as 0."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(doc).__name__}")
    keys = [f.name for f in fields(SykInstance)]
    bad_keys = sorted(set(keys) ^ set(doc))
    if bad_keys:
        raise ValueError(f"instance key {bad_keys[0]!r} is "
                         + ("missing" if bad_keys[0] in keys else "unknown"))
    for key, (needs, *kinds) in _DOC_TYPES.items():
        if type(doc[key]) not in kinds:  # so a bool is not a number
            raise ValueError(f"instance key {key!r} needs {needs}, got {doc[key]!r}")
    n, k = doc["n"], doc["k"]
    couplings = np.asarray(doc["couplings"], dtype=float)
    if not np.all(np.isfinite(couplings)):
        raise ValueError("couplings must be finite")
    mask, p_b = doc["mask"], doc["p_B"]
    if mask is None:
        if p_b is not None:
            raise ValueError("a dense instance (no mask) must have p_B = null")
        sigma = sigma_dense(n, k, doc["energy_constant"])
    else:
        mask = np.asarray(mask)
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if p_b is None or not 0.0 <= p_b <= 1.0:
            raise ValueError(f"a sparse instance needs 0 <= p_B <= 1, got {p_b!r}")
        sigma = sigma_sparse(n, k, doc["energy_constant"], p_b)
    if not math.isclose(doc["sigma"], sigma, rel_tol=1e-12):
        raise ValueError(f"sigma {doc['sigma']!r} != {sigma!r} implied by n, k, "
                         "energy_constant and p_B")
    # the keys are the fields, checked above
    return SykInstance(**dict(doc, couplings=couplings,
                              mask=None if mask is None else mask.astype(np.int8)))
