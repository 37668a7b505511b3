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
of worker count and evaluation order.  Gaussians are drawn by inverse-CDF on
the counter stream: ``_ndtri`` ports Cephes' ndtri (S. L. Moshier, *Methods
and Programs for Mathematical Functions*, 1989; the one scipy.special.ndtri
implements) to numpy, in its Horner order and with libm's log (``math.log``)
in the tails, which numpy's SIMD log is not.  That pins the map from uniforms
to normals, so the *statistics* are reproducible across ports even though
bit-exactness is only promised within one build.  ``_coupling_rows`` draws a
group of samples' couplings with one ``_ndtri`` call; ``sample_dense`` and
``sample_sparse`` are its one-row calls, and ``coupling_groups`` yields the
groups of a disorder average (its docstring holds their stream layout).
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Iterator

import numpy as np
import numpy.random  # noqa: F401 -- at import, not in the first draw

__all__ = [
    "SykInstance",
    "ordering_map",
    "sigma_dense",
    "sigma_sparse",
    "bernoulli_probability",
    "sample_dense",
    "sample_sparse",
    "coupling_groups",
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
        raise ValueError(f"kappa (--kappa) must be nonnegative, got {kappa}")
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

    The arrays are read-only copies, so a frozen instance stays unchanged;
    the mask is checked by ``_check_mask`` and kept as int8.
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
            mask = np.asarray(self.mask)
            _check_mask(mask, gamma_count)
            mask = mask.astype(np.int8)
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


# Cephes ndtri's rational approximations: y or 1 - y = e^-2, where
# z = sqrt(-2 log y) = 2, splits the central branch from the tails, and
# z = 8 (y = e^-32) splits the tails
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x * polevl(x, p) / p1evl(x, q) in Cephes' Horner order (q's leading
    coefficient is 1)."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _libm_log(x: np.ndarray) -> np.ndarray:
    """Natural log of each entry by libm, as Cephes takes it (np.log's SIMD
    loop can differ in the last bits)."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF at each y in (0, 1), bit for bit
    Cephes' ndtri (see module docstring)."""
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    out[central] = (c + c * _rational(c * c, _P0, _Q0)) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x = x - _libm_log(x) / x - np.where(x < 8.0, _rational(z, _P1, _Q1),
                                         _rational(z, _P2, _Q2))
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _check_mask(mask: np.ndarray, gamma_count: int) -> None:
    """The one check of a sparse mask b: C(n,k) entries, each 0 or 1."""
    if mask.shape != (gamma_count,):
        raise ValueError(f"mask length {mask.size} != C(n,k) = {gamma_count}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask entries must be 0 or 1")


def _coupling_rows(
    n: int, k: int, sigma: float, seed: int, indices: range, mask: np.ndarray | None = None
) -> np.ndarray:
    """The couplings of samples ``indices`` of one (n, k) as (N, C(n,k))
    rows, with one ``_ndtri`` call for the group.

    Row i holds sigma * ndtri(u) for the uniforms u of stream (seed,
    "dense_couplings", indices[i]), clipped away from 0.  With a sparse
    ``mask`` b it reads stream (seed, "sparse_couplings", indices[i]) and
    holds b_g J_g: only the kept terms' uniforms are transformed, and a
    deleted term is +0.0.
    """
    gamma_count = math.comb(n, k)
    if mask is not None:
        _check_mask(mask, gamma_count)
    uniforms = np.empty((len(indices), gamma_count))
    tag = "dense_couplings" if mask is None else "sparse_couplings"
    for row, index in zip(uniforms, indices):
        stream_rng(seed, tag, index).random(out=row)
    np.clip(uniforms, np.finfo(float).tiny, None, out=uniforms)  # ndtri(0) = -inf guard
    if mask is None:
        return sigma * _ndtri(uniforms)
    keep = mask != 0
    rows = np.zeros_like(uniforms)
    rows[:, keep] = sigma * _ndtri(uniforms[:, keep])
    return rows


def sample_dense(
    n: int, k: int, energy_constant: float = 1.0, seed: int = 0, sample_index: int = 0
) -> SykInstance:
    """Sample a dense SYK instance; deterministic given (seed, sample_index)."""
    sigma = sigma_dense(n, k, energy_constant)
    couplings = _coupling_rows(n, k, sigma, seed, range(sample_index, sample_index + 1))[0]
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
    redrawing the Gaussian disorder, as the nested sparse average does; its
    mask and coupling indices are laid out in :func:`coupling_groups`.
    """
    p_b, clamped = bernoulli_probability(n, k, kappa)
    if mask is None:
        mask = sample_bernoulli_mask(n, k, kappa, seed)
    sigma = sigma_sparse(n, k, energy_constant, p_b)
    couplings = _coupling_rows(n, k, sigma, seed,
                               range(coupling_index, coupling_index + 1), np.asarray(mask))[0]
    return SykInstance(
        n, k, energy_constant, sigma, couplings, mask=mask, p_B=p_b, seed=seed,
        clamped=clamped,
    )


def coupling_groups(
    n: int, k: int, energy_constant: float, seed: int, num_disorder: int,
    kappa: float | None = None, num_bernoulli: int = 32,
) -> Iterator[np.ndarray]:
    """The coupling rows of one disorder average, group by group: the one
    rule for which streams, indices, sigma and masks make up an average.

    Dense (``kappa`` None): one (num_disorder, C(n,k)) group whose row i is
    the couplings of ``sample_dense(n, k, energy_constant, seed, i)``.
    Sparse: sigma_sparse is formed once from p_B, then there is one group
    per mask b < ``num_bernoulli``, ``sample_bernoulli_mask(n, k, kappa,
    seed, b)``, whose row i is the b_g J_g of ``sample_sparse`` under that
    mask at ``coupling_index = b * num_disorder + i`` (a deleted term is
    +0.0).  Each group is one ``_coupling_rows`` call, drawn only when the
    generator reaches it.  A group holds one mask's rows, not every row of
    the average: mixed masks widen the live terms of a round-matrix stack.
    """
    if kappa is None:
        yield _coupling_rows(n, k, sigma_dense(n, k, energy_constant), seed, range(num_disorder))
        return
    sigma = sigma_sparse(n, k, energy_constant, bernoulli_probability(n, k, kappa)[0])
    for b in range(num_bernoulli):
        yield _coupling_rows(n, k, sigma, seed, range(b * num_disorder, (b + 1) * num_disorder),
                             sample_bernoulli_mask(n, k, kappa, seed, b))


def to_json(instance: SykInstance) -> str:
    """Serialize an instance to JSON, one key per field in field order with
    arrays as lists; round-trips exactly."""
    doc = {f.name: getattr(instance, f.name) for f in fields(SykInstance)}
    return json.dumps({key: value.tolist() if isinstance(value, np.ndarray) else value
                       for key, value in doc.items()})


# the JSON type of each instance key
_DOC_TYPES = {
    "n": ("an integer", int), "k": ("an integer", int), "seed": ("an integer", int),
    "clamped": ("true or false", bool),
    "energy_constant": ("a number", int, float), "sigma": ("a number", int, float),
    "p_B": ("a number or null", int, float, type(None)),
    "couplings": ("an array", list), "mask": ("an array or null", list, type(None)),
}

# the test each entry of an instance array passes: a finite JSON number, an
# integer 0 or 1 (not a bool, a string or a nested array)
_ENTRY_CHECKS = {
    "couplings": ("a finite number",
                  lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "mask": ("the integer 0 or 1", lambda v: type(v) is int and v in (0, 1)),
}


def from_json(text: str) -> SykInstance:
    """Parse an instance written by :func:`to_json`, rejecting malformed or
    inconsistent documents (ValueError): a missing, unknown or mistyped key,
    an array entry that is not a finite number (couplings) or the integer 0
    or 1 (mask), wrong array lengths, a sigma / p_B that does not match
    the model, or ``clamped`` true where p_B is not 1.  A masked coupling
    loads as 0."""
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
    for key, (needs, passes) in _ENTRY_CHECKS.items():
        bad = [v for v in doc[key] or () if not passes(v)]
        if bad:
            raise ValueError(f"instance key {key!r} needs {needs} in each entry, got {bad[0]!r}")
    n, k = doc["n"], doc["k"]
    couplings = np.asarray(doc["couplings"], dtype=float)
    mask, p_b = doc["mask"], doc["p_B"]
    if mask is None:
        if p_b is not None:
            raise ValueError("a dense instance (no mask) must have p_B = null")
        sigma = sigma_dense(n, k, doc["energy_constant"])
    else:
        if p_b is None or not 0.0 <= p_b <= 1.0:
            raise ValueError(f"a sparse instance needs 0 <= p_B <= 1, got {p_b!r}")
        sigma = sigma_sparse(n, k, doc["energy_constant"], p_b)
    if doc["clamped"] and not (mask is not None and p_b == 1.0):
        raise ValueError(f"instance key 'clamped' is true only for a sparse instance with "
                         f"p_B = 1, got p_B = {p_b!r}")
    if not math.isclose(doc["sigma"], sigma, rel_tol=1e-12):
        raise ValueError(f"sigma {doc['sigma']!r} != {sigma!r} implied by n, k, "
                         "energy_constant and p_B")
    # the keys are the fields, checked above
    return SykInstance(**dict(doc, couplings=couplings))
