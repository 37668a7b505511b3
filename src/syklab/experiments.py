"""Experiment drivers: n-scans, t-scans, solver/gate-count reports, oracle
verification suites, and CSV emission.

Determinism contract: with a fixed config and master seed the emitted CSV is
byte-identical regardless of worker count.  Per-point seeds derive from
(master_seed, point index); grid points are computed by a thread pool of
SYKLAB_WORKERS workers (default 1; this is the package's only pool) but
gathered in submission order; wall-clock timing is only recorded when the
config explicitly enables it (timing breaks byte-reproducibility and is off
by default).
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import bounds, chains, model, trotter
from .fermions import _hyperedges, jordan_wigner
from .pauli import commutes

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "rows_to_csv",
    "cmd_scan_n",
    "cmd_scan_t",
    "cmd_solve_r",
    "cmd_gatecount",
    "cmd_bounds",
    "ORACLE_CHECKS",
    "cmd_oracle",
    "cmd_gen",
    "cmd_evolve",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration for one run (defaults are desk scale)."""

    command: str = ""
    model: str = "dense"  # "dense" | "sparse"
    n_list: tuple[int, ...] = (6, 8, 10)
    k: int = 4
    l: int = 1
    p: float = 2.0
    t: float = 1.0
    t_min: float = 10.0
    t_max: float = 1000.0
    t_points: int = 8
    r: int = 10_000
    kappa: float = 4.0
    energy_constant: float = 1.0
    N_disorder: int = 32
    N_bernoulli: int = 32
    master_seed: int = 2024
    prefactor_mode: str = "full"
    epsilon: float = 0.1
    delta: float = 0.01
    bound_only: bool = False
    timing: bool = False
    output: str = ""
    instance_path: str = ""

    def as_comment_block(self) -> str:
        lines = []
        for f in fields(self):
            if f.name in ("output", "instance_path"):  # I/O plumbing, not physics
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"# {f.name} = {value}")
        return "\n".join(lines)


@dataclass
class ResultRow:
    """One experiment record; field order fixes the CSV schema."""

    model: str
    n: int
    k: int
    l: int
    p: float
    t: float
    r: int
    kappa: float
    seed: int
    N_disorder: int
    N_bernoulli: int
    observed: float
    observed_stderr: float
    bound: float
    ratio: float
    wall_time_s: float
    error: str = ""


def rows_to_csv(config: ExperimentConfig, rows: list[ResultRow], extra_comments: list[str] | None = None) -> str:
    """CSV text: '#'-commented resolved config, header, rows (LF endings,
    shortest round-trip float formatting; a field holding a comma, such as an
    error message, is quoted)."""
    buf = io.StringIO()
    buf.write(config.as_comment_block() + "\n")
    names = [f.name for f in fields(ResultRow)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([getattr(row, name) for name in names])
    for line in extra_comments or []:
        buf.write(f"# {line}\n")
    return buf.getvalue()


def _point_seed(master_seed: int, point_index: int) -> int:
    seq = np.random.SeedSequence(entropy=[int(master_seed), 0x5CA0, int(point_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def _one_n(config: ExperimentConfig) -> int:
    """The n of a command that takes one: a longer ``--n`` list is refused,
    not cut to its first entry."""
    if len(config.n_list) != 1:
        raise ValueError(f"{config.command} takes one n (--n), got "
                         + ",".join(map(str, config.n_list)))
    return config.n_list[0]


def _bound_input(config: ExperimentConfig, n: int, t: float, p: float,
                 r: int) -> bounds.BoundInput:
    """The config's bound parameters at (n, t, p, r), sparse for the sparse model."""
    return bounds.BoundInput(
        n=n, k=config.k, l=config.l, p=p, t=t, r=r,
        energy_constant=config.energy_constant, prefactor_mode=config.prefactor_mode,
        kappa=config.kappa if config.model == "sparse" else None,
    )


def worker_count() -> int:
    """Worker pool size, from the SYKLAB_WORKERS environment variable."""
    raw = os.environ.get("SYKLAB_WORKERS", "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"SYKLAB_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


def _run_points(points: list, worker) -> list[ResultRow]:
    """Evaluate grid points (in parallel) and gather rows in grid order."""
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, range(len(points)), points))
    return [worker(i, pt) for i, pt in enumerate(points)]


def _scan_point(config: ExperimentConfig, point_index: int, n: int, t: float) -> ResultRow:
    seed = _point_seed(config.master_seed, point_index)
    sparse = config.model == "sparse"
    start = time.perf_counter()
    row = ResultRow(
        model=config.model, n=n, k=config.k, l=config.l, p=config.p, t=t,
        r=config.r, kappa=config.kappa if sparse else 0.0,
        seed=seed, N_disorder=config.N_disorder,
        N_bernoulli=config.N_bernoulli if sparse else 0,
        observed=0.0, observed_stderr=0.0, bound=0.0, ratio=0.0, wall_time_s=0.0,
    )
    # a row keeps whichever of bound and observed error exists; its error is
    # the first that failed
    errors = []
    try:
        row.bound = bounds.error_bound(_bound_input(config, n, t, config.p, config.r))
    except Exception as exc:  # a row failure must not kill the run
        errors.append(exc)
    if not config.bound_only:
        try:
            est = trotter.averaged_error(
                n, config.k, config.l, t, config.r, config.p, seed,
                config.N_disorder, config.energy_constant,
                kappa=config.kappa if sparse else None,
                num_bernoulli=config.N_bernoulli,
            )
            row.observed, row.observed_stderr = est.value, est.stderr
            if not errors:
                row.ratio = bounds.error_ratio(est, row.bound)[0]
        except Exception as exc:
            errors.append(exc)
    if errors:
        row.error = f"{type(errors[0]).__name__}: {errors[0]}"
    if config.timing:
        row.wall_time_s = time.perf_counter() - start
    return row


def _check_scan(name: str, config: ExperimentConfig, ns) -> None:
    """A scan's model is checked before any row, as gatecount and evolve
    check theirs.  k = n is refused: Q(n, k) = 0, one term, so the product
    formula is exact, the bound is 0 and an observed error is round-off,
    with no ratio between them.  Then every n with k and the energy
    constant, by ``model.sigma_dense`` (every row's bound and couplings take
    it).  The dense cap stays a row error: that row still has its bound."""
    if config.k in ns:
        raise ValueError(f"{name} needs Q(n, k) > 0, got k (--k) = n = {config.k}: "
                         "one term, so the product formula is exact")
    for n in ns:
        model.sigma_dense(n, config.k, config.energy_constant)


def cmd_scan_n(config: ExperimentConfig) -> tuple[list[ResultRow], str]:
    """Observed error, bound, and ratio for each n (rows sorted by n)."""
    ns = sorted(config.n_list)
    _check_scan("scan-n", config, ns)
    rows = _run_points(ns, lambda i, n: _scan_point(config, i, n, config.t))
    return rows, rows_to_csv(config, rows)


def cmd_scan_t(config: ExperimentConfig) -> tuple[list[ResultRow], str]:
    """Rows over a log-spaced t grid plus a trailing log-log fit block.  Each
    fit (bound, and observed unless bound-only) reads the rows without an
    error whose value is finite and > 0 and is skipped, with the reason, if
    under 3 remain; the slope difference is written when both fits ran."""
    if config.t_points < 3:
        raise ValueError("t scan needs at least 3 points for the fit")
    if not 0 < config.t_min < config.t_max < math.inf:
        raise ValueError("t scan needs 0 < t_min (--t-min) < t_max (--t-max) < inf, "
                         f"got t_min={config.t_min}, t_max={config.t_max}")
    n = _one_n(config)
    _check_scan("scan-t", config, (n,))
    ts = np.logspace(
        math.log10(config.t_min), math.log10(config.t_max), config.t_points
    )
    rows = _run_points(list(ts), lambda i, t: _scan_point(config, i, n, float(t)))
    fitted = [row for row in rows if not row.error]
    if len(fitted) < 3:
        return rows, rows_to_csv(config, rows, [
            f"fit skipped: {len(fitted)} of {len(rows)} rows have no error, the fit needs 3"])
    comments = []
    fits = {}
    for name in ("bound",) if config.bound_only else ("bound", "observed"):
        points = [(row.t, getattr(row, name)) for row in fitted
                  if 0 < getattr(row, name) < math.inf]
        if len(points) < 3:
            comments.append(f"fit {name} skipped: {len(points)} of {len(fitted)} rows "
                            f"without an error have 0 < {name} < inf, the fit needs 3")
            continue
        fits[name] = bounds.loglog_fit(points)
        comments.append("fit %s: slope=%r intercept=%r residual=%r" % (name, *fits[name]))
    if len(fits) == 2:
        comments.append("fit slope difference = %r"
                        % abs(fits["observed"][0] - fits["bound"][0]))
    return rows, rows_to_csv(config, rows, comments)


def cmd_solve_r(config: ExperimentConfig) -> str:
    """Minimal Trotter numbers and implied gate counts, both solver modes."""
    n = _one_n(config)
    base = _bound_input(config, n, config.t, p=2.0, r=1)  # the solver sets p = p*, r
    gamma = bounds.term_count(n, config.k, base.kappa)
    gates = "expected gate count" if base.kappa is not None else "gate count"
    lines = [
        f"solve-r: n={n} k={config.k} l={config.l} model={config.model} "
        f"epsilon={config.epsilon} delta={config.delta}"
    ]
    for mode in ("operator_norm", "fixed_state"):
        sinp = bounds.SolverInput(config.epsilon, config.delta, mode, base)
        r = bounds.solve_trotter_number(sinp)
        lines.append(f"  {mode}: r = {r}  (lambda(p*, r) = {sinp.lam(r):.6e} <= "
                     f"{sinp.target():.6e}, p* = {sinp.p_star():.4f})")
        for overhead, g in bounds.gate_counts(config.l, gamma, r, n).items():
            lines.append(f"    {gates} [{overhead}]: {g:.6e}")
    return "\n".join(lines)


def cmd_gatecount(config: ExperimentConfig) -> str:
    n = _one_n(config)
    sparse = config.model == "sparse"
    gamma = bounds.term_count(n, config.k, config.kappa if sparse else None)
    expected = f" (expected kept terms at kappa={config.kappa})" if sparse else ""
    ups = trotter.stage_count(config.l)
    ups_text = ups if ups <= sys.float_info.max else math.inf  # as gate_counts rounds
    lines = [f"gatecount: n={n} k={config.k} l={config.l} Gamma={gamma}{expected} "
             f"Upsilon={ups_text} r={config.r}"]
    for overhead, g in bounds.gate_counts(config.l, gamma, config.r, n).items():
        lines.append(f"  [{overhead}]: {g:.6e}")
    return "\n".join(lines)


def cmd_bounds(config: ExperimentConfig) -> str:
    """Evaluate the analytical bound for the configured parameters."""
    n = _one_n(config)
    value = bounds.error_bound(_bound_input(config, n, config.t, config.p, config.r))
    kind = f"Delta_{config.l}" + ("^sparse" if config.model == "sparse" else "")
    return (
        f"{kind}(n={n}, k={config.k}, p={config.p}, t={config.t}, "
        f"r={config.r}, prefactor={config.prefactor_mode}) = {value!r}"
    )


def _check_sign_law() -> tuple[bool, str]:
    """T_a T_b = (-1)**(k+m) T_b T_a, m = |a & b|, for all term pairs (a = b
    included) at n = 8, k = 2, 3, 4."""
    bad = 0
    for k in (2, 3, 4):
        terms, edges = chains.syk_termset(8, k).terms, model.ordering_map(8, k)
        for i in range(len(terms)):
            for j in range(i, len(terms)):
                m_overlap = len(set(edges[i]) & set(edges[j]))
                bad += commutes(terms[i], terms[j]) != ((k + m_overlap) % 2 == 0)
    return bad == 0, f"{bad} violations"


def _check_q() -> tuple[bool, str]:
    """For even n <= 14, k <= 5, Q(n,k) equals the number of k-sets whose
    overlap m with {1..k} makes k + m odd, every ``build_graph`` degree
    (n <= 12), n - 1 for k = 1, and 8 for (6, 4)."""
    mism = []
    for nn in range(2, 15, 2):
        for k in range(1, min(5, nn) + 1):
            edges = _hyperedges(nn, k)
            overlaps = np.count_nonzero(edges <= k, axis=1)  # |e & {1..k}|
            counts = {int(np.count_nonzero((k + overlaps) % 2))}
            if nn <= 12:
                graph = chains.build_graph(chains.syk_termset(nn, k))
                counts |= set(graph.sum(axis=1).tolist())
            if k == 1:
                counts.add(nn - 1)
            if (nn, k) == (6, 4):
                counts.add(8)
            if counts != {bounds.q_of(nn, k)}:
                mism.append((nn, k))
    return not mism, f"mismatches: {mism}"


def _lemma_termsets(seed: int, draws: int) -> list[chains.TermSet]:
    """n = 6, k = 3 SYK termsets: a fixed one, then for m = 2..5 in turn
    ``draws`` sets of m distinct hyperedges drawn by ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    edges = model.ordering_map(6, 3)
    picked = [[(1, 2, 3), (1, 2, 4), (3, 4, 5), (1, 5, 6)]] + [
        [edges[i] for i in rng.choice(len(edges), m, replace=False)]
        for m in (2, 3, 4, 5) for _ in range(draws)
    ]
    return [chains.syk_termset(6, 3, e) for e in picked]


def _check_lemma_d() -> tuple[bool, str]:
    """G_w <= g^(3g-2) m^2 Q_max^(g-2) for g = 2, 3, 4 (seed 808, 4 draws);
    an anticommuting pair has G_2 = 4 exactly."""
    pair = chains.TermSet((jordan_wigner(1, 2), jordan_wigner(2, 2)))  # they anticommute
    pair_gw = chains.gw_bruteforce(pair, 2, 2)
    bad = 0
    for ts in _lemma_termsets(808, 4):
        qm = chains.q_max(ts)
        for g in (2, 3, 4):
            for w in range(g % 2, g + 1, 2):
                bad += chains.gw_bruteforce(ts, g, w) > chains.lemma_d_bound(g, ts.m, qm)
    return bad == 0 and pair_gw == 4, f"{bad} violations; pair G_2 = {pair_gw}"


def _check_lemma_e() -> tuple[bool, str]:
    """<G_w> <= the Lemma E bound + 1e-9 for p_B in {0.1, 0.5, 0.9, 1.0}, and
    <G_w> = G_w at p_B = 1, for g = 2, 3, 4 (seed 909, 1 draw)."""
    bad = 0
    for ts in _lemma_termsets(909, 1):
        qm = max(chains.q_max(ts), 1)
        for g in (2, 3, 4):
            for w in range(g % 2, g + 1, 2):
                for p_b in (0.1, 0.5, 0.9, 1.0):
                    avg = chains.avg_gw_exact(ts, g, w, p_b)
                    bad += avg > chains.lemma_e_bound(g, w, ts.m, qm, p_b) + 1e-9
                bad += avg != chains.gw_bruteforce(ts, g, w)  # avg is at p_B = 1 here
    return bad == 0, f"{bad} violations"


def _check_coloring() -> tuple[bool, str]:
    """Greedy colors <= Q(n,4) + 1 for even n in 6..16, and <= Q(n,4) for
    at least one n."""
    ok, strict = True, False
    details = []
    for nn in range(6, 17, 2):
        colors = chains.greedy_coloring(chains.build_graph(chains.syk_termset(nn, 4)))
        q = bounds.q_of(nn, 4)
        details.append(f"n={nn}: {colors} colors, Q+1={q + 1}")
        ok &= colors <= q + 1
        strict |= colors <= q
    return ok and strict, "; ".join(details)


# (report name, check) pairs; check() returns (ok, detail).  ``syklab
# oracle`` runs them all, and acceptance criteria 2, 3, 8, 9 and 11 one each.
# The names and their order are part of the report's format.
ORACLE_CHECKS = (
    ("anti-commutation sign law (n=8, k=2,3,4)", _check_sign_law),
    ("Q(n,k) = anticommuting-partner count (n<=12)", _check_q),
    ("Lemma D bound on G_w", _check_lemma_d),
    ("Lemma E bound on <G_w>", _check_lemma_e),
    ("greedy coloring <= Q(n,4)+1 (n=6..16)", _check_coloring),
)


def cmd_oracle(config: ExperimentConfig) -> tuple[str, bool]:
    """Run the ``ORACLE_CHECKS`` in order; returns (report, all_ok).  A
    failed check's report line ends with its detail in parentheses."""
    lines = ["oracle verification report"]
    all_ok = True
    for name, check in ORACLE_CHECKS:
        ok, detail = check()
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"  [{status}] {name}" + (f" ({detail})" if detail and not ok else ""))
    return "\n".join(lines), all_ok


def _sample_instance(config: ExperimentConfig) -> model.SykInstance:
    """The dense or sparse instance of the config's n and master seed."""
    n = _one_n(config)
    if config.model == "sparse":
        return model.sample_sparse(
            n, config.k, config.energy_constant, config.kappa, config.master_seed
        )
    return model.sample_dense(n, config.k, config.energy_constant, config.master_seed)


def cmd_gen(config: ExperimentConfig) -> str:
    """Sample one instance and return its JSON serialization."""
    return model.to_json(_sample_instance(config))


def cmd_evolve(config: ExperimentConfig) -> str:
    """One-off Trotter-error evaluation for a (possibly replayed) instance."""
    if config.instance_path:
        with open(config.instance_path, "r", encoding="utf-8") as fh:
            inst = model.from_json(fh.read())
    else:
        inst = _sample_instance(config)
    err = trotter.observed_error(inst, config.l, config.t, config.r, config.p)
    return (
        f"observed normalized error (n={inst.n}, k={inst.k}, l={config.l}, "
        f"t={config.t}, r={config.r}, p={config.p}) = {err!r}"
    )
