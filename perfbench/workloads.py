"""The benchmark's four workloads, their inputs and their correctness checks.

A workload's inputs come from the ``--seed`` argument alone.  Seeds are
folded onto ``SEED_SLOTS`` slots, because outputs are checked against
values recorded at the seed commit for every slot (``references.json``,
written by ``record.py``); any seed therefore has a reference.

This module imports nothing from syklab: it builds plain JSON specs that
``child.py`` turns into syklab calls in a fresh interpreter, and it checks
the JSON outputs that come back.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations, zip_longest
from pathlib import Path

SEED_SLOTS = 64
REFERENCES = Path(__file__).resolve().parent / "references.json"

# r = 100 rather than the desk default r = 1e4 for l = 2: at r = 1e4 the
# observed error (~1e-10) is round-off, so a check on it would compare noise.
# At r = 100 it is ~1e-6, four decades above that floor, and falls 4x per
# doubling of r.  The round-matrix work does not depend on r.
# Observed errors may move by ulps under a legitimate refactor, so they are
# compared within this relative tolerance, far above round-off.
OBSERVED_RTOL = 1e-4
# <G_w> is a float sum over masks; only summation order can move it.
AVG_GW_RTOL = 1e-9

WORKLOADS = {
    # Desk-scale scan-n, 96 samples.  Over 60% of each sample rebuilds
    # (n, k)-only Pauli term data in assemble and the round matrix, so a
    # term-table cache or a vectorized assemble shows here.
    "dense-scan": {
        "kind": "scan-n",
        "workers": 1,
        "config": dict(model="dense", n_list=[8, 10, 12], k=4, l=2, t=1.0,
                       r=100, p=2.0, N_disorder=32),
    },
    # Criterion 7's nested Bernoulli/Gaussian shape, 128 samples.  At n=12
    # only 48/495 ~ 10% of terms are active, yet term data is built for all
    # of them: iterating only active terms shows here and nowhere else.
    "sparse-scan": {
        "kind": "scan-n",
        "workers": 1,
        "config": dict(model="sparse", kappa=4.0, n_list=[10, 12], k=4, l=2,
                       t=1.0, r=100, p=2.0, N_bernoulli=8, N_disorder=8),
    },
    # D = 256 with only Gamma = 120 terms: building terms costs almost nothing
    # (the bypass case for term caching); time goes to eigh, the
    # repeated-squaring power and the SVD-based Schatten norm on 1 MiB
    # matrices.  The only workload with p != 2, l = 1 and a working set
    # beyond L2, and its six equal-cost grid points are where a worker pool
    # can show a gain or a cost, hence two workers.
    "spectral-tscan": {
        "kind": "scan-t",
        "workers": 2,
        "config": dict(model="dense", n_list=[16], k=2, l=1, p=4.0,
                       t_min=1.0, t_max=100.0, t_points=6, r=10_000,
                       N_disorder=4),
    },
    # No dense linear algebra: exact Pauli algebra through chains.indicator,
    # and syk_termset/build_graph up to n=16.  The only workload that runs
    # chains and the Trotter-number solver.  Seed-drawn termsets keep it long
    # enough to be steady without repeating identical calls.  The work of the
    # G_w enumeration is set by the termset's anticommutation graph, so every
    # draw has the same (most common) degree sequences and seeds cost alike;
    # the 5-term graph has Q_max >= 1, which the Lemma E bound requires.
    "oracle": {
        "kind": "oracle",
        "workers": 1,
        "termsets": 4,
        "termset_n": 10,
        "edges": list(combinations(range(1, 11), 4)),
        "gw_terms": 6,
        "degrees": (2, 2, 2, 3, 3, 4),
        "avg_gw_terms": 5,
        "avg_degrees": (2, 2, 2, 3, 3),
        "p_b": 0.5,
        "g_values": [2, 3, 4, 5],
        "solve_r_grid": [[n, k, l] for n in (8, 10, 12, 14, 16)
                         for k in (3, 4) for l in (1, 2)],
    },
}


def _degrees(termset: list) -> tuple[int, ...]:
    """Sorted degrees of the anticommutation graph of SYK terms on these
    Majorana sets (a, b anticommute iff |a||b| - |a & b| is odd)."""
    degrees = [0] * len(termset)
    for i, j in combinations(range(len(termset)), 2):
        a, b = termset[i], termset[j]
        if (len(a) * len(b) - len(set(a) & set(b))) % 2:
            degrees[i] += 1
            degrees[j] += 1
    return tuple(sorted(degrees))


def _draw_termset(rng: random.Random, workload: dict) -> list:
    """Sorted random edges whose anticommutation graphs (all edges, and the
    first ``avg_gw_terms``) have the workload's degree sequences."""
    while True:
        termset = sorted(rng.sample(workload["edges"], workload["gw_terms"]))
        if (_degrees(termset) == workload["degrees"]
                and _degrees(termset[: workload["avg_gw_terms"]]) == workload["avg_degrees"]):
            return termset


def make_spec(name: str, seed: int) -> dict:
    """The JSON inputs of one pass of workload ``name`` for ``seed``."""
    workload = WORKLOADS[name]
    slot = seed % SEED_SLOTS
    spec = {"workload": name, "slot": slot, "kind": workload["kind"],
            "workers": workload["workers"]}
    if workload["kind"] == "oracle":
        rng = random.Random(slot)
        spec.update(
            {key: workload[key] for key in
             ("termset_n", "avg_gw_terms", "p_b", "g_values", "solve_r_grid")},
            termsets=[_draw_termset(rng, workload) for _ in range(workload["termsets"])],
        )
    else:
        spec["config"] = dict(workload["config"], master_seed=slot)
    return spec


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: float, reference: float, rtol: float) -> bool:
    return math.isclose(value, reference, rel_tol=rtol, abs_tol=0.0)


def _check_scan(rows: list, ref_rows: list) -> tuple[int, list[str]]:
    """One operation per reference row (and per unexpected extra row); each
    failure message is one failed operation."""
    failures = []
    for i in range(max(len(rows), len(ref_rows))):
        if i >= len(rows):
            failures.append(f"row {i}: missing")
            continue
        row = rows[i]
        ref = ref_rows[i] if i < len(ref_rows) else None
        problems = []
        if row["error"]:
            problems.append(f"error {row['error']!r}")
        if ref is None:
            problems.append("no reference row")
        else:
            if (row["n"], row["t"]) != (ref["n"], ref["t"]):
                problems.append(f"grid point {(row['n'], row['t'])} != {(ref['n'], ref['t'])}")
            if row["bound"] != ref["bound"]:
                problems.append(f"bound {row['bound']!r} != {ref['bound']!r}")
            if not _close(row["observed"], ref["observed"], OBSERVED_RTOL):
                problems.append(f"observed {row['observed']!r} vs {ref['observed']!r}")
            if not _close(row["ratio"], ref["ratio"], OBSERVED_RTOL):
                problems.append(f"ratio {row['ratio']!r} vs {ref['ratio']!r}")
        if not 0.0 < row["ratio"] <= 1.0:
            problems.append(f"eta = {row['ratio']!r} outside (0, 1]")
        if problems:
            failures.append(f"row {i}: " + "; ".join(problems))
    return max(len(rows), len(ref_rows)), failures


def _check_lemma(got: list, want: list, termsets: list, ref_termsets: list) -> list[str]:
    ts, g, w, gw, d_bound, avg, e_bound = got
    problems = []
    if got[:3] != want[:3]:
        problems.append(f"entry {got[:3]} != {want[:3]}")
    if not 0 <= ts < len(termsets) or termsets[ts] != ref_termsets[want[0]]:
        problems.append("drawn termset differs from the recorded input")
    if gw != want[3] or d_bound != want[4] or e_bound != want[6]:
        problems.append(f"G_w/bounds {got[3:5] + got[6:]} != {want[3:5] + want[6:]}")
    if not _close(avg, want[5], AVG_GW_RTOL):
        problems.append(f"<G_w> {avg!r} vs {want[5]!r}")
    if gw > d_bound:
        problems.append(f"Lemma D violated: {gw} > {d_bound}")
    if avg > e_bound + 1e-9:
        problems.append(f"Lemma E violated: {avg} > {e_bound}")
    return problems


def _check_oracle(out: dict, ref: dict) -> tuple[int, list[str]]:
    """One operation per oracle check, Lemma D/E entry and solved Trotter
    number of the reference (and per unexpected extra entry), plus
    cmd_oracle's overall verdict; each failure message is one failed
    operation."""
    failures = []
    attempted = 1
    if not out["all_ok"]:
        failures.append("cmd_oracle reported a failed check")
    for key in ("checks", "lemmas", "solve_r"):
        for i, (got, want) in enumerate(zip_longest(out[key], ref[key])):
            attempted += 1
            if got is None:
                failures.append(f"{key} entry {i}: missing")
            elif want is None:
                failures.append(f"{key} entry {i}: no reference entry")
            elif key == "checks":
                if got != want or got[1] != "PASS":
                    failures.append(f"oracle check {got[0]!r}: {got[1]} (reference {want[1]})")
            elif key == "lemmas":
                problems = _check_lemma(got, want, out["termsets"], ref["termsets"])
                if problems:
                    failures.append(f"termset {got[0]} g={got[1]} w={got[2]}: "
                                    + "; ".join(problems))
            elif got != want:
                failures.append(f"solve-r {got[:3]}: r = {got[3:]} != {want[3:]}")
    return attempted, failures


def check(name: str, slot: int, outputs, references: dict) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one pass's outputs.

    An operation is one scan row, one oracle check, one Lemma D/E entry,
    one solved Trotter number or cmd_oracle's overall verdict.  It fails if
    the program raised, if it misses its recorded reference (a missing
    output is a failed operation), or if a bound or oracle check fails.
    There is one failure message per failed operation.
    """
    ref = references.get(name, {}).get(str(slot))
    if ref is None:
        return 1, [f"no reference for {name} slot {slot}"]
    if WORKLOADS[name]["kind"] == "oracle":
        return _check_oracle(outputs, ref)
    return _check_scan(outputs, ref)


def expected_operations(name: str, references: dict) -> int:
    """Operations one pass attempts, for a pass that produced no output."""
    ref = next(iter(references.get(name, {}).values()), None)
    if ref is None:
        return 1
    if WORKLOADS[name]["kind"] == "oracle":
        return 1 + len(ref["checks"]) + len(ref["lemmas"]) + len(ref["solve_r"])
    return len(ref)
