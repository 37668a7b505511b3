"""Golden CSVs: scan output must stay byte-identical across refactors.

The files under ``tests/golden/`` were last written by the commands below
when the config keys ``overhead`` and ``mode``, which no command read, were
deleted: only their two comment lines (``# overhead = none`` and
``# mode = operator_norm``) went, and every data row and fit line stayed
byte-identical.  The numbers of all four scan files were last written when
the round kernel began to apply each sweep's terms in the term table's
sweep order, which moves terms only past terms they commute with and fuses
them into fewer runs of equal shift: the same operators, rounded
differently, so observed values moved by at most 8.4e-12 relative and
their standard errors by at most 2.4e-11 (``scan_t.csv`` by at most
4.2e-13, its observed fit line in its last digits; the first n = 6 row of
``scan_n_odd.csv`` kept its bytes).  Before that, ``scan_t.csv`` (p = 4)
moved by at most 4.7e-16 when even Schatten orders began to sum s**p from
Gram products instead of the SVD, and the three l = 2 files by at most
1.5e-11 (standard errors 7.0e-11) when the round kernel began to build
each Strang pair F R from one forward sweep F, with the reverse sweep R =
Q F^T Q^dag for the term table's mirror Q.  Before that they moved by at
most 2.2e-11 when the kernel began to fuse each run of consecutive terms
of equal shift into one step, alpha + beta P_s, and by at most 3.4e-11 when
eigh, the Trotter power and the Schatten norm moved onto the parity blocks
of the error operator.  Any
change to these bytes is a numerical or format change and must be a
deliberate one (regenerate the files with the same commands and say why).
``scan_n_odd.csv`` (k = 3: one sector, B = 1) pins the odd-k path that the
k = 4 files do not reach.
``bounds.csv`` pins the analytical bounds, which read no random numbers:
``repr(error_bound(...))`` (or the error it raises) over a grid of dense and
sparse inputs, then ``solve-r``'s report for a few (n, k, l).  It was
recorded by ``python tests/test_golden.py`` before the (Gamma, Q) evaluators
were folded into the SYK bound functions, and leaves out k = n (Q = 0) and
inputs whose squares overflow a float.  Its two sparse ``solve-r`` reports
were last rewritten when sparse gate counts began to take the expected
number of kept terms, min(kappa n, C(n,k)), for Gamma: only their gate-count
lines changed.
The byte identity is promised within one numpy/BLAS build.
"""

import csv
import io
import itertools
import math
from pathlib import Path

import pytest

from syklab import fermions
from syklab.bounds import BoundInput, error_bound, q_of
from syklab.cli import main
from syklab.experiments import ExperimentConfig, cmd_solve_r

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "scan_n_dense.csv": ["scan-n", "--model", "dense", "--n", "6,8,10", "--k", "4",
                         "--l", "2", "--r", "100"],
    "scan_n_sparse.csv": ["scan-n", "--model", "sparse", "--kappa", "4",
                          "--n", "6,8,10", "--k", "4", "--l", "2", "--r", "100",
                          "--n-bernoulli", "3"],
    "scan_n_odd.csv": ["scan-n", "--model", "dense", "--n", "6,8,10", "--k", "3",
                       "--l", "2", "--r", "100", "--n-disorder", "8"],
    "scan_t.csv": ["scan-t", "--model", "dense", "--n", "8", "--k", "4", "--l", "1",
                   "--p", "4", "--t-min", "0.1", "--t-max", "10", "--t-points", "4",
                   "--r", "100", "--n-disorder", "8"],
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_matches_golden_bytes(name, workers, tmp_path, monkeypatch):
    monkeypatch.setenv("SYKLAB_WORKERS", workers)
    # Start from an empty term-table cache, so that with two workers the
    # tables are built while the pool runs.
    fermions._build_term_table.cache_clear()
    out = tmp_path / name
    assert main(CASES[name] + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# (p, t, r) triples of the bound grid: t = 0, desk scale, long time, r = 1
_PTR = ((2.0, 0.0, 10), (2.0, 1.0, 100), (7.5, 40.0, 10**6), (3.0, 0.01, 1))
# (n, k, l, model, kappa, prefactor_mode) of the solve-r reports
_SOLVE_R = ((8, 4, 1, "dense", 4.0, "full"), (10, 4, 2, "dense", 4.0, "full"),
            (12, 4, 4, "dense", 4.0, "full"), (12, 2, 2, "dense", 4.0, "unit"),
            (10, 4, 2, "sparse", 4.0, "full"), (10, 3, 2, "sparse", 0.5, "full"))


def _bound_cell(inp: BoundInput) -> str:
    try:
        return repr(error_bound(inp))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def bound_table() -> str:
    """The contents of ``bounds.csv``.  Sparse rows take kappa = 0, values on
    both sides of p_B * Q = 1, kappa = C(n,k)/(n Q) (p_B * Q = 1 up to
    rounding), and 1e3 (p_B clamped at 1)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["command", "n", "k", "l", "p", "t", "r", "kappa",
                     "prefactor_mode", "value"])
    for n, k, l in itertools.product((8, 12, 30, 100), (2, 3, 4), (1, 2, 4)):
        boundary = math.comb(n, k) / (n * q_of(n, k))
        kappas = (None, 4.0) if l == 1 else (None, 0.0, 0.05, 0.5, boundary, 4.0, 1e3)
        for mode, (p, t, r), kappa in itertools.product(
                ("full",) if l == 1 else ("full", "unit"), _PTR, kappas):
            inp = BoundInput(n=n, k=k, l=l, p=p, t=t, r=r, kappa=kappa,
                             prefactor_mode=mode)
            writer.writerow(["error_bound", n, k, l, repr(p), repr(t), r, repr(kappa),
                             mode, _bound_cell(inp)])
    for n, k, l, model, kappa, mode in _SOLVE_R:
        config = ExperimentConfig(command="solve-r", model=model, n_list=(n,), k=k,
                                  l=l, kappa=kappa, prefactor_mode=mode)
        writer.writerow(["solve-r", n, k, l, "", repr(config.t), "", repr(kappa),
                         mode, cmd_solve_r(config)])
    return out.getvalue()


def test_bounds_match_golden_bytes():
    assert bound_table() == (GOLDEN / "bounds.csv").read_text(encoding="utf-8")


if __name__ == "__main__":
    (GOLDEN / "bounds.csv").write_text(bound_table(), encoding="utf-8", newline="\n")
