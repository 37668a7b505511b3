"""Golden CSVs: scan output must stay byte-identical across refactors.

Each scan file under ``tests/golden/`` is written by its command in
``CASES`` (``python -m syklab <args> -o tests/golden/<name>``) and pins a row
per grid point and the fit lines: ``scan_n_dense.csv`` and
``scan_n_sparse.csv`` the k = 4 Strang scans (dense, and sparse with
kappa = 4), ``scan_n_odd.csv`` (k = 3: one sector, B = 1) the odd-k path
that the k = 4 files do not reach, and ``scan_t.csv`` the p = 4 first-order
t-scan.  Their numbers were last written when ``exact_evolution`` began to
form exp(iHt) of blocks with ||Ht||_1 <= 8 theta_18 from the degree-18
Taylor polynomial and squarings instead of ``eigh``: observed values moved
by at most 2.0e-11 relative (5.1e-14 in ``scan_t.csv``, whose t = 10 row
keeps ``eigh`` and its bytes) and their standard errors by at most 1.4e-10,
the ``scan_t.csv`` fit lines in their last digits, and every ``bound`` cell
kept its bytes.  Any change to these bytes is a numerical or
format change and must be a deliberate one (regenerate the files with the
same commands and say why).
``bounds.csv`` pins the analytical bounds, which read no random numbers:
``repr(error_bound(...))`` (or the error it raises) over a grid of dense and
sparse inputs, then ``solve-r``'s report for a few (n, k, l).  It is
written by ``python tests/test_golden.py`` and leaves out k = n (Q = 0) and
inputs whose squares overflow a float.
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
