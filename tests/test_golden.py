"""Golden CSVs: scan output must stay byte-identical across refactors.

The files under ``tests/golden/`` were last written by the commands below
when the config keys ``overhead`` and ``mode``, which no command read, were
deleted: only their two comment lines (``# overhead = none`` and
``# mode = operator_norm``) went, and every data row and fit line stayed
byte-identical.  Their numbers were last written when eigh, the Trotter
power and the Schatten norm moved onto the parity blocks of the error
operator (observed values moved by at most 3.4e-11 relative).  Any change
to these bytes is a numerical or format change and must be a deliberate one
(regenerate the files with the same commands and say why).
``scan_n_odd.csv`` (k = 3: one sector, B = 1) was written later, by its
command below, before H was assembled as a parity-block stack, and pins the
odd-k path that the k = 4 files do not reach.
The byte identity is promised within one numpy/BLAS build.
"""

from pathlib import Path

import pytest

from syklab import fermions
from syklab.cli import main

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
