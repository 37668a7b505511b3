"""syklab: a simulation laboratory for Trotterized SYK and sparse SYK models.

Submodules
----------
pauli        exact symplectic Pauli-string algebra and its dense view
fermions     Jordan-Wigner Majoranas, k-local term operators, and term_table(n, k),
             the one cached SYK term set that linalg, trotter and chains read
model        lexicographic hyperedge order and dense/sparse disorder sampling
linalg       dense backend: assembly, exact evolution, Schatten norms, MC averages
trotter      Lie-Trotter-Suzuki schedules, Trotterized evolution, averaged error
bounds       Q(n,k), analytical error bounds, Trotter-number solver, gate counts
chains       brute-force nested-commutator combinatorics and coloring oracles
experiments  scan drivers, CSV emission, verification reports
cli          command-line front end (scan-n, scan-t, solve-r, ...)
"""

from . import bounds, chains, experiments, fermions, linalg, model, pauli, trotter

__all__ = [
    "bounds",
    "chains",
    "experiments",
    "fermions",
    "linalg",
    "model",
    "pauli",
    "trotter",
]

__version__ = "0.1.0"
