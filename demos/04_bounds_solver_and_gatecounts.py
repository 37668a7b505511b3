"""Analytical error bounds, the Trotter-number solver, and gate counts.

The first-order bound Delta_1 and the higher-order bounds Delta_l (dense and
sparse) are closed-form functions of (n, k, l, p, t, r); they are evaluated
in log space so the huge order-dependent prefactors never overflow.
``error_bound`` picks the one that applies to an input: the sparse bound when
kappa is set, otherwise Delta_1 for l = 1 and Delta_l for even l.  The
solver inverts a concentration inequality on that bound: it finds the
minimal r such that the error exceeds epsilon with probability at most delta,
then the gate count is stages * terms * r times a fermion-to-qubit overhead.

Run:  python demos/04_bounds_solver_and_gatecounts.py
"""

import math

from syklab.bounds import (
    BoundInput,
    SolverInput,
    delta1_dense,
    delta_l_dense,
    delta_l_sparse,
    error_bound,
    gate_counts,
    loglog_fit,
    q_of,
    solve_trotter_number,
)

n, k, t = 12, 4, 1.0
print(f"n={n}, k={k}: Gamma={math.comb(n, k)}, Q={q_of(n, k)}")

print("\nbounds at t=1 vs Trotter number:")
print(f"{'r':>8}  {'Delta_1':>12}  {'Delta_2':>12}  {'Delta_2 sparse':>14}")
for r in (10**3, 10**4, 10**5):
    d1 = delta1_dense(BoundInput(n=n, k=k, l=1, p=2, t=t, r=r))
    d2 = delta_l_dense(BoundInput(n=n, k=k, l=2, p=2, t=t, r=r))
    ds = delta_l_sparse(BoundInput(n=n, k=k, l=2, p=2, t=t, r=r, kappa=4.0))
    print(f"{r:>8}  {d1:>12.4e}  {d2:>12.4e}  {ds:>14.4e}")

# the bound's t-scaling shows up in a log-log fit
pts = [(tt, delta1_dense(BoundInput(n=n, k=k, l=1, p=2, t=tt, r=10**4)))
       for tt in (10, 30, 100, 300, 1000)]
slope, intercept, residual = loglog_fit(pts)
print(f"\nDelta_1 t-slope over [10, 1000]: {slope:.3f} "
      f"(t^2 term at small t, t^3 at large t)")

# solve for the minimal r guaranteeing error < epsilon w.p. >= 1 - delta;
# l = 1 and no kappa, so error_bound (and with it the solver) uses Delta_1
epsilon, delta = 0.1, 0.01
base = BoundInput(n=n, k=k, l=1, p=2, t=t, r=1)
assert error_bound(base) == delta1_dense(base)
print(f"\nminimal Trotter number for epsilon={epsilon}, delta={delta}:")
for mode in ("operator_norm", "fixed_state"):
    r = solve_trotter_number(SolverInput(epsilon, delta, mode, base))
    gates = gate_counts(1, math.comb(n, k), r, n)
    print(f"  {mode:>14}: r = {r:>8}  gates = {gates['none']:.3e} "
          f"(x{math.ceil(math.log2(n))} ternary-tree, x{n} Jordan-Wigner)")
