"""Measuring Trotter error and its convergence order.

The product formula S_l(t/r)**r approximates exp(iHt); the deviation shrinks
as r**(-l).  This script builds one SYK instance, evolves it exactly by
eigendecomposition and approximately by first- and second-order schedules,
and shows the error halving (l = 1) and quartering (l = 2) as r doubles.
The r rounds are applied by repeated squaring of the one-round matrix, so
r = 10**4 costs only ~14 matrix products.

Run:  python demos/03_trotter_error_convergence.py
"""

import math

import numpy as np

from syklab.model import sample_dense
from syklab.trotter import build_schedule, fixed_state_error, observed_error

n, k, t = 8, 4, 1.0
inst = sample_dense(n, k, seed=11)
dim = 2 ** (n // 2)

print(f"SYK n={n}, k={k}, Gamma={inst.gamma_count}, t={t}")
print("\nnormalized Frobenius error vs Trotter number:")
print(f"{'r':>6}  {'l=1':>12}  {'ratio':>6}  {'l=2':>12}  {'ratio':>6}")
prev = {1: None, 2: None}
for r in (64, 128, 256, 512):
    errs = {l: observed_error(inst, l, t, r, 2) for l in (1, 2)}
    ratios = {
        l: (f"{prev[l] / errs[l]:.3f}" if prev[l] else "-") for l in (1, 2)
    }
    print(f"{r:>6}  {errs[1]:>12.4e}  {ratios[1]:>6}  "
          f"{errs[2]:>12.4e}  {ratios[2]:>6}")
    prev = errs
print("expected ratios: 2 (first order), 4 (second order)")

# schedule structure: S_1 is one forward sweep over the terms, S_2 a reverse
# then a forward sweep at scale 1/2, and Suzuki's recursion makes S_4 five S_2
# factors, so a round of S_l has Upsilon sweeps over the terms
print()
for l in (1, 2, 4):
    print(f"sweeps per round of S_{l}: Upsilon = {build_schedule(l).stages}")

# The fixed-state error ||E psi|| and the spectral error ||E||_inf come from
# the same error operator E = exp(iHt) - S_2(t/r)**r, so the first can never
# exceed the second.
rng = np.random.default_rng(5)
state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
state /= np.linalg.norm(state)
r = 128
fixed = fixed_state_error(inst, 2, t, r, state)
spectral = observed_error(inst, 2, t, r, math.inf)
print(f"\nfixed-state error {fixed:.4e} <= spectral error {spectral:.4e}: "
      f"{fixed <= spectral + 1e-12}")
