"""Spectral tools: nonnegative spectral radius and H-eigenpair search.

Run:  python3 demos/04_spectral.py
"""

import numpy as np

from ptensor import (
    SearchBudget,
    all_ones_tensor,
    diagonal_tensor,
    find_h_eigenpairs,
    nqz_spectral_radius,
    verify_eigenpair,
)
from ptensor.generators import reference_counterexample

# The all-ones tensor has radius n^(m-1) with the uniform principal vector.
res = nqz_spectral_radius(all_ones_tensor(3, 2))
print(f"rho(all-ones, m=3, n=2) = {res.rho:.12f}  (exact value 4)")
print("  bracket:", res.bracket, " iterations:", res.iterations)

# Reducible case: a diagonal tensor.  The all-ones perturbation keeps the
# iterate positive; the reported radius subtracts the perturbation bound.
res2 = nqz_spectral_radius(diagonal_tensor([3.0, 5.0], 3))
print(f"\nrho(diag(3,5), m=3) = {res2.rho:.12f}  (exact value 5)")
print("  reported uncertainty:", res2.uncertainty)

# The bracket it maintains is monotone: lower bounds rise, upper bounds fall.
# The bracket after k steps is the result of a run capped at k steps.
ones = all_ones_tensor(3, 3)
steps = min(3, nqz_spectral_radius(ones).iterations)
brackets = [nqz_spectral_radius(ones, max_iter=k).bracket for k in range(1, steps + 1)]
print("\nfirst bracket steps for the 3x3x3 all-ones tensor:",
      [(round(lo, 6), round(hi, 6)) for lo, hi in brackets])

# H-eigenpairs by residual minimization.  For a diagonal tensor the pairs
# are the diagonal entries with coordinate eigenvectors.
D = diagonal_tensor([1.0, 2.0, 3.0], 3)
pairs = find_h_eigenpairs(D, SearchBudget(seed=0, starts=40))
print("\ndiag(1,2,3) H-eigenpairs found:")
for p in pairs:
    print(f"  lambda = {p.value:.10f}   x = {np.round(p.vector, 8)}   residual = {p.residual:.2e}")

# The search is heuristic: it reports what it finds and verifies each pair.
R = reference_counterexample()
pairs = find_h_eigenpairs(R, SearchBudget(seed=0, starts=60))
print("\ncounterexample tensor: found", len(pairs), "pairs, eigenvalues",
      sorted(round(p.value, 6) for p in pairs))
print("  all verify:", all(verify_eigenpair(R, p, 1e-9) for p in pairs),
      " all positive:", all(p.value > 0 for p in pairs))
