"""Convergence of interval-rule kernel approximations.

Builds exponential-sum approximations of the rough kernel with midpoint
and barycentric nodes, evaluates their exact L2 errors on (0, 1), and
prints the empirical convergence-rate factors. Barycentric nodes lift
the factor from 2/3 to 4/5 at no extra cost. The builder's default
truncation is the paper's: K = n^(2/3) for midpoint nodes and n^(4/5)
for barycentric ones.
"""

from rvol import RoughKernelSpec, l2_error_exact, rate_factor_estimate
from rvol.quadrature import build_riemann

HORIZON = 1.0

print("midpoint nodes, truncation K = n^(2/3)")
print(f"{'H':>6} {'err(n=50)':>12} {'err(n=100)':>12} {'rate':>8}")
for H in (0.45, 0.25, 0.05):
    spec = RoughKernelSpec(H)
    errs = {}
    for n in (50, 100):
        errs[n] = l2_error_exact(spec, build_riemann(spec, n, node_rule="midpoint"), HORIZON)
    rate = rate_factor_estimate(errs[50], errs[100], H)
    print(f"{H:>6} {errs[50]:>12.5g} {errs[100]:>12.5g} {rate:>8.4f}")

print()
print("barycentric nodes, truncation K = n^(4/5)")
print(f"{'H':>6} {'err(n=50)':>12} {'err(n=100)':>12} {'rate':>8}")
for H in (0.45, 0.25, 0.05):
    spec = RoughKernelSpec(H)
    errs = {}
    for n in (50, 100):
        errs[n] = l2_error_exact(spec, build_riemann(spec, n), HORIZON)
    rate = rate_factor_estimate(errs[50], errs[100], H)
    print(f"{H:>6} {errs[50]:>12.5g} {errs[100]:>12.5g} {rate:>8.4f}")

print()
print("note: for small H the truncated-range error stays O(1); the")
print("geometric tail of demos/systematic_kernel.py is what fixes it")
