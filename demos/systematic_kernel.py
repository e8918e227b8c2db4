"""The systematic kernel, step by step.

Starting from the barycentric interval rule on [0, K), each step of the
construction removes an error source: the geometric tail extends the
covered rate range by a factor A^n, the ratio A is then optimized, and
finally all weights are rescaled to the L2-best multiple. The script
prints the error after each step for H = 0.05, where truncation hurts
the most, and writes the final 80-factor kernel to a CSV.
"""

import math

from rvol import RoughKernelSpec, l2_error_exact, write_kernel_csv
from rvol.quadrature import (
    build_geometric,
    build_riemann,
    build_systematic,
    optimize_tail_ratio,
    rescale_weights,
)

H = 0.05
HORIZON = 1.0
n_half = 40  # 80 factors total
K = float(n_half) ** 0.8
spec = RoughKernelSpec(H)

plain = build_riemann(spec, 2 * n_half)  # K = (2 n_half)^(4/5)
print(f"interval rule, 80 factors:        err^2 = {l2_error_exact(spec, plain, HORIZON):.5g}")

geo = build_geometric(spec, n_half, 3.0, K)
print(f"+ geometric tail (A=3):           err^2 = {l2_error_exact(spec, geo, HORIZON):.5g}")

ratio, err = optimize_tail_ratio(spec, n_half, K, HORIZON)
print(f"+ optimized ratio (A*={ratio:.3f}):    err^2 = {err:.5g}")

best = build_geometric(spec, n_half, ratio, K)
rescaled, scale = rescale_weights(spec, best, HORIZON)
final = l2_error_exact(spec, rescaled, HORIZON)
print(f"+ weight rescale (xi*={scale:.4f}):  err^2 = {final:.5g}")
print(f"root L2 error of the final kernel: {math.sqrt(final):.4f}")

assert build_systematic(spec, 2 * n_half, HORIZON) == rescaled

write_kernel_csv(rescaled, "systematic_h005_n80.csv")
print("kernel written to systematic_h005_n80.csv")
