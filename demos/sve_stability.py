"""The paper's L2 stability estimate, seen on simulated paths.

Two Euler schemes for the same stochastic Volterra equation, one with
the rough kernel (direct, O(N^2)) and one with its n-factor systematic
approximation (multifactor, O(n N)), run on shared Brownian increments.
The largest mean squared gap between their states over the grid is
divided by the squared discrete kernel error: the estimate says the
ratio stays bounded while both shrink with n. The plant is
dX = (0.2 - X) dt + (0.3 + 0.1 tanh X) dW, X_0 = 0.1, on 4096 paths.
"""

import math

import numpy as np

from rvol import (
    GridSpec,
    RoughKernelSpec,
    SvePlant,
    build_systematic,
    l2_error_discrete,
    multifactor_euler,
    volterra_euler,
)

grid = GridSpec(T=1.0, N=100)
plant = SvePlant(
    x0=0.1,
    drift=lambda x: 0.2 - x,
    diffusion=lambda x: (0.3 + 0.1 * np.tanh(x))[:, :, None],
)
dw = np.random.default_rng(5).standard_normal((4096, grid.N, 1)) * math.sqrt(grid.dt)

print("max_k E|X_k - X^_k|^2 / l2_error_discrete^2  (squared gap in brackets)")
print(f"{'H':>6}" + "".join(f"{f'n={n}':>20}" for n in (10, 20, 40, 80)))
for H in (0.05, 0.1, 0.25, 0.45):
    spec = RoughKernelSpec(H)
    rough = volterra_euler(plant, spec, spec, grid, dw)
    cells = []
    for n in (10, 20, 40, 80):
        kernel = build_systematic(spec, n, grid.T)
        fast = multifactor_euler(plant, kernel, kernel, grid, dw)
        gap = np.max(np.mean((rough - fast)[:, :, 0] ** 2, axis=0))
        ratio = gap / l2_error_discrete(spec, kernel, grid.T, grid.N) ** 2
        cells.append(f"{ratio:.3f} [{gap:.1e}]")
    print(f"{H:>6}" + "".join(f"{cell:>20}" for cell in cells))
