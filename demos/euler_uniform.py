"""The paper's second result, seen on simulated paths: the Euler error is
uniform in the approximating multifactor kernel.

For each systematic kernel with n factors, the multifactor Euler scheme
runs at N = 1280 steps as that kernel's own reference, and at coarser N
on the summed reference increments. The table prints the terminal
error E|X_T^N - X_T^ref|^2: it falls with N, and at each N it barely
depends on n, so the step count can be chosen apart from the factor
count. The last column is the largest error across n over the smallest.
The plant is dX = (0.2 - X) dt + (0.3 + 0.1 tanh X) dW, X_0 = 0.1, on
2048 paths.
"""

import math

import numpy as np

from rvol import GridSpec, RoughKernelSpec, SvePlant, build_systematic, multifactor_euler

FINE = 1280
STEPS = (20, 40, 80, 160)
FACTORS = (10, 40, 160, 320)
PATHS = 2048

plant = SvePlant(
    x0=0.1,
    drift=lambda x: 0.2 - x,
    diffusion=lambda x: (0.3 + 0.1 * np.tanh(x))[:, :, None],
)
dw = np.random.default_rng(1).standard_normal((PATHS, FINE, 1)) * math.sqrt(1.0 / FINE)

print(f"E|X_T^N - X_T^ref|^2, reference N = {FINE}")
for H in (0.1, 0.25):
    errors = []
    for n in FACTORS:
        kernel = build_systematic(RoughKernelSpec(H), n, 1.0)
        ref = multifactor_euler(plant, kernel, kernel, GridSpec(1.0, FINE), dw)[:, -1]
        row = []
        for N in STEPS:
            coarse = dw.reshape(PATHS, N, FINE // N, 1).sum(axis=2)
            x = multifactor_euler(plant, kernel, kernel, GridSpec(1.0, N), coarse)[:, -1]
            row.append(float(np.mean((x - ref) ** 2)))
        errors.append(row)
    print(f"H = {H}")
    print(f"{'N':>6}" + "".join(f"{f'n={n}':>12}" for n in FACTORS) + f"{'max/min':>10}")
    for N, column in zip(STEPS, zip(*errors)):
        cells = "".join(f"{err:>12.3e}" for err in column)
        print(f"{N:>6}{cells}{max(column) / min(column):>10.3f}")
