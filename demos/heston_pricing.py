"""Rough Heston pricing: direct Euler vs multifactor Euler.

The direct scheme convolves the whole history at every step (O(N^2)
work); the multifactor scheme runs damped factor recursions (O(n N))
on the systematic kernel truncated to the factors that survive one
time step. Both land on the same price within Monte Carlo noise, but
the multifactor scheme's cost grows linearly in the step count.

Run time is a couple of minutes at the default 50k paths.
"""

from rvol import GridSpec, euro_call, lookback_call, price
from rvol.mc import HestonModel, McConfig, systematic_kernel
from rvol.quadrature import truncate_factors

PATHS = 50_000
cfg = McConfig(paths=PATHS, seed=7)

kernel = systematic_kernel(0.1, 100, 1.0)
print(f"systematic kernel: {kernel.n} factors")
for N in (40, 160):
    _, kept = truncate_factors(kernel, 1.0, N)
    print(f"  factors kept at N={N}: {kept}")

print(f"\nEuropean call, strike 1.0, {PATHS} paths")
print(f"{'N':>5} {'multifactor':>22} {'direct':>22}")
for N in (40, 160, 320):
    grid = GridSpec(T=1.0, N=N)
    fast = price(HestonModel(scheme="multifactor-truncated"), euro_call(1.0), grid, cfg)
    direct = price(HestonModel(scheme="volterra"), euro_call(1.0), grid, cfg)
    print(
        f"{N:>5} {fast.mean:>10.5f} ({fast.wall_seconds:>5.1f}s)"
        f" {direct.mean:>15.5f} ({direct.wall_seconds:>5.1f}s)"
    )
print("direct-scheme time grows quadratically in N, multifactor linearly")

print(f"\nlookback call, strike 1.0, N = 80")
grid = GridSpec(T=1.0, N=80)
report = price(HestonModel(scheme="multifactor-truncated"), lookback_call(1.0), grid, cfg)
print(f"  multifactor: {report.mean:.5f} +- {report.half_width_95:.1e}")

print("\nintegrated-variance variant (lower bias for the European call)")
report = price(HestonModel(scheme="integrated-multifactor"), euro_call(1.0), GridSpec(T=1.0, N=160), cfg)
print(f"  integrated multifactor N=160: {report.mean:.5f} +- {report.half_width_95:.1e}")
print("  transform-method reference value: 0.05683")
