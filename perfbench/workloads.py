"""Benchmark workloads: the operations of one job and their correctness checks.

A job is a fixed list of operations, each one call into rvol's public
API. Every call looks its function up on the module at call time
(``mc.price``, ``bergomi.fractional_joint_covariance``) so that the
traced run's wrappers see it. Checks run after the job, outside its
timing.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import rvol
from rvol import bergomi, mc, quadrature, tables
from rvol.bergomi import BergomiParams
from rvol.kernel import RoughKernelSpec, l2_error_exact
from rvol.schemes import GridSpec, HestonParams

# Published 1e6-path references (mean, 95% half-width) for the euro call
# at strike 1, T = 1, H = 0.1, default HestonParams.
REF_HESTON = {
    ("multifactor-truncated", 160): (0.05801, 1.4e-4),
    ("integrated-multifactor", 160): (0.05696, 1.4e-4),
    # No published value: runs of the code the benchmark was defined on
    # with make_refs.PATHS = 2^20 paths and make_refs.SEED = 7000001.
    ("volterra", 160): (0.057940, 1.39e-4),
    ("hybrid", 160): (0.062307, 1.51e-4),
    ("volterra", 640): (0.057662, 1.38e-4),
    ("multifactor-truncated", 640): (0.057632, 1.38e-4),
}

# Published kernel-error tables. t1-t4: H -> (l2_sq_n, l2_sq_2n, rate);
# t5: H -> (l2_sq_50, l2_sq_200, l2_sq_400, rate); t6: (H, n) -> root error.
REF_TABLES = {
    "t1": {
        0.45: (0.00443, 0.00279, 0.7433),
        0.25: (0.0547, 0.0432, 0.6848),
        0.05: (2.1404, 2.0436, 0.6678),
    },
    "t2": {
        0.45: (0.00024, 0.00015, 0.80020),
        0.25: (0.0413, 0.0313, 0.80016),
        0.05: (2.0313, 1.9218, 0.80003),
    },
    "t3": {
        0.45: (0.00627, 0.00357, 0.9064),
        0.25: (0.0628, 0.0462, 0.8838),
        0.05: (2.1869, 2.0594, 0.8669),
    },
    "t4": {
        0.45: (0.00046, 0.00027, 0.8713),
        0.25: (0.0588, 0.0434, 0.8754),
        0.05: (2.177, 2.048, 0.8792),
    },
    "t5": {
        0.45: (1.631e-6, 5.866e-7, 3.520e-7, 0.819),
        0.25: (8.305e-5, 4.567e-5, 3.412e-5, 0.841),
        0.05: (0.01120, 0.002547, 0.002408, 0.806),
    },
    "t6": {
        (0.45, 10): 0.00209,
        (0.45, 20): 0.00107,
        (0.25, 20): 0.0134,
        (0.25, 40): 0.0049,
        (0.05, 40): 0.189,
        (0.05, 80): 0.084,
    },
}
# Tolerances of the acceptance suite: (relative error, absolute rate error).
TABLE_TOLERANCE = {
    "t1": (0.05, 0.05),
    "t2": (0.02, 0.005),
    "t3": (0.05, 0.05),
    "t4": (0.05, 0.05),
    "t5": (0.05, 0.05),
    "t6": (0.10, None),
}

# Squared L2 error on (0, 1) of build_systematic(H, n_total) as computed
# by the code the benchmark was defined on; a build may match or beat it.
REF_SYSTEMATIC = {
    (0.05, 20): 1.440194e-01, (0.05, 40): 3.588380e-02,
    (0.05, 80): 7.113585e-03, (0.05, 160): 1.173495e-03,
    (0.1, 20): 1.408585e-02, (0.1, 40): 2.729716e-03,
    (0.1, 80): 4.360494e-04, (0.1, 160): 5.828185e-05,
    (0.25, 20): 1.783192e-04, (0.25, 40): 2.419166e-05,
    (0.25, 80): 5.467071e-06, (0.25, 160): 2.980586e-06,
    (0.45, 20): 1.143411e-06, (0.45, 40): 7.814548e-07,
    (0.45, 80): 5.447020e-07, (0.45, 160): 3.458471e-07,
}  # fmt: skip
SYSTEMATIC_SLACK = 1e-3

HESTON_HURST = 0.1
HESTON_FACTORS = 100
# factors of the 100-factor H = 0.1 kernel kept by truncate_factors on T = 1
KEPT_FACTORS = {160: 55, 640: 57}
SMILE_GRID = GridSpec(T=0.041, N=20)
SMILE_FACTORS = 40
SMILE_LOG_STRIKES = np.linspace(-0.10, 0.05, 16)
SMILE_BAND_SHARE = 0.90
# The band is the exact price +- 2 exact-mode 95% half-widths. Both modes
# share their price-driving normals, so the mode difference is much less
# noisy than either price: at 32768 paths it stayed within 1.5
# half-widths on seeds 0-63. One half-width (the acceptance test's band)
# rejected seeds 13 and 15 on that noise. Two still reject the biased
# 8-factor kernel on seeds 0-7 (selftest.py checks that a 6-factor
# kernel fails).
SMILE_BAND_WIDTHS = 2.0
BLOCK = 16384  # rvol.mc's fixed path-block size


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One public-API call of a job with the check its output must pass."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    path_steps: int = 0


def clear_package_caches():
    """Empty every functools cache defined in an rvol module."""
    for info in pkgutil.iter_modules(rvol.__path__):
        module = importlib.import_module(f"rvol.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def _heston_check(scheme: str, n_steps: int):
    ref_mean, ref_half = REF_HESTON[(scheme, n_steps)]

    def check(report):
        _require(
            math.isfinite(report.mean) and math.isfinite(report.half_width_95),
            f"{scheme} N={n_steps}: non-finite estimate",
        )
        tolerance = 3.0 * math.hypot(report.half_width_95, ref_half)
        _require(
            abs(report.mean - ref_mean) <= tolerance,
            f"{scheme} N={n_steps}: mean {report.mean:.6f} vs reference "
            f"{ref_mean:.6f} (tolerance {tolerance:.2e})",
        )

    return check


def smile_check(params: BergomiParams, grid: GridSpec):
    def check(rows):
        _require(len(rows) == 2 * SMILE_LOG_STRIKES.size, f"{len(rows)} smile rows")
        _require(all(math.isfinite(row[4]) for row in rows), "non-finite implied vol")
        exact = {k: (mean, half) for mode, k, mean, half, _ in rows if mode == "exact"}
        multi = {k: vol for mode, k, _, _, vol in rows if mode == "multifactor"}
        inside = 0
        for k, (mean, half) in exact.items():
            strike = math.exp(k)
            width = SMILE_BAND_WIDTHS * half
            intrinsic = max(params.S0 - strike, 0.0)
            lo = bergomi.implied_vol(max(mean - width, intrinsic), params.S0, strike, grid.T)
            hi = (
                bergomi.implied_vol(mean + width, params.S0, strike, grid.T)
                if mean + width < params.S0
                else math.inf
            )
            inside += lo <= multi[k] <= hi
        _require(
            inside >= SMILE_BAND_SHARE * len(exact),
            f"only {inside}/{len(exact)} multifactor vols inside the exact band",
        )

    return check


def _close(value, ref, rel, what):
    _require(abs(value - ref) <= rel * abs(ref), f"{what}: {value:.6g} vs {ref:.6g}")


def _table_check(table_id: str):
    refs = REF_TABLES[table_id]
    rel, rate_tol = TABLE_TOLERANCE[table_id]

    def check(result):
        _, rows = result
        _require(len(rows) == len(refs), f"{table_id}: {len(rows)} rows")
        for row in rows:
            if table_id == "t6":
                H, n_total, err = row
                _close(err, refs[(H, n_total)], rel, f"t6 H={H} n={n_total}")
                continue
            H, errs, rate = row[0], row[-4 if table_id == "t5" else -3 : -1], row[-1]
            for value, ref in zip(errs, refs[H][:-1]):
                _close(value, ref, rel, f"{table_id} H={H}")
            _require(
                abs(rate - refs[H][-1]) <= rate_tol,
                f"{table_id} H={H}: rate {rate:.5f} vs {refs[H][-1]}",
            )

    return check


def _systematic_check(H: float, n_total: int):
    def check(kernel):
        _require(kernel.n == n_total, f"systematic H={H}: {kernel.n} factors")
        err = l2_error_exact(RoughKernelSpec(H), kernel, 1.0)
        ref = REF_SYSTEMATIC[(H, n_total)]
        _require(
            0.0 < err <= ref * (1.0 + SYSTEMATIC_SLACK),
            f"systematic H={H} n={n_total}: squared error {err:.6e} above {ref:.6e}",
        )

    return check


def _covariance_check(H: float, grid: GridSpec):
    def check(cov):
        n = grid.N
        _require(cov.shape == (2 * n, 2 * n), f"covariance shape {cov.shape}")
        _require(bool(np.all(np.isfinite(cov))), "non-finite covariance")
        _require(np.array_equal(cov, cov.T), "covariance not symmetric")
        t = np.arange(1, n + 1) * grid.dt
        closed = np.concatenate([t, t ** (2.0 * H) / (2.0 * H)])
        _require(
            np.allclose(np.diag(cov), closed, rtol=1e-12, atol=0.0),
            "covariance diagonal differs from the closed form",
        )

    return check


@dataclass(frozen=True)
class HestonWorkload:
    """Rough Heston euro call at strike 1, T = 1, priced by several schemes."""

    name: str
    why: str
    schemes: tuple
    n_steps: int
    paths: int
    cold = False  # caches stay warm between jobs

    @property
    def grid(self) -> GridSpec:
        return GridSpec(T=1.0, N=self.n_steps)

    def setup(self):
        kernel = mc.systematic_kernel(HESTON_HURST, HESTON_FACTORS, self.grid.T)
        quadrature.truncate_factors(kernel, self.grid.T, self.n_steps)

    def ops(self, seed: int):
        cfg = mc.McConfig(paths=self.paths, seed=seed, workers=1)

        def op(scheme):
            model = mc.HestonModel(scheme=scheme, params=HestonParams(), hurst=HESTON_HURST)
            return Op(
                f"price.{scheme}",
                lambda: mc.price(model, mc.euro_call(1.0), self.grid, cfg),
                _heston_check(scheme, self.n_steps),
                self.paths * self.n_steps,
            )

        return [op(scheme) for scheme in self.schemes]

    def exact_counts(self) -> dict:
        comps = sum(3 if s == "hybrid" else 2 for s in self.schemes)
        return {
            "mc.blocks": len(self.schemes) * -(-self.paths // BLOCK),
            "mc.normals": self.paths * self.n_steps * comps,
            "mc.normals_useful_frac": 1.0,
            "mc.nonfinite": 0,
            "quadrature.n_factors": HESTON_FACTORS,
            "quadrature.n_kept": KEPT_FACTORS[self.n_steps],
        }


@dataclass(frozen=True)
class SmileWorkload:
    """Short-maturity rough Bergomi smile, exact and multifactor modes."""

    name: str
    why: str
    paths: int
    cold = False  # caches stay warm between jobs

    def setup(self):
        params = BergomiParams()
        mc.systematic_kernel(params.H, SMILE_FACTORS, SMILE_GRID.T)
        bergomi.fractional_joint_covariance(params.spec, SMILE_GRID)

    def ops(self, seed: int):
        params = BergomiParams()
        cfg = mc.McConfig(paths=self.paths, seed=seed, workers=1)
        return [
            Op(
                "smile",
                lambda: mc.bergomi_smile(
                    params, SMILE_GRID, cfg, SMILE_LOG_STRIKES, kernel_factors=SMILE_FACTORS
                ),
                smile_check(params, SMILE_GRID),
                2 * self.paths * SMILE_GRID.N,
            )
        ]

    def exact_counts(self) -> dict:
        rank = 18  # numerical rank of factor_step_law at H = 0.07, 40 factors, dt = T/20
        blocks = -(-self.paths // BLOCK)
        steps = self.paths * SMILE_GRID.N
        exact_comps, multi_comps = 3, SMILE_FACTORS + 2
        return {
            "mc.blocks": 2 * blocks,
            "mc.normals": steps * (exact_comps + multi_comps),
            # of the multifactor mode's draws only: 20/42
            "mc.normals_useful_frac": (2 + rank) / multi_comps,
            "mc.nonfinite": 0,
            "bergomi.factor_rank": rank,
            "bergomi.implied_vol.calls": 2 * SMILE_LOG_STRIKES.size,
            "bergomi.implied_vol.failed": 0,
            "numerics.psd_factorize.calls": 2 * blocks,
        }


KERNEL_HURSTS = (0.05, 0.1, 0.25, 0.45)
KERNEL_SIZES = (20, 40, 80, 160)
COVARIANCE_H = 0.07
COVARIANCE_GRID = GridSpec(T=1.0, N=80)


@dataclass(frozen=True)
class KernelSetupWorkload:
    """Deterministic precomputation from cold caches: tables, builds, covariance."""

    name: str
    why: str
    cold = True  # caches are emptied before every job

    def setup(self):
        pass  # the job itself is the set-up work, run from cold caches

    def ops(self, seed: int):
        ops = [
            Op(f"table.{t}", lambda t=t: tables.table_rows(t), _table_check(t))
            for t in ("t1", "t2", "t3", "t4", "t5", "t6")
        ]
        for H in KERNEL_HURSTS:
            for n_total in KERNEL_SIZES:
                ops.append(
                    Op(
                        f"build_systematic.H{H}.n{n_total}",
                        lambda H=H, n=n_total: quadrature.build_systematic(
                            RoughKernelSpec(H), n, 1.0
                        ),
                        _systematic_check(H, n_total),
                    )
                )
        ops.append(
            Op(
                "covariance",
                lambda: bergomi.fractional_joint_covariance(
                    RoughKernelSpec(COVARIANCE_H), COVARIANCE_GRID
                ),
                _covariance_check(COVARIANCE_H, COVARIANCE_GRID),
            )
        )
        return ops

    def exact_counts(self) -> dict:
        n = COVARIANCE_GRID.N
        return {
            "mc.blocks": 0,
            "mc.normals": 0,
            "mc.normals_useful_frac": 1.0,
            "numerics.integrate.calls": n * (n - 1) // 2,
            "numerics.integrate.failed": 0,
            "quadrature.build_systematic.calls": 6 + len(KERNEL_HURSTS) * len(KERNEL_SIZES),
            "quadrature.objective_evals": 1078,
            "kernel.l2_error_exact.calls": 1117,
            "numerics.lower_incomplete_gamma.calls": 76386,
        }


WORKLOADS = {
    w.name: w
    for w in (
        HestonWorkload(
            "heston-desk",
            "desk configuration of tables t7/t9: four schemes at N=160 on 32768 paths; "
            "engine and Gaussian stream split the time, payoff at a large path count",
            ("volterra", "multifactor-truncated", "hybrid", "integrated-multifactor"),
            n_steps=160,
            paths=32768,
        ),
        HestonWorkload(
            "heston-fine",
            "O(N^2) vs O(nN) crossover at N=640 on one 8192-path block; "
            "the engine step loop dominates",
            ("volterra", "multifactor-truncated"),
            n_steps=640,
            paths=8192,
        ),
        SmileWorkload(
            "bergomi-smile",
            "short-maturity smile, both modes: no Heston engine, Gaussian generation "
            "dominates, plus per-block Cholesky and implied-vol inversion",
            paths=32768,
        ),
        KernelSetupWorkload(
            "kernel-setup",
            "cold deterministic precomputation (tables t1-t6, 16 systematic builds, "
            "Bergomi covariance): quadrature, kernel and numerics do the work",
        ),
    )
}


def toy(workload, paths: int = 512):
    """A smaller copy for the self-test: fewer paths, same grids and kernels."""
    return replace(workload, paths=paths) if hasattr(workload, "paths") else workload
