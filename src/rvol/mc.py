"""Monte Carlo engine.

Pricing runs are reproducible by construction: every Gaussian draw is a
pure function of (seed, path index, step index, component index)
through a counter-based hash, so path p consumes the same numbers no
matter how paths are partitioned across workers, and two schemes priced
with the same seed consume common random numbers wherever their draw
layouts agree. Gaussians come from the inverse normal CDF applied to
the hashed uniforms.

Layout: :meth:`CounterRng.normals_block` fills a C-ordered
(components, steps, paths) buffer and returns it as a transposed
(paths, steps, components) view. Every per-component slice
``normals[:, :, c]`` is then a (paths, steps) array whose transpose is
C-ordered, which is the step-major layout the engines of
:mod:`rvol.schemes` and :mod:`rvol.bergomi` work in. Descriptors pass
such slices straight through: the engines take standard normals and
form each step's increments themselves, so no (paths, N) increment
array is formed. Callers may equally pass C-ordered arrays of the same
shapes, at the cost of one transposing copy. When only prices are
needed (:meth:`HestonModel.simulate`), the engines run with
``prices_only=True`` and keep their state rows in a ring of two step
blocks plus row 0, so a priced block holds the normals, the
(N+1, paths) log price, and the (n, paths) factors of a factor scheme
or the (N, paths) history of step terms of a direct one.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .bergomi import BergomiParams, implied_vol, simulate_bergomi, step_components
from .kernel import ExpSumKernel, RoughKernelSpec
from .numerics import require_count, require_integer, require_positive
from .quadrature import build_systematic, truncate_factors
from .schemes import (
    GridSpec,
    HestonParams,
    HestonPaths,
    IntegratedPaths,
    heston_hybrid_multifactor,
    heston_integrated_multifactor,
    heston_integrated_volterra,
    heston_multifactor_euler,
    heston_volterra_euler,
)

__all__ = [
    "McConfig",
    "McReport",
    "CounterRng",
    "Payoff",
    "euro_call",
    "lookback_call",
    "PathStats",
    "HestonModel",
    "BergomiModel",
    "HESTON_SCHEMES",
    "BERGOMI_MODES",
    "price",
    "paired_compare",
    "rate_factor_estimate",
    "bergomi_smile",
    "systematic_kernel",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED_SALT = 0x5851F42D4C957F2D
_KEY_SALT = 0xD1342543DE82EF95
_COMP_STRIDE = 4096  # max components per step

# Fixed reduction granularity: results are identical for any worker count.
_BLOCK = 16384
# Entries hashed per tile in normals_block: the tile's uint64 and float64
# scratch stay resident in L2 cache.
_CHUNK = 16384


def _mix_scalar(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix_inplace(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`_mix_scalar` on a uint64 array, in place; ``tmp`` is same-shape scratch."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _MIX_M1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _MIX_M2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


class CounterRng:
    """Counter-based Gaussian stream keyed by (seed, path, step, component)."""

    def __init__(self, seed: int):
        self._base = _mix_scalar((int(seed) & _MASK) ^ _SEED_SALT)

    def _keys(self, n_steps: int, n_comp: int) -> np.ndarray:
        """Per-(component, step) stream keys, shape (n_comp, n_steps)."""
        counter = np.arange(n_comp, dtype=np.uint64)[:, None] + np.arange(
            n_steps, dtype=np.uint64
        )[None, :] * np.uint64(_COMP_STRIDE)
        keys = np.uint64(self._base) ^ (counter * np.uint64(_KEY_SALT))
        return _mix_inplace(keys, np.empty_like(keys))

    def normals_block(self, path_ids: np.ndarray, n_steps: int, n_comp: int):
        """Standard normals of shape (len(path_ids), n_steps, n_comp).

        The result is a transposed view of a C-ordered (n_comp, n_steps,
        paths) buffer: ``normals[:, k, c]`` is a contiguous row, and
        ``normals[:, :, c].T`` a C-ordered (n_steps, paths) array.
        """
        if n_comp >= _COMP_STRIDE:
            raise ValueError(f"at most {_COMP_STRIDE - 1} components per step")
        keys = self._keys(n_steps, n_comp).reshape(-1, 1)
        offsets = np.asarray(path_ids).astype(np.uint64) * _GOLDEN
        n_paths = offsets.size
        out = np.empty((n_comp, n_steps, n_paths))
        rows = out.reshape(-1, n_paths)
        # each chunk is a (row_step, col_step) tile of at most _CHUNK entries
        col_step = max(1, min(n_paths, _CHUNK))
        row_step = max(1, _CHUNK // col_step)
        hashed = np.empty(row_step * col_step, dtype=np.uint64)
        scratch = np.empty_like(hashed)
        for r0 in range(0, rows.shape[0], row_step):
            for c0 in range(0, n_paths, col_step):
                tile = rows[r0 : r0 + row_step, c0 : c0 + col_step]
                h = hashed[: tile.size].reshape(tile.shape)
                np.add(keys[r0 : r0 + row_step], offsets[c0 : c0 + col_step], out=h)
                _mix_inplace(h, scratch[: tile.size].reshape(tile.shape))
                h >>= np.uint64(11)
                np.add(h, 0.5, out=tile)
                tile *= 2.0**-53
                ndtri(tile, out=tile)
        return out.transpose(2, 1, 0)


@dataclass(frozen=True)
class McConfig:
    """Path count, base seed and worker count for a Monte Carlo run."""

    paths: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # stored as Python ints, so that a report of numpy integers serializes
        object.__setattr__(self, "paths", require_count(self.paths, "paths"))
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        object.__setattr__(self, "workers", require_count(self.workers, "workers"))


@dataclass
class McReport:
    """Monte Carlo estimate with its 95% confidence half-width."""

    mean: float
    half_width_95: float
    paths: int
    wall_seconds: float
    seed: int | None = None
    descriptor: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


_PAYOFF_KINDS = ("euro_call", "lookback_call")


@dataclass(frozen=True)
class Payoff:
    """Call struck at ``strike`` on the terminal price or on the running maximum."""

    kind: str
    strike: float

    def __post_init__(self):
        if self.kind not in _PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}; expected one of {_PAYOFF_KINDS}")
        if not math.isfinite(self.strike):
            raise ValueError(f"strike must be finite, got {self.strike!r}")

    def evaluate(self, stats: "PathStats") -> np.ndarray:
        underlying = stats.terminal if self.kind == "euro_call" else stats.running_max
        return np.maximum(underlying - self.strike, 0.0)


def euro_call(strike: float) -> Payoff:
    return Payoff("euro_call", strike)


def lookback_call(strike: float) -> Payoff:
    return Payoff("lookback_call", strike)


@dataclass
class PathStats:
    """Terminal price and running maximum price per path."""

    terminal: np.ndarray
    running_max: np.ndarray


def _path_stats(paths) -> PathStats:
    """Terminal and running-max prices of a batch of (paths, N+1) log-price paths."""
    log_price = paths.log_price
    return PathStats(
        terminal=np.exp(log_price[:, -1]),
        running_max=np.exp(log_price.max(axis=1)),
    )


@lru_cache(maxsize=16)
def systematic_kernel(H: float, n_total: int, T: float) -> ExpSumKernel:
    """Cached systematic kernel shared by the factor-based descriptors."""
    return build_systematic(RoughKernelSpec(H), n_total, T)


HESTON_SCHEMES = (
    "volterra",
    "multifactor",
    "multifactor-truncated",
    "hybrid",
    "integrated-volterra",
    "integrated-multifactor",
)
_ROUGH_SCHEMES = ("volterra", "integrated-volterra")  # they build no exponential sum


@dataclass(frozen=True)
class HestonModel:
    """Rough Heston pricing descriptor: scheme plus model and kernel choices.

    The scheme fixes the kernel: the rough kernel of ``hurst`` for the
    direct schemes, which raise ``ValueError`` if given ``kernel_factors``,
    else the systematic kernel with ``kernel_factors`` factors (None: 100)
    on the grid horizon; the truncated, hybrid and integrated-multifactor
    schemes drop the factors that vanish within one step.
    """

    scheme: str
    params: HestonParams = field(default_factory=HestonParams)
    hurst: float = 0.1
    kernel_factors: int | None = None

    def __post_init__(self):
        if self.scheme not in HESTON_SCHEMES:
            raise ValueError(
                f"unknown heston scheme {self.scheme!r}; expected one of {HESTON_SCHEMES}"
            )
        if self.scheme in _ROUGH_SCHEMES and self.kernel_factors is not None:
            raise ValueError(
                f"scheme {self.scheme!r} runs on the rough kernel; it reads no kernel_factors"
            )

    @property
    def label(self) -> str:
        return f"heston:{self.scheme}"

    def components_per_step(self, grid: GridSpec) -> int:
        return 3 if self.scheme == "hybrid" else 2

    def resolve_kernel(self, grid: GridSpec):
        """The scheme's kernel on ``grid``: a :class:`RoughKernelSpec` or an exponential sum."""
        if self.scheme in _ROUGH_SCHEMES:
            return RoughKernelSpec(self.hurst)
        n_total = 100 if self.kernel_factors is None else self.kernel_factors
        kernel = systematic_kernel(self.hurst, n_total, grid.T)
        if self.scheme == "multifactor":
            return kernel
        return truncate_factors(kernel, grid.T, grid.N)[0]

    def simulate_paths(
        self, grid: GridSpec, normals: np.ndarray
    ) -> HestonPaths | IntegratedPaths:
        """The scheme's paths from (paths, N, comps) normals.

        The integrated schemes return :class:`IntegratedPaths`, the
        others :class:`HestonPaths`.
        """
        return self._run_engine(grid, normals, prices_only=False)

    def simulate(self, grid: GridSpec, normals: np.ndarray) -> PathStats:
        return _path_stats(self._run_engine(grid, normals, prices_only=True))

    def _run_engine(self, grid: GridSpec, normals: np.ndarray, prices_only: bool):
        """The scheme's engine on the normals' component slices."""
        kern = self.resolve_kernel(grid)
        z = [normals[:, :, c] for c in range(normals.shape[2])]
        if self.scheme == "hybrid":
            spec = RoughKernelSpec(self.hurst)
            return heston_hybrid_multifactor(
                self.params, spec, kern, grid, *z, prices_only=prices_only
            )
        # built per call: profilers and tests swap the engines at these names
        engine = {
            "volterra": heston_volterra_euler,
            "multifactor": heston_multifactor_euler,
            "multifactor-truncated": heston_multifactor_euler,
            "integrated-volterra": heston_integrated_volterra,
            "integrated-multifactor": heston_integrated_multifactor,
        }[self.scheme]
        return engine(self.params, kern, grid, *z, prices_only=prices_only)


BERGOMI_MODES = ("exact", "multifactor")


@dataclass(frozen=True)
class BergomiModel:
    """Rough Bergomi pricing descriptor: exact or multifactor sampling.

    ``kernel_factors`` is the total factor count of the multifactor
    mode's systematic kernel (None: 40, geometric half-count 20, which
    keeps the multifactor smile within the exact sampler's Monte Carlo
    band). The exact mode runs on the rough kernel and raises
    ``ValueError`` if given one.
    """

    mode: str
    params: BergomiParams = field(default_factory=BergomiParams)
    kernel_factors: int | None = None

    def __post_init__(self):
        if self.mode not in BERGOMI_MODES:
            raise ValueError(
                f"unknown bergomi mode {self.mode!r}; expected one of {BERGOMI_MODES}"
            )
        if self.mode == "exact" and self.kernel_factors is not None:
            raise ValueError("mode 'exact' runs on the rough kernel; it reads no kernel_factors")

    @property
    def label(self) -> str:
        return f"bergomi:{self.mode}"

    def resolve_kernel(self, grid: GridSpec) -> ExpSumKernel | None:
        """The systematic kernel in multifactor mode, None in exact mode."""
        if self.mode == "exact":
            return None
        n_total = 40 if self.kernel_factors is None else self.kernel_factors
        return systematic_kernel(self.params.H, n_total, grid.T)

    def components_per_step(self, grid: GridSpec) -> int:
        return step_components(self.resolve_kernel(grid))

    def simulate_paths(self, grid: GridSpec, normals: np.ndarray) -> HestonPaths:
        """Price and variance paths from (paths, N, comps) normals."""
        return simulate_bergomi(self.params, grid, self.resolve_kernel(grid), normals=normals)

    def simulate(self, grid: GridSpec, normals: np.ndarray) -> PathStats:
        return _path_stats(self.simulate_paths(grid, normals))


def _block_ranges(paths: int):
    return [(lo, min(lo + _BLOCK, paths)) for lo in range(0, paths, _BLOCK)]


def simulate_stats(model, grid: GridSpec, cfg: McConfig) -> PathStats:
    """Terminal and running-max prices for all configured paths.

    Paths are generated in fixed-size blocks whose draws depend only on
    the seed and global path indices; blocks may be computed by several
    workers but are assembled in index order, so the result is
    bit-identical for any worker count. The descriptor's kernel is
    resolved first, so a kernel it cannot build raises before any draw.
    """
    model.resolve_kernel(grid)
    rng = CounterRng(cfg.seed)
    comps = model.components_per_step(grid)
    terminal = np.empty(cfg.paths)
    running_max = np.empty(cfg.paths)

    def run_block(block):
        lo, hi = block
        ids = np.arange(lo, hi, dtype=np.uint64)
        normals = rng.normals_block(ids, grid.N, comps)
        stats = model.simulate(grid, normals)
        terminal[lo:hi] = stats.terminal
        running_max[lo:hi] = stats.running_max

    blocks = _block_ranges(cfg.paths)
    if cfg.workers == 1 or len(blocks) == 1:
        for block in blocks:
            run_block(block)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(run_block, blocks))
    return PathStats(terminal=terminal, running_max=running_max)


def _half_width(values: np.ndarray) -> float:
    """95% confidence half-width of the mean of ``values`` (0 for one value)."""
    if values.size < 2:
        return 0.0
    return 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)


def _finite(values: np.ndarray, descriptor: str) -> np.ndarray:
    """``values``, after checking that every payoff is finite."""
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise ValueError(f"{descriptor}: {bad} of {values.size} payoff values are not finite")
    return values


def _label(model, payoff: Payoff) -> str:
    return f"{model.label}|{payoff.kind}({payoff.strike})"


def _estimate(model, payoff: Payoff, stats: PathStats) -> tuple[float, float]:
    """Payoff mean and 95% half-width; ``ValueError`` if a payoff is not finite."""
    values = _finite(payoff.evaluate(stats), _label(model, payoff))
    return float(values.mean()), _half_width(values)


def price(model, payoff: Payoff, grid: GridSpec, cfg: McConfig) -> McReport:
    """Monte Carlo price of the payoff under the descriptor's scheme.

    Raises ``ValueError`` naming the descriptor if any payoff value is
    NaN or infinite.
    """
    start = time.perf_counter()
    mean, half_width = _estimate(model, payoff, simulate_stats(model, grid, cfg))
    return McReport(
        mean=mean,
        half_width_95=half_width,
        paths=cfg.paths,
        wall_seconds=time.perf_counter() - start,
        seed=cfg.seed,
        descriptor=_label(model, payoff),
    )


def paired_compare(model_a, model_b, payoff: Payoff, grid: GridSpec, cfg: McConfig):
    """Mean and half-width of payoff_a - payoff_b under common random numbers.

    Both descriptors must consume the same per-step component layout so
    that the shared counter stream couples them path by path. Both
    kernels are resolved before either descriptor draws.
    """
    if model_a.components_per_step(grid) != model_b.components_per_step(grid):
        raise ValueError("incompatible increment stream shapes")
    for model in (model_a, model_b):
        model.resolve_kernel(grid)
    payoff_a, payoff_b = (
        _finite(payoff.evaluate(simulate_stats(model, grid, cfg)), _label(model, payoff))
        for model in (model_a, model_b)
    )
    diff = payoff_a - payoff_b
    return float(diff.mean()), _half_width(diff)


def rate_factor_estimate(err_n: float, err_2n: float, H: float) -> float:
    """Empirical convergence-rate factor from errors at n and 2n factors.

    For squared errors decaying like n^(-2 H g), the estimator
    log(err_n / err_2n) / (2 H log 2) recovers g.
    """
    err_n = require_positive(err_n, "err_n")
    err_2n = require_positive(err_2n, "err_2n")
    H = require_positive(H, "H")
    return math.log(err_n / err_2n) / (2.0 * H * math.log(2.0))


def _strike(k: float) -> float:
    """exp(k); ``ValueError`` naming k unless k and exp(k) are finite and exp(k) > 0."""
    try:
        strike = math.exp(k)
    except OverflowError:
        strike = math.inf
    if not (math.isfinite(k) and 0.0 < strike < math.inf):
        raise ValueError(f"log strike k = {k} has no finite positive strike exp(k)")
    return strike


def bergomi_smile(
    params: BergomiParams,
    grid: GridSpec,
    cfg: McConfig,
    log_strikes,
    kernel_factors: int | None = None,
):
    """Implied-vol smile rows for both sampling modes at shared strikes.

    Both modes run from the same seed: their draw layouts place the
    price-driving components first, so the Brownian increments of the
    price are common random numbers and mode differences reflect the
    kernel approximation rather than independent Monte Carlo noise.
    ``kernel_factors`` goes to the multifactor mode only (None: its
    default). Returns rows (mode, k, price, ci_halfwidth, implied_vol).

    Raises ``ValueError`` before any simulation for an empty strike
    list, a log strike k that is not finite or whose exp(k) is not a
    finite positive float, or a ``kernel_factors`` the systematic kernel
    rejects; and after both modes, listing every strike whose Monte
    Carlo price has no implied volatility: a sampled price below
    intrinsic value, or one equal to it (as when no path ends past the
    strike), for which :func:`implied_vol` would report 0.
    """
    ks = np.atleast_1d(np.asarray(log_strikes, dtype=float)).tolist()
    if not ks:
        raise ValueError("the smile needs at least one log strike")
    strikes = [(k, _strike(k)) for k in ks]
    models = [BergomiModel("exact", params), BergomiModel("multifactor", params, kernel_factors)]
    for model in models:
        model.resolve_kernel(grid)
    rows, failures, cause = [], [], None
    for model in models:
        stats = simulate_stats(model, grid, cfg)
        for k, strike in strikes:
            mean, half_width = _estimate(model, euro_call(strike), stats)
            intrinsic = max(params.S0 - strike, 0.0)
            try:
                vol = None if mean == intrinsic else implied_vol(mean, params.S0, strike, grid.T)
            except ValueError as exc:
                vol, cause = None, exc
            if vol is None:
                failures.append(
                    f"{model.mode} at k = {k}: price {mean} +/- {half_width} "
                    f"against intrinsic value {intrinsic}"
                )
                continue
            rows.append((model.mode, k, mean, half_width, vol))
    if failures:
        raise ValueError("no implied volatility for " + "; ".join(failures)) from cause
    return rows
