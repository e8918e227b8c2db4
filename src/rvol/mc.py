"""Monte Carlo engine.

Pricing runs are reproducible by construction: every Gaussian draw is a
pure function of (seed, path index, step index, component index)
through a counter-based hash, so path p consumes the same numbers no
matter how paths are partitioned across workers, and two schemes priced
with the same seed consume common random numbers wherever their draw
layouts agree. Gaussians come from the inverse normal CDF applied to
the hashed uniforms.

Layout: :meth:`CounterRng.normals_block` draws the paths [lo, hi) of a
run into a C-ordered (components, steps, paths) buffer and returns it
as a transposed (paths, steps, components) view. Every per-component slice
``normals[:, :, c]`` is then a (paths, steps) array whose transpose is
C-ordered, which is the step-major layout the engines of
:mod:`rvol.schemes` and :mod:`rvol.bergomi` work in. Descriptors pass
such slices straight through: the engines take standard normals and
form each step's increments themselves, so no (paths, N) increment
array is formed. Callers may equally pass C-ordered arrays of the same
shapes, at the cost of one transposing copy. When only prices are
needed (:meth:`HestonModel.simulate`, :meth:`BergomiModel.simulate`),
the engines run with ``prices_only=True``. The Heston engines then
keep each state in two rows, used in turn, and every engine keeps what
it writes in normals it has read or never reads: its log price in z's
last row and z_perp's rows (z0's last row and component 1's rows for
rough Bergomi), the direct Heston engines their history of step terms
in the rows of z, and the multifactor Bergomi sampler its increments
in z0's rows and its variance, factor sums and (n, paths) states in
the components that its step law never reads. So ``simulate``
consumes its normals. A run's set-up is one :class:`Plan`, built
before its first draw. :func:`simulate_stats` splits a run into path slices of
``_SLICE`` paths within each ``_BLOCK``-path block and runs them in
order or on its worker pool. Each worker holds one workspace for the
whole run, an anonymous mapping as large as the widest slice's
normals; every slice draws its normals into it and only simulates. So
a slice holds its (slice, N, comps) normals and, for a Heston factor
scheme, the (n, slice) factors; a direct scheme and a multifactor
Bergomi slice hold little more than their normals.
"""

from __future__ import annotations

import json
import math
import mmap
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .bergomi import (
    BergomiParams, SamplerLaw, implied_vol, sampler_law, simulate_bergomi, step_components
)
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
    "Plan",
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

# Paths per block: slices are cut per block, whatever the worker count.
_BLOCK = 16384
# Paths per draw and engine call: a block is drawn and simulated in
# slices of this width, so the normals and the engines' state scale with
# the slice, not the block (chosen by measurement: see CHANGES.md).
_SLICE = 4096
# Entries hashed per tile in normals_block: the tile's uint64 and float64
# scratch stay resident in L2 cache.
_CHUNK = 16384


def _workspace_view(out, shape) -> np.ndarray:
    """The first entries of ``out`` as a C-ordered array of ``shape``, checked."""
    size = math.prod(shape)
    if not isinstance(out, np.ndarray) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array, got {getattr(out, 'dtype', type(out))}")
    if not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be C-contiguous and writeable")
    if out.size < size:
        raise ValueError(f"out holds {out.size} entries; the draw needs {size}")
    return out.reshape(-1)[:size].reshape(shape)


def _workspace(entries: int) -> np.ndarray:
    """A flat float64 array of ``entries`` in an anonymous private mapping.

    Unlike a freed heap buffer, which the allocator may keep, the
    mapping goes back to the system once the last view of it is gone.
    It is advised for huge pages, as numpy advises its own large arrays,
    so that a run faults its pages in 2 MiB pieces where it can.
    """
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    mapping = mmap.mmap(-1, 8 * entries, **flags)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype=np.float64)


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
    """Counter-based Gaussian stream keyed by (integer seed mod 2^64, path, step, component)."""

    def __init__(self, seed: int):
        self._base = _mix_scalar((require_integer(seed, "seed") & _MASK) ^ _SEED_SALT)

    def _keys(self, n_steps: int, n_comp: int) -> np.ndarray:
        """Per-(component, step) stream keys, shape (n_comp, n_steps)."""
        counter = np.arange(n_comp, dtype=np.uint64)[:, None] + np.arange(
            n_steps, dtype=np.uint64
        )[None, :] * np.uint64(_COMP_STRIDE)
        keys = np.uint64(self._base) ^ (counter * np.uint64(_KEY_SALT))
        return _mix_inplace(keys, np.empty_like(keys))

    def normals_block(self, lo: int, hi: int, n_steps: int, n_comp: int, *, out=None):
        """Standard normals of paths [lo, hi), shape (hi - lo, n_steps, n_comp).

        The result is a transposed view of a C-ordered (n_comp, n_steps,
        paths) buffer: ``normals[:, k, c]`` is a contiguous row, and
        ``normals[:, :, c].T`` a C-ordered (n_steps, paths) array.
        ``lo`` and ``hi`` are integers with ``0 <= lo < hi <= 2**64``. The
        one hash whose uniform would round to 1 draws the largest uniform
        below 1, so every normal is finite. ``out``, a writeable
        C-contiguous float64 array of at least that many entries, holds
        the buffer in its first entries; None allocates one.
        """
        if n_comp >= _COMP_STRIDE:
            raise ValueError(f"at most {_COMP_STRIDE - 1} components per step")
        lo, hi = require_integer(lo, "lo"), require_integer(hi, "hi")
        if not 0 <= lo < hi <= 2**64:
            raise ValueError(f"the path range needs 0 <= lo < hi <= 2**64, got [{lo}, {hi})")
        keys = self._keys(n_steps, n_comp).reshape(-1, 1)
        offsets = np.arange(lo, hi, dtype=np.uint64) * _GOLDEN
        n_paths = offsets.size
        shape = (n_comp, n_steps, n_paths)
        out = np.empty(shape) if out is None else _workspace_view(out, shape)
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
                np.minimum(tile, 1.0 - 2.0**-53, out=tile)  # ndtri(1) is inf
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


@dataclass(frozen=True)
class Plan:
    """A descriptor's set-up on one grid, built once per run by ``model.plan(grid)``.

    It holds ``comps`` normals per step, the resolved kernel (None for
    exact Bergomi) and the Bergomi sampler's law (None for Heston). Its
    arrays are read-only, so a run's worker threads share it.
    """

    model: HestonModel | BergomiModel
    grid: GridSpec
    comps: int
    kernel: RoughKernelSpec | ExpSumKernel | None
    law: SamplerLaw | None = None


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

    def plan(self, grid: GridSpec) -> Plan:
        """The scheme's kernel on ``grid``: a :class:`RoughKernelSpec` or an exponential sum."""
        if self.scheme in _ROUGH_SCHEMES:
            kernel = RoughKernelSpec(self.hurst)
        else:
            n_total = 100 if self.kernel_factors is None else self.kernel_factors
            kernel = systematic_kernel(self.hurst, n_total, grid.T)
            if self.scheme != "multifactor":
                kernel = truncate_factors(kernel, grid.T, grid.N)[0]
        return Plan(self, grid, 3 if self.scheme == "hybrid" else 2, kernel)

    def simulate_paths(self, plan: Plan, normals: np.ndarray) -> HestonPaths | IntegratedPaths:
        """The scheme's paths from (paths, N, comps) normals, on this descriptor's plan.

        The integrated schemes return :class:`IntegratedPaths`, the
        others :class:`HestonPaths`.
        """
        return self._run_engine(plan, normals, prices_only=False)

    def simulate(self, plan: Plan, normals: np.ndarray) -> PathStats:
        """Terminal and running-max prices from (paths, N, comps) normals.

        Consumes the first two components, z and z_perp, of step-major
        ``normals`` (the layout of :meth:`CounterRng.normals_block`): the
        log price takes over z's last row and z_perp's rows once read,
        and the direct schemes' history of step terms the rows of z (see
        :func:`rvol.schemes.heston_volterra_euler`). Pass a copy to reuse them.
        """
        return _path_stats(self._run_engine(plan, normals, prices_only=True))

    def _run_engine(self, plan: Plan, normals: np.ndarray, prices_only: bool):
        """The scheme's engine on the normals' component slices."""
        kern, grid = plan.kernel, plan.grid
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

    def plan(self, grid: GridSpec) -> Plan:
        """The systematic kernel in multifactor mode (None in exact mode) and the sampler's law."""
        kernel = None
        if self.mode == "multifactor":
            n_total = 40 if self.kernel_factors is None else self.kernel_factors
            kernel = systematic_kernel(self.params.H, n_total, grid.T)
        law = sampler_law(self.params.spec, kernel, grid)
        return Plan(self, grid, step_components(kernel), kernel, law)

    def simulate_paths(self, plan: Plan, normals: np.ndarray) -> HestonPaths:
        """Price and variance paths from (paths, N, comps) normals, on this descriptor's plan."""
        return simulate_bergomi(self.params, plan.grid, plan.kernel, plan.law, normals=normals)

    def simulate(self, plan: Plan, normals: np.ndarray) -> PathStats:
        """Terminal and running-max prices from (paths, N, comps) normals.

        Consumes step-major ``normals`` (the layout of
        :meth:`CounterRng.normals_block`): the log price takes over the
        rows of components 0 and 1 once read and, in multifactor mode,
        the increments, the variance and the sampler's state the rows of
        the components that the step law never reads (see
        :func:`rvol.bergomi.simulate_bergomi`). Pass a copy to reuse them.
        """
        return _path_stats(
            simulate_bergomi(
                self.params, plan.grid, plan.kernel, plan.law, normals=normals, prices_only=True
            )
        )


def _path_slices(paths: int) -> list[tuple[int, int]]:
    """Every (lo, hi) path slice of a run, in path order.

    Each ``_BLOCK``-path block runs in slices of ``_SLICE`` paths, the
    last slice taking the block's remainder, so a block of fewer than
    twice ``_SLICE`` paths runs whole.
    """
    slices = []
    for lo in range(0, paths, _BLOCK):
        width = min(_BLOCK, paths - lo)
        cuts = [lo + _SLICE * i for i in range(max(1, width // _SLICE))]
        slices += zip(cuts, cuts[1:] + [lo + width])
    return slices


def simulate_stats(plan: Plan, cfg: McConfig) -> PathStats:
    """Terminal and running-max prices for all configured paths of a plan.

    The run's paths split into the slices of :func:`_path_slices`, whose
    draws depend only on the seed and the global path indices. Each
    slice draws its normals into a workspace and runs the plan's
    descriptor on them, so both the normals and the engines' state
    scale with the slice. Several workers may run the slices, each
    writing its own path range, so the result is bit-identical for any
    worker count. The min(workers, slices) workspaces, each as large as
    the widest slice's normals, pass from slice to slice through a
    queue, and are unmapped when the run ends.
    """
    model, grid = plan.model, plan.grid
    rng = CounterRng(cfg.seed)
    terminal = np.empty(cfg.paths)
    running_max = np.empty(cfg.paths)

    slices = _path_slices(cfg.paths)
    entries = plan.comps * grid.N * max(hi - lo for lo, hi in slices)
    workspaces = queue.SimpleQueue()
    for _ in range(min(cfg.workers, len(slices))):
        workspaces.put(_workspace(entries))

    def run_slice(bounds):
        lo, hi = bounds
        workspace = workspaces.get()
        try:
            normals = rng.normals_block(lo, hi, grid.N, plan.comps, out=workspace)
            stats = model.simulate(plan, normals)
            terminal[lo:hi] = stats.terminal
            running_max[lo:hi] = stats.running_max
        finally:
            workspaces.put(workspace)

    if cfg.workers == 1 or len(slices) == 1:
        for bounds in slices:
            run_slice(bounds)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(run_slice, slices))
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


def _positive(stats: PathStats, descriptor: str) -> PathStats:
    """``stats``, after checking that every price is finite and above 0.

    A path whose log price falls below about -745 ends at S = 0, and
    its payoffs are finite but mean nothing.
    """
    for name, prices in (("terminal", stats.terminal), ("running-max", stats.running_max)):
        bad = prices.size - int(np.count_nonzero((prices > 0.0) & (prices < math.inf)))
        if bad:
            raise ValueError(
                f"{descriptor}: {bad} of {prices.size} {name} prices are 0 or not finite"
            )
    return stats


def _label(model, payoff: Payoff) -> str:
    return f"{model.label}|{payoff.kind}({payoff.strike})"


def _payoffs(model, payoff: Payoff, stats: PathStats) -> np.ndarray:
    """Payoff values; ``ValueError`` if a price is 0 or not finite, or a payoff not finite."""
    label = _label(model, payoff)
    return _finite(payoff.evaluate(_positive(stats, label)), label)


def _estimate(model, payoff: Payoff, stats: PathStats) -> tuple[float, float]:
    """Payoff mean and 95% half-width, from :func:`_payoffs`."""
    values = _payoffs(model, payoff, stats)
    return float(values.mean()), _half_width(values)


def price(model, payoff: Payoff, grid: GridSpec, cfg: McConfig) -> McReport:
    """Monte Carlo price of the payoff under the descriptor's scheme.

    Raises ``ValueError`` naming the descriptor if any terminal or
    running-max price is 0 or not finite, or any payoff value is. The
    descriptor's plan is built first, so a kernel it cannot build
    raises before any draw.
    """
    start = time.perf_counter()
    mean, half_width = _estimate(model, payoff, simulate_stats(model.plan(grid), cfg))
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
    plans are built before either descriptor draws.
    """
    plans = [model.plan(grid) for model in (model_a, model_b)]
    if plans[0].comps != plans[1].comps:
        raise ValueError("incompatible increment stream shapes")
    payoff_a, payoff_b = (
        _payoffs(plan.model, payoff, simulate_stats(plan, cfg)) for plan in plans
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
    Both modes' plans are built once, before either draws.

    Raises ``ValueError`` before any simulation for an empty strike
    list, a log strike k that is not finite or whose exp(k) is not a
    finite positive float, or a ``kernel_factors`` the systematic kernel
    rejects; and after both modes, listing every strike whose Monte
    Carlo price has no implied volatility: a sampled price below
    intrinsic value, or one equal to it (as when no path ends past the
    strike), for which :func:`implied_vol` would report 0. A price that
    is 0 or not finite raises ``ValueError`` naming its mode, as in
    :func:`price`.
    """
    ks = np.atleast_1d(np.asarray(log_strikes, dtype=float)).tolist()
    if not ks:
        raise ValueError("the smile needs at least one log strike")
    strikes = [(k, _strike(k)) for k in ks]
    models = [BergomiModel("exact", params), BergomiModel("multifactor", params, kernel_factors)]
    plans = [model.plan(grid) for model in models]
    rows, failures, cause = [], [], None
    for model, plan in zip(models, plans):
        stats = simulate_stats(plan, cfg)
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
