"""Rough Bergomi simulation.

The lognormal variance is driven by a fractional integral of a Brownian
motion. Two samplers draw it exactly in law on the grid: a reference
sampler from the joint covariance of the fractional integral and the
Brownian path, and a multifactor sampler that replaces the fractional
kernel by an exponential sum whose factors follow an exact per-step
Gaussian recursion. Both take standard normals as a pair ``(z0, z)``,
z0 driving the Brownian increments, and return the variance-driving
integral and the increments, from the law that :func:`sampler_law`
builds once per run. The compensator is the variance of the law
sampled, so in both modes the variance is an exponential martingale.
The multifactor sampler holds two (n, paths) factor states, so its
memory is O(n paths), not O(N n paths). When only prices are needed,
:func:`simulate_bergomi` keeps these states, the factor sums and the
variance in the rows of the normals that the step law never reads, and
the log price in the rows of the price normals once read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ExpSumKernel, RoughKernelSpec, _gram_of_sums
from .numerics import integrate, psd_factorize, require_finite, require_positive
from .schemes import GridSpec, HestonPaths, _LogPrice, _spent_rows

__all__ = [
    "BergomiParams",
    "factor_step_law",
    "SamplerLaw",
    "sampler_law",
    "sample_factors_exact",
    "fractional_joint_covariance",
    "sample_fractional_exact",
    "simulate_bergomi",
    "step_components",
    "bs_call_price",
    "implied_vol",
]


@dataclass(frozen=True)
class BergomiParams:
    """Rough Bergomi parameters with a flat forward variance v0."""

    S0: float = 1.0
    v0: float = 0.235**2
    eta: float = 1.9
    rho: float = -0.9
    H: float = 0.07

    def __post_init__(self):
        require_finite(self)
        # eta = 0 is allowed: it degenerates to Black-Scholes, handy in tests
        if self.S0 <= 0.0 or self.v0 <= 0.0 or self.eta < 0.0:
            raise ValueError("S0 and v0 must be positive, eta nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not 0.0 < self.H < 0.5:
            raise ValueError("H must lie in (0, 1/2)")

    @property
    def spec(self) -> RoughKernelSpec:
        return RoughKernelSpec(self.H)

    @property
    def vol_scale(self) -> float:
        """eta sqrt(2H) Gamma(H+1/2), the factor-sum multiplier in the variance."""
        return self.eta * math.sqrt(2.0 * self.H) * self.spec.gamma_head


def factor_step_law(kernel: ExpSumKernel, dt: float):
    """Exact one-step law of the factor innovations given the Brownian increment.

    Writing the innovation of factor i over a step as its damped-kernel
    integral of the Brownian increment, the joint Gaussian law of
    (innovations, increment) is step-invariant on a regular grid. This
    returns ``(cross_coef, cond_factor)`` such that with z0 the
    standard normal driving the increment and z_extra an independent
    standard normal vector,

        increment  = sqrt(dt) z0
        innovation = cross_coef z0 + cond_factor @ z_extra

    reproduce that law exactly. The conditional covariance of the
    innovations is factorized with pivoting (it is numerically
    rank-deficient for near-collinear factors), so the columns of
    ``cond_factor`` past its rank are zero.
    """
    dt = require_positive(dt, "dt")
    rates = np.append(kernel.rates, 0.0)  # the increment is the factor of rate 0
    gram = _gram_of_sums(np.add.outer(rates, rates), dt)
    cross, var = gram[:-1, -1], gram[-1, -1]  # var is dt, exactly
    cond_cov = gram[:-1, :-1] - np.outer(cross, cross) / var
    # entries are differences of terms up to dt: a lone slow factor, nearly
    # fixed by the increment, leaves a conditional variance of rounding size
    cond_factor = psd_factorize(cond_cov, floor=1e-6 * dt)
    return cross / math.sqrt(var), cond_factor


def _pair(grid: GridSpec, width: int, normals):
    """``normals = (z0, z)`` as float arrays, checked to be (paths, N) and (paths, N, width)."""
    z0, z = (np.asarray(part, dtype=float) for part in normals)
    if z.ndim != 3 or z.shape[1:] != (grid.N, width) or z0.shape != z.shape[:2]:
        raise ValueError(f"normals must have shape (paths, {grid.N}, {width + 1})")
    return z0, z


@dataclass(frozen=True)
class SamplerLaw:
    """A sampler's law on one grid, from :func:`sampler_law`; its arrays are read-only.

    ``mode`` is ``"exact"`` or ``"multifactor"``; the samplers raise
    ``ValueError`` for a law of another grid or mode.
    """

    grid: GridSpec
    mode: str
    factor: np.ndarray
    cross: np.ndarray | None = None  # multifactor mode only, as is var
    var: np.ndarray | None = None

    def check(self, grid: GridSpec, mode: str) -> None:
        """Raise ``ValueError`` naming both grids and modes unless they are the law's."""
        if (self.grid, self.mode) != (grid, mode):
            raise ValueError(
                f"a sampler law built for the {self.mode} mode on {self.grid} "
                f"cannot sample the {mode} mode on {grid}"
            )


def sampler_law(spec: RoughKernelSpec, kernel: ExpSumKernel | None, grid: GridSpec) -> SamplerLaw:
    """The law :func:`simulate_bergomi` samples on ``grid``, to be built once per run.

    With ``kernel=None``, ``factor`` is the unpivoted factor of the joint
    covariance of ``spec``'s fractional integral. Else (``spec`` unread)
    ``cross`` and ``factor`` are the kernel's :func:`factor_step_law` on
    the grid step, cut to its rank, and ``var`` is each step's factor-sum
    variance w' C_l w: C_l = D C_(l-1) D + Q with D = diag(exp(-r dt))
    and Q the step law's innovation covariance as factored.
    """
    if kernel is None:
        factor = psd_factorize(fractional_joint_covariance(spec, grid), pivot=False)
        law = SamplerLaw(grid, "exact", factor)
    else:
        cross, cond_factor = factor_step_law(kernel, grid.dt)
        # only the first `rank` normals of each step reach a nonzero column
        rank = int(np.count_nonzero(cond_factor.any(axis=0)))
        cond_factor = np.ascontiguousarray(cond_factor[:, :rank])
        step_cov = np.outer(cross, cross) + cond_factor @ cond_factor.T
        damp_col = kernel.damped(grid.dt)[1][:, None]
        decay = damp_col * damp_col.T
        w = kernel.weights
        cov = np.zeros((kernel.n, kernel.n))
        var = np.empty(grid.N)
        for k in range(grid.N):
            cov = decay * cov + step_cov
            var[k] = w @ cov @ w
        law = SamplerLaw(grid, "multifactor", cond_factor, cross, var)
    for array in (law.factor, law.cross, law.var):
        if array is not None:
            array.setflags(write=False)  # worker threads share the law
    return law


def sample_factors_exact(
    kernel: ExpSumKernel, law: SamplerLaw, grid: GridSpec, normals, *, out=None
):
    """Exact sample of the kernel-weighted factor sum and Brownian increments.

    Factor i at grid time t_l is the integral of exp(-r_i (t_l - s))
    against the Brownian motion up to t_l; the recursion damps the
    previous value by exp(-r_i dt) and adds the one-step innovation
    drawn exactly from ``law``, the kernel's :func:`sampler_law` on
    ``grid``. Two (n, paths) states are used in turn and only the
    weighted sum w . f of each step is kept, so the memory held is
    O(n paths).

    ``normals`` is the pair ``(z0, z)``: z0, shape (paths, N), drives
    the Brownian increments and z, shape (paths, N, n), the conditional
    innovations. Returns ``(integral, dw)``: the weighted factor sums
    and the increments, both (paths, N). The variance of each step's
    sum is ``law.var``. ``out``, None or float64 arrays ``(sums, dw,
    work)`` of shapes (N, paths), (N, paths) and (3n, paths), takes the
    sums, the increments sqrt(dt) z0 and the two states and scratch, and
    the result is their transposes; dw may be z0's own (N, paths) rows,
    as the increments are formed once the recursion has read z0. None
    allocates them.
    """
    law.check(grid, "multifactor")
    n = kernel.n
    z0, z = _pair(grid, n, normals)
    dt = grid.dt
    rank = law.factor.shape[1]
    cross_col = law.cross[:, None]
    damp_col = kernel.damped(dt)[1][:, None]
    w = kernel.weights
    z0_steps = z0.T  # (N, paths)
    z_steps = z.transpose(1, 2, 0)  # (N, n, paths)
    n_paths = z.shape[0]
    if out is None:
        integral, dw, work = np.empty((grid.N, n_paths)), None, np.empty((3 * n, n_paths))
    else:
        integral, dw, work = out
        shapes = ((grid.N, n_paths), (grid.N, n_paths), (3 * n, n_paths))
        if tuple(part.shape for part in out) != shapes:
            raise ValueError(f"out must hold arrays of shapes {shapes}")
    states, scratch = (work[:n], work[n : 2 * n]), work[2 * n :]
    for k in range(grid.N):
        current = states[k % 2]
        np.matmul(law.factor, z_steps[k, :rank], out=current)
        np.multiply(cross_col, z0_steps[k], out=scratch)
        current += scratch
        if k:
            np.multiply(damp_col, states[(k - 1) % 2], out=scratch)
            current += scratch
        np.matmul(w, current, out=integral[k])
    dw = np.multiply(z0_steps, math.sqrt(dt), out=dw)
    return integral.T, dw.T


def fractional_joint_covariance(spec: RoughKernelSpec, grid: GridSpec) -> np.ndarray:
    """Covariance of (W at grid times, fractional integrals at grid times).

    Ordered with the Brownian block first so that an unpivoted Cholesky
    factor maps the first N standard normals to the Brownian path. The
    fractional integral here carries the bare power kernel (t-s)^(H-1/2)
    without the gamma normalization. Cross-time entry (l, l+j) is
    dt^(2H) sum_{i<=l+1} P(i, j) with unit pieces P(i, j) = integral over
    (i-1, i) of s^(H-1/2) (s+j)^(H-1/2) ds: one adaptive quadrature per
    i + j <= N, of which only i = 1 meets the singularity, summed
    cumulatively over i.
    """
    H, T, N = spec.H, grid.T, grid.N
    e = H - 0.5

    def piece(i, j):  # unit piece P(i, j): s^e (s + j)^e integrated over (i - 1, i)
        return integrate(lambda s: s**e * (s + j) ** e, i - 1.0, float(i))

    pieces = [[piece(i, j) for i in range(1, N - j + 1)] for j in range(1, N)]
    t = np.arange(1, N + 1) * (T / N)
    a = H + 0.5
    cov = np.empty((2 * N, 2 * N))
    # Brownian block
    cov[:N, :N] = np.minimum(t[:, None], t[None, :])
    # cross block: Cov(W at t_m, fractional integral at t_l)
    t_l = t[:, None]
    overlap = np.minimum(t_l, t[None, :])
    cov[N:, :N] = (t_l**a - (t_l - overlap) ** a) / a
    cov[:N, N:] = cov[N:, :N].T
    # fractional block: same-time entries in closed form, cross-time entry
    # (l, l + j) is dt^(2H) times the sum of pieces i <= l + 1 at lag j
    frac = cov[N:, N:]
    np.fill_diagonal(frac, t ** (2.0 * H) / (2.0 * H))
    scale = (T / N) ** (2.0 * H)
    for j, lag_pieces in enumerate(pieces, start=1):
        rows = np.arange(N - j)
        frac[rows, rows + j] = frac[rows + j, rows] = scale * np.cumsum(lag_pieces)
    return cov


def sample_fractional_exact(law: SamplerLaw, grid: GridSpec, normals):
    """Exact joint sample of the fractional integral and Brownian increments.

    Multiplies ``law.factor``, the factor of the full 2N x 2N covariance
    (suitable for the moderate N of short-maturity smiles), into the
    normals: the pair ``(z0, z)`` of :func:`sample_factors_exact` with
    width 1. z0, shape (paths, N), feeds the Brownian block and z, shape
    (paths, N, 1), the fractional block. Returns ``(fractional, dw)`` of
    shapes (paths, N) and (paths, N).
    """
    law.check(grid, "exact")
    z0, z = _pair(grid, 1, normals)
    # step-major (2N, paths): Brownian rows, then fractional rows, per grid time
    joint = law.factor @ np.concatenate([z0.T, z[:, :, 0].T])
    w_path = joint[: grid.N]
    fractional = joint[grid.N :]
    dw = np.diff(w_path, axis=0, prepend=0.0)
    return fractional.T, dw.T


def step_components(kernel: ExpSumKernel | None) -> int:
    """Normals per step of :func:`simulate_bergomi`: 3 with ``kernel=None``, else n + 2."""
    return 3 if kernel is None else kernel.n + 2


def _sampler_rows(prices_only: bool, normals, kernel: ExpSumKernel, law: SamplerLaw, grid):
    """The variance and the factor sampler's ``out`` in normals it may overwrite, or (None, None).

    The step law reads the first ``rank`` of the n conditional normals
    of each step, so components rank + 2 ... n + 1 of ``normals`` are
    drawn but never read. With ``prices_only=True``, if their rows are
    :func:`rvol.schemes._spent_rows`, number at least 3n + N + 1 and
    hold all the paths of their buffer (a whole draw, not a path slice
    of a wider one), they take the (N+1, paths) variance, whose rows
    1 ... N take the factor sums, and the sampler's 3n rows of states
    and scratch; the increments then take the rows of z0, each once read.
    """
    n, rank = kernel.n, law.factor.shape[1]
    unread = tuple(normals[:, :, c].T for c in range(rank + 2, n + 2))
    if not (prices_only and unread):
        return None, None
    rows = _spent_rows(True, unread, normals[:, :, : rank + 2])
    dw = _spent_rows(True, (normals[:, :, 0].T,), normals[:, :, 1:])
    if rows is None or dw is None or len(rows) < 3 * n + grid.N + 1:
        return None, None
    if rows.strides[0] != rows.shape[1] * rows.itemsize:
        # BLAS may round w . f over a few strided paths in another order
        return None, None
    variance = rows[: grid.N + 1]
    return variance, (variance[1:], dw, rows[grid.N + 1 : grid.N + 1 + 3 * n])


def simulate_bergomi(
    params: BergomiParams,
    grid: GridSpec,
    kernel: ExpSumKernel | None,
    law: SamplerLaw,
    *,
    normals,
    prices_only: bool = False,
) -> HestonPaths:
    """Simulate rough Bergomi price and variance paths on the grid.

    ``law`` is :func:`sampler_law` of ``params.spec``, ``kernel`` and
    ``grid``; a law of another grid or mode raises ``ValueError``. With
    ``kernel=None`` the variance is sampled through the exact
    fractional-integral law (reference mode) and compensated in closed
    form. With an exponential-sum kernel it is sampled through the
    factor recursion and compensated by the variance of that sampled
    law. Either way it is an exponential martingale with mean v0 at
    every grid time.

    ``normals`` has shape (paths, N, :func:`step_components`).
    Component 0 drives the variance Brownian motion and component 1
    the orthogonal price component. The remaining components (1 in
    exact mode, n in multifactor mode) feed the variance sampler's
    conditional innovations, so the sampler receives the pair
    ``(normals[:, :, 0], normals[:, :, 2:])``. The log price takes the
    Euler step of the rough Heston engines.

    ``prices_only=True`` returns ``variance=None`` and consumes
    step-major ``normals`` (the layout of
    :meth:`rvol.mc.CounterRng.normals_block`), as the Heston engines
    do: the (N+1, paths) log price takes over the last row of component
    0 and the rows of component 1 once read, and in multifactor mode the
    increments the rows of component 0, and the variance, the factor
    sums and the sampler's state the rows of components
    rank + 2 ... n + 1, which the step law never reads
    (:func:`_sampler_rows`).
    Read-only normals, another layout or too few unread rows get arrays
    of their own, so the caller's normals are kept. A full run leaves
    its normals untouched.
    """
    comps = step_components(kernel)
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 3 or normals.shape[1:] != (grid.N, comps):
        raise ValueError(f"normals must have shape (paths, {grid.N}, {comps})")
    n_paths = normals.shape[0]
    pair = (normals[:, :, 0], normals[:, :, 2:])

    # step-major throughout: rows are grid times, paths are contiguous
    if kernel is None:
        variance = None
        integral, dw = sample_fractional_exact(law, grid, pair)
        # variance exponent: eta sqrt(2H) I_t with Var = eta^2 t^{2H}
        scale = params.eta * math.sqrt(2.0 * params.H)
        t = np.arange(1, grid.N + 1) * grid.dt
        compensator = 0.5 * params.eta**2 * t ** (2.0 * params.H)
    else:
        variance, out = _sampler_rows(prices_only, normals, kernel, law, grid)
        integral, dw = sample_factors_exact(kernel, law, grid, pair, out=out)
        scale = params.vol_scale
        compensator = 0.5 * scale**2 * law.var
    dw = dw.T

    if variance is None:
        variance = np.empty((grid.N + 1, n_paths))
    variance[0] = params.v0
    exponent = variance[1:]  # compensated and exponentiated in place
    np.multiply(integral.T, scale, out=exponent)
    exponent -= compensator[:, None]
    np.exp(exponent, out=exponent)
    exponent *= params.v0

    z0, z_perp = normals[:, :, 0].T, normals[:, :, 1].T
    path = _spent_rows(prices_only, (z0[-1:], z_perp), normals[:, :, 2:])
    prices = _LogPrice(params, grid, n_paths, path)
    for k in range(grid.N):
        prices.step(k, variance[k], dw[k], z_perp[k])
    return HestonPaths(log_price=prices.finish(), variance=None if prices_only else variance.T)


_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def bs_call_price(S0: float, K: float, T: float, vol: float) -> float:
    """Black-Scholes call price with zero rates."""
    if not all(map(math.isfinite, (S0, K, T, vol))):
        raise ValueError(f"S0, K, T and vol must be finite, got {(S0, K, T, vol)}")
    if S0 <= 0.0 or K <= 0.0 or T <= 0.0:
        raise ValueError("S0, K, T must be positive")
    if vol < 0.0:
        raise ValueError("vol must be nonnegative")
    if vol == 0.0:
        return max(S0 - K, 0.0)
    total = vol * math.sqrt(T)
    d1 = (math.log(S0 / K) + 0.5 * total * total) / total
    return S0 * _norm_cdf(d1) - K * _norm_cdf(d1 - total)


def implied_vol(price: float, S0: float, K: float, T: float) -> float:
    """Black-Scholes implied volatility (zero rates), bisected to a bracket of 1e-8."""
    if not all(map(math.isfinite, (price, S0, K, T))):
        raise ValueError(f"price, S0, K and T must be finite, got {(price, S0, K, T)}")
    intrinsic = max(S0 - K, 0.0)
    if price < intrinsic or price >= S0:
        raise ValueError(
            f"price {price} outside the no-arbitrage range ({intrinsic}, {S0})"
        )
    if price == intrinsic:
        return 0.0
    lo, hi = 0.0, 1.0
    while bs_call_price(S0, K, T, hi) < price:
        hi *= 2.0
        if hi > 1e4:
            raise ValueError("implied volatility bracket exceeded")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if bs_call_price(S0, K, T, mid) < price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
