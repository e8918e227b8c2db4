"""Time-discretization engines.

Two generic single-path engines for convolution equations with scalar
kernels: the direct Euler scheme, whose step k sums k kernel-weighted
history terms (O(N^2) work), and the multifactor Euler scheme for
exponential-sum kernels, which replaces the history sums by damped
factor recursions (O(n N) work) and produces bit-for-bit the same
trajectory up to float roundoff.

On top of these sit the rough Heston engines, vectorized across a batch
of Monte Carlo paths: the variance-process schemes (direct, multifactor
and a hybrid variant with an exact Gaussian treatment of the most
recent kernel step) and the integrated-variance schemes that discretize
the time integral of the variance and its martingale parts instead.

All engines are deterministic functions of their increments; random
number generation lives in :mod:`rvol.mc`.

Layout: the batched engines take increments of shape (paths, N) and
return paths of shape (paths, N+1), but work step-major inside: each
increment array is viewed as (N, paths) with paths contiguous (a free
view for the slices of :meth:`rvol.mc.CounterRng.normals_block`, one
transposing copy for a C-ordered array), factor states are (n, paths)
arrays, and every step reads one contiguous increment row and ends in
one ``weights @ factors`` product. The returned arrays are transposed
views of the step-major (N+1, paths) buffers, not copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ExpSumKernel, RoughKernelSpec, expsum_eval, rough_kernel_eval

__all__ = [
    "GridSpec",
    "SvePlant",
    "HestonParams",
    "SchemePath",
    "HestonPaths",
    "IntegratedPaths",
    "volterra_euler",
    "multifactor_euler",
    "heston_volterra_euler",
    "heston_multifactor_euler",
    "heston_hybrid_multifactor",
    "heston_integrated_volterra",
    "heston_integrated_multifactor",
    "hybrid_step_covariance",
]


@dataclass(frozen=True)
class GridSpec:
    """Regular time grid t_k = k T / N, k = 0..N."""

    T: float
    N: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("horizon T must be positive")
        if self.N < 1:
            raise ValueError("step count N must be >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt


@dataclass(frozen=True)
class SvePlant:
    """State equation data: initial point, drift and diffusion maps.

    ``drift`` maps a state vector to a state vector and ``diffusion``
    maps a state vector to a d x d matrix; the engines assume both are
    total on R^d and leave Lipschitz requirements to the caller.
    """

    x0: np.ndarray
    drift: object
    diffusion: object

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))

    @property
    def dim(self) -> int:
        return self.x0.size


@dataclass(frozen=True)
class HestonParams:
    """Rough Heston parameters (zero rates, spot S0)."""

    V0: float = 0.02
    theta: float = 0.02
    lam: float = 0.3
    sigma: float = 0.3
    rho: float = -0.7
    S0: float = 1.0

    def __post_init__(self):
        if min(self.V0, self.theta, self.lam, self.sigma) < 0.0:
            raise ValueError("V0, theta, lam, sigma must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.S0 <= 0.0:
            raise ValueError("S0 must be positive")


@dataclass
class SchemePath:
    """Single discretized trajectory; ``factors`` optional per-step factor states."""

    grid: GridSpec
    states: np.ndarray
    factors: np.ndarray | None = None


@dataclass
class HestonPaths:
    """Batch of rough Heston trajectories on the grid (log price, variance)."""

    log_price: np.ndarray
    variance: np.ndarray


@dataclass
class IntegratedPaths:
    """Batch of integrated-variance trajectories.

    ``integrated_variance`` is the running maximum of the raw scheme
    output (the scheme's martingale construction requires nondecreasing
    integrated variance); ``raw_integrated`` is kept for diagnostics.
    """

    log_price: np.ndarray
    integrated_variance: np.ndarray
    raw_integrated: np.ndarray


def _kernel_table(kernel, grid: GridSpec) -> np.ndarray:
    """Kernel values on the interior grid (entry m-1 is the value at m dt)."""
    t = np.arange(1, grid.N + 1) * grid.dt
    if isinstance(kernel, RoughKernelSpec):
        return rough_kernel_eval(kernel, t)
    if isinstance(kernel, ExpSumKernel):
        return expsum_eval(kernel, t)
    return np.array([float(kernel(x)) for x in t])


def volterra_euler(plant: SvePlant, g1, g2, grid: GridSpec, dw) -> SchemePath:
    """Euler scheme for the convolution equation with scalar kernels.

    State at t_{k+1} is x0 plus the kernel-weighted sums of all past
    drift terms b(X_j) dt and diffusion terms sigma(X_j) dW_j, with
    kernels evaluated at the elapsed lags (k+1-j) dt. Cost grows as N^2.
    """
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (grid.N, plant.dim):
        raise ValueError(f"dw must have shape ({grid.N}, {plant.dim}), got {dw.shape}")
    g1_tab = _kernel_table(g1, grid)
    g2_tab = _kernel_table(g2, grid)
    d = plant.dim
    states = np.zeros((grid.N + 1, d))
    states[0] = plant.x0
    drift_terms = np.zeros((grid.N, d))
    diff_terms = np.zeros((grid.N, d))
    dt = grid.dt
    for k in range(grid.N):
        x = states[k]
        drift_terms[k] = np.asarray(plant.drift(x), dtype=float) * dt
        diff_terms[k] = np.asarray(plant.diffusion(x), dtype=float) @ dw[k]
        lags = g1_tab[k::-1]
        states[k + 1] = (
            plant.x0
            + lags @ drift_terms[: k + 1]
            + g2_tab[k::-1] @ diff_terms[: k + 1]
        )
    return SchemePath(grid=grid, states=states)


def multifactor_euler(
    plant: SvePlant,
    k1: ExpSumKernel,
    k2: ExpSumKernel,
    grid: GridSpec,
    dw,
    record_factors: bool = False,
) -> SchemePath:
    """Damped-factor Euler scheme for exponential-sum kernels.

    Each factor i evolves as a damped accumulator: multiply by
    exp(-r_i dt) after adding the current drift (and, in the shared
    kernel form, diffusion) term; the state is x0 plus the weighted
    factor sums. Coincides with :func:`volterra_euler` run on the same
    exponential sums, at O(n N) instead of O(N^2) cost.

    ``k1`` and ``k2`` weight the drift and diffusion convolutions; they
    must share the same rates. When they are equal a single factor set
    carries both terms.
    """
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (grid.N, plant.dim):
        raise ValueError(f"dw must have shape ({grid.N}, {plant.dim}), got {dw.shape}")
    if not np.array_equal(k1.rates, k2.rates):
        raise ValueError("drift and diffusion kernels must share the same rates")
    shared = np.array_equal(k1.weights, k2.weights)
    damp = np.exp(-k1.rates * grid.dt)
    n, d = k1.n, plant.dim
    dt = grid.dt
    states = np.zeros((grid.N + 1, d))
    states[0] = plant.x0
    factors = None
    if record_factors and shared and d == 1:
        factors = np.zeros((grid.N + 1, n))
    if shared:
        f = np.zeros((n, d))
        for k in range(grid.N):
            x = states[k]
            step = (
                np.asarray(plant.drift(x), dtype=float) * dt
                + np.asarray(plant.diffusion(x), dtype=float) @ dw[k]
            )
            f = damp[:, None] * (f + step[None, :])
            states[k + 1] = plant.x0 + k1.weights @ f
            if factors is not None:
                factors[k + 1] = f[:, 0]
    else:
        f_drift = np.zeros((n, d))
        f_diff = np.zeros((n, d))
        for k in range(grid.N):
            x = states[k]
            b = np.asarray(plant.drift(x), dtype=float) * dt
            s = np.asarray(plant.diffusion(x), dtype=float) @ dw[k]
            f_drift = damp[:, None] * (f_drift + b[None, :])
            f_diff = damp[:, None] * (f_diff + s[None, :])
            states[k + 1] = plant.x0 + k1.weights @ f_drift + k2.weights @ f_diff
    return SchemePath(grid=grid, states=states, factors=factors)


def _check_increments(grid: GridSpec, *arrays):
    """Validate (paths, N) increment arrays; return them step-major, (N, paths).

    The step-major copies are C-ordered, so each step reads one
    contiguous row. For the transposed views that
    :meth:`rvol.mc.CounterRng.normals_block` hands out this costs no copy.
    """
    first = np.asarray(arrays[0], dtype=float)
    if first.ndim != 2 or first.shape[1] != grid.N:
        raise ValueError(f"increments must have shape (paths, {grid.N})")
    out = []
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        if arr.shape != first.shape:
            raise ValueError("all increment arrays must share one shape")
        out.append(np.ascontiguousarray(arr.T))
    return out


def heston_volterra_euler(
    params: HestonParams, kernel, grid: GridSpec, dw, dw_perp
) -> HestonPaths:
    """Direct Euler scheme for rough Heston (O(N^2) per path).

    ``kernel`` may be a :class:`RoughKernelSpec`, an
    :class:`ExpSumKernel` or any scalar callable of time. Variance
    enters drift and diffusion through its positive part; the log price
    advances by the usual explicit step with correlation ``rho``.
    ``dw`` and ``dw_perp`` are Brownian increments of shape (paths, N).
    """
    dw, dw_perp = _check_increments(grid, dw, dw_perp)
    g_tab = _kernel_table(kernel, grid)
    n_paths = dw.shape[1]
    dt = grid.dt
    # the convolution is a contiguous mat-vec product over the
    # step-major history, and the loop allocates nothing
    g_rev = np.ascontiguousarray(g_tab[::-1])
    variance = np.empty((grid.N + 1, n_paths))
    variance[0] = params.V0
    history = np.empty((grid.N, n_paths))
    drift = np.empty(n_paths)
    shock = np.empty(n_paths)
    for k in range(grid.N):
        np.maximum(variance[k], 0.0, out=drift)  # positive part of V
        np.sqrt(drift, out=shock)
        shock *= dw[k]
        shock *= params.sigma
        drift *= -params.lam * dt
        drift += params.theta * dt
        np.add(drift, shock, out=history[k])
        np.dot(g_rev[grid.N - 1 - k :], history[: k + 1], out=variance[k + 1])
        variance[k + 1] += params.V0
    return _heston_paths(params, grid, variance, dw, dw_perp)


def _heston_paths(params, grid, variance, dw, dw_perp) -> HestonPaths:
    """Log-price recursion on a step-major variance path, as (paths, N+1) views.

    ``variance`` has shape (N+1, paths) and the increments (N, paths).
    The log price is log S0 plus the running sum of the explicit steps
    -V^+ dt / 2 + sqrt(V^+) (rho dW + rho_perp dW_perp).
    """
    rho = params.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    log_s0 = math.log(params.S0)
    log_price = np.empty_like(variance)
    log_price[0] = log_s0
    v_pos, vol, mix, shock = (np.empty(variance.shape[1]) for _ in range(4))
    total = np.zeros(variance.shape[1])
    for k in range(grid.N):
        np.maximum(variance[k], 0.0, out=v_pos)
        np.sqrt(v_pos, out=vol)
        np.multiply(dw[k], rho, out=mix)
        np.multiply(dw_perp[k], rho_perp, out=shock)
        mix += shock
        vol *= mix
        v_pos *= -0.5
        v_pos *= grid.dt
        v_pos += vol
        total += v_pos
        np.add(total, log_s0, out=log_price[k + 1])
    return HestonPaths(log_price=log_price.T, variance=variance.T)


def heston_multifactor_euler(
    params: HestonParams, kernel: ExpSumKernel, grid: GridSpec, dw, dw_perp
) -> HestonPaths:
    """Multifactor Euler scheme for rough Heston (O(n N) per path).

    The variance is V0 plus a weighted sum of damped factors that all
    share the common drift/diffusion term evaluated at the aggregated
    variance's positive part. Pass an already truncated kernel to drop
    factors that vanish within one time step.
    """
    dw, dw_perp = _check_increments(grid, dw, dw_perp)
    n_paths = dw.shape[1]
    dt = grid.dt
    damp = np.exp(-kernel.rates * dt)[:, None]
    variance = np.empty((grid.N + 1, n_paths))
    variance[0] = params.V0
    factors = np.zeros((kernel.n, n_paths))
    step = np.empty(n_paths)
    vol = np.empty(n_paths)
    for k in range(grid.N):
        np.maximum(variance[k], 0.0, out=step)  # positive part of V
        np.sqrt(step, out=vol)
        vol *= params.sigma
        vol *= dw[k]
        step *= -params.lam
        step += params.theta
        step *= dt
        step += vol
        factors += step
        factors *= damp
        np.dot(kernel.weights, factors, out=variance[k + 1])
        variance[k + 1] += params.V0
    return _heston_paths(params, grid, variance, dw, dw_perp)


def hybrid_step_covariance(spec: RoughKernelSpec, dt: float) -> np.ndarray:
    """Covariance of (Brownian increment, kernel-weighted increment) on one step.

    The second component is the integral of the rough kernel against the
    Brownian motion over the step; both moments are in closed form.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a = spec.H + 0.5
    cross = dt**a / (a * spec.gamma_head)
    var_frac = dt ** (2.0 * spec.H) / (2.0 * spec.H * spec.gamma_head**2)
    return np.array([[dt, cross], [cross, var_frac]])


def heston_hybrid_multifactor(
    params: HestonParams,
    spec: RoughKernelSpec,
    kernel: ExpSumKernel,
    grid: GridSpec,
    dw,
    dw_perp,
    d_frac,
) -> HestonPaths:
    """Hybrid multifactor scheme: exact Gaussian last step, rational damping.

    Factors use the damping 1/(1 + r_i dt). The next variance is the
    factor-implied prediction plus the most recent step handled with the
    exact rough kernel: the drift is weighted by the closed-form kernel
    integral over one step, and ``d_frac`` must hold the exact
    kernel-weighted Brownian increments, jointly Gaussian with ``dw``
    per :func:`hybrid_step_covariance`.
    """
    dw, dw_perp, d_frac = _check_increments(grid, dw, dw_perp, d_frac)
    n_paths = dw.shape[1]
    dt = grid.dt
    a = spec.H + 0.5
    drift_weight = dt**a / (a * spec.gamma_head)
    damp_rational = (1.0 / (1.0 + kernel.rates * dt))[:, None]
    agg_weights = kernel.weights * np.exp(-kernel.rates * dt)
    variance = np.empty((grid.N + 1, n_paths))
    variance[0] = params.V0
    factors = np.zeros((kernel.n, n_paths))
    drift = np.empty(n_paths)
    vol = np.empty(n_paths)
    shock = np.empty(n_paths)
    for k in range(grid.N):
        v_next = variance[k + 1]
        np.maximum(variance[k], 0.0, out=drift)  # positive part of V
        np.sqrt(drift, out=vol)
        vol *= params.sigma
        drift *= -params.lam
        drift += params.theta
        # factor prediction, plus the last step's drift and shock taken exactly
        np.dot(agg_weights, factors, out=v_next)
        v_next += params.V0
        np.multiply(drift, drift_weight, out=shock)
        v_next += shock
        np.multiply(vol, d_frac[k], out=shock)
        v_next += shock
        drift *= dt
        np.multiply(vol, dw[k], out=shock)
        drift += shock
        factors += drift
        factors *= damp_rational
    return _heston_paths(params, grid, variance, dw, dw_perp)


_DRIFT_FLOORS = ("runmax", "positive_part")


class _IntegratedState:
    """Step-major state shared by the two integrated-variance engines.

    Holds the raw and running-max integrated variance and the log price,
    each of shape (N+1, paths), plus the two martingale parts. The
    engines fill ``raw[k+1]`` from :meth:`drift_term`; :meth:`advance`
    then moves the running maximum, the martingales and the log price.
    """

    def __init__(self, params: HestonParams, grid: GridSpec, n_paths: int, drift_floor):
        if drift_floor not in _DRIFT_FLOORS:
            raise ValueError(f"drift_floor must be one of {_DRIFT_FLOORS}")
        self.params = params
        self.dt = grid.dt
        self.runmax_floor = drift_floor == "runmax"
        self.rho_perp = math.sqrt(1.0 - params.rho * params.rho)
        self.log_s0 = math.log(params.S0)
        self.raw = np.zeros((grid.N + 1, n_paths))
        self.clamped = np.zeros((grid.N + 1, n_paths))
        self.log_price = np.empty((grid.N + 1, n_paths))
        self.log_price[0] = self.log_s0
        self.mart = np.zeros(n_paths)
        self.mart_perp = np.zeros(n_paths)
        self.step = np.empty(n_paths)
        self.increment = np.empty(n_paths)
        self.scratch = np.empty(n_paths)

    def drift_term(self, k: int) -> np.ndarray:
        """(theta t_k - lam X_k^+ + sigma M_k) dt, with X_k^+ the floored state."""
        p, step = self.params, self.step
        if self.runmax_floor:
            np.multiply(self.clamped[k], p.lam, out=step)
        else:
            np.maximum(self.raw[k], 0.0, out=step)
            step *= p.lam
        np.subtract(p.theta * (k * self.dt), step, out=step)
        np.multiply(self.mart, p.sigma, out=self.scratch)
        step += self.scratch
        step *= self.dt
        return step

    def advance(self, k: int, z_k: np.ndarray, z_perp_k: np.ndarray):
        """Running max, martingale parts and log price at t_{k+1}."""
        clamped, inc, tmp = self.clamped, self.increment, self.scratch
        np.maximum(clamped[k], self.raw[k + 1], out=clamped[k + 1])
        np.subtract(clamped[k + 1], clamped[k], out=inc)
        np.sqrt(inc, out=inc)
        np.multiply(inc, z_k, out=tmp)
        self.mart += tmp
        np.multiply(inc, z_perp_k, out=tmp)
        self.mart_perp += tmp
        lp = self.log_price[k + 1]
        np.multiply(clamped[k + 1], -0.5, out=lp)
        lp += self.log_s0
        np.multiply(self.mart, self.params.rho, out=tmp)
        lp += tmp
        np.multiply(self.mart_perp, self.rho_perp, out=tmp)
        lp += tmp

    def paths(self) -> IntegratedPaths:
        return IntegratedPaths(
            log_price=self.log_price.T,
            integrated_variance=self.clamped.T,
            raw_integrated=self.raw.T,
        )


def heston_integrated_volterra(
    params: HestonParams,
    kernel,
    grid: GridSpec,
    z,
    z_perp,
    drift_floor: str = "runmax",
) -> IntegratedPaths:
    """Direct Euler scheme on the integrated variance (O(N^2) per path).

    Discretizes the integrated variance X and approximates the price
    martingale parts by increments with variance equal to the increase
    of the running maximum of X, driven by the standard normal arrays
    ``z`` and ``z_perp`` of shape (paths, N).

    ``drift_floor`` selects the nonnegative surrogate of X in the mean
    reversion term: its running maximum (default) or its positive part
    (matching :func:`heston_integrated_multifactor`).
    """
    z, z_perp = _check_increments(grid, z, z_perp)
    state = _IntegratedState(params, grid, z.shape[1], drift_floor)
    g_tab = _kernel_table(kernel, grid)
    dt = grid.dt
    history = np.empty((z.shape[1], grid.N))
    for k in range(grid.N):
        history[:, k] = state.drift_term(k)
        state.raw[k + 1] = params.V0 * (k * dt + dt) + history[:, : k + 1] @ g_tab[k::-1]
        state.advance(k, z[k], z_perp[k])
    return state.paths()


def heston_integrated_multifactor(
    params: HestonParams,
    kernel: ExpSumKernel,
    grid: GridSpec,
    z,
    z_perp,
    drift_floor: str = "positive_part",
) -> IntegratedPaths:
    """Multifactor Euler scheme on the integrated variance (O(n N) per path).

    Same martingale construction as :func:`heston_integrated_volterra`
    with the history sums replaced by damped factor recursions. The mean
    reversion uses the positive part of the aggregated state by default;
    set ``drift_floor='runmax'`` to mirror the direct scheme exactly.
    """
    z, z_perp = _check_increments(grid, z, z_perp)
    state = _IntegratedState(params, grid, z.shape[1], drift_floor)
    dt = grid.dt
    damp = np.exp(-kernel.rates * dt)[:, None]
    factors = np.zeros((kernel.n, z.shape[1]))
    for k in range(grid.N):
        factors += state.drift_term(k)
        factors *= damp
        raw = state.raw[k + 1]
        np.dot(kernel.weights, factors, out=raw)
        raw += params.V0 * (k * dt + dt)
        state.advance(k, z[k], z_perp[k])
    return state.paths()
