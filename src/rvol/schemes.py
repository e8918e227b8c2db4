"""Time-discretization engines.

Two generic engines for d-dimensional convolution equations with scalar
kernels, batched over paths: the direct Euler scheme (O(N^2) work per
path) and the multifactor Euler scheme for exponential-sum kernels
(O(n N)) run one step loop over the history or factor memory of the
Heston engines.

On top of these sit the rough Heston engines, vectorized across a batch
of Monte Carlo paths: the variance-process schemes (direct, multifactor
and a hybrid variant with an exact Gaussian treatment of the most
recent kernel step) and the integrated-variance schemes that discretize
the time integral of the variance and its martingale parts instead.

All engines are deterministic functions of their inputs; random number
generation lives in :mod:`rvol.mc`. The generic engines take Brownian
increments; the rough Heston engines take standard normals and own
their step law: each step forms its increments sqrt(dt) z in scratch,
and the hybrid engine also its kernel-weighted increment.

Layout: the batched engines take (paths, N) normals and return
(paths, N+1) paths, transposed views of step-major (N+1, paths)
buffers. Inside, each normals array is an (N, paths) view whose rows
are contiguous, and may be path slices of a wider block's rows: free
for the component slices of :meth:`rvol.mc.CounterRng.normals_block`
and for path slices of them, one transposing copy for a C-ordered
array. Each engine is one step loop over a memory term, run in blocks
of ``_BLOCK`` steps: every step adds a near window (the block's step
terms against the first ``_BLOCK`` kernel lags), and the far memory
enters once per block as one matrix product with the (n, paths)
factors or the (N, paths) history of step terms. With
``prices_only=True`` the engines keep what they write in normals they
have read, when they may overwrite them (:func:`_spent_rows`): the
direct engines their history in the rows of ``z``, and every engine
its (N+1, paths) log price in z's last row and the N rows of
``z_perp``, where these follow z's rows in one buffer, as in the
(comps, N, paths) block of ``normals_block``. Step k writes row k+1
of the log price once it has read z_perp_k, and row 0 is written after
the loop, once no step reads z's last row or the history row it holds.
The factor engines keep the block's step terms in one (``_BLOCK``,
paths) array and first fold them into the factors, a group of factor
rows at a time through the spent output block, so every product runs
on numpy's BLAS and its one thread pool. The memory only convolves: it
hands each step its output row from a (``_BLOCK``, paths) block. Each
step loop keeps its own state, state k in row k % R: the variance and
the running max of the integrated variance in R = N+1 rows, or in
R = 2 with ``prices_only=True``, when only the log price is returned
whole; the raw integrated variance, never returned, always in R = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ExpSumKernel, RoughKernelSpec, expsum_eval, rough_kernel_eval
from .numerics import require_count, require_finite, require_positive

__all__ = [
    "GridSpec",
    "SvePlant",
    "HestonParams",
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
        require_count(self.N, "step count N")
        require_finite(self)
        if self.T <= 0.0:
            raise ValueError("horizon T must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt


@dataclass(frozen=True)
class SvePlant:
    """State equation data: initial point, drift and diffusion maps.

    ``x0`` is a finite length-d vector. ``drift`` maps a batch of
    (paths, d) states to (paths, d) and ``diffusion`` maps it to
    (paths, d, d) matrices, shapes the engines check; both are assumed
    total on R^d, Lipschitz requirements left to the caller.
    """

    x0: np.ndarray
    drift: object
    diffusion: object

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be a finite 1-d vector, got {self.x0!r}")
        object.__setattr__(self, "x0", x0)

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
        require_finite(self)
        if min(self.V0, self.theta, self.lam, self.sigma) < 0.0:
            raise ValueError("V0, theta, lam, sigma must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.S0 <= 0.0:
            raise ValueError("S0 must be positive")


@dataclass
class HestonPaths:
    """Batch of rough Heston trajectories on the grid (log price, variance).

    ``variance`` is the raw Euler variance V, which can be negative: the
    engines feed its positive part V^+ to the drift and the volatility.
    At T = 1000 (64 paths, seed 0) the hybrid's mean terminal V read
    -5.29 at N = 4 and -0.78 at N = 16, against +0.046 and +0.021 for
    the direct scheme. It is None when the engine ran with
    ``prices_only=True``.
    """

    log_price: np.ndarray
    variance: np.ndarray | None


@dataclass
class IntegratedPaths:
    """Batch of integrated-variance trajectories.

    ``integrated_variance`` is the running maximum of the raw scheme
    output (the scheme's martingale construction requires nondecreasing
    integrated variance). It is None when the engine ran with
    ``prices_only=True``.
    """

    log_price: np.ndarray
    integrated_variance: np.ndarray | None


def _kernel_table(kernel, grid: GridSpec) -> np.ndarray:
    """Kernel values on the interior grid (entry m-1 is the value at m dt)."""
    t = np.arange(1, grid.N + 1) * grid.dt
    if isinstance(kernel, RoughKernelSpec):
        return rough_kernel_eval(kernel, t)
    if isinstance(kernel, ExpSumKernel):
        return expsum_eval(kernel, t)
    raise TypeError(f"kernel must be a RoughKernelSpec or an ExpSumKernel, got {kernel!r}")


def _sve_loop(plant: SvePlant, grid: GridSpec, dw, make_memories):
    """Step loop of the generic engines, which differ only in their memories.

    ``make_memories(columns)`` builds one memory (equal kernels) or a (drift,
    diffusion) pair whose paths axis holds the paths x d state columns.
    Step k writes b(X_k) dt + sigma(X_k) dW_k into the one memory or its
    two terms into the pair; X_{k+1} is x0 plus their outputs k+1. Returns
    the (paths, N+1, d) states, a view of a step-major buffer.
    """
    d, dt, N = plant.dim, grid.dt, grid.N
    dw = np.asarray(dw, dtype=float)
    if dw.ndim != 3 or dw.shape[1:] != (N, d) or not np.isfinite(dw).all():
        raise ValueError(f"dw must be finite with shape (paths, {N}, {d}), got {dw.shape}")
    paths = dw.shape[0]
    memories = make_memories(paths * d)
    states = np.empty((N + 1, paths, d))
    states[0] = plant.x0
    for k in range(N):
        b = np.asarray(plant.drift(states[k]), dtype=float)
        s = np.asarray(plant.diffusion(states[k]), dtype=float)
        if (b.shape, s.shape) != ((paths, d), (paths, d, d)):
            raise ValueError(
                f"drift(x) must have shape ({paths}, {d}) and diffusion(x) ({paths}, {d}, {d})"
            )
        terms = [memory.term(k).reshape(paths, d) for memory in memories]
        np.multiply(b, dt, out=terms[0])
        shock = np.einsum("pij,pj->pi", s, dw[:, k])
        if len(terms) == 1:
            terms[0] += shock
        else:
            terms[1][:] = shock
        x = states[k + 1]
        x[:] = plant.x0
        for memory in memories:
            x += memory.convolve(k).reshape(paths, d)
    return states.transpose(1, 0, 2)


def volterra_euler(plant: SvePlant, g1, g2, grid: GridSpec, dw) -> np.ndarray:
    """Euler scheme for the convolution equation with scalar kernels.

    State at t_{k+1} is x0 plus the kernel-weighted sums of all past
    drift terms b(X_j) dt and diffusion terms sigma(X_j) dW_j, with
    kernels evaluated at the elapsed lags (k+1-j) dt. ``g1`` and ``g2``
    weight the drift and diffusion sums; each is a
    :class:`RoughKernelSpec` or an :class:`ExpSumKernel`. ``dw`` holds
    (paths, N, d) increments; returns the (paths, N+1, d) states. Cost
    grows as N^2 per path.
    """
    t1, t2 = _kernel_table(g1, grid), _kernel_table(g2, grid)
    tables = (t1,) if np.array_equal(t1, t2) else (t1, t2)
    return _sve_loop(
        plant, grid, dw, lambda columns: [_HistoryMemory(t, columns) for t in tables]
    )


def multifactor_euler(
    plant: SvePlant, k1: ExpSumKernel, k2: ExpSumKernel, grid: GridSpec, dw
) -> np.ndarray:
    """Damped-factor Euler scheme for exponential-sum kernels.

    The history sums of :func:`volterra_euler` become damped factor
    recursions, one factor per exponential: on the same exponential sums
    the same states up to roundoff, at O(n N) instead of O(N^2) cost per
    path. ``k1`` and ``k2`` weight the drift and diffusion convolutions
    and must share their rates; equal kernels share one factor set.
    ``dw`` and the returned states as in :func:`volterra_euler`.
    """
    if not np.array_equal(k1.rates, k2.rates):
        raise ValueError("drift and diffusion kernels must share the same rates")
    kernels = (k1,) if k1 == k2 else (k1, k2)
    return _sve_loop(
        plant, grid, dw, lambda columns: [_expsum_memory(k, grid, columns) for k in kernels]
    )


def _check_normals(grid: GridSpec, *arrays):
    """Validate (paths, N) normals; return their (N, paths) transposes.

    Each step reads one row, which must be contiguous. The transposed
    views that :meth:`rvol.mc.CounterRng.normals_block` hands out, and
    path slices of them, have such rows and pass uncopied; any other
    layout costs one transposing copy.
    """
    rows = [np.asarray(arr, dtype=float).T for arr in arrays]
    if rows[0].ndim != 2 or rows[0].shape[0] != grid.N:
        raise ValueError(f"normals must have shape (paths, {grid.N})")
    if any(r.shape != rows[0].shape for r in rows):
        raise ValueError("all normals arrays must share one shape")
    return [r if r[0].flags.c_contiguous else np.ascontiguousarray(r) for r in rows]


def _spent_rows(prices_only: bool, parts, *others):
    """One view of the rows of ``parts`` in turn, when an engine may overwrite them; else None.

    The step loops are done with a row of normals before they write to
    it, so with ``prices_only=True`` the direct engines' history takes
    over the rows of ``z`` and every engine's log price takes over z's
    last row and the rows of ``z_perp``. Only rows the engine may
    overwrite qualify: writeable, each part's rows directly following
    the last part's in one buffer with equal strides, not overlapping
    each other and sharing no memory with the ``others``; one path's
    rows only when they are contiguous. A full run keeps its inputs
    untouched.
    """
    if not prices_only:
        return None
    head = parts[0]
    if not head[0].flags.c_contiguous:  # the overlap test below reads contiguous rows
        return None
    if head.shape[1] == 1 and head.strides[0] != head.itemsize:
        # one path of a wider block: its rows form a strided column, whose
        # BLAS products round in another order than a contiguous column's
        return None
    root, address = _root(head), _address(head)
    for part in parts:
        follows = _address(part) == address and _root(part) is root
        if not (follows and part.strides == head.strides and part.flags.writeable):
            return None
        address += part.shape[0] * part.strides[0]
    rows = np.lib.stride_tricks.as_strided(
        head, (sum(len(part) for part in parts), head.shape[1]), head.strides
    )
    if abs(rows.strides[0]) < rows.shape[1] * rows.itemsize:  # rows overlap
        return None
    if any(np.may_share_memory(rows, other) for other in others):
        return None
    return rows


def _root(arr: np.ndarray) -> np.ndarray:
    """The array at the bottom of ``arr``'s chain of views."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


_BLOCK = 16  # steps per block of the step loop (16/32/64 sweep: see CHANGES.md)


class _BlockedMemory:
    """Convolution of step terms with a kernel, advanced block by block.

    Output k+1 is the sum over j <= k of the kernel at lag (k + 1 - j) dt
    times the step term S_j. ``out`` holds the current block's outputs,
    output k+1 in row k % ``_BLOCK``: at the start of block b,
    :meth:`term` writes their far part (j < b) with one product
    (:meth:`_far`); :meth:`convolve` then adds the near window
    (b <= j <= k). The step loops keep their own state rows.
    """

    def __init__(self, near, n_steps: int, n_paths: int, terms):
        self.near_rev = np.ascontiguousarray(near[::-1])
        self.n_steps = n_steps
        self.out = np.zeros((min(n_steps, _BLOCK), n_paths))
        self.terms = terms  # rows of the current block's step terms
        self.row = np.empty(n_paths)

    def term(self, k: int) -> np.ndarray:
        """Row to fill with S_k, after step k-1's :meth:`convolve`."""
        i = k % _BLOCK
        if i == 0 and k:
            self._far(k, self.out[: self.n_steps - k])
        return self.terms[i]

    def convolve(self, k: int) -> np.ndarray:
        """Add the near window to output k+1 and return that row of ``out``."""
        i = k % _BLOCK
        np.dot(self.near_rev[-1 - i :], self.terms[: i + 1], out=self.row)
        out = self.out[i]
        out += self.row
        return out


class _HistoryMemory(_BlockedMemory):
    """Direct scheme: the (N, paths) history of all step terms.

    The far part of block b is one Toeplitz product: row i weighs the
    history rows j < b with the kernel values at lags b + i + 1 - j.
    ``history`` is the (N, paths) array to keep it in, whose row k no
    one else reads from step k's :meth:`term` on, such as the spent
    normals of :func:`_spent_rows`; None allocates one.
    """

    def __init__(self, kernel_values, n_paths: int, history=None):
        n_steps = kernel_values.size
        self.kernel_values = kernel_values
        self.history = np.empty((n_steps, n_paths)) if history is None else history
        super().__init__(kernel_values[:_BLOCK], n_steps, n_paths, self.history)

    def _far(self, b: int, rows):
        lags = b + np.arange(rows.shape[0])[:, None] - np.arange(b)[None, :]
        np.matmul(self.kernel_values[lags], self.history[:b], out=rows)
        self.terms = self.history[b:]


class _FactorMemory(_BlockedMemory):
    """Multifactor scheme: (n, paths) factors f damped by ``damp`` per step.

    Step b + i reads (u damp^i) . f with f taken at the block start, so
    the kernel at lag m is u . damp^(m-1), the exponential sum on the
    grid. A full block moves f to damp^B f + sum_j damp^(B-j) S_j, formed
    ``len(out)`` factor rows at a time on numpy's BLAS. The product's
    scratch is the spent ``out`` block: at a block start the step loops
    have already copied its rows, and it takes the far rows only after
    the update, so the update allocates no (n, paths) array. With
    ``exact_last_step`` the lag-one weight is zero (the caller adds it).
    """

    def __init__(self, u, damp, n_steps: int, n_paths: int, exact_last_step=False):
        self.damp = damp
        powers = damp[None, :] ** np.arange(_BLOCK + 1)[:, None]
        self.far_weights = u * powers[:-1]
        near = self.far_weights.sum(axis=1)
        if exact_last_step:
            near[0] = 0.0
        self.carry = np.ascontiguousarray(powers[:0:-1].T)  # column j: damp^(B-j)
        self.block_damp = powers[-1][:, None]
        self.factors = np.zeros((damp.size, n_paths))
        super().__init__(near, n_steps, n_paths, np.empty((_BLOCK, n_paths)))

    def _far(self, b: int, rows):
        f, size = self.factors, len(self.out)
        for lo in range(0, len(f), size):
            g = slice(lo, lo + size)
            part = self.out[: len(f[g])]
            _gemm(self.carry[g], self.terms, part)
            f[g] *= self.block_damp[g]
            f[g] += part
        np.matmul(self.far_weights[: rows.shape[0]], f, out=rows)


def _gemm(a, b, out):
    """``out = a @ b`` on BLAS gemm, also for a one-row ``a`` or a one-column ``b``.

    numpy's matmul sends those two shapes to gemv, which orders its sums
    differently; doubling the row or column keeps them on gemm.
    """
    rows, cols = out.shape
    if rows > 1 and cols > 1:
        np.matmul(a, b, out=out)
    else:
        wide = np.repeat(a, 1 + (rows == 1), axis=0) @ np.repeat(b, 1 + (cols == 1), axis=1)
        out[...] = wide[:rows, :cols]


def _expsum_memory(kernel: ExpSumKernel, grid: GridSpec, n_paths: int):
    """Factor memory of an exponential sum: u = w e^{-r dt}, damped by e^{-r dt}."""
    return _FactorMemory(*kernel.damped(grid.dt), grid.N, n_paths)


class _LogPrice:
    """Euler log price of the rough Heston and rough Bergomi engines.

    Row k+1 of ``path`` is log S0 plus the running sum over j <= k of
    -V_j dt / 2 + sqrt(V_j) (rho dW_j + rho_perp dW_perp_j), V_j >= 0,
    where dW_perp_j = sqrt(dt) z_perp_j is formed here from its normal.
    The integrated engines form their own rows from ``log_s0`` and ``rho_perp``.
    ``path`` is the (N+1, paths) array to write into, None allocating
    one; the Heston engines pass the spent rows of z's last row and
    z_perp (:func:`_spent_rows`) when they may. Step k writes row k+1
    after it has read z_perp_k, and row 0, log S0, is written last, by
    :meth:`finish`, once no step reads z's last row.
    """

    def __init__(self, params, grid: GridSpec, n_paths: int, path=None):
        self.log_s0, self.rho = math.log(params.S0), params.rho
        self.rho_perp = math.sqrt(1.0 - params.rho * params.rho)
        self.sqrt_dt, self.half_dt = math.sqrt(grid.dt), -0.5 * grid.dt
        self.path = np.empty((grid.N + 1, n_paths)) if path is None else path
        self.total, self.vol, self.mix, self.shock = (np.zeros(n_paths) for _ in range(4))

    def step(self, k: int, variance, dw, z_perp) -> np.ndarray:
        """Write row k+1 from V_k, dW_k and z_perp_k; return sqrt(V_k) (scratch)."""
        vol, mix, shock = self.vol, self.mix, self.shock
        np.sqrt(variance, out=vol)
        np.multiply(dw, self.rho, out=mix)
        np.multiply(z_perp, self.sqrt_dt, out=shock)
        shock *= self.rho_perp
        mix += shock
        mix *= vol
        np.multiply(variance, self.half_dt, out=shock)
        mix += shock
        self.total += mix
        np.add(self.total, self.log_s0, out=self.path[k + 1])
        return vol

    def finish(self) -> np.ndarray:
        """Write row 0 after the step loop; return the (paths, N+1) log price."""
        self.path[0] = self.log_s0
        return self.path.T


def _heston_variance(params, grid, memory, z, z_perp, prices_only, exact=None) -> HestonPaths:
    """Step loop of the variance engines, which differ only in their memory.

    V_{k+1} = V0 + convolution of S_j = (theta - lam V_j^+) dt
    + sigma sqrt(V_j^+) dW_j, with dW_j = sqrt(dt) z_j formed in scratch;
    ``exact = (drift_weight, l21, l22, z_frac)`` adds the hybrid scheme's
    exact last step (theta - lam V_k^+) drift_weight + sigma sqrt(V_k^+)
    d_frac_k, with d_frac_k = l21 z_k + l22 z_frac_k, to the far part of
    the convolution before its near window. The log price is the
    :class:`_LogPrice` of V^+, kept in spent normals when it may be. V_k
    lives in row k % R of R = N+1 rows, or of R = 2 with ``prices_only``.
    Step k reads z_k before ``memory.term(k)``, so a direct memory may
    keep S_k in row k of ``z``.
    """
    n_paths = z.shape[1]
    variance = np.empty((2 if prices_only else grid.N + 1, n_paths))
    variance[0] = params.V0
    z_frac = () if exact is None else (exact[3],)
    path = _spent_rows(prices_only, (z[-1:], z_perp), *z_frac)
    prices = _LogPrice(params, grid, n_paths, path)
    dw, shock, d_frac = (np.empty(n_paths) for _ in range(3))
    for k in range(grid.N):
        np.multiply(z[k], prices.sqrt_dt, out=dw)
        step = memory.term(k)
        np.maximum(variance[k % len(variance)], 0.0, out=step)  # positive part of V
        vol = prices.step(k, step, dw, z_perp[k])
        vol *= params.sigma
        step *= -params.lam
        step += params.theta
        if exact is not None:
            drift_weight, l21, l22, z_frac = exact
            far = memory.out[k % _BLOCK]  # the row that convolve(k) finishes
            np.multiply(step, drift_weight, out=shock)
            far += shock
            np.multiply(z[k], l21, out=d_frac)
            np.multiply(z_frac[k], l22, out=shock)
            d_frac += shock
            d_frac *= vol
            far += d_frac
        step *= grid.dt
        np.multiply(vol, dw, out=shock)
        step += shock
        np.add(memory.convolve(k), params.V0, out=variance[(k + 1) % len(variance)])
    return HestonPaths(log_price=prices.finish(), variance=None if prices_only else variance.T)


def heston_volterra_euler(
    params: HestonParams, kernel, grid: GridSpec, z, z_perp, *, prices_only: bool = False
) -> HestonPaths:
    """Direct Euler scheme for rough Heston (O(N^2) per path).

    ``kernel`` is a :class:`RoughKernelSpec` or an :class:`ExpSumKernel`.
    Variance enters drift and diffusion through its positive part; the
    log price advances by the usual explicit step with correlation ``rho``.
    ``z`` and ``z_perp`` are (paths, N) standard normals; step k's
    Brownian increments are sqrt(dt) z_k and sqrt(dt) z_perp_k.
    ``prices_only=True`` keeps the variance in two rows, used in turn,
    and returns ``variance=None``; it also consumes ``z`` and ``z_perp``:
    the (N, paths) history of step terms takes over the rows of ``z``
    when they are writeable, do not overlap and share no memory with
    ``z_perp``, and the (N+1, paths) log price z's last row and the rows
    of ``z_perp`` when these follow z's rows in one writeable buffer with
    equal strides; each else gets an array of its own. Step-major normals
    (the layout of :meth:`rvol.mc.CounterRng.normals_block`) are then
    overwritten, and the returned log price is a view of them; any other
    layout is copied first, so the caller's arrays are kept. A full run
    leaves its normals untouched.
    """
    z, z_perp = _check_normals(grid, z, z_perp)
    history = _spent_rows(prices_only, (z,), z_perp)
    memory = _HistoryMemory(_kernel_table(kernel, grid), z.shape[1], history)
    return _heston_variance(params, grid, memory, z, z_perp, prices_only)


def heston_multifactor_euler(
    params: HestonParams,
    kernel: ExpSumKernel,
    grid: GridSpec,
    z,
    z_perp,
    *,
    prices_only: bool = False,
) -> HestonPaths:
    """Multifactor Euler scheme for rough Heston (O(n N) per path).

    The variance is V0 plus a weighted sum of damped factors that all
    share the common drift/diffusion term evaluated at the aggregated
    variance's positive part. Pass an already truncated kernel to drop
    factors that vanish within one time step. Normals and
    ``prices_only`` as in :func:`heston_volterra_euler`, but with no
    history: ``prices_only`` consumes z's last row and ``z_perp`` only.
    """
    z, z_perp = _check_normals(grid, z, z_perp)
    memory = _expsum_memory(kernel, grid, z.shape[1])
    return _heston_variance(params, grid, memory, z, z_perp, prices_only)


def hybrid_step_covariance(spec: RoughKernelSpec, dt: float) -> np.ndarray:
    """Covariance of (Brownian increment, kernel-weighted increment) on one step.

    The second component is the integral of the rough kernel against the
    Brownian motion over the step; both moments are in closed form.
    """
    dt = require_positive(dt, "dt")
    cross = spec.integral(dt)
    return np.array([[dt, cross], [cross, spec.square_integral(dt)]])


def heston_hybrid_multifactor(
    params: HestonParams,
    spec: RoughKernelSpec,
    kernel: ExpSumKernel,
    grid: GridSpec,
    z,
    z_perp,
    z_frac,
    *,
    prices_only: bool = False,
) -> HestonPaths:
    """Hybrid multifactor scheme: exact Gaussian last step, rational damping.

    Factors use the damping 1/(1 + r_i dt). The next variance is the
    factor-implied prediction plus the most recent step handled with the
    exact rough kernel: the drift is weighted by the closed-form kernel
    integral over one step, and the diffusion by the exact
    kernel-weighted Brownian increment d_frac = l21 z + l22 z_frac, where
    (sqrt(dt), 0; l21, l22) is the Cholesky factor of
    :func:`hybrid_step_covariance`. So (dW, d_frac) has that joint law
    whenever ``z_frac``, a third (paths, N) array of standard normals, is
    independent of ``z``. Normals and ``prices_only`` as in
    :func:`heston_multifactor_euler`; ``z_frac`` is never overwritten.

    Its raw variance goes far below zero on coarse steps, further than
    the direct scheme's (see :class:`HestonPaths`); prices read V^+.

    The scheme is chaotic on fine grids: at N = 640, a one-ulp change of
    every input normal moved an 8192-path call price by about 1e-2
    half-widths. Check a float-level change to it against the Monte
    Carlo half-width, not for bit-identity.

    It is the outlier at small H: at H = 0.01, N = 160 (8192 paths,
    seed 1), ``rvol price`` read 0.0893 +- 0.0026 for the default euro call,
    against 0.0581 +- 0.0016 for ``volterra`` and 0.0575 +- 0.0016 for
    ``multifactor-truncated``. The cause was not traced.
    """
    z, z_perp, z_frac = _check_normals(grid, z, z_perp, z_frac)
    dt = grid.dt
    cov = hybrid_step_covariance(spec, dt)
    l21 = cov[0, 1] / math.sqrt(dt)
    # the exact radicand dt^(2H) (H - 1/2)^2 / (2H a^2 Gamma^2) is
    # nonnegative, but rounds below zero within ~4e-9 of H = 1/2
    l22 = math.sqrt(max(cov[1, 1] - l21 * l21, 0.0))
    predict, _ = kernel.damped(dt)  # w e^{-r dt}
    damp = 1.0 / (1.0 + kernel.rates * dt)
    memory = _FactorMemory(predict, damp, grid.N, z.shape[1], exact_last_step=True)
    exact = (cov[0, 1], l21, l22, z_frac)
    return _heston_variance(params, grid, memory, z, z_perp, prices_only, exact)


def _integrated_loop(params, grid, memory, z, z_perp, prices_only, runmax) -> IntegratedPaths:
    """Step loop of the integrated-variance engines, which differ in memory and floor.

    X_{k+1} = V0 t_{k+1} + convolution of (theta t_j - lam X_j^+ + sigma M_j) dt,
    X^+ being the running max of X (``runmax``) or its positive part; M and
    M_perp grow by sqrt(increase of max X) times z and z_perp. Raw X_k,
    never returned, lives in row k % 2 of two rows; its running max in row
    k % R of R = N+1 rows, or of R = 2 with ``prices_only``. The log
    price is kept as :func:`_heston_variance` keeps it.
    """
    p, dt = params, grid.dt
    n_paths = z.shape[1]
    raw = np.zeros((2, n_paths))
    clamped = np.zeros((2 if prices_only else grid.N + 1, n_paths))
    prices = _LogPrice(p, grid, n_paths, _spent_rows(prices_only, (z[-1:], z_perp)))
    log_s0, rho_perp, log_price = prices.log_s0, prices.rho_perp, prices.path
    mart, mart_perp, inc, tmp, z_k = (np.zeros(n_paths) for _ in range(5))
    for k in range(grid.N):
        x_now, x_next = clamped[k % len(clamped)], clamped[(k + 1) % len(clamped)]
        raw_next = raw[(k + 1) % 2]
        z_k[:] = z[k]  # a direct memory may keep its step term in row k of z
        step = memory.term(k)
        if runmax:
            np.multiply(x_now, p.lam, out=step)
        else:
            np.maximum(raw[k % 2], 0.0, out=step)
            step *= p.lam
        np.subtract(p.theta * (k * dt), step, out=step)
        np.multiply(mart, p.sigma, out=tmp)
        step += tmp
        step *= dt
        np.add(memory.convolve(k), p.V0 * (k * dt + dt), out=raw_next)
        # running max, martingale parts and log price at t_{k+1}
        np.maximum(x_now, raw_next, out=x_next)
        np.subtract(x_next, x_now, out=inc)
        np.sqrt(inc, out=inc)
        np.multiply(inc, z_k, out=tmp)
        mart += tmp
        np.multiply(inc, z_perp[k], out=tmp)
        mart_perp += tmp
        lp = log_price[k + 1]
        np.multiply(x_next, -0.5, out=lp)
        lp += log_s0
        np.multiply(mart, p.rho, out=tmp)
        lp += tmp
        np.multiply(mart_perp, rho_perp, out=tmp)
        lp += tmp
    return IntegratedPaths(
        log_price=prices.finish(), integrated_variance=None if prices_only else clamped.T
    )


def heston_integrated_volterra(
    params: HestonParams,
    kernel,
    grid: GridSpec,
    z,
    z_perp,
    *,
    prices_only: bool = False,
) -> IntegratedPaths:
    """Direct Euler scheme on the integrated variance (O(N^2) per path).

    Discretizes the integrated variance X and approximates the price
    martingale parts by increments with variance equal to the increase
    of the running maximum of X, driven by the standard normal arrays
    ``z`` and ``z_perp`` of shape (paths, N). The mean reversion term
    reads the running maximum of X. ``kernel`` as in
    :func:`heston_volterra_euler`; ``prices_only=True`` keeps the running
    maximum of X in two rows, used in turn, returns
    ``integrated_variance=None`` and consumes ``z`` and ``z_perp`` as
    :func:`heston_volterra_euler` does.

    The scheme is chaotic on fine grids: at N = 640, a one-ulp change of
    every input normal moved an 8192-path call price by about 3e-3
    half-widths and single log prices by up to 0.19. Check a float-level
    change to it against the Monte Carlo half-width, not for
    bit-identity.
    """
    z, z_perp = _check_normals(grid, z, z_perp)
    history = _spent_rows(prices_only, (z,), z_perp)
    memory = _HistoryMemory(_kernel_table(kernel, grid), z.shape[1], history)
    return _integrated_loop(params, grid, memory, z, z_perp, prices_only, runmax=True)


def heston_integrated_multifactor(
    params: HestonParams,
    kernel: ExpSumKernel,
    grid: GridSpec,
    z,
    z_perp,
    *,
    prices_only: bool = False,
) -> IntegratedPaths:
    """Multifactor Euler scheme on the integrated variance (O(n N) per path).

    Same martingale construction as :func:`heston_integrated_volterra`
    with the history sums replaced by damped factor recursions. The mean
    reversion reads the positive part of the aggregated state, not the
    running maximum of the direct scheme. ``prices_only`` as in
    :func:`heston_multifactor_euler`.

    The scheme is chaotic on fine grids: at N = 640, a one-ulp change of
    every input normal moved an 8192-path call price by about 8e-2
    half-widths. Check a float-level change to it against the Monte
    Carlo half-width, not for bit-identity.
    """
    z, z_perp = _check_normals(grid, z, z_perp)
    memory = _expsum_memory(kernel, grid, z.shape[1])
    return _integrated_loop(params, grid, memory, z, z_perp, prices_only, runmax=False)
