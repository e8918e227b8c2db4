"""Rough and exponential-sum kernels with exact L2 error computations.

The singular kernel t^(H-1/2)/Gamma(H+1/2), H in (0, 1/2), is the
Laplace transform of the density c_H rho^(-H-1/2) on the positive half
line. Approximating that density by a finite sum of point masses turns
convolution equations driven by the kernel into finite systems of
exponentially damped factors. This module holds the kernel types, the
spectral density geometry (interval masses and barycenters), and the
exact L2 distance between the rough kernel and any exponential sum:
one exact sum of the streamed Gram terms of the sum, its cross terms
with the rough kernel, and the rough kernel's squared norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import lower_incomplete_gamma, require_count, require_positive

__all__ = [
    "RoughKernelSpec",
    "ExpSumKernel",
    "rough_kernel_eval",
    "expsum_eval",
    "lambda_mass",
    "barycenter",
    "truncation_error_bound",
    "l2_error_exact",
    "l2_error_discrete",
    "expsum_inner_products",
    "write_kernel_csv",
    "read_kernel_csv",
]


@dataclass(frozen=True)
class RoughKernelSpec:
    """Rough kernel t^(H-1/2)/Gamma(H+1/2) with Hurst parameter H.

    The derived constant ``density_const`` is the prefactor c_H of the
    spectral density c_H rho^(-H-1/2).
    """

    H: float

    def __post_init__(self):
        if not 0.0 < self.H < 0.5:
            raise ValueError(f"Hurst parameter must lie in (0, 1/2), got {self.H}")

    @property
    def gamma_head(self) -> float:
        """Gamma(H + 1/2), the kernel normalization."""
        return math.gamma(self.H + 0.5)

    @property
    def density_const(self) -> float:
        """c_H = 1 / (Gamma(H+1/2) Gamma(1/2-H))."""
        return 1.0 / (self.gamma_head * math.gamma(0.5 - self.H))

    def integral(self, t):
        """Integral of the kernel over (0, t): t^(H+1/2) / ((H+1/2) Gamma(H+1/2))."""
        return t ** (self.H + 0.5) / ((self.H + 0.5) * self.gamma_head)

    def square_integral(self, t):
        """Integral of the squared kernel over (0, t): t^(2H) / (2H Gamma(H+1/2)^2)."""
        return t ** (2.0 * self.H) / (2.0 * self.H * self.gamma_head**2)


class ExpSumKernel:
    """Finite exponential sum sum_i w_i exp(-r_i t).

    Weights are nonnegative and rates are nonnegative, finite and
    strictly increasing. Instances are immutable.
    """

    __slots__ = ("weights", "rates")

    def __init__(self, weights, rates):
        w = np.ascontiguousarray(weights, dtype=float)
        r = np.ascontiguousarray(rates, dtype=float)
        if w.ndim != 1 or r.ndim != 1 or w.shape != r.shape:
            raise ValueError("weights and rates must be 1-d arrays of equal length")
        if w.size < 1:
            raise ValueError("kernel needs at least one factor")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(r)):
            raise ValueError("weights and rates must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
            raise ValueError("rates must be nonnegative and strictly increasing")
        w.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)

    def __setattr__(self, name, value):
        raise AttributeError("ExpSumKernel is immutable")

    @property
    def n(self) -> int:
        return self.weights.size

    def __eq__(self, other):
        if not isinstance(other, ExpSumKernel):
            return NotImplemented
        return np.array_equal(self.weights, other.weights) and np.array_equal(
            self.rates, other.rates
        )

    def __repr__(self):
        return f"ExpSumKernel(n={self.n})"

    def damped(self, dt: float):
        """``(u, d)``: each factor's decay d = e^{-r dt} over a step dt, and u = w d."""
        damp = np.exp(-self.rates * dt)
        return self.weights * damp, damp

    def head(self, count: int) -> "ExpSumKernel":
        """Kernel keeping only the first ``count`` (slowest) factors."""
        if not 1 <= count <= self.n:
            raise ValueError(f"count must be in [1, {self.n}]")
        return ExpSumKernel(self.weights[:count], self.rates[:count])


def rough_kernel_eval(spec: RoughKernelSpec, t):
    """Evaluate t^(H-1/2)/Gamma(H+1/2); the kernel is singular at 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise ValueError("rough kernel requires t > 0")
    out = t_arr ** (spec.H - 0.5) / spec.gamma_head
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def expsum_eval(kernel: ExpSumKernel, t):
    """Evaluate the exponential sum; at t = 0 this is the total weight."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("exponential sum defined for t >= 0")
    expo = np.exp(-np.multiply.outer(t_arr, kernel.rates))
    out = expo @ kernel.weights
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _intervals(a, b):
    """Interval ends as float arrays, checked for 0 <= a < b elementwise."""
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all((0.0 <= a_arr) & (a_arr < b_arr)):
        raise ValueError(f"need 0 <= a < b, got [{a}, {b})")
    return a_arr, b_arr


def lambda_mass(spec: RoughKernelSpec, a, b):
    """Spectral density mass of [a, b): integral of c_H rho^(-H-1/2).

    Closed form c_H (b^(1/2-H) - a^(1/2-H)) / (1/2 - H). Accepts arrays
    of interval ends (one mass per interval); scalar ends give a float.
    """
    a_arr, b_arr = _intervals(a, b)
    e = 0.5 - spec.H
    out = spec.density_const * (b_arr**e - a_arr**e) / e
    return float(out) if np.ndim(out) == 0 else out


def barycenter(spec: RoughKernelSpec, a, b):
    """Density-weighted mean of rho over [a, b]; lies strictly inside.

    Closed form (1/2-H)/(3/2-H) * (b^(3/2-H) - a^(3/2-H)) /
    (b^(1/2-H) - a^(1/2-H)). Picking this node cancels the first-order
    term of the discretization error on the interval. Accepts arrays
    like :func:`lambda_mass`. Raises ``ValueError`` for an interval so
    narrow that b^(1/2-H) and a^(1/2-H) round to the same float.
    """
    a_arr, b_arr = _intervals(a, b)
    e = 0.5 - spec.H
    f = 1.5 - spec.H
    spread = b_arr**e - a_arr**e
    if not np.all(spread > 0.0):
        raise ValueError(f"interval [{a}, {b}] too narrow for the barycenter closed form")
    out = (e / f) * (b_arr**f - a_arr**f) / spread
    return float(out) if np.ndim(out) == 0 else out


def truncation_error_bound(spec: RoughKernelSpec, cutoff: float) -> float:
    """L2 error bound from discarding the density above ``cutoff``.

    Equals (1/2) (c_H cutoff^-H / H)^2 and scales as cutoff^(-2H).
    """
    cutoff = require_positive(cutoff, "cutoff")
    tail = spec.density_const * cutoff ** (-spec.H) / spec.H
    return 0.5 * tail * tail


def _phi(x, out=None):
    """(1 - exp(-x)) / x with the removable singularity at 0 filled in.

    ``out`` may be ``x`` itself: the result then overwrites x, and the
    only full-size temporary is exp(-x) - 1.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    numerator = np.negative(x, out=np.empty_like(x))
    np.expm1(numerator, out=numerator)
    positive = x > 0.0
    np.divide(numerator, x, out=out, where=positive)
    np.copyto(out, -1.0, where=~positive)
    return np.negative(out, out=out)


def _pair_gram(rates: np.ndarray, t: float, rows=slice(None)) -> np.ndarray:
    """t phi((r_i + r_j) t), the Gram matrix of the damped factors on (0, t).

    Returns the rows ``rows`` (a slice of the rate indices) against every
    rate, built in place in the result: the only other array of that
    size alive is the one temporary of :func:`_phi`.
    """
    out = np.add.outer(rates[rows], rates)
    out *= t
    _phi(out, out=out)
    out *= t
    return out


# Entries per row block of a streamed Gram: every kernel of up to 256
# factors is one block, and table t5's 800 x 800 Grams are ten.
_BLOCK_ENTRIES = 1 << 16


def _finite_fsum(terms) -> float:
    """``math.fsum`` of ``terms``; ``ValueError`` if a term or the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            total = math.fsum(terms)
        except (OverflowError, ValueError):  # intermediate overflow, or -inf + inf
            total = math.nan
    if not math.isfinite(total):
        raise ValueError("a term of an exact L2 pairing overflows the float range")
    return total


def _gram_terms(w: np.ndarray, rates: np.ndarray, t: float):
    """Diagonal and doubled strict upper part of (w_i w_j) G_ij, by row block.

    G is the Gram of ``rates`` on (0, t), read about ``_BLOCK_ENTRIES``
    entries at a time, so the memory held is O(block). The terms are
    exactly symmetric and doubling is exact, so fsum over the pieces
    equals fsum over all n^2 terms, bit for bit, whatever the blocking.
    """
    m = w.size
    step = max(1, _BLOCK_ENTRIES // m)
    cols = np.arange(m)
    for i0 in range(0, m, step):
        i1 = min(i0 + step, m)
        # G_ij (w_i w_j) rounds as (w_i w_j) G_ij; forming the block first
        # keeps at most two block-sized arrays alive
        terms = _pair_gram(rates, t, slice(i0, i1))
        terms *= np.multiply.outer(w[i0:i1], w)
        yield terms.diagonal(i0).tolist()
        doubled = terms[cols > cols[i0:i1, None]]
        del terms  # free each block before the next one is built
        doubled *= 2.0
        yield memoryview(doubled)
        del doubled


def _fractional_cross_column(spec: RoughKernelSpec, rates: np.ndarray, t: float):
    """Covariances of each factor integral with the fractional integral.

    Entry i equals r_i^(-H-1/2) gamma(H+1/2, r_i t) / Gamma(H+1/2),
    with the r -> 0 limit the kernel's integral over (0, t).
    """
    a = spec.H + 0.5
    g_head = spec.gamma_head
    col = np.empty(rates.size)
    for i, r in enumerate(rates.tolist()):  # Python floats: cheaper scalar arithmetic
        if r == 0.0:
            col[i] = spec.integral(t)
        else:
            col[i] = r ** (-a) * lower_incomplete_gamma(a, r * t) / g_head
    return col


def _pairings(spec: RoughKernelSpec, kernel: ExpSumKernel, t: float):
    """Terms of the L2 pairings on (0, t) for exact summation.

    The streamed Gram terms, the cross terms w_i c_i and the rough
    kernel's squared norm. ``ValueError`` for a horizon that is not
    finite and positive.
    """
    t = require_positive(t, "horizon t")
    w, r = kernel.weights, kernel.rates
    gram = itertools.chain.from_iterable(_gram_terms(w, r, t))
    with np.errstate(over="ignore"):
        cross = (w * _fractional_cross_column(spec, r, t)).tolist()
    return gram, cross, spec.square_integral(t)


def l2_error_exact(spec: RoughKernelSpec, kernel: ExpSumKernel, t: float) -> float:
    """Exact squared L2 distance on (0, t) between rough kernel and sum.

    <sum, sum> - 2 <sum, rough> + <rough, rough> as one exact (Shewchuk)
    sum of the streamed Gram terms, the doubled cross terms and the rough
    kernel's squared norm, clamped at zero: for accurate kernels the
    result sits many orders of magnitude below the individual terms.
    The sum is correctly rounded, so it equals v' Sigma v with v =
    (weights, -1) and Sigma the (n+1) x (n+1) covariance of the n damped
    factor integrals and the rough kernel's integral against one
    Brownian motion on (0, t), whatever the Gram's row blocking, while
    only O(block) memory is held, not O(n^2).
    Raises ``ValueError`` for a horizon that is not finite and positive,
    and when a term overflows.
    """
    gram, cross, rough = _pairings(spec, kernel, t)
    terms = itertools.chain(gram, (-2.0 * c for c in cross), (rough,))
    return max(_finite_fsum(terms), 0.0)


def l2_error_discrete(
    spec: RoughKernelSpec, kernel: ExpSumKernel, T: float, N: int
) -> float:
    """Root mean square kernel gap on the grid kT/N, k = 1..N.

    The grid starts at T/N: the rough kernel is singular at zero, and
    discretization schemes never evaluate it there.
    """
    T = require_positive(T, "horizon T")
    N = require_count(N, "step count N")
    t_grid = np.arange(1, N + 1) * (T / N)
    gap = expsum_eval(kernel, t_grid) - rough_kernel_eval(spec, t_grid)
    return math.sqrt((T / N) * math.fsum((gap * gap).tolist()))


def expsum_inner_products(spec: RoughKernelSpec, kernel: ExpSumKernel, T: float):
    """The three L2 pairings on (0, T): (sum, sum), (sum, rough), (rough, rough).

    All in closed form and summed exactly from the same terms as
    :func:`l2_error_exact`: the cross pairing uses the lower incomplete
    gamma function factor by factor, and the self pairing streams the
    Gram in row blocks. Raises ``ValueError`` for a horizon that is not
    finite and positive, and when a term overflows.
    """
    gram, cross, rough = _pairings(spec, kernel, T)
    return _finite_fsum(gram), _finite_fsum(cross), rough


def write_kernel_csv(kernel: ExpSumKernel, path) -> None:
    """Write factors to CSV with header ``alpha,rho``, 17 significant digits."""
    table = np.column_stack([kernel.weights, kernel.rates])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="alpha,rho", comments="")


def read_kernel_csv(path) -> ExpSumKernel:
    """Read a kernel written by :func:`write_kernel_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "alpha,rho":
            raise ValueError(f"unexpected kernel CSV header: {header!r}")
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != 2:
        raise ValueError(f"kernel CSV rows must hold alpha and rho, got shape {table.shape}")
    return ExpSumKernel(table[:, 0], table[:, 1])
