"""Rough and exponential-sum kernels with exact L2 error computations.

The singular kernel t^(H-1/2)/Gamma(H+1/2), H in (0, 1/2), is the
Laplace transform of the density c_H rho^(-H-1/2) on the positive half
line. Approximating that density by a finite sum of point masses turns
convolution equations driven by the kernel into finite systems of
exponentially damped factors. This module holds the kernel types, the
spectral density geometry (interval masses and barycenters), and the
exact L2 distance between the rough kernel and any exponential sum:
one correctly rounded sum of the upper triangle of the sum's Gram, its
cross terms with the rough kernel, and the rough kernel's squared norm.
The exact sum bins the terms by binary exponent, and a Gram too large
for one array streams through it in fixed-size blocks.
"""

from __future__ import annotations

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
    "l2_error_exact",
    "l2_error_discrete",
    "expsum_inner_products",
    "write_kernel_csv",
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


def _gram_of_sums(sums: np.ndarray, t: float) -> np.ndarray:
    """Overwrite rate sums s = r_i + r_j with the Gram entries t phi(s t); returns ``sums``.

    phi(x) = (1 - exp(-x)) / x, with its removable singularity phi(0) = 1
    filled in. t phi((r_i + r_j) t) is the covariance on (0, t) of the
    damped factors of rates r_i and r_j; ``np.add.outer(r, r)`` gives the
    full Gram. The only other array of that size alive is exp(-s t) - 1.
    """
    sums *= t
    numerator = np.negative(sums, out=np.empty_like(sums))
    np.expm1(numerator, out=numerator)
    positive = sums > 0.0
    np.divide(numerator, sums, out=sums, where=positive)
    np.copyto(sums, -1.0, where=~positive)
    np.negative(sums, out=sums)
    sums *= t
    return sums


# Terms per streamed block of the Gram's upper triangle: the triangle of
# every kernel of up to 361 factors is one block, and table t5's
# 800-factor triangles are five.
_BLOCK_ENTRIES = 1 << 16

# np.frexp writes a finite double as m 2^e with 1/2 <= |m| < 1 and
# -1073 <= e <= 1024. trunc(m 2^27), and the other 26 bits of m times
# 2^26, are integers of weights 2^(e-27) and 2^(e-53). Bin j of an exact
# sum holds an integer of weight 2^(j - _BIN_SHIFT): a term's low half
# lands in bin e + _LO_BIN and its high half 26 bins up.
_BIN_SHIFT = 1152
_LO_BIN = _BIN_SHIFT - 53
_BINS = _LO_BIN + 1024 + 27
# Terms binned before a bin's integer sum may pass 2^53 and round.
_BIN_ROOM = 1 << 26
# Terms binned per pass: the two temporaries of a pass are 256 KiB.
_CHUNK_TERMS = 1 << 14
# Both halves of a double are multiples of 2^-1074, so the integer of a
# bin, below 2^53, scales to a double exactly, subnormals included, up
# to this bin; above it the scaled integer may overflow.
_TOP_EXACT_BIN = _BIN_SHIFT + 1024 - 53
# Up to this many terms math.fsum is the faster exact sum.
_FSUM_TERMS = 512
_OVERFLOW = "a term or the total of an exact sum overflows the float range"


class _ExactSum:
    """Exact running sum of float arrays, rounded once at the end.

    The small superaccumulator of Neal (arXiv:1505.05571): each term is
    split into two integers that np.bincount adds, exactly, into the bin
    of their binary exponent. The total depends neither on the order
    nor on the grouping of the terms, and :meth:`value` equals
    ``math.fsum`` over all of them, bit for bit; an exact zero is +0.0.
    """

    __slots__ = ("bins", "room", "carry")

    def __init__(self):
        self.bins = np.zeros(_BINS)
        self.room = _BIN_ROOM
        self.carry = 0  # emptied bins, in units of 2^-_BIN_SHIFT

    def add(self, terms: np.ndarray) -> None:
        """Add the terms of a float array, overwriting the array."""
        with np.errstate(invalid="ignore"):  # inf - inf: a nan bin
            for k in range(0, terms.size, _CHUNK_TERMS):
                self._add_chunk(terms[k : k + _CHUNK_TERMS])

    def _add_chunk(self, terms: np.ndarray) -> None:
        if terms.size > self.room:
            self.carry = self._integer(*self._nonzero())
            self.bins[:] = 0.0
            self.room = _BIN_ROOM
        self.room -= terms.size
        e = np.empty(terms.size, dtype=np.intp)
        m = np.frexp(terms, out=(terms, e))[0]
        m *= 2.0**27
        hi = np.trunc(m)
        m -= hi
        m *= 2.0**26
        e += _LO_BIN
        self.bins[:-26] += np.bincount(e, weights=m, minlength=_BINS - 26)
        self.bins[26:] += np.bincount(e, weights=hi, minlength=_BINS - 26)

    def _nonzero(self):
        """Indices and integers of the nonzero bins; ``ValueError`` if one is not finite."""
        j = (self.bins != 0.0).nonzero()[0]
        b = self.bins[j]
        if not math.isfinite(b.sum()):
            raise ValueError(_OVERFLOW)
        return j, b

    def _integer(self, j, b) -> int:
        """The sum in units of 2^-_BIN_SHIFT."""
        total = self.carry
        for k, x in zip(j.tolist(), b.tolist()):
            total += int(x) << k
        return total

    def value(self) -> float:
        """The correctly rounded sum; ``ValueError`` when it overflows."""
        j, b = self._nonzero()
        if self.carry == 0 and (j.size == 0 or j[-1] <= _TOP_EXACT_BIN):
            try:  # each scaled bin is exact, so fsum rounds the true sum
                return math.fsum(np.ldexp(b, j - _BIN_SHIFT).tolist())
            except OverflowError:
                pass
        try:  # integer true division rounds correctly, also to subnormals
            return self._integer(j, b) / (1 << _BIN_SHIFT)
        except OverflowError:
            raise ValueError(_OVERFLOW) from None


def _exact_sum(terms: np.ndarray) -> float:
    """Correctly rounded sum of a float array, which it may overwrite.

    Equals :meth:`_ExactSum.value`, bit for bit. Up to ``_FSUM_TERMS``
    terms, ``math.fsum`` over a list rounds the same sum faster than the
    bins do; they still decide when fsum meets an infinity or an
    intermediate overflow.
    """
    if terms.size <= _FSUM_TERMS:
        try:
            total = math.fsum(terms.tolist())
        except (OverflowError, ValueError):  # intermediate overflow, or -inf + inf
            total = math.nan
        if math.isfinite(total):
            return total
    acc = _ExactSum()
    acc.add(terms)
    return acc.value()


def _wrapped(x: np.ndarray, d0: int, d1: int) -> np.ndarray:
    """View V[d - d0, i] = x[(i + d) mod n] for d = d0..d1-1, n = x.size."""
    twice = np.concatenate((x, x))
    step = twice.itemsize
    return np.ndarray((d1 - d0, x.size), twice.dtype, twice, d0 * step, (step, step))


def _gram_diagonals(w: np.ndarray, rates: np.ndarray, t: float, d0: int, d1: int, out: np.ndarray):
    """Write the terms (w_i w_j) G_ij of the pairs i <= j at offsets d0..d1-1 into ``out``.

    G is the Gram of ``rates`` on (0, t). Offset d holds the n pairs
    (i, (i + d) mod n), and offsets 0..n//2 hold each pair of the upper
    triangle once, except offset n/2 for even n, which holds each of its
    pairs twice and is cut to its first half. The terms off the
    diagonal (d > 0) are doubled, so the terms of all offsets sum to the
    full quadratic form: G and the weight products are exactly symmetric
    and doubling is exact. Only the triangle's n(n+1)/2 entries reach
    expm1. ``out`` needs (d1 - d0) n entries; returns how many terms were
    written.
    """
    n = w.size
    grid = out[: (d1 - d0) * n].reshape(d1 - d0, n)
    np.add(rates, _wrapped(rates, d0, d1), out=grid)
    count = grid.size - (n // 2 if 2 * (d1 - 1) == n else 0)
    gram = _gram_of_sums(out[:count], t)
    # G_ij (w_i w_j), rounded as in the full matrix
    gram *= np.multiply(w, _wrapped(w, d0, d1)).ravel()[:count]
    gram[n if d0 == 0 else 0 :] *= 2.0
    return count


def _quadratic_form(w: np.ndarray, rates: np.ndarray, t: float, tail: np.ndarray) -> float:
    """Exact sum of w' G w, G the Gram of ``rates`` on (0, t), and the terms ``tail``.

    A triangle of at most ``_BLOCK_ENTRIES`` terms is summed with the
    tail as one array. A larger one streams blocks of offsets, each of at
    most ``_BLOCK_ENTRIES`` entries (or one offset), through one buffer,
    so the memory held is O(block), not O(n^2).
    """
    n = w.size
    offsets = n // 2 + 1
    triangle = n * (n + 1) // 2
    if triangle <= _BLOCK_ENTRIES:
        terms = np.empty(max(offsets * n, triangle + tail.size))
        _gram_diagonals(w, rates, t, 0, offsets, terms)
        terms[triangle : triangle + tail.size] = tail
        return _exact_sum(terms[: triangle + tail.size])
    acc = _ExactSum()
    step = max(1, _BLOCK_ENTRIES // n)
    block = np.empty(step * n)
    for d0 in range(0, offsets, step):
        acc.add(block[: _gram_diagonals(w, rates, t, d0, min(d0 + step, offsets), block)])
    acc.add(tail)
    return acc.value()


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


def l2_error_exact(spec: RoughKernelSpec, kernel: ExpSumKernel, t: float) -> float:
    """Exact squared L2 distance on (0, t) between rough kernel and sum.

    <sum, sum> - 2 <sum, rough> + <rough, rough> as one exact, binned
    sum of the Gram's upper-triangle terms (the strict ones doubled),
    the doubled cross terms w_i c_i and the rough kernel's squared norm,
    clamped at zero: for accurate kernels the result sits many orders of
    magnitude below the individual terms. The sum is correctly rounded,
    so it equals v' Sigma v with v = (weights, -1) and Sigma the
    (n+1) x (n+1) covariance of the n damped factor integrals and the
    rough kernel's integral against one Brownian motion on (0, t),
    whatever the Gram's blocking, while only O(block) memory is held,
    not O(n^2).
    Raises ``ValueError`` for a horizon that is not finite and positive,
    and when a term or the total overflows.
    """
    t = require_positive(t, "horizon t")
    w, r = kernel.weights, kernel.rates
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0: a nan term
        cross = -2.0 * (w * _fractional_cross_column(spec, r, t))
        tail = np.concatenate((cross, [spec.square_integral(t)]))
        return max(_quadratic_form(w, r, t, tail), 0.0)


def l2_error_discrete(
    spec: RoughKernelSpec, kernel: ExpSumKernel, T: float, N: int
) -> float:
    """Root mean square kernel gap on the grid kT/N, k = 1..N.

    The grid starts at T/N: the rough kernel is singular at zero, and
    discretization schemes never evaluate it there. Raises
    ``ValueError`` when a squared gap or the result overflows.
    """
    T = require_positive(T, "horizon T")
    N = require_count(N, "step count N")
    t_grid = np.arange(1, N + 1) * (T / N)
    with np.errstate(over="ignore"):
        gap = expsum_eval(kernel, t_grid) - rough_kernel_eval(spec, t_grid)
        error = math.sqrt((T / N) * _exact_sum(gap * gap))
    if not math.isfinite(error):
        raise ValueError(f"the discrete L2 error overflows the float range: {error}")
    return error


def expsum_inner_products(spec: RoughKernelSpec, kernel: ExpSumKernel, T: float):
    """The three L2 pairings on (0, T): (sum, sum), (sum, rough), (rough, rough).

    All in closed form and summed exactly from the same terms as
    :func:`l2_error_exact`: the cross pairing uses the lower incomplete
    gamma function factor by factor, and the self pairing streams the
    Gram's upper triangle in blocks. Raises ``ValueError`` for a horizon
    that is not finite and positive, and when a term or a total
    overflows.
    """
    T = require_positive(T, "horizon t")
    w, r = kernel.weights, kernel.rates
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0: a nan term
        cross = w * _fractional_cross_column(spec, r, T)
        self_product = _quadratic_form(w, r, T, np.empty(0))
    return self_product, _exact_sum(cross), spec.square_integral(T)


def write_kernel_csv(kernel: ExpSumKernel, path) -> None:
    """Write factors to CSV with header ``alpha,rho``, 17 significant digits."""
    table = np.column_stack([kernel.weights, kernel.rates])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="alpha,rho", comments="")
