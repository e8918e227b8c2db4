"""Low-level numerical routines shared by the rest of the package.

The lower incomplete gamma function, a one-dimensional golden-section
minimizer, a quadrature in numpy alone (a Gauss-Kronrod rule, then a
tanh-sinh rule for endpoint singularities) that builds the cross-time
entries of the exact rough Bergomi covariance, and a clipped Cholesky
factorization for nearly positive semidefinite covariance matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields
from functools import lru_cache

import numpy as np
from scipy.special.cython_special import gammainc

__all__ = [
    "IntegrationError",
    "lower_incomplete_gamma",
    "minimize_scalar",
    "integrate",
    "psd_factorize",
]


def require_finite(params) -> None:
    """Raise ``ValueError`` naming the first non-finite field of a dataclass.

    NaN fails no ordering comparison, so range checks alone let it through.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def require_positive(value, name: str) -> float:
    """``value`` as a float; ``ValueError`` unless it is finite and positive.

    NaN fails every comparison and +inf passes ``> 0``, so ``<= 0`` checks
    alone let both through.
    """
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def require_integer(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer.

    Python and numpy integers pass. A float fails even when integral,
    and so does a bool: a step count of 2.5 would put grid points past
    the horizon, and ``int()`` would hide it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_count(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer >= 1."""
    value = require_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


class IntegrationError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma integral of s^(a-1) exp(-s) over (0, x).

    The regularized integral ``gammainc`` times Gamma(a), called through
    ``scipy.special.cython_special``: the same compiled function as the
    ufunc, without its per-call dispatch. NaN arguments raise instead of
    propagating.
    """
    if not a > 0.0:
        raise ValueError(f"lower_incomplete_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got {x}")
    return gammainc(a, x) * math.gamma(a)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MIN_TOL = 1e-9  # minimize_scalar: bracket width at which the search stops


def minimize_scalar(f, lo: float, hi: float):
    """Golden-section search on [lo, hi].

    Returns ``(argmin, value)``. For a unimodal objective the argmin is
    within 1e-9 of the true minimizer; for general continuous
    objectives it converges to a local minimizer. Iterations are capped
    at 200, enough to shrink any practical bracket far below 1e-9.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= _MIN_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


_QUAD_TOL = 1e-12  # integrate: absolute and relative tolerance
_DE_LEVELS = 8  # integrate: step halvings of the tanh-sinh rule
_DE_RANGE = 6.0  # integrate: the tanh-sinh rule's half-range in t

# QUADPACK's qk21 on [-1, 1]: the 10-point Gauss rule and its 21-point
# Kronrod extension, nodes in ascending order
_GK_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980222805, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G_HALF_WEIGHTS = np.array([  # at the Kronrod nodes 1, 3, ..., 9
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_GK_HALF_NODES[:-1], _GK_HALF_NODES[::-1]])


def _gauss_kronrod_rows():
    """The Kronrod weights of the 21 nodes, and those weights less the Gauss weights."""
    kronrod = np.concatenate([_GK_HALF_WEIGHTS[:-1], _GK_HALF_WEIGHTS[::-1]])
    gauss = np.zeros(21)
    gauss[1:10:2] = _G_HALF_WEIGHTS
    gauss[19:10:-2] = _G_HALF_WEIGHTS
    return kronrod, kronrod - gauss


_KRONROD, _KRONROD_GAP = _gauss_kronrod_rows()


@lru_cache(maxsize=None)
def _tanh_sinh_levels(halvings: int) -> tuple:
    """Per step h = 1, 1/2, ..., 2^-halvings, the new nodes of the tanh-sinh rule on (0, 1).

    s = (1 + tanh(pi/2 sinh t)) / 2 maps t on the real line onto (0, 1).
    Each level is ``(n_lo, dist, weight, weight / dist)``: the distances
    of its nodes from the nearer endpoint, the first ``n_lo`` of them
    (t <= 0) from 0 and the rest from 1, and h times ds/dt there.
    Written as e / (1 + e) with e = exp(-pi |sinh t|), a distance keeps
    its relative precision down to the smallest, about 1e-275 at
    |t| = 6, where the rule reads a singular integrand. Built on first
    use, so that a run with no singular integrand holds no tables.
    """
    levels = []
    for k in range(halvings + 1):
        h = 2.0**-k
        start = -_DE_RANGE if k == 0 else -_DE_RANGE + h
        t = np.arange(start, _DE_RANGE + 0.5 * h, h if k == 0 else 2.0 * h)
        e = np.exp(-math.pi * np.abs(np.sinh(t)))
        dist = e / (1.0 + e)
        weight = h * math.pi * np.cosh(t) * dist / (1.0 + e)
        # the node t = 0 sits at 1/2 from both ends; it counts among those from 0
        levels.append((int(np.count_nonzero(t <= 0.0)), dist, weight, weight / dist))
    return tuple(levels)


def _values(f, s: np.ndarray) -> np.ndarray:
    """``f`` at the abscissas ``s``, as an array of their shape; a scalar broadcasts."""
    values = f(s)
    if not (isinstance(values, np.ndarray) and values.shape == s.shape):
        values = np.broadcast_to(np.asarray(values, dtype=float), s.shape)
    return values


def _not_finite(values: np.ndarray, s: np.ndarray) -> IntegrationError:
    """The error for ``values`` of ``f`` at ``s`` whose positively weighted sum is not finite.

    A sum with positive weights is finite when its terms are, so it is
    the one check made; the error names a node where ``f`` is not finite.
    """
    where = int(np.argmin(np.isfinite(values)))
    return IntegrationError(
        f"integrand is {values[where]} at s = {float(s[where])!r}", best_estimate=math.nan
    )


def integrate(f, lo: float, hi: float) -> float:
    """Quadrature of ``f`` over (lo, hi) at 1e-12 absolute and relative tolerance.

    ``f`` is called on numpy arrays of abscissas and returns the values
    there as an array of the same shape, or one scalar for a constant.
    The 21-point Gauss-Kronrod rule of QUADPACK's qk21 runs first, with
    |Kronrod - Gauss| as its error bound. An interval that fails it goes
    to the double-exponential (tanh-sinh) rule of Takahasi and Mori
    ("Double exponential formulas for numerical integration", Publ. RIMS
    1974), whose step is halved until two estimates agree to the
    tolerance, at most 8 times. Its nodes are placed by their distance
    from each endpoint, so an integrable singularity s^beta at an
    endpoint 0 is resolved down to beta = -0.9 or so: the covariance
    pieces of :func:`rvol.bergomi.fractional_joint_covariance` are
    singular at lo = 0. At a nonzero endpoint the distances are rounded
    to the endpoint's ulp, which blurs a singular integrand at the
    nearest nodes; the rule raises where that blur exceeds the
    tolerance, as it does for (1 - s)^beta on (0, 1) below beta = -0.2
    or so. It builds the exact rough Bergomi covariance once per grid;
    it is not used in simulation hot paths.

    Raises :class:`IntegrationError`, carrying the last estimate in
    ``best_estimate``, when the rule does not converge or the blur
    exceeds the tolerance; also when ``f`` is not finite at a node, with
    NaN for the estimate. Raises ``ValueError`` for an infinite bound.
    Reversed bounds flip the sign.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integrate requires finite bounds, got ({lo}, {hi})")
    if hi < lo:
        return -integrate(f, hi, lo)
    half = 0.5 * (hi - lo)
    nodes = _GK_NODES * half + 0.5 * (lo + hi)
    values = _values(f, nodes)
    kronrod = half * float(np.dot(_KRONROD, values))
    if not math.isfinite(kronrod):
        raise _not_finite(values, nodes)
    if abs(half * float(np.dot(_KRONROD_GAP, values))) <= _QUAD_TOL * max(1.0, abs(kronrod)):
        return kronrod
    width = hi - lo
    total = err = math.nan
    for k, (n_lo, dist, weight, rate) in enumerate(_tanh_sinh_levels(_DE_LEVELS)):
        s = dist * width
        s[:n_lo] += lo
        s[n_lo:] = hi - s[n_lo:]
        inside = (s > lo) & (s < hi)  # a node rounded onto an endpoint is left out
        values = _values(f, s[inside])
        part = width * float(np.dot(weight[inside], values))
        if not math.isfinite(part):
            raise _not_finite(values, s[inside])
        previous, total = total, (0.5 * total + part if k else part)
        # a node's distance from a nonzero endpoint is rounded to the
        # endpoint's spacing; where f scales like a power of that distance,
        # its value is off by about |f| spacing / distance
        m = int(np.count_nonzero(inside[:n_lo]))
        scaled = np.abs(values) * rate[inside]
        blur = math.ulp(lo) * float(scaled[:m].sum()) + math.ulp(hi) * float(scaled[m:].sum())
        if blur > _QUAD_TOL * max(1.0, abs(total)):
            raise IntegrationError(
                f"integrand error of about {blur:.3e} from the rounding of the "
                f"nodes nearest an endpoint of ({lo}, {hi})",
                best_estimate=total,
            )
        err = abs(total - previous)
        if err <= _QUAD_TOL * max(1.0, abs(total)):
            return total
    raise IntegrationError(
        f"quadrature did not converge within {_DE_LEVELS} step halvings "
        f"(estimated error {err:.3e})",
        best_estimate=total,
    )


_NEG_TOL = 1e-6  # psd_factorize: relative pivot below which a matrix is indefinite
_ZERO_TOL = 1e-12  # psd_factorize: relative pivot at or below which variance is noise


def psd_factorize(matrix, pivot: bool = True, floor: float = 0.0):
    """Square-root factor of a nearly positive semidefinite matrix.

    Cholesky elimination with diagonal pivoting: at each step the
    largest remaining conditional variance is eliminated, which keeps
    the factorization stable on the severely rank-deficient covariance
    matrices of near-collinear exponential factors. Remaining pivots at
    or below 1e-12 times the largest diagonal entry are treated as exact
    zeros (their rows are left at zero), discarding only noise-level
    variance.

    Returns a factor ``L`` with ``L @ L.T`` equal to the input up to the
    discarded noise; ``L`` is lower triangular up to a row permutation
    (exactly lower triangular with ``pivot=False``, appropriate for
    comfortably definite matrices whose component ordering must be
    preserved). Raises ``ValueError`` if any candidate pivot falls below
    -1e-6 times the largest diagonal entry, i.e. the matrix is
    indefinite beyond rounding noise.

    Both tolerances use ``floor`` in place of the largest diagonal entry
    when that is smaller. A caller whose matrix is a difference of
    larger terms passes a floor above their rounding noise and below
    the variances it must keep, so that a difference that is zero up to
    rounding factors to zero instead of reading as indefinite.
    """
    work = np.array(matrix, dtype=float, copy=True)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError("matrix must be square")
    m = work.shape[0]
    scale = float(np.max(np.abs(work))) if m else 0.0
    if not np.allclose(work, work.T, rtol=0.0, atol=1e-12 * max(scale, 1.0)):
        raise ValueError("matrix must be symmetric")
    factor = np.zeros_like(work)
    perm = np.arange(m)
    max_diag = max(float(work.diagonal().max(initial=0.0)), floor)
    for j in range(m):
        p = j + int(np.argmax(work.diagonal()[j:])) if pivot else j
        d = work[p, p]
        if d < -_NEG_TOL * max_diag:
            raise ValueError(
                f"matrix not PSD within tolerance: pivot {d:.3e} "
                f"below {-_NEG_TOL * max_diag:.3e}"
            )
        if d <= _ZERO_TOL * max_diag:
            if pivot:
                break  # everything left is noise-level; rows stay zero
            continue
        if p != j:
            work[[j, p], :] = work[[p, j], :]
            work[:, [j, p]] = work[:, [p, j]]
            factor[[j, p], :] = factor[[p, j], :]
            perm[[j, p]] = perm[[p, j]]
        factor[j, j] = math.sqrt(d)
        factor[j + 1 :, j] = work[j + 1 :, j] / factor[j, j]
        work[j + 1 :, j + 1 :] -= np.outer(factor[j + 1 :, j], factor[j + 1 :, j])
    inverse_perm = np.empty(m, dtype=int)
    inverse_perm[perm] = np.arange(m)
    return factor[inverse_perm, :]
