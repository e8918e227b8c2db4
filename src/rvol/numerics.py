"""Low-level numerical routines shared by the rest of the package.

The lower incomplete gamma function, a one-dimensional golden-section
minimizer, an adaptive quadrature wrapper that builds the cross-time
entries of the exact rough Bergomi covariance, and a clipped Cholesky
factorization for nearly positive semidefinite covariance matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

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
_QUAD_LIMIT = 400  # integrate: subdivisions


def integrate(f, lo: float, hi: float) -> float:
    """Adaptive quadrature of ``f`` over (lo, hi].

    Thin wrapper over QUADPACK (scipy.integrate.quad) at 1e-12 absolute
    and relative tolerance with up to 400 subdivisions. Integrable
    endpoint singularities of type s^beta with beta > -1 at ``lo`` are
    handled by the adaptive subdivision with extrapolation. It builds
    the exact rough Bergomi covariance once per grid; it is not used in
    simulation hot paths. Raises :class:`IntegrationError` when the
    estimated error exceeds the tolerance.
    """
    from scipy import integrate as scipy_integrate  # slow import, needed only here

    # full_output makes quad return its message in ``rest`` and warn of nothing
    value, abserr, info, *rest = scipy_integrate.quad(
        f,
        lo,
        hi,
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
        limit=_QUAD_LIMIT,
        full_output=1,
    )
    if rest and abserr > _QUAD_TOL * max(1.0, abs(value)):
        raise IntegrationError(
            f"quadrature did not converge within {_QUAD_LIMIT} subdivisions "
            f"(estimated error {abserr:.3e})",
            best_estimate=value,
        )
    return value


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
