"""The exact joint covariance matrix behind the L2 pairings, a tail bound, a CSV reader.

``rvol.kernel`` sums the pairings from streamed terms and never forms
this matrix. The tests form it in full as the reference that those
streamed sums must reproduce bit for bit, and as a realistic
rank-deficient input for the factorization. The tests also check the
closed-form L2 bound of the density tail that a quadrature discards,
and read back the kernel CSVs that ``rvol.kernel.write_kernel_csv``
writes.
"""

import numpy as np

from rvol.kernel import ExpSumKernel, _fractional_cross_column, _gram_of_sums
from rvol.numerics import require_positive


def build_joint_covariance(spec, rates, t):
    """Exact (n+1) x (n+1) covariance of factor and fractional integrals.

    For rates r_1 < ... < r_n and horizon t, entry (i, j), i, j <= n, is
    the covariance of the damped Brownian integrals with rates r_i and
    r_j; the last row and column pair each factor with the integral of
    the rough kernel against the same Brownian motion.

    ``l2_error_exact`` is v' Sigma v with v = (weights, -1). Raises
    ``ValueError`` for rates that are not nonnegative and strictly
    increasing, and for a horizon that is not finite and positive.
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("rates must be a nonempty 1-d array")
    if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
        raise ValueError("rates must be nonnegative, strictly increasing")
    t = require_positive(t, "horizon t")
    n = r.size
    cov = np.empty((n + 1, n + 1))
    cov[:n, :n] = _gram_of_sums(np.add.outer(r, r), t)
    cov[:n, n] = cov[n, :n] = _fractional_cross_column(spec, r, t)
    cov[n, n] = spec.square_integral(t)
    return cov


def truncation_error_bound(spec, cutoff):
    """L2 error bound from discarding the density above ``cutoff``.

    Equals (1/2) (c_H cutoff^-H / H)^2 and scales as cutoff^(-2H).
    """
    cutoff = require_positive(cutoff, "cutoff")
    tail = spec.density_const * cutoff ** (-spec.H) / spec.H
    return 0.5 * tail * tail


def read_kernel_csv(path):
    """Read a kernel written by :func:`rvol.kernel.write_kernel_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "alpha,rho":
            raise ValueError(f"unexpected kernel CSV header: {header!r}")
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != 2:
        raise ValueError(f"kernel CSV rows must hold alpha and rho, got shape {table.shape}")
    return ExpSumKernel(table[:, 0], table[:, 1])
