"""Constructors for the exponential-sum kernels.

Each builder discretizes the spectral density c_H rho^(-H-1/2) into a
finite point measure: plain interval rules on a truncated range,
composite Simpson / Newton-Cotes rules on the upper part of the range,
a geometric extension of the truncation range, and the fully systematic
construction that optimizes the geometric ratio and then rescales the
weights to the best L2 fit. The builders take the interval count and
the truncation as plain arguments; a truncation K or split exponent
beta left at None takes the paper's value from :func:`paper_truncation`.
A factor-count reduction picks the smallest head of a kernel whose
discarded tail is negligible at the first grid point of a simulation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .kernel import (
    ExpSumKernel,
    RoughKernelSpec,
    barycenter,
    expsum_inner_products,
    l2_error_exact,
    lambda_mass,
)
from .numerics import minimize_scalar, require_count, require_positive

__all__ = [
    "paper_truncation",
    "newton_cotes_coefficients",
    "build_riemann",
    "build_newton_cotes",
    "build_geometric",
    "optimize_tail_ratio",
    "rescale_weights",
    "build_systematic",
    "truncate_factors",
]

_NODE_RULES = ("midpoint", "barycentric")

# The optimal geometric ratio is O(1)-O(10) in practice; the bracket is
# generous on both sides and the search runs on log ratio.
_RATIO_BRACKET = (1.05, 50.0)
# The barycenters raise the geometric edges to powers below 3/2, so edges
# up to this ceiling keep every closed form of the kernel finite.
_EDGE_CEILING = 1e150


def paper_truncation(rule: str, H: float, n: int, node_rule: str = "barycentric"):
    """The paper's truncation K and split exponent beta for n intervals: ``(K, beta)``.

    ``rule="interval"``: K = n^(2/3) for midpoint nodes (table t1) and
    n^(4/5) for barycentric ones (t2, and the geometric and systematic
    kernels); beta is None. ``rule="newton-cotes"``: the exponents of
    tables t3 (midpoint nodes) and t4 (barycentric nodes).
    """
    if rule not in ("interval", "newton-cotes"):
        raise ValueError("rule must be 'interval' or 'newton-cotes'")
    if rule == "interval":
        return float(n) ** (2.0 / 3.0 if node_rule == "midpoint" else 0.8), None
    if node_rule == "midpoint":
        k_exp, beta = (13.0 - 6.0 * H) / (15.0 - 6.0 * H), (10.0 - 6.0 * H) / (13.0 - 6.0 * H)
    else:
        k_exp, beta = (22.0 - 4.0 * H) / (25.0 - 4.0 * H), (20.0 - 4.0 * H) / (22.0 - 4.0 * H)
    return float(n) ** k_exp, beta


def _solve_rational(matrix, rhs):
    """Gaussian elimination over exact rationals."""
    m = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot_row = next(i for i in range(col, m) if aug[i][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for i in range(m):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][m] for i in range(m)]


@lru_cache(maxsize=None)
def newton_cotes_coefficients(J: int) -> tuple:
    """Closed Newton-Cotes coefficients (c_0, ..., c_J) as exact Fractions.

    Defined by exactness of (b-a) sum_j c_j f(a + j (b-a)/J) for
    polynomials up to degree J, i.e. the moment equations
    sum_j c_j (j/J)^m = 1/(m+1) for m = 0..J, solved in rational
    arithmetic to avoid coefficient transcription errors.
    """
    if J < 2 or J % 2 != 0:
        raise ValueError("J must be an even integer >= 2")
    nodes = [Fraction(j, J) for j in range(J + 1)]
    matrix = [[node**m for node in nodes] for m in range(J + 1)]
    rhs = [Fraction(1, m + 1) for m in range(J + 1)]
    return tuple(_solve_rational(matrix, rhs))


def _interval_part(spec: RoughKernelSpec, n: int, upper: float, node_rule: str):
    """Density masses and nodes of n uniform intervals on [0, upper)."""
    if node_rule not in _NODE_RULES:
        raise ValueError(f"node_rule must be one of {_NODE_RULES}, got {node_rule!r}")
    edges = np.linspace(0.0, upper, n + 1)
    weights = lambda_mass(spec, edges[:-1], edges[1:])
    if node_rule == "midpoint":
        rates = 0.5 * (edges[:-1] + edges[1:])
    else:
        rates = barycenter(spec, edges[:-1], edges[1:])
    return weights, rates


def build_riemann(
    spec: RoughKernelSpec, n: int, K: float | None = None, node_rule: str = "barycentric"
) -> ExpSumKernel:
    """Interval rule on n uniform intervals of [0, K): weight = density mass.

    ``node_rule`` picks each interval's rate: the midpoint, or the
    density barycenter, which improves the convergence rate. K defaults
    to :func:`paper_truncation`'s value for the node rule.
    """
    n = require_count(n, "n")
    if K is None:
        K, _ = paper_truncation("interval", spec.H, n, node_rule)
    weights, rates = _interval_part(spec, n, require_positive(K, "K"), node_rule)
    return ExpSumKernel(weights, rates)


def build_newton_cotes(
    spec: RoughKernelSpec,
    n: int,
    K: float | None = None,
    beta: float | None = None,
    J: int = 2,
    node_rule: str = "midpoint",
) -> ExpSumKernel:
    """Interval rule below K^beta, composite J-point Newton-Cotes on [K^beta, K].

    J is the (even) Newton-Cotes order; J = 2 is Simpson's rule. The node
    rule applies to the n lower intervals only. Panel i of the upper range
    carries J+1 equispaced nodes K^beta + (K - K^beta)/n * (i - 1 + j/J)
    weighted by c_H (K - K^beta)/n * c_j * rho^(-H-1/2). Coincident
    panel-boundary nodes are merged by summing their weights, leaving
    J n + 1 distinct upper nodes. K and beta default to
    :func:`paper_truncation`'s values for the node rule.
    """
    n = require_count(n, "n")
    coeffs = [float(c) for c in newton_cotes_coefficients(require_count(J, "J"))]
    default_k, default_beta = paper_truncation("newton-cotes", spec.H, n, node_rule)
    K = require_positive(default_k if K is None else K, "K")
    beta = require_positive(default_beta if beta is None else beta, "beta")
    if K <= 1.0:
        raise ValueError(f"K must exceed 1 so that K^beta < K, got {K}")
    if beta >= 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    split = K**beta
    lower_w, lower_r = _interval_part(spec, n, split, node_rule)
    span = K - split
    panel = span / n
    merged: dict[float, float] = {}
    prefactor = spec.density_const * span / n
    for i in range(1, n + 1):
        for j, c in enumerate(coeffs):
            rho = split + panel * (i - 1 + j / J)
            weight = prefactor * c * rho ** (-spec.H - 0.5)
            merged[rho] = merged.get(rho, 0.0) + weight
    upper_r = np.array(sorted(merged))
    upper_w = np.array([merged[r] for r in upper_r])
    return ExpSumKernel(
        np.concatenate([lower_w, upper_w]), np.concatenate([lower_r, upper_r])
    )


def build_geometric(
    spec: RoughKernelSpec, n: int, A: float, K: float | None = None
) -> ExpSumKernel:
    """Barycentric kernel on n uniform intervals of [0, K) plus n geometric ones.

    The geometric part covers [K, K A^n) with ratio A > 1, so the kernel
    has 2n factors. K defaults to :func:`paper_truncation`'s n^(4/5).
    """
    n = require_count(n, "n")
    if K is None:
        K, _ = paper_truncation("interval", spec.H, n)
    K = require_positive(K, "K")
    A = float(A)
    if not (math.isfinite(A) and A > 1.0):
        raise ValueError(f"geometric ratio A must be finite and exceed 1, got {A}")
    edges = [i * K / n for i in range(n + 1)]
    top = K
    for _ in range(n):
        top *= A
        if not math.isfinite(top):
            raise OverflowError(f"geometric endpoint K*A^n overflows for K={K}, A={A}, n={n}")
        edges.append(top)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    return ExpSumKernel(lambda_mass(spec, lo, hi), barycenter(spec, lo, hi))


def _ratio_bracket(n: int, K: float) -> tuple[float, float]:
    """``_RATIO_BRACKET`` with its top capped so that K A^n stays below ``_EDGE_CEILING``."""
    lo, hi = _RATIO_BRACKET
    cap = math.exp((math.log(_EDGE_CEILING) - math.log(K)) / n)
    if cap < lo:
        raise ValueError(f"no ratio >= {lo} keeps K*A^n below {_EDGE_CEILING:g} at n = {n}")
    return lo, min(hi, cap)


def optimize_tail_ratio(spec: RoughKernelSpec, n: int, K: float, T: float):
    """Geometric ratio minimizing the exact L2 kernel error on (0, T).

    Golden-section search over the logarithm of the ratio in [1.05, 50],
    to 1e-9; the objective is smooth, cheap (closed forms only) and
    empirically unimodal there. For large n the top of the bracket
    drops to the ratio at which the last geometric edge K A^n reaches
    1e150, so that every build stays finite; ``ValueError`` if even
    1.05 passes it. Returns ``(ratio, error)``.
    """

    def objective(log_ratio):
        return l2_error_exact(spec, build_geometric(spec, n, math.exp(log_ratio), K), T)

    lo, hi = _ratio_bracket(n, K)
    log_best, err = minimize_scalar(objective, math.log(lo), math.log(hi))
    return math.exp(log_best), err


def rescale_weights(spec: RoughKernelSpec, kernel: ExpSumKernel, T: float):
    """Scale all weights by the L2-optimal factor on (0, T).

    The optimal scale is the ratio of the cross pairing to the kernel's
    own squared norm; the rescaled kernel is the L2 projection of the
    rough kernel onto the span of the given exponential sum. Returns
    ``(kernel, scale)``; the scale is >= 1 whenever the input kernel
    lies below the rough kernel pointwise.
    """
    self_product, cross_product, _ = expsum_inner_products(spec, kernel, T)
    if self_product <= 0.0:
        raise ValueError("cannot rescale a kernel with zero L2 norm")
    scale = cross_product / self_product
    return ExpSumKernel(kernel.weights * scale, kernel.rates), scale


def build_systematic(spec: RoughKernelSpec, n_total: int, T: float) -> ExpSumKernel:
    """Systematic kernel with ``n_total`` factors on horizon T.

    Geometric construction with n = n_total/2, K = n^(4/5), the tail
    ratio optimized numerically and the weights rescaled to the best L2
    fit. This is the production kernel used by the multifactor
    simulation schemes.
    """
    if require_count(n_total, "n_total") % 2 != 0:
        raise ValueError(f"n_total must be an even integer >= 2, got {n_total}")
    n = n_total // 2
    K, _ = paper_truncation("interval", spec.H, n)
    ratio, _ = optimize_tail_ratio(spec, n, K, T)
    geometric = build_geometric(spec, n, ratio, K)
    rescaled, _ = rescale_weights(spec, geometric, T)
    return rescaled


def truncate_factors(kernel: ExpSumKernel, T: float, N: int):
    """Drop fast factors that are negligible at the first grid point.

    Returns the smallest head of the kernel whose discarded tail
    satisfies sum_{i > k} w_i exp(-r_i dt) <= dt with dt = T/N, together
    with the retained factor count. Factors with enormous rates damp to
    nothing within a single step of size T/N, so simulating them is
    wasted work.
    """
    T = require_positive(T, "horizon T")
    N = require_count(N, "step count N")
    dt = T / N
    damped, _ = kernel.damped(dt)
    # tail_after[k] = sum_{i >= k} damped[i]; the empty tail after all n
    # factors is 0 <= dt, so some count in 1..n meets the bound
    tail_after = np.concatenate([np.cumsum(damped[::-1])[::-1], [0.0]])
    count = 1 + int(np.argmax(tail_after[1:] <= dt))
    return kernel.head(count), count
