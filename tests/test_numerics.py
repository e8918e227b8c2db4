import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_pairings import truncation_error_bound
from scipy.integrate import quad
from scipy.special import gammainc

import rvol
from rvol import numerics
from rvol.bergomi import factor_step_law
from rvol.kernel import ExpSumKernel, RoughKernelSpec, l2_error_discrete, l2_error_exact
from rvol.mc import rate_factor_estimate
from rvol.numerics import (
    IntegrationError,
    integrate,
    lower_incomplete_gamma,
    minimize_scalar,
    psd_factorize,
)
from rvol.quadrature import build_geometric, truncate_factors
from rvol.schemes import GridSpec, hybrid_step_covariance

# 30-digit arbitrary-precision evaluations, frozen
GAMMA_3_4 = 1.2254167024651776451290983034
LOWER_GAMMA_06_15 = 1.3292217692426947203269351973
LOWER_GAMMA_075_2 = 1.1211882539168982203378008768

TIGHT = dict(epsabs=1e-13, epsrel=1e-13, limit=400)  # for scipy's quad, the oracle

SHAPES = st.floats(0.5, 1.5, exclude_min=True, exclude_max=True)
# subnormal x would put x^a below the normal range, where neither the
# closed form nor the oracle keeps relative accuracy
POINTS = st.floats(0.0, 50.0, allow_subnormal=False)


class TestGamma:
    def test_three_quarters(self):
        # the kernel normalization Gamma(H + 1/2) at H = 1/4
        assert math.isclose(RoughKernelSpec(0.25).gamma_head, GAMMA_3_4, rel_tol=1e-12)


class TestLowerIncompleteGamma:
    def test_exponential_special_case(self):
        # a = 1 integrates exp(-s) exactly
        assert math.isclose(lower_incomplete_gamma(1.0, 2.0), 1.0 - math.exp(-2.0), rel_tol=1e-14)

    def test_zero(self):
        assert lower_incomplete_gamma(0.7, 0.0) == 0.0

    def test_frozen_reference_values(self):
        assert math.isclose(lower_incomplete_gamma(0.6, 1.5), LOWER_GAMMA_06_15, rel_tol=1e-13)
        assert math.isclose(lower_incomplete_gamma(0.75, 2.0), LOWER_GAMMA_075_2, rel_tol=1e-13)

    def test_against_quadrature(self):
        for a, x in [(0.6, 1.5), (0.55, 0.3), (0.95, 4.0), (1.3, 2.5)]:
            oracle = quad(lambda s: s ** (a - 1.0) * math.exp(-s), 0.0, x, **TIGHT)[0]
            assert math.isclose(lower_incomplete_gamma(a, x), oracle, rel_tol=1e-12)

    def test_tail_complement(self):
        # lower part plus independently integrated upper tail recovers gamma(a)
        for a in (0.55, 0.75, 0.95):
            for x in (0.1, 1.0, 10.0):
                tail = quad(lambda s: s ** (a - 1.0) * math.exp(-s), x, np.inf, **TIGHT)[0]
                total = lower_incomplete_gamma(a, x) + tail
                assert abs(total - math.gamma(a)) <= 1e-10

    def test_monotone_in_x(self):
        for a in (0.55, 0.8, 1.2):
            values = [lower_incomplete_gamma(a, x) for x in np.linspace(0.0, 20.0, 200)]
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_saturates_at_gamma(self):
        for a in (0.55, 0.9):
            assert math.isclose(lower_incomplete_gamma(a, 1e6), math.gamma(a), rel_tol=1e-13)
            assert lower_incomplete_gamma(a, np.inf) == math.gamma(a)

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.5, -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="a > 0, got nan"):
            lower_incomplete_gamma(math.nan, 1.0)
        with pytest.raises(ValueError, match="x >= 0, got nan"):
            lower_incomplete_gamma(0.5, math.nan)

    def test_same_floats_as_the_ufunc(self):
        # the compiled scalar gammainc is the ufunc's own kernel without its
        # dispatch: the cross column's shapes a = H + 1/2 over x in (1e-6, 1e6)
        rng = np.random.default_rng(16)
        a = rng.uniform(0.5, 1.0, 2000)
        x = 10.0 ** rng.uniform(-6.0, 6.0, 2000)
        for ai, xi, reg in zip(a.tolist(), x.tolist(), gammainc(a, x).tolist()):
            assert lower_incomplete_gamma(ai, xi) == reg * math.gamma(ai)

    @settings(max_examples=60, deadline=None)
    @given(a=SHAPES, x=POINTS)
    def test_matches_quadrature_oracle(self, a, x):
        # substituting s = x u keeps the oracle's relative accuracy at small x
        scaled = quad(lambda u: u ** (a - 1.0) * math.exp(-x * u), 0.0, 1.0, **TIGHT)[0]
        assert math.isclose(
            lower_incomplete_gamma(a, x),
            x**a * scaled,
            rel_tol=1e-12,
            abs_tol=sys.float_info.min,
        )

    @settings(max_examples=100, deadline=None)
    @given(a=SHAPES, x=POINTS)
    def test_recurrence(self, a, x):
        # gamma(a+1, x) = a gamma(a, x) - x^a e^-x, to rounding of the two terms
        lower = lower_incomplete_gamma(a, x)
        boundary = x**a * math.exp(-x)
        gap = lower_incomplete_gamma(a + 1.0, x) - (a * lower - boundary)
        assert abs(gap) <= 1e-12 * (a * lower + boundary) + sys.float_info.min

    @settings(max_examples=20, deadline=None)
    @given(a=SHAPES)
    def test_huge_argument_returns_gamma(self, a):
        assert lower_incomplete_gamma(a, 1e300) == math.gamma(a)


class TestMinimizeScalar:
    def test_quadratic(self):
        x, fx = minimize_scalar(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
        assert abs(x - 2.0) <= 1e-7
        assert fx <= 1e-13

    def test_monotone(self):
        x, _ = minimize_scalar(lambda x: x, 0.0, 1.0)
        assert abs(x - 0.0) <= 1e-7

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x * x, 1.0, 1.0)

    def test_matches_grid_scan_on_tail_ratio_objective(self):
        # same objective the geometric-ratio optimizer sees
        spec = RoughKernelSpec(0.2)

        def objective(ratio):
            return l2_error_exact(spec, build_geometric(spec, 6, ratio, 6.0**0.8), 1.0)

        lo, hi = 1.5, 20.0
        grid = np.linspace(lo, hi, 10_000)
        grid_best = grid[int(np.argmin([objective(a) for a in grid]))]
        found, _ = minimize_scalar(objective, lo, hi)
        assert abs(found - grid_best) <= (hi - lo) / 10_000 + 1e-6


class TestIntegrate:
    def test_constant(self):
        assert math.isclose(integrate(lambda t: 1.0, 0.0, 1.0), 1.0, rel_tol=1e-13)

    def test_power_singularity(self):
        value = integrate(lambda t: t ** (-0.4), 0.0, 1.0)
        assert math.isclose(value, 1.0 / 0.6, rel_tol=1e-11)

    def test_squared_rough_kernel(self):
        # H = 0.25: closed form 1 / (2H Gamma(3/4)^2) on (0, 1)
        spec = RoughKernelSpec(0.25)
        value = integrate(lambda t: (t ** (-0.25) / math.gamma(0.75)) ** 2, 0.0, 1.0)
        closed = 1.0 / (0.5 * math.gamma(0.75) ** 2)
        assert math.isclose(value, closed, rel_tol=1e-10)
        assert math.isclose(value, 1.0 / (0.5 * GAMMA_3_4**2), rel_tol=1e-10)

    def test_nonconvergence_carries_estimate(self):
        # integrate filters no warning: quad with full_output emits none
        with mock.patch.object(numerics, "_QUAD_LIMIT", 1), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="within 1 subdivisions") as err:
                integrate(lambda t: math.sin(50.0 / (t + 1e-3)), 0.0, 1.0)
        assert math.isfinite(err.value.best_estimate)


_SPEC, _KERNEL = RoughKernelSpec(0.1), ExpSumKernel([0.5, 0.5], [1.0, 2.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda x: l2_error_discrete(_SPEC, _KERNEL, x, 10),
        lambda x: truncate_factors(_KERNEL, x, 10),
        lambda x: hybrid_step_covariance(_SPEC, x),
        lambda x: factor_step_law(_KERNEL, x),
        lambda x: rate_factor_estimate(x, 1.0, 0.1),
        lambda x: rate_factor_estimate(1.0, x, 0.1),
        lambda x: rate_factor_estimate(1.0, 1.0, x),
        lambda x: truncation_error_bound(_SPEC, x),
    ],
    ids=[
        "l2-discrete-T",
        "truncate-T",
        "hybrid-dt",
        "step-law-dt",
        "rate-err-n",
        "rate-err-2n",
        "rate-H",
        "truncation-bound-cutoff",
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_horizons_and_steps_rejected(call, value):
    # each passed its `<= 0` check and returned NaN, a wrong result or a
    # misleading error
    with pytest.raises(ValueError, match="must be finite and positive"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda N: GridSpec(T=1.0, N=N),
        lambda N: l2_error_discrete(_SPEC, _KERNEL, 1.0, N),
        lambda N: truncate_factors(_KERNEL, 1.0, N),
    ],
    ids=["grid", "l2-discrete", "truncate"],
)
def test_step_counts_must_be_integers(call):
    # N = 2.5 once put l2_error_discrete's grid points at 0.4, 0.8 and 1.2, past T
    for bad in (2.5, 4.0, True, "3"):
        with pytest.raises(ValueError, match="step count N must be an integer"):
            call(bad)
    with pytest.raises(ValueError, match="step count N must be >= 1"):
        call(0)
    call(np.int64(3))  # numpy integers pass


def _loaded_by_package_import(module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after ``import rvol`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rvol.__file__)))
    probe = f"import sys, rvol; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_package_import_leaves_out_scipy_integrate():
    # scipy.integrate (and the scipy.optimize and scipy.sparse it imports)
    # loads only when a quadrature first runs
    assert not _loaded_by_package_import("scipy.integrate")


def test_package_import_leaves_out_scipy_linalg():
    # the factor engines run their far update on numpy's BLAS alone;
    # scipy.linalg would load scipy's own OpenBLAS, whose thread pool then
    # competes with numpy's for the cores
    assert not _loaded_by_package_import("scipy.linalg")


class TestPsdFactorize:
    def test_identity(self):
        L = psd_factorize(np.eye(3))
        assert np.array_equal(L, np.eye(3))

    def test_hand_case(self):
        L = psd_factorize(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)

    def test_round_trip_random_psd(self):
        rng = np.random.default_rng(7)
        for m in (5, 50, 200):
            root = rng.standard_normal((m, m))
            S = root @ root.T
            L = psd_factorize(S)
            err = np.linalg.norm(L @ L.T - S) / np.linalg.norm(S)
            assert err <= 1e-8

    def test_rank_deficient(self):
        rng = np.random.default_rng(8)
        root = rng.standard_normal((120, 30))
        S = root @ root.T
        L = psd_factorize(S)
        err = np.linalg.norm(L @ L.T - S) / np.linalg.norm(S)
        assert err <= 1e-8

    def test_joint_covariance_round_trip(self):
        from reference_pairings import build_joint_covariance

        from rvol.quadrature import build_riemann

        spec = RoughKernelSpec(0.25)
        kernel = build_riemann(spec, 10, 10.0, "barycentric")
        S = build_joint_covariance(spec, kernel.rates, 1.0)
        L = psd_factorize(S)
        err = np.linalg.norm(L @ L.T - S) / np.linalg.norm(S)
        assert err <= 1e-8

    def test_indefinite_raises(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_factorize(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_floor_sets_the_noise_scale(self):
        # a zero matrix up to rounding of either sign, as left by a difference
        noise = np.array([[-2.8e-17, 1e-18], [1e-18, -1e-17]])
        with pytest.raises(ValueError, match="not PSD"):
            psd_factorize(noise)
        assert np.array_equal(psd_factorize(noise, floor=1e-7), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not PSD"):
            psd_factorize(np.array([[1.0, 0.0], [0.0, -0.5]]), floor=1e-7)
        # a floor below the largest diagonal entry changes nothing
        S = np.array([[4.0, 2.0], [2.0, 2.0]])
        assert np.array_equal(psd_factorize(S, floor=1.0), psd_factorize(S))

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError, match="symmetric"):
            psd_factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_unpivoted_is_lower_triangular(self):
        rng = np.random.default_rng(9)
        root = rng.standard_normal((20, 20))
        S = root @ root.T
        L = psd_factorize(S, pivot=False)
        assert np.allclose(L, np.tril(L))
        assert np.linalg.norm(L @ L.T - S) / np.linalg.norm(S) <= 1e-12
