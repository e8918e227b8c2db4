import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvol import quadrature
from rvol.kernel import (
    RoughKernelSpec,
    expsum_eval,
    l2_error_exact,
    lambda_mass,
    rough_kernel_eval,
)
from rvol.mc import rate_factor_estimate
from rvol.quadrature import (
    build_geometric,
    build_newton_cotes,
    build_riemann,
    build_systematic,
    newton_cotes_coefficients,
    optimize_tail_ratio,
    paper_truncation,
    rescale_weights,
    truncate_factors,
)


class TestNewtonCotesCoefficients:
    def test_simpson(self):
        assert newton_cotes_coefficients(2) == (
            Fraction(1, 6),
            Fraction(4, 6),
            Fraction(1, 6),
        )

    def test_order_four(self):
        expected = tuple(Fraction(c, 90) for c in (7, 32, 12, 32, 7))
        assert newton_cotes_coefficients(4) == expected

    def test_unit_sum(self):
        for J in (2, 4, 6):
            assert sum(newton_cotes_coefficients(J)) == 1

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            newton_cotes_coefficients(3)


class TestRiemann:
    def test_single_interval_midpoint(self):
        spec = RoughKernelSpec(0.25)
        kernel = build_riemann(spec, 1, 1.0, "midpoint")
        assert kernel.n == 1
        assert math.isclose(kernel.weights[0], lambda_mass(spec, 0.0, 1.0), rel_tol=1e-14)
        assert kernel.rates[0] == 0.5

    def test_total_weight_additivity(self):
        spec = RoughKernelSpec(0.1)
        for rule in ("midpoint", "barycentric"):
            kernel = build_riemann(spec, 37, 11.0, rule)
            assert math.isclose(
                float(kernel.weights.sum()), lambda_mass(spec, 0.0, 11.0), rel_tol=1e-12
            )

    def test_nodes_inside_intervals(self):
        spec = RoughKernelSpec(0.3)
        n, K = 20, 8.0
        kernel = build_riemann(spec, n, K, "barycentric")
        edges = np.linspace(0.0, K, n + 1)
        assert np.all(kernel.rates > edges[:-1])
        assert np.all(kernel.rates < edges[1:])

    def test_barycentric_beats_midpoint(self):
        # the first-order-exact node choice never loses on these setups
        for H in (0.45, 0.25, 0.05):
            spec = RoughKernelSpec(H)
            for n, exponent in ((50, 2.0 / 3.0), (50, 0.8)):
                K = float(n) ** exponent
                mid = build_riemann(spec, n, K, "midpoint")
                bary = build_riemann(spec, n, K, "barycentric")
                assert l2_error_exact(spec, bary, 1.0) <= l2_error_exact(spec, mid, 1.0)

    def test_rate_factor_invariant(self):
        # barycentric nodes with K = n^0.8 converge with factor ~0.8
        for H in (0.45, 0.25, 0.05):
            spec = RoughKernelSpec(H)
            errs = {}
            for n in (50, 100):
                kernel = build_riemann(spec, n, float(n) ** 0.8, "barycentric")
                errs[n] = l2_error_exact(spec, kernel, 1.0)
            assert abs(rate_factor_estimate(errs[50], errs[100], H) - 0.80) <= 0.02


class TestSimpsonNewtonCotes:
    def test_factor_count_after_merge(self):
        spec = RoughKernelSpec(0.25)
        n = 16
        kernel = build_newton_cotes(spec, n, 20.0, 0.6, J=2, node_rule="midpoint")
        assert kernel.n == n + (2 * n + 1)

    def test_higher_order_counts(self):
        spec = RoughKernelSpec(0.2)
        for J in (2, 4, 6):
            kernel = build_newton_cotes(spec, 5, 30.0, 0.5, J=J, node_rule="barycentric")
            assert kernel.n == 5 + (5 * J + 1)
            assert np.all(np.diff(kernel.rates) > 0)

    def test_config_validation(self):
        spec = RoughKernelSpec(0.25)
        with pytest.raises(ValueError):
            build_newton_cotes(spec, 4, K=0.9, beta=0.5)
        with pytest.raises(ValueError):
            build_newton_cotes(spec, 4, K=5.0, beta=1.1)
        with pytest.raises(ValueError):
            build_newton_cotes(spec, 4, K=5.0, beta=0.5, J=3)


_SPEC = RoughKernelSpec(0.25)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_riemann(_SPEC, 2.5, 4.0),
        lambda: build_riemann(_SPEC, True),
        lambda: build_riemann(_SPEC, 8, math.inf),
        lambda: build_riemann(_SPEC, 8, math.nan),
        lambda: build_riemann(_SPEC, 8, 4.0, "trapezoid"),
        lambda: build_newton_cotes(_SPEC, 2.5),
        lambda: build_newton_cotes(_SPEC, 8, J=4.0),
        lambda: build_newton_cotes(_SPEC, 8, K=math.inf),
        lambda: build_newton_cotes(_SPEC, 8, beta=math.nan),
        lambda: build_newton_cotes(_SPEC, 1),
        lambda: build_geometric(_SPEC, 2.5, 3.0),
        lambda: build_geometric(_SPEC, 8, math.nan),
        lambda: build_geometric(_SPEC, 8, math.inf),
        lambda: build_geometric(_SPEC, 8, 3.0, K=0.0),
        lambda: build_systematic(_SPEC, 10.0, 1.0),
        lambda: build_systematic(_SPEC, 0, 1.0),
    ],
    ids=[
        "riemann-n-float",
        "riemann-n-bool",
        "riemann-K-inf",
        "riemann-K-nan",
        "riemann-node-rule",
        "newton-cotes-n-float",
        "newton-cotes-J-float",
        "newton-cotes-K-inf",
        "newton-cotes-beta-nan",
        "newton-cotes-n-one-default",
        "geometric-n-float",
        "geometric-A-nan",
        "geometric-A-inf",
        "geometric-K-zero",
        "systematic-n-float",
        "systematic-n-zero",
    ],
)
def test_builder_rejects_bad_input(build):
    with pytest.raises(ValueError):
        build()


@settings(max_examples=60, deadline=None)
@given(
    H=st.floats(0.01, 0.49),
    n=st.integers(1, 64),
    node_rule=st.sampled_from(("midpoint", "barycentric")),
)
def test_default_truncation_is_the_papers(H, n, node_rule):
    # a builder left at its defaults equals one given paper_truncation's K and beta
    spec = RoughKernelSpec(H)
    K_interval, _ = paper_truncation("interval", H, n, node_rule)
    K_split, beta = paper_truncation("newton-cotes", H, n, node_rule)
    K_geometric, _ = paper_truncation("interval", H, n)
    pairs = [
        (
            build_riemann(spec, n, node_rule=node_rule),
            build_riemann(spec, n, K_interval, node_rule),
        ),
        (build_geometric(spec, n, 3.0), build_geometric(spec, n, 3.0, K_geometric)),
    ]
    if n > 1:  # at n = 1 the paper's K is 1, which leaves no Newton-Cotes range
        pairs.append(
            (
                build_newton_cotes(spec, n, node_rule=node_rule),
                build_newton_cotes(spec, n, K_split, beta, node_rule=node_rule),
            )
        )
    for default, explicit in pairs:
        assert np.array_equal(default.weights, explicit.weights)
        assert np.array_equal(default.rates, explicit.rates)


class TestGeometric:
    def test_total_weight(self):
        spec = RoughKernelSpec(0.1)
        kernel = build_geometric(spec, 10, 3.0, 4.0)
        assert kernel.n == 20
        expected = lambda_mass(spec, 0.0, 4.0 * 3.0**10)
        assert math.isclose(float(kernel.weights.sum()), expected, rel_tol=1e-9)

    def test_stays_below_rough_kernel(self):
        spec = RoughKernelSpec(0.05)
        geo = build_geometric(spec, 25, 3.0, 25.0**0.8)
        plain = build_riemann(spec, 25, 25.0**0.8, "barycentric")
        t = np.logspace(-4, 0, 60)
        geo_vals = expsum_eval(geo, t)
        assert np.all(geo_vals <= rough_kernel_eval(spec, t) * (1.0 + 1e-12))
        assert np.all(expsum_eval(plain, t) <= geo_vals * (1.0 + 1e-12))

    def test_overflow_guard(self):
        spec = RoughKernelSpec(0.1)
        with pytest.raises(OverflowError):
            build_geometric(spec, 500, 50.0, 10.0)


class TestTailRatioOptimization:
    def test_minimizer_dominates(self):
        spec = RoughKernelSpec(0.2)
        n, K, T = 10, 10.0**0.8, 1.0
        ratio, err = optimize_tail_ratio(spec, n, K, T)

        def objective(a):
            return l2_error_exact(spec, build_geometric(spec, n, a, K), T)

        assert err <= objective(3.0) + 1e-15
        assert err <= objective(1.05) + 1e-15
        assert err <= objective(50.0) + 1e-15

    def test_matches_grid_scan(self):
        spec = RoughKernelSpec(0.2)
        n, K, T = 8, 8.0**0.8, 1.0
        ratio, _ = optimize_tail_ratio(spec, n, K, T)
        grid = np.linspace(1.05, 50.0, 2000)
        values = [
            l2_error_exact(spec, build_geometric(spec, n, a, K), T)
            for a in grid
        ]
        best = grid[int(np.argmin(values))]
        assert abs(ratio - best) <= (50.0 - 1.05) / 2000 + 1e-3


class TestRescale:
    def test_projection_reduces_error(self):
        spec = RoughKernelSpec(0.15)
        kernel = build_geometric(spec, 8, 4.0, 5.0)
        rescaled, scale = rescale_weights(spec, kernel, 1.0)
        assert l2_error_exact(spec, rescaled, 1.0) <= l2_error_exact(spec, kernel, 1.0) + 1e-15
        assert np.allclose(rescaled.weights, kernel.weights * scale)

    def test_scale_at_least_one_below_kernel(self):
        # geometric kernels sit below the rough kernel, so scaling up helps
        for H in (0.05, 0.25, 0.45):
            spec = RoughKernelSpec(H)
            kernel = build_geometric(spec, 10, 3.0, 10.0**0.8)
            _, scale = rescale_weights(spec, kernel, 1.0)
            assert scale >= 1.0

    def test_idempotent(self):
        spec = RoughKernelSpec(0.2)
        kernel = build_geometric(spec, 6, 3.0, 4.0)
        once, _ = rescale_weights(spec, kernel, 1.0)
        twice, second_scale = rescale_weights(spec, once, 1.0)
        assert abs(second_scale - 1.0) <= 1e-12


class TestSystematic:
    def test_even_total_required(self):
        spec = RoughKernelSpec(0.25)
        with pytest.raises(ValueError):
            build_systematic(spec, 9, 1.0)

    def test_factor_count(self):
        spec = RoughKernelSpec(0.25)
        kernel = build_systematic(spec, 12, 1.0)
        assert kernel.n == 12

    def test_small_reference_value(self):
        spec = RoughKernelSpec(0.45)
        kernel = build_systematic(spec, 10, 1.0)
        err = math.sqrt(l2_error_exact(spec, kernel, 1.0))
        assert abs(err - 0.00209) / 0.00209 <= 0.10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("H, n_total", [(0.05, 400), (0.1, 500), (0.45, 600)])
    def test_large_factor_counts_stay_finite(self, monkeypatch, H, n_total):
        # each build once failed inside the ratio search: a numpy overflow in
        # the barycenters at 400 and 500 factors, K*A^n overflowing at 600
        searches = []
        search = quadrature.optimize_tail_ratio

        def spy(spec, n, K, T):
            ratio, err = search(spec, n, K, T)
            searches.append((ratio, quadrature._ratio_bracket(n, K)))
            return ratio, err

        monkeypatch.setattr(quadrature, "optimize_tail_ratio", spy)
        kernel = build_systematic(RoughKernelSpec(H), n_total, 1.0)
        assert kernel.n == n_total
        assert np.isfinite(kernel.weights).all() and np.isfinite(kernel.rates).all()
        [(ratio, (lo, hi))] = searches
        assert hi < quadrature._RATIO_BRACKET[1]  # the capped bracket
        assert lo < ratio and math.log(hi / ratio) > 1e-6  # inside it, not at its top

    def test_production_sizes_search_the_full_bracket(self):
        # n_total <= 160 covers every production build, so their kernels are
        # those of the uncapped search
        for n in range(1, 81):
            K, _ = paper_truncation("interval", 0.1, n)
            assert quadrature._ratio_bracket(n, K) == quadrature._RATIO_BRACKET

    @settings(max_examples=12, deadline=None)
    @given(
        H=st.floats(0.005, 0.495, exclude_min=True, exclude_max=True),
        T=st.floats(0.01, 10.0),
        n_total=st.integers(1, 125).map(lambda m: 2 * m),
    )
    def test_error_does_not_rise_when_the_factor_count_doubles(self, H, T, n_total):
        spec = RoughKernelSpec(H)
        err_n, err_2n = (
            l2_error_exact(spec, build_systematic(spec, n, T), T) for n in (n_total, 2 * n_total)
        )
        assert err_2n <= err_n

    def test_no_finite_ratio(self):
        # at n = 8000 geometric intervals even the ratio 1.05 passes the ceiling
        with pytest.raises(ValueError, match="at n = 8000"):
            build_systematic(RoughKernelSpec(0.1), 16000, 1.0)


class TestTruncation:
    def test_fast_factors_dropped_immediately(self):
        kernel_fast = __import__("rvol.kernel", fromlist=["ExpSumKernel"]).ExpSumKernel(
            [1.0, 1.0, 1.0], [500.0, 600.0, 700.0]
        )
        truncated, count = truncate_factors(kernel_fast, 1.0, 10)
        assert count == 1
        assert truncated.n == 1

    def test_slow_heavy_factors_all_kept(self):
        from rvol.kernel import ExpSumKernel

        kernel = ExpSumKernel([2.0, 2.0, 2.0], [0.0, 1e-4, 2e-4])
        truncated, count = truncate_factors(kernel, 1.0, 10)
        assert count == kernel.n
        assert truncated.n == kernel.n

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        T=st.floats(0.05, 5.0),
        N=st.integers(1, 400),
    )
    def test_minimality(self, n, seed, T, N):
        # the head meets the tail bound and one factor fewer does not; the
        # margin covers the rounding of the implementation's running sum
        from rvol.kernel import ExpSumKernel

        rng = np.random.default_rng(seed)
        rates = np.unique(10.0 ** rng.uniform(-2.0, 4.0, n))
        kernel = ExpSumKernel(rng.uniform(0.0, 2.0, rates.size), rates)
        truncated, count = truncate_factors(kernel, T, N)
        assert truncated == kernel.head(count)
        dt = T / N
        damped = (kernel.weights * np.exp(-kernel.rates * dt)).tolist()
        assert math.fsum(damped[count:]) <= dt * (1.0 + 1e-12)
        if count > 1:
            assert math.fsum(damped[count - 1 :]) > dt * (1.0 - 1e-12)

    def test_validation(self):
        from rvol.kernel import ExpSumKernel

        kernel = ExpSumKernel([1.0], [1.0])
        with pytest.raises(ValueError):
            truncate_factors(kernel, 0.0, 10)
