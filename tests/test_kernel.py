import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_pairings import build_joint_covariance, read_kernel_csv, truncation_error_bound
from scipy.integrate import quad

from rvol import kernel as kernel_module
from rvol.kernel import (
    ExpSumKernel,
    RoughKernelSpec,
    _ExactSum,
    _exact_sum,
    barycenter,
    expsum_eval,
    expsum_inner_products,
    l2_error_discrete,
    l2_error_exact,
    lambda_mass,
    rough_kernel_eval,
    write_kernel_csv,
)
from rvol.quadrature import build_geometric, build_systematic

# scipy's QUADPACK is the independent oracle
TIGHT = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
ZETA_TOL = dict(epsabs=1e-9, epsrel=1e-9, limit=400)


def full_matrix_fsum(v, matrix):
    """v' M v summed by math.fsum over every one of the m^2 terms."""
    return math.fsum((v[:, None] * v[None, :] * matrix).ravel().tolist())


@st.composite
def expsum_kernels(draw):
    """Random exp-sum kernels: 1-60 factors, rates over seven decades, maybe a zero rate."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.unique(10.0 ** rng.uniform(-3.0, 4.0, n))
    if draw(st.booleans()):
        rates[0] = 0.0
    return ExpSumKernel(rng.uniform(0.0, 2.0, rates.size), rates)


def quad_l2_gap(spec, kernel, t):
    """Independent quadrature of the squared kernel gap on (0, t)."""
    return quad(
        lambda s: (rough_kernel_eval(spec, s) - expsum_eval(kernel, s)) ** 2,
        0.0,
        t,
        **ZETA_TOL,
    )[0]


class TestRoughKernel:
    def test_spec_validation(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                RoughKernelSpec(bad)

    def test_unit_time(self):
        for H in (0.05, 0.25, 0.45):
            spec = RoughKernelSpec(H)
            assert math.isclose(rough_kernel_eval(spec, 1.0), 1.0 / math.gamma(H + 0.5), rel_tol=1e-14)

    def test_quarter_hurst(self):
        spec = RoughKernelSpec(0.25)
        assert math.isclose(rough_kernel_eval(spec, 1.0), 1.0 / math.gamma(0.75), rel_tol=1e-14)
        # log-space cross-check at t = 4
        expected = math.exp(-0.25 * math.log(4.0)) / math.gamma(0.75)
        assert math.isclose(rough_kernel_eval(spec, 4.0), expected, rel_tol=1e-14)

    def test_singularity_domain(self):
        spec = RoughKernelSpec(0.1)
        with pytest.raises(ValueError):
            rough_kernel_eval(spec, 0.0)
        with pytest.raises(ValueError):
            rough_kernel_eval(spec, -1.0)


class TestExpSumKernel:
    def test_flat_single_factor(self):
        kernel = ExpSumKernel([1.0], [0.0])
        for t in (0.0, 0.5, 3.0):
            assert expsum_eval(kernel, t) == 1.0

    def test_total_weight_at_zero(self):
        kernel = ExpSumKernel([1.0, 1.0], [0.0, 1.0])
        assert expsum_eval(kernel, 0.0) == 2.0

    def test_two_factor_value(self):
        kernel = ExpSumKernel([0.5, 2.0], [0.3, 7.0])
        expected = 0.5 * math.exp(-0.15) + 2.0 * math.exp(-3.5)
        assert math.isclose(expsum_eval(kernel, 0.5), expected, rel_tol=1e-14)

    def test_vectorized(self):
        kernel = ExpSumKernel([0.5, 2.0], [0.3, 7.0])
        t = np.array([0.0, 0.5, 1.0])
        values = expsum_eval(kernel, t)
        assert values.shape == (3,)
        assert math.isclose(values[1], expsum_eval(kernel, 0.5), rel_tol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExpSumKernel([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            ExpSumKernel([-1.0], [0.5])
        with pytest.raises(ValueError):
            ExpSumKernel([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            ExpSumKernel([1.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            ExpSumKernel([1.0], [-0.5])

    def test_immutable(self):
        kernel = ExpSumKernel([1.0], [0.5])
        with pytest.raises(AttributeError):
            kernel.weights = np.array([2.0])
        with pytest.raises(ValueError):
            kernel.weights[0] = 2.0


class TestDensityGeometry:
    def test_mass_closed_form_quarter(self):
        spec = RoughKernelSpec(0.25)
        c = spec.density_const
        assert math.isclose(lambda_mass(spec, 0.0, 1.0), c / 0.25, rel_tol=1e-14)

    def test_mass_against_quadrature(self):
        spec = RoughKernelSpec(0.1)
        oracle = quad(lambda r: spec.density_const * r ** (-0.6), 1.0, 16.0, **TIGHT)[0]
        assert math.isclose(lambda_mass(spec, 1.0, 16.0), oracle, rel_tol=1e-12)

    def test_mass_vanishes_with_interval(self):
        # mass of [0, b) decays like b^(1/2-H), slowly but monotonically
        spec = RoughKernelSpec(0.3)
        values = [lambda_mass(spec, 0.0, b) for b in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 1e-2
        with pytest.raises(ValueError):
            lambda_mass(spec, 1.0, 1.0)

    def test_barycenter_closed_form(self):
        spec = RoughKernelSpec(0.25)
        assert math.isclose(barycenter(spec, 0.0, 1.0), 0.2, rel_tol=1e-14)

    def test_barycenter_inside_interval(self):
        rng = np.random.default_rng(3)
        spec = RoughKernelSpec(0.12)
        for _ in range(50):
            a = rng.uniform(0.0, 5.0)
            b = a + rng.uniform(1e-3, 5.0)
            mid = barycenter(spec, a, b)
            assert a < mid < b

    @settings(max_examples=50, deadline=None)
    @given(
        H=st.floats(0.01, 0.49),
        start=st.floats(0.0, 1e3),
        widths=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40),
    )
    def test_array_rules_match_scalar_calls(self, H, start, widths):
        spec = RoughKernelSpec(H)
        edges = start + np.concatenate([[0.0], np.cumsum(widths)])
        lo, hi = edges[:-1], edges[1:]
        masses = lambda_mass(spec, lo, hi)
        nodes = barycenter(spec, lo, hi)
        for i in range(lo.size):
            mass = lambda_mass(spec, float(lo[i]), float(hi[i]))
            node = barycenter(spec, float(lo[i]), float(hi[i]))
            assert type(mass) is float and type(node) is float
            assert math.isclose(masses[i], mass, rel_tol=1e-14)
            assert math.isclose(nodes[i], node, rel_tol=1e-14)

    def test_array_rules_validate_every_interval(self):
        spec = RoughKernelSpec(0.2)
        with pytest.raises(ValueError):
            lambda_mass(spec, np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            barycenter(spec, np.array([-1.0, 1.0]), np.array([1.0, 2.0]))

    def test_barycenter_rejects_interval_below_resolution(self):
        # one ulp wide: both powers round to 1.0 and the closed form is 0/0
        with pytest.raises(ValueError, match="too narrow"):
            barycenter(RoughKernelSpec(0.45), 1.0, math.nextafter(1.0, 2.0))

    def test_barycenter_against_quadrature(self):
        spec = RoughKernelSpec(0.1)
        num = quad(lambda r: r * r ** (-0.6), 2.0, 5.0, **TIGHT)[0]
        den = quad(lambda r: r ** (-0.6), 2.0, 5.0, **TIGHT)[0]
        assert math.isclose(barycenter(spec, 2.0, 5.0), num / den, rel_tol=1e-11)

    def test_truncation_bound_against_quadrature(self):
        for H, K in [(0.25, 1.0), (0.1, 100.0)]:
            spec = RoughKernelSpec(H)
            tail = quad(
                lambda r: spec.density_const * r ** (-H - 1.0), K, np.inf, **TIGHT
            )[0]
            assert math.isclose(truncation_error_bound(spec, K), 0.5 * tail**2, rel_tol=1e-10)

    def test_truncation_bound_scaling(self):
        spec = RoughKernelSpec(0.17)
        for K in (0.5, 3.0, 40.0):
            ratio = truncation_error_bound(spec, 4.0 * K) / truncation_error_bound(spec, K)
            assert math.isclose(ratio, 4.0 ** (-2.0 * 0.17), rel_tol=1e-12)
        with pytest.raises(ValueError):
            truncation_error_bound(spec, 0.0)


def out_of_place_gram(rates, t):
    """t (1 - exp(-x)) / x at x = (r_i + r_j) t, one temporary per operation."""
    x = (rates[:, None] + rates[None, :]) * t
    phi = np.full_like(x, -1.0)
    np.divide(np.expm1(-x), x, out=phi, where=x > 0.0)
    return t * np.negative(phi, out=phi)


class TestJointCovariance:
    def test_gram_block_built_in_place_is_bit_identical(self):
        from rvol.quadrature import build_geometric

        spec = RoughKernelSpec(0.1)
        kernel = build_geometric(spec, 100, 1.5, 100**0.8)
        assert kernel.n == 200
        flat = ExpSumKernel(np.linspace(0.1, 1.0, 5), [0.0, 0.5, 2.0, 30.0, 1e4])
        for k, t in ((kernel, 1.0), (kernel, 0.041), (flat, 2.0)):
            gram = out_of_place_gram(k.rates, t)
            cov = build_joint_covariance(spec, k.rates, t)
            assert np.array_equal(cov[: k.n, : k.n], gram)
            self_product, _, _ = expsum_inner_products(spec, k, t)
            assert self_product == full_matrix_fsum(k.weights, gram)

    def test_phi_in_place(self):
        # at t = 1 the Gram entry t phi(s t) is phi(s) itself
        from rvol.kernel import _gram_of_sums

        x = np.array([0.0, 1e-300, 1e-8, 0.5, 3.0, 800.0, np.inf])
        want = _gram_of_sums(x.copy(), 1.0)
        assert want[0] == 1.0 and want[-1] == 0.0
        assert _gram_of_sums(x, 1.0) is x and np.array_equal(x, want)
        scalar = _gram_of_sums(np.array(0.25), 1.0)
        assert scalar.shape == () and scalar == -math.expm1(-0.25) / 0.25
        # the zero rate sum's entry is t, exactly
        assert _gram_of_sums(np.zeros(2), 0.041).tolist() == [0.041, 0.041]

    def test_zero_rate_limit(self):
        spec = RoughKernelSpec(0.3)
        for t in (0.5, 1.0, 2.0):
            cov = build_joint_covariance(spec, [0.0], t)
            assert math.isclose(cov[0, 0], t, rel_tol=1e-14)

    def test_fractional_variance_entry(self):
        spec = RoughKernelSpec(0.25)
        cov = build_joint_covariance(spec, [1.0, 2.0], 1.0)
        expected = 1.0 / (0.5 * math.gamma(0.75) ** 2)
        assert math.isclose(cov[-1, -1], expected, rel_tol=1e-14)

    def test_cross_entry_against_quadrature(self):
        spec = RoughKernelSpec(0.25)
        cov = build_joint_covariance(spec, [2.0], 1.0)
        oracle = quad(
            lambda s: math.exp(-2.0 * (1.0 - s)) * (1.0 - s) ** (-0.25) / math.gamma(0.75),
            0.0,
            1.0,
            **TIGHT,
        )[0]
        assert math.isclose(cov[0, 1], oracle, rel_tol=1e-11)

    def test_zero_rate_cross_entry(self):
        spec = RoughKernelSpec(0.25)
        cov = build_joint_covariance(spec, [0.0], 2.0)
        a = 0.75
        expected = 2.0**a / (a * math.gamma(a))
        assert math.isclose(cov[0, 1], expected, rel_tol=1e-14)

    def test_validation(self):
        spec = RoughKernelSpec(0.25)
        with pytest.raises(ValueError):
            build_joint_covariance(spec, [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            build_joint_covariance(spec, [2.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            build_joint_covariance(spec, [1.0], 0.0)

    def test_factorizable_up_to_hundred_factors(self):
        # production-sized rate grids give numerically rank-deficient but
        # factorizable covariances
        from rvol.numerics import psd_factorize
        from rvol.quadrature import build_systematic

        for H in (0.05, 0.25, 0.45):
            spec = RoughKernelSpec(H)
            kernel = build_systematic(spec, 100, 1.0)
            S = build_joint_covariance(spec, kernel.rates, 1.0)
            L = psd_factorize(S)
            assert np.linalg.norm(L @ L.T - S) / np.linalg.norm(S) <= 1e-8


class TestL2Error:
    def test_zero_weights_give_rough_norm(self):
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel([0.0, 0.0], [1.0, 2.0])
        expected = 1.0 / (0.5 * math.gamma(0.75) ** 2)
        assert math.isclose(l2_error_exact(spec, kernel, 1.0), expected, rel_tol=1e-13)

    def test_nonnegative(self):
        spec = RoughKernelSpec(0.45)
        kernel = ExpSumKernel([0.3, 0.8, 0.2], [0.1, 2.0, 9.0])
        assert l2_error_exact(spec, kernel, 1.0) >= 0.0

    def test_matches_quadrature(self):
        cases = [
            (0.25, ExpSumKernel([0.5, 0.9], [0.4, 5.0]), 1.0),
            (0.1, ExpSumKernel([1.2, 0.4, 0.1], [0.0, 1.0, 20.0]), 1.0),
            (0.45, ExpSumKernel([0.8], [2.0]), 0.7),
            (0.3, ExpSumKernel(np.linspace(0.1, 0.5, 12), np.linspace(0.5, 40.0, 12)), 1.5),
        ]
        for H, kernel, t in cases:
            spec = RoughKernelSpec(H)
            exact = l2_error_exact(spec, kernel, t)
            oracle = quad_l2_gap(spec, kernel, t)
            assert abs(exact - oracle) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=expsum_kernels(),
        H=st.floats(0.01, 0.49),
        t=st.floats(0.01, 10.0),
        block=st.integers(1, 4096),
    )
    def test_half_matrix_sum_is_bit_identical(self, kernel, H, t, block):
        # a small block size splits the forms of small kernels into many row blocks
        spec = RoughKernelSpec(H)
        sigma = build_joint_covariance(spec, kernel.rates, t)
        v = np.concatenate([kernel.weights, [-1.0]])
        with mock.patch.object(kernel_module, "_BLOCK_ENTRIES", block):
            l2 = l2_error_exact(spec, kernel, t)
            self_product, _, _ = expsum_inner_products(spec, kernel, t)
        assert l2 == max(full_matrix_fsum(v, sigma), 0.0)
        n = kernel.n
        assert self_product == full_matrix_fsum(kernel.weights, sigma[:n, :n])

    def test_memory_is_one_row_block(self):
        # table t5's 800-factor kernels: one 801 x 801 float matrix is 4.9 MiB
        from rvol.quadrature import build_geometric

        spec = RoughKernelSpec(0.25)
        kernel = build_geometric(spec, 400, 1.05, 50)
        assert kernel.n == 800
        for form in (l2_error_exact, expsum_inner_products):
            form(spec, kernel, 1.0)  # warm any lazily imported module
            tracemalloc.start()
            try:
                form(spec, kernel, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, (form.__name__, peak)

    def test_memory_of_the_largest_one_block_triangle(self):
        # 361 factors: the largest triangle summed as one array. It peaks at a
        # few blocks and leaves nothing behind, as an index array cached per
        # factor count would
        n = 361
        block = kernel_module._BLOCK_ENTRIES
        assert n * (n + 1) // 2 <= block < (n + 1) * (n + 2) // 2
        spec = RoughKernelSpec(0.1)
        kernel = ExpSumKernel(np.linspace(1.0, 0.01, n), np.geomspace(0.1, 1e8, n))
        for form in (l2_error_exact, expsum_inner_products):
            form(spec, ExpSumKernel([1.0], [2.0]), 1.0)  # warm any lazily imported module
            tracemalloc.start()
            try:
                form(spec, kernel, 1.0)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 8 * block, (form.__name__, peak)
            assert kept < block // 4, (form.__name__, kept)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_horizon(self, t):
        spec = RoughKernelSpec(0.25)
        for kernel in (ExpSumKernel([0.5, 0.9], [0.4, 5.0]), ExpSumKernel([1.0], [0.0])):
            with pytest.raises(ValueError, match="horizon"):
                l2_error_exact(spec, kernel, t)
            with pytest.raises(ValueError, match="horizon"):
                expsum_inner_products(spec, kernel, t)

    def test_rejects_overflowing_terms(self):
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel([1e200, 1.0], [1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                l2_error_exact(spec, kernel, 1.0)
            with pytest.raises(ValueError, match="overflows"):
                expsum_inner_products(spec, kernel, 1.0)

    @pytest.mark.parametrize(
        "weights, rates", [([1.0, 1e200], [1.0, 1e308]), ([1e-300, 1e300], [0.0, 1e308])]
    )
    def test_rejects_infinite_times_zero_terms(self, weights, rates):
        # r_i + r_j overflows, so G_ij is 0, while w_i w_j overflows: a nan term
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel(weights, rates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in (l2_error_exact, expsum_inner_products):
                with pytest.raises(ValueError, match="overflows"):
                    form(spec, kernel, 1.0)

    def test_discrete_hand_sum(self):
        spec = RoughKernelSpec(0.2)
        kernel = ExpSumKernel([0.7, 0.3], [0.5, 4.0])
        T, N = 1.0, 4
        total = 0.0
        for k in range(1, N + 1):
            t = k * T / N
            gap = expsum_eval(kernel, t) - rough_kernel_eval(spec, t)
            total += gap * gap
        expected = math.sqrt(total * T / N)
        assert math.isclose(l2_error_discrete(spec, kernel, T, N), expected, rel_tol=1e-14)

    def test_discrete_rejects_overflow(self):
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel([1e200, 1.0], [1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                l2_error_discrete(spec, kernel, 1.0, 10)

    def test_discrete_validation(self):
        spec = RoughKernelSpec(0.2)
        kernel = ExpSumKernel([1.0], [1.0])
        with pytest.raises(ValueError):
            l2_error_discrete(spec, kernel, 0.0, 4)
        with pytest.raises(ValueError):
            l2_error_discrete(spec, kernel, 1.0, 0)


class TestInnerProducts:
    def test_single_factor_self_product(self):
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel([1.0], [1.0])
        gg, _, _ = expsum_inner_products(spec, kernel, 1.0)
        assert math.isclose(gg, (1.0 - math.exp(-2.0)) / 2.0, rel_tol=1e-14)

    def test_rough_self_product(self):
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel([1.0], [1.0])
        _, _, rough = expsum_inner_products(spec, kernel, 1.0)
        assert math.isclose(rough, 1.0 / (0.5 * math.gamma(0.75) ** 2), rel_tol=1e-14)

    def test_cross_product_against_quadrature(self):
        spec = RoughKernelSpec(0.25)
        kernel = ExpSumKernel([1.0], [2.0])
        _, cross, _ = expsum_inner_products(spec, kernel, 1.0)
        oracle = quad(
            lambda t: math.exp(-2.0 * t) * rough_kernel_eval(spec, t), 0.0, 1.0, **TIGHT
        )[0]
        assert math.isclose(cross, oracle, rel_tol=1e-11)

    def test_pythagoras_identity_coarse(self):
        # error decomposition against the three pairings, coarse kernels
        rng = np.random.default_rng(11)
        for _ in range(10):
            H = rng.uniform(0.05, 0.45)
            n = rng.integers(1, 6)
            rates = np.sort(rng.uniform(0.0, 10.0, n))
            if n > 1 and np.any(np.diff(rates) <= 0):
                continue
            kernel = ExpSumKernel(rng.uniform(0.0, 1.5, n), rates)
            spec = RoughKernelSpec(H)
            gg, gG, GG = expsum_inner_products(spec, kernel, 1.0)
            zeta = l2_error_exact(spec, kernel, 1.0)
            assert abs(zeta - (GG - 2.0 * gG + gg)) <= 1e-10 * max(zeta, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(kernel=expsum_kernels(), H=st.floats(0.01, 0.49), t=st.floats(0.01, 10.0))
    def test_l2_error_is_the_three_pairings(self, kernel, H, t):
        spec = RoughKernelSpec(H)
        s, c, r = expsum_inner_products(spec, kernel, t)
        gap = l2_error_exact(spec, kernel, t) - max(s - 2.0 * c + r, 0.0)
        assert abs(gap) <= 1e-13 * (s + 2.0 * abs(c) + r)

    def test_one_incomplete_gamma_per_nonzero_rate(self):
        # perfbench pins the kernel-setup job's count of these calls
        spec = RoughKernelSpec(0.1)
        kernel = ExpSumKernel([0.5, 0.2, 0.1, 0.05], [0.0, 1.0, 30.0, 900.0])
        counted = mock.Mock(wraps=kernel_module.lower_incomplete_gamma)
        with mock.patch.object(kernel_module, "lower_incomplete_gamma", counted):
            l2_error_exact(spec, kernel, 1.0)
            assert counted.call_count == 3
            expsum_inner_products(spec, kernel, 0.3)
            assert counted.call_count == 6

    def test_pythagoras_identity_accurate_kernel(self):
        from rvol.quadrature import build_systematic

        spec = RoughKernelSpec(0.45)
        kernel = build_systematic(spec, 20, 1.0)
        gg, gG, GG = expsum_inner_products(spec, kernel, 1.0)
        zeta = l2_error_exact(spec, kernel, 1.0)
        # identical summands in different order; rounding-limited near zero
        assert abs(zeta - (GG - 2.0 * gG + gg)) <= 1e-10 * GG


class TestGoldenPairings:
    # hex floats of the pairings as math.fsum over every term rounded them;
    # t5's 400- and 800-factor triangles stream through the blocked path
    CASES = {
        "desk systematic, n = 100": (
            0.1,
            lambda spec: build_systematic(spec, 100, 1.0),
            "0x1.e690acc984a4ap-13",
            ("0x1.208ef45fb93cep+1", "0x1.208ef45fb93cep+1", "0x1.20968ea26c630p+1"),
        ),
        "t6 systematic, n = 80": (
            0.05,
            lambda spec: build_systematic(spec, 80, 1.0),
            "0x1.d2322655159acp-8",
            ("0x1.e929801794b90p+1", "0x1.e929801794b90p+1", "0x1.ea12992abf43dp+1"),
        ),
        "t5 geometric, 400 factors": (
            0.05,
            lambda spec: build_geometric(spec, 200, 3.0),
            "0x1.4dca1eca01aa1p-9",
            ("0x1.d4a2dbf8591e3p+1", "0x1.df31014db2f0dp+1", "0x1.ea12992abf43dp+1"),
        ),
        "t5 geometric, 800 factors": (
            0.05,
            lambda spec: build_geometric(spec, 400, 3.0),
            "0x1.3ba988d4fd392p-9",
            ("0x1.d5d636037335fp+1", "0x1.dfccf265fe9d4p+1", "0x1.ea12992abf43dp+1"),
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_pairings_keep_their_bits(self, case):
        H, build, l2, pairings = self.CASES[case]
        spec = RoughKernelSpec(H)
        kernel = build(spec)
        assert l2_error_exact(spec, kernel, 1.0).hex() == l2
        assert tuple(x.hex() for x in expsum_inner_products(spec, kernel, 1.0)) == pairings


def reference_sum(terms):
    """math.fsum, or the rounded Fraction sum where fsum overflows on the way."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return float(sum(map(Fraction, terms)))  # OverflowError if the total overflows


def binned_sum(terms):
    """The exact sum through the bins alone, also for short arrays."""
    acc = _ExactSum()
    acc.add(terms)
    return acc.value()


@st.composite
def float_terms(draw):
    """Finite doubles of any exponent, subnormals included, some cancelling exactly."""
    base = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    mirrored = [-x for x in base if draw(st.booleans())]
    tiny = draw(st.lists(st.floats(-1e-300, 1e-300), max_size=10))
    return draw(st.permutations(base + mirrored + tiny))


class TestExactSum:
    def check(self, terms):
        """Both paths of the exact sum against the reference, hex for hex."""
        x = np.array(terms, dtype=float)
        try:
            want = reference_sum(terms)
        except OverflowError:
            for exact in (_exact_sum, binned_sum):
                with pytest.raises(ValueError, match="overflows"):
                    exact(x.copy())
            return
        for exact in (_exact_sum, binned_sum):
            assert exact(x.copy()).hex() == want.hex(), exact.__name__

    @settings(max_examples=300, deadline=None)
    @given(terms=float_terms())
    def test_equals_fsum_bit_for_bit(self, terms):
        self.check(terms)

    @settings(max_examples=60, deadline=None)
    @given(terms=float_terms(), chunk=st.integers(1, 8), room=st.integers(1, 8))
    def test_chunks_and_full_bins_change_nothing(self, terms, chunk, room):
        with mock.patch.multiple(kernel_module, _CHUNK_TERMS=chunk, _BIN_ROOM=room):
            self.check(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [],
            [0.0, -0.0],
            [-0.0, -0.0],
            [5e-324] * 1000,
            [2.0**-1022, -5e-324, 3 * 5e-324],
            [sys.float_info.max, sys.float_info.max, -sys.float_info.max],
            [sys.float_info.max, 2.0**969],  # below half an ulp: rounds to DBL_MAX
            [1e308, -1e308, 1e-308, -1e-308, 1.0],
            [2.0**-1074 * k for k in range(-600, 601)],
            [1.0, 2.0**-53, 2.0**-106],  # a tie broken by the last term
        ],
    )
    def test_edge_cases(self, terms):
        self.check(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [sys.float_info.max, sys.float_info.max],
            [sys.float_info.max, 2.0**970],  # half an ulp: ties to 2^1024
            [-sys.float_info.max] * 3 + [1.0] * 600,
            [1.0, math.inf],
            [math.inf, -math.inf],
            [math.nan] + [1.0] * 600,
        ],
    )
    def test_rejects_overflow_and_nonfinite_terms(self, terms):
        for exact in (_exact_sum, binned_sum):
            with pytest.raises(ValueError, match="overflows"):
                exact(np.array(terms))


class TestKernelCsv:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(0.0, 1e300, allow_subnormal=True), min_size=1, max_size=30
        ),
        rates=st.lists(
            st.floats(0.0, 1e300, allow_subnormal=True), min_size=30, max_size=30, unique=True
        ),
    )
    def test_round_trip_exact(self, tmp_path_factory, weights, rates):
        # 17 significant digits identify every double, subnormals included
        kernel = ExpSumKernel(weights, sorted(rates)[: len(weights)])
        path = tmp_path_factory.mktemp("csv") / "kernel.csv"
        write_kernel_csv(kernel, path)
        loaded = read_kernel_csv(path)
        assert np.array_equal(loaded.weights, kernel.weights)
        assert np.array_equal(loaded.rates, kernel.rates)

    def test_header(self, tmp_path):
        kernel = ExpSumKernel([1.0], [2.0])
        path = tmp_path / "kernel.csv"
        write_kernel_csv(kernel, path)
        assert path.read_text().splitlines()[0] == "alpha,rho"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_kernel_csv(path)

    @pytest.mark.filterwarnings("ignore:loadtxt")
    @pytest.mark.parametrize("body", ["", "1.0\n", "1.0,2.0,3.0\n", "1.0,2.0\n3.0\n"])
    def test_rejects_rows_without_two_values(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,rho\n" + body)
        with pytest.raises(ValueError):
            read_kernel_csv(path)
