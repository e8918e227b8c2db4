import math
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1

from rvol.bergomi import (
    BergomiParams,
    bs_call_price,
    factor_step_law,
    fractional_joint_covariance,
    implied_vol,
    sample_factors_exact,
    sample_fractional_exact,
    sampler_law,
    simulate_bergomi,
    step_components,
)
from rvol.kernel import ExpSumKernel
from rvol.numerics import _ZERO_TOL
from rvol.schemes import GridSpec

TIGHT = dict(epsabs=1e-13, epsrel=1e-13, limit=400)  # for scipy's quad, the oracle

# 30-digit arbitrary-precision Black-Scholes call value, S0=K=T=1, vol=0.2
BS_1_1_1_02 = 0.07965567455405796293080923648


def _one_hot(kernel, i):
    """``kernel``'s rates with weight 1 on factor i: its sample is that factor alone."""
    return ExpSumKernel(np.eye(kernel.n)[i], kernel.rates)


def _factor_sample(kernel, grid, pair):
    """:func:`sample_factors_exact` on the kernel's own :func:`sampler_law`."""
    return sample_factors_exact(kernel, sampler_law(None, kernel, grid), grid, pair)


def _simulate(params, grid, kernel, normals):
    """:func:`simulate_bergomi` on the mode's own :func:`sampler_law`."""
    law = sampler_law(params.spec, kernel, grid)
    return simulate_bergomi(params, grid, kernel, law, normals=normals)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BergomiParams(S0=0.0)
        with pytest.raises(ValueError):
            BergomiParams(eta=-1.0)
        with pytest.raises(ValueError):
            BergomiParams(rho=1.5)
        with pytest.raises(ValueError):
            BergomiParams(H=0.6)

    def test_vol_scale(self):
        p = BergomiParams(eta=1.9, H=0.07)
        expected = 1.9 * math.sqrt(0.14) * math.gamma(0.57)
        assert math.isclose(p.vol_scale, expected, rel_tol=1e-14)


class TestFactorSampling:
    def test_flat_factor_reduces_to_brownian(self):
        kernel = ExpSumKernel([1.0], [0.0])
        grid = GridSpec(T=1.0, N=8)
        rng = np.random.default_rng(0)
        normals = rng.standard_normal((500, grid.N, kernel.n + 1))
        factor, dw = _factor_sample(kernel, grid, (normals[:, :, 0], normals[:, :, 1:]))
        cum = np.cumsum(dw, axis=1)
        assert np.allclose(factor, cum, atol=1e-12)

    @pytest.mark.parametrize("N", [5, 7, 10])
    def test_lone_flat_factor_on_any_grid(self, N):
        # the conditional variance is zero up to rounding, of either sign
        kernel = ExpSumKernel([1.0], [0.0])
        grid = GridSpec(T=1.0, N=N)
        cross_coef, cond_factor = factor_step_law(kernel, grid.dt)
        assert abs(cond_factor[0, 0]) <= 1e-7 * math.sqrt(grid.dt)
        assert math.isclose(cross_coef[0], math.sqrt(grid.dt), rel_tol=1e-15)
        normals = np.random.default_rng(N).standard_normal((200, grid.N, kernel.n + 1))
        factor, dw = _factor_sample(kernel, grid, (normals[:, :, 0], normals[:, :, 1:]))
        assert np.allclose(factor, np.cumsum(dw, axis=1), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        log_rates=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=8, unique=True),
        zero_rate=st.booleans(),
        dt=st.floats(1e-4, 4.0),
    )
    def test_step_law_moments(self, log_rates, zero_rate, dt):
        # the joint covariance of (innovations, increment) rebuilt from the step
        # law is the integral of exp(-(r_i + r_j) s) over (0, dt), with the rate
        # of the increment 0: the cross entry of a zero rate is dt
        rates = np.unique(10.0 ** np.array(log_rates))
        if zero_rate:
            rates = np.concatenate(([0.0], rates))
        kernel = ExpSumKernel(np.ones(rates.size), rates)
        cross_coef, cond_factor = factor_step_law(kernel, dt)
        n = kernel.n
        joint = np.empty((n + 1, n + 1))
        joint[:n, :n] = np.outer(cross_coef, cross_coef) + cond_factor @ cond_factor.T
        joint[:n, n] = joint[n, :n] = cross_coef * math.sqrt(dt)
        joint[n, n] = dt
        both = np.append(rates, 0.0)
        sums = np.add.outer(both, both).ravel().tolist()
        want = [-math.expm1(-s * dt) / s if s > 0.0 else dt for s in sums]
        want = np.reshape(want, joint.shape)
        # psd_factorize drops conditional variances up to _ZERO_TOL of the
        # largest variance, dt; the rest is rounding of terms up to dt
        tol = (_ZERO_TOL + 64 * np.finfo(float).eps) * dt
        assert np.allclose(joint, want, rtol=0.0, atol=tol)
        if zero_rate:
            assert math.isclose(joint[0, n], dt, rel_tol=1e-15)

    def test_marginal_moments_monte_carlo(self):
        kernel = ExpSumKernel([1.0, 1.0], [0.7, 4.0])
        grid = GridSpec(T=1.0, N=16)
        rng = np.random.default_rng(1)
        n_paths = 100_000
        normals = rng.standard_normal((n_paths, grid.N, kernel.n + 1))
        pair = (normals[:, :, 0], normals[:, :, 1:])
        t_end = grid.T
        for i, rate in enumerate(kernel.rates):
            sample, dw = _factor_sample(_one_hot(kernel, i), grid, pair)
            sample = sample[:, -1]
            w_path = np.cumsum(dw, axis=1)
            want_var = -math.expm1(-2.0 * rate * t_end) / (2.0 * rate)
            got_var = sample.var(ddof=1)
            se = want_var * math.sqrt(2.0 / (n_paths - 1))
            assert abs(got_var - want_var) <= 3.0 * se
            want_cov = -math.expm1(-rate * t_end) / rate
            prod = sample * w_path[:, -1]
            got_cov = prod.mean()
            se_cov = prod.std(ddof=1) / math.sqrt(n_paths)
            assert abs(got_cov - want_cov) <= 3.0 * se_cov


@st.composite
def weighted_factor_cases(draw):
    """A kernel of 1-12 factors, a grid of 1-25 steps and 1-300 paths of normals."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.unique(10.0 ** rng.uniform(-2.0, 3.0, n))
    if draw(st.booleans()):
        rates[0] = 0.0
    kernel = ExpSumKernel(rng.uniform(0.05, 2.0, rates.size), rates)
    grid = GridSpec(T=draw(st.sampled_from([0.041, 1.0])), N=draw(st.integers(1, 25)))
    normals = rng.standard_normal((draw(st.integers(1, 300)), grid.N, kernel.n + 1))
    return kernel, grid, normals


class TestWeightedFactorSum:
    """The factor sampler keeps only the weighted factor sum w . f of each step."""

    @settings(max_examples=80, deadline=None)
    @given(case=weighted_factor_cases())
    def test_matches_full_factors(self, case):
        kernel, grid, normals = case
        pair = (normals[:, :, 0], normals[:, :, 1:])
        total, dw = _factor_sample(kernel, grid, pair)
        assert total.shape == dw.shape == (normals.shape[0], grid.N)
        singles = [_factor_sample(_one_hot(kernel, i), grid, pair) for i in range(kernel.n)]
        factors = np.stack([factor for factor, _ in singles], axis=-1)
        # 1e-13 of the magnitude of the terms summed, the scale of w . f's roundoff
        w = kernel.weights
        scale = np.abs(factors) @ w
        assert np.all(np.abs(total - factors @ w) <= 1e-13 * scale)
        assert all(np.array_equal(single_dw, dw) for _, single_dw in singles)

    def test_one_hot_weights_pick_a_factor(self):
        # each one-hot sample is its factor of f_l = d f_(l-1) + c z0_l + L z_l
        kernel = ExpSumKernel([0.8, 0.4, 0.2, 0.1], [0.0, 6.0, 40.0, 41.0])
        grid = GridSpec(T=0.5, N=9)
        normals = np.random.default_rng(3).standard_normal((37, grid.N, kernel.n + 1))
        pair = (normals[:, :, 0], normals[:, :, 1:])
        cross, cond = factor_step_law(kernel, grid.dt)
        damp = np.exp(-kernel.rates * grid.dt)
        state = np.zeros((37, kernel.n))
        factors = []
        for k in range(grid.N):
            state = damp * state + normals[:, k, :1] * cross + normals[:, k, 1:] @ cond.T
            factors.append(state)
        factors = np.stack(factors, axis=1)
        for i in range(kernel.n):
            # the step law reads only the rates, so every one-hot kernel shares it
            one_hot = _one_hot(kernel, i)
            for got, want in zip(factor_step_law(one_hot, grid.dt), (cross, cond)):
                assert np.array_equal(got, want)
            picked, _ = _factor_sample(one_hot, grid, pair)
            assert np.allclose(picked, factors[:, :, i], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("T, N, n", [(0.041, 20, 40), (1.0, 30, 40), (0.041, 20, 10)])
    def test_var_is_the_sampled_variance(self, T, N, n):
        # the sum is linear in the normals, so over the N(n + 1) unit normal
        # vectors as paths its sum of squares is its exact variance
        from rvol.mc import systematic_kernel

        kernel = systematic_kernel(0.07, n, T)
        grid = GridSpec(T=T, N=N)
        units = np.eye(N * (n + 1)).reshape(-1, N, n + 1)
        law = sampler_law(None, kernel, grid)
        total, _ = sample_factors_exact(kernel, law, grid, (units[:, :, 0], units[:, :, 1:]))
        assert np.allclose((total**2).sum(axis=0), law.var, rtol=1e-12, atol=0.0)

    def test_multifactor_simulation_memory(self):
        # one warm N = 20, n = 40, 4096-path call holds O(n paths) memory; an
        # (N, n, paths) factor record alone would be 25 MiB
        from rvol.mc import CounterRng, systematic_kernel

        params = BergomiParams()
        grid = GridSpec(T=0.041, N=20)
        kernel = systematic_kernel(params.H, 40, grid.T)
        n_paths = 4096
        normals = CounterRng(1).normals_block(0, n_paths, grid.N, kernel.n + 2)
        law = sampler_law(params.spec, kernel, grid)
        simulate_bergomi(params, grid, kernel, law, normals=normals)
        tracemalloc.start()
        try:
            simulate_bergomi(params, grid, kernel, law, normals=normals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.n == 40
        assert peak < 8 * kernel.n * n_paths * 8


class TestFractionalSampling:
    def test_same_time_variances(self):
        params = BergomiParams()
        grid = GridSpec(T=0.041, N=20)
        cov = fractional_joint_covariance(params.spec, grid)
        t = np.arange(1, 21) * grid.dt
        for l in range(20):
            want = t[l] ** (2.0 * params.H) / (2.0 * params.H)
            assert math.isclose(cov[20 + l, 20 + l], want, rel_tol=1e-14)
            assert math.isclose(cov[l, l], t[l], rel_tol=1e-14)

    def test_cross_time_against_hypergeometric(self):
        # independent closed form for the cross-time fractional covariance
        from rvol.kernel import RoughKernelSpec

        H = 0.07
        spec = RoughKernelSpec(H)
        grid = GridSpec(T=1.0, N=6)
        cov = fractional_joint_covariance(spec, grid)
        t = np.arange(1, 7) * grid.dt
        a = H + 0.5
        for l in range(6):
            for m in range(l + 1, 6):
                closed = t[l] ** a * t[m] ** (H - 0.5) * hyp2f1(
                    1.0, 0.5 - H, 1.5 + H, t[l] / t[m]
                ) / a
                assert math.isclose(cov[6 + l, 6 + m], closed, rel_tol=1e-9)

    def test_cross_time_against_per_entry_quadrature(self):
        # oracle: each entry integrated over (0, t_l) in one piece, through
        # the singularity at 0, as the covariance was once built
        from rvol.kernel import RoughKernelSpec

        H, N = 0.07, 12
        grid = GridSpec(T=1.0, N=N)
        cov = fractional_joint_covariance(RoughKernelSpec(H), grid)
        t = np.arange(1, N + 1) * grid.dt
        tol = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
        for l in range(N):
            for m in range(l + 1, N):
                gap = t[m] - t[l]
                oracle = quad(
                    lambda u: u ** (H - 0.5) * (u + gap) ** (H - 0.5), 0.0, t[l], **tol
                )[0]
                assert abs(cov[N + l, N + m] - oracle) <= 1e-11
                assert cov[N + m, N + l] == cov[N + l, N + m]

    @pytest.mark.parametrize("H", [0.01, 0.07, 0.25, 0.45])
    @pytest.mark.parametrize("N", [6, 20, 40])
    def test_unit_pieces_against_hypergeometric(self, H, N):
        from rvol.kernel import RoughKernelSpec

        grid = GridSpec(T=1.0, N=N)
        frac = fractional_joint_covariance(RoughKernelSpec(H), grid)[N:, N:]
        t = np.arange(1, N + 1) * grid.dt
        l, m = np.triu_indices(N, 1)
        a = H + 0.5
        closed = t[l] ** a * t[m] ** (H - 0.5) * hyp2f1(1.0, 0.5 - H, 1.5 + H, t[l] / t[m]) / a
        assert np.allclose(frac[l, m], closed, rtol=1e-11, atol=0.0)

    def test_near_half_hurst_degenerates_to_brownian(self):
        from rvol.kernel import RoughKernelSpec

        spec = RoughKernelSpec(0.4999)
        grid = GridSpec(T=1.0, N=4)
        cov = fractional_joint_covariance(spec, grid)
        t = np.arange(1, 5) * grid.dt
        brownian = np.minimum(t[:, None], t[None, :])
        assert np.allclose(cov[4:, 4:], brownian, rtol=5e-3)

    def test_cross_time_against_brute_monte_carlo(self):
        # piecewise-averaged kernel weights on a fine Brownian grid
        from rvol.kernel import RoughKernelSpec

        H = 0.07
        spec = RoughKernelSpec(H)
        grid = GridSpec(T=1.0, N=4)
        cov = fractional_joint_covariance(spec, grid)
        fine = 256
        delta = grid.T / fine
        s = np.arange(fine + 1) * delta
        t = np.arange(1, 5) * grid.dt
        a = H + 0.5
        weights = np.zeros((fine, 4))
        for l in range(4):
            spans = np.clip(t[l] - s, 0.0, None)
            weights[:, l] = (spans[:-1] ** a - spans[1:] ** a) / (a * delta)
        rng = np.random.default_rng(2)
        total = 1_000_000
        chunk = 50_000
        sums = np.zeros((4, 4))
        sq_sums = np.zeros((4, 4))
        for _ in range(total // chunk):
            dw = rng.standard_normal((chunk, fine)) * math.sqrt(delta)
            samples = dw @ weights
            prods = np.einsum("pi,pj->ij", samples, samples)
            sums += prods
            sq = np.einsum("pi,pj->ij", samples**2, samples**2)
            sq_sums += sq
        est = sums / total
        for l in range(4):
            for m in range(l + 1, 4):
                se = math.sqrt(
                    max(sq_sums[l, m] / total - est[l, m] ** 2, 0.0) / total
                )
                assert abs(est[l, m] - cov[4 + l, 4 + m]) <= 3.0 * se + 2e-4

    def test_sampler_variance(self):
        from rvol.kernel import RoughKernelSpec

        spec = RoughKernelSpec(0.07)
        grid = GridSpec(T=0.041, N=10)
        z = np.random.default_rng(3).standard_normal((80_000, grid.N, 2))
        law = sampler_law(spec, None, grid)
        frac, dw = sample_fractional_exact(law, grid, (z[:, :, 0], z[:, :, 1:]))
        t_end = grid.T
        want = t_end ** (2.0 * 0.07) / (2.0 * 0.07)
        got = frac[:, -1].var(ddof=1)
        se = want * math.sqrt(2.0 / 80_000)
        assert abs(got - want) <= 3.0 * se
        assert np.allclose(dw.sum(axis=1).var(ddof=1), t_end, rtol=0.05)


class TestSimulate:
    def test_exact_simulation_memory(self):
        # one warm N = 20, 4096-path exact-mode call holds the (2N, paths)
        # joint sample, the (N, paths) increments and the (N+1, paths)
        # variance and log price, plus rows of scratch: 106 rows in all. The
        # variance is compensated and exponentiated in place; three (N, paths)
        # temporaries there once made it 141 rows
        from rvol.mc import CounterRng

        params, grid, n_paths = BergomiParams(), GridSpec(T=0.041, N=20), 4096
        law = sampler_law(params.spec, None, grid)
        normals = CounterRng(1).normals_block(0, n_paths, grid.N, 3)
        simulate_bergomi(params, grid, None, law, normals=normals)
        tracemalloc.start()
        try:
            simulate_bergomi(params, grid, None, law, normals=normals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 3 * grid.N + 2 * (grid.N + 1)
        assert peak <= 1.15 * 8 * n_paths * rows

    def test_zero_vol_of_vol_is_black_scholes(self):
        params = BergomiParams(v0=0.04, eta=0.0, rho=-0.5, H=0.1)
        grid = GridSpec(T=1.0, N=8)
        kernel = ExpSumKernel([1.0], [1.0])
        rng = np.random.default_rng(4)
        normals = rng.standard_normal((64, 8, 3))
        paths = _simulate(params, grid, kernel, normals)
        assert np.allclose(paths.variance, 0.04)
        # log increments are exactly -v dt / 2 + sqrt(v) dW
        incs = np.diff(paths.log_price, axis=1)
        assert np.allclose(incs.mean(), -0.5 * 0.04 * grid.dt, atol=0.2 * math.sqrt(0.04 * grid.dt))

    def test_variance_martingale_multifactor(self):
        from rvol.mc import systematic_kernel

        params = BergomiParams()
        grid = GridSpec(T=0.041, N=20)
        kernel = systematic_kernel(params.H, 20, grid.T)
        rng = np.random.default_rng(5)
        normals = rng.standard_normal((100_000, grid.N, step_components(kernel)))
        paths = _simulate(params, grid, kernel, normals)
        for col in (1, 10, 20):
            sample = paths.variance[:, col]
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - params.v0) <= 3.0 * se

    def test_variance_martingale_exact(self):
        params = BergomiParams()
        grid = GridSpec(T=0.041, N=20)
        rng = np.random.default_rng(6)
        normals = rng.standard_normal((100_000, grid.N, step_components(None)))
        paths = _simulate(params, grid, None, normals)
        for col in (1, 10, 20):
            sample = paths.variance[:, col]
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - params.v0) <= 3.0 * se

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        H=st.floats(0.02, 0.45),
        strength=st.floats(0.05, 1.0),
        N=st.integers(1, 24),
        T=st.floats(0.005, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_variance_martingale_property(self, H, strength, N, T, seed):
        # E[V_t] = v0 at every grid time in both modes. eta^2 T^(2H) =
        # strength^2 <= 1 keeps V_t / v0 lognormal with log-variance at most
        # 1, so its sample standard error is trustworthy at 4096 paths. Over
        # seeds 1-10 with 100 random (H, strength, N, T) each, the largest
        # |mean / v0 - 1| read 3.90 standard errors and 99% of draws stayed
        # below 3.33; derandomize fixes the examples of this statistical bound
        from rvol.mc import systematic_kernel

        params = BergomiParams(eta=strength * T ** (-H), H=H)
        grid = GridSpec(T=T, N=N)
        kernel = systematic_kernel(H, 20, T)
        paths = 4096
        rng = np.random.default_rng(seed)
        normals = rng.standard_normal((paths, N, step_components(kernel)))
        for mode_kernel, mode_normals in ((None, normals[:, :, :3]), (kernel, normals)):
            run = _simulate(params, grid, mode_kernel, mode_normals)
            ratio = run.variance[:, 1:] / params.v0
            se = ratio.std(axis=0, ddof=1) / math.sqrt(paths)
            assert np.all(np.abs(ratio.mean(axis=0) - 1.0) <= 4.0 * se)

    def test_negative_skew_with_ci_separation(self):
        from rvol.mc import McConfig, bergomi_smile

        params = BergomiParams()  # rho = -0.9
        grid = GridSpec(T=0.041, N=20)
        rows = bergomi_smile(
            params, grid, McConfig(paths=30_000, seed=9), [-0.05, 0.03], kernel_factors=20
        )
        for mode in ("exact", "multifactor"):
            picked = {round(k, 4): (mean, half, vol) for m, k, mean, half, vol in rows if m == mode}
            mean_lo, half_lo, vol_lo = picked[-0.05]
            mean_hi, half_hi, vol_hi = picked[0.03]
            assert vol_lo > vol_hi
            # vol gap far exceeds what the price CIs can explain
            lo_band = implied_vol(mean_lo - half_lo, params.S0, math.exp(-0.05), grid.T)
            hi_band = implied_vol(mean_hi + half_hi, params.S0, math.exp(0.03), grid.T)
            assert lo_band > hi_band

    def test_compensator_matches_quadrature(self):
        # no pivot of this step law is dropped, so the variance of the sampled
        # sum is the kernel's: the integral of its square
        from rvol.kernel import expsum_eval

        kernel = ExpSumKernel([0.7, 0.5, 0.1], [0.0, 2.0, 15.0])
        grid = GridSpec(T=1.0, N=4)
        z = np.zeros((1, grid.N, kernel.n))
        for t, got in zip(grid.times()[1:], sampler_law(None, kernel, grid).var):
            oracle = quad(lambda s: expsum_eval(kernel, s) ** 2, 0.0, t, **TIGHT)[0]
            assert abs(got - oracle) <= 1e-10


class TestImpliedVol:
    def test_round_trip(self):
        price = bs_call_price(1.0, 1.0, 1.0, 0.2)
        assert math.isclose(price, BS_1_1_1_02, rel_tol=1e-12)
        assert abs(implied_vol(price, 1.0, 1.0, 1.0) - 0.2) <= 1e-7

    def test_intrinsic_maps_to_zero(self):
        assert implied_vol(0.5, 1.5, 1.0, 0.5) == 0.0

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vol = rng.uniform(0.05, 1.0)
            strike = rng.uniform(0.5, 2.0)
            horizon = rng.uniform(0.05, 2.0)
            price = bs_call_price(1.0, strike, horizon, vol)
            back = implied_vol(price, 1.0, strike, horizon)
            assert abs(back - vol) <= 1e-6

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            implied_vol(1.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            implied_vol(0.1, 1.2, 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_inputs_rejected(self, value, slot):
        # a NaN price passed both range checks and bisected to 3.7e-09, and
        # a NaN vol or S0 priced to NaN
        for fn, args in ((implied_vol, [0.1, 1.0, 1.0, 1.0]), (bs_call_price, [1.0, 1.0, 1.0, 0.2])):
            args[slot] = value
            with pytest.raises(ValueError, match="must be finite"):
                fn(*args)


class TestSamplerLawChecks:
    """A sampler given a law of another grid or mode fails by name."""

    GRID, OTHER = GridSpec(T=0.041, N=20), GridSpec(T=1.0, N=20)

    @staticmethod
    def _law(mode, grid):
        kernel = None if mode == "exact" else _smile_kernel(40, grid.T)
        return kernel, sampler_law(BergomiParams().spec, kernel, grid)

    def test_law_records_its_grid_and_mode(self):
        for mode in ("exact", "multifactor"):
            law = self._law(mode, self.GRID)[1]
            assert (law.grid, law.mode) == (self.GRID, mode)

    def test_law_records_its_spec_or_kernel(self):
        exact_law = self._law("exact", self.GRID)[1]
        assert (exact_law.spec, exact_law.kernel) == (BergomiParams().spec, None)
        kernel, factor_law = self._law("multifactor", self.GRID)
        assert factor_law.kernel is kernel and factor_law.spec is None

    def test_law_of_another_hurst_index(self):
        # an exact law built at H = 0.07 and run at H = 0.3 once moved the
        # log price by up to 6.9
        law = self._law("exact", self.GRID)[1]
        normals = np.random.default_rng(2).standard_normal((8, 20, 3))
        match = (
            r"built for RoughKernelSpec\(H=0.07\) on GridSpec\(T=0.041, N=20\) "
            r"cannot sample RoughKernelSpec\(H=0.3\)"
        )
        with pytest.raises(ValueError, match=match):
            simulate_bergomi(BergomiParams(H=0.3), self.GRID, None, law, normals=normals)
        # the law's own Hurst index samples, through an equal spec
        simulate_bergomi(BergomiParams(H=0.07), self.GRID, None, law, normals=normals)

    def test_law_of_another_kernel(self):
        # another kernel with the same factor count on the same grid once
        # sampled silently
        kernel, law = self._law("multifactor", self.GRID)
        other = ExpSumKernel(2.0 * kernel.weights, kernel.rates)
        normals = np.random.default_rng(3).standard_normal((8, 20, kernel.n + 2))
        pair = (normals[:, :, 0], normals[:, :, 2:])
        built, asked = (re.escape(f"{k.weights.sum():.6g}") for k in (kernel, other))
        match = (
            rf"built for the {kernel.n}-factor kernel of rates .* and total weight {built} "
            rf"on GridSpec\(T=0.041, N=20\) cannot sample the {kernel.n}-factor kernel "
            rf"of rates .* and total weight {asked}$"
        )
        with pytest.raises(ValueError, match=match):
            sample_factors_exact(other, law, self.GRID, pair)
        with pytest.raises(ValueError, match=match):
            simulate_bergomi(BergomiParams(), self.GRID, other, law, normals=normals)
        # an equal kernel samples to the same bits as the law's own
        twin = ExpSumKernel(kernel.weights, kernel.rates)
        own = sample_factors_exact(kernel, law, self.GRID, pair)
        assert all(map(np.array_equal, sample_factors_exact(twin, law, self.GRID, pair), own))

    @pytest.mark.parametrize("mode", ["exact", "multifactor"])
    def test_law_of_another_grid(self, mode):
        # a law for T = 0.041 sampled on T = 1 with the same N once moved
        # the log price by up to 0.52 (exact) and 0.31 (multifactor)
        kernel, law = self._law(mode, self.GRID)
        normals = np.random.default_rng(0).standard_normal((8, 20, step_components(kernel)))
        match = (
            rf"built for the {mode} mode on GridSpec\(T=0.041, N=20\) "
            rf"cannot sample the {mode} mode on GridSpec\(T=1.0, N=20\)"
        )
        with pytest.raises(ValueError, match=match):
            simulate_bergomi(BergomiParams(), self.OTHER, kernel, law, normals=normals)
        pair = (normals[:, :, 0], normals[:, :, 2:])
        with pytest.raises(ValueError, match=match):
            if kernel is None:
                sample_fractional_exact(law, self.OTHER, pair)
            else:
                sample_factors_exact(kernel, law, self.OTHER, pair)

    def test_law_of_another_mode(self):
        # an exact law in the factor sampler once raised TypeError
        # ('NoneType' object is not subscriptable)
        kernel = _smile_kernel(40, self.GRID.T)
        exact_law = self._law("exact", self.GRID)[1]
        factor_law = self._law("multifactor", self.GRID)[1]
        normals = np.random.default_rng(1).standard_normal((8, 20, kernel.n + 2))
        pair = (normals[:, :, 0], normals[:, :, 2:])
        with pytest.raises(ValueError, match="exact mode on .* cannot sample the multifactor"):
            sample_factors_exact(kernel, exact_law, self.GRID, pair)
        with pytest.raises(ValueError, match="exact mode on .* cannot sample the multifactor"):
            simulate_bergomi(BergomiParams(), self.GRID, kernel, exact_law, normals=normals)
        pair = (normals[:, :, 0], normals[:, :, 2:3])
        with pytest.raises(ValueError, match="multifactor mode on .* cannot sample the exact"):
            sample_fractional_exact(factor_law, self.GRID, pair)
        with pytest.raises(ValueError, match="multifactor mode on .* cannot sample the exact"):
            simulate_bergomi(
                BergomiParams(), self.GRID, None, factor_law, normals=normals[:, :, :3]
            )


def _smile_kernel(n_total, T):
    from rvol.mc import systematic_kernel

    return systematic_kernel(BergomiParams().H, n_total, T)


@lru_cache(maxsize=None)
def _plan(factors, T, N):
    """The plan of the exact mode (``factors`` 0) or of the multifactor mode."""
    from rvol.mc import BergomiModel

    if factors == 0:
        model = BergomiModel("exact")
    else:
        model = BergomiModel("multifactor", kernel_factors=factors)
    return model, model.plan(GridSpec(T=T, N=N))


class TestSamplerInSpentRows:
    """``BergomiModel.simulate`` runs in the normals it has drawn, to the bits of a full run."""

    @settings(max_examples=40, deadline=None)
    @given(
        # 40 factors: rank 18-22, so the unread rows hold the state from N = 8
        # up; 4 factors at T = 1: a full-rank step law, so none are unread
        factors=st.sampled_from([0, 40, 10, 4]),
        T=st.sampled_from([0.041, 1.0]),
        N=st.integers(1, 24),
        width=st.integers(1, 40),
        offset=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(factors=40, T=0.041, N=20, width=1, offset=0, seed=0)
    @example(factors=40, T=0.041, N=1, width=5, offset=0, seed=1)
    @example(factors=4, T=1.0, N=6, width=7, offset=2, seed=2)
    @example(factors=40, T=0.041, N=6, width=1, offset=1, seed=95)
    @example(factors=40, T=0.041, N=6, width=2, offset=1, seed=17)
    def test_same_bits_as_a_full_run(self, factors, T, N, width, offset, seed):
        # the normals are paths [offset, offset + width) of a wider
        # normals_block draw, so their rows are strided unless offset is 0
        from rvol.mc import CounterRng, _path_stats

        model, plan = _plan(factors, T, N)
        wide = CounterRng(seed).normals_block(0, width + offset + (offset > 0), N, plan.comps)
        drawn = wide.transpose(2, 1, 0)  # the (comps, N, paths) buffer
        kept = drawn.copy()
        normals = wide[offset : offset + width]
        copy = np.copy(normals)  # step-major too: a C-ordered copy may move the last bits
        full = model.simulate_paths(plan, copy)
        assert np.array_equal(copy, normals)  # a full run keeps its normals
        want = _path_stats(full)
        got = model.simulate(plan, normals)
        assert np.array_equal(got.terminal, want.terminal)
        assert np.array_equal(got.running_max, want.running_max)

        if width == 1 and wide.shape[0] > 1:
            # one path of a wider block keeps all its rows (schemes._spent_rows)
            assert np.array_equal(drawn, kept)
            return
        paths = slice(offset, offset + width)
        # the log price takes over z0's last row and the rows of component 1
        spent = drawn[:2, :, paths].reshape(2 * N, width)[N - 1 :]
        assert np.array_equal(spent, full.log_price.T)
        for other in (slice(0, offset), slice(offset + width, None)):
            assert np.array_equal(drawn[:, :, other], kept[:, :, other])  # other paths kept
        if plan.kernel is None:
            assert np.array_equal(drawn[2], kept[2])
            assert np.array_equal(drawn[0, :-1], kept[0, :-1])
            return
        n, rank = plan.kernel.n, plan.law.factor.shape[1]
        assert np.array_equal(drawn[2 : rank + 2], kept[2 : rank + 2])  # read, never written
        if (n - rank) * N >= 3 * n + N + 1 and offset == 0:
            # the increments sqrt(dt) z0 in z0's rows, and the variance in
            # the first unread rows: its row 0 is v0
            dw = kept[0, :-1, paths] * math.sqrt(plan.grid.dt)
            assert np.array_equal(drawn[0, :-1, paths], dw)
            assert np.all(drawn[rank + 2, 0, paths] == model.params.v0)
            variance = drawn[rank + 2 :, :, paths].reshape(-1, width)[: N + 1]
            assert np.array_equal(variance, full.variance.T)
        else:  # too few unread rows, or a path slice of a wider draw: allocated
            assert np.array_equal(drawn[2:], kept[2:])
            assert np.array_equal(drawn[0, :-1], kept[0, :-1])

    @pytest.mark.parametrize("factors", [0, 40])
    @pytest.mark.parametrize("case", ["read-only", "float32", "C-ordered"])
    def test_fallbacks_keep_their_normals(self, factors, case):
        # normals the run may not overwrite, or whose rows do not follow
        # each other, leave the state and the log price in arrays of their
        # own, to the bits of a full run on a copy
        from rvol.mc import CounterRng, _path_stats

        model, plan = _plan(factors, 0.041, 20)
        normals = CounterRng(5).normals_block(0, 37, 20, plan.comps)
        if case == "read-only":
            normals.setflags(write=False)
        elif case == "float32":
            normals = normals.astype(np.float32)
        else:
            normals = np.ascontiguousarray(normals)
        kept = normals.copy()
        want = _path_stats(model.simulate_paths(plan, np.copy(normals)))  # the same layout
        got = model.simulate(plan, normals)
        assert np.array_equal(normals, kept)
        assert np.array_equal(got.terminal, want.terminal)
        assert np.array_equal(got.running_max, want.running_max)

    def test_sampler_out_has_the_shapes_of_its_state(self):
        kernel = ExpSumKernel([0.8, 0.4], [0.5, 6.0])
        grid = GridSpec(T=0.5, N=4)
        law = sampler_law(None, kernel, grid)
        normals = np.random.default_rng(2).standard_normal((3, 4, 3))
        pair = (normals[:, :, 0], normals[:, :, 1:])
        want = sample_factors_exact(kernel, law, grid, pair)
        out = (np.empty((4, 3)), np.empty((4, 3)), np.empty((6, 3)))
        got = sample_factors_exact(kernel, law, grid, pair, out=out)
        for part, got_part, want_part in zip(out, got, want):
            assert np.shares_memory(part, got_part) and np.array_equal(got_part, want_part)
        with pytest.raises(ValueError, match=r"out must hold arrays of shapes"):
            sample_factors_exact(kernel, law, grid, pair, out=out[:2] + (np.empty((5, 3)),))


class TestNormalsLayout:
    """Samplers give the same output for C-ordered and step-major normals."""

    def _normals(self, paths, steps, comps):
        from rvol.mc import CounterRng

        view = CounterRng(17).normals_block(0, paths, steps, comps)
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and copy.flags.c_contiguous
        return view, copy

    def test_factor_sampler(self):
        kernel = ExpSumKernel([0.8, 0.4, 0.2, 0.1], [0.5, 6.0, 40.0, 41.0])
        grid = GridSpec(T=0.5, N=12)
        view, copy = self._normals(50, grid.N, kernel.n + 1)
        f_view, dw_view = _factor_sample(kernel, grid, (view[:, :, 0], view[:, :, 1:]))
        f_copy, dw_copy = _factor_sample(kernel, grid, (copy[:, :, 0], copy[:, :, 1:]))
        f_pair, dw_pair = _factor_sample(
            kernel,
            grid,
            (np.ascontiguousarray(copy[:, :, 0]), np.ascontiguousarray(copy[:, :, 1:])),
        )
        assert f_view.shape == dw_view.shape == (50, grid.N)
        assert np.allclose(f_view, f_copy, rtol=0.0, atol=1e-14)
        assert np.array_equal(f_copy, f_pair)
        assert np.array_equal(dw_view, dw_copy) and np.array_equal(dw_copy, dw_pair)

    def test_factor_sampler_shape_validation(self):
        kernel = ExpSumKernel([0.8, 0.4], [0.5, 6.0])
        grid = GridSpec(T=0.5, N=4)
        bad = np.zeros((3, 4, 2))
        with pytest.raises(ValueError):
            _factor_sample(kernel, grid, (bad[:, :, 0], bad[:, :, 1:]))
        with pytest.raises(ValueError):
            _factor_sample(kernel, grid, (np.zeros(4), np.zeros((1, 4, 2))))
        with pytest.raises(ValueError):
            _factor_sample(kernel, grid, (np.zeros((3, 4)), np.zeros((2, 4, 2))))

    @pytest.mark.parametrize("sampler", ["factors", "fractional", "simulate"])
    def test_inputs_checked_alike(self, sampler):
        kernel = ExpSumKernel([0.8, 0.4], [0.5, 6.0])
        grid = GridSpec(T=0.5, N=4)
        params = BergomiParams()
        exact_law = sampler_law(params.spec, None, grid)
        run, comps = {
            "factors": (
                lambda normals: _factor_sample(
                    kernel, grid, (normals[:, :, 0], normals[:, :, 1:])
                ),
                kernel.n + 1,
            ),
            "fractional": (
                lambda normals: sample_fractional_exact(
                    exact_law, grid, (normals[:, :, 0], normals[:, :, 1:])
                ),
                2,
            ),
            "simulate": (
                lambda normals: _simulate(params, grid, kernel, normals),
                step_components(kernel),
            ),
        }[sampler]
        with pytest.raises(ValueError, match=rf"normals must have shape \(paths, 4, {comps}\)"):
            run(normals=np.zeros((3, grid.N, comps + 1)))

    @pytest.mark.parametrize("mode", ["exact", "multifactor"])
    def test_simulate(self, mode):
        from rvol.mc import systematic_kernel

        params = BergomiParams()
        grid = GridSpec(T=0.041, N=10)
        kernel = None if mode == "exact" else systematic_kernel(params.H, 10, grid.T)
        comps = 3 if kernel is None else kernel.n + 2
        view, copy = self._normals(60, grid.N, comps)
        a, b = (_simulate(params, grid, kernel, normals) for normals in (view, copy))
        for name in ("log_price", "variance"):
            assert getattr(a, name).shape == (60, grid.N + 1)
            assert np.allclose(getattr(a, name), getattr(b, name), rtol=1e-14, atol=0.0)
