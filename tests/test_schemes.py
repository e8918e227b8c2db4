import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rvol import schemes
from rvol.bergomi import BergomiParams
from rvol.kernel import (
    ExpSumKernel,
    RoughKernelSpec,
    expsum_eval,
    l2_error_discrete,
    rough_kernel_eval,
)
from rvol.quadrature import build_systematic
from rvol.schemes import (
    GridSpec,
    HestonParams,
    SvePlant,
    heston_hybrid_multifactor,
    heston_integrated_multifactor,
    heston_integrated_volterra,
    heston_multifactor_euler,
    heston_volterra_euler,
    hybrid_step_covariance,
    multifactor_euler,
    volterra_euler,
)


def _timed(fn):
    # CPU time of this thread: immune to scheduling noise and to BLAS
    # worker threads left spin-waiting by earlier tests
    import time

    start = time.thread_time()
    fn()
    return time.thread_time() - start


def random_kernels(rng, n_max=8, shared=True):
    n = int(rng.integers(1, n_max + 1))
    rates = np.sort(rng.uniform(0.0, 30.0, n))
    while n > 1 and np.any(np.diff(rates) <= 0):
        rates = np.sort(rng.uniform(0.0, 30.0, n))
    weights = rng.uniform(0.0, 2.0, n)
    k1 = ExpSumKernel(weights, rates)
    if shared:
        return k1, k1
    return k1, ExpSumKernel(rng.uniform(0.0, 2.0, n), rates)


def random_plant(rng, d):
    A = rng.standard_normal((d, d)) * 0.5
    c = rng.standard_normal(d) * 0.3
    C = rng.standard_normal((d, d)) * 0.4
    D = rng.standard_normal((d, d)) * 0.5
    x0 = rng.standard_normal(d)
    return SvePlant(
        x0=x0,
        drift=lambda x: np.tanh(x @ A.T) + c,
        diffusion=lambda x: C + 0.3 * np.tanh(x @ D.T)[:, :, None] * np.ones(d)[None, None, :],
    )


FLAT = ExpSumKernel([1.0], [0.0])
SVE_ENGINES = [  # both generic engines as run(plant, grid, dw), with the kernel 1
    pytest.param(lambda p, g, dw: volterra_euler(p, FLAT, FLAT, g, dw), id="volterra"),
    pytest.param(lambda p, g, dw: multifactor_euler(p, FLAT, FLAT, g, dw), id="multifactor"),
]


def integrated(params, kernel, grid, z, zp, *, factors, runmax, prices_only=False):
    """An integrated engine with either mean-reversion floor.

    The public engines fix the floor (running max for the direct one,
    positive part for the multifactor one); this runs their step loop
    over the direct history memory or the factor memory of ``kernel``.
    """
    z, zp = schemes._check_normals(grid, z, zp)
    if factors:
        memory = schemes._expsum_memory(kernel, grid, z.shape[1])
    else:
        memory = schemes._HistoryMemory(schemes._kernel_table(kernel, grid), z.shape[1])
    return schemes._integrated_loop(params, grid, memory, z, zp, prices_only, runmax)


class TestGridAndTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(T=0.0, N=10)
        with pytest.raises(ValueError):
            GridSpec(T=1.0, N=0)

    @pytest.mark.parametrize("N", [2.5, 4.0])
    def test_grid_rejects_non_integral_steps(self, N):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(T=1.0, N=N)

    def test_grid_accepts_numpy_integers(self):
        assert np.array_equal(GridSpec(T=2.0, N=np.int64(4)).times(), GridSpec(T=2.0, N=4).times())

    def test_grid_times(self):
        grid = GridSpec(T=2.0, N=4)
        assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_heston_params_validation(self):
        with pytest.raises(ValueError):
            HestonParams(V0=-0.1)
        with pytest.raises(ValueError):
            HestonParams(rho=-1.5)
        with pytest.raises(ValueError):
            HestonParams(S0=0.0)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda x: GridSpec(T=x, N=10), "T"),
            (lambda x: HestonParams(V0=x), "V0"),
            (lambda x: HestonParams(theta=x), "theta"),
            (lambda x: HestonParams(lam=x), "lam"),
            (lambda x: HestonParams(sigma=x), "sigma"),
            (lambda x: HestonParams(S0=x), "S0"),
            (lambda x: BergomiParams(S0=x), "S0"),
            (lambda x: BergomiParams(v0=x), "v0"),
            (lambda x: BergomiParams(eta=x), "eta"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, make, field, value):
        # NaN passes every ordering check, and +inf every lower bound
        with pytest.raises(ValueError, match=field):
            make(value)

    @pytest.mark.parametrize(
        "x0", [[0.0, math.nan], [math.inf], np.zeros((2, 2))], ids=["nan", "inf", "matrix"]
    )
    def test_sve_initial_point_rejected(self, x0):
        with pytest.raises(ValueError, match="x0"):
            SvePlant(x0=x0, drift=lambda x: x, diffusion=lambda x: np.eye(x.size))

    @pytest.mark.parametrize("engine", SVE_ENGINES)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_increments_rejected(self, engine, value):
        plant = SvePlant(
            x0=np.zeros(2),
            drift=lambda x: x,
            diffusion=lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
        )
        dw = np.zeros((3, 4, 2))
        dw[1, 2, 1] = value
        with pytest.raises(ValueError, match="dw must be finite"):
            engine(plant, GridSpec(T=1.0, N=4), dw)

    @pytest.mark.parametrize("engine", SVE_ENGINES)
    @pytest.mark.parametrize(
        "drift, diffusion",
        [
            # broadcasts over both components
            (lambda x: np.ones((len(x), 1)), lambda x: np.tile(np.eye(2), (len(x), 1, 1))),
            (lambda x: np.zeros((len(x), 2)), lambda x: np.ones((len(x), 2))),  # not matrices
        ],
        ids=["drift", "diffusion"],
    )
    def test_plant_output_shapes_checked(self, engine, drift, diffusion):
        plant = SvePlant(x0=np.zeros(2), drift=drift, diffusion=diffusion)
        with pytest.raises(ValueError, match=r"\(3, 2\) and diffusion\(x\) \(3, 2, 2\)"):
            engine(plant, GridSpec(T=1.0, N=4), np.ones((3, 4, 2)))


class TestVolterraEuler:
    def test_flat_kernel_recovers_brownian(self):
        rng = np.random.default_rng(0)
        grid = GridSpec(T=1.0, N=32)
        dw = rng.standard_normal((5, 32, 1)) * math.sqrt(grid.dt)
        plant = SvePlant(
            x0=np.array([0.4]),
            drift=lambda x: np.zeros((len(x), 1)),
            diffusion=lambda x: np.ones((len(x), 1, 1)),
        )
        states = volterra_euler(plant, FLAT, FLAT, grid, dw)
        expected = 0.4 + np.concatenate([np.zeros((5, 1)), np.cumsum(dw[:, :, 0], axis=1)], axis=1)
        assert np.allclose(states[:, :, 0], expected, atol=1e-14)

    def test_degenerate_constant_path(self):
        grid = GridSpec(T=1.0, N=8)
        plant = SvePlant(
            x0=np.array([1.5, -2.0]),
            drift=lambda x: np.zeros((len(x), 2)),
            diffusion=lambda x: np.zeros((len(x), 2, 2)),
        )
        dw = np.ones((3, 8, 2))
        states = volterra_euler(plant, FLAT, FLAT, grid, dw)
        assert np.allclose(states, plant.x0[None, None, :])

    def test_two_step_hand_expansion(self):
        grid = GridSpec(T=1.0, N=2)
        b0, s0, x0 = 0.3, 0.7, 0.1
        plant = SvePlant(
            x0=np.array([x0]),
            drift=lambda x: np.full((len(x), 1), b0),
            diffusion=lambda x: np.full((len(x), 1, 1), s0),
        )
        dw = np.array([[[0.2], [-0.1]]])
        g = lambda t: math.exp(-t)
        kernel = ExpSumKernel([1.0], [1.0])  # e^-t
        states = volterra_euler(plant, kernel, kernel, grid, dw)
        x1 = x0 + g(0.5) * b0 * 0.5 + g(0.5) * s0 * 0.2
        x2 = (
            x0
            + g(1.0) * b0 * 0.5
            + g(0.5) * b0 * 0.5
            + g(1.0) * s0 * 0.2
            + g(0.5) * s0 * (-0.1)
        )
        assert np.allclose(states[0, :, 0], [x0, x1, x2], atol=1e-15)

    @pytest.mark.parametrize("N", [1, 15, 16, 17, 33, 40])
    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_direct_double_sum_across_blocks(self, N, shared):
        # the step loop runs in blocks of schemes._BLOCK steps; check rows on
        # both sides of each block boundary against the plain double sum
        rng = np.random.default_rng(N)
        A = rng.standard_normal((2, 2)) * 0.5
        C = rng.standard_normal((2, 2)) * 0.4
        plant = SvePlant(
            x0=np.array([0.3, -0.1]),
            drift=lambda x: np.tanh(x @ A.T) - 0.2 * x,
            diffusion=lambda x: C * (1.0 + 0.3 * np.tanh(x[:, 0] - x[:, 1]))[:, None, None],
        )
        # the engine takes the kernel objects; the double sum evaluates them as formulas
        g1 = lambda t: t**-0.3 / math.gamma(0.7)
        g2 = g1 if shared else (lambda t: math.exp(-2.0 * t) + 0.5 * math.exp(-5.0 * t))
        k1 = RoughKernelSpec(0.2)
        k2 = k1 if shared else ExpSumKernel([1.0, 0.5], [2.0, 5.0])
        grid = GridSpec(T=1.0, N=N)
        dw = rng.standard_normal((3, N, 2)) * math.sqrt(grid.dt)
        dt = grid.dt
        expected = []
        for p in range(3):
            states, drifts, shocks = [list(plant.x0)], [], []
            for k in range(N):
                x = np.array(states[-1])[None, :]
                drifts.append([float(v) * dt for v in plant.drift(x)[0]])
                shocks.append([float(v) for v in plant.diffusion(x)[0] @ dw[p, k]])
                states.append(
                    [
                        plant.x0[i]
                        + sum(
                            g1((k + 1 - j) * dt) * drifts[j][i]
                            + g2((k + 1 - j) * dt) * shocks[j][i]
                            for j in range(k + 1)
                        )
                        for i in range(2)
                    ]
                )
            expected.append(states)
        states = volterra_euler(plant, k1, k2, grid, dw)
        assert np.max(np.abs(states - np.array(expected))) <= 1e-12

    def test_shape_validation(self):
        grid = GridSpec(T=1.0, N=4)
        plant = SvePlant(
            x0=np.zeros(2),
            drift=lambda x: np.zeros((len(x), 2)),
            diffusion=lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
        )
        for dw in (np.zeros((2, 4, 1)), np.zeros((4, 2))):  # wrong d; no paths axis
            with pytest.raises(ValueError, match="dw must be finite with shape"):
                volterra_euler(plant, FLAT, FLAT, grid, dw)

    def test_callable_kernel_rejected(self):
        grid = GridSpec(T=1.0, N=4)
        with pytest.raises(TypeError, match="RoughKernelSpec or an ExpSumKernel"):
            schemes._kernel_table(lambda t: 1.0, grid)


class TestMultifactorEuler:
    def test_single_flat_factor_recovers_brownian(self):
        rng = np.random.default_rng(1)
        grid = GridSpec(T=1.0, N=16)
        dw = rng.standard_normal((5, 16, 1)) * math.sqrt(grid.dt)
        plant = SvePlant(
            x0=np.array([0.2]),
            drift=lambda x: np.zeros((len(x), 1)),
            diffusion=lambda x: np.ones((len(x), 1, 1)),
        )
        kernel = ExpSumKernel([1.0], [0.0])
        states = multifactor_euler(plant, kernel, kernel, grid, dw)
        expected = 0.2 + np.concatenate([np.zeros((5, 1)), np.cumsum(dw[:, :, 0], axis=1)], axis=1)
        assert np.allclose(states[:, :, 0], expected, atol=1e-14)

    def test_rate_mismatch_rejected(self):
        grid = GridSpec(T=1.0, N=4)
        plant = SvePlant(
            x0=np.zeros(1),
            drift=lambda x: np.zeros((len(x), 1)),
            diffusion=lambda x: np.ones((len(x), 1, 1)),
        )
        k1 = ExpSumKernel([1.0], [1.0])
        k2 = ExpSumKernel([1.0], [2.0])
        with pytest.raises(ValueError):
            multifactor_euler(plant, k1, k2, grid, np.zeros((2, 4, 1)))

    def test_matches_direct_scheme_shared_kernel(self):
        rng = np.random.default_rng(2)
        for case in range(10):
            d = int(rng.integers(1, 4))
            grid = GridSpec(T=float(rng.uniform(0.25, 2.0)), N=int(rng.integers(2, 65)))
            k1, k2 = random_kernels(rng, shared=True)
            plant = random_plant(rng, d)
            dw = rng.standard_normal((4, grid.N, d)) * math.sqrt(grid.dt)
            direct = volterra_euler(plant, k1, k2, grid, dw)
            fast = multifactor_euler(plant, k1, k2, grid, dw)
            gap = np.max(np.abs(direct - fast))
            assert gap <= 1e-10 * (1.0 + np.max(np.abs(plant.x0)))

    def test_matches_direct_scheme_two_kernels(self):
        rng = np.random.default_rng(3)
        for case in range(10):
            d = int(rng.integers(1, 4))
            grid = GridSpec(T=1.0, N=int(rng.integers(2, 65)))
            k1, k2 = random_kernels(rng, shared=False)
            plant = random_plant(rng, d)
            dw = rng.standard_normal((4, grid.N, d)) * math.sqrt(grid.dt)
            direct = volterra_euler(plant, k1, k2, grid, dw)
            fast = multifactor_euler(plant, k1, k2, grid, dw)
            gap = np.max(np.abs(direct - fast))
            assert gap <= 1e-10 * (1.0 + np.max(np.abs(plant.x0)))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        N=st.integers(1, 70),
        rates=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=8, unique=True),
        shared=st.booleans(),
        paths=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_scheme_property(self, d, N, rates, shared, paths, seed):
        rng = np.random.default_rng(seed)
        rates = np.sort(rates)
        k1 = ExpSumKernel(rng.uniform(0.0, 2.0, rates.size), rates)
        k2 = k1 if shared else ExpSumKernel(rng.uniform(0.0, 2.0, rates.size), rates)
        plant = random_plant(rng, d)
        grid = GridSpec(T=float(rng.uniform(0.25, 2.0)), N=N)
        dw = rng.standard_normal((paths, N, d)) * math.sqrt(grid.dt)
        direct = volterra_euler(plant, k1, k2, grid, dw)
        fast = multifactor_euler(plant, k1, k2, grid, dw)
        assert np.max(np.abs(direct - fast)) <= 1e-9


class TestStabilityEstimate:
    def test_gap_bounded_by_discrete_kernel_error(self):
        # the paper's L2 estimate: on shared increments, the Euler states of
        # two equations that differ only in their kernels are as close as
        # the kernels on the grid, E|X_k - X^_k|^2 <= C l2_error_discrete^2;
        # over seeds 1-10 the ratio read 0.024-0.083, so 0.2 is 2.4x of it
        grid = GridSpec(T=1.0, N=100)
        plant = SvePlant(
            x0=0.1,
            drift=lambda x: 0.2 - x,
            diffusion=lambda x: (0.3 + 0.1 * np.tanh(x))[:, :, None],
        )
        dw = np.random.default_rng(5).standard_normal((4096, grid.N, 1)) * math.sqrt(grid.dt)
        gaps = []
        for H in (0.05, 0.1, 0.25, 0.45):
            spec = RoughKernelSpec(H)
            rough = volterra_euler(plant, spec, spec, grid, dw)
            for n in (10, 20, 40, 80):
                kernel = build_systematic(spec, n, grid.T)
                fast = multifactor_euler(plant, kernel, kernel, grid, dw)
                gap = np.max(np.mean((rough - fast)[:, :, 0] ** 2, axis=0))
                ratio = gap / l2_error_discrete(spec, kernel, grid.T, grid.N) ** 2
                assert ratio <= 0.2, (H, n, ratio)
                gaps.append(gap)
        assert max(gaps) >= 1e3 * min(gaps)  # the grid spans far and close kernels


class TestEulerUniformInKernel:
    def test_error_spread_across_factor_counts(self):
        # the paper's second result: the Euler error converges uniformly in
        # the approximating kernel, so at each N the error E|X_T^N - X_T^ref|^2
        # barely depends on the factor count; each kernel's reference is its
        # own run at N = 1280, and coarse runs sum the reference increments.
        # Over seeds 1-10 the largest/smallest error across n read at most
        # 1.19 at H = 0.1 and 1.03 at H = 0.25, so 1.5 leaves 1.27x headroom;
        # every error fell with N. The finite reference steepens the fitted
        # rate, so none is gated
        plant = SvePlant(
            x0=0.1,
            drift=lambda x: 0.2 - x,
            diffusion=lambda x: (0.3 + 0.1 * np.tanh(x))[:, :, None],
        )
        fine, steps, paths = 1280, (20, 40, 80, 160), 2048
        dw = np.random.default_rng(1).standard_normal((paths, fine, 1)) * math.sqrt(1.0 / fine)
        for H in (0.1, 0.25):
            errors = []
            for n in (10, 40, 160, 320):
                kernel = build_systematic(RoughKernelSpec(H), n, 1.0)
                ref = multifactor_euler(plant, kernel, kernel, GridSpec(1.0, fine), dw)[:, -1]
                row = []
                for N in steps:
                    coarse = dw.reshape(paths, N, fine // N, 1).sum(axis=2)
                    x = multifactor_euler(plant, kernel, kernel, GridSpec(1.0, N), coarse)[:, -1]
                    row.append(float(np.mean((x - ref) ** 2)))
                assert all(a > b for a, b in zip(row, row[1:])), (H, n, row)
                errors.append(row)
            for N, column in zip(steps, zip(*errors)):
                assert max(column) <= 1.5 * min(column), (H, N, column)


class TestHestonVariance:
    def test_degenerate_black_scholes(self):
        params = HestonParams(V0=0.04, theta=0.0, lam=0.0, sigma=0.0, rho=-0.5)
        grid = GridSpec(T=1.0, N=16)
        rng = np.random.default_rng(4)
        z, zp = rng.standard_normal((2, 100, 16))
        paths = heston_volterra_euler(params, RoughKernelSpec(0.1), grid, z, zp)
        dw, dwp = math.sqrt(grid.dt) * z, math.sqrt(grid.dt) * zp
        assert np.allclose(paths.variance, 0.04)
        mix = params.rho * dw + math.sqrt(1 - params.rho**2) * dwp
        expected = np.cumsum(-0.5 * 0.04 * grid.dt + 0.2 * mix, axis=1)
        assert np.allclose(paths.log_price[:, 1:], expected, atol=1e-13)

    def test_two_step_hand_expansion(self):
        params = HestonParams(V0=0.02, theta=0.03, lam=0.4, sigma=0.25, rho=-0.6)
        spec = RoughKernelSpec(0.1)
        grid = GridSpec(T=1.0, N=2)
        dt = 0.5
        z, zp = np.array([[0.11, -0.22]]), np.array([[0.05, 0.07]])
        paths = heston_volterra_euler(params, spec, grid, z, zp)
        dw, dwp = math.sqrt(dt) * z, math.sqrt(dt) * zp
        g1 = rough_kernel_eval(spec, dt)
        g2 = rough_kernel_eval(spec, 2 * dt)
        rho_perp = math.sqrt(1 - params.rho**2)
        u0 = (params.theta - params.lam * params.V0) * dt + params.sigma * math.sqrt(
            params.V0
        ) * dw[0, 0]
        v1 = params.V0 + g1 * u0
        y1 = -0.5 * params.V0 * dt + math.sqrt(params.V0) * (
            params.rho * dw[0, 0] + rho_perp * dwp[0, 0]
        )
        v1p = max(v1, 0.0)
        u1 = (params.theta - params.lam * v1p) * dt + params.sigma * math.sqrt(v1p) * dw[0, 1]
        v2 = params.V0 + g2 * u0 + g1 * u1
        y2 = (
            y1
            - 0.5 * v1p * dt
            + math.sqrt(v1p) * (params.rho * dw[0, 1] + rho_perp * dwp[0, 1])
        )
        assert np.allclose(paths.variance[0], [params.V0, v1, v2], atol=1e-15)
        assert np.allclose(paths.log_price[0], [0.0, y1, y2], atol=1e-15)

    def test_multifactor_matches_direct_on_expsum(self):
        params = HestonParams()
        kernel = ExpSumKernel([0.9, 0.6, 0.3], [0.2, 3.0, 25.0])
        rng = np.random.default_rng(5)
        for N in (40, 100):
            grid = GridSpec(T=1.0, N=N)
            z, zp = rng.standard_normal((2, 64, N))
            direct = heston_volterra_euler(params, kernel, grid, z, zp)
            fast = heston_multifactor_euler(params, kernel, grid, z, zp)
            assert np.max(np.abs(direct.variance - fast.variance)) <= 1e-10
            assert np.max(np.abs(direct.log_price - fast.log_price)) <= 1e-10

    def test_no_nan_for_extreme_draws(self):
        params = HestonParams()
        kernel = ExpSumKernel([1.0, 0.5], [0.5, 10.0])
        grid = GridSpec(T=1.0, N=20)
        paths = heston_multifactor_euler(
            params, kernel, grid, np.full((4, 20), -10.0), np.full((4, 20), 10.0)
        )
        assert np.all(np.isfinite(paths.variance))
        assert np.all(np.isfinite(paths.log_price))

    def test_step_count_scaling_slopes(self):
        # quadratic vs linear growth of the recursion operation counts,
        # measured on the uniform-cost scalar steppers
        from reference_steppers import scalar_multifactor_variance, scalar_volterra_variance

        params = HestonParams()
        kernel = ExpSumKernel(np.full(40, 0.05), np.linspace(0.1, 200.0, 40))
        rng = np.random.default_rng(12)
        runs = {}
        for N in (100, 400):
            dt = 1.0 / N
            g_tab = [float(expsum_eval(kernel, m * dt)) for m in range(1, N + 1)]
            draws = [list(r) for r in rng.standard_normal((30, N)) * math.sqrt(dt)]
            runs[("direct", N)] = (
                lambda dw, g_tab=g_tab, dt=dt: scalar_volterra_variance(params, g_tab, dt, dw),
                draws,
            )
            runs[("factor", N)] = (
                lambda dw, dt=dt: scalar_multifactor_variance(
                    params, list(kernel.weights), list(kernel.rates), dt, dw
                ),
                draws,
            )
        # both grids run inside each repeat, so a change of host speed
        # between repeats reaches the small-N and large-N minima alike
        timings = dict.fromkeys(runs, math.inf)
        for _ in range(3):
            for key, (run, draws) in runs.items():
                timings[key] = min(timings[key], _timed(lambda: [run(dw) for dw in draws]))
        direct_slope = math.log(timings[("direct", 400)] / timings[("direct", 100)]) / math.log(4.0)
        factor_slope = math.log(timings[("factor", 400)] / timings[("factor", 100)]) / math.log(4.0)
        assert abs(direct_slope - 2.0) <= 0.6
        assert abs(factor_slope - 1.0) <= 0.3

    def test_engines_match_scalar_references(self):
        from reference_steppers import scalar_multifactor_variance, scalar_volterra_variance

        params = HestonParams(V0=0.02, theta=0.03, lam=0.6, sigma=0.4, rho=-0.6)
        kernel = ExpSumKernel([0.8, 0.5, 0.3], [0.2, 2.0, 15.0])
        grid = GridSpec(T=1.0, N=24)
        rng = np.random.default_rng(10)
        z, zp = rng.standard_normal((2, 3, 24))
        dw = math.sqrt(grid.dt) * z
        g_tab = [float(expsum_eval(kernel, m * grid.dt)) for m in range(1, 25)]
        direct = heston_volterra_euler(params, kernel, grid, z, zp)
        fast = heston_multifactor_euler(params, kernel, grid, z, zp)
        for p in range(3):
            ref_direct = scalar_volterra_variance(params, g_tab, grid.dt, list(dw[p]))
            ref_fast = scalar_multifactor_variance(
                params, list(kernel.weights), list(kernel.rates), grid.dt, list(dw[p])
            )
            assert np.allclose(direct.variance[p], ref_direct, atol=1e-12)
            assert np.allclose(fast.variance[p], ref_fast, atol=1e-12)


class TestHybrid:
    def test_step_covariance_against_quadrature(self):
        spec = RoughKernelSpec(0.1)
        dt = 1.0 / 160.0
        cov = hybrid_step_covariance(spec, dt)
        tol = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
        var = quad(lambda s: rough_kernel_eval(spec, s) ** 2, 0.0, dt, **tol)[0]
        cross = quad(lambda s: rough_kernel_eval(spec, s), 0.0, dt, **tol)[0]
        assert math.isclose(cov[1, 1], var, rel_tol=1e-10)
        assert math.isclose(cov[0, 1], cross, rel_tol=1e-10)
        assert cov[0, 0] == dt
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_deterministic_recursion(self):
        # no diffusion: the engine must reproduce a hand-rolled recursion
        params = HestonParams(V0=0.02, theta=0.03, lam=0.5, sigma=0.0)
        spec = RoughKernelSpec(0.1)
        kernel = ExpSumKernel([0.8, 0.4], [1.0, 12.0])
        grid = GridSpec(T=0.3, N=3)
        dt = grid.dt
        zeros = np.zeros((1, 3))
        paths = heston_hybrid_multifactor(params, spec, kernel, grid, zeros, zeros, zeros)
        a = spec.H + 0.5
        drift_weight = dt**a / (a * spec.gamma_head)
        f = np.zeros(2)
        v = params.V0
        expected = [v]
        for _ in range(3):
            vp = max(v, 0.0)
            predicted = params.V0 + (kernel.weights * np.exp(-kernel.rates * dt)) @ f
            v_next = predicted + (params.theta - params.lam * vp) * drift_weight
            f = (f + (params.theta - params.lam * vp) * dt) / (1.0 + kernel.rates * dt)
            v = v_next
            expected.append(v)
        assert np.allclose(paths.variance[0], expected, atol=1e-14)


class TestIntegratedSchemes:
    def test_degenerate_linear_growth(self):
        params = HestonParams(V0=0.05, theta=0.0, lam=0.0, sigma=0.0)
        spec = RoughKernelSpec(0.1)
        grid = GridSpec(T=1.0, N=10)
        rng = np.random.default_rng(6)
        z = rng.standard_normal((32, 10))
        zp = rng.standard_normal((32, 10))
        paths = heston_integrated_volterra(params, spec, grid, z, zp)
        times = grid.times()
        assert np.allclose(paths.integrated_variance, 0.05 * times[None, :], atol=1e-14)
        # martingale increments have deterministic scale sqrt(V0 dt)
        scale = math.sqrt(0.05 * grid.dt)
        mart = (paths.log_price + 0.5 * paths.integrated_variance) / 1.0
        recon = params.rho * scale * np.cumsum(z, axis=1) + math.sqrt(
            1 - params.rho**2
        ) * scale * np.cumsum(zp, axis=1)
        assert np.allclose(mart[:, 1:], recon, atol=1e-13)

    def test_running_max_nondecreasing(self):
        params = HestonParams()
        spec = RoughKernelSpec(0.1)
        grid = GridSpec(T=1.0, N=32)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((64, 32))
        zp = rng.standard_normal((64, 32))
        paths = heston_integrated_volterra(params, spec, grid, z, zp)
        assert np.all(np.diff(paths.integrated_variance, axis=1) >= 0.0)
        assert np.all(np.isfinite(paths.log_price))

    @pytest.mark.parametrize("floor", ["runmax", "positive_part"])
    def test_multifactor_matches_direct_on_expsum(self, floor):
        params = HestonParams()
        kernel = ExpSumKernel([0.9, 0.5, 0.2], [0.4, 5.0, 30.0])
        rng = np.random.default_rng(8)
        runmax = floor == "runmax"
        public = heston_integrated_volterra if runmax else heston_integrated_multifactor
        for N in (32, 100):
            grid = GridSpec(T=1.0, N=N)
            z = rng.standard_normal((64, N))
            zp = rng.standard_normal((64, N))
            direct = integrated(params, kernel, grid, z, zp, factors=False, runmax=runmax)
            fast = integrated(params, kernel, grid, z, zp, factors=True, runmax=runmax)
            assert np.max(np.abs(direct.integrated_variance - fast.integrated_variance)) <= 1e-10
            assert np.max(np.abs(direct.log_price - fast.log_price)) <= 1e-10
            # the public engine with this floor is the helper's run on its memory
            same, ref = public(params, kernel, grid, z, zp), direct if runmax else fast
            assert np.array_equal(same.log_price, ref.log_price)
            assert np.array_equal(same.integrated_variance, ref.integrated_variance)


class TestIncrementLayout:
    """Engines give the same paths for C-ordered and step-major normals."""

    N = 24

    def _normals(self, comps):
        from rvol.mc import CounterRng

        view = CounterRng(31).normals_block(0, 40, self.N, comps)
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and copy.flags.c_contiguous
        return view, copy

    def _assert_same(self, run, comps):
        view, copy = self._normals(comps)
        a, b = run(view), run(copy)
        for name in vars(a):
            assert getattr(a, name).shape == (40, self.N + 1)
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_variance_engines(self):
        params = HestonParams()
        grid = GridSpec(T=1.0, N=self.N)
        kernel = ExpSumKernel([0.9, 0.6, 0.3], [0.2, 3.0, 25.0])
        for engine, kern in (
            (heston_volterra_euler, RoughKernelSpec(0.1)),
            (heston_volterra_euler, kernel),
            (heston_multifactor_euler, kernel),
        ):
            self._assert_same(lambda z: engine(params, kern, grid, z[:, :, 0], z[:, :, 1]), 2)

    def test_hybrid_engine(self):
        params = HestonParams()
        spec = RoughKernelSpec(0.1)
        grid = GridSpec(T=1.0, N=self.N)
        kernel = ExpSumKernel([0.9, 0.6, 0.3], [0.2, 3.0, 25.0])
        self._assert_same(
            lambda z: heston_hybrid_multifactor(
                params, spec, kernel, grid, z[:, :, 0], z[:, :, 1], z[:, :, 2]
            ),
            3,
        )

    @pytest.mark.parametrize("floor", ["runmax", "positive_part"])
    def test_integrated_engines(self, floor):
        params = HestonParams()
        grid = GridSpec(T=1.0, N=self.N)
        kernel = ExpSumKernel([0.9, 0.5, 0.2], [0.4, 5.0, 30.0])
        for factors, kern in ((False, RoughKernelSpec(0.1)), (True, kernel)):
            self._assert_same(
                lambda z: integrated(
                    params, kern, grid, z[:, :, 0], z[:, :, 1],
                    factors=factors, runmax=floor == "runmax",
                ),
                2,
            )

    def test_path_slices_pass_uncopied(self):
        # step rows of a path slice of the drawn block are contiguous, so the
        # engines read the block itself; another layout is copied once
        view, copy = self._normals(2)
        grid = GridSpec(T=1.0, N=self.N)
        for part in (view[8:24, :, 0], view[:, :, 1]):
            (rows,) = schemes._check_normals(grid, part)
            assert np.shares_memory(rows, view) and np.array_equal(rows, part.T)
        (rows,) = schemes._check_normals(grid, copy[8:24, :, 0])
        assert rows.flags.c_contiguous and not np.shares_memory(rows, copy)


@st.composite
def blocked_grids(draw):
    """A block size of 1-7 steps and a step count on or next to its block edges."""
    block = draw(st.integers(1, 7))
    edges = [1, max(block - 1, 1), block, block + 1, 2 * block + 1]
    n_steps = draw(st.one_of(st.sampled_from(edges), st.integers(1, 3 * block + 2)))
    return block, GridSpec(T=1.0, N=n_steps)


@st.composite
def expsum_kernels(draw):
    """Exponential sums of 1-8 factors with rates in [0, 50]."""
    n = draw(st.integers(1, 8))
    rates = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    return ExpSumKernel(weights, sorted(rates))


class TestBlockedStepLoop:
    """Engines agree with each other and with per-step recursions for any block size."""

    @settings(max_examples=60, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    def test_variance_engines(self, case, kernel, seed):
        from reference_steppers import scalar_multifactor_variance, scalar_volterra_variance

        block, grid = case
        params = HestonParams()
        z, zp = np.random.default_rng(seed).standard_normal((2, 4, grid.N))
        dw = math.sqrt(grid.dt) * z
        with mock.patch.object(schemes, "_BLOCK", block):
            direct = heston_volterra_euler(params, kernel, grid, z, zp)
            fast = heston_multifactor_euler(params, kernel, grid, z, zp)
        assert np.max(np.abs(direct.variance - fast.variance)) <= 1e-10
        assert np.max(np.abs(direct.log_price - fast.log_price)) <= 1e-10
        g_tab = [float(expsum_eval(kernel, m * grid.dt)) for m in range(1, grid.N + 1)]
        for p in range(4):
            ref_direct = scalar_volterra_variance(params, g_tab, grid.dt, list(dw[p]))
            ref_fast = scalar_multifactor_variance(
                params, list(kernel.weights), list(kernel.rates), grid.dt, list(dw[p])
            )
            assert np.allclose(direct.variance[p], ref_direct, rtol=0.0, atol=1e-12)
            assert np.allclose(fast.variance[p], ref_fast, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    def test_hybrid_engine(self, case, kernel, seed):
        from reference_steppers import scalar_hybrid_variance

        block, grid = case
        params = HestonParams()
        spec = RoughKernelSpec(0.1)
        z, zp, z_frac = np.random.default_rng(seed).standard_normal((3, 4, grid.N))
        with mock.patch.object(schemes, "_BLOCK", block):
            paths = heston_hybrid_multifactor(params, spec, kernel, grid, z, zp, z_frac)
        cov = hybrid_step_covariance(spec, grid.dt)
        # an independent factorization of the step law checks the engine's own
        dw, d_frac = np.tensordot(np.linalg.cholesky(cov), np.stack([z, z_frac]), axes=1)
        drift_weight = cov[0, 1]
        weights, rates = list(kernel.weights), list(kernel.rates)
        for p in range(4):
            ref = scalar_hybrid_variance(
                params, weights, rates, grid.dt, drift_weight, list(dw[p]), list(d_frac[p])
            )
            assert np.allclose(paths.variance[p], ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("floor", ["runmax", "positive_part"])
    @settings(max_examples=30, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    def test_integrated_engines(self, floor, case, kernel, seed):
        block, grid = case
        params = HestonParams()
        z, zp = np.random.default_rng(seed).standard_normal((2, 4, grid.N))
        runmax = floor == "runmax"
        with mock.patch.object(schemes, "_BLOCK", block):
            direct = integrated(params, kernel, grid, z, zp, factors=False, runmax=runmax)
            fast = integrated(params, kernel, grid, z, zp, factors=True, runmax=runmax)
        assert np.max(np.abs(direct.integrated_variance - fast.integrated_variance)) <= 1e-10
        assert np.max(np.abs(direct.log_price - fast.log_price)) <= 1e-10


DIRECT_ENGINES = [
    pytest.param(heston_volterra_euler, id="volterra"),
    pytest.param(heston_integrated_volterra, id="integrated-volterra"),
]


class TestStreamedPricing:
    """``prices_only`` leaves the log price bit-identical."""

    @settings(max_examples=40, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    def test_variance_engines(self, case, kernel, seed):
        block, grid = case
        params = HestonParams()
        spec = RoughKernelSpec(0.1)
        z = np.random.default_rng(seed).standard_normal((3, 5, grid.N))
        runs = (
            lambda **kw: heston_volterra_euler(params, kernel, grid, *z[:2], **kw),
            lambda **kw: heston_multifactor_euler(params, kernel, grid, *z[:2], **kw),
            lambda **kw: heston_hybrid_multifactor(params, spec, kernel, grid, *z, **kw),
        )
        with mock.patch.object(schemes, "_BLOCK", block):
            for run in runs:
                full = run()
                priced = run(prices_only=True)
                assert full.variance.shape == (5, grid.N + 1)
                assert priced.variance is None
                assert np.array_equal(priced.log_price, full.log_price)

    @pytest.mark.parametrize("floor", ["runmax", "positive_part"])
    @settings(max_examples=30, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    def test_integrated_engines(self, floor, case, kernel, seed):
        block, grid = case
        params = HestonParams()
        z, zp = np.random.default_rng(seed).standard_normal((2, 5, grid.N))
        runmax = floor == "runmax"
        with mock.patch.object(schemes, "_BLOCK", block):
            for factors in (False, True):
                run = lambda **kw: integrated(
                    params, kernel, grid, z, zp, factors=factors, runmax=runmax, **kw
                )
                full = run()
                priced = run(prices_only=True)
                assert priced.integrated_variance is None
                assert np.array_equal(priced.log_price, full.log_price)

    @pytest.mark.parametrize("engine", DIRECT_ENGINES)
    @settings(max_examples=30, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    def test_direct_engines_on_step_major_normals(self, engine, case, kernel, seed):
        # the layout of normals_block: (paths, N) views of C-ordered (N,
        # paths) rows, which _check_normals passes uncopied, so with
        # prices_only the history takes over the rows of z, and the log
        # price z's last row and the rows of z_perp
        block, grid = case
        params = HestonParams()
        drawn = np.random.default_rng(seed).standard_normal((2, grid.N, 5))
        copy = drawn.copy()
        with mock.patch.object(schemes, "_BLOCK", block):
            full = engine(params, kernel, grid, *copy.transpose(0, 2, 1))
            priced = engine(params, kernel, grid, *drawn.transpose(0, 2, 1), prices_only=True)
        assert np.array_equal(priced.log_price, full.log_price)
        assert not np.array_equal(copy[0], drawn[0])  # the history took over z
        spent = drawn.reshape(2 * grid.N, 5)[grid.N - 1 :]
        assert np.array_equal(spent, priced.log_price.T)  # and the log price z_perp

    @pytest.mark.parametrize("engine", DIRECT_ENGINES)
    @pytest.mark.parametrize("case", ["aliased", "read-only", "overlapping"])
    def test_direct_engines_keep_normals_they_may_not_overwrite(self, engine, case):
        # z_perp sharing memory with z, read-only normals, or rows of z
        # that overlap each other leave the history to its own array: the
        # same bits as private copies
        params, kernel, grid = HestonParams(), RoughKernelSpec(0.1), GridSpec(T=1.0, N=40)
        drawn = np.random.default_rng(3).standard_normal((2, grid.N, 64))
        if case == "read-only":
            drawn.setflags(write=False)
        z, zp = drawn.transpose(0, 2, 1)
        if case == "aliased":
            zp = z
        elif case == "overlapping":  # row k + 1 of z starts one path after row k
            z = np.lib.stride_tricks.as_strided(drawn[0], (grid.N, 64), (8, 8)).T
        private = engine(params, kernel, grid, z.copy(), zp.copy(), prices_only=True)
        kept = drawn.copy()
        priced = engine(params, kernel, grid, z, zp, prices_only=True)
        assert np.array_equal(priced.log_price, private.log_price)
        assert np.array_equal(drawn, kept)

    def test_increment_validation(self):
        params = HestonParams()
        grid = GridSpec(T=1.0, N=4)
        kern = RoughKernelSpec(0.1)
        with pytest.raises(ValueError, match="share one shape"):
            heston_volterra_euler(params, kern, grid, np.zeros((2, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="must have shape"):
            heston_volterra_euler(params, kern, grid, np.zeros((2, 5)), np.zeros((2, 5)))


HESTON_ENGINES = (
    "volterra", "multifactor", "hybrid", "integrated-volterra", "integrated-multifactor"
)


def heston_engine(name, kernel, grid, normals, **kw):
    """The Heston engine ``name`` on (paths, N) normals, three for the hybrid, else two."""
    params = HestonParams()
    if name == "hybrid":
        spec = RoughKernelSpec(0.1)
        return heston_hybrid_multifactor(params, spec, kernel, grid, *normals, **kw)
    engine = {
        "volterra": heston_volterra_euler,
        "multifactor": heston_multifactor_euler,
        "integrated-volterra": heston_integrated_volterra,
        "integrated-multifactor": heston_integrated_multifactor,
    }[name]
    return engine(params, kernel, grid, *normals, **kw)


class TestLogPriceInSpentRows:
    """With ``prices_only``, the log price takes over z's last row and z_perp when it may."""

    @pytest.mark.parametrize("name", HESTON_ENGINES)
    @settings(max_examples=25, deadline=None)
    @given(case=blocked_grids(), kernel=expsum_kernels(), seed=st.integers(0, 2**32 - 1))
    @example(case=(1, GridSpec(T=1.0, N=1)), kernel=ExpSumKernel([1.0], [0.5]), seed=0)
    @example(case=(3, GridSpec(T=1.0, N=1)), kernel=ExpSumKernel([1.0], [0.5]), seed=1)
    def test_same_bits_as_an_allocated_log_price(self, name, case, kernel, seed):
        # the step-major layout of normals_block: component c's (N, paths)
        # rows follow component c-1's in one C-ordered buffer
        block, grid = case
        comps = 3 if name == "hybrid" else 2
        drawn = np.random.default_rng(seed).standard_normal((comps, grid.N, 5))
        kept = drawn.copy()
        with mock.patch.object(schemes, "_BLOCK", block):
            full = heston_engine(name, kernel, grid, drawn.transpose(0, 2, 1))
            assert np.array_equal(drawn, kept)  # a full run keeps all its normals
            priced = heston_engine(name, kernel, grid, drawn.transpose(0, 2, 1), prices_only=True)
        assert np.array_equal(priced.log_price, full.log_price)
        spent = drawn.reshape(comps * grid.N, 5)[grid.N - 1 : 2 * grid.N]
        assert np.array_equal(spent, priced.log_price.T)
        assert np.shares_memory(priced.log_price, drawn)
        assert np.array_equal(drawn[2:], kept[2:])  # the hybrid's z_frac is untouched
        if "volterra" not in name:  # the factor engines keep z's other rows
            assert np.array_equal(drawn[0, :-1], kept[0, :-1])

    @pytest.mark.parametrize("name", HESTON_ENGINES)
    @pytest.mark.parametrize("case", ["apart", "swapped", "read-only", "aliased"])
    def test_other_layouts_allocate_it(self, name, case):
        # z_perp's rows not right after z's (a component between them, or z
        # after z_perp), read-only normals and z_perp sharing z's rows leave
        # z_perp untouched and the log price in an array of its own, with
        # the same bits as private copies
        kernel, grid = ExpSumKernel([0.9, 0.6, 0.3], [0.2, 3.0, 25.0]), GridSpec(T=1.0, N=40)
        drawn = np.random.default_rng(5).standard_normal((4, grid.N, 64))
        if case == "read-only":
            drawn.setflags(write=False)
        comps = {
            "apart": (0, 2, 3),
            "swapped": (1, 0, 3),
            "read-only": (0, 1, 2),
            "aliased": (0, 0, 2),
        }[case][: 3 if name == "hybrid" else 2]
        normals = [drawn[c].T for c in comps]
        private = heston_engine(name, kernel, grid, [n.copy() for n in normals], prices_only=True)
        kept = drawn.copy()
        priced = heston_engine(name, kernel, grid, normals, prices_only=True)
        assert np.array_equal(priced.log_price, private.log_price)
        assert not np.shares_memory(priced.log_price, drawn)
        assert np.array_equal(drawn[comps[1]], kept[comps[1]])  # z_perp
        if case in ("read-only", "aliased"):
            assert np.array_equal(drawn, kept)

    @pytest.mark.parametrize("name", HESTON_ENGINES)
    def test_one_path_of_a_wider_block_keeps_its_rows(self, name):
        # its rows form a strided column, whose BLAS products round in
        # another order than a contiguous column's: the direct engines'
        # far product over a history kept there moved the last bits
        kernel, grid = ExpSumKernel([0.9, 0.6, 0.3], [0.2, 3.0, 25.0]), GridSpec(T=1.0, N=40)
        comps = 3 if name == "hybrid" else 2
        for seed in range(4):
            drawn = np.random.default_rng(seed).standard_normal((comps, grid.N, 3))
            kept = drawn.copy()
            normals = [drawn[c, :, 1:2].T for c in range(comps)]
            private = heston_engine(name, kernel, grid, [n.copy() for n in normals])
            priced = heston_engine(name, kernel, grid, normals, prices_only=True)
            assert np.array_equal(priced.log_price, private.log_price)
            assert np.array_equal(drawn, kept)
