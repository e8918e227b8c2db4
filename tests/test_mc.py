import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from rvol import mc
from rvol.bergomi import BergomiParams
from rvol.mc import (
    BergomiModel,
    CounterRng,
    HestonModel,
    McConfig,
    PathStats,
    bergomi_smile,
    euro_call,
    lookback_call,
    paired_compare,
    price,
    rate_factor_estimate,
    systematic_kernel,
)
from rvol.schemes import GridSpec, HestonParams

_MASK = 2**64 - 1


def scalar_normal(seed: int, path: int, step: int, comp: int) -> float:
    """The stream's defining formula, one draw at a time in Python integers."""
    base = mc._mix_scalar((seed & _MASK) ^ 0x5851F42D4C957F2D)
    key = mc._mix_scalar(base ^ (((step * 4096 + comp) * 0xD1342543DE82EF95) & _MASK))
    hashed = mc._mix_scalar(path * 0x9E3779B97F4A7C15 + key)
    return ndtri(((hashed >> 11) + 0.5) * 2.0**-53)


def assert_matches_scalar(seed, path_ids, n_steps, n_comp):
    got = CounterRng(seed).normals_block(np.asarray(path_ids, dtype=np.uint64), n_steps, n_comp)
    assert got.shape == (len(path_ids), n_steps, n_comp)
    want = np.array(
        [
            [[scalar_normal(seed, p, s, c) for c in range(n_comp)] for s in range(n_steps)]
            for p in path_ids
        ]
    ).reshape(got.shape)
    assert np.array_equal(got, want)


class TestCounterRng:
    def test_deterministic(self):
        ids = np.arange(100, dtype=np.uint64)
        a = CounterRng(42).normals_block(ids, 16, 3)
        b = CounterRng(42).normals_block(ids, 16, 3)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        ids = np.arange(100, dtype=np.uint64)
        a = CounterRng(42).normals_block(ids, 4, 2)
        b = CounterRng(43).normals_block(ids, 4, 2)
        assert not np.allclose(a, b)

    def test_partition_invariance(self):
        # draws for path p do not depend on which batch generated them
        rng = CounterRng(7)
        whole = rng.normals_block(np.arange(64, dtype=np.uint64), 8, 2)
        parts = [
            rng.normals_block(np.arange(lo, lo + 16, dtype=np.uint64), 8, 2)
            for lo in range(0, 64, 16)
        ]
        assert np.array_equal(whole, np.concatenate(parts, axis=0))

    def test_moments(self):
        draws = CounterRng(11).normals_block(np.arange(200_000, dtype=np.uint64), 5, 2)
        flat = draws.ravel()
        n = flat.size
        assert abs(flat.mean()) <= 4.0 / math.sqrt(n)
        assert abs(flat.std() - 1.0) <= 4.0 / math.sqrt(2.0 * n)
        # neighbouring components are uncorrelated
        corr = np.corrcoef(draws[:, 0, 0], draws[:, 0, 1])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(draws.shape[0])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        path_ids=st.lists(st.integers(0, 2**48), min_size=1, max_size=40, unique=True),
        n_steps=st.integers(1, 4),
        n_comp=st.integers(1, 50),
        chunk=st.integers(1, 96),
    )
    def test_matches_scalar_formula(self, seed, path_ids, n_steps, n_comp, chunk):
        # a small tile size makes the generated path sets straddle tile edges
        with mock.patch.object(mc, "_CHUNK", chunk):
            assert_matches_scalar(seed, path_ids, n_steps, n_comp)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_scalar_formula_at_tile_edge(self, offset):
        paths = mc._CHUNK + offset
        assert_matches_scalar(2024, list(range(3, 3 + paths)), 2, 1)

    def test_single_path(self):
        assert_matches_scalar(5, [123456789], 30, 7)

    def test_step_major_view(self):
        draws = CounterRng(3).normals_block(np.arange(10, dtype=np.uint64), 4, 3)
        assert draws[:, :, 1].T.flags.c_contiguous

    def test_finite_extremes(self):
        draws = CounterRng(1).normals_block(np.arange(1_000_000, dtype=np.uint64), 1, 1)
        assert np.all(np.isfinite(draws))


class TestPrice:
    def test_deterministic_given_seed(self):
        model = HestonModel(scheme="multifactor-truncated")
        grid = GridSpec(T=1.0, N=8)
        cfg = McConfig(paths=20_000, seed=3)
        a = price(model, euro_call(1.0), grid, cfg)
        b = price(model, euro_call(1.0), grid, cfg)
        assert a.mean == b.mean
        assert a.half_width_95 == b.half_width_95

    @settings(max_examples=12, deadline=None)
    @given(
        paths=st.one_of(
            st.integers(1, 2 * mc._BLOCK + 2),
            st.sampled_from([mc._BLOCK - 1, mc._BLOCK, mc._BLOCK + 1, 2 * mc._BLOCK + 1]),
        ),
        workers=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 4),
    )
    def test_worker_count_invariance(self, paths, workers, seed, n_steps):
        # path counts on both sides of the path-block size, so several blocks
        # meet; every model runs each drawn case, so none goes unchecked
        grid = GridSpec(T=1.0, N=n_steps)
        for model in (
            HestonModel(scheme="multifactor-truncated"),
            BergomiModel(mode="exact"),
            BergomiModel(mode="multifactor"),
        ):
            serial = price(
                model, euro_call(1.0), grid, McConfig(paths=paths, seed=seed, workers=1)
            )
            pooled = price(
                model, euro_call(1.0), grid, McConfig(paths=paths, seed=seed, workers=workers)
            )
            assert (serial.mean, serial.half_width_95) == (pooled.mean, pooled.half_width_95)

    def test_degenerate_model_zero_half_width(self):
        params = HestonParams(V0=0.0, theta=0.0, sigma=0.0)
        model = HestonModel(scheme="multifactor", params=params)
        grid = GridSpec(T=1.0, N=4)
        report = price(model, euro_call(0.5), grid, McConfig(paths=500, seed=0))
        assert report.mean == 0.5  # S frozen at 1, payoff deterministic
        assert report.half_width_95 == 0.0

    def test_half_width_scales_with_paths(self):
        model = HestonModel(scheme="multifactor-truncated")
        grid = GridSpec(T=1.0, N=4)
        small = price(model, euro_call(1.0), grid, McConfig(paths=10_000, seed=9))
        large = price(model, euro_call(1.0), grid, McConfig(paths=1_000_000, seed=9))
        ratio = small.half_width_95 / large.half_width_95
        assert abs(ratio - 10.0) <= 1.0

    def test_report_json(self):
        model = HestonModel(scheme="multifactor-truncated")
        report = price(model, euro_call(1.0), GridSpec(T=1.0, N=4), McConfig(paths=1000, seed=1))
        decoded = json.loads(report.to_json())
        assert set(decoded) == {
            "mean",
            "half_width_95",
            "paths",
            "wall_seconds",
            "seed",
            "descriptor",
        }
        assert decoded["paths"] == 1000
        assert decoded["descriptor"] == "heston:multifactor-truncated|euro_call(1.0)"

    def test_lookback_at_least_euro(self):
        model = HestonModel(scheme="multifactor-truncated")
        grid = GridSpec(T=1.0, N=8)
        cfg = McConfig(paths=20_000, seed=2)
        euro = price(model, euro_call(1.0), grid, cfg)
        look = price(model, lookback_call(1.0), grid, cfg)
        assert look.mean >= euro.mean


class _NanTerminal:
    """Stub descriptor whose first path ends at NaN."""

    label = "stub:nan"

    def resolve_kernel(self, grid):
        return None

    def components_per_step(self, grid):
        return 2

    def simulate(self, grid, normals):
        terminal = np.ones(normals.shape[0])
        terminal[0] = np.nan
        return PathStats(terminal=terminal, running_max=terminal.copy())


class TestNonFinitePayoffs:
    def test_price_raises(self):
        cfg = McConfig(paths=100, seed=0)
        with pytest.raises(ValueError, match=r"stub:nan\|euro_call"):
            price(_NanTerminal(), euro_call(1.0), GridSpec(T=1.0, N=2), cfg)

    def test_paired_compare_raises(self):
        finite = HestonModel(scheme="volterra")
        cfg = McConfig(paths=100, seed=0)
        with pytest.raises(ValueError, match="stub:nan"):
            paired_compare(finite, _NanTerminal(), euro_call(1.0), GridSpec(T=1.0, N=2), cfg)

    def test_smile_raises(self, monkeypatch):
        def infinite(self, grid, normals):
            terminal = np.full(normals.shape[0], np.inf)
            return PathStats(terminal=terminal, running_max=terminal)

        monkeypatch.setattr(BergomiModel, "simulate", infinite)
        with pytest.raises(ValueError, match="bergomi:exact"):
            bergomi_smile(
                BergomiParams(), GridSpec(T=0.041, N=4), McConfig(paths=50, seed=0), [0.0]
            )


class TestInputValidation:
    @pytest.mark.parametrize("field", ["paths", "workers"])
    @pytest.mark.parametrize("bad", [2.5, True, 0, "8"])
    def test_config_counts(self, field, bad):
        # paths=2.5 failed inside numpy, paths=True ran one path
        with pytest.raises(ValueError, match=f"{field} must be"):
            McConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [1.7, 2.0, math.nan, True, "3"])
    def test_config_seed(self, bad):
        # seed=1.7 priced with seed 1 and reported 1.7; seed=nan failed in numpy
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(seed=bad)
        for seed in (0, -3, np.int64(5)):
            assert McConfig(seed=seed).seed == seed

    def test_config_accepts_numpy_integers(self):
        # the report once kept the numpy integers, and to_json raised TypeError
        cfg = McConfig(paths=np.int64(8), seed=np.int64(2), workers=np.int32(2))
        model = HestonModel(scheme="volterra")
        report = price(model, euro_call(1.0), GridSpec(T=1.0, N=2), cfg)
        assert (report.paths, report.seed) == (8, 2)
        decoded = json.loads(report.to_json())
        assert (decoded["paths"], decoded["seed"]) == (8, 2)

    @pytest.mark.parametrize(
        "make_payoff",
        [
            lambda: mc.Payoff("foo", 1.0),
            lambda: euro_call(math.nan),
            lambda: lookback_call(math.inf),
        ],
        ids=["unknown-kind", "nan-strike", "inf-strike"],
    )
    def test_bad_payoff_raises_before_any_draw(self, monkeypatch, make_payoff):
        # both once simulated every path before raising
        def no_draws(self, *args):
            raise AssertionError("drew normals for an invalid payoff")

        monkeypatch.setattr(CounterRng, "normals_block", no_draws)
        with pytest.raises(ValueError, match="payoff kind|strike must be finite"):
            price(HestonModel("volterra"), make_payoff(), GridSpec(1.0, 160), McConfig(paths=16384))


@pytest.fixture
def draws(monkeypatch):
    """Shapes of the normals blocks drawn, seen by a spy on ``CounterRng.normals_block``."""
    shapes = []
    draw = CounterRng.normals_block

    def spy(self, path_ids, n_steps, n_comp):
        shapes.append((len(path_ids), n_steps, n_comp))
        return draw(self, path_ids, n_steps, n_comp)

    monkeypatch.setattr(CounterRng, "normals_block", spy)
    return shapes


class TestKernelResolvedBeforeDraws:
    """A kernel the run cannot build fails before the run's first draw."""

    GRID = GridSpec(T=1.0, N=4)
    CFG = McConfig(paths=64, seed=0)

    def test_spy_sees_draws(self, draws):
        price(HestonModel("multifactor"), euro_call(1.0), self.GRID, self.CFG)
        assert draws == [(64, 4, 2)]

    @pytest.mark.parametrize("factors", [7, 0, 2.0])
    def test_price_bad_factor_count(self, draws, factors):
        # price(HestonModel('multifactor', kernel_factors=7), ...) once drew
        # its first block before build_systematic rejected the count
        model = HestonModel("multifactor", kernel_factors=factors)
        with pytest.raises(ValueError, match="n_total must be"):
            price(model, euro_call(1.0), self.GRID, self.CFG)
        assert draws == []

    @pytest.mark.parametrize("hurst", [0.7, math.nan])
    def test_price_bad_hurst(self, draws, hurst):
        model = HestonModel("volterra", hurst=hurst)
        with pytest.raises(ValueError, match="Hurst parameter must lie in"):
            price(model, euro_call(1.0), self.GRID, self.CFG)
        assert draws == []

    def test_paired_compare_resolves_both_kernels_first(self, draws):
        # the first descriptor once simulated all its paths, and the second
        # drew its first block, before the odd count was rejected
        good, bad = HestonModel("multifactor"), HestonModel("multifactor", kernel_factors=7)
        with pytest.raises(ValueError, match="n_total must be"):
            paired_compare(good, bad, euro_call(1.0), self.GRID, self.CFG)
        assert draws == []

    def test_smile_resolves_both_kernels_first(self, draws):
        # the exact mode once simulated all its paths before the
        # multifactor mode's odd count was rejected
        with pytest.raises(ValueError, match="n_total must be"):
            bergomi_smile(BergomiParams(), self.GRID, self.CFG, [0.0], kernel_factors=7)
        assert draws == []

    def test_smile_rejects_empty_strikes(self, draws):
        # [] once simulated both modes and returned no rows
        with pytest.raises(ValueError, match="at least one log strike"):
            bergomi_smile(BergomiParams(), self.GRID, self.CFG, [])
        assert draws == []


class TestPairedCompare:
    def test_self_difference_is_zero(self):
        model = HestonModel(scheme="multifactor-truncated")
        grid = GridSpec(T=1.0, N=8)
        mean, half = paired_compare(model, model, euro_call(1.0), grid, McConfig(paths=5_000, seed=4))
        assert mean == 0.0
        assert half == 0.0

    def test_truncation_effect_is_small(self):
        full = HestonModel(scheme="multifactor")
        truncated = HestonModel(scheme="multifactor-truncated")
        grid = GridSpec(T=1.0, N=32)
        mean, half = paired_compare(
            full, truncated, euro_call(1.0), grid, McConfig(paths=20_000, seed=7)
        )
        assert abs(mean) <= max(3.0 * half, 5e-4)

    def test_incompatible_layouts_rejected(self):
        a = HestonModel(scheme="multifactor-truncated")
        b = HestonModel(scheme="hybrid")
        with pytest.raises(ValueError, match="incompatible"):
            paired_compare(a, b, euro_call(1.0), GridSpec(T=1.0, N=4), McConfig(paths=100, seed=0))


class TestRateFactorEstimate:
    def test_equal_errors(self):
        assert rate_factor_estimate(0.5, 0.5, 0.25) == 0.0

    def test_exact_rate(self):
        H = 0.3
        assert math.isclose(rate_factor_estimate(2.0 ** (2.0 * H), 1.0, H), 1.0, rel_tol=1e-14)

    def test_reference_inputs(self):
        # rounded published errors reproduce the published factor to ~4e-4
        assert abs(rate_factor_estimate(0.0413, 0.0313, 0.25) - 0.80016) <= 5e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            rate_factor_estimate(0.0, 1.0, 0.25)


class TestDescriptors:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            HestonModel(scheme="milstein")
        with pytest.raises(ValueError):
            BergomiModel(mode="hybrid")

    def test_systematic_kernel_cached(self):
        a = systematic_kernel(0.1, 100, 1.0)
        b = systematic_kernel(0.1, 100, 1.0)
        assert a is b
        assert a.n == 100

    def test_truncated_kernel_depends_on_grid(self):
        model = HestonModel(scheme="multifactor-truncated")
        coarse = model.resolve_kernel(GridSpec(T=1.0, N=10))
        fine = model.resolve_kernel(GridSpec(T=1.0, N=160))
        assert coarse.n < fine.n <= 100

    @pytest.mark.parametrize(
        "model, field, name",
        [
            (HestonModel, "scheme", "volterra"),
            (HestonModel, "scheme", "integrated-volterra"),
            (BergomiModel, "mode", "exact"),
        ],
    )
    def test_rough_kernel_reads_no_factor_count(self, model, field, name):
        # HestonModel('volterra', kernel_factors=7) once priced, ignoring the odd count
        with pytest.raises(ValueError) as info:
            model(name, kernel_factors=7)
        assert str(info.value) == (
            f"{field} {name!r} runs on the rough kernel; it reads no kernel_factors"
        )

    def test_default_factor_counts(self):
        # no kernel_factors: 100 factors for Heston, 40 for Bergomi
        grid = GridSpec(T=1.0, N=40)
        heston = systematic_kernel(0.1, 100, 1.0)
        assert HestonModel("multifactor").resolve_kernel(grid) is heston
        truncated = HestonModel("multifactor-truncated").resolve_kernel(grid)
        expected = mc.truncate_factors(heston, 1.0, 40)[0]
        assert np.array_equal(truncated.weights, expected.weights)
        assert np.array_equal(truncated.rates, expected.rates)
        bergomi = BergomiModel("multifactor")
        assert bergomi.resolve_kernel(grid) is systematic_kernel(bergomi.params.H, 40, 1.0)


class TestSimulatePaths:
    """``simulate`` is the path-stats reduction of ``simulate_paths``."""

    @pytest.mark.parametrize(
        "model",
        [
            HestonModel(scheme=s, kernel_factors=None if s in mc._ROUGH_SCHEMES else 20)
            for s in mc.HESTON_SCHEMES
        ]
        + [BergomiModel(mode="exact"), BergomiModel(mode="multifactor", kernel_factors=10)],
        ids=lambda m: m.label,
    )
    def test_simulate_reduces_paths(self, model):
        from rvol.schemes import HestonPaths, IntegratedPaths

        grid = GridSpec(T=0.5, N=12)
        normals = CounterRng(5).normals_block(
            np.arange(40, dtype=np.uint64), grid.N, model.components_per_step(grid)
        )
        paths = model.simulate_paths(grid, normals)
        integrated = getattr(model, "scheme", "").startswith("integrated")
        assert isinstance(paths, IntegratedPaths if integrated else HestonPaths)
        assert paths.log_price.shape == (40, grid.N + 1)
        stats = model.simulate(grid, normals)
        assert np.array_equal(stats.terminal, np.exp(paths.log_price[:, -1]))
        assert np.array_equal(stats.running_max, np.exp(paths.log_price.max(axis=1)))

    @pytest.mark.parametrize(
        "scheme, engine",
        [
            ("volterra", "heston_volterra_euler"),
            ("multifactor", "heston_multifactor_euler"),
            ("hybrid", "heston_hybrid_multifactor"),
            ("integrated-volterra", "heston_integrated_volterra"),
            ("integrated-multifactor", "heston_integrated_multifactor"),
        ],
    )
    def test_engines_looked_up_in_mc(self, monkeypatch, scheme, engine):
        # profilers and tests swap the engines at their rvol.mc names
        calls = []
        original = getattr(mc, engine)

        def spy(*args, **kwargs):
            calls.append(engine)
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, engine, spy)
        model = HestonModel(scheme=scheme)
        grid = GridSpec(T=0.5, N=6)
        normals = CounterRng(1).normals_block(
            np.arange(8, dtype=np.uint64), grid.N, model.components_per_step(grid)
        )
        model.simulate(grid, normals)
        assert calls == [engine]


class TestStreamedHestonPricing:
    """Pricing keeps no increment copies or state history, and the same bits."""

    # price() of the euro call at strike 1, T = 1, N = 40 (the state ring
    # wraps), 2048 paths, seed 7, default model, as given by engines that
    # formed whole increment arrays and kept every state row; recorded
    # with numpy 2.4, scipy 1.17 and OpenBLAS 0.3.31 on x86-64 with
    # AVX-512 (another BLAS kernel or exp implementation may move the
    # last bits)
    GOLDEN = {
        "volterra": (0.058979089917218015, 0.003235587513498669),
        "multifactor": (0.05895109475098212, 0.0032338661040576563),
        "multifactor-truncated": (0.05892654852163316, 0.0032338371240624854),
        "hybrid": (0.06557515636394043, 0.0037147605519763523),
        "integrated-volterra": (0.058824564734890214, 0.003209297253665509),
        "integrated-multifactor": (0.05854980593582722, 0.003201594682890899),
    }

    @pytest.mark.parametrize("scheme", mc.HESTON_SCHEMES)
    def test_golden_prices(self, scheme):
        report = price(
            HestonModel(scheme=scheme), euro_call(1.0), GridSpec(T=1.0, N=40),
            McConfig(paths=2048, seed=7),
        )
        assert (report.mean, report.half_width_95) == self.GOLDEN[scheme]

    @pytest.mark.parametrize("scheme", mc.HESTON_SCHEMES)
    def test_pricing_peak_memory(self, scheme):
        # one priced block holds the normals, the (N+1, paths) log price,
        # the (n, paths) factors or the (N, paths) history of step terms,
        # and rows of (paths,) scratch
        import tracemalloc

        paths, grid = 4096, GridSpec(T=1.0, N=160)
        model = HestonModel(scheme=scheme)
        comps = model.components_per_step(grid)
        rng = CounterRng(3)
        ids = np.arange(paths, dtype=np.uint64)
        model.simulate(grid, rng.normals_block(ids[:8], grid.N, comps))  # warm the kernel caches
        kernel = model.resolve_kernel(grid)
        state_rows = kernel.n if hasattr(kernel, "n") else grid.N
        budget = 8 * paths * (grid.N * comps + grid.N + 1 + state_rows)
        tracemalloc.start()
        try:
            model.simulate(grid, rng.normals_block(ids, grid.N, comps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mib = 2.0**20
        assert peak <= 1.15 * budget, f"peak {peak / mib:.1f} MiB, budget {budget / mib:.1f} MiB"

    def test_hybrid_near_half(self):
        # within ~4e-9 of H = 1/2 the hybrid step's Cholesky radicand
        # (H - 1/2)^2 dt^(2H) / (2H a^2 Gamma^2) rounds below zero
        model = HestonModel(scheme="hybrid", hurst=0.4999999965)
        report = price(model, euro_call(1.0), GridSpec(T=1.0, N=160), McConfig(paths=64, seed=0))
        assert math.isfinite(report.mean) and report.mean > 0.0


class TestSmile:
    # bergomi_smile rows at the default parameters, T = 0.041, N = 20,
    # 2048 paths, seed 7, as given by the code in which simulate_bergomi
    # wrote its own log-price step and bergomi_smile its own payoff;
    # recorded with the numpy, scipy and BLAS of TestStreamedHestonPricing.
    # The multifactor rows were recorded again when its compensator became
    # the variance of the sampled step law instead of the kernel's
    GOLDEN = [
        ("exact", -0.1, 0.09786839201886498, 0.0017479055410353885, 0.3600904680788517),
        ("exact", 0.0, 0.017633426934820857, 0.0008847013133350877, 0.2183082215487957),
        ("exact", 0.05, 0.0009091613023802151, 0.00020137419738944343, 0.1611011065542698),
        ("multifactor", -0.1, 0.09773541745675143, 0.0017457952466128533, 0.35560229793190956),
        ("multifactor", 0.0, 0.017501414199405627, 0.0008914613094620408, 0.2166735865175724),
        ("multifactor", 0.05, 0.00098591030359355, 0.0002082433194965114, 0.16403857246041298),
    ]

    def test_golden_rows(self):
        rows = bergomi_smile(
            BergomiParams(), GridSpec(T=0.041, N=20), McConfig(paths=2048, seed=7),
            [-0.1, 0.0, 0.05],
        )
        assert rows == self.GOLDEN

    def test_rows_and_shapes(self):
        from rvol.bergomi import BergomiParams

        params = BergomiParams()
        grid = GridSpec(T=0.041, N=10)
        rows = bergomi_smile(params, grid, McConfig(paths=4_000, seed=1), [-0.05, 0.0, 0.03], kernel_factors=10)
        assert len(rows) == 6
        modes = {row[0] for row in rows}
        assert modes == {"exact", "multifactor"}
        for mode, k, mean, half, vol in rows:
            assert mean > 0.0
            assert half > 0.0
            assert 0.0 < vol < 2.0

    def test_factor_count_reaches_multifactor_mode_only(self):
        args = (BergomiParams(), GridSpec(T=0.041, N=4), McConfig(paths=512, seed=3), [0.0])
        default, ten = bergomi_smile(*args), bergomi_smile(*args, kernel_factors=10)
        assert ten[0][0] == "exact" and ten[0] == default[0]
        assert ten[1][0] == "multifactor" and ten[1] != default[1]

    @pytest.mark.parametrize("k", [800.0, -800.0, math.inf, -math.inf, math.nan])
    def test_bad_log_strike_fails_before_any_draw(self, k):
        def no_draws(*args, **kwargs):
            raise AssertionError("normals drawn before the strikes were checked")

        with mock.patch.object(mc.CounterRng, "normals_block", no_draws):
            with pytest.raises(ValueError, match="log strike k = "):
                bergomi_smile(BergomiParams(), GridSpec(T=0.041, N=4), McConfig(paths=64), [0.0, k])

    def test_strikes_without_implied_vol_are_listed(self):
        # the CLI smile defaults with 4096 paths and 4 steps: the sampled
        # mean of S_T sits a little below S0, so the multifactor price at
        # k = -0.5 falls below intrinsic value
        with pytest.raises(ValueError, match="no implied volatility") as info:
            bergomi_smile(
                BergomiParams(), GridSpec(T=0.041, N=4), McConfig(paths=4096, seed=0), [-0.5, 0.0]
            )
        message = str(info.value)
        assert message.count(" at k = ") == 1
        assert "multifactor at k = -0.5: price 0.3932268" in message
        assert "+/- 0.0014625" in message and "intrinsic value 0.3934693" in message
        assert isinstance(info.value.__cause__, ValueError)

    def test_price_at_intrinsic_value_has_no_implied_vol(self):
        # no path reaches exp(4): both prices are 0, and the smile once
        # reported an implied vol of 0 for each
        with pytest.raises(ValueError, match="no implied volatility") as info:
            bergomi_smile(
                BergomiParams(), GridSpec(T=0.041, N=4), McConfig(paths=512, seed=0), [4.0, 5.0]
            )
        message = str(info.value)
        for mode in mc.BERGOMI_MODES:
            for k in (4.0, 5.0):
                assert f"{mode} at k = {k}: price 0.0 +/- 0.0 against intrinsic value 0.0" in message
