import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from rvol import mc, schemes
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
    # the top hash's uniform rounds to 1, whose ndtri is inf: it takes the largest below 1
    return ndtri(min(((hashed >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53))


def assert_matches_scalar(seed, lo, hi, n_steps, n_comp):
    got = CounterRng(seed).normals_block(lo, hi, n_steps, n_comp)
    assert got.shape == (hi - lo, n_steps, n_comp)
    want = np.array(
        [
            [[scalar_normal(seed, p, s, c) for c in range(n_comp)] for s in range(n_steps)]
            for p in range(lo, hi)
        ]
    ).reshape(got.shape)
    assert np.array_equal(got, want)
    return got


class TestCounterRng:
    def test_deterministic(self):
        a = CounterRng(42).normals_block(0, 100, 16, 3)
        b = CounterRng(42).normals_block(0, 100, 16, 3)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = CounterRng(42).normals_block(0, 100, 4, 2)
        b = CounterRng(43).normals_block(0, 100, 4, 2)
        assert not np.allclose(a, b)

    def test_partition_invariance(self):
        # draws for path p do not depend on which batch generated them
        rng = CounterRng(7)
        whole = rng.normals_block(0, 64, 8, 2)
        parts = [rng.normals_block(lo, lo + 16, 8, 2) for lo in range(0, 64, 16)]
        assert np.array_equal(whole, np.concatenate(parts, axis=0))

    def test_moments(self):
        draws = CounterRng(11).normals_block(0, 200_000, 5, 2)
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
        lo=st.integers(0, 2**48),
        width=st.integers(1, 40),
        split=st.integers(0, 40),
        n_steps=st.integers(1, 4),
        n_comp=st.integers(1, 50),
        chunk=st.integers(1, 96),
    )
    def test_matches_scalar_formula(self, seed, lo, width, split, n_steps, n_comp, chunk):
        # a small tile size makes the generated ranges straddle tile edges;
        # the two halves of a split range concatenate to the whole range
        hi, mid = lo + width, lo + split % width
        with mock.patch.object(mc, "_CHUNK", chunk):
            whole = assert_matches_scalar(seed, lo, hi, n_steps, n_comp)
            if mid > lo:
                rng = CounterRng(seed)
                halves = [
                    rng.normals_block(a, b, n_steps, n_comp) for a, b in ((lo, mid), (mid, hi))
                ]
                assert np.array_equal(np.concatenate(halves, axis=0), whole)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_scalar_formula_at_tile_edge(self, offset):
        paths = mc._CHUNK + offset
        assert_matches_scalar(2024, 3, 3 + paths, 2, 1)

    def test_single_path(self):
        assert_matches_scalar(5, 123456789, 123456790, 30, 7)

    def test_step_major_view(self):
        draws = CounterRng(3).normals_block(0, 10, 4, 3)
        assert draws[:, :, 1].T.flags.c_contiguous

    def test_finite_extremes(self):
        draws = CounterRng(1).normals_block(0, 1_000_000, 1, 1)
        assert np.all(np.isfinite(draws))

    def test_top_hash_draws_finite_normals(self):
        # (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0, and ndtri(1.0) is inf
        def top_hash(x, tmp):
            x.fill(_MASK)
            return x

        with mock.patch.object(mc, "_mix_inplace", top_hash):
            draws = CounterRng(0).normals_block(0, 3, 2, 2)
        assert np.all(draws == ndtri(1.0 - 2.0**-53))
        assert np.all(np.isfinite(draws))

    def test_numpy_integer_bounds_draw_the_same_bits(self):
        rng = CounterRng(9)
        want = rng.normals_block(2, 7, 3, 2)
        for lo, hi in ((np.int64(2), np.int64(7)), (np.uint64(2), np.uint64(7)), (np.int32(2), 7)):
            assert np.array_equal(rng.normals_block(lo, hi, 3, 2), want)
        top = rng.normals_block(2**64 - 2, 2**64, 1, 1)
        assert top.shape == (2, 1, 1) and np.all(np.isfinite(top))

    def test_seed_must_be_an_integer(self):
        # int() would draw seed 1's stream for 1.9 and for True
        for seed in (1.9, 2.0, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                CounterRng(seed)
        want = CounterRng(7).normals_block(0, 5, 3, 2)
        assert np.array_equal(CounterRng(np.int64(7)).normals_block(0, 5, 3, 2), want)

    @pytest.mark.parametrize(
        "lo, hi, match",
        [
            (-1, 3, "0 <= lo < hi"),  # would alias path 2**64 - 1
            (3, 3, "0 <= lo < hi"),  # would draw no path
            (4, 3, "0 <= lo < hi"),
            (0, 2**64 + 1, "0 <= lo < hi"),  # path 2**64 does not fit uint64
            (0.0, 3, "lo must be an integer"),
            (0, 3.0, "hi must be an integer"),
            (False, 3, "lo must be an integer"),
            (0, True, "hi must be an integer"),
            (np.float64(0), 3, "lo must be an integer"),
        ],
        ids=[
            "negative",
            "empty",
            "reversed",
            "past-uint64",
            "float",
            "float-hi",
            "bool",
            "bool-hi",
            "numpy-float",
        ],
    )
    def test_rejects_bad_path_range(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            CounterRng(9).normals_block(lo, hi, 3, 2)


@pytest.fixture
def mapped(monkeypatch):
    """Entry counts of the workspaces mapped, seen by a spy on ``mc._workspace``."""
    sizes = []
    make = mc._workspace

    def spy(entries):
        sizes.append(entries)
        return make(entries)

    monkeypatch.setattr(mc, "_workspace", spy)
    return sizes


def price_peak_growth(model_src: str, grid_src: str, paths: int):
    """KiB by which a fresh interpreter's peak resident memory grows over one price().

    The interpreter, BLAS pinned to one thread, first prices 64 paths
    (imports, the kernel, BLAS buffers), then ``paths``. The peak is
    VmHWM, the high-water mark of the interpreter's own memory map:
    ru_maxrss keeps the peak of the process that spawned it across exec,
    so under a test runner larger than the run it reads too little.
    """
    script = f"""
import re
from rvol.mc import BergomiModel, HestonModel, McConfig, euro_call, price
from rvol.schemes import GridSpec

def peak():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))

model, grid = {model_src}, {grid_src}
price(model, euro_call(1.0), grid, McConfig(paths=64, seed=1))
before = peak()
price(model, euro_call(1.0), grid, McConfig(paths={paths}, seed=1))
print(peak() - before)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mc.__file__)))
    pinned = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, PYTHONPATH=src, **pinned)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return int(run.stdout)


class TestWorkspace:
    """A run draws every slice into one mapped workspace per worker."""

    @pytest.mark.parametrize("workspace", [np.empty, mc._workspace], ids=["heap", "mapped"])
    def test_drawn_into_out_the_same_bits(self, workspace):
        rng = CounterRng(21)
        out = workspace(3 * 5 * 40 + 7)
        out[:] = np.nan
        got = rng.normals_block(10, 50, 5, 3, out=out)
        assert np.array_equal(got, rng.normals_block(10, 50, 5, 3))
        assert np.shares_memory(got, out) and got[:, :, 1].T.flags.c_contiguous
        assert np.isnan(out[3 * 5 * 40 :]).all()  # only the first entries are written

    @pytest.mark.parametrize(
        "make_out, match",
        [
            (lambda n: np.empty(n - 1), "holds 59 entries; the draw needs 60"),
            (lambda n: np.empty(n).reshape(2, -1)[:, ::2], "C-contiguous and writeable"),
            (lambda n: np.empty(2 * n)[::2], "C-contiguous and writeable"),
            (lambda n: np.frombuffer(bytes(8 * n)), "C-contiguous and writeable"),
            (lambda n: np.empty(n, dtype=np.float32), "float64 array, got float32"),
            (lambda n: np.empty(n, dtype=np.int64), "float64 array, got int64"),
            (lambda n: bytearray(8 * n), "float64 array, got <class 'bytearray'>"),
        ],
        ids=["small", "strided-2d", "strided", "read-only", "float32", "int64", "not-an-array"],
    )
    def test_rejects_a_bad_out(self, make_out, match):
        with pytest.raises(ValueError, match=match):
            CounterRng(2).normals_block(0, 10, 3, 2, out=make_out(60))

    @pytest.mark.parametrize(
        "paths, workers, count",
        [(2 * mc._SLICE, 8, 2), (2 * mc._SLICE, 1, 1), (mc._BLOCK + 5, 3, 3), (100, 4, 1)],
    )
    def test_one_workspace_per_worker(self, mapped, paths, workers, count):
        # at most min(workers, slices), each as wide as the widest slice
        plan = HestonModel("volterra").plan(GridSpec(T=1.0, N=3))
        mc.simulate_stats(plan, McConfig(paths=paths, seed=0, workers=workers))
        widest = max(hi - lo for lo, hi in mc._path_slices(paths))
        assert mapped == [plan.comps * 3 * widest] * count

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_runs_share_workspaces_to_the_same_bits(self, mapped, workers):
        # two slices drawing into one workspace at once would mix their
        # normals; a short switch interval makes the threads interleave
        grid = GridSpec(T=1.0, N=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for model in (HestonModel("volterra"), HestonModel("hybrid"), BergomiModel("exact")):
                plan = model.plan(grid)
                serial = mc.simulate_stats(plan, McConfig(paths=mc._BLOCK + 5, seed=4))
                cfg = McConfig(paths=mc._BLOCK + 5, seed=4, workers=workers)
                pooled = mc.simulate_stats(plan, cfg)
                assert np.array_equal(serial.terminal, pooled.terminal)
                assert np.array_equal(serial.running_max, pooled.running_max)
        finally:
            sys.setswitchinterval(interval)
        assert len(mapped) == 3 * (1 + workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_slice_hands_its_workspace_back(self, monkeypatch, workers):
        # otherwise a pool whose slices all fail would wait for a
        # workspace forever
        import queue
        import threading
        from types import SimpleNamespace

        made = []

        def recorded():
            made.append(queue.SimpleQueue())
            return made[-1]

        simulate, lock, failed = HestonModel.simulate, threading.Lock(), []

        def fail_first(self, plan, normals):
            with lock:
                first = not failed
                failed.append(first)
            if first:
                raise ValueError("slice failed")
            return simulate(self, plan, normals)

        monkeypatch.setattr(mc, "queue", SimpleNamespace(SimpleQueue=recorded))
        monkeypatch.setattr(HestonModel, "simulate", fail_first)
        plan = HestonModel("volterra").plan(GridSpec(T=1.0, N=2))
        with pytest.raises(ValueError, match="slice failed"):
            mc.simulate_stats(plan, McConfig(paths=mc._BLOCK, seed=0, workers=workers))
        assert made[0].qsize() == workers

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM of /proc/self/status")
    @pytest.mark.parametrize("scheme", ["volterra", "multifactor-truncated"])
    def test_fine_grid_peak_rss(self, scheme):
        # a price() of two 4096-path slices at N = 640: the high-water mark
        # grows by the one mapped workspace and the factor state, not by a
        # slice's normals plus its (N+1, slice) log price, nor by heap the
        # allocator keeps after a slice (engines with an (N+1, slice) log
        # price of their own and normals on the heap grew by 60-62 MiB here)
        growth_kib = price_peak_growth(f"HestonModel({scheme!r})", "GridSpec(T=1.0, N=640)", 8192)
        kernel = HestonModel(scheme).plan(GridSpec(T=1.0, N=640)).kernel
        workspace = 8 * 2 * 640 * mc._SLICE
        factor_state = 8 * (getattr(kernel, "n", 0) + 2 * schemes._BLOCK) * mc._SLICE
        slack = 4 * 2**20  # (slice,) scratch rows, the run's results, interpreter noise
        assert 1024 * growth_kib <= workspace + factor_state + slack, (
            f"grew {growth_kib / 1024:.1f} MiB; workspace {workspace / 2**20:.1f} MiB"
        )


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

    def plan(self, grid):
        return mc.Plan(self, grid, comps=2, kernel=None)

    def simulate(self, plan, normals):
        terminal = np.ones(normals.shape[0])
        terminal[0] = np.nan
        return PathStats(terminal=terminal, running_max=terminal.copy())


class _ZeroTerminal(_NanTerminal):
    """Stub descriptor whose first path ends at 0."""

    label = "stub:zero"

    def simulate(self, plan, normals):
        terminal = np.ones(normals.shape[0])
        terminal[0] = 0.0
        return PathStats(terminal=terminal, running_max=np.ones_like(terminal))


class TestNonFinitePayoffs:
    def test_zero_price_raises(self):
        # a price of 0 has finite payoffs, so only the price check sees it
        cfg = McConfig(paths=100, seed=0)
        with pytest.raises(ValueError, match=r"stub:zero\|euro_call\(1.0\): 1 of 100 terminal"):
            price(_ZeroTerminal(), euro_call(1.0), GridSpec(T=1.0, N=2), cfg)
        with pytest.raises(ValueError, match="stub:zero"):
            paired_compare(_ZeroTerminal(), _NanTerminal(), euro_call(1.0), GridSpec(1.0, 2), cfg)

    @pytest.mark.parametrize(
        "scheme", ["volterra", "multifactor-truncated", "hybrid", "integrated-multifactor"]
    )
    def test_underflowing_price_raises(self, scheme):
        # with lam dt = 7500 every S_T = exp(log S_T) underflows to 0, and
        # price() once reported the call at 0 +- 0
        cfg = McConfig(paths=64, seed=0)
        with pytest.raises(ValueError, match=rf"heston:{scheme}\|euro_call\(1.0\): 64 of 64"):
            price(HestonModel(scheme), euro_call(1.0), GridSpec(T=1e5, N=4), cfg)

    @settings(max_examples=120, deadline=None)
    @given(
        scheme=st.sampled_from(mc.HESTON_SCHEMES),
        kind=st.sampled_from(mc._PAYOFF_KINDS),
        hurst=st.floats(0.001, 0.4999),
        T=st.floats(1e-4, 30.0),
        N=st.integers(1, 16),
        params=st.builds(
            HestonParams,
            V0=st.floats(0.0, 1.0),
            theta=st.floats(0.0, 1.0),
            lam=st.floats(0.0, 5.0),
            sigma=st.floats(0.0, 2.0),
            rho=st.floats(-1.0, 1.0),
            S0=st.floats(1e-3, 1e3),
        ),
        moneyness=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_report_is_finite_or_fails_by_name(
        self, scheme, kind, hurst, T, N, params, moneyness, seed
    ):
        # across the parameters' edges and strikes 1e-6 to 1e6 times the
        # spot, price() reports finite numbers or raises a ValueError that
        # names the run and its non-finite or zero prices or payoffs
        model = HestonModel(scheme, params, hurst=hurst)
        payoff = mc.Payoff(kind, params.S0 * 10.0**moneyness)
        try:
            report = price(model, payoff, GridSpec(T=T, N=N), McConfig(paths=64, seed=seed))
        except ValueError as exc:
            assert str(exc).startswith(mc._label(model, payoff) + ": "), str(exc)
            assert re.search("(prices are 0 or|payoff values are) not finite", str(exc))
            return
        assert math.isfinite(report.mean) and math.isfinite(report.half_width_95)

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
        def infinite(self, plan, normals):
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
        def no_draws(self, *args, **kwargs):
            raise AssertionError("drew normals for an invalid payoff")

        monkeypatch.setattr(CounterRng, "normals_block", no_draws)
        with pytest.raises(ValueError, match="payoff kind|strike must be finite"):
            price(HestonModel("volterra"), make_payoff(), GridSpec(1.0, 160), McConfig(paths=16384))


@pytest.fixture
def draws(monkeypatch):
    """Shapes of the normals blocks drawn, seen by a spy on ``CounterRng.normals_block``."""
    shapes = []
    draw = CounterRng.normals_block

    def spy(self, lo, hi, n_steps, n_comp, *, out=None):
        shapes.append((hi - lo, n_steps, n_comp))
        return draw(self, lo, hi, n_steps, n_comp, out=out)

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


@pytest.fixture
def calls(monkeypatch):
    """Names of the set-up calls made and the normals blocks drawn, in order."""
    from rvol import bergomi

    seen = []

    def spy(owner, name, label=None):
        original = getattr(owner, name)

        def run(*args, **kwargs):
            seen.append(label or name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, run)

    for name in ("psd_factorize", "factor_step_law", "fractional_joint_covariance"):
        spy(bergomi, name)
    spy(mc, "truncate_factors")
    spy(HestonModel, "plan")
    spy(BergomiModel, "plan")
    spy(CounterRng, "normals_block", "draw")
    return seen


class TestOnePlanPerRun:
    """A run sets its grid up once, before its first draw, and its slices only simulate."""

    @pytest.mark.parametrize("paths", [4096, 32768])
    def test_smile_factorizes_once_per_mode(self, calls, paths):
        # each 4096-path slice once ran the step law and both factorizations
        grid = GridSpec(T=0.041, N=4)
        bergomi_smile(BergomiParams(), grid, McConfig(paths=paths, seed=0), [0.0])
        assert Counter(calls) == {
            "plan": 2,
            "fractional_joint_covariance": 1,
            "psd_factorize": 2,
            "factor_step_law": 1,
            "draw": 2 * paths // mc._SLICE,
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_price_truncates_once(self, calls, workers):
        # two blocks of four slices each once truncated the kernel eight times
        cfg = McConfig(paths=2 * mc._BLOCK, seed=0, workers=workers)
        price(HestonModel("multifactor-truncated"), euro_call(1.0), GridSpec(1.0, 4), cfg)
        assert calls.count("truncate_factors") == 1
        assert calls.count("draw") == 2 * mc._BLOCK // mc._SLICE

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: paired_compare(
                HestonModel("multifactor"),
                HestonModel("multifactor-truncated"),
                euro_call(1.0),
                GridSpec(1.0, 4),
                cfg,
            ),
            lambda cfg: bergomi_smile(BergomiParams(), GridSpec(0.041, 4), cfg, [0.0]),
        ],
        ids=["paired_compare", "bergomi_smile"],
    )
    def test_every_plan_before_the_first_draw(self, calls, run):
        # two slices per plan, and no set-up call once the first slice draws
        run(McConfig(paths=2 * mc._SLICE, seed=0))
        first_draw = calls.index("draw")
        assert calls[:first_draw].count("plan") == 2
        assert calls[first_draw:] == ["draw"] * 4

    @pytest.mark.parametrize("mode", mc.BERGOMI_MODES)
    def test_plan_arrays_are_read_only(self, mode):
        # the worker threads of a run share its plan
        plan = BergomiModel(mode, kernel_factors=None if mode == "exact" else 10).plan(
            GridSpec(0.041, 4)
        )
        arrays = [plan.law.factor, plan.law.cross, plan.law.var]
        if plan.kernel is not None:
            arrays += [plan.kernel.weights, plan.kernel.rates]
        for array in arrays:
            assert array is None or not array.flags.writeable
        assert (plan.law.cross is None) == (mode == "exact")


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
        coarse = model.plan(GridSpec(T=1.0, N=10)).kernel
        fine = model.plan(GridSpec(T=1.0, N=160)).kernel
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
        assert HestonModel("multifactor").plan(grid).kernel is heston
        truncated = HestonModel("multifactor-truncated").plan(grid).kernel
        expected = mc.truncate_factors(heston, 1.0, 40)[0]
        assert np.array_equal(truncated.weights, expected.weights)
        assert np.array_equal(truncated.rates, expected.rates)
        bergomi = BergomiModel("multifactor")
        assert bergomi.plan(grid).kernel is systematic_kernel(bergomi.params.H, 40, 1.0)


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

        plan = model.plan(GridSpec(T=0.5, N=12))
        normals = CounterRng(5).normals_block(0, 40, 12, plan.comps)
        kept = normals.copy()
        paths = model.simulate_paths(plan, normals)
        assert np.array_equal(normals, kept)  # only simulate may consume them
        integrated = getattr(model, "scheme", "").startswith("integrated")
        assert isinstance(paths, IntegratedPaths if integrated else HestonPaths)
        assert paths.log_price.shape == (40, 13)
        stats = model.simulate(plan, normals)
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
        plan = model.plan(GridSpec(T=0.5, N=6))
        normals = CounterRng(1).normals_block(0, 8, 6, plan.comps)
        model.simulate(plan, normals)
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

    # the terminal log price of `simulate_paths` on path 0 alone (the
    # `path-dump` shape), T = 1, N = 64, seed 7, as given by the factor
    # update on BLAS gemm; numpy's matmul would send its one-path products
    # to gemv, which rounds its sums in another order and moves the last
    # bits of all four factor schemes (recorded as GOLDEN)
    GOLDEN_ONE_PATH = {
        "volterra": -0.06859609559246461,
        "multifactor": -0.06964110647921948,
        "multifactor-truncated": -0.0696509719853449,
        "hybrid": -0.08634246742024268,
        "integrated-volterra": -0.044465005046005146,
        "integrated-multifactor": -0.054403090377217536,
    }

    @pytest.mark.parametrize("scheme", mc.HESTON_SCHEMES)
    def test_golden_one_path(self, scheme):
        model = HestonModel(scheme=scheme)
        plan = model.plan(GridSpec(T=1.0, N=64))
        normals = CounterRng(7).normals_block(0, 1, 64, plan.comps)
        paths = model.simulate_paths(plan, normals)
        assert paths.log_price[0, -1] == self.GOLDEN_ONE_PATH[scheme]

    @pytest.mark.parametrize("scheme", mc.HESTON_SCHEMES)
    def test_pricing_peak_memory(self, mapped, scheme):
        # each engine call holds its (paths, N, comps) normals, the (n,
        # paths) factors of a factor scheme, the memory's (_BLOCK, paths)
        # output block and a factor memory's block of step terms, and rows
        # of (paths,) scratch: a direct scheme keeps its history of step
        # terms, and every scheme its log price, in the rows of its
        # normals; 4096 paths run as one call on normals of their own, a
        # full block through simulate_stats in slices that each draw into
        # the run's one workspace, an anonymous mapping that tracemalloc
        # does not see, so it is counted from its size
        import tracemalloc

        grid = GridSpec(T=1.0, N=160)
        model = HestonModel(scheme=scheme)
        plan = model.plan(grid)
        comps, kernel = plan.comps, plan.kernel
        rng = CounterRng(3)
        # keep first-call allocations out of the measured peak
        model.simulate(plan, rng.normals_block(0, 8, grid.N, comps))
        state_rows = (kernel.n if hasattr(kernel, "n") else 1) + 2 * schemes._BLOCK
        runs = {
            4096: lambda: model.simulate(plan, rng.normals_block(0, 4096, grid.N, comps)),
            mc._BLOCK: lambda: mc.simulate_stats(plan, McConfig(paths=mc._BLOCK, seed=3)),
        }
        mib = 2.0**20
        for paths, run in runs.items():
            width = min(paths, mc._SLICE)
            budget = 8 * width * (grid.N * comps + state_rows)
            mapped.clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert mapped == ([] if paths == 4096 else [grid.N * comps * width])
            peak += 8 * sum(mapped)
            assert peak <= 1.15 * budget, (
                f"{paths} paths: peak {peak / mib:.1f} MiB, budget {budget / mib:.1f} MiB"
            )

    def test_hybrid_near_half(self):
        # within ~4e-9 of H = 1/2 the hybrid step's Cholesky radicand
        # (H - 1/2)^2 dt^(2H) / (2H a^2 Gamma^2) rounds below zero
        model = HestonModel(scheme="hybrid", hurst=0.4999999965)
        report = price(model, euro_call(1.0), GridSpec(T=1.0, N=160), McConfig(paths=64, seed=0))
        assert math.isfinite(report.mean) and report.mean > 0.0


@pytest.fixture
def engine_calls(monkeypatch):
    """Path counts of the engine calls made at the engines' ``rvol.mc`` names."""
    widths = []

    def spy(engine):
        def run(*args, **kwargs):
            out = engine(*args, **kwargs)
            widths.append(out.log_price.shape[0])
            return out

        return run

    for name in (
        "heston_volterra_euler",
        "heston_multifactor_euler",
        "heston_hybrid_multifactor",
        "heston_integrated_volterra",
        "heston_integrated_multifactor",
        "simulate_bergomi",
    ):
        monkeypatch.setattr(mc, name, spy(getattr(mc, name)))
    return widths


class TestSlicedPricing:
    """Each block draws and runs its engine in path slices, to the bits of one whole run."""

    @pytest.mark.parametrize(
        "model, grid",
        [pytest.param(HestonModel(s), GridSpec(1.0, 160), id=s) for s in mc.HESTON_SCHEMES]
        + [pytest.param(BergomiModel(m), GridSpec(0.041, 20), id=m) for m in mc.BERGOMI_MODES],
    )
    def test_full_block_matches_one_whole_block_run(self, engine_calls, model, grid):
        plan = model.plan(grid)
        normals = CounterRng(13).normals_block(0, mc._BLOCK, grid.N, plan.comps)
        whole = model.simulate(plan, normals)
        sliced = mc.simulate_stats(plan, McConfig(paths=mc._BLOCK, seed=13))
        assert engine_calls == [mc._BLOCK] + [mc._SLICE] * (mc._BLOCK // mc._SLICE)
        assert np.array_equal(sliced.terminal, whole.terminal)
        assert np.array_equal(sliced.running_max, whole.running_max)

    @pytest.mark.parametrize(
        "paths, widths",
        [
            (1, [1]),
            (2 * mc._SLICE - 1, [2 * mc._SLICE - 1]),
            (2 * mc._SLICE, [mc._SLICE, mc._SLICE]),
            (3 * mc._SLICE + 57, [mc._SLICE, mc._SLICE, mc._SLICE + 57]),
            (mc._BLOCK + 5, [mc._SLICE] * 4 + [5]),
            (mc._BLOCK, [mc._SLICE] * 4),
        ],
    )
    @pytest.mark.parametrize(
        "model",
        [HestonModel(scheme="multifactor-truncated"), BergomiModel(mode="exact")],
        ids=lambda m: m.label,
    )
    def test_slice_widths(self, draws, engine_calls, model, paths, widths):
        # a block of fewer than two slices runs whole, as one draw and one
        # engine call; a wider one runs in slices, the last taking the
        # remainder, and each slice draws its own normals
        plan = model.plan(GridSpec(T=0.5, N=2))
        mc.simulate_stats(plan, McConfig(paths=paths, seed=1))
        assert draws == [(w, 2, plan.comps) for w in widths]
        assert engine_calls == widths

    @pytest.mark.parametrize("mode", mc.BERGOMI_MODES)
    def test_bergomi_peak_memory(self, monkeypatch, mapped, mode):
        # each slice draws its (slice, N, comps) normals into the run's one
        # mapped workspace, which tracemalloc does not see, and runs in it:
        # the log price takes over components 0 and 1, and in multifactor
        # mode the increments, the factor sums, the variance and the
        # sampler's (n, slice) states and scratch the components that the
        # step law never reads, so a slice's heap holds rows of (slice,)
        # scratch alone; the exact mode also holds its (2N, slice) joint
        # sample and its input, its (N, slice) increments and its (N+1,
        # slice) variance. Beyond the slices, the run holds its results and
        # the draw's hash tiles and path offsets
        import tracemalloc

        grid = GridSpec(T=0.041, N=20)
        plan = BergomiModel(mode).plan(grid)
        # keep first-call allocations out of the measured peak
        mc.simulate_stats(plan, McConfig(paths=8, seed=3))
        simulate, slice_peaks, run_peaks = BergomiModel.simulate, [], []

        def measured(self, plan, normals):
            live, run_peak = tracemalloc.get_traced_memory()
            run_peaks.append(run_peak)
            tracemalloc.reset_peak()
            stats = simulate(self, plan, normals)
            slice_peaks.append(tracemalloc.get_traced_memory()[1] - live)
            return stats

        monkeypatch.setattr(BergomiModel, "simulate", measured)
        mapped.clear()
        tracemalloc.start()
        try:
            mc.simulate_stats(plan, McConfig(paths=mc._BLOCK, seed=3))
            run_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert mapped == [grid.N * plan.comps * mc._SLICE]
        assert len(slice_peaks) == mc._BLOCK // mc._SLICE
        sampler_rows = 4 * grid.N + 2 * grid.N + 1 if plan.kernel is None else 0
        slice_budget = 8 * mc._SLICE * (sampler_rows + 8)
        run_budget = slice_budget + 8 * (2 * mc._BLOCK + 2 * mc._CHUNK + 2 * mc._SLICE)
        mib = 2.0**20
        assert max(slice_peaks) <= slice_budget, (
            f"slice peak {max(slice_peaks) / mib:.2f} MiB, budget {slice_budget / mib:.2f} MiB"
        )
        assert max(run_peaks) <= run_budget, (
            f"run peak {max(run_peaks) / mib:.2f} MiB, budget {run_budget / mib:.2f} MiB"
        )

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM of /proc/self/status")
    def test_bergomi_peak_rss(self):
        # a 32768-path multifactor price() at the smile's grid: the
        # high-water mark grows by the one mapped 4096-path workspace,
        # 26.25 MiB, and little more; a sampler whose state, sums,
        # increments, variance and log price were allocated per slice grew
        # by about 31 MiB here
        grid = GridSpec(T=0.041, N=20)
        growth_kib = price_peak_growth('BergomiModel("multifactor")', repr(grid), 32768)
        workspace = 8 * BergomiModel("multifactor").plan(grid).comps * grid.N * mc._SLICE
        slack = 2 * 2**20  # (slice,) scratch rows, the run's results, interpreter noise
        assert 1024 * growth_kib <= workspace + slack, (
            f"grew {growth_kib / 1024:.1f} MiB; workspace {workspace / 2**20:.2f} MiB"
        )


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
