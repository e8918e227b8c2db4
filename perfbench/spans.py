"""Layer tracing for the benchmark, applied from outside the package.

Each traced public function of rvol is swapped, at the name its caller
looks it up under, for a wrapper that records a span: job id, parent
span, name, start and end (``time.perf_counter`` seconds) and whether
the call raised. Spans live in flat in-memory columns until the run
ends; :meth:`Tracer.write` dumps them as gzipped CSV. A layer's self
time is its span's duration minus the durations of its direct child
spans, computed from the parent links.

Hooks attached to some wrappers add work counts (normals drawn,
path-steps, factor counts) read from the call's arguments and result.
Tracing is single-threaded: the benchmark always runs with workers=1.
"""

from __future__ import annotations

import array
import csv
import functools
import gzip
import importlib
import inspect
import statistics
import time
from collections import Counter

import numpy as np


class TraceError(RuntimeError):
    """A traced public symbol could not be found at its lookup site."""


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_nonfinite(*arrays) -> int:
    return sum(int(np.count_nonzero(~np.isfinite(a))) for a in arrays)


# Hooks: (tracer, original function, args, kwargs, result) -> None.


def _normals_hook(tr, fn, args, kwargs, out):
    tr.add("mc.normals", out.size)
    tr.add("mc.blocks", 1)


def _engine_hook(tr, fn, args, kwargs, out):
    paths, points = out.log_price.shape
    path_steps = paths * (points - 1)
    tr.add("schemes.path_steps", path_steps)
    kernel = _bind(fn, args, kwargs)["kernel"]
    if hasattr(kernel, "n"):
        tr.add("schemes.factor_path_steps", path_steps * kernel.n)


def _path_stats_hook(tr, fn, args, kwargs, out):
    tr.add("mc.nonfinite", _count_nonfinite(out.terminal, out.running_max))


def _payoff_hook(tr, fn, args, kwargs, out):
    tr.add("mc.nonfinite", _count_nonfinite(out))


def _truncate_hook(tr, fn, args, kwargs, out):
    tr.set("quadrature.n_factors", _bind(fn, args, kwargs)["kernel"].n)
    tr.set("quadrature.n_kept", out[1])


def _step_law_hook(tr, fn, args, kwargs, out):
    cond_factor = out[1]
    tr.set("bergomi.factor_rank", int(np.count_nonzero(np.any(cond_factor != 0.0, axis=0))))


def _bergomi_hook(tr, fn, args, kwargs, out):
    # multifactor mode draws n + 2 normals per step: two drive the price
    # and the variance Brownian motion, and of the n conditional ones
    # only factor_rank reach a nonzero column of the step law's factor
    bound = _bind(fn, args, kwargs)
    if bound["kernel"] is not None:
        paths, steps, comps = np.shape(bound["normals"])
        rank = tr.gauges[tr.job]["bergomi.factor_rank"]  # set by factor_step_law within
        tr.add("bergomi.multifactor_normals", paths * steps * comps)
        tr.add("bergomi.multifactor_useful", paths * steps * (2 + rank))


# (owner, attribute, span name, hook). The owner is where the caller
# looks the symbol up: ``rvol.mc`` imports the engines by name, so the
# engines are swapped there rather than in ``rvol.schemes``.
SPANS = (
    ("rvol.mc.CounterRng", "normals_block", "mc.normals_block", _normals_hook),
    ("rvol.mc.HestonModel", "simulate", "mc.path_stats", _path_stats_hook),
    ("rvol.mc.BergomiModel", "simulate", "mc.path_stats", _path_stats_hook),
    ("rvol.mc.Payoff", "evaluate", "mc.payoff", _payoff_hook),
    ("rvol.mc", "heston_volterra_euler", "schemes.heston_volterra_euler", _engine_hook),
    ("rvol.mc", "heston_multifactor_euler", "schemes.heston_multifactor_euler", _engine_hook),
    ("rvol.mc", "heston_hybrid_multifactor", "schemes.heston_hybrid_multifactor", _engine_hook),
    (
        "rvol.mc",
        "heston_integrated_multifactor",
        "schemes.heston_integrated_multifactor",
        _engine_hook,
    ),
    ("rvol.mc", "simulate_bergomi", "bergomi.simulate_bergomi", _bergomi_hook),
    ("rvol.mc", "implied_vol", "bergomi.implied_vol", None),
    ("rvol.bergomi", "sample_factors_exact", "bergomi.sample_factors_exact", None),
    ("rvol.bergomi", "sample_fractional_exact", "bergomi.sample_fractional_exact", None),
    ("rvol.bergomi", "factor_step_law", "bergomi.factor_step_law", _step_law_hook),
    (
        "rvol.bergomi",
        "fractional_joint_covariance",
        "bergomi.fractional_joint_covariance",
        None,
    ),
    ("rvol.bergomi", "integrate", "numerics.integrate", None),
    ("rvol.bergomi", "psd_factorize", "numerics.psd_factorize", None),
    ("rvol.kernel", "lower_incomplete_gamma", "numerics.lower_incomplete_gamma", None),
    ("rvol.mc", "build_systematic", "quadrature.build_systematic", None),
    ("rvol.tables", "build_systematic", "quadrature.build_systematic", None),
    ("rvol.quadrature", "build_systematic", "quadrature.build_systematic", None),
    ("rvol.quadrature", "optimize_tail_ratio", "quadrature.optimize_tail_ratio", None),
    ("rvol.mc", "truncate_factors", "quadrature.truncate_factors", _truncate_hook),
    ("rvol.quadrature", "l2_error_exact", "kernel.l2_error_exact", None),
    ("rvol.tables", "l2_error_exact", "kernel.l2_error_exact", None),
    ("rvol.quadrature", "expsum_inner_products", "kernel.expsum_inner_products", None),
)

# Functions whose first argument is an objective: counted, not spanned.
OBJECTIVE_COUNTERS = (("rvol.quadrature", "minimize_scalar", "quadrature.objective_evals"),)

ENGINE_SPANS = tuple(name for _, _, name, hook in SPANS if hook is _engine_hook)
FACTOR_ENGINE_SPANS = tuple(n for n in ENGINE_SPANS if n != "schemes.heston_volterra_euler")


def _resolve_owner(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ImportError(path)


class Tracer:
    """In-memory span recorder with per-job counters."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job_of = array.array("i")
        self.parent = array.array("i")
        self.name_of = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.failed = array.array("b")
        self._stack: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.gauges: dict[int, dict] = {}
        self._swapped: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_job(self, job: int):
        self.job = job
        self.counts[job] = Counter()
        self.gauges[job] = {}

    def add(self, key: str, value: int):
        self.counts[self.job][key] += value

    def set(self, key: str, value):
        self.gauges[self.job][key] = value

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.job_of.append(self.job)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_of.append(name_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def span(self, name: str):
        """Context manager for a benchmark-side span (jobs and operations)."""
        return _Span(self, self.name_id(name))

    def _wrap(self, fn, name: str, hook):
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if hook is not None:
                hook(tracer, fn, args, kwargs, out)
            return out

        return wrapper

    def _wrap_objective(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not tracer.active:
                return fn(f, *args, **kwargs)

            def counted(x):
                tracer.add(key, 1)
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    def install(self):
        """Swap every wrapper in; raise TraceError naming each symbol not found."""
        missing = []
        plan = []
        for path, attr, name, hook in SPANS:
            try:
                owner = _resolve_owner(path)
                plan.append((owner, attr, self._wrap(getattr(owner, attr), name, hook)))
            except (ImportError, AttributeError):
                missing.append(f"{path}.{attr}")
        for path, attr, key in OBJECTIVE_COUNTERS:
            try:
                owner = _resolve_owner(path)
                plan.append((owner, attr, self._wrap_objective(getattr(owner, attr), key)))
            except (ImportError, AttributeError):
                missing.append(f"{path}.{attr}")
        if missing:
            raise TraceError("traced symbols not found: " + ", ".join(missing))
        for owner, attr, wrapper in plan:
            self._swapped.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span: (job, name id, self seconds, failed), as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return (
            np.frombuffer(self.job_of, dtype=np.int32),
            np.frombuffer(self.name_of, dtype=np.int32),
            dur - covered,
            np.frombuffer(self.failed, dtype=np.int8),
        )

    def summary(self):
        """{job: {span name: (self seconds, calls, failed)}} over all spans."""
        jobs, names, self_s, failed = self.self_times()
        out = {}
        for job, name_id, s, f in zip(jobs.tolist(), names.tolist(), self_s.tolist(), failed.tolist()):
            total = out.setdefault(job, {}).get(self.names[name_id], (0.0, 0, 0))
            out[job][self.names[name_id]] = (total[0] + s, total[1] + 1, total[2] + f)
        return out

    def write(self, path):
        """Write all spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["job", "span", "parent", "name", "start_s", "end_s", "failed"])
            for i in range(len(self.start)):
                out.writerow(
                    [
                        self.job_of[i],
                        i,
                        self.parent[i],
                        self.names[self.name_of[i]],
                        repr(self.start[i]),
                        repr(self.end[i]),
                        self.failed[i],
                    ]
                )


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer.open(self.name_id)

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.idx, failed=exc_type is not None)
        return False


# Per-layer metric catalogue: name -> (unit, better).
TIMED_SPANS = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))
CALL_COUNTED_SPANS = (
    "bergomi.implied_vol",
    "numerics.integrate",
    "numerics.psd_factorize",
    "quadrature.build_systematic",
    "kernel.l2_error_exact",
    "numerics.lower_incomplete_gamma",
)
FAILURE_COUNTED_SPANS = ("bergomi.implied_vol", "numerics.integrate")
COUNTS = ("mc.normals", "mc.blocks", "mc.nonfinite", "quadrature.objective_evals")
GAUGES = ("bergomi.factor_rank", "quadrature.n_factors", "quadrature.n_kept")
LAYER_METRICS = {
    **{f"{name}.s": ("s", "lower") for name in TIMED_SPANS},
    **{f"{name}.calls": ("count", "lower") for name in CALL_COUNTED_SPANS},
    **{f"{name}.failed": ("count", "lower") for name in FAILURE_COUNTED_SPANS},
    **{key: ("count", "lower") for key in COUNTS + GAUGES},
    "mc.normals_per_s": ("1/s", "higher"),
    "schemes.path_steps_per_s": ("1/s", "higher"),
    "schemes.factor_path_steps_per_s": ("1/s", "higher"),
    "mc.normals_useful_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, jobs, untraced_job_s: float, traced_job_s: float):
    """Per-layer metrics as medians over the traced jobs.

    Returns ``(metrics, unstable)``; ``unstable`` names each count that
    differed between jobs, which the benchmark treats as a failure
    because every job does identical work.
    """
    summaries = tracer.summary()
    per_job = {name: [] for name in LAYER_METRICS if name != "trace.overhead_frac"}
    for job in jobs:
        spans = summaries.get(job, {})
        counts, gauges = tracer.counts[job], tracer.gauges[job]

        def span(name, field):
            return spans.get(name, (0.0, 0, 0))[field]

        def rate(work, names):
            busy = sum(span(name, 0) for name in names)
            return counts[work] / busy if busy > 0.0 else 0.0

        for name in TIMED_SPANS:
            per_job[f"{name}.s"].append(span(name, 0))
        for name in CALL_COUNTED_SPANS:
            per_job[f"{name}.calls"].append(span(name, 1))
        for name in FAILURE_COUNTED_SPANS:
            per_job[f"{name}.failed"].append(span(name, 2))
        for key in COUNTS:
            per_job[key].append(counts[key])
        for key in GAUGES:
            per_job[key].append(gauges.get(key, 0))
        per_job["mc.normals_per_s"].append(rate("mc.normals", ["mc.normals_block"]))
        per_job["schemes.path_steps_per_s"].append(rate("schemes.path_steps", ENGINE_SPANS))
        per_job["schemes.factor_path_steps_per_s"].append(
            rate("schemes.factor_path_steps", FACTOR_ENGINE_SPANS)
        )
        drawn = counts["bergomi.multifactor_normals"]
        per_job["mc.normals_useful_frac"].append(
            counts["bergomi.multifactor_useful"] / drawn if drawn else 1.0
        )
    # a count is the same in every job (checked below), so report it as is
    metrics = {
        name: values[0] if LAYER_METRICS[name][0] == "count" else statistics.median(values)
        for name, values in per_job.items()
    }
    metrics["trace.overhead_frac"] = (traced_job_s - untraced_job_s) / untraced_job_s
    unstable = [
        f"{name} differs between jobs: {sorted(set(values))}"
        for name, values in per_job.items()
        if LAYER_METRICS[name][0] == "count" and len(set(values)) > 1
    ]
    return metrics, unstable
