"""rvol benchmark runner.

    python3 perfbench/run.py --workload heston-desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Runs one workload (see workloads.py) in this process against the rvol
sources under ``src/`` of the checkout, repeating its job until
``--seconds`` have passed, and checks every operation's output. The
last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details
(environment, per-operation times, sample counts).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs, reports the per-layer metrics and writes the
spans to ``perfbench/out/``.
``--workload all`` runs every workload, each in its own process.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported: the
# benchmark measures single-threaded work, and threaded BLAS roughly
# doubles the run-to-run spread on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOAD_NAMES = ("heston-desk", "heston-fine", "bergomi-smile", "kernel-setup")
SETUP_PROBES = 5
MIN_JOBS = 3  # per untraced run, so that the median means something
MIN_TRACED_PAIRS = 2  # of untraced and traced jobs, per traced run
TOY_WARMUP_PATHS = 1024
CHILD_TIMEOUT_S = 900

# Measured in a fresh interpreter: import of the package plus the
# workload's cached precomputation.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].setup()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

E2E_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_rvol():
    """Import rvol from the checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rvol", "__init__.py")):
        raise SystemExit(f"error: no rvol sources under {SRC}")
    sys.path.insert(0, SRC)
    import rvol

    if not os.path.abspath(rvol.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported rvol from {rvol.__file__}, not {SRC}")
    return rvol


def summarize(samples):
    """Median and sample count, plus the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        out[f"p{math.floor(100 * (n - 10) / n)}"] = ordered[n - 11]
    return out


def environment(args):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "rvol")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(name):
    """Median set-up seconds over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, BENCH, name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs jobs of one workload, timing and checking each operation."""

    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.job_s = []
        self.job_cpu_s = []
        self.op_s = {}
        self.path_steps_per_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, label, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def job(self, job_id):
        import workloads

        if self.workload.cold:
            workloads.clear_package_caches()
        ops = self.workload.ops(self.seed)
        results = []
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_job(job_id)
            tracer.active = True
        with tracer.span("job") if tracer else nullcontext():
            cpu_start = time.process_time()
            start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                try:
                    with tracer.span(f"op.{op.label}") if tracer else nullcontext():
                        out = op.run()
                except Exception as exc:  # a failing operation is counted, not fatal
                    out = exc
                results.append((op, out, time.perf_counter() - t0))
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        if tracer is not None:
            tracer.active = False
        self.job_s.append(wall)
        self.job_cpu_s.append(cpu)
        self.path_steps_per_s.append(sum(op.path_steps for op in ops) / wall)
        for op, out, seconds in results:
            self.attempted += 1
            self.op_s.setdefault(op.label, []).append(seconds)
            if isinstance(out, Exception):
                self.fail(op.label, f"{type(out).__name__}: {out}")
                continue
            try:
                op.check(out)
            except Exception as exc:  # includes workloads.CheckFailed
                self.fail(op.label, f"{type(exc).__name__}: {exc}")

    def run_for(self, seconds, min_jobs):
        """Run jobs for about ``seconds``, at least ``min_jobs``.

        A job starts only while half of it would still end before the
        deadline, so a run overshoots by half a job at most on average.
        """
        deadline = time.perf_counter() + seconds
        job_id = 0
        while job_id < min_jobs or time.perf_counter() + self.job_s[-1] / 2.0 < deadline:
            self.job(job_id)
            job_id += 1


def warm_up(workload, seed):
    """Run a toy-sized job so that first-use costs stay out of the timed jobs."""
    import workloads

    if workload.cold:
        return  # cold jobs measure first-use costs on purpose
    for op in workloads.toy(workload, TOY_WARMUP_PATHS).ops(seed):
        try:
            op.run()
        except ValueError:
            # at toy path counts the deepest smile strike can price below
            # intrinsic; the timed jobs run (and check) the full size
            pass


def end_to_end(workload, seed, seconds, detail):
    """End-to-end metrics of untraced jobs, plus set-up in fresh interpreters."""
    setup = measure_setup(workload.name)
    detail["setup_s"] = summarize(setup)
    workload.setup()
    warm_up(workload, seed)
    runner = Runner(workload, seed)
    runner.run_for(seconds, MIN_JOBS)
    metrics = {
        "job_s": statistics.median(runner.job_s),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, E2E_UNITS, runner


def per_layer(workload, seed, seconds, detail):
    """Per-layer metrics from traced jobs that alternate with untraced ones.

    The wrappers are swapped in for each traced job and out again for
    each untraced one, so the untraced jobs call the unmodified API and
    both kinds see the same phases of host speed; ``trace.overhead_frac``
    compares their medians.
    """
    import spans

    workload.setup()
    warm_up(workload, seed)
    runner = Runner(workload, seed)
    tracer = spans.Tracer()
    traced = Runner(workload, seed, tracer)
    deadline = time.perf_counter() + seconds
    job_id = 0
    # a pair starts only while half of it would still end before the deadline
    while job_id < 2 * MIN_TRACED_PAIRS or (
        time.perf_counter() + (runner.job_s[-1] + traced.job_s[-1]) / 2.0 < deadline
    ):
        runner.job(job_id)
        tracer.install()
        try:
            traced.job(job_id + 1)
        finally:
            tracer.uninstall()
        job_id += 2
    metrics, unstable = spans.layer_metrics(
        tracer,
        sorted(tracer.counts),
        statistics.median(runner.job_s),
        statistics.median(traced.job_s),
    )
    for problem in unstable:
        traced.fail("exact count", problem)
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.csv.gz")
    tracer.write(span_file)
    detail["span_file"] = os.path.relpath(span_file, ROOT)
    detail["spans"] = len(tracer.start)
    detail["traced_job_s"] = summarize(traced.job_s)
    detail["traced_op_s"] = {label: summarize(s) for label, s in traced.op_s.items()}
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    runner.errors += traced.errors
    units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    return metrics, units, runner


def run_workload(args):
    load_rvol()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    detail = {"env": environment(args)}
    measure = per_layer if args.trace else end_to_end
    metrics, units, runner = measure(workload, args.seed, args.seconds, detail)
    detail["job_s"] = summarize(runner.job_s)
    detail["job_s_samples"] = runner.job_s
    detail["job_cpu_s"] = summarize(runner.job_cpu_s)  # far below job_s: the CPU was contended
    detail["op_s"] = {label: summarize(s) for label, s in runner.op_s.items()}
    if any(op.path_steps for op in workload.ops(args.seed)):
        detail["path_steps_per_s"] = summarize(runner.path_steps_per_s)
    detail["failed_frac"] = runner.failed / runner.attempted
    detail["errors"] = runner.errors
    print(json.dumps({"detail": detail}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in its own process; prints a table, then all results as JSON."""
    load_rvol()  # fail before starting any workload when the sources are missing
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)  # fmt: skip
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        result = results[name]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")  # fmt: skip
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results), flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
