"""Self-test of the benchmark at toy path counts.

    python3 perfbench/selftest.py

For every workload it runs the untraced and the traced measurement on a
toy-sized copy (same grids and kernels, fewer paths) and checks that:

- every end-to-end and every per-layer metric is emitted, with the
  units BENCHMARK.json declares;
- every operation passes its correctness check;
- each span the workload must exercise has nonzero self time;
- the exact counts equal their expected values (e.g.
  ``bergomi.factor_rank`` = 18, ``quadrature.n_kept`` = 55 at N = 160)
  and repeat between jobs;
- the smile check rejects a smile priced at full size with a kernel
  too coarse for it, so its band is narrow enough to see kernel bias.

Prints one line per problem and exits 1 if there is any.
"""

import json
import os
import sys

import run

# Spans each workload must exercise; the other time metrics may be zero.
ACTIVE_SPANS = {
    "heston-desk": (
        "schemes.heston_volterra_euler",
        "schemes.heston_multifactor_euler",
        "schemes.heston_hybrid_multifactor",
        "schemes.heston_integrated_multifactor",
        "mc.normals_block",
        "mc.path_stats",
        "mc.payoff",
        "quadrature.truncate_factors",
    ),
    "heston-fine": (
        "schemes.heston_volterra_euler",
        "schemes.heston_multifactor_euler",
        "mc.normals_block",
        "mc.payoff",
        "quadrature.truncate_factors",
    ),
    "bergomi-smile": (
        "mc.normals_block",
        "bergomi.simulate_bergomi",
        "bergomi.sample_factors_exact",
        "bergomi.sample_fractional_exact",
        "bergomi.factor_step_law",
        "bergomi.fractional_joint_covariance",
        "bergomi.implied_vol",
        "numerics.psd_factorize",
    ),
    "kernel-setup": (
        "quadrature.build_systematic",
        "quadrature.optimize_tail_ratio",
        "kernel.l2_error_exact",
        "kernel.expsum_inner_products",
        "numerics.lower_incomplete_gamma",
        "numerics.integrate",
        "bergomi.fractional_joint_covariance",
    ),
}
# enough paths that the deepest smile strike stays priced above intrinsic
TOY_PATHS = 4096
TOY_SECONDS = 0.1  # each measurement still runs its minimum number of jobs
# a systematic kernel whose bias puts three high strikes outside the band
BIASED_SMILE_FACTORS = 6


def check_workload(name, declared):
    import workloads

    problems = []
    workload = workloads.toy(workloads.WORKLOADS[name], TOY_PATHS)
    for trace, measure in ((0, run.end_to_end), (1, run.per_layer)):
        metrics, units, runner = measure(workload, 7, TOY_SECONDS, {})
        kind = "per_layer" if trace else "end_to_end"
        if set(metrics) != set(declared[kind]):
            problems.append(f"{name}: {kind} metrics {sorted(set(metrics) ^ set(declared[kind]))}")
        for metric, value in metrics.items():
            if declared[kind].get(metric) != units[metric]:
                problems.append(f"{name}: {metric} unit {units[metric]!r}")
        problems += [f"{name}: {error}" for error in runner.errors]
        if trace:
            for span in ACTIVE_SPANS[name]:
                if not metrics[f"{span}.s"] > 0.0:
                    problems.append(f"{name}: span {span} recorded no time")
            for key, expected in workload.exact_counts().items():
                if metrics[key] != expected:
                    problems.append(f"{name}: {key} = {metrics[key]}, expected {expected}")
    return problems


def check_smile_rejects_biased_kernel():
    import workloads
    from rvol import mc
    from rvol.bergomi import BergomiParams

    params = BergomiParams()
    workload = workloads.WORKLOADS["bergomi-smile"]
    cfg = mc.McConfig(paths=workload.paths, seed=7, workers=1)
    rows = mc.bergomi_smile(
        params,
        workloads.SMILE_GRID,
        cfg,
        workloads.SMILE_LOG_STRIKES,
        kernel_factors=BIASED_SMILE_FACTORS,
    )
    try:
        workloads.smile_check(params, workloads.SMILE_GRID)(rows)
    except workloads.CheckFailed:
        return []
    return [f"smile check passed a {BIASED_SMILE_FACTORS}-factor kernel"]


def main():
    run.load_rvol()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for name in run.WORKLOAD_NAMES:
        found = check_workload(name, declared)
        print(f"{name}: {'ok' if not found else f'{len(found)} problem(s)'}", flush=True)
        problems += found
    found = check_smile_rejects_biased_kernel()
    print(f"biased smile kernel: {'rejected' if not found else 'passed'}", flush=True)
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
