"""Command line interface.

Subcommands: ``kernel`` (build an exponential-sum kernel and report its
errors), ``table`` (emit a benchmark table as CSV), ``price`` (Monte
Carlo option price as JSON), ``smile`` (rough Bergomi implied-vol smile
CSV for both sampling modes) and ``path-dump`` (single trajectory CSV).
Scalar results go to stdout as JSON; vector results are CSV. The
``RVOL_WORKERS`` environment variable overrides the default worker
count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bergomi import BergomiParams
from .kernel import (
    ExpSumKernel,
    RoughKernelSpec,
    l2_error_discrete,
    l2_error_exact,
    write_kernel_csv,
)
from .mc import (
    BergomiModel,
    CounterRng,
    HestonModel,
    McConfig,
    bergomi_smile,
    euro_call,
    lookback_call,
    price,
)
from .numerics import require_count
from .quadrature import build_geometric, build_newton_cotes, build_riemann, build_systematic
from .schemes import GridSpec, IntegratedPaths
from .tables import PRICING_TABLE_IDS, TABLE_IDS, table_rows

# the config keys each method reads besides method, hurst, n and horizon;
# riemann-mid and riemann-bary name their node rule
_METHOD_KEYS = {
    "riemann-mid": ("truncation",),
    "riemann-bary": ("truncation",),
    "simpson": ("truncation", "beta", "order", "node_rule"),
    "newton-cotes": ("truncation", "beta", "order", "node_rule"),
    "geometric": ("truncation", "tail_ratio"),
    "systematic": (),
}
_METHODS = tuple(_METHOD_KEYS)
_COMMON_KEYS = ("method", "hurst", "n", "horizon")
_KERNEL_FLAGS = _COMMON_KEYS + ("truncation", "beta", "order", "tail_ratio", "node_rule")


def _mc_config(args) -> McConfig | None:
    """The run's :class:`McConfig` from the flags given; None for a deterministic table.

    A deterministic table reads none of ``--paths``, ``--seed``,
    ``--workers`` and ``--paper-scale``, and raises ``ValueError`` if
    given one. ``--paper-scale`` means ``--paths 1000000`` and does not
    combine with it; ``--workers`` falls back to ``RVOL_WORKERS``.
    ``McConfig`` supplies every value no flag gives.
    """
    flags = {name: vars(args)[name] for name in ("paths", "seed", "workers")}
    flags = {name: value for name, value in flags.items() if value is not None}
    given = [f"--{name}" for name in flags] + (["--paper-scale"] if args.paper_scale else [])
    if args.command == "table" and args.id not in PRICING_TABLE_IDS:
        if given:
            names = ", ".join(given)
            raise ValueError(f"table {args.id!r} runs no Monte Carlo; it reads no {names}")
        return None
    if args.paper_scale:
        if "paths" in flags:
            raise ValueError("--paper-scale sets the path count; it does not combine with --paths")
        flags["paths"] = 1_000_000
    env = os.environ.get("RVOL_WORKERS", "")
    if env and "workers" not in flags:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"RVOL_WORKERS must be a positive integer, got {env!r}")
        flags["workers"] = int(env)
    return McConfig(**flags)


def _check_config(config: dict, from_flags: bool) -> None:
    """``ValueError`` for a missing or unknown key, or a value of the wrong type.

    ``n`` and ``order`` must be integers and the other numeric keys
    numbers. A key the method does not read is an error, named as its
    flag when the config came from flags.
    """
    for key in ("method", "hurst", "n"):
        if config.get(key) is None:
            raise ValueError(f"{key!r} is required (flag --{key} or config key)")
    method = config["method"]
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    unread = [key for key in config if key not in _COMMON_KEYS + _METHOD_KEYS[method]]
    if unread:
        names = [f"--{key.replace('_', '-')}" if from_flags else repr(key) for key in unread]
        raise ValueError(f"method {method!r} does not read {', '.join(names)}")
    for key in ("n", "order"):
        if key in config:
            require_count(config[key], repr(key))
    for key in ("hurst", "horizon", "truncation", "beta", "tail_ratio"):
        value = config.get(key, 0.0)  # an absent key takes its default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key!r} must be a number, got {value!r}")


def _build_kernel(config: dict, spec: RoughKernelSpec, horizon: float) -> ExpSumKernel:
    method, n = config["method"], config["n"]
    truncation = config.get("truncation")
    if method in ("riemann-mid", "riemann-bary"):
        rule = "midpoint" if method == "riemann-mid" else "barycentric"
        return build_riemann(spec, n, truncation, rule)
    if method in ("simpson", "newton-cotes"):
        order = config.get("order", 2)
        if method == "simpson" and order != 2:
            raise ValueError("Simpson rule is the J = 2 Newton-Cotes rule")
        rule = config.get("node_rule", "midpoint")
        return build_newton_cotes(spec, n, truncation, config.get("beta"), order, rule)
    if method == "geometric":
        return build_geometric(spec, n, config.get("tail_ratio", 3.0), truncation)
    return build_systematic(spec, n, horizon)


def _cmd_kernel(args) -> int:
    given = {key: getattr(args, key) for key in _KERNEL_FLAGS if getattr(args, key) is not None}
    if args.config:
        if given:
            flags = ", ".join(f"--{key.replace('_', '-')}" for key in given)
            raise ValueError(f"--config does not combine with {flags}")
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("the kernel config must be a JSON object")
    else:
        config = {"hurst": 0.1, "n": 100, **given}
    _check_config(config, from_flags=not args.config)
    spec = RoughKernelSpec(float(config["hurst"]))
    horizon = float(config.get("horizon", 1.0))
    kernel = _build_kernel(config, spec, horizon)
    err_sq = l2_error_exact(spec, kernel, horizon)
    summary = {
        "method": config["method"],
        "n_factors": kernel.n,
        "l2_error_sq": err_sq,
        "l2_error": math.sqrt(err_sq),
        "discrete_l2_error": l2_error_discrete(spec, kernel, horizon, args.steps),
        "out": args.out,
    }
    # written last, so that a rejected input leaves no file behind
    if args.out:
        write_kernel_csv(kernel, args.out)
    print(json.dumps(summary))
    return 0


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table(args) -> int:
    header, rows = table_rows(args.id, args.cfg)
    _write_csv(args.out, header, rows)
    return 0


def _model(args) -> HestonModel | BergomiModel:
    """Descriptor of ``--model``/``--scheme``; rejects an unknown scheme or unread ``--factors``."""
    if args.model == "heston":
        hurst = {} if args.hurst is None else {"hurst": args.hurst}
        return HestonModel(scheme=args.scheme, **hurst, kernel_factors=args.factors)
    params = BergomiParams() if args.hurst is None else BergomiParams(H=args.hurst)
    return BergomiModel(mode=args.scheme, params=params, kernel_factors=args.factors)


def _cmd_price(args) -> int:
    grid = GridSpec(T=args.horizon, N=args.steps)
    model = _model(args)
    payoff = (euro_call if args.payoff == "euro-call" else lookback_call)(args.strike)
    report = price(model, payoff, grid, args.cfg)
    print(report.to_json())
    return 0


# `rvol smile` flags and the BergomiParams fields they set; an absent flag
# leaves the field at its default
_SMILE_FIELDS = {"spot": "S0", "variance": "v0", "eta": "eta", "rho": "rho", "hurst": "H"}


def _cmd_smile(args) -> int:
    if args.points < 1:
        raise ValueError(f"need --points >= 1, got {args.points}")
    if not args.kmin < args.kmax and args.points > 1:
        raise ValueError("need kmin < kmax")
    given = {field: getattr(args, flag) for flag, field in _SMILE_FIELDS.items()}
    params = BergomiParams(**{field: value for field, value in given.items() if value is not None})
    grid = GridSpec(T=args.horizon, N=args.steps)
    ks = np.linspace(args.kmin, args.kmax, args.points)  # [kmin] for one point
    rows = bergomi_smile(params, grid, args.cfg, ks, kernel_factors=args.factors)
    _write_csv(args.out, ["mode", "k", "price", "ci_halfwidth", "implied_vol"], rows)
    return 0


def _cmd_path_dump(args) -> int:
    grid = GridSpec(T=args.horizon, N=args.steps)
    model = _model(args)
    rng, plan = CounterRng(args.seed), model.plan(grid)
    normals = rng.normals_block(0, 1, grid.N, plan.comps)
    paths = model.simulate_paths(plan, normals)
    column = "integrated_variance" if isinstance(paths, IntegratedPaths) else "variance"
    states = [np.exp(paths.log_price[0]), getattr(paths, column)[0]]
    header = ["t", "price", column]
    rows = [
        [t] + [component[i] for component in states]
        for i, t in enumerate(grid.times())
    ]
    _write_csv(args.out, header, rows)
    return 0


def _add_mc_flags(parser):
    # --paths and --seed default to None, so that a flag the command would ignore is seen
    parser.add_argument("--paths", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--paper-scale", action="store_true", help="use 10^6 paths")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rvol")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="build an exponential-sum kernel")
    p_kernel.add_argument("--config", help="JSON config naming the method and parameters")
    p_kernel.add_argument("--method", choices=_METHODS)
    # each kernel flag defaults to None, so that a flag given with --config is seen
    p_kernel.add_argument("--hurst", type=float)
    p_kernel.add_argument("--n", type=int)
    p_kernel.add_argument("--horizon", type=float)
    p_kernel.add_argument("--truncation", type=float)
    p_kernel.add_argument("--beta", type=float)
    p_kernel.add_argument("--order", type=int)
    p_kernel.add_argument("--tail-ratio", type=float)
    p_kernel.add_argument("--node-rule", choices=("midpoint", "barycentric"))
    p_kernel.add_argument("--steps", type=int, default=160)
    p_kernel.add_argument("--out", default=None)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_table = sub.add_parser("table", help="emit a benchmark table as CSV")
    p_table.add_argument("--id", required=True, type=str.lower, choices=TABLE_IDS)
    p_table.add_argument("--out", default=None)
    _add_mc_flags(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_price = sub.add_parser("price", help="Monte Carlo option price")
    p_price.add_argument("--model", required=True, choices=("heston", "bergomi"))
    p_price.add_argument("--scheme", required=True)
    p_price.add_argument("--payoff", choices=("euro-call", "lookback-call"), default="euro-call")
    p_price.add_argument("--strike", type=float, default=1.0)
    p_price.add_argument("--hurst", type=float, default=None)
    p_price.add_argument("--factors", type=int, default=None)
    p_price.add_argument("--steps", type=int, default=160)
    p_price.add_argument("--horizon", type=float, default=1.0)
    _add_mc_flags(p_price)
    p_price.set_defaults(func=_cmd_price)

    p_smile = sub.add_parser("smile", help="rough Bergomi implied-vol smile")
    p_smile.add_argument("--kmin", type=float, default=-0.10)
    p_smile.add_argument("--kmax", type=float, default=0.05)
    p_smile.add_argument("--points", type=int, default=16)
    p_smile.add_argument("--steps", type=int, default=20)
    p_smile.add_argument("--horizon", type=float, default=0.041)
    for flag in _SMILE_FIELDS:
        p_smile.add_argument(f"--{flag}", type=float, default=None)
    p_smile.add_argument("--factors", type=int, default=None)
    p_smile.add_argument("--out", default=None)
    _add_mc_flags(p_smile)
    p_smile.set_defaults(func=_cmd_smile)

    p_dump = sub.add_parser(
        "path-dump",
        help="dump one simulated trajectory as CSV",
        description="Dump one simulated trajectory as CSV. The path is simulated alone, so "
        "its last bits can differ from path 0 of a priced run with the same seed: the "
        "engines' products pick gemv or gemm, and their kernels, by the number of paths.",
    )
    p_dump.add_argument("--model", required=True, choices=("heston", "bergomi"))
    p_dump.add_argument("--scheme", required=True)
    p_dump.add_argument("--hurst", type=float, default=None)
    p_dump.add_argument("--factors", type=int, default=None)
    p_dump.add_argument("--steps", type=int, default=20)
    p_dump.add_argument("--horizon", type=float, default=1.0)
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(func=_cmd_path_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "workers" in vars(args):  # the Monte Carlo commands
            args.cfg = _mc_config(args)
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
