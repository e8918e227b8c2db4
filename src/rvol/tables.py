"""Benchmark table definitions.

Deterministic kernel-error tables (t1-t6) and Monte Carlo pricing
tables (t7-t10) over the standard rough Heston test configuration. Each
function returns a (header, rows) pair ready for CSV serialization; the
CLI ``table`` subcommand is a thin wrapper.
"""

from __future__ import annotations

from .kernel import RoughKernelSpec, l2_error_exact
from .mc import HestonModel, McConfig, euro_call, lookback_call, price, rate_factor_estimate
from .quadrature import build_geometric, build_newton_cotes, build_riemann, build_systematic
from .schemes import GridSpec

__all__ = ["TABLE_IDS", "PRICING_TABLE_IDS", "table_rows"]

_HURSTS = (0.45, 0.25, 0.05)
_HORIZON = 1.0
_STEPS = (10, 20, 40, 80, 160, 320)
_EULER = ("multifactor-truncated", "volterra", "hybrid")
_INTEGRATED = ("integrated-multifactor", "integrated-volterra")

# t1-t4: (builder, node rule, n); the errors at n and 2n intervals
_DOUBLING = {
    "t1": (build_riemann, "midpoint", 50),
    "t2": (build_riemann, "barycentric", 50),
    "t3": (build_newton_cotes, "midpoint", 16),
    "t4": (build_newton_cotes, "barycentric", 16),
}
# t7-t10: (payoff, schemes, step counts)
_PRICING = {
    "t7": (euro_call(1.0), _EULER, _STEPS),
    "t8": (lookback_call(1.0), _EULER, _STEPS),
    "t9": (euro_call(1.0), _INTEGRATED, _STEPS[:-1]),
    "t10": (lookback_call(1.0), _INTEGRATED, _STEPS),
}
PRICING_TABLE_IDS = tuple(_PRICING)  # the tables that read a Monte Carlo config
TABLE_IDS = (*_DOUBLING, "t5", "t6", *PRICING_TABLE_IDS)


def _doubling_table(builder, rule: str, n: int):
    """Errors at n and 2n intervals and their rate factor, one row per H."""
    header = ["H", "n", "l2_sq_n", "l2_sq_2n", "rate_factor"]
    rows = []
    for H in _HURSTS:
        spec = RoughKernelSpec(H)
        err_n, err_2n = (
            l2_error_exact(spec, builder(spec, m, node_rule=rule), _HORIZON) for m in (n, 2 * n)
        )
        rows.append([H, n, err_n, err_2n, rate_factor_estimate(err_n, err_2n, H)])
    return header, rows


def _geometric_table():
    """Errors at n = 50, 200 and 400 of the geometric kernel with ratio 3."""
    header = ["H", "l2_sq_50", "l2_sq_200", "l2_sq_400", "rate_factor"]
    rows = []
    for H in _HURSTS:
        spec = RoughKernelSpec(H)
        errs = {}
        for n in (50, 200, 400):
            errs[n] = l2_error_exact(spec, build_geometric(spec, n, 3.0), _HORIZON)
        rows.append(
            [H, errs[50], errs[200], errs[400], rate_factor_estimate(errs[200], errs[400], H)]
        )
    return header, rows


def _systematic_table():
    header = ["H", "n_total", "l2_error"]
    rows = []
    for H, n_total in ((0.45, 10), (0.45, 20), (0.25, 20), (0.25, 40), (0.05, 40), (0.05, 80)):
        spec = RoughKernelSpec(H)
        kern = build_systematic(spec, n_total, _HORIZON)
        rows.append([H, n_total, l2_error_exact(spec, kern, _HORIZON) ** 0.5])
    return header, rows


def _pricing_table(payoff, schemes, steps, cfg: McConfig):
    header = ["N"]
    for scheme in schemes:
        header += [f"{scheme}_mean", f"{scheme}_halfwidth", f"{scheme}_seconds"]
    rows = []
    for N in steps:
        grid = GridSpec(T=_HORIZON, N=N)
        row = [N]
        for scheme in schemes:
            report = price(HestonModel(scheme), payoff, grid, cfg)
            row += [report.mean, report.half_width_95, report.wall_seconds]
        rows.append(row)
    return header, rows


def table_rows(table_id: str, cfg: McConfig | None = None):
    """Header and rows for one benchmark table id (``t1`` .. ``t10``).

    The pricing tables t7-t10 run with ``cfg`` (None: ``McConfig()``);
    the deterministic tables t1-t6 raise ``ValueError`` if given one.
    """
    table_id = table_id.lower()
    if table_id in _PRICING:
        return _pricing_table(*_PRICING[table_id], McConfig() if cfg is None else cfg)
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    if cfg is not None:
        raise ValueError(f"table {table_id!r} runs no Monte Carlo; it reads no McConfig")
    if table_id in _DOUBLING:
        return _doubling_table(*_DOUBLING[table_id])
    if table_id == "t5":
        return _geometric_table()
    return _systematic_table()
