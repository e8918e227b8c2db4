"""Regenerate the stored Heston reference prices used by the correctness check.

The published 1e6-path references cover only multifactor-truncated and
integrated-multifactor at N = 160. For every other (scheme, N) the
benchmark runs, this script prices the euro call at strike 1 with many
paths and prints the (mean, half-width) pairs to paste into
``REF_HESTON`` in ``workloads.py``. Run it from the repository root:

    python3 perfbench/make_refs.py
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from rvol.mc import HestonModel, McConfig, euro_call, price  # noqa: E402
from rvol.schemes import GridSpec, HestonParams  # noqa: E402

CASES = (
    ("volterra", 160),
    ("hybrid", 160),
    ("volterra", 640),
    ("multifactor-truncated", 640),
    ("multifactor-truncated", 160),
    ("integrated-multifactor", 160),
)
# the stored references in workloads.py were made with these
PATHS = 1 << 20
SEED = 7_000_001


def main():
    cfg = McConfig(paths=PATHS, seed=SEED, workers=1)
    for scheme, n_steps in CASES:
        model = HestonModel(scheme=scheme, params=HestonParams(), hurst=0.1)
        report = price(model, euro_call(1.0), GridSpec(T=1.0, N=n_steps), cfg)
        print(
            f'    ("{scheme}", {n_steps}): ({report.mean:.6f}, {report.half_width_95:.2e}),'
            f"  # {report.paths} paths, seed {SEED}, {report.wall_seconds:.0f} s",
            flush=True,
        )


if __name__ == "__main__":
    main()
