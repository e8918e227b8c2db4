"""rvol: exponential-sum kernel approximation and multifactor Monte Carlo.

The package approximates the singular power kernel of rough volatility
models by finite exponential sums with exactly computable L2 error,
and prices options in rough Heston / rough Bergomi with multifactor
Euler schemes whose cost is linear instead of quadratic in the number
of time steps.
"""

from .bergomi import (
    BergomiParams,
    bs_call_price,
    implied_vol,
    sample_factors_exact,
    sample_fractional_exact,
    sampler_law,
    simulate_bergomi,
)
from .kernel import (
    ExpSumKernel,
    RoughKernelSpec,
    barycenter,
    expsum_eval,
    expsum_inner_products,
    l2_error_discrete,
    l2_error_exact,
    lambda_mass,
    rough_kernel_eval,
    write_kernel_csv,
)
from .mc import (
    BergomiModel,
    CounterRng,
    HestonModel,
    McConfig,
    McReport,
    bergomi_smile,
    euro_call,
    lookback_call,
    paired_compare,
    price,
    rate_factor_estimate,
)
from .numerics import (
    IntegrationError,
    integrate,
    lower_incomplete_gamma,
    minimize_scalar,
    psd_factorize,
)
from .quadrature import (
    build_geometric,
    build_newton_cotes,
    build_riemann,
    build_systematic,
    newton_cotes_coefficients,
    optimize_tail_ratio,
    rescale_weights,
    truncate_factors,
)
from .schemes import (
    GridSpec,
    HestonParams,
    SvePlant,
    heston_hybrid_multifactor,
    heston_integrated_multifactor,
    heston_integrated_volterra,
    heston_multifactor_euler,
    heston_volterra_euler,
    multifactor_euler,
    volterra_euler,
)

__version__ = "0.1.0"
