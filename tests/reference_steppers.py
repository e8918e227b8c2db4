"""Scalar per-path reference steppers.

Plain-Python implementations of the rough Heston variance recursions,
used two ways: as vectorization-independent oracles for the batched
numpy engines, and as uniform-cost subjects for the complexity-scaling
measurement (every arithmetic operation costs the same here, so wall
time tracks the operation count of the algorithm rather than BLAS and
cache behaviour).
"""

import math


def scalar_volterra_variance(params, kernel_values, dt, dw):
    """History-sum variance recursion, one path. O(N^2) operations.

    ``kernel_values[m-1]`` holds the kernel at lag m dt; ``dw`` is the
    list of Brownian increments. Returns the variance path of length
    N + 1.
    """
    n_steps = len(dw)
    history = []
    path = [params.V0]
    variance = params.V0
    for k in range(n_steps):
        v_pos = variance if variance > 0.0 else 0.0
        vol = math.sqrt(v_pos)
        history.append(
            (params.theta - params.lam * v_pos) * dt + params.sigma * vol * dw[k]
        )
        acc = 0.0
        for j in range(k + 1):
            acc += kernel_values[k - j] * history[j]
        variance = params.V0 + acc
        path.append(variance)
    return path


def scalar_multifactor_variance(params, weights, rates, dt, dw):
    """Damped-factor variance recursion, one path. O(n N) operations."""
    n_steps = len(dw)
    damp = [math.exp(-r * dt) for r in rates]
    factors = [0.0] * len(weights)
    path = [params.V0]
    variance = params.V0
    for k in range(n_steps):
        v_pos = variance if variance > 0.0 else 0.0
        vol = math.sqrt(v_pos)
        step = (params.theta - params.lam * v_pos) * dt + params.sigma * vol * dw[k]
        acc = 0.0
        for i in range(len(factors)):
            value = damp[i] * (factors[i] + step)
            factors[i] = value
            acc += weights[i] * value
        variance = params.V0 + acc
        path.append(variance)
    return path


def scalar_hybrid_variance(params, weights, rates, dt, drift_weight, dw, d_frac):
    """Hybrid multifactor recursion, one path. O(n N) operations.

    Factors are damped by 1/(1 + r dt); the most recent step enters
    exactly, through ``drift_weight`` and the increments ``d_frac``.
    """
    damp = [1.0 / (1.0 + r * dt) for r in rates]
    predict = [w * math.exp(-r * dt) for w, r in zip(weights, rates)]
    factors = [0.0] * len(weights)
    path = [params.V0]
    variance = params.V0
    for k in range(len(dw)):
        v_pos = variance if variance > 0.0 else 0.0
        shock = params.sigma * math.sqrt(v_pos)
        drift = params.theta - params.lam * v_pos
        acc = 0.0
        for i in range(len(factors)):
            acc += predict[i] * factors[i]
        variance = params.V0 + acc + drift * drift_weight + shock * d_frac[k]
        step = drift * dt + shock * dw[k]
        for i in range(len(factors)):
            factors[i] = damp[i] * (factors[i] + step)
        path.append(variance)
    return path
