"""Central finite-difference oracle for the attention backward pass."""

from __future__ import annotations

import numpy as np

from arlif.attention import AttentionParams, bce_loss, forward


def fd_grads(params: AttentionParams, H, label, h: float = 1e-6) -> AttentionParams:
    """Numerical gradient of BCE(forward(params, H), label), one scalar at a time."""
    grad = AttentionParams(np.zeros_like(params.flat), params.k)
    flat = params.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        s_hi, _ = forward(params, H)
        flat[i] = orig - h
        s_lo, _ = forward(params, H)
        flat[i] = orig
        grad.flat[i] = (bce_loss(s_hi, label) - bce_loss(s_lo, label)) / (2.0 * h)
    return grad


def grad_errors(analytic: AttentionParams, numeric: AttentionParams,
                floor: float = 1e-6) -> tuple[float, float]:
    """(max relative error over entries above `floor`, max absolute error below).

    The floor keeps true-zero gradient entries — where finite differences
    return only rounding noise — out of the relative statistic; those
    entries are held to an absolute bound instead.
    """
    a, n = analytic.flat, numeric.flat
    err = np.abs(a - n)
    denom = np.maximum(np.abs(a), np.abs(n))
    big = denom > floor
    max_rel = float((err[big] / denom[big]).max()) if big.any() else 0.0
    max_abs_small = float(err[~big].max()) if (~big).any() else 0.0
    return max_rel, max_abs_small
