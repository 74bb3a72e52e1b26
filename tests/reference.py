"""Plain reference implementations that the tests check the package against.

Each is written apart from the package's vectorized code, so agreement is
evidence: a naive recursive walk of one tree, the per-tree probability built
on it, a textbook row softmax, and the attention readout built on it.
"""

from __future__ import annotations

import math

import numpy as np

from arlif.iforest import c_factor


def recursive_path(tree, x, node=0, depth=0) -> float:
    """Path length of x in one tree (a NODE_DTYPE array in preorder): edges to
    the leaf it reaches, plus c_factor(leaf size), by naive recursion."""
    if tree["f"][node] < 0:
        return depth + c_factor(int(tree["r"][node]))
    if x[tree["f"][node]] < tree["t"][node]:
        return recursive_path(tree, x, node + 1, depth + 1)
    return recursive_path(tree, x, tree["r"][node], depth + 1)


def tree_proba(tree, x, c_psi: float) -> float:
    """Per-tree anomaly probability 2^(-h/c_psi), always in (0, 1]."""
    return 2.0 ** (-recursive_path(tree, x) / c_psi)


def softmax_rows(M) -> np.ndarray:
    """Row-wise exp-normalization of a new array, each row shifted by its max
    first so that no exponent overflows."""
    M = np.asarray(M, dtype=np.float64)
    E = np.exp(M - M.max(axis=-1, keepdims=True))
    return E / E.sum(axis=-1, keepdims=True)


def attention_readout(params, H) -> float:
    """The attention layer's readout before its clamp, with the weights
    normalized before they meet v: the mean of softmax_rows(Q.K^T / sqrt(k)).v."""
    Q = H @ params.Wq + params.bq
    K = H @ params.Wk + params.bk
    v = H @ params.Wv[:, -1] + params.bv[-1]
    return float((softmax_rows(Q @ K.T / math.sqrt(params.k)) @ v).mean())
