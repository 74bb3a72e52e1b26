"""Plain reference implementations that the tests check the package against.

Each is written apart from the package's vectorized code, so agreement is
evidence: a recursive grower of one tree, a naive recursive walk of one tree,
the per-tree probability built on it, a textbook row softmax, the attention
readout built on it, and a string encoder with transform's scaling over rows
split into their text fields. forest_of joins hand-made trees into a forest.
"""

from __future__ import annotations

import math

import numpy as np

from arlif.iforest import NODE_DTYPE, IsolationForest, c_factor


def recursive_tree(subsample, rng, height_limit: int) -> np.ndarray:
    """One isolation tree grown by recursion, node by node, as NODE_DTYPE records.

    A node becomes a leaf when it holds <= 1 point, sits at the height limit,
    or is constant in every column; otherwise it splits on a uniformly random
    non-constant column at rng.uniform(min, max) of that column, strictly-less
    going left, and its left subtree is grown before its right one.
    """
    X = np.asarray(subsample, dtype=np.float64)
    nodes: list[tuple] = []

    def grow(idx, d):
        node = len(nodes)
        nodes.append((-1, 0.0, int(idx.size)))  # a leaf unless split below
        if idx.size <= 1 or d >= height_limit:
            return node
        pts = X[idx]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        splittable = np.nonzero(hi > lo)[0]
        if splittable.size == 0:
            return node
        col = int(splittable[rng.integers(splittable.size)])
        t = float(rng.uniform(lo[col], hi[col]))
        mask = pts[:, col] < t
        grow(idx[mask], d + 1)  # preorder: the left child is node + 1
        nodes[node] = (col, t, grow(idx[~mask], d + 1))
        return node

    grow(np.arange(X.shape[0]), 0)
    return np.array(nodes, dtype=NODE_DTYPE)


def forest_of(trees, psi: int, n_features: int) -> IsolationForest:
    """The forest whose node table is the trees (NODE_DTYPE arrays) back to back."""
    nodes = np.concatenate([np.empty(0, NODE_DTYPE), *trees])
    return IsolationForest(nodes, [len(t) for t in trees], psi, n_features)


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


def encode_fields(rows, vocab, cols) -> np.ndarray:
    """The string encoder: rows split into their fields -> a (len(rows), len(cols))
    float matrix of the given columns. A field of a vocab column is its position
    in that column's vocabulary, an unseen one one past its end; any other field
    is float() of its text."""
    index = {col: {tok: i for i, tok in enumerate(toks)} for col, toks in vocab.items()}
    out = [[index[col].get(f[col], len(index[col])) if col in index else float(f[col])
            for col in cols] for f in rows]
    return np.array(out, dtype=np.float64).reshape(len(rows), len(cols))


def scale_fields(rows, vocab, min_max, selected) -> np.ndarray:
    """transform over split rows: the selected columns as encode_fields encodes
    them, clamped to their min/max and min-max scaled on it; a column whose min
    equals its max gives 0.0."""
    X = encode_fields(rows, vocab, selected)
    lo, hi = np.array([min_max[c] for c in selected]).T
    span = np.where(lo < hi, hi - lo, 1.0)
    return (np.minimum(np.maximum(X, lo), hi) - lo) / span
