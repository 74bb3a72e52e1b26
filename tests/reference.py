"""Plain reference implementations that the tests check the package against.

Each is written apart from the package's vectorized code, so agreement is
evidence: a recursive grower of one tree, a naive recursive walk of one tree,
each leaf's depth by the same walk, the per-tree probability built on it, a
textbook row softmax, the attention readout, its gradient and a learn loop
built on it, a record parser that converts one cell at a time, and a string
encoder with transform's scaling over rows split into their text fields.
forest_of joins hand-made trees into a forest, and build_tree runs the
package's grower on one tree, for the tests that grow one.
"""

from __future__ import annotations

import math

import numpy as np

from arlif.attention import EPS, AttentionParams
from arlif.errors import NumericParse
from arlif.iforest import NODE_DTYPE, IsolationForest, _check_finite, _grow, c_factor


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


def build_tree(subsample, rng: np.random.Generator, height_limit: int) -> np.ndarray:
    """The package's grower on one tree over the subsample: its NODE_DTYPE records.

    A node becomes a leaf when it holds <= 1 point, sits at the height
    limit, or is constant in every column; otherwise split on a uniformly
    random non-constant column at a uniform threshold between that
    column's min and max, strictly-less going left. A value or a column
    range that is not finite raises NumericParse before any draw.
    """
    X = np.asarray(subsample, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("subsample must be a non-empty 2-d array of vectors")
    _check_finite(X)
    return _grow(X, np.arange(X.shape[0])[None], [rng], height_limit)[0]


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


def leaf_depths(tree, node=0, depth=0) -> dict:
    """Each leaf of one tree (a NODE_DTYPE array in preorder) and its depth,
    {leaf index: edges from the root}, by the same naive recursion."""
    if tree["f"][node] < 0:
        return {node: depth}
    return {**leaf_depths(tree, node + 1, depth + 1),
            **leaf_depths(tree, tree["r"][node], depth + 1)}


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


def attention_gradient(params, H, label) -> np.ndarray:
    """The gradient of BCE(clamped readout, label) with respect to every
    parameter, in file order (Wq, Wk, Wv, bq, bk, bv), by the chain rule on
    fresh arrays: through the mean over T, A.v with A = softmax_rows of the
    scaled logits, the row softmax's Jacobian and the three affine maps. Zero
    when the clamp moved the readout; the k - 1 value columns that never reach
    the readout get zero by the same products."""
    k, T = params.k, H.shape[0]
    Q = H @ params.Wq + params.bq
    K = H @ params.Wk + params.bk
    V = H @ params.Wv + params.bv
    A = softmax_rows(Q @ K.T / math.sqrt(k))
    r = float((A @ V[:, -1]).mean())
    s = min(max(r, EPS), 1.0 - EPS)
    if s != r:
        return np.zeros(3 * k * (k + 1))
    de = np.full(T, (s - label) / (s * (1.0 - s)) / T)  # dL/de_i
    dA = np.outer(de, V[:, -1])
    dZ = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    dQ = dZ @ K / math.sqrt(k)
    dK = dZ.T @ Q / math.sqrt(k)
    dV = np.zeros((T, k))
    dV[:, -1] = A.T @ de
    blocks = (H.T @ dQ, H.T @ dK, H.T @ dV, dQ.sum(axis=0), dK.sum(axis=0), dV.sum(axis=0))
    return np.concatenate([b.ravel() for b in blocks])


def learn_loop(params, histories, probas, labels, eta: float):
    """learn() over rows of per-tree probabilities, on copies: each row shifts
    the T x k histories one column left, writes its probabilities into the
    last column, and steps the parameters by -eta * attention_gradient.
    Returns the parameter vector, the histories and each row's BCE loss."""
    flat, H, losses = params.flat.copy(), np.array(histories, dtype=np.float64), []
    for p, y in zip(probas, labels):
        H = np.column_stack([H[:, 1:], p])
        now = AttentionParams(flat, params.k)
        s = min(max(attention_readout(now, H), EPS), 1.0 - EPS)
        losses.append(-(y * math.log(s) + (1 - y) * math.log(1.0 - s)))
        flat = flat - eta * attention_gradient(now, H, y)
    return flat, H, losses


def parse_cells(line: str, format: str = "nsl-kdd"):
    """parse_record one cell at a time, for a line of the right field count:
    (values, tokens, label). Each of the 41 feature cells in turn is float() of
    its text, or NaN in the categorical columns 1 to 3, whose text is the token;
    the first that is not a finite number raises NumericParse naming its
    column. A kdd99 label drops one trailing period; an nsl-kdd difficulty
    cell must be a finite number and is dropped. The label is 0 for "normal"
    and 1 otherwise."""
    fields = line.strip().split(",")
    values = []
    for col, cell in enumerate(fields[:41] + ([] if format == "kdd99" else [fields[42]])):
        if col in (1, 2, 3):
            values.append(math.nan)
            continue
        try:
            x = float(cell)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise NumericParse(f"column {col}: {cell!r} is not a finite number")
        values.append(x)
    label = fields[41].removesuffix(".") if format == "kdd99" else fields[41]
    return np.array(values[:41]), tuple(fields[1:4]), 0 if label == "normal" else 1


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
