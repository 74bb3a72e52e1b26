"""Isolation forest: random trees on subsamples, per-tree anomaly probabilities.

A tree is one NODE_DTYPE array, the records a model file holds. IsolationForest
derives a walk table from its trees once, so one vectorized walk reaches every
tree's leaf at once; the scalar path_length / tree_proba are the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModel, InsufficientData

EULER_GAMMA = 0.5772156649

# Node j is a leaf iff f < 0. Internal nodes use (feature f, threshold t,
# left l, right r); leaves use (size s, depth d). The unused half of each
# record is canonically zeroed (f = -1, t = 0.0, l = r = -1 for leaves;
# s = d = 0 for internal nodes) so the serialized form is unique.
NODE_DTYPE = np.dtype(
    [("f", "<i4"), ("t", "<f8"), ("l", "<i4"), ("r", "<i4"), ("s", "<i4"), ("d", "<i4")],
    align=False,
)


def c_factor(n: int) -> float:
    """Average unsuccessful-BST search path over n points.

    0 for n <= 1, exactly 1 for n == 2, and the standard
    2(ln(n-1) + gamma) - 2(n-1)/n approximation for larger n.
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    nm1 = n - 1.0
    return 2.0 * (math.log(nm1) + EULER_GAMMA) - 2.0 * nm1 / n


def build_tree(subsample, rng: np.random.Generator, height_limit: int) -> np.ndarray:
    """Grow one isolation tree over the subsample; returns its NODE_DTYPE records.

    A node becomes a leaf when it holds <= 1 point, sits at the height
    limit, or is constant in every column; otherwise split on a uniformly
    random non-constant column at a uniform threshold between that
    column's min and max, strictly-less going left.
    """
    X = np.asarray(subsample, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("subsample must be a non-empty 2-d array of vectors")
    nodes: list[tuple] = []

    def grow(idx: np.ndarray, d: int) -> int:
        node = len(nodes)
        nodes.append((-1, 0.0, -1, -1, int(idx.size), d))  # a leaf unless split below
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
        li = grow(idx[mask], d + 1)
        ri = grow(idx[~mask], d + 1)
        nodes[node] = (col, t, li, ri, 0, 0)
        return node

    grow(np.arange(X.shape[0]), 0)
    return np.array(nodes, dtype=NODE_DTYPE)


@dataclass(eq=False)
class IsolationForest:
    """T frozen trees and their walk table; bad trees or psi raise CorruptModel."""

    trees: list[np.ndarray]
    psi: int  # effective subsample size
    n_features: int
    c_psi: float = field(init=False)
    height_limit: int = field(init=False)

    def __post_init__(self):
        if not self.trees or min(map(len, self.trees)) == 0 or self.psi < 2:
            raise CorruptModel(f"a forest needs nonempty trees and psi >= 2, got "
                               f"{len(self.trees)} trees, psi {self.psi}")
        self.c_psi = c_factor(self.psi)
        self.height_limit = h = int(math.ceil(math.log2(self.psi)))

        # All trees back to back; j is a node's index in that table.
        sizes = np.array([len(t) for t in self.trees], dtype=np.int32)
        self._roots = roots = np.cumsum(sizes, dtype=np.int32) - sizes
        rec = np.frombuffer(b"".join(tree.tobytes() for tree in self.trees), NODE_DTYPE)
        f, t, l, r, s, d = (rec[name].copy() for name in NODE_DTYPE.names)
        j = np.arange(rec.size, dtype=np.int32)
        base = np.repeat(roots, sizes)
        left, right = base + l, base + r  # an int32 wrap lands below j and is rejected
        inner = f >= 0

        for bad, what in (
            (inner & ((np.minimum(left, right) <= j)
                      | (np.maximum(left, right) >= base + np.repeat(sizes, sizes))),
             "children must satisfy parent < child < n_nodes"),
            (inner & (f >= self.n_features), f"feature outside [0, {self.n_features})"),
            # f, l and r all -1; a negative size or depth wraps above its bound
            (~inner & ~(((f & l & r) == -1) & (t == 0.0) & (s.view(np.uint32) <= self.psi)
                        & (d.view(np.uint32) <= h)), "non-canonical leaf"),
        ):
            if bad.any():
                tree = int(np.searchsorted(roots, np.argmax(bad), "right")) - 1
                raise CorruptModel(f"tree {tree}: {what}")

        # Leaves link to themselves (after reading x[-1]): every walk takes h steps.
        np.copyto(left, j, where=~inner)
        np.copyto(right, j, where=~inner)
        level = roots
        for _ in range(h):
            level = level[inner[level]]
            level = np.concatenate([left[level], right[level]])
            if level.size > rec.size:
                raise CorruptModel("a node has more than one parent")
        if inner[level].any():
            raise CorruptModel(f"a leaf is not reached within {h} steps")
        self._feature, self._threshold = f, t
        self._next = np.stack([right, left], axis=1).ravel()  # [2j] if x >= t, else [2j + 1]

        # Each node's slot in _path / _proba, which apply the scalar c_factor and
        # ** per distinct (depth, size): numpy's vectorized ** may differ in the last ulp.
        at = np.flatnonzero(~inner)
        key = d[at].astype(np.int64) << 32 | s[at]
        keys = np.sort(key)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self._slot = np.zeros(rec.size, dtype=np.int32)
        self._slot[at] = np.searchsorted(keys, key)
        paths = [kd + c_factor(ks) for kd, ks in (divmod(k, 1 << 32) for k in keys.tolist())]
        self._path = np.array(paths)
        self._proba = np.array([2.0 ** (-p / self.c_psi) for p in paths])

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def build_forest(data, T: int, psi: int, seed: int) -> IsolationForest:
    """Build T trees, each on a without-replacement subsample of min(psi, n).

    Every tree draws from its own random stream, derived deterministically
    from (seed, tree index), so construction order (or parallelism) cannot
    change the result.
    """
    if psi < 2:
        raise ValueError(f"psi must be >= 2, got {psi}")
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InsufficientData("forest construction needs at least 2 points")
    n = X.shape[0]
    eff_psi = min(psi, n)
    height_limit = int(math.ceil(math.log2(eff_psi)))
    trees = []
    for i in range(T):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        idx = rng.choice(n, size=eff_psi, replace=False)
        trees.append(build_tree(X[idx], rng, height_limit))
    return IsolationForest(trees=trees, psi=eff_psi, n_features=int(X.shape[1]))


def _leaf_slots(forest: IsolationForest, X) -> np.ndarray:
    """Slot of the leaf each point reaches in each tree, in tree order: one walk
    for all T trees, and for a block of points all N of them at once.

    X is one vector (m,), giving (T,) slots, or a block (N, m), giving (N, T).
    """
    X = np.asarray(X, dtype=np.float64)
    rows = () if X.ndim == 1 else (np.arange(X.shape[0])[:, None],)
    j = forest._roots
    for _ in range(forest.height_limit):
        j = forest._next[2 * j + (X[(*rows, forest._feature[j])] < forest._threshold[j])]
    return forest._slot[j]


def forest_probas(forest: IsolationForest, X) -> np.ndarray:
    """Every tree's anomaly probability for one vector (T,) or a block (N, T);
    entry i equals tree_proba(trees[i], ...)."""
    return forest._proba[_leaf_slots(forest, X)]


def forest_score(forest: IsolationForest, X):
    """Classical forest score 2^(-mean path length / c_psi): a float for one
    vector, an (N,) array for a block (N, m).

    cumsum adds each point's path lengths in tree order, as path_length's sum
    would (np.sum adds pairwise), and ** runs per point on Python floats, since
    numpy's vectorized ** may differ in the last ulp.
    """
    total = np.cumsum(forest._path[_leaf_slots(forest, X)], axis=-1)[..., -1]
    e = -(total / len(forest.trees)) / forest.c_psi
    if e.ndim == 0:
        return 2.0 ** float(e)
    return np.array([2.0 ** x for x in e.tolist()])


def path_length(tree: np.ndarray, x) -> float:
    """Depth of the leaf reached by x, plus c_factor(leaf size): the scalar reference."""
    feature, threshold, left, right = tree["f"], tree["t"], tree["l"], tree["r"]
    j = 0
    while feature[j] >= 0:
        j = left[j] if x[feature[j]] < threshold[j] else right[j]
    return int(tree["d"][j]) + c_factor(int(tree["s"][j]))


def tree_proba(tree: np.ndarray, x, c_psi: float) -> float:
    """Per-tree anomaly probability 2^(-h/c_psi), always in (0, 1]."""
    return 2.0 ** (-path_length(tree, x) / c_psi)
