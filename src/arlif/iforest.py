"""Isolation forest: random trees on subsamples, per-tree anomaly probabilities.

build_forest grows all T trees together. A node is a segment of one array
holding every tree's subsample as row numbers into the data, and a split
partitions its segment in place, so no tree holds a copy of its subsample.
Each step takes from every tree that has one its next node in preorder that
may split (the leaves before it are emitted on the way). For all taken nodes
at once, one gather and two reduceat give each column's min and max, and one
stable argsort partitions every segment; only each tree's own two draws run
node by node. build_tree is the same grower with one tree.

A forest is one NODE_DTYPE table, its trees back to back in preorder as in a model
file, and their sizes. IsolationForest derives walk tables from it once (each node's
feature, threshold and two successors, a leaf leading to itself, and each leaf's path
length and probability), so one walk of height_limit steps, 1-D takes from the tables
and a flat C-order copy of the points, reaches every tree's leaf for a point or a block.

path_length is unused here: the benchmark's mean_path_length calls it, and it
moves to tests/reference.py with the next benchmark change (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CorruptModel, DimensionMismatch, InsufficientData, NumericParse

EULER_GAMMA = 0.5772156649

# Node j is a leaf iff f < 0. Trees are in preorder, so an internal node's left
# child is j + 1: it holds its feature f, threshold t and tree-relative right
# child r. A leaf holds f = -1, t = +0.0 and its size in r. Depth is derived at
# load as the walk's length, so a forest has exactly one serialized form.
NODE_DTYPE = np.dtype([("f", "<i4"), ("t", "<f8"), ("r", "<i4")], align=False)


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


def _check_finite(X: np.ndarray) -> None:
    """Raise NumericParse unless every value, and every column's max - min, is a
    finite number: a threshold is drawn as lo + (hi - lo) * u, so a NaN, an
    infinity or a range that overflows would give no threshold."""
    with np.errstate(over="ignore", invalid="ignore"):
        span = X.max(axis=0) - X.min(axis=0)
    bad = np.flatnonzero(~np.isfinite(span))
    if bad.size:
        col = int(bad[0])
        what = "max - min" if np.isfinite(X[:, col]).all() else "a value"
        raise NumericParse(f"column {col}: {what} is not a finite number")


def _grow(X: np.ndarray, subsamples: np.ndarray, rngs: list, height_limit: int) -> tuple:
    """Grow tree i over the rows subsamples[i] of X, drawing from rngs[i], all
    trees together; returns the NODE_DTYPE table of every tree back to back, and their sizes."""
    n_trees, size = subsamples.shape
    if X.shape[1] == 0:
        height_limit = 0  # with no column, every root is a leaf
    order = subsamples.ravel().copy()
    f, t, r, owner = [], [], [], []  # each record as emitted, in preorder within its tree
    sizes = [0] * n_trees
    # Pending nodes (start, size, depth, parent): the segment order[start:start + size],
    # and the record whose right child the node is (-1 for a left child, its parent + 1).
    stacks = [[(i * size, size, 0, -1)] for i in range(n_trees)]
    live = list(range(n_trees))
    while live:
        taken = []  # (tree, record, start, size, depth) of the nodes that may split
        for i in live:
            stack = stacks[i]
            while stack:
                start, c, d, parent = stack.pop()
                j = len(r)
                if parent >= 0:
                    r[parent] = sizes[i]
                f.append(-1)  # a leaf unless split below
                t.append(0.0)
                r.append(c)
                owner.append(i)
                sizes[i] += 1
                if c > 1 and d < height_limit:
                    taken.append((i, j, start, c, d))
                    break
        if not taken:
            break
        tree, node, start, count, depth = zip(*taken)
        counts = np.array(count)
        offsets = np.cumsum(counts) - counts
        pos = np.arange(offsets[-1] + counts[-1]) + np.repeat(np.array(start) - offsets, counts)
        rows = order[pos]
        pts = X[rows]
        lo = np.minimum.reduceat(pts, offsets)
        hi = np.maximum.reduceat(pts, offsets)
        del pts
        splittable = hi > lo
        ks = np.count_nonzero(splittable, axis=1).tolist()
        # Each tree's own draws in its own order: the rank of the column, then u.
        rank, u = np.zeros(len(ks), dtype=np.intp), np.zeros(len(ks))
        for a, (i, k) in enumerate(zip(tree, ks)):
            if k:
                rank[a] = rngs[i].integers(k)
                u[a] = rngs[i].random()
        at = np.arange(len(ks))
        col = np.argmax(np.cumsum(splittable, axis=1) > rank[:, None], axis=1)
        lo, hi = lo[at, col], hi[at, col]
        thr = lo + (hi - lo) * u  # rng.uniform(lo, hi), bit for bit
        # Strictly-less first within each segment; a node that does not split moves nothing.
        left = X[rows, np.repeat(col, counts)] < np.repeat(thr, counts)
        n_left = np.add.reduceat(left, offsets, dtype=np.intp).tolist()
        order[pos] = rows[np.argsort(2 * np.repeat(at, counts) + ~left, kind="stable")]
        for i, j, s, c, d, k, fj, tj, nl in zip(tree, node, start, count, depth, ks,
                                                col.tolist(), thr.tolist(), n_left):
            if k:  # push right, then left, so that the left child is visited next
                f[j], t[j] = fj, tj
                stacks[i] += (s + nl, c - nl, d + 1, j), (s, nl, d + 1, -1)
        live = [i for i in live if stacks[i]]
    nodes = np.empty(len(r), dtype=NODE_DTYPE)
    nodes["f"], nodes["t"], nodes["r"] = f, t, r
    return nodes[np.argsort(owner, kind="stable")], np.array(sizes)


def build_tree(subsample, rng: np.random.Generator, height_limit: int) -> np.ndarray:
    """Grow one isolation tree over the subsample; returns its NODE_DTYPE records.

    A node becomes a leaf when it holds <= 1 point, sits at the height
    limit, or is constant in every column; otherwise split on a uniformly
    random non-constant column at a uniform threshold between that
    column's min and max, strictly-less going left. A value or a column
    range that is not finite raises NumericParse.
    """
    X = np.asarray(subsample, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("subsample must be a non-empty 2-d array of vectors")
    _check_finite(X)
    return _grow(X, np.arange(X.shape[0])[None], [rng], height_limit)[0]


@dataclass(eq=False)
class IsolationForest:
    """T frozen trees and their walk tables; bad nodes, sizes, psi or n_features: CorruptModel."""

    nodes: np.ndarray  # NODE_DTYPE records, every tree back to back in preorder
    sizes: np.ndarray  # each tree's record count, in tree order
    psi: int  # effective subsample size
    n_features: int
    c_psi: float = field(init=False)
    height_limit: int = field(init=False)
    n_trees: int = field(init=False)

    @staticmethod
    def height_limit_for(psi: int) -> int:
        """ceil(log2 psi), the depth at which build_tree stops; psi < 2 raises CorruptModel."""
        if psi < 2:
            raise CorruptModel(f"a forest needs psi >= 2, got {psi}")
        return math.ceil(math.log2(psi))

    def __post_init__(self):
        self.height_limit = h = self.height_limit_for(self.psi)
        self.sizes = sizes = np.asarray(self.sizes, dtype=np.intp)
        rec = self.nodes
        if not sizes.size or sizes.min() < 1 or self.n_features < 1:
            raise CorruptModel(f"a forest needs nonempty trees over one or more features, "
                               f"got {sizes.size} trees, {self.n_features} features")
        if sizes.sum() != rec.size:
            raise CorruptModel(f"tree sizes add up to {sizes.sum()}, not the {rec.size} nodes")
        self.c_psi, self.n_trees = c_factor(self.psi), sizes.size

        # j is a node's index in the table, base its tree's root
        roots = np.cumsum(sizes) - sizes
        f, t, r = (rec[name].copy() for name in NODE_DTYPE.names)
        j = np.arange(rec.size, dtype=np.intp)
        base = np.repeat(roots, sizes)
        inner = f >= 0
        # A leaf links to itself (after reading x[-1]), so every walk takes h steps.
        left, right = j + inner, np.where(inner, base + r, j)

        def reject(bad, what):
            if bad.any():
                tree = int(np.searchsorted(roots, np.argmax(bad), "right")) - 1
                raise CorruptModel(f"tree {tree}: {what}")
        reject(inner & ((right <= left) | (right >= base + np.repeat(sizes, sizes))),
               "children must satisfy j + 1 < right < n_nodes")
        reject(inner & (f >= self.n_features), f"feature outside [0, {self.n_features})")
        # f is -1, t is +0.0 bit for bit, and a negative size wraps above psi
        reject(~inner & ~((f == -1) & (t.view(np.uint64) == 0) & (r.view(np.uint32) <= self.psi)),
               "non-canonical leaf")

        levels = [roots]  # the nodes the walk reaches in 0, 1, ..., h steps
        for _ in range(h):
            level = levels[-1][inner[levels[-1]]]
            levels.append(np.concatenate([level + 1, right[level]]))
            if sum(map(len, levels)) > rec.size:  # more visits than nodes
                raise CorruptModel("a node has more than one parent")
        if inner[levels[-1]].any():
            raise CorruptModel(f"a leaf is not reached within {h} steps")
        # If no node is missed, each is reached once: a tree, which is in preorder iff
        # every left subtree (from j + 1 to the right child) has one more leaf than inner node.
        seen = np.concatenate(levels)
        balance = 2 * (np.cumsum(inner, dtype=np.int32) - inner) - j
        reject((np.bincount(seen, minlength=rec.size) == 0) | (balance[right] != balance),
               "nodes are not one tree in preorder")
        # the walk's tables, indices in intp, which take reads without a cast
        self._roots, self._feature, self._threshold = roots, f.astype(np.intp), t
        self._next = np.stack([right, left], axis=1, dtype=np.intp).ravel()

        # Each node's slot in _path / _proba, which apply the scalar c_factor and
        # ** per distinct (depth, size): numpy's vectorized ** may differ in the last ulp.
        depth = np.repeat(np.arange(h + 1), [level.size for level in levels])  # of each in seen
        at = np.flatnonzero(~inner[seen])
        keys, slots = np.unique(depth[at] << 32 | r[seen[at]], return_inverse=True)
        self._slot = np.zeros(rec.size, dtype=np.intp)
        self._slot[seen[at]] = slots
        paths = [kd + c_factor(ks) for kd, ks in (divmod(k, 1 << 32) for k in keys.tolist())]
        self._path = np.array(paths)
        self._proba = np.array([2.0 ** (-p / self.c_psi) for p in paths])

    @cached_property
    def trees(self) -> tuple[np.ndarray, ...]:
        """Each tree's records, a view into nodes; for oracles that walk one tree."""
        return tuple(np.split(self.nodes, self._roots[1:]))


def build_forest(data, T: int, psi: int, seed: int) -> IsolationForest:
    """Build T trees, each on a without-replacement subsample of min(psi, n).

    Tree i draws from its own random stream, SeedSequence(seed, spawn_key=(i,)):
    its subsample, then for each node that may split, in preorder, the rank of
    its column and a uniform u. A tree depends only on the order of its own
    draws, so growing the trees interleaved, one node of each per step, gives
    the trees that growing them one after another would. Data holding a value,
    or a column range, that is not a finite number raises NumericParse before
    any draw.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InsufficientData("forest construction needs at least 2 points")
    _check_finite(X)
    n = X.shape[0]
    eff_psi = min(psi, n)
    height_limit = IsolationForest.height_limit_for(eff_psi)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            for i in range(T)]
    subsamples = np.array([rng.choice(n, size=eff_psi, replace=False) for rng in rngs],
                          dtype=np.intp).reshape(len(rngs), eff_psi)
    return IsolationForest(*_grow(X, subsamples, rngs, height_limit), eff_psi, int(X.shape[1]))


def _leaf_slots(forest: IsolationForest, X) -> np.ndarray:
    """Slot of the leaf each point reaches in each tree, in tree order: one walk
    for all T trees and all N points of a block.

    X is one vector (m,), giving (T,) slots, or a block (N, m), giving (N, T);
    another shape raises DimensionMismatch: a narrow row would read the next."""
    X, m = np.asarray(X, dtype=np.float64), forest.n_features
    if X.ndim not in (1, 2) or X.shape[-1] != m:
        raise DimensionMismatch(f"the forest walks vectors of {m} features, got shape {X.shape}")
    xf, j, rows = X.ravel(), forest._roots, None
    if X.ndim == 2:  # every point starts at every root; point i's features start at i * m
        j, rows = np.broadcast_to(j, (len(X), j.size)), np.arange(0, X.size, m)[:, None]
    for _ in range(forest.height_limit):
        f = forest._feature.take(j)
        if rows is not None:
            f += rows
        step = j + j  # _next[2j] if x >= t, else _next[2j + 1]
        step += xf.take(f) < forest._threshold.take(j)
        j = forest._next.take(step)
    return forest._slot.take(j)


def forest_probas(forest: IsolationForest, X) -> np.ndarray:
    """Every tree's anomaly probability 2^(-h/c_psi), h the path length to the
    leaf the point reaches, for one vector (T,) or a block (N, T)."""
    return forest._proba.take(_leaf_slots(forest, X))


def forest_score(forest: IsolationForest, X):
    """Classical forest score 2^(-mean path length / c_psi): a float for one
    vector, an (N,) array for a block (N, m).

    cumsum adds each point's path lengths in tree order, as a Python sum over
    the trees would (np.sum adds pairwise), and ** runs per point on Python
    floats, since numpy's vectorized ** may differ in the last ulp.
    """
    total = np.cumsum(forest._path[_leaf_slots(forest, X)], axis=-1)[..., -1]
    e = -(total / forest.n_trees) / forest.c_psi
    if e.ndim == 0:
        return 2.0 ** float(e)
    return np.array([2.0 ** x for x in e.tolist()])


def path_length(tree: np.ndarray, x) -> float:
    """Steps to the leaf reached by x, plus c_factor(leaf size)."""
    feature, threshold, right = tree["f"], tree["t"], tree["r"]
    j = depth = 0
    while feature[j] >= 0:
        j = j + 1 if x[feature[j]] < threshold[j] else right[j]
        depth += 1
    return depth + c_factor(int(right[j]))

