"""Isolation forest: random trees on subsamples, per-tree anomaly probabilities.

build_forest grows all T trees together. A node is a segment of one array
holding every tree's subsample as row numbers into the data, and a split
partitions its segment in place, so no tree holds a copy of its subsample.
Each tree keeps the nodes that may split on an array stack, and each step pops
the next one in preorder from every tree that has one, as many trees as fit
GATHER_BYTES. For all taken nodes at once, one gather from a transposed copy
of the data and two reduceat give each column's min and max, one stable argsort
partitions every segment, and _Draws makes each taken tree's two draws, the
rank of its column and then u, in array operations on raw words of that tree's
own generator, bit for bit what one Generator call per draw gives. Every node
carries its preorder key (_child_keys), and after the last step one sort of the
roots and the splits' children on (tree, key) lays every tree out in preorder.

A forest is one NODE_DTYPE table, its trees back to back in preorder, and their
sizes; a model file holds the table's fields as columns in this order, and of the
thresholds only the internal nodes' (detector.forest_bytes). IsolationForest
checks it by giving each node the key of the walk that reaches it: a table is
accepted only if every node is reached once and the keys rise along each tree. It
derives walk tables from it once (each node's feature, threshold and two successors,
a leaf leading to itself, and each leaf's path length and probability, its depth
read from its key), so one walk of height_limit steps, 1-D takes from the tables
and a flat C-order copy of the points, reaches every tree's leaf for a point or a
block.

path_length is unused here: the benchmark's mean_path_length calls it, and it
moves to tests/reference.py with the next benchmark change (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModel, DimensionMismatch, InsufficientData, NumericParse

EULER_GAMMA = 0.5772156649

# Node j is a leaf iff f < 0. Trees are in preorder, so an internal node's left
# child is j + 1: it holds its feature f, threshold t and tree-relative right
# child r. A leaf holds f = -1, t = +0.0 and its size in r. Depth is derived at
# load from the walk, so a forest has exactly one serialized form.
NODE_DTYPE = np.dtype([("f", "<i4"), ("t", "<f8"), ("r", "<u4")], align=False)

# A step of the grower gathers the points of the nodes it splits, as many trees' nodes as
# fit in this many bytes (one node alone may take more), so that its working memory
# stays bounded however many trees grow together. At the default shape (T=100, psi=256,
# m=10) the first step's 2.05 MB is one piece: glibc sets its heap trim threshold to twice
# the largest block freed, and after 1 MiB pieces each ~2.5 MB model load in the same
# process gave its heap back to the OS and faulted it in again (+0.6 ms a load, 2-vCPU VM).
GATHER_BYTES = 2 << 20

# Each tree's generator hands the grower raw 64-bit words this many at a time: 51 KB of
# windows at T=100, kept small because what the grower leaves on the heap sets the cost
# of later model loads in the same process (see above).
WINDOW = 64
_LOW32, _32, _11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


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


def _child_keys(key, depth, h: int) -> tuple:
    """The preorder keys of the left and right children, at depth `depth`, of the
    nodes with these keys, in a tree of height limit h.

    A node's key is (path << (h - depth)) << 6 | depth, path being its turns from
    the root (left 0, right 1; the root's key is 0). So the keys of one tree's nodes
    rise exactly in preorder: a left child's follows its parent's, and a right
    child's follows every key in its sibling's subtree."""
    left = key + 1
    return left, left + (1 << (h - depth + 6))


class _Draws:
    """Each tree's draws for a node, Generator.integers(c) and then Generator.random(),
    taken for many trees at once from raw words of their own PCG64 generators, bit for bit.

    numpy's integers(c) is Lemire's multiply-shift bound on the generator's 32-bit output.
    c == 1 draws nothing. Otherwise x is the half word PCG64 keeps from the last word it
    split, if it keeps one, and else the low half of a fresh word, whose high half it keeps;
    the rank is (x * c) >> 32, drawn again while (x * c) mod 2^32 < (2^32 - c) mod c.
    random() is (word >> 11) * 2^-53 of a fresh word. Each tree's fresh words come from a
    window of WINDOW words of its own stream, refilled when used up, and close() leaves each
    generator where drawing one call at a time would have. The arithmetic stays in uint64
    arrays and constants: numpy 1.x makes a float64 of a uint64 scalar and a Python int."""

    def __init__(self, rngs: list):
        self.bits = [g.bit_generator for g in rngs]
        self.entry = [b.state for b in self.bits]
        self.has = np.array([s["has_uint32"] for s in self.entry], dtype=bool)
        self.half = np.array([s["uinteger"] for s in self.entry], dtype=np.uint64)
        # Tree i's window holds the words fetched[i] - WINDOW .. fetched[i] - 1 of its
        # stream, of which the first pos[i] are used; before the first fill it counts as used up.
        self.words = np.empty((len(rngs), WINDOW), dtype=np.uint64)
        self.fetched = np.zeros(len(rngs), dtype=np.int64)
        self.pos = np.full(len(rngs), WINDOW, dtype=np.int64)

    def _refill(self, trees) -> None:
        """Move each tree's unused words to the front of its window and fetch the rest."""
        for i in trees:
            p, w = int(self.pos[i]), self.words[i]
            w[:WINDOW - p] = w[p:]
            w[WINDOW - p:] = self.bits[i].random_raw(p)
            self.fetched[i] += p
            self.pos[i] = 0

    def _next32(self, i: int) -> int:
        """Tree i's next 32-bit output, drawn alone as PCG64 draws it."""
        if self.has[i]:
            self.has[i] = False
            return int(self.half[i])
        if self.pos[i] == WINDOW:
            self._refill([i])
        word = int(self.words[i, self.pos[i]])
        self.pos[i] += 1
        self.has[i], self.half[i] = True, word >> 32
        return word & 0xFFFFFFFF

    def take(self, trees: np.ndarray, c: np.ndarray) -> tuple:
        """The rank integers(c[j]) and the u = random() that tree trees[j] draws next, the
        trees distinct; a tree with c[j] == 0 draws nothing and gets rank 0 and u 0.0."""
        pos, drawn = self.pos[trees], c > 0
        if (low := drawn & (pos > WINDOW - 2)).any():  # a draw takes at most two words
            self._refill(trees[low].tolist())
            pos = self.pos[trees]
        # A tree that draws nothing may read past its window: clip keeps it inside the array.
        at, c = trees * WINDOW, c.astype(np.uint64)
        has, word = self.has[trees], self.words.take(at + pos, mode="clip")
        bounded = c > 1
        fresh = bounded & ~has
        x = np.where(has, self.half[trees], word & _LOW32)
        self.half[trees[fresh]] = word[fresh] >> _32
        self.has[trees] = has ^ bounded
        pos += fresh
        m = x * c  # for c <= 1, x is read but not drawn: the rank is 0 and none is drawn again
        rank = (m >> _32).astype(np.intp)
        # (x * c) mod 2^32 < c bounds the threshold, about 1 time in 10^8 at these c
        for j in np.flatnonzero((m & _LOW32) < c).tolist():
            i, cj, mj = int(trees[j]), int(c[j]), int(m[j])
            self.pos[i] = pos[j]
            while mj & 0xFFFFFFFF < (2**32 - cj) % cj:
                mj = self._next32(i) * cj
            if self.pos[i] == WINDOW:
                self._refill([i])
            rank[j], pos[j] = mj >> 32, self.pos[i]
        u = np.where(drawn, (self.words.take(at + pos, mode="clip") >> _11) * 2.0 ** -53, 0.0)
        self.pos[trees] = pos + drawn
        return rank, u

    def close(self) -> None:
        """Leave each generator where drawing one call at a time would have left it: its
        entry state advanced by the words it used, and its kept half word, which advance
        clears. Only a tree that draws fetches words, so each delta is positive, the one
        case advance documents."""
        used = self.fetched - WINDOW + self.pos
        for i in np.flatnonzero(self.fetched).tolist():
            bits = self.bits[i]
            bits.state = self.entry[i]
            bits.advance(int(used[i]))
            state = bits.state
            state["has_uint32"], state["uinteger"] = int(self.has[i]), int(self.half[i])
            bits.state = state


def _grow(X: np.ndarray, subsamples: np.ndarray, rngs: list, height_limit: int) -> tuple:
    """Grow tree i over the rows subsamples[i] of X, drawing from rngs[i] (PCG64
    Generators, as np.random.default_rng makes), all trees together; returns the
    NODE_DTYPE table of every tree back to back, and their sizes."""
    n_trees, size = subsamples.shape
    h = height_limit if X.shape[1] else 0  # with no column, every root is a leaf
    XT = np.ascontiguousarray(X.T)  # a step gathers its points as columns of XT
    cap = GATHER_BYTES // (8 * max(X.shape[1], 1))  # points per step
    ramp = np.arange(max(cap, size))  # a step's total and tree count are at most this
    order = subsamples.ravel().copy()
    draws = _Draws(rngs)
    # Each tree's pending nodes that may split, the last on top, as (key, start, count):
    # the node with that preorder key holds the points order[start:start + count], and
    # its depth is key & 63. A tree has at most h pending: a right child at each depth
    # 1 .. h - 1 and a left one on top. The one more slot takes a child that is written
    # but not pushed.
    stack = np.zeros((n_trees, h + 1, 3), dtype=np.int64)
    stack[:, 0, 1] = np.arange(0, order.size, size)
    stack[:, 0, 2] = size
    top = np.full(n_trees, int(size > 1 and h > 0))  # each stack's height
    # Each taken node's (tree, key, column, left count, count, number of splittable
    # columns), and its threshold; a node with no splittable column is a leaf.
    taken, thrs = [np.empty((6, 0), np.int64)], [np.empty(0)]
    while (live := top.nonzero()[0]).size:
        height = top[live] - 1
        key, start, count = stack[live, height].T
        ends = count.cumsum()
        if ends[-1] > cap:  # the first trees whose points fit, and at least one
            n = max(1, int(ends.searchsorted(cap, "right")))
            live, height, key, start, count, ends = (
                a[:n] for a in (live, height, key, start, count, ends))
        offsets, total = ends - count, int(ends[-1])
        pos = ramp[:total] + (start - offsets).repeat(count)
        rows = order[pos]
        block = XT.take(rows, axis=1)
        lo = np.minimum.reduceat(block, offsets, axis=1)
        hi = np.maximum.reduceat(block, offsets, axis=1)
        ranks = (hi > lo).cumsum(axis=0)
        k = ranks[-1]
        rank, u = draws.take(live, k)  # each tree's own draws: its column's rank, then u
        col = (ranks > rank).argmax(axis=0)
        at = ramp[:live.size]
        lo, hi = lo[col, at], hi[col, at]
        thr = lo + (hi - lo) * u  # rng.uniform(lo, hi), bit for bit
        # Strictly-less first within each segment; a node that does not split moves nothing.
        left = block.ravel().take((col * total).repeat(count) + ramp[:total]) < thr.repeat(count)
        n_left = np.add.reduceat(left, offsets, dtype=np.intp)
        order[pos] = rows[((2 * at + 1).repeat(count) - left).argsort(kind="stable")]

        taken.append(np.array([live, key, col, n_left, count, k]))
        thrs.append(thr)
        # Push right, then left, so that the left child is split next. Both are written,
        # the left over the right if the right does not go; top counts those that go.
        depth = (key & 63) + 1
        n_right, deeper = count - n_left, (depth < h) & (k > 0)
        go_right = (n_right > 1) & deeper
        key, right = _child_keys(key, depth, h)
        stack[live, height] = np.array([right, start + n_left, n_right]).T
        height += go_right
        stack[live, height] = np.array([key, start, n_left]).T
        top[live] = height + ((n_left > 1) & deeper)
    draws.close()
    del XT, order, stack, draws
    taken, thrs = np.concatenate(taken, axis=1), np.concatenate(thrs)  # frees the pieces
    split = taken[5] > 0
    (tree, key, col, n_left, count), thrs = taken[:5, split], thrs[split]
    del taken

    # Node i < n_trees is tree i's root, and nodes n_trees + s and n_trees + n + s are the
    # s-th of the n splits' children. Sorting them on (tree, key) puts them in preorder:
    # any sort on the keys, then a stable one on the trees, which numpy does by radix in
    # their narrowest dtype (np.lexsort on both took 1.6 ms at the default shape, this 0.4).
    n = tree.size
    trees = np.concatenate([np.arange(n_trees), tree, tree])
    keys = np.concatenate([np.zeros(n_trees, np.int64), *_child_keys(key, (key & 63) + 1, h)])
    table = np.argsort(keys)  # the nodes in table order
    table = table[np.argsort(trees.astype(np.min_scalar_type(n_trees))[table], kind="stable")]
    sizes = np.bincount(trees, minlength=n_trees)
    del trees, keys
    where = np.empty_like(table)  # each node's index in the table
    where[table] = np.arange(table.size)
    del table
    nodes = np.empty(where.size, dtype=NODE_DTYPE)
    f, t, r = (nodes[name] for name in NODE_DTYPE.names)
    f.fill(-1)
    t.fill(0.0)
    r[where] = np.concatenate([np.full(n_trees, size), n_left, count - n_left])
    # A split comes just before its left child; its r is its right child's place in its tree.
    g = where[n_trees:n_trees + n] - 1
    f[g], t[g], r[g] = col, thrs, where[n_trees + n:] - where[tree]
    return nodes, sizes


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
        """ceil(log2 psi), the depth at which a tree stops splitting; psi < 2 raises CorruptModel."""
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
        f, t, r = rec["f"].astype(np.intp), rec["t"].copy(), rec["r"].copy()
        j = np.arange(rec.size, dtype=np.intp)
        base = np.repeat(roots, sizes)
        inner = f >= 0
        # A leaf links to itself (after reading x[-1]), so every walk takes h steps.
        left, right = j + inner, np.where(inner, base + r, j)

        def reject(bad, what):
            if bad.any():
                tree = int(np.searchsorted(roots, np.argmax(bad), "right")) - 1
                raise CorruptModel(f"tree {tree}: {what}")
        # A leaf's right is itself, so a tree's largest right reaches its end iff a child's
        # does; that marks the tree's root, so the first bad tree is still the one reported.
        bad = inner & (right <= left)
        bad[roots] |= np.maximum.reduceat(right, roots) >= roots + sizes
        reject(bad, "children must satisfy j + 1 < right < n_nodes")
        del j, base, bad
        reject(inner & (f >= self.n_features), f"feature outside [0, {self.n_features})")
        # f is -1, t is +0.0 bit for bit, and the size at most psi
        reject(~inner & ~((f == -1) & (t.view(np.uint64) == 0) & (r <= self.psi)),
               "non-canonical leaf")

        key = np.full(rec.size, -1, dtype=np.int64)  # each node's preorder key, -1 if never reached
        key[roots] = 0
        level, visits = roots, roots.size  # the nodes the walk reaches in 0, 1, ..., h steps
        for depth in range(1, h + 1):
            level = level[inner[level]]
            kids = np.concatenate([level + 1, right[level]])  # the left children, then the right
            key[kids[:level.size]], key[kids[level.size:]] = _child_keys(key[level], depth, h)
            level = kids
            if (visits := visits + level.size) > rec.size:
                raise CorruptModel("a node has more than one parent")
        if inner[level].any():
            raise CorruptModel(f"a leaf is not reached within {h} steps")
        # A node never reached keeps -1. If none is, each is reached once: a tree, which
        # is in preorder iff its keys rise from its root on.
        falls = np.diff(key, prepend=0) <= 0
        falls[roots] = False
        reject(falls, "nodes are not one tree in preorder")
        # the walk's tables, indices in intp, which take reads without a cast
        self._roots, self._feature, self._threshold = roots, f, t
        self._next = np.stack([right, left], axis=1, dtype=np.intp).ravel()
        del left, right

        # Each leaf's slot in _path / _proba, which apply the scalar c_factor and
        # ** per distinct (depth, size): numpy's vectorized ** may differ in the last ulp.
        leaf = np.flatnonzero(~inner)
        keys, slots = np.unique((key[leaf] & 63) << 32 | r[leaf], return_inverse=True)
        self._slot = np.zeros(rec.size, dtype=np.intp)
        self._slot[leaf] = slots
        paths = [kd + c_factor(ks) for kd, ks in (divmod(k, 1 << 32) for k in keys.tolist())]
        self._path = np.array(paths)
        self._proba = np.array([2.0 ** (-p / self.c_psi) for p in paths])

    @property
    def trees(self) -> tuple[np.ndarray, ...]:
        """Each tree's records, views into nodes made on each read; for tree oracles."""
        return tuple(np.split(self.nodes, self._roots[1:]))


def build_forest(data, T: int, psi: int, seed: int) -> IsolationForest:
    """Build T trees, each on a without-replacement subsample of min(psi, n).

    Tree i draws from its own random stream, SeedSequence(seed, spawn_key=(i,)):
    its subsample, then for each node that may split, in preorder, the rank of
    its column and a uniform u. A tree depends only on the order of its own
    draws, so growing the trees interleaved, one node of each per step, gives
    the trees that growing them one after another would. T < 1 or psi < 2 raises
    ValueError, and data holding a value, or a column range, that is not a
    finite number raises NumericParse, before any generator is seeded.
    """
    if T < 1:
        raise ValueError(f"a forest needs T >= 1 trees, got T={T}")
    if psi < 2:
        raise ValueError(f"a forest needs psi >= 2, got psi={psi}")
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
                          dtype=np.intp)
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

