import math

import numpy as np
import pytest

from arlif.detector import forest_bytes
from arlif.errors import InsufficientData
from arlif.iforest import (
    EULER_GAMMA,
    NODE_DTYPE,
    IsolationForest,
    build_forest,
    build_tree,
    c_factor,
    forest_probas,
    forest_score,
    path_length,
    tree_proba,
)


def recursive_path(tree, x, node=0, depth_unused=0):
    """Naive recursive traversal; the production path_length is iterative."""
    if tree["f"][node] < 0:
        return tree["d"][node] + c_factor(tree["s"][node])
    if x[tree["f"][node]] < tree["t"][node]:
        return recursive_path(tree, x, tree["l"][node])
    return recursive_path(tree, x, tree["r"][node])


def leaf_for(tree, x):
    j = 0
    while tree["f"][j] >= 0:
        j = tree["l"][j] if x[tree["f"][j]] < tree["t"][j] else tree["r"][j]
    return j


def records(*nodes):
    """A tree from (feature, threshold, left, right, size, depth) tuples."""
    return np.array(list(nodes), dtype=NODE_DTYPE)


LEAF = records((-1, 0.0, -1, -1, 1, 0))


# --- c_factor ----------------------------------------------------------------

def test_c_factor_anchors():
    assert c_factor(0) == 0.0
    assert c_factor(1) == 0.0
    assert c_factor(2) == 1.0
    assert c_factor(256) == pytest.approx(10.2448, abs=1e-3)
    assert c_factor(256) == pytest.approx(10.244770920116851, abs=1e-12)


def test_c_factor_matches_closed_form():
    for n in (3, 17, 100, 999, 5000):
        expected = 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n
        assert c_factor(n) == pytest.approx(expected, abs=1e-15)


def test_c_factor_monotone():
    vals = [c_factor(n) for n in range(2, 600)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# --- build_tree --------------------------------------------------------------

def test_single_vector_tree():
    t = build_tree([[0.3, 0.7]], np.random.default_rng(0), height_limit=8)
    assert len(t) == 1
    assert t["f"].tolist() == [-1]
    assert t["s"].tolist() == [1]
    assert t["d"].tolist() == [0]


def test_identical_vectors_collapse_to_one_leaf():
    t = build_tree([[0.3, 0.7], [0.3, 0.7]], np.random.default_rng(0), height_limit=8)
    assert len(t) == 1
    assert t["s"].tolist() == [2]
    assert t["d"].tolist() == [0]


def test_four_points_route_to_a_partition():
    pts = [[0.1], [0.4], [0.6], [0.9]]
    t = build_tree(pts, np.random.default_rng(42), height_limit=4)
    hits = {}
    for p in pts:
        j = leaf_for(t, p)
        hits[j] = hits.get(j, 0) + 1
    leaves = [j for j in range(len(t)) if t["f"][j] < 0]
    assert sum(t["s"][j] for j in leaves) == 4
    for j in leaves:
        assert hits.get(j, 0) == t["s"][j]


def test_flattened_layout_invariants(pipe):
    _, _, vectors, forest = pipe
    for t in forest.trees:
        for j in range(len(t)):
            if t["f"][j] >= 0:
                assert t["l"][j] > j and t["r"][j] > j
                assert t["s"][j] == 0 and t["d"][j] == 0
                assert t["f"][j] < forest.n_features
            else:
                assert t["l"][j] == -1 and t["r"][j] == -1
                assert t["t"][j] == 0.0
                assert t["d"][j] <= forest.height_limit


def test_build_tree_deterministic():
    pts = np.random.default_rng(5).uniform(size=(30, 3))
    a = build_tree(pts, np.random.default_rng(99), height_limit=5)
    b = build_tree(pts, np.random.default_rng(99), height_limit=5)
    assert a.tobytes() == b.tobytes()


def test_leaf_sizes_partition_subsample():
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(64, 4))
    t = build_tree(pts, np.random.default_rng(13), height_limit=6)
    hits = {}
    for p in pts:
        j = leaf_for(t, p)
        hits[j] = hits.get(j, 0) + 1
    leaves = {j for j in range(len(t)) if t["f"][j] < 0}
    assert sum(t["s"][j] for j in leaves) == 64
    assert all(hits.get(j, 0) == t["s"][j] for j in leaves)


# --- path_length / tree_proba -------------------------------------------------

def chain_tree(depth, leaf_size):
    """Internal chain: left child is the next internal, right child a leaf."""
    internal = [(0, 0.5, d + 1, depth + 1 + d, 0, 0) for d in range(depth)]
    deep_leaf = [(-1, 0.0, -1, -1, leaf_size, depth)]
    right_leaves = [(-1, 0.0, -1, -1, 1, d + 1) for d in range(depth)]
    return records(*internal, *deep_leaf, *right_leaves)


def test_path_length_single_leaf_zero():
    assert path_length(LEAF, [0.4]) == 0.0


def test_path_length_depth3_leaf_of_two():
    t = chain_tree(3, 2)
    assert path_length(t, [0.0]) == 4.0  # 3 + c(2)


def test_tree_proba_anchors():
    assert tree_proba(LEAF, [0.1], c_psi=10.0) == 1.0  # path 0
    t2 = chain_tree(3, 2)  # path 4.0
    assert tree_proba(t2, [0.0], c_psi=4.0) == pytest.approx(0.5, abs=1e-15)


def test_proba_formula_at_psi_256():
    p = 2.0 ** (-20.4896 / c_factor(256))
    assert p == pytest.approx(0.25, abs=1e-5)
    assert p == pytest.approx(0.24999901624938645, abs=1e-15)


def test_proba_bounds_and_monotonicity(pipe):
    _, _, vectors, forest = pipe
    for x in vectors[:40]:
        for t in forest.trees:
            p = tree_proba(t, x, forest.c_psi)
            assert 0.0 < p <= 1.0
    shallow = chain_tree(1, 2)
    deep = chain_tree(5, 2)
    assert tree_proba(shallow, [0.0], 4.0) > tree_proba(deep, [0.0], 4.0)


# --- build_forest / forest_score ----------------------------------------------

def test_forest_counts_and_params():
    data = np.random.default_rng(1).uniform(size=(300, 5))
    f = build_forest(data, T=17, psi=64, seed=3)
    assert f.n_trees == 17
    assert f.psi == 64
    assert f.height_limit == 6
    assert f.c_psi == pytest.approx(c_factor(64), abs=1e-15)
    assert f.n_features == 5


def test_forest_effective_psi_caps_at_data_size():
    data = np.random.default_rng(1).uniform(size=(40, 2))
    f = build_forest(data, T=3, psi=256, seed=0)
    assert f.psi == 40
    assert f.height_limit == math.ceil(math.log2(40))
    assert f.c_psi == pytest.approx(c_factor(40), abs=1e-15)


def test_forest_determinism_and_seed_sensitivity():
    data = np.random.default_rng(2).uniform(size=(200, 4))
    a = build_forest(data, T=5, psi=32, seed=11)
    b = build_forest(data, T=5, psi=32, seed=11)
    c = build_forest(data, T=5, psi=32, seed=12)
    assert forest_bytes(a) == forest_bytes(b)
    assert forest_bytes(a) != forest_bytes(c)


def test_forest_guards():
    data = np.random.default_rng(0).uniform(size=(50, 2))
    with pytest.raises(ValueError):
        build_forest(data, T=0, psi=16, seed=0)
    with pytest.raises(ValueError):
        build_forest(data, T=1, psi=1, seed=0)
    with pytest.raises(InsufficientData):
        build_forest(data[:1], T=1, psi=16, seed=0)


def test_forest_score_of_single_leaf_trees_is_one():
    f = IsolationForest(trees=[LEAF, LEAF], psi=2, n_features=1)
    assert f.c_psi == 1.0 and f.height_limit == 1
    assert forest_score(f, [0.3]) == 1.0


def test_single_tree_forest_score_equals_tree_proba():
    data = np.random.default_rng(4).uniform(size=(100, 3))
    f = build_forest(data, T=1, psi=32, seed=9)
    for x in data[:10]:
        assert forest_score(f, x) == pytest.approx(
            tree_proba(f.trees[0], x, f.c_psi), abs=1e-15
        )


def test_outlier_isolates_faster_than_cluster_median():
    rng = np.random.default_rng(0)
    cluster = rng.uniform(0.0, 0.7, size=(80, 1))
    data = np.vstack([cluster, [[1.0]]])
    f = build_forest(data, T=50, psi=64, seed=0)
    outlier = [1.0]
    median = [float(np.median(cluster))]
    mean_path = lambda x: np.mean([path_length(t, x) for t in f.trees])
    assert mean_path(outlier) < mean_path(median)
    assert forest_score(f, outlier) > forest_score(f, median)


def oracle_inputs():
    """Uniform points plus points sitting exactly on split thresholds."""
    data = np.random.default_rng(21).uniform(size=(64, 4))
    f = build_forest(data, T=10, psi=64, seed=21)
    on_split = []
    for t in f.trees:
        for j in np.flatnonzero(t["f"] >= 0)[:4]:
            x = data[j].copy()
            x[t["f"][j]] = t["t"][j]
            on_split.append(x)
    return f, [*data, *on_split]


def test_recursive_reference_matches_flat_traversal():
    f, inputs = oracle_inputs()
    for t in f.trees:
        for x in inputs:
            assert path_length(t, x) == recursive_path(t, x)


def test_threshold_ties_go_right():
    t = chain_tree(1, 2)  # left: leaf of 2 at depth 1, right: leaf of 1 at depth 1
    f = IsolationForest(trees=[t], psi=4, n_features=1)
    assert path_length(t, [0.5]) == 1.0
    assert forest_probas(f, [0.5]).tolist() == [tree_proba(t, [0.5], f.c_psi)]
    assert path_length(t, [0.4999]) == 2.0


def test_forest_walk_equals_scalar_oracle_exactly():
    built, inputs = oracle_inputs()
    # single-leaf trees and chains of unequal depth share the walk with built trees
    mixed = IsolationForest(
        trees=[LEAF, chain_tree(1, 2), *built.trees, chain_tree(6, 3), LEAF],
        psi=64, n_features=4,
    )
    inputs += [np.full(4, 0.5), np.zeros(4), np.ones(4)]
    for f in (built, mixed):
        for x in inputs:
            assert forest_probas(f, x).tolist() == [tree_proba(t, x, f.c_psi) for t in f.trees]
            total = 0.0
            for t in f.trees:
                total += path_length(t, x)
            assert forest_score(f, x) == 2.0 ** (-(total / f.n_trees) / f.c_psi)


def test_block_walk_equals_each_row_walked_alone():
    built, inputs = oracle_inputs()  # with points exactly on split thresholds
    mixed = IsolationForest(trees=[LEAF, chain_tree(1, 2), *built.trees], psi=64, n_features=4)
    X = np.array(inputs)
    for f in (built, mixed):
        assert forest_probas(f, X).tolist() == [forest_probas(f, x).tolist() for x in inputs]
        assert forest_score(f, X).tolist() == [forest_score(f, x) for x in inputs]
        assert forest_score(f, X[:1]).tolist() == [forest_score(f, X[0])]
