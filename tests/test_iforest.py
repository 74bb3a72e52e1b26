import copy
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from arlif import iforest
from arlif.attention import init_params
from arlif.detector import forest_bytes, from_bytes, new_detector, to_bytes
from arlif.errors import CorruptModel, DimensionMismatch, InsufficientData, NumericParse
from arlif.iforest import (
    EULER_GAMMA,
    IsolationForest,
    _child_keys,
    _Draws,
    _grow,
    build_forest,
    c_factor,
    forest_probas,
    forest_score,
    path_length,
)
from arlif.ingest import transform
from reference import (
    build_tree,
    columns,
    forest_of,
    leaf_depths,
    recursive_path,
    recursive_tree,
    tree_of,
    tree_proba,
)


def leaf_for(tree, x):
    f, t, r = tree
    j = 0
    while f[j] >= 0:
        j = j + 1 if x[f[j]] < t[j] else r[j]
    return j


def depths(tree):
    """Each node's depth; in preorder a parent comes before its children."""
    f, _, r = tree
    d = {0: 0}
    for j in np.flatnonzero(f >= 0):
        d[j + 1] = d[r[j]] = d[j] + 1
    return [d[j] for j in range(len(f))]


def tree_bytes(tree):
    return b"|".join(c.tobytes() for c in tree)


LEAF = tree_of((-1, 0.0, 1))


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
    assert [c.tolist() for c in t] == [[-1], [0.0], [1]]
    assert depths(t) == [0]


def test_identical_vectors_collapse_to_one_leaf():
    t = build_tree([[0.3, 0.7], [0.3, 0.7]], np.random.default_rng(0), height_limit=8)
    assert [c.tolist() for c in t] == [[-1], [0.0], [2]]
    assert depths(t) == [0]


def test_four_points_route_to_a_partition():
    pts = [[0.1], [0.4], [0.6], [0.9]]
    t = build_tree(pts, np.random.default_rng(42), height_limit=4)
    hits = {}
    for p in pts:
        j = leaf_for(t, p)
        hits[j] = hits.get(j, 0) + 1
    f, _, r = t
    leaves = np.flatnonzero(f < 0).tolist()
    assert sum(r[j] for j in leaves) == 4
    for j in leaves:
        assert hits.get(j, 0) == r[j]


def test_flattened_layout_invariants(pipe):
    _, _, vectors, forest = pipe
    for tree in forest.trees:
        depth, (f, t, r) = depths(tree), tree
        for j in range(len(f)):
            if f[j] >= 0:
                assert r[j] > j + 1  # the left child is j + 1
                assert f[j] < forest.n_features
            else:
                assert f[j] == -1 and 0 <= r[j] <= forest.psi
                assert t[j] == 0.0 and not np.signbit(t[j])  # the walk's table at a leaf
                assert depth[j] <= forest.height_limit


def test_build_tree_deterministic():
    pts = np.random.default_rng(5).uniform(size=(30, 3))
    a = build_tree(pts, np.random.default_rng(99), height_limit=5)
    b = build_tree(pts, np.random.default_rng(99), height_limit=5)
    assert tree_bytes(a) == tree_bytes(b)


def test_leaf_sizes_partition_subsample():
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(64, 4))
    t = build_tree(pts, np.random.default_rng(13), height_limit=6)
    hits = {}
    for p in pts:
        j = leaf_for(t, p)
        hits[j] = hits.get(j, 0) + 1
    f, _, r = t
    leaves = np.flatnonzero(f < 0).tolist()
    assert sum(r[j] for j in leaves) == 64
    assert all(hits.get(j, 0) == r[j] for j in leaves)


# --- path_length / tree_proba -------------------------------------------------

def chain_tree(depth, leaf_size):
    """Internal chain in preorder: node i's left child is the next internal node
    (the last one's is the deep leaf), its right child the leaf of 1 at 2 * depth - i."""
    internal = [(0, 0.5, 2 * depth - i) for i in range(depth)]
    return tree_of(*internal, (-1, 0.0, leaf_size), *[(-1, 0.0, 1)] * depth)


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


@pytest.mark.parametrize("T, psi, message", [
    (0, 16, "T >= 1 trees, got T=0"),
    (-2, 16, "T >= 1 trees, got T=-2"),
    (1, 1, "psi >= 2, got psi=1"),
    (3, 0, "psi >= 2, got psi=0"),
])
def test_no_trees_or_a_psi_below_2_is_refused_before_any_generator_is_seeded(
        monkeypatch, T, psi, message):
    # An argument fault, not a model-file fault: a plain ValueError, not CorruptModel.
    data = np.random.default_rng(0).uniform(size=(50, 3))

    def seeded(*args):
        raise AssertionError("a generator was seeded")
    monkeypatch.setattr(np.random, "default_rng", seeded)
    monkeypatch.setattr(iforest, "_Draws", seeded)
    with pytest.raises(ValueError, match=message) as caught:
        build_forest(data, T=T, psi=psi, seed=0)
    assert type(caught.value) is ValueError


def test_a_forest_over_no_columns_is_rejected_at_build_time():
    with pytest.raises(CorruptModel, match="one or more features, got 2 trees, 0 features"):
        build_forest(np.zeros((10, 0)), T=2, psi=8, seed=0)


def test_forest_score_of_single_leaf_trees_is_one():
    f = forest_of([LEAF, LEAF], psi=2, n_features=1)
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


# --- the batched grower against the recursive reference -----------------------

def stream(seed, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def reference_streams(data, T, psi, seed):
    """build_forest's trees grown one after another by the recursive reference,
    each from its own stream, SeedSequence(seed, spawn_key=(i,)), and the streams after."""
    X = np.asarray(data, dtype=np.float64)
    n = X.shape[0]
    eff_psi = min(psi, n)
    height_limit = IsolationForest.height_limit_for(eff_psi)
    trees, rngs = [], []
    for i in range(T):
        rng = stream(seed, i)
        idx = rng.choice(n, size=eff_psi, replace=False)
        trees.append(recursive_tree(X[idx], rng, height_limit))
        rngs.append(rng)
    return trees, rngs


def reference_trees(data, T, psi, seed):
    return reference_streams(data, T, psi, seed)[0]


def grown_streams(data, T, psi, seed):
    """The streams after _grow, called on the subsamples build_forest draws."""
    X = np.asarray(data, dtype=np.float64)
    n = X.shape[0]
    eff_psi = min(psi, n)
    rngs = [stream(seed, i) for i in range(T)]
    subsamples = np.array([rng.choice(n, size=eff_psi, replace=False) for rng in rngs])
    _grow(X, subsamples, rngs, IsolationForest.height_limit_for(eff_psi))
    return rngs


def same_states(a, b):
    return [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]


def same_trees(forest, trees):
    """The forest's four columns are the trees' columns, each in its own type."""
    ours = (forest.sizes, forest.feature, forest.right, forest.threshold)
    return [c.tobytes() for c in ours] == [np.asarray(c, a.dtype).tobytes()
                                           for a, c in zip(ours, columns(trees))]


def _ties(rng):
    return rng.uniform(size=(300, 4)).round(1)


def _constant_column_and_duplicates(rng):
    X = rng.uniform(size=(200, 3))
    X[:, 1] = 0.25
    X[100:] = X[:100]
    return X


def _adjacent_floats(rng):
    # Values a few ulps apart: lo + (hi - lo) * u rounds to one of them, so points
    # sit exactly on thresholds and must go right.
    return 1.0 + rng.integers(0, 4, size=(200, 3)) * np.spacing(1.0)


CRAFTED_CASES = [
    pytest.param(_ties, 12, 64, id="ties"),
    pytest.param(lambda rng: rng.integers(0, 3, size=(200, 5)).astype(float), 10, 128, id="few-values"),
    pytest.param(_constant_column_and_duplicates, 9, 128, id="constant-column-duplicates"),
    pytest.param(_adjacent_floats, 10, 64, id="adjacent-floats"),
    pytest.param(lambda rng: rng.uniform(size=(150, 1)), 15, 32, id="m1"),
    pytest.param(lambda rng: rng.uniform(size=(50, 3)), 20, 2, id="psi2"),
    pytest.param(lambda rng: rng.uniform(size=(40, 3)), 6, 256, id="psi-ge-n"),
    pytest.param(lambda rng: rng.uniform(size=(300, 5)), 1, 64, id="T1"),
    pytest.param(lambda rng: rng.uniform(size=(60, 3)), 300, 16, id="T300"),  # tree numbers past 255
]
CRAFTED = pytest.mark.parametrize("make, T, psi", CRAFTED_CASES)


@CRAFTED
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_trees_equal_the_recursive_reference_byte_for_byte(make, T, psi, seed):
    X = make(np.random.default_rng(100 + seed))
    assert same_trees(build_forest(X, T, psi, seed), reference_trees(X, T, psi, seed))


@CRAFTED
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_grower_draws_from_each_stream_as_often_as_the_recursive_reference(make, T, psi, seed):
    # A draw too many or too few, even one that leaves the tree the same, moves the state.
    X = make(np.random.default_rng(100 + seed))
    assert same_states(grown_streams(X, T, psi, seed), reference_streams(X, T, psi, seed)[1])


def test_forest_at_the_default_shape_equals_the_recursive_reference(default_shape):
    records, pre, forest = default_shape  # T=100, psi=256, m=10 on synth_stream rows, seed 0
    vectors = [transform(pre, r) for r in records]
    assert (forest.n_trees, forest.psi, forest.n_features) == (100, 256, 10)
    assert same_trees(forest, reference_trees(vectors, 100, 256, 0))


def test_the_grower_at_the_default_shape_draws_as_the_recursive_reference(default_shape):
    records, pre, _ = default_shape
    vectors = [transform(pre, r) for r in records]
    assert same_states(grown_streams(vectors, 100, 256, 0), reference_streams(vectors, 100, 256, 0)[1])


# At 4 KiB a step gathers at most 4096 // (8 m) points, 51 at the default shape's m = 10,
# so that of the steps below 9 in 10 (99 in 100 at the default shape) take only a prefix
# of the live trees, where at GATHER_BYTES only the thousand-tree memory test does so.
SMALL_GATHER = 4 << 10


@pytest.mark.parametrize("make, T, psi", [c for c in CRAFTED_CASES if c.id in ("few-values", "T300")])
def test_steps_that_take_a_prefix_of_the_live_trees_grow_the_reference_trees_and_streams(
        monkeypatch, make, T, psi):
    monkeypatch.setattr(iforest, "GATHER_BYTES", SMALL_GATHER)
    X = make(np.random.default_rng(100))
    trees, rngs = reference_streams(X, T, psi, 0)
    assert same_trees(build_forest(X, T, psi, 0), trees)
    assert same_states(grown_streams(X, T, psi, 0), rngs)


def test_steps_that_take_a_prefix_of_the_live_trees_at_the_default_shape(monkeypatch, default_shape):
    records, pre, _ = default_shape
    vectors = [transform(pre, r) for r in records]
    monkeypatch.setattr(iforest, "GATHER_BYTES", SMALL_GATHER)
    trees, rngs = reference_streams(vectors, 100, 256, 0)
    assert same_trees(build_forest(vectors, 100, 256, 0), trees)
    assert same_states(grown_streams(vectors, 100, 256, 0), rngs)


@pytest.mark.parametrize("n, m, height_limit", [(1, 2, 3), (2, 1, 1), (30, 3, 0), (30, 3, 2),
                                                (64, 4, 6), (100, 2, 40)])
def test_build_tree_equals_the_recursive_reference_and_draws_as_often(n, m, height_limit):
    X = np.random.default_rng(n).uniform(size=(n, m)).round(2)
    a, b = np.random.default_rng(height_limit), np.random.default_rng(height_limit)
    assert tree_bytes(build_tree(X, a, height_limit)) == tree_bytes(recursive_tree(X, b, height_limit))
    assert a.bit_generator.state == b.bit_generator.state


def thousand_tree_inputs(default_shape):
    """_grow's arguments for T=1000, psi=256, m=10 on the default shape's rows."""
    records, pre, _ = default_shape
    X = np.array([transform(pre, r) for r in records])
    rngs = [stream(0, i) for i in range(1000)]
    subsamples = np.array([rng.choice(len(X), size=256, replace=False) for rng in rngs])
    return X, subsamples, rngs, IsolationForest.height_limit_for(256)


def peak_bytes(call, *args):
    """call(*args) and the peak of the memory it allocates, traced."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_grower_at_a_thousand_trees_peaks_within_16_mb(default_shape):
    # At T=1000, psi=256, m=10 a grower that gathers every tree's root in one step holds
    # 20.5 MB of points in that step alone and peaks at 27 MB; GATHER_BYTES bounds a step.
    (sizes, *_), peak = peak_bytes(_grow, *thousand_tree_inputs(default_shape))
    assert sizes.size == 1000 and peak <= 16e6


def test_the_loader_of_a_thousand_trees_peaks_within_20_mb(default_shape):
    # The 3.0 MB node table of T=1000 trees: a loader that keeps each level of its walk,
    # a balance count and a bincount to check the preorder peaks at 24 MB.
    forest, peak = peak_bytes(IsolationForest, *_grow(*thousand_tree_inputs(default_shape)), 256, 10)
    assert forest.n_trees == 1000 and peak <= 20e6


def test_a_threshold_lo_plus_range_times_u_is_rng_uniform_bit_for_bit():
    # The grower draws u = rng.random() and takes lo + (hi - lo) * u where the
    # recursive reference takes rng.uniform(lo, hi); a numpy whose uniform differs fails here.
    src = np.random.default_rng(2008)
    lo = src.normal(size=20_000) * 10.0 ** src.integers(-6, 7, size=20_000)
    hi = lo + src.exponential(size=20_000) * 10.0 ** src.integers(-12, 7, size=20_000)
    hi[::50] = lo[::50]
    a, b = np.random.default_rng(17), np.random.default_rng(17)
    drawn = np.array([a.uniform(l, h) for l, h in zip(lo, hi)])
    u = np.array([b.random() for _ in range(lo.size)])
    assert drawn.tobytes() == (lo + (hi - lo) * u).tobytes()


# --- the grower's draw step against numpy's own draws ---------------------------

def numpy_draws(rngs, cs):
    """Each generator's integers(c) and then random(), one call at a time; c = 0 draws nothing."""
    return [(int(g.integers(c)), g.random()) if c else (0, 0.0) for g, c in zip(rngs, cs)]


def draws_in_steps(rngs, steps):
    """_Draws over the generators for each step's (trees, counts), then closed."""
    draws = _Draws(rngs)
    out = []
    for trees, cs in steps:
        rank, u = draws.take(np.asarray(trees, dtype=np.intp), np.asarray(cs, dtype=np.int64))
        out.append(list(zip(rank.tolist(), u.tolist())))
    draws.close()
    return out


def same_draws(make_rngs, steps):
    """_Draws gives each tree what drawing one call at a time gives, bit for bit, and
    leaves every generator in the same state."""
    a, b = make_rngs(), make_rngs()
    expected = [numpy_draws([b[i] for i in trees], cs) for trees, cs in steps]
    got = draws_in_steps(a, steps)
    as_bits = lambda draws: [[(r, np.float64(u).tobytes()) for r, u in d] for d in draws]
    return as_bits(got) == as_bits(expected) and same_states(a, b)


def kept_half(rng):
    """rng with PCG64's 32-bit buffer full: integers(7) uses a low half and keeps the high."""
    rng.integers(7)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("kept", [False, True], ids=["nothing-kept", "half-kept"])
@pytest.mark.parametrize("c", [*range(1, 42), 128, 65_537])
def test_a_draw_step_is_integers_then_random_bit_for_bit(c, kept):
    # 70 steps of two words each pass the 64-word window twice.
    make = lambda: [kept_half(stream(5, i)) if kept else stream(5, i) for i in range(4)]
    assert same_draws(make, [(range(4), [c] * 4)] * 70)


def test_draw_steps_over_any_trees_and_counts_are_each_trees_own_calls():
    # As in the grower: each step takes some of the trees, each once, with any count,
    # 0 (a leaf: no draw) and 1 (no rank drawn) among them.
    src = np.random.default_rng(44)
    counts = [0, 1, 2, 3, 5, 10, 41, 128, 65_537, 2**31 + 1]
    steps = []
    for _ in range(300):
        trees = src.permutation(12)[:src.integers(1, 13)]
        steps.append((trees, src.choice(counts, size=trees.size)))
    assert same_draws(lambda: [kept_half(stream(6, i)) if i % 3 else stream(6, i) for i in range(12)],
                      steps)


PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
M64, M128 = (1 << 64) - 1, (1 << 128) - 1


def xsl_rr_state(word, hi):
    """A 128-bit PCG64 state whose XSL-RR output is word: the output is hi ^ lo rotated
    right by hi's top 6 bits, so lo is hi ^ word rotated left by them."""
    rot = hi >> 58
    return hi << 64 | (hi ^ ((word << rot | word >> (64 - rot)) & M64))


def emitting(*words, kept=None):
    """A PCG64 generator whose next raw words are these one or two words, and whose
    32-bit buffer holds kept (or nothing). PCG64 steps its LCG, state * MULTIPLIER + inc
    mod 2^128, and outputs the new state's XSL-RR; so the state before the first word is
    (after - inc) / MULTIPLIER, and a second word fixes the (odd) inc."""
    after, inc = xsl_rr_state(words[0], 0x9E3779B97F4A7C15), stream(0, 0).bit_generator.state["state"]["inc"]
    if len(words) == 2:
        hi = 0xC2B2AE3D27D4EB4F
        if not (xsl_rr_state(words[1], hi) - after * PCG64_MULTIPLIER) & 1:
            hi ^= 1  # flips the low bit of the next state, and so the parity of inc
        inc = (xsl_rr_state(words[1], hi) - after * PCG64_MULTIPLIER) & M128
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": (after - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) & M128, "inc": inc},
                  "has_uint32": int(kept is not None), "uinteger": kept or 0}
    return np.random.Generator(bits)


@pytest.mark.parametrize("words, kept, window", [
    ((0xDEADBEEF << 32,), None, 64),  # a fresh word's low half is 0; the high half it keeps is drawn
    ((0x89ABCDEF12345678,), 0, 64),  # the kept half is 0; a fresh word's low half is drawn
    ((0,), 0, 2),  # three zero halves: the draw takes the word that ends the window, u the next
    ((0, 0), None, 2),  # four zero halves: the window is used up within the draw
], ids=["low-half", "kept-half", "window-ends-after", "window-ends-within"])
def test_lemire_draws_again_below_its_threshold_as_numpy_does(monkeypatch, words, kept, window):
    # For c = 3 the threshold is (2^32 - 3) mod 3 = 1: an x of 0 gives x * 3 mod 2^32 = 0 and
    # is drawn again, and no other x is.
    assert (2**32 - 3) % 3 == 1
    make = lambda: emitting(*words, kept=kept)
    assert make().bit_generator.random_raw(len(words)).tolist() == list(words)
    monkeypatch.setattr(iforest, "WINDOW", window)
    for cs in ([3], [3, 3, 2, 1, 3]):  # the first ends where the kept half is used, not cleared
        assert same_draws(lambda: [make()], [([0], [c]) for c in cs])


@pytest.mark.parametrize("column, message", [
    ([0.1, np.nan], "column 1: a value is not a finite number"),
    ([0.1, np.inf], "column 1: a value is not a finite number"),
    ([-np.inf, 0.1], "column 1: a value is not a finite number"),
    ([-1e308, 1e308], "column 1: max - min is not a finite number"),  # the range overflows
])
def test_data_that_is_not_finite_raises_numeric_parse_before_any_draw(column, message):
    X = np.random.default_rng(3).uniform(size=(40, 3))
    X[:2, 1] = column
    with pytest.raises(NumericParse, match=message):
        build_forest(X, T=4, psi=16, seed=0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(NumericParse, match=message):
        build_tree(X, rng, height_limit=6)
    assert rng.bit_generator.state == state


def oracle_inputs():
    """Uniform points plus points sitting exactly on split thresholds."""
    data = np.random.default_rng(21).uniform(size=(64, 4))
    f = build_forest(data, T=10, psi=64, seed=21)
    on_split = []
    for feature, threshold, _ in f.trees:
        for j in np.flatnonzero(feature >= 0)[:4]:
            x = data[j].copy()
            x[feature[j]] = threshold[j]
            on_split.append(x)
    return f, [*data, *on_split]


def test_recursive_reference_matches_flat_traversal():
    f, inputs = oracle_inputs()
    for t in f.trees:
        for x in inputs:
            assert path_length(t, x) == recursive_path(t, x)


def test_threshold_ties_go_right():
    t = chain_tree(1, 2)  # left: leaf of 2 at depth 1, right: leaf of 1 at depth 1
    f = forest_of([t], psi=4, n_features=1)
    assert path_length(t, [0.5]) == 1.0
    assert forest_probas(f, [0.5]).tolist() == [tree_proba(t, [0.5], f.c_psi)]
    assert path_length(t, [0.4999]) == 2.0


def test_each_leaf_reads_its_scalar_path_length_and_probability_bit_for_bit(default_shape):
    # The second forest's leaves hold many equal points each, far more than the
    # default forest's leaves.
    large_leaves = build_forest(np.repeat(np.eye(3), 100, axis=0), T=2, psi=256, seed=0)
    for forest in (default_shape[2], large_leaves):
        slots, paths = [], []
        for root, tree in zip(forest._roots.tolist(), forest.trees):
            for j, depth in leaf_depths(tree).items():
                slots.append(root + j)
                paths.append(depth + c_factor(int(tree[2][j])))
        at = forest._slot[slots]
        assert forest._path[at].tolist() == paths
        assert forest._proba[at].tolist() == [2.0 ** (-p / forest.c_psi) for p in paths]


def test_forest_walk_equals_scalar_oracle_exactly():
    built, inputs = oracle_inputs()
    # single-leaf trees and chains of unequal depth share the walk with built trees
    mixed = forest_of(
        [LEAF, chain_tree(1, 2), *built.trees, chain_tree(6, 3), LEAF],
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
    mixed = forest_of([LEAF, chain_tree(1, 2), *built.trees], psi=64, n_features=4)
    X = np.array(inputs)
    for f in (built, mixed):
        assert forest_probas(f, X).tolist() == [forest_probas(f, x).tolist() for x in inputs]
        assert forest_score(f, X).tolist() == [forest_score(f, x) for x in inputs]
        assert forest_score(f, X[:1]).tolist() == [forest_score(f, X[0])]


@pytest.mark.parametrize("shape", [(3,), (5,), (6, 3), (6, 5), (), (2, 6, 4)])
def test_the_walk_rejects_points_that_are_not_n_features_wide(shape):
    # the walk reads a block as one flat vector: a narrow row would read the next one's features
    f, _ = oracle_inputs()  # 4 features
    for walk in (forest_probas, forest_score):
        with pytest.raises(DimensionMismatch, match="vectors of 4 features"):
            walk(f, np.full(shape, 0.5))


def test_an_empty_block_walks_to_no_rows():
    f, _ = oracle_inputs()
    assert forest_probas(f, np.empty((0, 4))).shape == (0, f.n_trees)
    assert forest_score(f, np.empty((0, 4))).shape == (0,)


def test_any_layout_of_a_block_walks_as_its_c_order_copy():
    f, inputs = oracle_inputs()
    X = np.array(inputs)
    probas, scores = forest_probas(f, X).tolist(), forest_score(f, X).tolist()
    padded = np.zeros((2 * len(X), 9))
    padded[::2, 1::2] = X
    for view in (np.asfortranarray(X), padded[::2, 1::2], X[::-1][::-1]):
        assert not view.flags.c_contiguous or view.base is not None
        assert forest_probas(f, view).tolist() == probas
        assert forest_score(f, view).tolist() == scores
    for i in (0, 70):  # a point given as a Python list
        assert forest_probas(f, inputs[i].tolist()).tolist() == probas[i]
        assert forest_score(f, inputs[i].tolist()) == scores[i]


def test_a_block_at_the_default_shape_walks_as_each_row_alone(default_shape):
    records, pre, forest = default_shape
    X = transform(pre, records[:256])
    assert forest_probas(forest, X).tolist() == [forest_probas(forest, x).tolist() for x in X]


# --- the four columns -----------------------------------------------------------

def test_a_forest_holds_its_four_columns_in_its_own_types():
    data = np.random.default_rng(6).uniform(size=(300, 5))
    f = build_forest(data, T=7, psi=64, seed=6)
    cols = (f.sizes, f.feature, f.right, f.threshold)
    assert [c.dtype for c in cols] == [np.intp, np.intp, np.uint32, np.float64]
    nodes, internal = f.feature.size, int((f.feature >= 0).sum())
    assert [c.shape for c in cols] == [(7,), (nodes,), (nodes,), (internal,)]
    # in a file: a count per tree, a 1-byte feature and a 2-byte right per node, and a
    # threshold per internal node
    assert len(forest_bytes(f)) == 4 * f.n_trees + 3 * nodes + 8 * internal


def test_the_default_forest_writes_its_pinned_bytes_and_loads_back_to_them(default_shape):
    # No BLAS reaches the forest, so these bytes hold on any machine.
    _, pre, forest = default_shape
    data = forest_bytes(forest)
    assert len(data) == 131_992
    assert hashlib.sha256(data).hexdigest() == (
        "355ee0a5c59bcd7011dbe797e25a205b53334c9e118cfbf37c097e90ffa31e1c")
    det = new_detector(forest, init_params(10, seed=0), pre)
    assert forest_bytes(from_bytes(to_bytes(det)).forest) == data


def test_a_forest_over_more_features_than_one_byte_holds_has_no_file_form():
    assert len(forest_bytes(forest_of([LEAF], psi=2, n_features=128))) == 4 + 3
    with pytest.raises(DimensionMismatch, match="at most 128 features, got 129"):
        forest_bytes(forest_of([LEAF], psi=2, n_features=129))


def walk_columns(forest):
    """The per-node columns that trees splits: a leaf's threshold +0.0 in the second."""
    return forest.feature, forest._threshold, forest.right


def test_each_tree_is_a_view_into_the_one_table(pipe):
    _, _, _, built = pipe
    loaded = from_bytes(to_bytes(new_detector(built, init_params(2, seed=0), pipe[1]))).forest
    for f in (built, loaded):
        assert isinstance(f.trees, tuple) and len(f.trees) == f.n_trees
        assert [[len(c) for c in tree] for tree in f.trees] == [[n] * 3 for n in f.sizes.tolist()]
        for tree in f.trees:
            assert all(np.shares_memory(c, table) for c, table in zip(tree, walk_columns(f)))
        for pieces, table in zip(zip(*f.trees), walk_columns(f)):
            assert np.concatenate(pieces).tobytes() == table.tobytes()
        inner = f.feature >= 0
        assert f._threshold[inner].tobytes() == f.threshold.tobytes()
        assert not f._threshold[~inner].view(np.uint64).any()  # every leaf's is +0.0


def test_reading_trees_adds_nothing_to_a_pickle(pipe):
    built = pipe[3]
    before = len(pickle.dumps(built))
    assert len(built.trees) == built.n_trees
    assert len(pickle.dumps(built)) == before
    for clone in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert all(np.shares_memory(c, table)
                   for c, table in zip(clone.trees[0], walk_columns(clone)))
        assert [c.tobytes() for c in walk_columns(clone)] == [
            c.tobytes() for c in walk_columns(built)]
        assert forest_bytes(clone) == forest_bytes(built)


@pytest.mark.parametrize("sizes, message", [
    ([1, 2], "tree sizes add up to 3, not the 2 nodes"),
    ([1], "tree sizes add up to 1, not the 2 nodes"),
    ([2, 0], "nonempty trees"),
    ([3, -1], "nonempty trees"),
    ([], "got 0 trees"),
])
def test_sizes_that_do_not_frame_the_table_are_rejected(sizes, message):
    _, f, r, t = columns([LEAF, LEAF])
    with pytest.raises(CorruptModel, match=message):
        IsolationForest(sizes, f, r, t, psi=2, n_features=1)


@pytest.mark.parametrize("shape", [(3,), (1,), (2, 1)])
def test_a_right_column_of_another_shape_than_the_features_is_rejected(shape):
    _, f, _, t = columns([LEAF, LEAF])
    with pytest.raises(CorruptModel, match=rf"not the 2 nodes: .* right children \({shape[0]},"):
        IsolationForest([1, 1], f, np.ones(shape, np.uint32), t, psi=2, n_features=1)


# root: left subtree 1..5 (leaves at depths 2, 3, 3), right child 6 (a leaf at depth 1)
UNEVEN = tree_of((0, 0.5, 6), (0, 0.25, 3), (-1, 0.0, 1), (0, 0.4, 5), (-1, 0.0, 1),
                 (-1, 0.0, 1), (-1, 0.0, 2))


def test_path_length_equals_the_recursive_oracle_on_trees_of_unequal_depth():
    assert depths(UNEVEN) == [0, 1, 2, 2, 3, 3, 1]
    trees = [UNEVEN, LEAF, *(chain_tree(n, 3) for n in range(1, 7))]
    f = forest_of(trees, psi=64, n_features=1)
    for x in np.linspace(-0.1, 1.1, 49).reshape(-1, 1).tolist() + [[0.25], [0.4], [0.5]]:
        assert [path_length(t, x) for t in trees] == [recursive_path(t, x) for t in trees]
        assert forest_probas(f, x).tolist() == [tree_proba(t, x, f.c_psi) for t in trees]
    assert [path_length(UNEVEN, [x]) for x in (0.1, 0.3, 0.45, 0.9)] == [2.0, 3.0, 3.0, 2.0]


@pytest.mark.parametrize("tree, message", [
    (tree_of((0, 0.5, 1), (-1, 0.0, 1)), r"j \+ 1 < right"),  # right child is the left one
    (tree_of((0, 0.5, 2), (-2, 0.0, 1), (-1, 0.0, 1)), "non-canonical leaf"),  # feature < -1
    (tree_of((0, 0.5, 2), (-1, 0.0, 1), (-1, 0.0, 65)), "non-canonical leaf"),  # size > psi
    # node 0's right child 3 sits between its left subtree's nodes 1, 2 and 4
    (tree_of((0, 0.5, 3), (0, 0.25, 4), (-1, 0.0, 1), (-1, 0.0, 1), (-1, 0.0, 1)),
     "not one tree in preorder"),
    # node 2 is the right child of node 0 and the left child of node 1
    (tree_of((0, 0.5, 2), (0, 0.25, 3), (-1, 0.0, 1), (-1, 0.0, 1)), "more than one parent"),
    # node 1, and node 3, are never reached
    (tree_of((-1, 0.0, 1), (-1, 0.0, 1)), "not one tree in preorder"),
    (tree_of((0, 0.5, 2), (-1, 0.0, 1), (-1, 0.0, 1), (-1, 0.0, 1)), "not one tree in preorder"),
    # a ladder: node i's children are i + 1 and i + 2, so each level outgrows the last
    (tree_of(*[(0, 0.5, i + 2) for i in range(8)], (-1, 0.0, 1), (-1, 0.0, 1)),
     "more than one parent"),
    # a root that is a leaf, with the lowest feature a file's signed byte holds
    (tree_of((-128, 0.0, 1)), "non-canonical leaf"),
])
def test_a_tree_that_is_not_canonical_is_rejected(tree, message):
    with pytest.raises(CorruptModel, match=message):
        forest_of([LEAF, tree], psi=64, n_features=1)


@pytest.mark.parametrize("change", [lambda t: t[:-1], lambda t: np.append(t, 0.0),
                                    lambda t: t[:, None]], ids=["one-short", "one-long", "2-D"])
def test_a_threshold_column_of_other_than_one_per_internal_node_is_rejected(change):
    sizes, f, r, t = columns([UNEVEN, LEAF])
    assert IsolationForest(sizes, f, r, t, psi=64, n_features=1).threshold.tolist() == [0.5, 0.25, 0.4]
    with pytest.raises(CorruptModel, match="3 internal nodes need as many thresholds"):
        IsolationForest(sizes, f, r, change(t), psi=64, n_features=1)


# --- preorder keys -------------------------------------------------------------

def preorder_keys(tree, h):
    """Each node's key, given by _child_keys from its parent's on the way down."""
    f, _, r = tree
    keys = np.zeros(len(f), dtype=np.int64)
    for j in np.flatnonzero(f >= 0):  # in preorder a parent comes before its children
        keys[j + 1], keys[r[j]] = _child_keys(keys[j], (keys[j] & 63) + 1, h)
    return keys


def right_spine(depth):
    """Internal nodes each with a leaf of 1 on the left and the next one on the right."""
    return tree_of(*[node for i in range(depth) for node in ((0, 0.5, 2 * i + 2), (-1, 0.0, 1))],
                   (-1, 0.0, 1))


@pytest.mark.parametrize("key, depth, h", [(0, 1, 8), (1, 2, 8), (2049, 2, 6), (0, 32, 32)])
def test_a_left_child_keys_one_more_and_a_right_child_skips_the_left_subtree(key, depth, h):
    left, right = _child_keys(np.int64(key), depth, h)
    assert (left, right) == (key + 1, key + 1 + (1 << (h - depth + 6)))


@pytest.mark.parametrize("tree", [UNEVEN, right_spine(6), chain_tree(6, 3)],
                         ids=["uneven", "right-spine", "left-chain"])
def test_keys_rise_along_a_tree_in_preorder_and_end_in_the_depth(tree):
    keys = preorder_keys(tree, h=6)
    assert (np.diff(keys) > 0).all()
    assert (keys & 63).tolist() == depths(tree)


@CRAFTED
def test_keys_rise_along_every_grown_tree(make, T, psi):
    forest = build_forest(make(np.random.default_rng(100)), T, psi, seed=0)
    for tree in forest.trees:
        assert (np.diff(preorder_keys(tree, forest.height_limit)) > 0).all()


def test_a_leaf_of_2_31_points_or_more_gets_its_path_length():
    # right holds a size in u4, as a model file's u4 column does: in i4 it would
    # sign-extend over the leaf key's depth bits
    tree = tree_of((0, 0.5, 2), (-1, 0.0, 1), (-1, 0.0, 3_000_000_000))
    forest = forest_of([tree], psi=2**32 - 1, n_features=1)
    paths = [1 + c_factor(1), 1 + c_factor(3_000_000_000)]
    assert forest._path[forest._slot[1:]].tolist() == paths and round(paths[1], 3) == 43.798
    assert forest_probas(forest, [[0.25], [0.75]]).tolist() == [
        [2.0 ** (-p / forest.c_psi)] for p in paths]


def test_the_tree_oracles_read_a_leaf_of_2_31_points_or_more_as_the_forest_does():
    tree = tree_of((0, 0.5, 2), (-1, 0.0, 1), (-1, 0.0, 3_000_000_000))
    forest = forest_of([tree], psi=2**32 - 1, n_features=1)
    path = 1 + c_factor(3_000_000_000)
    assert path_length(tree, [0.75]) == recursive_path(tree, [0.75]) == path
    assert round(path, 3) == 43.798
    assert forest_score(forest, [0.75]) == 2.0 ** (-path / forest.c_psi)


def test_a_depth_32_right_path_keys_within_int64_and_loads():
    # psi = 2**32 - 1, the largest the header holds, gives the largest height limit.
    psi = 2**32 - 1
    h = IsolationForest.height_limit_for(psi)
    keys = preorder_keys(right_spine(h), h)
    assert h == 32 and keys[-1] == (2**32 - 1) << 6 | 32 and keys.dtype == np.int64
    forest = forest_of([right_spine(h)], psi=psi, n_features=1)
    assert forest_score(forest, [1.0]) == 2.0 ** (-32 / forest.c_psi)
