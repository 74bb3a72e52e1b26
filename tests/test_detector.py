import copy
import dataclasses
import io
import math
import pickle
import random
import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import arlif.attention
import arlif.detector
from arlif.attention import (_skips_row_max, backward, bce_loss, forward, init_params, param_count,
                             sgd_step)
from arlif.detector import (
    _HEADER,
    DEFAULT_ETA,
    DetectionResult,
    Detector,
    attention_params_bytes,
    forest_bytes,
    from_bytes,
    learn,
    load_model,
    new_detector,
    observe,
    save_model,
    to_bytes,
    train_online,
)
from arlif.errors import (
    ArlifError,
    BadMagic,
    BufferTooLarge,
    CorruptModel,
    DimensionMismatch,
    Diverged,
    EmptyStream,
    TruncatedFile,
    VersionUnsupported,
)
from arlif.iforest import build_forest, forest_probas
from arlif.ingest import CATEGORICAL_COLUMNS, N_FEATURES, fit_preprocessor, transform
from arlif.metrics import evaluate
from conftest import sealed, synth_records
from reference import attention_readout, forest_of, learn_loop, tree_of, tree_proba


def mk_detector(pipe, k=4, tau=0.5, eta=0.05, seed=0, scale=0.01):
    _, pre, _, forest = pipe
    return new_detector(forest, init_params(k, seed=seed, scale=scale), pre, tau=tau, eta=eta)


def probas_for(det, r):
    x = transform(det.pre, r)
    return [tree_proba(t, x, det.forest.c_psi) for t in det.forest.trees]


# --- construction ---------------------------------------------------------------

def test_new_detector_initial_state(pipe):
    det = mk_detector(pipe, k=4)
    assert det.histories.shape == (det.forest.n_trees, 4)
    assert np.all(det.histories == 0.5)
    assert det.samples_seen == 0
    assert det.tau == 0.5 and det.eta == 0.05 and det.forest_tau == 0.5
    _, pre, _, forest = pipe
    assert new_detector(forest, init_params(4, seed=0), pre).eta == DEFAULT_ETA == 0.001


def test_new_detector_guards(pipe):
    records, pre, vectors, forest = pipe
    params = init_params(4, seed=0)
    for tau in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ValueError):
            new_detector(forest, params, pre, tau=tau)
        with pytest.raises(ValueError, match="forest_tau in"):
            new_detector(forest, params, pre, forest_tau=tau)
    for eta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            new_detector(forest, params, pre, eta=eta)
    with pytest.raises(ValueError):
        forest_of([], psi=64, n_features=pre.m)
    narrow = build_forest(np.asarray(vectors)[:, :3], T=2, psi=32, seed=0)
    with pytest.raises(DimensionMismatch):
        new_detector(narrow, params, pre)


def test_detector_constructor_checks_every_part(pipe):
    _, pre, _, forest = pipe
    nan = init_params(4, seed=0)
    nan.flat[7] = np.nan
    with pytest.raises(ValueError, match="parameters must be finite"):
        new_detector(forest, nan, pre)
    det = mk_detector(pipe)
    for bad in (1.5, -0.25, np.inf, np.nan):
        histories = det.histories.copy()
        histories[2, 1] = bad
        with pytest.raises(ValueError, match="lie in"):
            Detector(forest, det.params, pre, histories, tau=0.5, eta=0.05, forest_tau=0.5)
    five = build_forest(np.asarray(pipe[2]), T=5, psi=64, seed=0)
    for shape in ((4, 4), (5, 3)):  # (T - 1, k) and (T, k - 1) at T=5, k=4
        with pytest.raises(DimensionMismatch, match=r"histories must be T x k = 5 x 4"):
            Detector(five, init_params(4, seed=0), pre, np.full(shape, 0.5), 0.5, 0.05, 0.5)


@pytest.mark.parametrize("field, value", [
    ("tau", 1.5), ("forest_tau", 0.0), ("eta", -0.05), ("eta", np.inf),
    ("param", np.nan), ("history", 1.25),
    ("samples_seen", -5), ("samples_seen", 2 ** 64), ("samples_seen", 1.5),
])
def test_save_rejects_a_value_assigned_after_construction(pipe, tmp_path, field, value):
    """A model is checked as it is written, so every file save_model writes loads."""
    det = mk_detector(pipe)
    good = to_bytes(det)
    if field == "param":
        det.params.flat[7] = value
    elif field == "history":
        det.histories[2, 1] = value
    else:
        setattr(det, field, value)
    path = tmp_path / "m.arlf"
    with pytest.raises(CorruptModel):
        save_model(det, path)
    assert not path.exists()
    with pytest.raises(CorruptModel):
        to_bytes(det)
    if field == "param":
        det.params.flat[7] = from_bytes(good).params.flat[7]
    elif field == "history":
        det.histories[2, 1] = 0.5
    else:
        setattr(det, field, getattr(from_bytes(good), field))
    assert save_model(det, path) == len(good) and to_bytes(load_model(path)) == good
    if field == "samples_seen":  # a numpy integer the u64 field holds is accepted
        det.samples_seen = np.uint64(2 ** 64 - 1)
        assert from_bytes(to_bytes(det)).samples_seen == 2 ** 64 - 1


# --- observe --------------------------------------------------------------------

def test_single_tree_window_one_reduces_to_tree_proba(pipe):
    records, pre, vectors, _ = pipe
    forest = build_forest(vectors, T=1, psi=64, seed=3)
    det = new_detector(forest, init_params(1, seed=0, scale=0.0), pre)
    for r in records[:10]:
        res = observe(det, r)
        p = tree_proba(forest.trees[0], transform(pre, r), forest.c_psi)
        assert res.score == pytest.approx(p, abs=1e-12)
        assert res.predicted == int(res.score >= det.tau)


def test_uniform_attention_scores_mean_of_current_probas(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=3, scale=0.0)
    for r in records[:25]:
        expected = float(np.mean(probas_for(det, r)))
        res = observe(det, r)
        assert res.score == pytest.approx(expected, abs=1e-12)


def test_observe_shifts_ring_buffer(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=2)
    seen = []
    for r in records[:3]:
        seen.append(probas_for(det, r))
        observe(det, r)
        for t in range(det.forest.n_trees):
            window = ([0.5] * 2 + [row[t] for row in seen])[-2:]
            assert np.allclose(det.histories[t], window, atol=1e-15)


def test_ring_buffer_keeps_last_k(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=4)
    seen = []
    for r in records[:15]:
        seen.append(probas_for(det, r))
        observe(det, r)
    for t in range(det.forest.n_trees):
        window = [row[t] for row in seen[-4:]]
        assert np.allclose(det.histories[t], window, atol=1e-15)


def test_observe_deterministic(pipe):
    records, _, _, _ = pipe
    a = mk_detector(pipe, k=4)
    b = mk_detector(pipe, k=4)
    sa = [observe(a, r).score for r in records[:20]]
    sb = [observe(b, r).score for r in records[:20]]
    assert sa == sb
    assert a.samples_seen == b.samples_seen == 20


def test_observe_result_fields(pipe):
    det = mk_detector(pipe)
    res = observe(det, pipe[0][0])
    assert 0.0 < res.score < 1.0
    assert res.predicted in (0, 1)
    assert det.samples_seen == 1


@pytest.mark.parametrize("trees, k, block", [
    (10, 20, 7),   # the window spans several blocks
    (10, 4, 1),    # blocks of one row
    (10, 4, 13),   # the last block is short
    (10, 4, 60),   # one block for every row
    (1, 1, 5),     # one tree, a window of one step
])
def test_observe_block_equals_a_loop_of_observe(pipe, trees, k, block):
    records, pre, vectors, _ = pipe
    forest = build_forest(vectors, T=trees, psi=64, seed=7)
    params = init_params(k, seed=3, scale=0.5)  # attention far from uniform
    looped = new_detector(forest, params, pre)
    blocked = new_detector(forest, params, pre)
    rows = records[:60]
    singles = [observe(looped, r) for r in rows]
    out = [observe(blocked, rows[i:i + block]) for i in range(0, len(rows), block)]
    assert np.concatenate([res.score for res in out]).tolist() == [res.score for res in singles]
    predicted = np.concatenate([res.predicted for res in out]).tolist()
    assert predicted == [res.predicted for res in singles] and 0 < sum(predicted) < len(rows)
    for res in out:  # a block's predictions are its scores cut at tau
        assert res.predicted.tolist() == (res.score >= blocked.tau).astype(int).tolist()
    assert blocked.histories.tolist() == looped.histories.tolist()
    assert blocked.samples_seen == looped.samples_seen == len(rows)
    assert observe(blocked, []).score.size == 0 and blocked.samples_seen == len(rows)


@pytest.mark.parametrize("scale", [0.5, 3.0], ids=["unshifted", "max-shifted"])
@pytest.mark.parametrize("rows_per_piece, pieces", [(2, [2, 2, 2, 1]), (1, [1] * 7)])
def test_a_block_scored_in_pieces_equals_a_loop_of_observe(pipe, monkeypatch, scale,
                                                           rows_per_piece, pieces):
    records, pre, _, forest = pipe
    T, k = forest.n_trees, 4
    params = init_params(k, seed=3, scale=scale)
    assert _skips_row_max(params.flat, k, T) == (scale == 0.5)
    looped, blocked = new_detector(forest, params, pre), new_detector(forest, params, pre)
    for r in records[:5]:  # histories that are not all 0.5
        observe(looped, r)
        observe(blocked, r)
    calls, cut = [], []  # observe's forward calls, and the pieces forward scores
    attend_piece = arlif.attention._attend

    def recording(params, H, *, out=None):
        calls.append((len(H), out))
        return forward(params, H, out=out)

    def attend(c, H, skip_max):
        cut.append((len(H), c))
        return attend_piece(c, H, skip_max)
    monkeypatch.setattr(arlif.attention, "PIECE_BYTES", 8 * T * T * rows_per_piece)
    monkeypatch.setattr(arlif.detector, "forward", recording)
    monkeypatch.setattr(arlif.attention, "_attend", attend)
    for rows in (records[5:12], records[12:19]):  # each block in buffers forward makes
        calls[:], cut[:] = [], []
        res = observe(blocked, rows)
        assert calls == [(7, None)]  # one forward call, handed no workspace
        first = cut[0][1]  # the one workspace every piece of the block runs in
        assert [n for n, _ in cut] == pieces and len(first.H) == rows_per_piece
        assert all(np.shares_memory(c.E, first.E) for _, c in cut)
        singles = [observe(looped, r) for r in rows]
        assert res.score.tolist() == [one.score for one in singles]
        assert res.predicted.tolist() == [one.predicted for one in singles]
        assert blocked.histories.tolist() == looped.histories.tolist()
        assert blocked.samples_seen == looped.samples_seen
    assert blocked.samples_seen == 19


def test_a_refused_workspace_leaves_the_detector_as_it_was(pipe, monkeypatch):
    records, _, _, forest = pipe
    T = forest.n_trees
    monkeypatch.setattr(arlif.attention, "WORKSPACE_LIMIT", 8 * T * T)  # not even E and dE
    det = mk_detector(pipe)
    before = to_bytes(det)
    for r in (records[0], records[:3]):
        with pytest.raises(BufferTooLarge, match=f"past the limit of {8 * T * T} bytes"):
            observe(det, r)
        assert to_bytes(det) == before and det._workspace is None
    monkeypatch.undo()  # under the normal limit the same block scores as on a fresh detector
    assert observe(det, records[:3]).score.tolist() == observe(mk_detector(pipe),
                                                                records[:3]).score.tolist()
    assert det._workspace is None  # a block keeps none of its buffers


@pytest.mark.parametrize("matrices_per_piece", [None, 3], ids=["default", "not-dividing-BLOCK"])
def test_short_and_long_blocks_at_the_default_shape_equal_a_loop_of_observe(
        default_shape, monkeypatch, matrices_per_piece):
    # at T=100 the default pieces hold 8 matrices: blocks of one piece, of less, of more, and
    # of more than BLOCK, with a short block both before and after a full one
    records, pre, forest = default_shape
    T = forest.n_trees
    if matrices_per_piece:
        monkeypatch.setattr(arlif.attention, "PIECE_BYTES", 8 * T * T * matrices_per_piece)
    # forward's workspaces, one per block; a single record's comes through arlif.detector's name
    made, make = [], arlif.attention.workspace

    def recording(*shape):
        made.append(make(*shape))
        return made[-1]
    monkeypatch.setattr(arlif.attention, "workspace", recording)
    params = init_params(10, seed=3, scale=0.05)
    looped, blocked = new_detector(forest, params, pre), new_detector(forest, params, pre)
    start, sizes = 0, (1, 8, 7, 65, 9, 63, 64)
    for n in sizes:
        rows = records[start:start + n]
        start += n
        res = observe(blocked, rows)
        singles = [observe(looped, r) for r in rows]
        assert res.score.tolist() == [one.score for one in singles], n
        assert res.predicted.tolist() == [one.predicted for one in singles]
        assert blocked.histories.tolist() == looped.histories.tolist()
    assert blocked.samples_seen == looped.samples_seen == start
    assert [len(ws.H) for ws in made] == [min(n, matrices_per_piece or 8) for n in sizes]


def test_the_default_pieces_tile_a_block_at_the_default_shape():
    # else every full block would end in a short piece, scored in a view of the workspace
    per_piece = len(arlif.attention.workspace(arlif.detector.BLOCK, 100, 10).H)
    assert per_piece == 8 and arlif.detector.BLOCK % per_piece == 0


def test_a_detector_and_its_copies_keep_no_block_buffer(default_shape):
    # at T=100 a block's piece holds 8 matrices, 640 KB of them E: none of it is left once
    # observe returns, on the detector or on a copy of it, and the copies score as it does
    records, pre, forest = default_shape
    det = new_detector(forest, init_params(10, seed=0), pre)
    observe(det, records[:64])
    dets = [det, dataclasses.replace(det, histories=det.histories.copy()),
            from_bytes(to_bytes(det))]
    tracemalloc.start()
    try:
        for i in range(64, 3 * 64, 64):
            res = []
            for d in dets:
                before = tracemalloc.get_traced_memory()[0]
                res.append(observe(d, records[i:i + 64]).score)
                kept = tracemalloc.get_traced_memory()[0] - before
                assert kept < 64 << 10, (i, kept)
            assert res[1].tolist() == res[2].tolist() == res[0].tolist()
    finally:
        tracemalloc.stop()
    assert all(d._workspace is None and d.samples_seen == 3 * 64 for d in dets)


def test_each_block_peaks_near_one_piece(default_shape):
    # a block may peak at its piece workspace, made afresh by forward for every block
    records, pre, forest = default_shape
    det = new_detector(forest, init_params(10, seed=0), pre)
    tracemalloc.start()
    try:
        for i in range(0, 3 * 64, 64):
            tracemalloc.reset_peak()
            observe(det, records[i:i + 64])
            kept, peak = tracemalloc.get_traced_memory()
            assert kept < 64 << 10 and peak < 1_200_000, (i, kept, peak)
    finally:
        tracemalloc.stop()
    assert det.samples_seen == 3 * 64


def test_observe_with_precomputed_probas_equals_observe(pipe):
    records, _, _, _ = pipe
    walked, given = mk_detector(pipe, scale=0.5), mk_detector(pipe, scale=0.5)
    rows = records[:12]
    P = forest_probas(given.forest, np.array([transform(given.pre, r) for r in rows]))
    for r, p in zip(rows, P):
        assert observe(given, r, probas=p).score == observe(walked, r).score
        assert given.histories.tolist() == walked.histories.tolist()
    assert given.samples_seen == walked.samples_seen == len(rows)


@pytest.mark.parametrize("bad, error", [
    ("long", DimensionMismatch),
    ("short", DimensionMismatch),
    ("matrix", DimensionMismatch),
    (7.0, CorruptModel),
    (-0.25, CorruptModel),
    (math.nan, CorruptModel),
    ("block", DimensionMismatch),
])
def test_bad_probas_raise_and_leave_the_detector_as_it_was(pipe, bad, error):
    records, _, _, _ = pipe
    det = mk_detector(pipe)
    learn(det, records[0], 1)
    T = det.forest.n_trees
    p = np.asarray(probas_for(det, records[1]))
    probas = {"long": np.full(T + 1, 0.5), "short": p[:-1], "matrix": p[None],
              "block": np.full(7, 5.0)}.get(bad)
    if probas is None:
        probas = p.copy()
        probas[T // 2] = bad
    steps = [lambda: observe(det, records[1], probas=probas),
             lambda: learn(det, records[1], 1, probas=probas)]
    if bad == "block":  # a block walks the forest itself; learn refuses one before observe
        steps = [lambda: observe(det, records[1:6], probas=probas)]
    before, hist, seen = to_bytes(det), det.histories.copy(), det.samples_seen
    for step in steps:
        with pytest.raises(error):
            step()
        assert to_bytes(det) == before and det.samples_seen == seen
        assert np.array_equal(det.histories, hist)
    learn(det, records[1], 1, probas=p)  # the detector goes on, and saves
    assert det.samples_seen == seen + 1
    save_model(det, io.BytesIO())


def test_learn_refuses_a_block_and_leaves_the_detector_as_it_was(pipe):
    # on a fresh detector, and after a single-record step whose gradient buffer is live
    records, _, _, _ = pipe
    fresh, stepped = mk_detector(pipe), mk_detector(pipe)
    learn(stepped, records[0], 1)
    for det, rows, label in ((fresh, records[:3], 1), (stepped, records[1:4], 0)):
        before, hist, seen = to_bytes(det), det.histories.copy(), det.samples_seen
        with pytest.raises(TypeError, match="learn takes one Record, got list"):
            learn(det, rows, label)
        assert to_bytes(det) == before and det.samples_seen == seen
        assert np.array_equal(det.histories, hist)
    twin = mk_detector(pipe)  # the refused call applied no stale gradient
    learn(twin, records[0], 1)
    assert learn(stepped, records[1], 0) == learn(twin, records[1], 0)
    assert to_bytes(stepped) == to_bytes(twin)


@pytest.mark.parametrize("label", [2, -1, 0.5, "1", None])
def test_learn_refuses_a_label_other_than_0_or_1_and_leaves_the_detector_as_it_was(pipe, label):
    # on a fresh detector, and after a single-record step whose gradient buffer is live
    records, _, _, _ = pipe
    fresh, stepped = mk_detector(pipe), mk_detector(pipe)
    learn(stepped, records[0], 1)
    for det in (fresh, stepped):
        before, hist, seen = to_bytes(det), det.histories.copy(), det.samples_seen
        with pytest.raises(ValueError, match=f"label must be 0 or 1, got {re.escape(repr(label))}"):
            learn(det, records[1], label)
        assert to_bytes(det) == before and det.samples_seen == seen
        assert np.array_equal(det.histories, hist)
    twin = mk_detector(pipe)
    assert learn(fresh, records[0], 1) == learn(twin, records[0], 1)
    assert learn(stepped, records[1], 0) == learn(twin, records[1], 0)
    assert to_bytes(stepped) == to_bytes(twin)


def test_a_single_record_step_runs_in_its_detectors_own_workspace(pipe):
    # observe hands out a score and a prediction, never a buffer; learn differentiates
    # the workspace the detector keeps, and each copy makes its own
    records, _, _, _ = pipe
    assert [f.name for f in dataclasses.fields(DetectionResult)] == ["score", "predicted"]
    det = mk_detector(pipe)
    observe(det, records[0])
    first = det._workspace
    learn(det, records[1], 1)
    assert det._workspace is first  # and the only buffer a detector keeps
    assert [f.name for f in dataclasses.fields(Detector) if not f.init] == ["_workspace"]
    twins = [dataclasses.replace(det, histories=det.histories.copy(),
                                 params=copy.deepcopy(det.params)), from_bytes(to_bytes(det))]
    assert [twin._workspace for twin in twins] == [None, None]
    for i, r in enumerate(records[2:8]):
        step = (lambda d: observe(d, r).score) if i % 2 else (lambda d: learn(d, r, 1))
        got = [step(d) for d in [det] + twins]
        kept = [d._workspace for d in [det] + twins]
        assert kept[0] is first and len({id(ws) for ws in kept}) == 3
        assert got[1] == got[2] == got[0]


def test_histories_in_any_layout_score_and_save_as_their_c_order_copy(pipe):
    # observe shifts the histories as one flat move, so construction keeps them as
    # one C-order float64 block, and a layout assigned later is converted, not skipped
    records, pre, _, forest = pipe
    start = mk_detector(pipe, k=4, scale=0.5)
    observe(start, records[:6])  # every column differs from the neutral 0.5
    h = start.histories
    padded = np.zeros((2 * h.shape[0], 9))
    padded[::2, 1::2] = h
    params = lambda: copy.deepcopy(start.params)
    for layout in (np.asfortranarray(h), padded[::2, 1::2], h.tolist()):
        given = Detector(forest, params(), pre, layout, tau=0.5, eta=0.05, forest_tau=0.5)
        later = Detector(forest, params(), pre, h.copy(), tau=0.5, eta=0.05, forest_tau=0.5)
        later.histories = np.asfortranarray(h)
        c_order = Detector(forest, params(), pre, h.copy(), tau=0.5, eta=0.05, forest_tau=0.5)
        dets = (given, later, c_order)
        assert given.histories.flags.c_contiguous and given.histories.dtype == np.float64
        for i, r in enumerate(records[6:12]):
            step = (lambda d: observe(d, r).score) if i % 2 else (lambda d: learn(d, r, r.label))
            assert len({step(d) for d in dets}) == 1
            assert all(d.histories.tolist() == c_order.histories.tolist() for d in dets)
        # six shifts of a window of four: the last four records' probabilities, in order
        last = forest_probas(forest, transform(pre, records[8:12]))
        assert c_order.histories.tolist() == last.T.tolist()
        assert len({to_bytes(d) for d in dets}) == 1


def test_a_copied_or_pickled_detector_scores_and_trains_as_its_loaded_twin(pipe):
    # a copy or pickle carries the detector's workspace along, and its views must be
    # remade onto the copied buffers that forward and backward write
    records, _, _, _ = pipe
    det = mk_detector(pipe, scale=0.5)
    learn(det, records[0], 1)
    copies = [copy.deepcopy(det), pickle.loads(pickle.dumps(det))]
    twin = from_bytes(to_bytes(det))
    for i, r in enumerate(records[1:30]):
        step = (lambda d: observe(d, r).score) if i % 3 == 2 else (lambda d: learn(d, r, r.label))
        want = step(twin)
        assert [step(d) for d in copies] == [want, want]
    assert {to_bytes(d) for d in copies} == {to_bytes(twin)}


# --- learn / train_online --------------------------------------------------------

def test_learn_never_touches_forest(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe)
    before = forest_bytes(det.forest)
    for r, lab in zip(records[:20], [0, 1] * 10):
        loss = learn(det, r, lab)
        assert loss > 0.0
    assert forest_bytes(det.forest) == before
    assert det.samples_seen == 20


def test_learn_descends_on_repeated_sample(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=4, eta=0.01)
    losses = [learn(det, records[0], 1) for _ in range(10)]
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_train_online_equals_manual_loop(pipe, monkeypatch):
    # slices of 7 over 60 rows: eight whole slices and a remainder of 4, per epoch
    records, _, _, _ = pipe
    stream = records[:60]
    walks = []

    def recording(forest, X):
        walks.append(len(X))
        return forest_probas(forest, X)
    monkeypatch.setattr(arlif.detector, "BLOCK", 7)
    monkeypatch.setattr(arlif.detector, "forest_probas", recording)
    a = mk_detector(pipe, k=4, eta=0.01)
    b = mk_detector(pipe, k=4, eta=0.01)
    report = train_online(a, stream, epochs=2)
    assert walks == ([7] * 8 + [4]) * 2
    manual = []
    for _ in range(2):
        total = 0.0
        for r in stream:
            total += learn(b, r, r.label)
        manual.append(total / len(stream))
    assert report.samples_per_epoch == 60
    assert report.mean_losses == manual
    assert to_bytes(a) == to_bytes(b)


def test_train_online_walks_slices_of_block_rows(pipe, monkeypatch):
    # at the real BLOCK: two whole slices and a remainder of 5, recorded where they are walked
    records, _, _, _ = pipe
    block = arlif.detector.BLOCK
    stream = records[:2 * block + 5]
    looped = mk_detector(pipe, k=4, eta=0.01)
    for r in stream:
        learn(looped, r, r.label)
    walks = []

    def recording(pre, rows):
        walks.append(len(rows))
        return transform(pre, rows)
    monkeypatch.setattr(arlif.detector, "transform", recording)
    trained = mk_detector(pipe, k=4, eta=0.01)
    train_online(trained, stream)
    assert walks == [block, block, 5]
    assert to_bytes(trained) == to_bytes(looped)


def test_train_online_calls_each_traced_layer_once_per_row(pipe, monkeypatch):
    # the layer boundaries a tracer wraps: learn -> observe -> forward, then
    # backward and sgd_step, once per row, resolved as module attributes; a
    # span counter reads backward's three positional arguments
    records, _, _, _ = pipe
    calls = {name: 0 for name in ("learn", "observe", "forward", "backward", "sgd_step")}
    arities = []

    def counting(name):
        orig = getattr(arlif.detector, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "backward":
                arities.append((len(args), sorted(kwargs)))
            return orig(*args, **kwargs)
        return counted
    for name in calls:
        monkeypatch.setattr(arlif.detector, name, counting(name))
    monkeypatch.setattr(arlif.detector, "BLOCK", 7)
    train_online(mk_detector(pipe, eta=0.01), records[:30], epochs=2)
    assert calls == dict.fromkeys(calls, 60)
    assert arities == [(3, [])] * 60


@pytest.mark.parametrize("trees, k, eta, scale", [
    (10, 4, 0.01, 0.01),   # the unshifted branch, live steps
    (10, 4, 0.01, 2.0),    # the max-shifted branch
    (10, 4, 0.5, 0.01),    # from here on most steps end on the clamp
    (1, 4, 0.05, 0.5),     # one tree
    (10, 1, 0.05, 0.5),    # a window of one step
    (1, 1, 0.05, 0.5),
])
def test_train_online_equals_fresh_buffer_steps(pipe, trees, k, eta, scale):
    # the workspace gives the model bytes and losses of a loop that runs every
    # step on fresh buffers, and an evaluate between steps changes neither
    records, pre, vectors, _ = pipe
    forest = build_forest(vectors, T=trees, psi=64, seed=7)
    rows = records[:40]
    det = new_detector(forest, init_params(k, seed=1, scale=scale), pre, eta=eta)
    assert _skips_row_max(det.params.flat, k, trees) == (scale != 2.0)
    report = train_online(det, rows, epochs=2)

    ref = new_detector(forest, init_params(k, seed=1, scale=scale), pre, eta=eta)
    P = forest_probas(forest, transform(pre, rows))
    means, clamped = [], 0
    for _ in range(2):
        total = 0.0
        for r, p in zip(rows, P):
            ref.histories[:, :-1] = ref.histories[:, 1:]
            ref.histories[:, -1] = p
            s, cache = forward(ref.params, ref.histories)
            clamped += cache.s != cache.r
            sgd_step(ref.params, backward(ref.params, cache, r.label), eta)
            total += bce_loss(s, r.label)
        means.append(total / len(rows))
    ref.samples_seen = 2 * len(rows)
    assert report.mean_losses == means
    assert to_bytes(det) == to_bytes(ref)
    assert (clamped > 0) == (eta > 0.01) and clamped < 2 * len(rows)

    looped = new_detector(forest, init_params(k, seed=1, scale=scale), pre, eta=eta)
    losses = []
    for i, r in enumerate(rows):
        if i % 10 == 5:
            evaluate(looped, records[100:170])
        losses.append(learn(looped, r, r.label))
    mid = new_detector(forest, init_params(k, seed=1, scale=scale), pre, eta=eta)
    assert losses == [learn(mid, r, r.label) for r in rows]
    assert to_bytes(looped) == to_bytes(mid)


def test_training_leaves_inert_value_parameters_untouched():
    # the readout reads only the last value column, so the other Wv columns
    # and bv entries keep their init bytes (benchmark shape and eta)
    records = synth_records(2000, seed=0, attack_rate=0.5)
    pre = fit_preprocessor(records, 10)
    forest = build_forest([transform(pre, r) for r in records], T=100, psi=256, seed=0)
    init = init_params(10, seed=0)
    det = new_detector(forest, init_params(10, seed=0), pre, eta=0.001)
    train_online(det, records)
    assert det.params.Wv[:, :-1].tobytes() == init.Wv[:, :-1].tobytes()
    assert det.params.bv[:-1].tobytes() == init.bv[:-1].tobytes()
    assert not np.array_equal(det.params.Wv[:, -1], init.Wv[:, -1])
    assert det.params.bv[-1] != init.bv[-1]


def test_train_online_stays_within_the_rounding_budget_of_a_plain_learn_loop(default_shape):
    # 2000 rows at the benchmark's shape and eta against learn() written as a
    # row softmax and the chain rule on fresh arrays (tests/reference.py)
    records, pre, forest = default_shape
    det = new_detector(forest, init_params(10, seed=0), pre, eta=DEFAULT_ETA)
    start = det.histories.copy()
    report = train_online(det, records)
    P = forest_probas(forest, transform(pre, records))
    flat, H, losses = learn_loop(init_params(10, seed=0), start, P, [r.label for r in records],
                                 DEFAULT_ETA)
    assert np.abs(det.params.flat - flat).max() <= 1e-12
    assert np.abs(det.params.flat - init_params(10, seed=0).flat).max() > 1e-6  # it learned
    assert det.histories.tobytes() == H.tobytes()
    assert abs(report.mean_losses[0] - math.fsum(losses) / len(losses)) <= 1e-12


def test_learn_raises_diverged_instead_of_training_a_dead_layer(pipe):
    r = pipe[0][0]
    det = mk_detector(pipe)
    det.params.Wq = det.params.Wk = 1e300  # Q.K^T overflows: the readout is NaN
    with warnings.catch_warnings(record=True) as caught, pytest.raises(Diverged):
        warnings.simplefilter("always")
        learn(det, r, r.label)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    det = mk_detector(pipe)
    det.params.bv[0] = np.inf  # an inert entry: the readout stays finite, the layer does not
    assert np.isfinite(forward(det.params, det.histories)[1].r)
    with pytest.raises(Diverged):
        learn(det, r, r.label)


def test_learn_diverges_exactly_where_the_max_shifted_path_does(pipe):
    # |v| near the top of the double range at T = 200: the readout overflows in its
    # mean over trees at bv = 1e306 but not at 1e300, whatever the bound on the
    # logits, and values of +-0.85e308 that cancel each other keep it finite
    records, pre, vectors, _ = pipe
    forest = build_forest(vectors, T=200, psi=16, seed=7)
    r = records[0]

    def diverges(bias, bv, cancel=False):
        det = new_detector(forest, init_params(3, seed=10), pre, eta=0.01)
        det.params.bq += bias
        det.params.bk += bias
        det.params.bv[-1] = bv
        if cancel:  # v is +0.85e308 on the first 100 trees, -0.85e308 on the rest
            det.params.Wv[0, -1] = 1.7e308
            det.histories[:, 1] = np.arange(200) < 100
        H = det.histories.copy()
        H[:, :-1] = H[:, 1:]
        H[:, -1] = probas_for(det, r)
        with np.errstate(over="ignore"):
            expected = not math.isfinite(attention_readout(det.params, H))
        try:
            learn(det, r, r.label)
        except Diverged:
            assert expected, (bias, bv)
            return True
        assert not expected, (bias, bv)
        return False

    # biases 0 and 3.4 give logits ~0 and ~20
    outcomes = [diverges(bias, bv) for bias in (0.0, 3.4) for bv in (1e300, 1e306)]
    assert outcomes == [False, True, False, True]
    assert not diverges(0.0, -0.85e308, cancel=True)


def test_train_online_diverges_at_the_same_sample_as_a_learn_loop(pipe, monkeypatch):
    records, _, _, _ = pipe
    monkeypatch.setattr(arlif.detector, "BLOCK", 7)

    def diverge(train):
        # the 10th step poisons an inert parameter: row 3 of the second slice of 7
        steps = []
        def poisoning(params, grads, eta):
            sgd_step(params, grads, eta)
            steps.append(eta)
            if len(steps) == 10:
                params.bv[0] = np.inf
        monkeypatch.setattr(arlif.detector, "sgd_step", poisoning)
        det = mk_detector(pipe, eta=0.01)
        with pytest.raises(Diverged) as exc:
            train(det)
        return det.samples_seen, str(exc.value)

    sliced = diverge(lambda det: train_online(det, records[:60]))
    assert sliced[0] == 10
    assert sliced == diverge(lambda det: [learn(det, r, r.label) for r in records[:60]])


def test_train_online_counts_and_guards(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe)
    rep = train_online(det, records[:30], epochs=3)
    assert len(rep.mean_losses) == 3
    assert det.samples_seen == 90
    with pytest.raises(ValueError):
        train_online(det, records[:5], epochs=0)
    with pytest.raises(EmptyStream):
        train_online(det, [], epochs=1)


def test_params_and_detectors_compare_by_identity(pipe):
    a, b = init_params(3, seed=0), init_params(3, seed=0)
    assert a == a and a != b  # the arrays are not compared, so nothing raises
    det, twin = mk_detector(pipe), mk_detector(pipe)
    assert det == det and det != twin
    assert to_bytes(det) == to_bytes(twin)  # the model's equality


# --- serialization ----------------------------------------------------------------

def test_round_trip_fresh(pipe):
    det = mk_detector(pipe, k=4)
    data = to_bytes(det)
    clone = from_bytes(data)
    assert to_bytes(clone) == data


def test_round_trip_after_training(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=4, eta=0.01, tau=0.4)
    det.forest_tau = 0.37
    train_online(det, records[:100], epochs=1)
    data = to_bytes(det)
    clone = from_bytes(data)
    assert to_bytes(clone) == data
    assert clone.samples_seen == 100
    assert clone.tau == 0.4 and clone.eta == 0.01 and clone.forest_tau == 0.37
    assert np.array_equal(clone.histories, det.histories)


def forest_columns(data):
    """The forest segment's four columns, read from a model file field by field: the
    node counts, features, right offsets or leaf sizes, and internal thresholds."""
    _, _, _, k, T, psi, m, *_ = _HEADER.unpack_from(data)
    pos = _HEADER.size + 4 * m + 8 * 2 * N_FEATURES
    for _ in CATEGORICAL_COLUMNS:
        (count,), pos = struct.unpack_from("<I", data, pos), pos + 4
        for _ in range(count):
            pos += 4 + struct.unpack_from("<I", data, pos)[0]
    sizes = np.frombuffer(data, "<u4", T, pos)
    n, pos = int(sizes.sum()), pos + sizes.nbytes
    f = np.frombuffer(data, "i1", n, pos)
    r = np.frombuffer(data, "<u2" if psi <= 32767 else "<u4", n, pos + n)
    pos += f.nbytes + r.nbytes
    t = np.frombuffer(data, "<f8", int((f >= 0).sum()), pos)
    assert pos + t.nbytes == len(data) - 4 - 8 * (param_count(k) + T * k)  # attention follows
    return sizes, f, r, t


def held(forest):
    """The four columns a forest holds, in file order."""
    return forest.sizes, forest.feature, forest.right, forest.threshold


def test_a_loaded_forest_is_the_files_columns_in_one_node_table(pipe):
    data = to_bytes(mk_detector(pipe, k=3))
    in_file = forest_columns(data)
    loaded = held(from_bytes(data).forest)
    assert [c.tolist() for c in loaded] == [c.tolist() for c in in_file] and len(in_file[0]) == 10
    assert loaded[3].tobytes() == in_file[3].tobytes()
    assert [c.dtype for c in loaded] == [np.intp, np.intp, np.uint32, np.float64]
    # copies of its own: the forest keeps no view of the file's bytes
    assert not any(np.may_share_memory(c, np.frombuffer(data, np.uint8)) for c in loaded)
    assert [c.tobytes() for c in loaded] == [c.tobytes() for c in held(pipe[3])]


def file_length(det):
    """A model file's length from its layout: the header, the preprocessor, the forest's
    node counts, 1 + w bytes per node for its feature and r (w = 2, or 4 when
    psi > 32767), 8 per internal node's threshold, the attention segment, the trailer."""
    vocab = sum(4 + sum(4 + len(tok.encode()) for tok in toks) for toks in det.pre.vocab.values())
    pre = 4 * det.pre.m + 8 * 2 * N_FEATURES + vocab
    f, w = det.forest.feature, 2 if det.forest.psi <= 32767 else 4
    forest = 4 * det.forest.n_trees + (1 + w) * f.size + 8 * int((f >= 0).sum())
    attention = len(attention_params_bytes(det.params)) + det.histories.nbytes
    return _HEADER.size + pre + forest + attention + 4


def wide_psi_detector(pipe):
    """The pipe's trees at psi 100,000, with one more tree whose leaf of 70,000 points
    does not fit the 16 bits that right takes at psi <= 32767."""
    _, pre, _, forest = pipe
    big = tree_of((0, 0.5, 2), (-1, 0.0, 30_000), (-1, 0.0, 70_000))
    wide = forest_of([*forest.trees, big], psi=100_000, n_features=forest.n_features)
    return new_detector(wide, init_params(3, seed=0), pre)


def test_a_model_file_is_exactly_its_segments(pipe):
    for det in (mk_detector(pipe, k=3), wide_psi_detector(pipe)):
        assert len(to_bytes(det)) == file_length(det)


def test_a_forest_past_psi_32767_saves_loads_and_resaves_byte_for_byte(pipe):
    det = wide_psi_detector(pipe)
    data = to_bytes(det)
    clone = from_bytes(data)
    assert clone.forest.psi == 100_000 and clone.forest.right[-1] == 70_000
    assert [c.tobytes() for c in held(clone.forest)] == [c.tobytes() for c in held(det.forest)]
    assert to_bytes(clone) == data


def test_loaded_detector_scores_identically(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=4, eta=0.01)
    train_online(det, records[:80], epochs=1)
    clone = from_bytes(to_bytes(det))
    for r in records[80:100]:
        assert observe(clone, r).score == observe(det, r).score


def test_save_and_load_path_or_filelike(pipe, tmp_path):
    det = mk_detector(pipe)
    data = to_bytes(det)
    path = tmp_path / "m.arlf"
    assert save_model(det, path) == len(data)  # the byte length it wrote
    assert path.read_bytes() == data
    buf = io.BytesIO()
    assert save_model(det, buf) == len(data)
    assert buf.getvalue() == data
    assert to_bytes(load_model(path)) == data
    assert to_bytes(load_model(io.BytesIO(data))) == data


def test_attention_segment_sizes():
    assert len(attention_params_bytes(init_params(10, seed=0))) == 2640
    assert len(attention_params_bytes(init_params(4, seed=0))) == 480
    assert len(attention_params_bytes(init_params(1, seed=0))) == 48


def test_model_size_accounting(pipe):
    det = mk_detector(pipe, k=4)  # T=10 trees
    # the plain-forest baseline is counted without the parameters and histories
    full = len(to_bytes(det))
    reports = {mode: evaluate(det, pipe[0][:20], mode) for mode in ("arlif", "baseline-if")}
    assert reports["arlif"].model_bytes == full
    assert full - reports["baseline-if"].model_bytes == 8 * (60 + 10 * 4)


def test_model_size_grows_with_forest(pipe):
    records, pre, vectors, _ = pipe
    small = build_forest(vectors, T=5, psi=64, seed=1)
    big = build_forest(vectors, T=40, psi=64, seed=1)
    d_small = new_detector(small, init_params(4, seed=0), pre)
    d_big = new_detector(big, init_params(4, seed=0), pre)
    assert len(to_bytes(d_big)) > len(to_bytes(d_small))


def test_from_bytes_bad_magic(pipe):
    data = to_bytes(mk_detector(pipe))
    with pytest.raises(BadMagic):
        from_bytes(b"NOPE" + data[4:])


def test_from_bytes_unknown_version(pipe):
    data = bytearray(to_bytes(mk_detector(pipe)))
    # 2 had no forest_tau and no trailer, 3 kept 16-byte node records; none is converted
    for version in (1, 2, 3, 5):
        data[4:6] = version.to_bytes(2, "little")
        with pytest.raises(VersionUnsupported, match=f"format version {version},"):
            from_bytes(bytes(data))


def test_from_bytes_rejects_forest_only_payload(pipe):
    det = mk_detector(pipe)
    data = bytearray(to_bytes(det))
    data[6:8] = (0).to_bytes(2, "little")  # flags: attention segment absent
    data = bytes(data[: len(data) - len(attention_params_bytes(det.params)) - det.histories.nbytes])
    with pytest.raises(VersionUnsupported):
        from_bytes(data)


def test_from_bytes_truncation_and_trailing_garbage(pipe):
    data = to_bytes(mk_detector(pipe))
    for cut in (3, 17, 40, 59):  # no room for the header and the trailer
        with pytest.raises((TruncatedFile, BadMagic)):
            from_bytes(data[:cut])
    payload = data[:-4]
    for cut in (len(payload) // 2, len(payload) - 1):
        with pytest.raises(CorruptModel, match="checksum mismatch"):
            from_bytes(data[:cut])
        with pytest.raises(TruncatedFile, match="needed"):  # resealed: the layout catches it
            from_bytes(sealed(payload[:cut]))
    with pytest.raises(CorruptModel, match="checksum mismatch"):
        from_bytes(data + b"\x00")
    with pytest.raises(TruncatedFile, match="1 trailing bytes"):
        from_bytes(sealed(payload + b"\x00"))


def test_every_one_bit_flip_after_the_flags_is_rejected(pipe):
    """A flipped bit anywhere after magic, version and flags, trailer included,
    fails the checksum before the body is parsed."""
    data = to_bytes(mk_detector(pipe, k=3))
    buf = bytearray(data)
    for i in range(8, len(data)):
        buf[i] ^= 1 << (i % 8)
        with pytest.raises(CorruptModel, match="checksum mismatch"):
            from_bytes(bytes(buf))
        buf[i] = data[i]


def test_random_corruptions_fail_cleanly_or_score(pipe):
    """1-4 random byte overwrites, then the trailer resealed so that the loader's
    rules see them: ArlifError at load, or a model that scores."""
    records = pipe[0][:5]
    data = to_bytes(mk_detector(pipe, k=3, scale=0.5))[:-4]
    rng = random.Random(20221)
    outcomes = {"rejected": 0, "scored": 0}
    t0 = time.perf_counter()
    for _ in range(400):
        buf = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        try:
            det = from_bytes(sealed(bytes(buf)))
        except ArlifError:
            outcomes["rejected"] += 1
            continue
        with np.errstate(all="ignore"):  # corrupted weights may overflow; that is a score too
            for r in records:
                observe(det, r)
        outcomes["scored"] += 1
    assert time.perf_counter() - t0 < 60.0
    assert min(outcomes.values()) > 0, outcomes
