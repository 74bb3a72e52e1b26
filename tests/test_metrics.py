import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import arlif.detector
import arlif.metrics
from arlif.attention import init_params
from arlif.detector import BLOCK, new_detector, observe, to_bytes, train_online
from arlif.errors import Empty, LengthMismatch, SingleClass
from arlif.iforest import build_forest, forest_score
from arlif.ingest import transform
from arlif.metrics import (
    Confusion,
    confusion_matrix,
    evaluate,
    f1_score,
    precision_score,
    recall_score,
    replay,
    tune_baseline_threshold,
    tune_threshold,
)
from conftest import synth_records


def mk_detector(pipe, k=4, eta=0.01, seed=0):
    _, pre, _, forest = pipe
    return new_detector(forest, init_params(k, seed=seed), pre, eta=eta)


# --- counting -------------------------------------------------------------------

def test_confusion_matrix_hand_example():
    c = confusion_matrix([1, 1, 1, 0, 0, 1], [1, 1, 0, 1, 0, 1])
    assert (c.tp, c.fp, c.fn, c.tn) == (3, 1, 1, 1)
    assert c.total == 6


def test_confusion_matrix_guards():
    with pytest.raises(LengthMismatch):
        confusion_matrix([1, 0], [1])
    with pytest.raises(Empty):
        confusion_matrix([], [])


def test_confusion_total_partitions_samples():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 2, 200).tolist()
    labels = rng.integers(0, 2, 200).tolist()
    c = confusion_matrix(preds, labels)
    assert c.total == 200
    assert c.tp + c.fn == sum(labels)
    assert c.tp + c.fp == sum(preds)


def test_f1_hand_values():
    assert f1_score(Confusion(tp=2, fp=1, fn=1, tn=0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert f1_score(Confusion(tp=0, fp=5, fn=5, tn=5)) == 0.0
    assert f1_score(Confusion(tp=10, fp=0, fn=0, tn=0)) == 1.0
    assert precision_score(Confusion(tp=3, fp=1, fn=0, tn=0)) == 0.75
    assert recall_score(Confusion(tp=3, fp=0, fn=1, tn=0)) == 0.75
    assert precision_score(Confusion(tp=0, fp=0, fn=2, tn=2)) == 0.0


def test_f1_equals_integer_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, 4))
        if tp == 0:
            continue
        c = Confusion(tp=tp, fp=fp, fn=fn, tn=tn)
        assert f1_score(c) == pytest.approx(2 * tp / (2 * tp + fp + fn), abs=1e-12)


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_requires_samples(pipe):
    det = mk_detector(pipe)
    with pytest.raises(Empty):
        evaluate(det, [])
    with pytest.raises(ValueError):
        evaluate(det, pipe[0][:10], mode="nonsense")


def test_evaluate_arlif_matches_manual_stream(pipe):
    records, _, _, _ = pipe
    test = records[:50]
    det = mk_detector(pipe)
    rep = evaluate(det, test, mode="arlif")

    twin = mk_detector(pipe)  # fresh histories = the reset evaluate performs
    preds, labels = [], []
    for r in test:
        preds.append(observe(twin, r).predicted)
        labels.append(r.label)
    c = confusion_matrix(preds, labels)
    assert (rep.confusion.tp, rep.confusion.fp, rep.confusion.fn, rep.confusion.tn) == \
        (c.tp, c.fp, c.fn, c.tn)
    assert rep.f1 == pytest.approx(f1_score(c), abs=1e-12)
    assert rep.mode == "arlif"


def test_evaluate_across_blocks_and_a_window_longer_than_one(pipe, monkeypatch):
    records, _, _, _ = pipe
    test = records[:2 * BLOCK + 5]  # the last block is short
    det = mk_detector(pipe, k=BLOCK + 6)
    twin = replace(det, histories=det.histories.copy())
    scores = [observe(twin, r).score for r in test]
    det.tau = float(np.median(scores))  # a threshold with many scores close on either side
    c = confusion_matrix([int(s >= det.tau) for s in scores], [r.label for r in test])
    rep = evaluate(det, test)
    assert rep.confusion == c and rep.f1 == f1_score(c)
    replayed, block_ns = replay(det, test)
    assert replayed.tolist() == scores and len(block_ns) == 3
    assert [len(a) for a in replay(det, [])] == [0, 0]
    assert [len(a) for a in replay(det, [], "baseline-if")] == [0, 0]
    # replay and evaluate slice by detector.BLOCK as read at the call: 20 rows in 7, 7 and 6
    monkeypatch.setattr(arlif.detector, "BLOCK", 7)
    replayed, block_ns = replay(det, test[:20])
    assert replayed.tolist() == scores[:20] and len(block_ns) == 3
    c = confusion_matrix([int(s >= det.tau) for s in scores[:20]], [r.label for r in test[:20]])
    assert evaluate(det, test[:20]).confusion == c


def test_evaluate_equals_the_per_row_reference_at_the_default_shape(default_shape):
    records, pre, forest = default_shape
    det = new_detector(forest, init_params(10, seed=0), pre, eta=0.001)
    train_online(det, records[:500])
    test = synth_records(1000, seed=1, attack_rate=0.5)
    labels = [r.label for r in test]
    run = replace(det, histories=np.full_like(det.histories, 0.5))
    scores = [observe(run, r).score for r in test]
    det.tau = float(np.median(scores))  # a threshold with many scores close on either side
    c = confusion_matrix([int(s >= det.tau) for s in scores], labels)
    rep = evaluate(det, test)
    assert rep.confusion == c and rep.f1 == f1_score(c)

    tau_b = float(np.median([forest_score(forest, transform(pre, r)) for r in test]))
    c = confusion_matrix([int(forest_score(forest, transform(pre, r)) >= tau_b) for r in test],
                         labels)
    rep = evaluate(det, test, "baseline-if", baseline_tau=tau_b)
    assert rep.confusion == c and rep.f1 == f1_score(c)


def test_a_replay_at_400_trees_peaks_under_30_mb(default_shape):
    # a whole 64-row block would hold 64 x 400 x 400 doubles (82 MB) in E alone; pieces
    # bound the T x T buffers by detector.PIECE_BYTES, here one matrix at a time
    records, pre, _ = default_shape
    forest = build_forest(transform(pre, records), T=400, psi=256, seed=0)
    det = new_detector(forest, init_params(10, seed=0), pre)
    tracemalloc.start()
    try:
        scores, _ = replay(det, records[:640])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (640,) and peak <= 30e6, peak


def test_evaluate_baseline_matches_manual_threshold(pipe):
    records, pre, _, forest = pipe
    test = records[:60]
    det = mk_detector(pipe)
    rep = evaluate(det, test, mode="baseline-if", baseline_tau=0.55)
    preds = [int(forest_score(forest, transform(pre, r)) >= 0.55) for r in test]
    c = confusion_matrix(preds, [r.label for r in test])
    assert (rep.confusion.tp, rep.confusion.fp, rep.confusion.fn, rep.confusion.tn) == \
        (c.tp, c.fp, c.fn, c.tn)
    assert rep.mode == "baseline-if"


def test_evaluate_cuts_each_mode_at_its_stored_threshold(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe)
    det.tau, det.forest_tau = 0.5, 0.44
    a = evaluate(det, records[:40], mode="baseline-if")
    b = evaluate(det, records[:40], mode="baseline-if", baseline_tau=0.44)
    assert a.confusion == b.confusion and a.tau == b.tau == 0.44
    assert a.confusion != evaluate(det, records[:40], mode="baseline-if", baseline_tau=0.5).confusion
    assert evaluate(det, records[:40], mode="baseline-if", baseline_tau=0.3).tau == 0.3
    assert evaluate(det, records[:40]).tau == 0.5


def test_evaluate_leaves_detector_untouched(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe)
    for r in records[:7]:  # a mid-stream state worth preserving
        observe(det, r)
    before = to_bytes(det)
    hist_before = det.histories.copy()
    for mode in ("arlif", "baseline-if"):
        evaluate(det, records[:30], mode=mode)
        assert to_bytes(det) == before
        assert np.array_equal(det.histories, hist_before)
        assert det.samples_seen == 7


def test_evaluate_deterministic_and_consistent(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe)
    a = evaluate(det, records[:50])
    b = evaluate(det, records[:50])
    assert a.f1 == b.f1
    assert (a.confusion.tp, a.confusion.fp, a.confusion.fn, a.confusion.tn) == \
        (b.confusion.tp, b.confusion.fp, b.confusion.fn, b.confusion.tn)
    assert a.confusion.total == 50
    assert a.latency_p50_ns <= a.latency_p99_ns
    assert a.total_detection_ns >= a.latency_p99_ns  # sum dominates any percentile
    assert a.precision == pytest.approx(precision_score(a.confusion), abs=1e-15)
    assert a.recall == pytest.approx(recall_score(a.confusion), abs=1e-15)


def test_evaluate_model_bytes_by_mode(pipe):
    records, _, _, _ = pipe
    det = mk_detector(pipe, k=4)
    arlif = evaluate(det, records[:20], mode="arlif")
    base = evaluate(det, records[:20], mode="baseline-if")
    assert arlif.model_bytes == len(to_bytes(det))
    assert arlif.model_bytes - base.model_bytes == 8 * (60 + det.forest.n_trees * 4)


def test_key_value_line_fields(pipe):
    records, _, _, _ = pipe
    rep = evaluate(mk_detector(pipe), records[:25])
    line = rep.key_value_line()
    pairs = dict(tok.split("=", 1) for tok in line.split())
    for key in ("mode", "tau", "samples", "tp", "fp", "fn", "tn", "precision", "recall",
                "f1", "model_bytes", "total_detection_ns", "latency_mean_ns",
                "latency_p50_ns", "latency_p99_ns"):
        assert key in pairs
    assert pairs["mode"] == "arlif" and pairs["tau"] == "0.500000"
    assert int(pairs["samples"]) == 25
    assert float(pairs["f1"]) == pytest.approx(rep.f1, abs=1e-6)


# --- baseline threshold tuning ------------------------------------------------------

def test_tune_matches_exhaustive_search(pipe):
    records, pre, vectors, forest = pipe
    labels = [r.label for r in records]
    tau = tune_baseline_threshold(forest, vectors, labels)
    scores = [forest_score(forest, x) for x in vectors]

    def integer_f1(t):
        preds = [int(s >= t) for s in scores]
        tp = sum(p and y for p, y in zip(preds, labels))
        fp = sum(p and not y for p, y in zip(preds, labels))
        fn = sum((not p) and y for p, y in zip(preds, labels))
        return 2 * tp / (2 * tp + fp + fn) if tp else 0.0

    best = max(integer_f1(i / 100) for i in range(1, 100))
    assert integer_f1(tau) == pytest.approx(best, abs=1e-12)
    # ties break toward the smallest grid point
    for i in range(1, 100):
        t = i / 100
        if integer_f1(t) == pytest.approx(best, abs=1e-12):
            assert tau == pytest.approx(t, abs=1e-12)
            break


@pytest.mark.parametrize("seed", range(6))
def test_tune_equals_the_per_vector_reference(pipe, seed):
    _, pre, _, _ = pipe
    records = synth_records(300, seed=seed, attack_rate=0.4)
    vectors = [transform(pre, r) for r in records]
    labels = [r.label for r in records]
    forest = build_forest(vectors, T=10, psi=64, seed=seed)
    scores = np.array([forest_score(forest, x) for x in vectors])
    f1s = [f1_score(confusion_matrix(scores >= i / 100.0, labels)) for i in range(1, 100)]
    assert tune_baseline_threshold(forest, vectors, labels) == (1 + int(np.argmax(f1s))) / 100.0


def test_tune_in_slices_equals_the_per_vector_reference(monkeypatch):
    rng = np.random.default_rng(5)
    vectors = rng.uniform(size=(BLOCK + 5, 3))
    labels = (vectors.sum(axis=1) > 2.2).astype(int).tolist()
    forest = build_forest(vectors, T=10, psi=64, seed=5)
    scores = np.array([forest_score(forest, x) for x in vectors])
    f1s = [f1_score(confusion_matrix(scores >= i / 100.0, labels)) for i in range(1, 100)]

    slices = []
    def recording(forest, X):
        slices.append(forest_score(forest, X))
        return slices[-1]
    monkeypatch.setattr(arlif.metrics, "forest_score", recording)
    tau = tune_baseline_threshold(forest, vectors.tolist(), labels)
    assert [len(s) for s in slices] == [BLOCK, 5]
    assert np.concatenate(slices).tolist() == scores.tolist()
    assert tau == (1 + int(np.argmax(f1s))) / 100.0

    # at detector.BLOCK as read at the call: 20 vectors in slices of 7, 7 and 6
    monkeypatch.setattr(arlif.detector, "BLOCK", 7)
    slices.clear()
    f1s = [f1_score(confusion_matrix(scores[:20] >= i / 100.0, labels[:20])) for i in range(1, 100)]
    tau = tune_baseline_threshold(forest, vectors[:20].tolist(), labels[:20])
    assert [len(s) for s in slices] == [7, 7, 6]
    assert np.concatenate(slices).tolist() == scores[:20].tolist()
    assert tau == (1 + int(np.argmax(f1s))) / 100.0


def test_tune_single_class_rejected(pipe):
    _, _, vectors, forest = pipe
    with pytest.raises(SingleClass):
        tune_baseline_threshold(forest, vectors[:10], [1] * 10)
    with pytest.raises(SingleClass):
        tune_baseline_threshold(forest, [], [])
    with pytest.raises(SingleClass):
        tune_threshold([0.2, 0.7], [0, 0])


def test_tune_threshold_hand_example():
    # every cut in (0.2, 0.6] separates the classes: the lowest grid point wins
    assert tune_threshold([0.2, 0.6, 0.2, 0.6], [0, 1, 0, 1]) == 0.21
    # no cut does: F1 is best (2/3) while every row is flagged, below 0.3
    assert tune_threshold([0.3, 0.3], [0, 1]) == 0.01


def test_tune_separated_scores_lands_in_the_gap(pipe):
    _, _, vectors, forest = pipe
    inlier = np.median(np.asarray(vectors), axis=0)
    outlier = np.full(forest.n_features, 2.0)  # far outside the unit cube
    pts = [inlier] * 5 + [outlier] * 5
    labels = [0] * 5 + [1] * 5
    s_lo = forest_score(forest, inlier)
    s_hi = forest_score(forest, outlier)
    assert s_hi - s_lo > 0.02  # precondition: a grid point fits in the gap
    tau = tune_baseline_threshold(forest, pts, labels)
    assert s_lo < tau <= s_hi  # perfect F1, smallest qualifying grid point
    grid = [i / 100 for i in range(1, 100)]
    assert tau == pytest.approx(min(t for t in grid if t > s_lo), abs=1e-12)
