"""Quality, timing, and size measurement for ARLIF and the plain-forest baseline.

evaluate() is detection-only: it streams the test set in order through a
copy of the detector whose histories start at 0.5, for a reproducible run.
The detector itself is never mutated, so the serialized model is
byte-identical before and after an evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .detector import Detector, model_size_bytes, observe
from .errors import Empty, LengthMismatch, SingleClass
from .iforest import IsolationForest, forest_score
from .ingest import Record, transform

MODES = ("arlif", "baseline-if")


@dataclass
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion_matrix(predictions, labels) -> Confusion:
    """Tally counts with attack (1) as the positive class."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise Empty("no samples to tally")
    tp = fp = fn = tn = 0
    for p, y in zip(predictions, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1:
            fp += 1
        elif y == 1:
            fn += 1
        else:
            tn += 1
    return Confusion(tp=tp, fp=fp, fn=fn, tn=tn)


def precision_score(c: Confusion) -> float:
    return c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0


def recall_score(c: Confusion) -> float:
    return c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0


def f1_score(c: Confusion) -> float:
    """Harmonic mean of precision and recall; 0 whenever tp == 0."""
    if c.tp == 0:
        return 0.0
    p = precision_score(c)
    r = recall_score(c)
    return 2.0 * p * r / (p + r)


@dataclass
class EvalReport:
    mode: str
    confusion: Confusion
    precision: float
    recall: float
    f1: float
    total_detection_ns: int
    latency_mean_ns: float
    latency_p50_ns: int
    latency_p99_ns: int
    model_bytes: int

    def key_value_line(self) -> str:
        c = self.confusion
        return (
            f"mode={self.mode} samples={c.total} tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn} "
            f"precision={self.precision:.6f} recall={self.recall:.6f} f1={self.f1:.6f} "
            f"model_bytes={self.model_bytes} total_detection_ns={self.total_detection_ns} "
            f"latency_mean_ns={self.latency_mean_ns:.1f} "
            f"latency_p50_ns={self.latency_p50_ns} latency_p99_ns={self.latency_p99_ns}"
        )


def evaluate(det: Detector, test, mode: str = "arlif", baseline_tau: float | None = None) -> EvalReport:
    """Stream the test set in order, detection only (no learning).

    In baseline-if mode the attention layer is bypassed: the classical
    forest score is thresholded at baseline_tau (falling back to det.tau
    when the caller has no tuned threshold), and model bytes count the
    forest-only payload.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    test = list(test)
    if not test:
        raise Empty("test set is empty")

    preds = []
    lats = []
    if mode == "arlif":
        run = replace(det, histories=np.full_like(det.histories, 0.5))
        for r in test:
            res = observe(run, r)
            preds.append(res.predicted)
            lats.append(res.latency_ns)
    else:
        tau_b = det.tau if baseline_tau is None else baseline_tau
        forest = det.forest
        pre = det.pre
        for r in test:
            t0 = time.perf_counter_ns()
            s = forest_score(forest, transform(pre, r))
            lats.append(time.perf_counter_ns() - t0)
            preds.append(1 if s >= tau_b else 0)

    conf = confusion_matrix(preds, [r.label for r in test])
    arr = np.asarray(lats)
    return EvalReport(
        mode=mode,
        confusion=conf,
        precision=precision_score(conf),
        recall=recall_score(conf),
        f1=f1_score(conf),
        total_detection_ns=int(arr.sum()),
        latency_mean_ns=float(arr.mean()),
        latency_p50_ns=int(np.percentile(arr, 50, method="nearest")),
        latency_p99_ns=int(np.percentile(arr, 99, method="nearest")),
        model_bytes=model_size_bytes(det, include_attention=(mode == "arlif")),
    )


def tune_baseline_threshold(forest: IsolationForest, vectors, labels) -> float:
    """Grid-search thresholds {0.01..0.99} on forest_score, max F1, ties low."""
    labels = list(labels)
    if len(set(labels)) < 2:
        raise SingleClass("baseline threshold tuning needs both classes")
    scores = np.asarray([forest_score(forest, x) for x in vectors])
    y = np.asarray(labels)
    best_t = 0.01
    best_f1 = -1.0
    for i in range(1, 100):
        t = i / 100.0
        preds = (scores >= t).astype(int)
        tp = int(((preds == 1) & (y == 1)).sum())
        fp = int(((preds == 1) & (y == 0)).sum())
        fn = int(((preds == 0) & (y == 1)).sum())
        f1 = 0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)
        if f1 > best_f1:
            best_f1 = f1
            best_t = t
    return best_t
