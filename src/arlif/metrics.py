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
    p = np.asarray(predictions) == 1
    y = np.asarray(labels) == 1
    if len(p) != len(y):
        raise LengthMismatch(f"{len(p)} predictions vs {len(y)} labels")
    if not len(p):
        raise Empty("no samples to tally")
    tp = int((p & y).sum())
    fp = int(p.sum()) - tp
    fn = int(y.sum()) - tp
    return Confusion(tp=tp, fp=fp, fn=fn, tn=len(p) - tp - fp - fn)


def precision_score(c: Confusion) -> float:
    return c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0


def recall_score(c: Confusion) -> float:
    return c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0


def f1_score(c: Confusion) -> float:
    """Harmonic mean of precision and recall, 2tp / (2tp + fp + fn); 0 whenever tp == 0.

    The integer form gives exactly equal floats for equal F1, so threshold
    tuning's ties-low rule sees every tie.
    """
    return 2.0 * c.tp / (2 * c.tp + c.fp + c.fn) if c.tp else 0.0


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
    when the caller has no tuned threshold), and model bytes leave out the
    attention parameters and the histories.
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

    size = model_size_bytes(det)
    if mode != "arlif":
        size -= det.params.flat.nbytes + det.histories.nbytes
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
        model_bytes=size,
    )


def tune_baseline_threshold(forest: IsolationForest, vectors, labels) -> float:
    """Grid-search thresholds {0.01..0.99} on forest_score, max F1, ties low."""
    labels = list(labels)
    if len(set(labels)) < 2:
        raise SingleClass("baseline threshold tuning needs both classes")
    scores = np.asarray([forest_score(forest, x) for x in vectors])
    y = np.asarray(labels)
    f1s = [f1_score(confusion_matrix(scores >= i / 100.0, y)) for i in range(1, 100)]
    return (1 + int(np.argmax(f1s))) / 100.0
