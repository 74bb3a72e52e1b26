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

# observe is unused here but stays an attribute of this module: perfbench's
# tracer rebinds metrics.observe.
from .detector import WALK_SLICE, Detector, model_size_bytes, observe, observe_block  # noqa: F401
from .errors import Empty, LengthMismatch, SingleClass
from .iforest import IsolationForest, forest_score
from .ingest import transform

MODES = ("arlif", "baseline-if")
BLOCK = 64  # rows evaluate scores per call: of 8 to 128, the most rows/s at T=100, k=10


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
    """What evaluate measured. total_detection_ns is the measured sum over
    blocks of BLOCK rows; the latency_* fields are per-row times amortized
    over a block (its time over its rows), not single-record latencies."""

    mode: str
    tau: float  # the threshold the scores were cut at
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
            f"mode={self.mode} tau={self.tau:.6f} samples={c.total} tp={c.tp} fp={c.fp} fn={c.fn} "
            f"tn={c.tn} precision={self.precision:.6f} recall={self.recall:.6f} f1={self.f1:.6f} "
            f"model_bytes={self.model_bytes} total_detection_ns={self.total_detection_ns} "
            f"latency_mean_ns={self.latency_mean_ns:.1f} "
            f"latency_p50_ns={self.latency_p50_ns} latency_p99_ns={self.latency_p99_ns}"
        )


def evaluate(det: Detector, test, mode: str = "arlif", baseline_tau: float | None = None) -> EvalReport:
    """Stream the test set in order, detection only (no learning).

    Rows are scored BLOCK at a time: in arlif mode with observe_block, whose
    scores equal a loop of observe, in baseline-if mode with one forest_score
    call per block. Each block is timed as a whole, so total_detection_ns is
    the measured sum and each row's latency is its block's time over its
    rows: the mean, p50 and p99 are of per-row times amortized over a block.

    In arlif mode the readout is cut at det.tau. In baseline-if mode the
    attention layer is bypassed: the classical forest score is cut at
    baseline_tau, or at the model's stored det.forest_tau when it is None,
    and model bytes leave out the attention parameters and the histories.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    test = list(test)
    if not test:
        raise Empty("test set is empty")

    if mode == "arlif":
        run = replace(det, histories=np.full_like(det.histories, 0.5))
        tau = det.tau

        def score(block):
            return observe_block(run, block)
    else:
        tau = det.forest_tau if baseline_tau is None else baseline_tau

        def score(block):
            return forest_score(det.forest, transform(det.pre, block))

    scores, lats, total_ns = [], [], 0
    for b in range(0, len(test), BLOCK):
        block = test[b:b + BLOCK]
        t0 = time.perf_counter_ns()
        scores.append(score(block))
        ns = time.perf_counter_ns() - t0
        total_ns += ns
        lats += [ns / len(block)] * len(block)

    size = model_size_bytes(det)
    if mode != "arlif":
        size -= det.params.flat.nbytes + det.histories.nbytes
    conf = confusion_matrix(np.concatenate(scores) >= tau, [r.label for r in test])
    lats = np.asarray(lats)
    return EvalReport(
        mode=mode,
        tau=tau,
        confusion=conf,
        precision=precision_score(conf),
        recall=recall_score(conf),
        f1=f1_score(conf),
        total_detection_ns=total_ns,
        latency_mean_ns=float(lats.mean()),
        latency_p50_ns=int(np.percentile(lats, 50, method="nearest")),
        latency_p99_ns=int(np.percentile(lats, 99, method="nearest")),
        model_bytes=size,
    )


def tune_baseline_threshold(forest: IsolationForest, vectors, labels) -> float:
    """Grid-search thresholds {0.01..0.99} on forest_score, max F1, ties low.
    The vectors are scored WALK_SLICE at a time, which bounds the walk's memory."""
    labels = list(labels)
    if len(set(labels)) < 2:
        raise SingleClass("baseline threshold tuning needs both classes")
    X = np.array(vectors, dtype=np.float64)
    scores = np.concatenate([forest_score(forest, X[i:i + WALK_SLICE])
                             for i in range(0, len(X), WALK_SLICE)])
    y = np.asarray(labels)
    f1s = [f1_score(confusion_matrix(scores >= i / 100.0, y)) for i in range(1, 100)]
    return (1 + int(np.argmax(f1s))) / 100.0
