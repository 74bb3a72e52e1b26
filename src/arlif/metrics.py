"""Quality, timing, and size measurement for ARLIF and the plain-forest baseline.

evaluate() is detection-only: it streams the test set in order through
replay(), which scores a copy of the detector whose histories start at 0.5,
for a reproducible run. The detector itself is never mutated, so the
serialized model is byte-identical before and after an evaluation.
tune_threshold() is the one threshold rule: arlif train applies it to the
forest score (tune_baseline_threshold) and to a replay of the training rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .detector import Detector, blocks, observe, to_bytes
from .errors import EmptyStream, LengthMismatch, SingleClass
from .iforest import IsolationForest, forest_score
from .ingest import transform

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
        raise EmptyStream("no samples to tally")
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
    replay's blocks; the latency_* fields are per-row times amortized over a
    block (its time over its rows), not single-record latencies."""

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


def replay(det: Detector, records: list, mode: str = "arlif") -> tuple[np.ndarray, list[int]]:
    """Score a list of records in order, detection only, one call per slice
    of detector.blocks(); returns the scores and each block's measured ns.

    In arlif mode the rows go through a copy of det whose histories start at
    0.5, a block per observe call, whose scores equal a loop of observe; in
    baseline-if mode each block is one forest_score call. det is never mutated.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "arlif":
        run = replace(det, histories=np.full_like(det.histories, 0.5))

        def score(block):
            return observe(run, block).score
    else:
        def score(block):
            return forest_score(det.forest, transform(det.pre, block))

    scores, block_ns = [np.empty(0)], []
    for block in blocks(records):
        t0 = time.perf_counter_ns()
        scores.append(score(block))
        block_ns.append(time.perf_counter_ns() - t0)
    return np.concatenate(scores), block_ns


def evaluate(det: Detector, test, mode: str = "arlif", baseline_tau: float | None = None) -> EvalReport:
    """Stream the test set in order through replay, detection only (no learning).

    Each block is timed as a whole, so total_detection_ns is the measured sum
    and each row's latency is its block's time over its rows: the mean, p50
    and p99 are of per-row times amortized over a block.

    In arlif mode the readout is cut at det.tau. In baseline-if mode the
    attention layer is bypassed: the classical forest score is cut at
    baseline_tau, or at the model's stored det.forest_tau when it is None,
    and model bytes leave out the attention parameters and the histories.
    """
    test = list(test)
    if not test:
        raise EmptyStream("test set is empty")
    scores, block_ns = replay(det, test, mode)
    if mode == "arlif":
        tau = det.tau
    else:
        tau = det.forest_tau if baseline_tau is None else baseline_tau
    sizes = [len(block) for block in blocks(test)]
    lats = np.repeat(np.divide(block_ns, sizes), sizes)

    size = len(to_bytes(det))
    if mode != "arlif":
        size -= det.params.flat.nbytes + det.histories.nbytes
    conf = confusion_matrix(scores >= tau, [r.label for r in test])
    return EvalReport(
        mode=mode,
        tau=tau,
        confusion=conf,
        precision=precision_score(conf),
        recall=recall_score(conf),
        f1=f1_score(conf),
        total_detection_ns=sum(block_ns),
        latency_mean_ns=float(lats.mean()),
        latency_p50_ns=int(np.percentile(lats, 50, method="nearest")),
        latency_p99_ns=int(np.percentile(lats, 99, method="nearest")),
        model_bytes=size,
    )


def tune_threshold(scores, labels) -> float:
    """Of the thresholds 0.01, 0.02, ..., 0.99, the one whose cut of scores
    has the best F1, the lowest on a tie."""
    y = np.asarray(labels)
    if len(np.unique(y)) < 2:
        raise SingleClass("threshold tuning needs both classes")
    scores = np.asarray(scores)
    f1s = [f1_score(confusion_matrix(scores >= i / 100.0, y)) for i in range(1, 100)]
    return (1 + int(np.argmax(f1s))) / 100.0


def tune_baseline_threshold(forest: IsolationForest, vectors, labels) -> float:
    """tune_threshold on forest_score of the vectors, one call per slice of
    detector.blocks(): the walk's temporaries stay small, and so does its time per row."""
    scores = [forest_score(forest, X) for X in blocks(np.array(vectors, dtype=np.float64))]
    return tune_threshold(np.concatenate([np.empty(0), *scores]), labels)
