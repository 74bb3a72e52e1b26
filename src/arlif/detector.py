"""Streaming detector state machine and the ARLF model file format.

A Detector owns a frozen isolation forest and preprocessor, the trainable
attention parameters, and one k-length probability history per tree
(kept as a T x k matrix whose last column is the most recent response).
observe() scores a record; learn() additionally applies one online SGD
update to the attention layer. Nothing ever mutates the forest or the
preprocessor after construction.

Model files are versioned little-endian binary ("ARLF" magic), 64-bit
reals throughout:

    header      magic 4s | version u16 | flags u16 | k u32 | T u32 |
                psi u32 | m u32 | tau f64 | eta f64 | samples_seen u64
    pre         selected m*u32 | min_max 41*2 f64 | vocab: per categorical
                column count u32 then (len u32 + utf-8 bytes) per token
    forest      per tree: n_nodes u32 + n_nodes * 28-byte iforest.NODE_DTYPE
                records (feature i32, threshold f64, left i32, right i32,
                size i32, depth i32), written and read as the tree array
    attention   params: AttentionParams.flat, 3k(k+1) f64 (Wq, Wk, Wv k*k
                each, then bq, bk, bv k each); histories (T*k f64)

flags bit 0 marks the attention segment present; every file this program
writes sets it, and a file with it clear is rejected on load.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import (AttentionParams, ForwardCache, backward, bce_loss, forward,
                        param_count, sgd_step)
from .errors import (
    BadMagic,
    CorruptModel,
    DimensionMismatch,
    Diverged,
    EmptyStream,
    TruncatedFile,
    VersionUnsupported,
)
from .iforest import NODE_DTYPE, IsolationForest, forest_probas
from .ingest import CATEGORICAL_COLUMNS, N_FEATURES, Preprocessor, Record, transform

MAGIC = b"ARLF"
FORMAT_VERSION = 1
_FLAG_ATTENTION = 0x0001

_HEADER = struct.Struct("<4sHHIIIIddQ")


@dataclass
class DetectionResult:
    score: float
    predicted: int
    latency_ns: int
    cache: ForwardCache = field(repr=False, compare=False)


@dataclass
class TrainingReport:
    mean_losses: list[float]  # one entry per epoch
    samples_per_epoch: int


@dataclass(eq=False)
class Detector:
    forest: IsolationForest
    params: AttentionParams
    pre: Preprocessor
    histories: np.ndarray  # T x k, column k-1 most recent
    tau: float
    eta: float
    samples_seen: int = 0


def new_detector(
    forest: IsolationForest,
    params: AttentionParams,
    pre: Preprocessor,
    tau: float = 0.5,
    eta: float = 0.05,
) -> Detector:
    """Fresh detector; every history slot starts at the neutral 0.5."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0,1), got {tau}")
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be a finite number > 0, got {eta}")
    if pre.m != forest.n_features:
        raise DimensionMismatch(
            f"preprocessor emits {pre.m} features, forest was built on {forest.n_features}"
        )
    histories = np.full((forest.n_trees, params.k), 0.5)
    return Detector(forest=forest, params=params, pre=pre, histories=histories,
                    tau=tau, eta=eta, samples_seen=0)


def observe(det: Detector, r: Record) -> DetectionResult:
    """Score one record: push per-tree probas into the histories, run the
    attention forward pass, threshold at tau. The result carries the forward
    cache, which learn() differentiates."""
    t0 = time.perf_counter_ns()
    x = transform(det.pre, r)
    probas = forest_probas(det.forest, x)
    H = det.histories
    H[:, :-1] = H[:, 1:]
    H[:, -1] = probas
    s, cache = forward(det.params, H)
    latency = time.perf_counter_ns() - t0
    det.samples_seen += 1
    return DetectionResult(score=s, predicted=1 if s >= det.tau else 0, latency_ns=latency,
                           cache=cache)


def observe_block(det: Detector, records) -> np.ndarray:
    """Score records in order, as len(records) calls of observe would: the
    same scores, and the same histories and samples_seen afterwards.

    One forest walk covers the whole block, and one forward call scores the
    stack of history matrices the records produce in turn: window i of the
    per-tree probability sequence (the current history, then each record's
    probabilities) is the matrix observe would see at record i.
    """
    if not len(records):
        return np.empty(0)
    P = forest_probas(det.forest, np.array([transform(det.pre, r) for r in records]))
    k = det.params.k
    seq = np.concatenate([det.histories[:, 1:].T, P])  # (k - 1 + N) x T
    scores, _ = forward(det.params, sliding_window_view(seq, k, axis=0))  # N x T x k
    det.histories[...] = seq[-k:].T
    det.samples_seen += len(records)
    return scores


def learn(det: Detector, r: Record, label: int) -> float:
    """observe, then one BCE/SGD update of the attention layer only. Raises
    Diverged once the readout or the parameters are no longer finite; the
    overflow that leads there is reported by that error alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = observe(det, r)
        sgd_step(det.params, backward(det.params, res.cache, label), det.eta)
    if not (math.isfinite(res.cache.r) and np.isfinite(det.params.flat).all()):
        raise Diverged(f"attention layer diverged at sample {det.samples_seen} "
                       f"(readout {res.cache.r}, eta={det.eta})")
    return bce_loss(res.score, label)


def train_online(det: Detector, records, epochs: int = 1) -> TrainingReport:
    """One learn() per sample in stream order, per epoch.

    Histories are deliberately not reset between epochs: the stream is
    treated as continuous.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    records = list(records)
    if not records:
        raise EmptyStream("training stream is empty")
    means = []
    for _ in range(epochs):
        total = 0.0
        for r in records:
            total += learn(det, r, r.label)
        means.append(total / len(records))
    return TrainingReport(mean_losses=means, samples_per_epoch=len(records))


# --- serialization ---------------------------------------------------------

def _pre_bytes(pre: Preprocessor) -> bytes:
    out = [np.asarray(pre.selected, dtype="<u4").tobytes()]
    out.append(np.asarray(pre.min_max, dtype="<f8").tobytes())
    for col in sorted(pre.vocab):
        toks = pre.vocab[col]
        out.append(struct.pack("<I", len(toks)))
        for tok in toks:
            raw = tok.encode("utf-8")
            out.append(struct.pack("<I", len(raw)) + raw)
    return b"".join(out)


def forest_bytes(forest: IsolationForest) -> bytes:
    """The forest segment exactly as it appears inside a model file."""
    return b"".join(struct.pack("<I", len(tree)) + tree.tobytes() for tree in forest.trees)


def attention_params_bytes(params: AttentionParams) -> bytes:
    """The parameter segment: the layer's vector, 8 * 3k(k+1) bytes of 64-bit reals."""
    return params.flat.astype("<f8", copy=False).tobytes()


def to_bytes(det: Detector) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        _FLAG_ATTENTION,
        det.params.k,
        det.forest.n_trees,
        det.forest.psi,
        det.pre.m,
        det.tau,
        det.eta,
        det.samples_seen,
    )
    return b"".join([header, _pre_bytes(det.pre), forest_bytes(det.forest),
                     attention_params_bytes(det.params),
                     np.ascontiguousarray(det.histories, dtype="<f8").tobytes()])


def model_size_bytes(det: Detector) -> int:
    """Exact byte length of the serialized model."""
    return len(to_bytes(det))


def save_model(det: Detector, sink) -> None:
    """Write the model to a path or binary file object."""
    data = to_bytes(det)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        with open(sink, "wb") as fh:
            fh.write(data)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFile(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.buf)}"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, count: int, shape=None) -> np.ndarray:
        a = np.frombuffer(self.take(count * 8), dtype="<f8").copy()
        return a.reshape(shape) if shape is not None else a


def from_bytes(data: bytes) -> Detector:
    rd = _Reader(data)
    if rd.take(4) != MAGIC:
        raise BadMagic("not an ARLF model file")
    rd.pos = 0
    magic, version, flags, k, T, psi, m, tau, eta, samples_seen = _HEADER.unpack(
        rd.take(_HEADER.size)
    )
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"format version {version}, this build reads {FORMAT_VERSION}")
    if not flags & _FLAG_ATTENTION:
        raise VersionUnsupported(
            "forest-only payload (flags bit 0 clear) cannot back a streaming detector"
        )
    if not (0.0 < tau < 1.0 and 0.0 < eta < np.inf):
        raise CorruptModel(f"need tau in (0,1) and a finite eta > 0, got tau={tau}, eta={eta}")

    selected = np.frombuffer(rd.take(4 * m), dtype="<u4").astype(int).tolist()
    if k < 1 or not 0 < len(set(selected)) == m or max(selected) >= N_FEATURES:
        raise CorruptModel(f"need window k >= 1 (got {k}) and one or more distinct "
                           f"selected columns < {N_FEATURES}")
    mm = rd.f64_array(N_FEATURES * 2, (N_FEATURES, 2))
    min_max = [(float(lo), float(hi)) for lo, hi in mm]
    vocab: dict[int, list[str]] = {}
    for col in sorted(CATEGORICAL_COLUMNS):
        count = rd.u32()
        toks = []
        for _ in range(count):
            ln = rd.u32()
            try:
                toks.append(rd.take(ln).decode("utf-8"))
            except UnicodeDecodeError:
                raise CorruptModel(f"column {col} vocabulary is not valid UTF-8") from None
        vocab[col] = toks
    pre = Preprocessor(vocab=vocab, min_max=min_max, selected=selected)

    trees = [np.frombuffer(rd.take(rd.u32() * NODE_DTYPE.itemsize), NODE_DTYPE) for _ in range(T)]
    forest = IsolationForest(trees=trees, psi=psi, n_features=m)

    params = AttentionParams(rd.f64_array(param_count(k)), k)
    histories = rd.f64_array(T * k, (T, k))
    if rd.pos != len(data):
        raise TruncatedFile(f"{len(data) - rd.pos} trailing bytes after model payload")
    if not np.isfinite(params.flat).all():
        raise CorruptModel("attention parameters must be finite")
    if not ((histories >= 0.0) & (histories <= 1.0)).all():
        raise CorruptModel("histories must lie in [0,1]")
    return Detector(
        forest=forest,
        params=params,
        pre=pre,
        histories=histories,
        tau=tau,
        eta=eta,
        samples_seen=samples_seen,
    )


def load_model(source) -> Detector:
    """Read a model from a path or binary file object."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return from_bytes(data)
