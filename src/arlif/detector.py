"""Streaming detector state machine and the ARLF model file format.

A Detector owns a frozen isolation forest and preprocessor, the trainable
attention parameters, and one k-length probability history per tree
(kept as a T x k matrix whose last column is the most recent response).
observe() scores a record or a block of records; learn() additionally
applies one online SGD update to the attention layer. A block is walked once
and its stack of history matrices scored by one forward call, in buffers
forward makes and drops. A single record runs in the one buffer a detector
keeps, its single-matrix workspace, which learn differentiates: made by the
first such step, so no later one allocates, and never saved; a copy by
dataclasses.replace or a loaded model makes its own, a deepcopy or pickle
copies it. A record shifts the histories, one C-order block, as one move of
the flat T*k buffer. Nothing ever mutates the forest or the preprocessor
after construction. Nothing here reads the clock; a caller that reports a
time does.

Model files are versioned little-endian binary ("ARLF" magic), 64-bit
reals throughout:

    header      magic 4s | version u16 | flags u16 | k u32 | T u32 |
                psi u32 | m u32 | tau f64 | forest_tau f64 | eta f64 | samples_seen u64
    pre         selected m*u32 | min_max 41*2 f64 | vocab: per categorical
                column count u32 then (len u32 + utf-8 bytes) per token
    forest      IsolationForest's four columns, every tree in preorder and the
                trees back to back: each tree's node count, T*u32; each node's
                feature, n*i8, -1 for a leaf; each node's right child (its offset
                in its tree) or leaf size, n*u16, or n*u32 when psi > 32767; then
                each internal node's threshold, f64, in node order
    attention   params: AttentionParams.flat, 3k(k+1) f64 (Wq, Wk, Wv k*k
                each, then bq, bk, bv k each); histories (T*k f64)
    trailer     CRC-32 (zlib.crc32) of every byte before it, u32

flags is exactly 0x0001 (bit 0: the attention segment is present); every file
this program writes holds it, and a file with any other flags value is rejected
on load, as are versions 1 (28-byte nodes), 2 (no forest_tau, no trailer) and 3
(16-byte node records, each tree after its count).
"""

from __future__ import annotations

import math
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .attention import (AttentionParams, ForwardCache, backward, bce_loss, forward,
                        param_count, sgd_step, workspace)
from .errors import (
    BadMagic,
    CorruptModel,
    DimensionMismatch,
    Diverged,
    EmptyStream,
    TruncatedFile,
    VersionUnsupported,
)
from .iforest import IsolationForest, forest_probas
from .ingest import CATEGORICAL_COLUMNS, N_FEATURES, Preprocessor, Record, transform

# Rows per call of every row loop, read only by blocks(): train_online's and
# tune_baseline_threshold's walks, replay's and stream's observe blocks. So it sizes the walks
# and the reply batches; attention.PIECE_BYTES sizes the T x T buffers. At T=100, k=10 on a
# 2-vCPU Xeon with 1 BLAS thread: of 8 to 128, 64 gave a block observe, then one forward, the
# most rows/s; a 64-row walk took 8.9 us/row (forest_score 6.2), a 4096-row one 14.4 (15.0); of
# stream caps 16, 32 and 64, 64 was within noise of the most lines/s.
BLOCK = 64
# SGD learning rate of new_detector and arlif's --eta. At 0.05 one step pushes the
# readout onto its clamp, where backward returns zero for good.
DEFAULT_ETA = 0.001

MAGIC = b"ARLF"
FORMAT_VERSION = 4
_FLAG_ATTENTION = 0x0001

_HEADER = struct.Struct("<4sHHIIIIdddQ")
_CRC = struct.Struct("<I")


@dataclass
class DetectionResult:
    """observe's result: for one record a float score and an int prediction,
    for a block an array of each."""

    score: float | np.ndarray
    predicted: int | np.ndarray


@dataclass
class TrainingReport:
    mean_losses: list[float]  # one entry per epoch
    samples_per_epoch: int


@dataclass(eq=False)
class Detector:
    """Construction and to_bytes check the rules on its parts, however they
    were made or assigned since: a bad value raises CorruptModel, parts that
    differ in size DimensionMismatch."""

    forest: IsolationForest
    params: AttentionParams
    pre: Preprocessor
    histories: np.ndarray  # T x k, column k-1 most recent; C-order float64 once constructed
    tau: float  # cuts the attention readout
    eta: float
    forest_tau: float  # cuts the plain forest score, the baseline's threshold
    samples_seen: int = 0
    # forward/backward buffers of single-record steps, made by the first; not in the file
    _workspace: ForwardCache | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.histories = np.ascontiguousarray(self.histories, dtype=np.float64)
        self._check()

    def _check(self):
        if not (0.0 < self.tau < 1.0 and 0.0 < self.forest_tau < 1.0 and 0.0 < self.eta < np.inf):
            raise CorruptModel(f"need tau and forest_tau in (0,1) and a finite eta > 0, got "
                               f"tau={self.tau}, forest_tau={self.forest_tau}, eta={self.eta}")
        if self.pre.m != self.forest.n_features:
            raise DimensionMismatch(f"preprocessor emits {self.pre.m} features, "
                                    f"forest was built on {self.forest.n_features}")
        if self.histories.shape != (self.forest.n_trees, self.params.k):
            raise DimensionMismatch(f"histories must be T x k = {self.forest.n_trees} x "
                                    f"{self.params.k}, got {self.histories.shape}")
        if not np.isfinite(self.params.flat).all():
            raise CorruptModel("attention parameters must be finite")
        if not ((self.histories >= 0.0) & (self.histories <= 1.0)).all():
            raise CorruptModel("histories must lie in [0,1]")
        n = self.samples_seen
        if not (isinstance(n, (int, np.integer)) and 0 <= int(n) < 2 ** 64):  # the header's u64
            raise CorruptModel(f"samples_seen must be an integer in [0, 2**64), got {n!r}")


def new_detector(forest: IsolationForest, params: AttentionParams, pre: Preprocessor,
                 tau: float = 0.5, eta: float = DEFAULT_ETA, forest_tau: float = 0.5) -> Detector:
    """Fresh detector; every history slot starts at the neutral 0.5."""
    return Detector(forest=forest, params=params, pre=pre,
                    histories=np.full((forest.n_trees, params.k), 0.5), tau=tau, eta=eta,
                    forest_tau=forest_tau)


def blocks(rows):
    """rows in consecutive slices of BLOCK, in order; the last may be shorter."""
    for i in range(0, len(rows), BLOCK):
        yield rows[i:i + BLOCK]


def _walk(det: Detector, records) -> np.ndarray:
    """Every tree's probability for each record, (N, T), in one forest walk."""
    return forest_probas(det.forest, transform(det.pre, records))


def observe(det: Detector, r: Record | Sequence[Record], *,
            probas: np.ndarray | None = None) -> DetectionResult:
    """Score one record, or a block of records in order.

    One record: push its per-tree probas into the histories, run the
    attention forward pass in the detector's workspace, threshold at tau.
    probas, when given, is r's per-tree probability vector (T,) from an
    earlier forest walk; r is then not walked again. A probas of another
    shape, or any with a block, raises DimensionMismatch, one with an entry
    outside [0, 1] CorruptModel, and either leaves the detector as it was.

    A block gives the scores, histories and samples_seen that one call per
    record would, with one forest walk and one forward call on the stack of
    history matrices the records produce in turn: window i of the per-tree
    probability sequence (the current history, then each record's
    probabilities) is the matrix the single path would see at record i. A
    workspace past attention.WORKSPACE_LIMIT raises BufferTooLarge and leaves
    the detector as it was, with no workspace made.
    """
    if isinstance(r, Record):
        H = det.histories
        if probas is None:
            probas = forest_probas(det.forest, transform(det.pre, r))
        elif np.shape(probas) != H.shape[:1]:
            raise DimensionMismatch(f"probas must have shape {H.shape[:1]}, one per tree, "
                                    f"got {np.shape(probas)}")
        elif not (0.0 <= np.minimum.reduce(probas) and np.maximum.reduce(probas) <= 1.0):
            raise CorruptModel("probas must lie in [0,1]")
        if det._workspace is None:
            det._workspace = workspace(*H.shape)
        if not H.flags.c_contiguous:  # assigned since construction, which converts them
            det.histories = H = np.ascontiguousarray(H)
        Hf = H.reshape(-1)  # a view: one move shifts every row, then the last column is set
        Hf[:-1] = Hf[1:]
        H[:, -1] = probas
        s = forward(det.params, H, out=det._workspace)[0]
        predicted, n = (1 if s >= det.tau else 0), 1
    elif probas is not None:
        raise DimensionMismatch("probas is one record's; a block walks the forest itself")
    elif len(r):
        k, n = det.params.k, len(r)
        seq = np.concatenate([det.histories[:, 1:].T, _walk(det, r)])  # (k - 1 + N) x T
        step, tree = seq.strides  # window i's [t, j] is seq[i + j, t], in a read-only view
        windows = np.ndarray((n, seq.shape[1], k), seq.dtype, seq, strides=(step, tree, step))
        windows.flags.writeable = False
        s = forward(det.params, windows)[0]
        det.histories[...] = seq[-k:].T
        predicted = (s >= det.tau).astype(int)
    else:
        s, predicted, n = np.empty(0), np.empty(0, int), 0
    det.samples_seen += n
    return DetectionResult(score=s, predicted=predicted)


@np.errstate(over="ignore", invalid="ignore")  # as a decorator it costs half the with form
def learn(det: Detector, r: Record, label: int, *,
          probas: np.ndarray | None = None) -> float:
    """observe one Record (passing probas on; any other r raises TypeError), then one BCE/SGD
    update of the attention layer only; a label other than 0 or 1 raises ValueError, before
    any change. Raises Diverged once the readout or the parameters are no longer finite;
    the overflow that leads there is reported by that error alone."""
    if not isinstance(r, Record):
        raise TypeError(f"learn takes one Record, got {type(r).__name__}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    res = observe(det, r, probas=probas)
    cache = det._workspace  # the forward pass observe just ran
    sgd_step(det.params, backward(det.params, cache, label), det.eta)
    if not (math.isfinite(cache.r) and np.isfinite(det.params.flat).all()):
        raise Diverged(f"attention layer diverged at sample {det.samples_seen} "
                       f"(readout {cache.r}, eta={det.eta})")
    return bce_loss(res.score, label)


def train_online(det: Detector, records, epochs: int = 1) -> TrainingReport:
    """One learn() per sample in stream order, per epoch.

    The forest is frozen, so a record's tree probabilities do not depend on
    learning: each slice that blocks() yields is walked in one forest walk, and
    learn() then takes each record's row of it. Every epoch walks its slices
    again. The walk is per row, so the slice size changes no bit.

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
        for chunk in blocks(records):
            for r, p in zip(chunk, _walk(det, chunk)):
                total += learn(det, r, r.label, probas=p)
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


def _offset_dtype(psi: int) -> str:
    """The file's type of a right-child offset or leaf size. A tree is at most
    ceil(log2 psi) deep, so up to psi = 32767 it has at most 65,535 nodes, and u16
    holds every offset in it and every leaf size up to psi."""
    return "<u2" if psi <= 32767 else "<u4"


def forest_bytes(forest: IsolationForest) -> bytes:
    """The forest segment exactly as it appears inside a model file: the forest's
    four columns, each in the file's type."""
    if forest.n_features > 128:
        raise DimensionMismatch(f"a model file holds a feature in one signed byte, so at "
                                f"most 128 features, got {forest.n_features}")
    return b"".join([forest.sizes.astype("<u4").tobytes(), forest.feature.astype("i1").tobytes(),
                     forest.right.astype(_offset_dtype(forest.psi)).tobytes(),
                     forest.threshold.astype("<f8", copy=False).tobytes()])


def attention_params_bytes(params: AttentionParams) -> bytes:
    """The parameter segment: the layer's vector, 8 * 3k(k+1) bytes of 64-bit reals."""
    return params.flat.astype("<f8", copy=False).tobytes()


def to_bytes(det: Detector) -> bytes:
    """The model file's bytes; a field assigned a value the loader would
    reject raises here instead (Detector's rules)."""
    det._check()
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        _FLAG_ATTENTION,
        det.params.k,
        det.forest.n_trees,
        det.forest.psi,
        det.pre.m,
        det.tau,
        det.forest_tau,
        det.eta,
        det.samples_seen,
    )
    body = b"".join([header, _pre_bytes(det.pre), forest_bytes(det.forest),
                     attention_params_bytes(det.params),
                     np.ascontiguousarray(det.histories, dtype="<f8").tobytes()])
    return body + _CRC.pack(zlib.crc32(body))


def save_model(det: Detector, sink) -> int:
    """Write the model to a path or binary file object; returns its byte length."""
    data = to_bytes(det)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        with open(sink, "wb") as fh:
            fh.write(data)
    return len(data)


class _Reader:
    def __init__(self, buf: bytes, end: int):
        self.buf = buf
        self.end = end  # where the payload stops and the trailer starts
        self.pos = 0

    def _skip(self, n: int) -> int:
        """Where the next n bytes start, once they are known to lie within the payload."""
        if self.pos + n > self.end:
            raise TruncatedFile(
                f"needed {n} bytes at offset {self.pos}, the payload has {self.end}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        at = self._skip(n)
        return self.buf[at : at + n]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next count items, a read-only view of the buffer: checked, then neither
        copied nor allocated, so a count read from the file sizes nothing."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.buf, dtype, count, self._skip(count * dtype.itemsize))


def from_bytes(data: bytes) -> Detector:
    """Check magic, version, flags and then the trailer before parsing the body;
    the constructors it calls check what the parts hold."""
    if data[:4] != MAGIC:
        raise BadMagic("not an ARLF model file")
    end = len(data) - _CRC.size
    rd = _Reader(data, end)
    magic, version, flags, k, T, psi, m, tau, forest_tau, eta, samples_seen = _HEADER.unpack(
        rd.take(_HEADER.size)
    )
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"format version {version}, this build reads {FORMAT_VERSION}")
    if flags != _FLAG_ATTENTION:
        raise VersionUnsupported(f"header flags {flags:#06x}, this build reads only "
                                 f"{_FLAG_ATTENTION:#06x} (attention segment present)")
    stored, crc = _CRC.unpack_from(data, end)[0], zlib.crc32(memoryview(data)[:end])
    if stored != crc:
        raise CorruptModel(f"checksum mismatch: the trailer holds {stored:#010x}, "
                           f"the bytes before it give {crc:#010x}")
    if k < 1:
        raise CorruptModel(f"need window k >= 1 (got {k})")

    selected = rd.array("<u4", m).tolist()
    min_max = [(lo, hi) for lo, hi in rd.array("<f8", N_FEATURES * 2).reshape(-1, 2).tolist()]
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

    sizes = rd.array("<u4", T)
    f = rd.array("i1", int(sizes.sum()))
    r = rd.array(_offset_dtype(psi), f.size)
    t = rd.array("<f8", int(np.count_nonzero(f >= 0)))
    forest = IsolationForest(sizes, f, r, t, psi, m)

    params = AttentionParams(rd.array("<f8", param_count(k)).copy(), k)
    histories = rd.array("<f8", T * k).reshape(T, k).copy()
    if rd.pos != end:
        raise TruncatedFile(f"{end - rd.pos} trailing bytes after model payload")
    return Detector(forest=forest, params=params, pre=pre, histories=histories,
                    tau=tau, eta=eta, forest_tau=forest_tau, samples_seen=samples_seen)


def load_model(source) -> Detector:
    """Read a model from a path or binary file object."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return from_bytes(data)
