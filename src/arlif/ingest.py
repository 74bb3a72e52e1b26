"""NSL-KDD / KDDCUP'99 ingestion.

Parses raw record lines, ranks features against the binary label, and fits
the encoder/scaler that turns records into fixed-length vectors in [0,1].

Feature values are kept as their raw string tokens on the Record so that
re-serializing a parsed row reproduces the original fields byte for byte;
numeric encoding happens only inside the preprocessor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldCountMismatch, NumericParse, SingleClass

N_FEATURES = 41
# protocol_type, service, flag
CATEGORICAL_COLUMNS = (1, 2, 3)

FORMATS = ("nsl-kdd", "kdd99")


@dataclass
class Record:
    """One parsed dataset row: 41 raw feature tokens plus the binary label."""

    features: list[str]
    label: int
    raw_label: str

    def features_csv(self) -> str:
        """The 41 feature fields exactly as they appeared in the input."""
        return ",".join(self.features)


def _check_numeric(token: str, column: int) -> None:
    try:
        if math.isfinite(float(token)):
            return
    except ValueError:
        pass
    raise NumericParse(f"column {column}: {token!r} is not a finite number")


def parse_record(line: str, format: str = "nsl-kdd") -> Record:
    """Parse one comma-separated row.

    nsl-kdd rows carry 43 fields (41 features, label, difficulty — the
    difficulty field is validated and discarded); kdd99 rows carry 42
    fields and the label may bear a trailing period, which is stripped.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    fields = line.strip().split(",")
    expected = 43 if format == "nsl-kdd" else 42
    if len(fields) != expected:
        raise FieldCountMismatch(
            f"expected {expected} fields for format {format}, got {len(fields)}"
        )
    features = fields[:N_FEATURES]
    for col in range(N_FEATURES):
        if col not in CATEGORICAL_COLUMNS:
            _check_numeric(features[col], col)
    raw_label = fields[N_FEATURES]
    if format == "kdd99":
        raw_label = raw_label.removesuffix(".")
    else:
        _check_numeric(fields[42], 42)  # difficulty, discarded
    return Record(
        features=features,
        label=0 if raw_label == "normal" else 1,
        raw_label=raw_label,
    )


def load_records(path, format: str = "nsl-kdd", limit: int | None = None) -> list[Record]:
    """Parse a record file top to bottom; blank lines are skipped.

    `limit` keeps the first `limit` parsed records (deterministic
    head-of-file truncation for desk-scale runs).
    """
    records: list[Record] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            records.append(parse_record(line, format))
            if limit is not None and len(records) >= limit:
                break
    return records


def _build_vocab(records: list[Record]) -> dict[int, list[str]]:
    vocab: dict[int, list[str]] = {}
    for col in CATEGORICAL_COLUMNS:
        vocab[col] = sorted({r.features[col] for r in records})
    return vocab


def _encode_matrix(records: list[Record], pre: Preprocessor) -> np.ndarray:
    """Records -> (n, 41) float matrix; categoricals as indices into pre's vocab."""
    index = pre._index
    X = np.empty((len(records), N_FEATURES), dtype=np.float64)
    for i, r in enumerate(records):
        for col in range(N_FEATURES):
            tok = r.features[col]
            if col in index:
                # unseen tokens index one past the vocabulary
                X[i, col] = index[col].get(tok, len(index[col]))
            else:
                X[i, col] = float(tok)
    return X


def _rank_columns(X: np.ndarray, records: list[Record]) -> list[tuple[int, float]]:
    labels = [r.label for r in records]
    if len(set(labels)) < 2:
        raise SingleClass("feature ranking needs both classes present")
    y = np.asarray(labels, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt((Xc * Xc).sum(axis=0))
    sy = np.sqrt((yc * yc).sum())
    scores = np.zeros(N_FEATURES)
    nz = sx > 0.0
    scores[nz] = np.abs(Xc[:, nz].T @ yc) / (sx[nz] * sy)
    order = sorted(range(N_FEATURES), key=lambda c: (-scores[c], c))
    return [(c, float(scores[c])) for c in order]


@dataclass
class Preprocessor:
    """Fitted encoder: vocab + per-column min/max + selected column subset."""

    vocab: dict[int, list[str]]
    min_max: list[tuple[float, float]]
    selected: list[int]
    _index: dict[int, dict[str, int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self._index = {
            col: {tok: i for i, tok in enumerate(toks)}
            for col, toks in self.vocab.items()
        }

    @property
    def m(self) -> int:  # length of a transformed vector
        return len(self.selected)


def rank_features(records: list[Record]) -> list[tuple[int, float]]:
    """Rank all 41 columns by absolute point-biserial correlation with the label.

    Returns (column, score) pairs sorted by descending score, ties broken by
    ascending column index. Zero-variance columns score 0.
    """
    vocab_only = Preprocessor(vocab=_build_vocab(records), min_max=[], selected=[])
    return _rank_columns(_encode_matrix(records, vocab_only), records)


def fit_preprocessor(records: list[Record], m: int) -> Preprocessor:
    """Fit vocab, select the top-m ranked columns, record per-column min/max."""
    if not 1 <= m <= N_FEATURES:
        raise ValueError(f"m must be in 1..{N_FEATURES}, got {m}")
    pre = Preprocessor(vocab=_build_vocab(records), min_max=[], selected=[])
    X = _encode_matrix(records, pre)
    pre.selected = [col for col, _ in _rank_columns(X, records)[:m]]
    pre.min_max = [(float(lo), float(hi)) for lo, hi in zip(X.min(axis=0), X.max(axis=0))]
    return pre


def transform(pre: Preprocessor, r: Record) -> list[float]:
    """Record -> m-length vector in [0,1].

    Selected columns are encoded (categoricals via the training vocab, unseen
    tokens one past it), min-max scaled on training bounds, and clamped;
    degenerate columns (min == max) map to 0.0.
    """
    out = []
    for col in pre.selected:
        tok = r.features[col]
        idx = pre._index.get(col)
        v = float(idx.get(tok, len(idx))) if idx is not None else float(tok)
        lo, hi = pre.min_max[col]
        if hi <= lo:
            out.append(0.0)
            continue
        scaled = (v - lo) / (hi - lo)
        out.append(min(max(scaled, 0.0), 1.0))
    return out
