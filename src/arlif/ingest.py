"""NSL-KDD / KDDCUP'99 ingestion.

Parses raw record lines, ranks features against the binary label, and fits
the encoder/scaler that turns records into fixed-length vectors in [0,1].

Feature values are kept as their raw string tokens on the Record so that
re-serializing a parsed row reproduces the original fields byte for byte;
numeric encoding happens only inside the preprocessor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ArlifError, CorruptModel, FieldCountMismatch, NotUtf8, NumericParse, SingleClass

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
    """Parse a record file top to bottom, one line per record ending at a newline;
    blank lines are skipped. A line that is not UTF-8 raises NotUtf8, and a parse
    error names the line too, both as "path:line: ...".

    `limit` keeps the first `limit` parsed records (deterministic
    head-of-file truncation for desk-scale runs).
    """
    records: list[Record] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NotUtf8(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
            if not line.strip():
                continue
            try:
                records.append(parse_record(line, format))
            except ArlifError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
            if limit is not None and len(records) >= limit:
                break
    return records


def _build_vocab(records: list[Record]) -> dict[int, list[str]]:
    vocab: dict[int, list[str]] = {}
    for col in CATEGORICAL_COLUMNS:
        vocab[col] = sorted({r.features[col] for r in records})
    return vocab


def _vocab_index(vocab: dict[int, list[str]]) -> dict[int, dict[str, int]]:
    """Per categorical column, each token's position in the vocabulary."""
    return {col: {tok: i for i, tok in enumerate(toks)} for col, toks in vocab.items()}


def _encode_matrix(records: Sequence[Record], index: dict[int, dict[str, int]],
                   cols: Sequence[int]) -> np.ndarray:
    """Records -> (n, len(cols)) float matrix of the given columns: a categorical
    token is its position in the vocab index, an unseen one one past its end,
    and any other token is its float."""
    codes = [(col, index.get(col)) for col in cols]
    rows = [[float(r.features[col]) if idx is None else idx.get(r.features[col], len(idx))
             for col, idx in codes] for r in records]
    return np.array(rows, dtype=np.float64).reshape(len(records), len(cols))


def _rank_columns(X: np.ndarray, records: list[Record]) -> list[tuple[int, float]]:
    labels = [r.label for r in records]
    if len(set(labels)) < 2:
        raise SingleClass("feature ranking needs both classes present")
    y = np.asarray(labels, dtype=np.float64)
    # Correlation ignores scale. Each column is scaled into (-1, 1) by a power of two,
    # which is exact, so Xc * Xc cannot overflow and every other score keeps its bits.
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt((Xc * Xc).sum(axis=0))
    sy = np.sqrt((yc * yc).sum())
    scores = np.zeros(N_FEATURES)
    nz = sx > 0.0
    # summed down the rows, as sx is: every column gets the same additions, so equal
    # columns score equal and the tie rule below decides their order
    scores[nz] = np.abs((Xc[:, nz] * yc[:, None]).sum(axis=0)) / (sx[nz] * sy)
    order = sorted(range(N_FEATURES), key=lambda c: (-scores[c], c))
    return [(c, float(scores[c])) for c in order]


def _check_min_max(min_max: Sequence[tuple[float, float]]) -> None:
    """CorruptModel unless min_max is 41 pairs with min <= max and a finite max - min."""
    rule = f"need {N_FEATURES} finite min/max pairs with min <= max and a finite max - min"
    if len(min_max) != N_FEATURES:
        raise CorruptModel(f"{rule}, got {len(min_max)} pairs")
    for col, (lo, hi) in enumerate(min_max):
        # lo <= hi is false for NaN, and an infinite bound makes hi - lo inf or NaN
        if not (lo <= hi and hi - lo < math.inf):
            raise CorruptModel(f"{rule}; column {col} has ({lo!r}, {hi!r})")


@dataclass
class Preprocessor:
    """Fitted encoder: vocab + per-column min/max + the selected columns.
    Construction checks them (else CorruptModel): one or more distinct selected
    columns, each < 41; 41 finite min/max pairs with min <= max and a finite
    max - min; a vocabulary for exactly the categorical columns, no token twice
    in one. It derives what transform reads: the vocab index and the selected
    columns' bounds."""

    vocab: dict[int, list[str]]
    min_max: list[tuple[float, float]]
    selected: list[int]

    def __post_init__(self):
        cols = set(self.selected)
        if not (0 < len(cols) == self.m and cols <= set(range(N_FEATURES))):
            raise CorruptModel(f"need one or more distinct selected columns, 0 <= c < {N_FEATURES}")
        _check_min_max(self.min_max)
        if set(self.vocab) != set(CATEGORICAL_COLUMNS):
            raise CorruptModel(f"need a vocabulary for exactly the columns {CATEGORICAL_COLUMNS}, "
                               f"got {sorted(self.vocab)}")
        for col, toks in self.vocab.items():
            if len(set(toks)) != len(toks):
                raise CorruptModel(f"column {col} vocabulary holds a token twice")
        self._index = _vocab_index(self.vocab)
        self._lo, self._hi = np.array([self.min_max[c] for c in self.selected]).T
        # a degenerate column (min == max) clamps to its min, and a span of 1
        # then scales that to exactly 0.0
        self._span = np.where(self._lo < self._hi, self._hi - self._lo, 1.0)

    @property
    def m(self) -> int:  # length of a transformed vector
        return len(self.selected)


def rank_features(records: list[Record]) -> list[tuple[int, float]]:
    """Rank all 41 columns by absolute point-biserial correlation with the label.

    Returns (column, score) pairs sorted by descending score, ties broken by
    ascending column index. Zero-variance columns score 0.
    """
    X = _encode_matrix(records, _vocab_index(_build_vocab(records)), range(N_FEATURES))
    return _rank_columns(X, records)


def fit_preprocessor(records: list[Record], m: int) -> Preprocessor:
    """Fit vocab, select the top-m ranked columns, record per-column min/max."""
    if not 1 <= m <= N_FEATURES:
        raise ValueError(f"m must be in 1..{N_FEATURES}, got {m}")
    vocab = _build_vocab(records)
    X = _encode_matrix(records, _vocab_index(vocab), range(N_FEATURES))
    min_max = [(float(lo), float(hi)) for lo, hi in zip(X.min(axis=0), X.max(axis=0))]
    return Preprocessor(vocab, min_max, [col for col, _ in _rank_columns(X, records)[:m]])


def transform(pre: Preprocessor, records: Record | Sequence[Record]) -> np.ndarray:
    """One record -> (m,) vector in [0,1]; a sequence of N records -> (N, m),
    or (0, m) when it is empty.

    The selected columns are encoded as fitting encodes them (_encode_matrix),
    clamped to their training min/max and min-max scaled on it; a degenerate
    column (min == max) maps to 0.0.
    """
    one = isinstance(records, Record)
    X = _encode_matrix([records] if one else records, pre._index, pre.selected)
    X = (np.minimum(np.maximum(X, pre._lo), pre._hi) - pre._lo) / pre._span
    return X[0] if one else X
