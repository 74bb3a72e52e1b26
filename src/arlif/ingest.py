"""NSL-KDD / KDDCUP'99 ingestion.

Parses raw record lines, ranks features against the binary label, and fits
the encoder/scaler that turns records into fixed-length vectors in [0,1].

Each numeric cell is converted once, by parse_record, into the Record's
values array; the categorical tokens are kept as read and encoded only
inside the preprocessor, against its vocabulary. parse_record converts the
numeric cells with one float() each into a list, and when their sum is finite
builds the values from it directly; otherwise it converts cell by cell, which
names the first cell that is not a finite number, or parses a row of finite
cells whose sum overflowed. transform encodes a sequence of records with the
block encoder fitting uses, and one record without it: a take of its values
and a vocabulary lookup per selected categorical column, with the same bits.

parse_bare_rows parses the lines of one stream read as one block, when every
line is a bare row of 41 fields in printable, non-space ASCII: one np.loadtxt
converts the numeric cells, with float()'s bits, since both convert a number
with CPython's PyOS_string_to_double. It returns None for any other read,
which then goes line by line through parse_record. read_lines splits a record
file (load_records) and arlif stream's stdin alike into lines, and drops a line
past MAX_LINE_BYTES as its bytes arrive.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (ArlifError, CorruptModel, EmptyStream, FieldCountMismatch, LineTooLong,
                     NotUtf8, NumericParse, SingleClass)

N_FEATURES = 41
# protocol_type, service, flag
CATEGORICAL_COLUMNS = (1, 2, 3)
_NANS = (math.nan,) * len(CATEGORICAL_COLUMNS)
_NUMERIC_COLUMNS = tuple(c for c in range(N_FEATURES) if c not in CATEGORICAL_COLUMNS)
# the bytes a bare row's cells may hold: printable ASCII, no space
_GRAPHIC = bytes(range(0x21, 0x7F))

FORMATS = ("nsl-kdd", "kdd99")
# the longest line read_lines keeps, newline excluded, and the most bytes one read takes
MAX_LINE_BYTES = 64 << 10


@dataclass(eq=False, slots=True)
class Record:
    """One parsed dataset row: values, the 41 features as floats with NaN in the
    categorical columns; tokens, those columns' tokens as read, interned; the binary label."""

    values: np.ndarray  # (41,) float64
    tokens: tuple[str, ...]  # one per CATEGORICAL_COLUMNS entry
    label: int

    def features_csv(self) -> str:
        """The 41 features as comma-separated fields: each number as repr(float),
        which parses back to the same bits, and each categorical token as read."""
        tokens = dict(zip(CATEGORICAL_COLUMNS, self.tokens))
        return ",".join(tokens.get(col, repr(v)) for col, v in enumerate(self.values.tolist()))


def _number(token: str, column: int) -> float:
    """float(token) when it is a finite number, else NumericParse naming the column."""
    try:
        if math.isfinite(x := float(token)):
            return x
    except ValueError:
        pass
    raise NumericParse(f"column {column}: {token!r} is not a finite number")


def parse_record(line: str, format: str = "nsl-kdd") -> Record:
    """Parse one comma-separated row.

    nsl-kdd rows carry 43 fields (41 features, label, difficulty — the
    difficulty field is validated and discarded); kdd99 rows carry 42
    fields and the label may bear a trailing period, which is stripped.

    Each numeric cell is converted by float() once. A NaN or infinite cell
    makes the sum of the 38 results non-finite, and so does a sum of finite
    cells that overflows; only then are the cells converted again one by one,
    which raises NumericParse naming the first bad column, or gives the values
    of a row whose cells were all finite.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    fields = line.strip().split(",")
    expected = 43 if format == "nsl-kdd" else 42
    if len(fields) != expected:
        raise FieldCountMismatch(f"expected {expected} fields for format {format}, "
                                 f"got {len(fields)}")
    # interned: a file holds a few dozen distinct tokens, and each record shares them
    tokens = (sys.intern(fields[1]), sys.intern(fields[2]), sys.intern(fields[3]))
    try:  # the categorical columns are 1 to 3
        values = [float(fields[0]), *map(float, fields[4:N_FEATURES])]
        fast = math.isfinite(sum(values))
    except ValueError:
        fast = False
    if fast:
        values[1:1] = _NANS  # in the categorical columns: the preprocessor encodes the tokens
        values = np.fromiter(values, np.float64, N_FEATURES)
    else:  # names the first bad cell, or parses a row whose finite cells overflow the sum
        values = np.array([math.nan if col in CATEGORICAL_COLUMNS else _number(tok, col)
                           for col, tok in enumerate(fields[:N_FEATURES])])
    label = fields[N_FEATURES]
    if format == "kdd99":
        label = label.removesuffix(".")
    else:
        _number(fields[42], 42)  # difficulty, discarded
    return Record(values, tokens, 0 if label == "normal" else 1)


def parse_bare_rows(lines: list[bytes]) -> list[Record] | None:
    """The records of two or more bare rows, lines of 41 fields without their
    newline, parsed as one block; None when the block parse cannot vouch for
    them, so that the caller parses them line by line (as it does one line,
    which parses faster alone).

    Each record is parse_record's of the row + ",unlabeled,0": the same values
    bits, NaN in the categorical columns, the same interned tokens, label 1.
    The block parse applies only when every byte is printable non-space ASCII,
    so no cell holds a byte the two parsers read apart: loadtxt skips 0x1c
    around a number, which float() rejects. It then proves 41 fields a line:
    loadtxt raises on a row with fewer, and the commas add up to 40 a line, so
    a row with more would leave another with fewer. A blank line gives no row,
    so the rows must number the lines, and every numeric cell must be finite.
    Any other read, a cell loadtxt rejects included, gives None.
    """
    n = len(lines)
    if n < 2:
        return None
    data = b"\n".join(lines)
    if (data.count(b",") != (N_FEATURES - 1) * n
            or data.translate(None, _GRAPHIC) != b"\n" * (n - 1)):
        return None
    rows = data.decode("ascii").split("\n")
    try:
        X = np.loadtxt(rows, delimiter=",", usecols=_NUMERIC_COLUMNS, comments=None,
                       dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if X.shape[0] != n or not np.isfinite(X).all():
        return None
    values = np.empty((n, N_FEATURES))
    values[:, _NUMERIC_COLUMNS] = X
    values[:, CATEGORICAL_COLUMNS] = math.nan
    records = []
    for v, row in zip(values, rows):
        _, a, b, c, _ = row.split(",", 4)
        records.append(Record(v, (sys.intern(a), sys.intern(b), sys.intern(c)), 1))
    return records


def read_lines(raw) -> Iterator[list[bytes | None]]:
    """A binary stream's lines, split at each newline byte and without it, in lists of
    those that one read1 call completes; at EOF, a last line with no newline. read1
    returns what is pending and blocks only when nothing is, so no line waits for a
    later one. A line longer than MAX_LINE_BYTES is None: no read is longer, so only a
    line that spans reads can be, and its pieces are dropped once they pass it."""
    tail, held = [], 0  # the kept pieces of a line no read has completed yet, and its length
    for chunk in iter(lambda: raw.read1(MAX_LINE_BYTES), b""):
        *lines, last = chunk.split(b"\n")
        if lines:
            held += len(lines[0])
            lines[0] = b"".join(tail) + lines[0] if held <= MAX_LINE_BYTES else None
            tail, held = [], 0
            yield lines
        held += len(last)
        if held <= MAX_LINE_BYTES:
            tail.append(last)
        else:
            tail.clear()
    if held:
        yield [b"".join(tail) if held <= MAX_LINE_BYTES else None]


def load_records(path, format: str = "nsl-kdd", limit: int | None = None) -> list[Record]:
    """Parse a record file top to bottom, one read_lines line per record; blank lines
    are skipped. A line past MAX_LINE_BYTES raises LineTooLong, one that is not UTF-8
    NotUtf8, and a parse error names the line too, all as "path:line: ...".

    `limit` keeps the first `limit` parsed records (deterministic
    head-of-file truncation for desk-scale runs); at 0 or below, none.
    """
    records: list[Record] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(chain.from_iterable(read_lines(fh)), start=1):
            if limit is not None and len(records) >= limit:
                break
            if raw is None:
                raise LineTooLong(f"{path}:{lineno}: longer than {MAX_LINE_BYTES} bytes")
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
    return records


def _build_vocab(records: list[Record]) -> dict[int, list[str]]:
    return {col: sorted({r.tokens[i] for r in records})
            for i, col in enumerate(CATEGORICAL_COLUMNS)}


class _VocabIndex(dict):
    """One categorical column's vocabulary index: each token's position in the
    vocabulary, and for a token it does not hold, one past its end. Every
    encoder reads tokens through it, so an unseen token has one rule."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        return len(self)


def _vocab_index(vocab: dict[int, list[str]]) -> dict[int, _VocabIndex]:
    """Per categorical column, its _VocabIndex."""
    return {col: _VocabIndex((tok, i) for i, tok in enumerate(toks))
            for col, toks in vocab.items()}


def _encode(records: Sequence[Record], index: dict[int, _VocabIndex]) -> np.ndarray:
    """Records -> (n, 41) float matrix: the records' values, with each categorical
    token's position in the vocab index, an unseen one one past its end."""
    X = np.array([r.values for r in records]).reshape(len(records), N_FEATURES)
    for i, col in enumerate(CATEGORICAL_COLUMNS):
        idx = index[col]
        X[:, col] = [idx[r.tokens[i]] for r in records]
    return X


def _rank_columns(X: np.ndarray, records: list[Record]) -> list[tuple[int, float]]:
    """(column, score) for all 41 columns of X by descending absolute point-biserial
    correlation with the label, ties by ascending column; zero variance scores 0."""
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
    return [(c, scores.item(c)) for c in order]


@dataclass
class Preprocessor:
    """Fitted encoder: vocab + per-column min/max + the selected columns.
    Construction checks them (else CorruptModel): one or more distinct selected
    columns, each < 41; 41 finite min/max pairs with min <= max and a finite
    max - min; a vocabulary for exactly the categorical columns, no token twice
    in one. It derives what transform reads: the vocab index, the selected
    columns as an index array, each selected categorical column's place, token
    slot and vocab index, and the selected columns' bounds."""

    vocab: dict[int, list[str]]
    min_max: list[tuple[float, float]]
    selected: list[int]

    def __post_init__(self):
        cols = set(self.selected)
        if not (0 < len(cols) == self.m and cols <= set(range(N_FEATURES))):
            raise CorruptModel(f"need one or more distinct selected columns, 0 <= c < {N_FEATURES}")
        rule = f"need {N_FEATURES} finite min/max pairs with min <= max and a finite max - min"
        if len(self.min_max) != N_FEATURES:
            raise CorruptModel(f"{rule}, got {len(self.min_max)} pairs")
        for col, (lo, hi) in enumerate(self.min_max):
            # lo <= hi is false for NaN, and an infinite bound makes hi - lo inf or NaN
            if not (lo <= hi and hi - lo < math.inf):
                raise CorruptModel(f"{rule}; column {col} has ({lo!r}, {hi!r})")
        if set(self.vocab) != set(CATEGORICAL_COLUMNS):
            raise CorruptModel(f"need a vocabulary for exactly the columns {CATEGORICAL_COLUMNS}, "
                               f"got {sorted(self.vocab)}")
        for col, toks in self.vocab.items():
            if len(set(toks)) != len(toks):
                raise CorruptModel(f"column {col} vocabulary holds a token twice")
        self._index = _vocab_index(self.vocab)
        self._cols = np.array(self.selected, dtype=np.intp)
        # each selected categorical column: its place in the output, its token slot, its index
        self._codes = tuple((j, CATEGORICAL_COLUMNS.index(col), self._index[col])
                            for j, col in enumerate(self.selected) if col in CATEGORICAL_COLUMNS)
        self._lo, self._hi = np.array([self.min_max[c] for c in self.selected]).T
        # a degenerate column (min == max) clamps to its min, and a span of 1
        # then scales that to exactly 0.0
        self._span = np.where(self._lo < self._hi, self._hi - self._lo, 1.0)

    @property
    def m(self) -> int:  # length of a transformed vector
        return len(self.selected)


def fit_preprocessor(records: list[Record], m: int) -> Preprocessor:
    """Fit vocab, select the top-m ranked columns, record per-column min/max.
    No records raises EmptyStream."""
    if not 1 <= m <= N_FEATURES:
        raise ValueError(f"m must be in 1..{N_FEATURES}, got {m}")
    if not records:
        raise EmptyStream("no records to fit the preprocessor on")
    vocab = _build_vocab(records)
    X = _encode(records, _vocab_index(vocab))
    min_max = list(zip(X.min(axis=0).tolist(), X.max(axis=0).tolist()))
    return Preprocessor(vocab, min_max, [col for col, _ in _rank_columns(X, records)[:m]])


def transform(pre: Preprocessor, records: Record | Sequence[Record]) -> np.ndarray:
    """One record -> (m,) vector in [0,1]; a sequence of N records -> (N, m), or
    (0, m) when it is empty. Each selected column is clamped to its training
    min/max and min-max scaled on it, and a degenerate column (min == max) maps
    to 0.0.

    A sequence is encoded as fitting encodes it (_encode), and its selected
    columns taken. One record skips that block encoder: its values' selected
    columns are taken, each selected categorical column set to its token's
    position in the same vocab index, and the clamp and scale done in place,
    so it builds no (1, 41) matrix and gives the bits of its row of a block."""
    if isinstance(records, Record):
        x = records.values.take(pre._cols)
        for j, slot, index in pre._codes:
            x[j] = index[records.tokens[slot]]
    else:
        x = _encode(records, pre._index).take(pre._cols, axis=1)
    np.maximum(x, pre._lo, out=x)
    np.minimum(x, pre._hi, out=x)
    x -= pre._lo
    x /= pre._span
    return x
