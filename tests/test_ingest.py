import math
import random
import re
import warnings

import numpy as np
import pytest

import arlif.ingest
from arlif.errors import CorruptModel, FieldCountMismatch, NotUtf8, NumericParse, SingleClass
from arlif.ingest import (
    CATEGORICAL_COLUMNS,
    FORMATS,
    N_FEATURES,
    Preprocessor,
    Record,
    _build_vocab,
    _encode,
    _rank_columns,
    _vocab_index,
    fit_preprocessor,
    load_records,
    parse_record,
    transform,
)

from conftest import DATA_DIR, requires_dataset, synth_records
from reference import encode_fields, parse_cells, scale_fields
from synth_stream import synth_lines


def rank_features(records):
    """All 41 columns ranked as fit_preprocessor ranks them, (column, score) pairs."""
    X = _encode(records, _vocab_index(_build_vocab(records)))
    return _rank_columns(X, records)


def mk_fields(overrides=None):
    """41 feature tokens: zeros everywhere, tiny vocab in the categorical slots."""
    f = ["0"] * N_FEATURES
    f[1], f[2], f[3] = "tcp", "http", "SF"
    for col, val in (overrides or {}).items():
        f[col] = val
    return f


# the vocabulary of mk_fields' categorical tokens, one list per categorical column
VOCAB = {1: ["tcp"], 2: ["http"], 3: ["SF"]}


def mk_record(overrides=None, label="normal"):
    f = mk_fields(overrides)
    return Record(
        values=np.array([math.nan if c in CATEGORICAL_COLUMNS else float(t) for c, t in enumerate(f)]),
        tokens=tuple(f[c] for c in CATEGORICAL_COLUMNS),
        label=0 if label == "normal" else 1,
    )


def mk_line(overrides=None, label="normal", format="nsl-kdd", difficulty="15"):
    fields = mk_fields(overrides)
    if format == "nsl-kdd":
        return ",".join(fields + [label, difficulty])
    return ",".join(fields + [label + "."])


# --- parse_record -----------------------------------------------------------

def test_parse_nsl_kdd_row():
    r = parse_record(mk_line({0: "3", 4: "181"}, label="normal"))
    assert r.values.shape == (N_FEATURES,) and r.values.dtype == np.float64
    assert r.values[0] == 3.0
    assert r.values[4] == 181.0
    assert r.tokens == ("tcp", "http", "SF")
    assert np.isnan(r.values[list(CATEGORICAL_COLUMNS)]).all()  # the tokens are encoded later
    assert r.label == 0
    assert parse_record(mk_line(label="neptune")).label == 1


def test_equal_tokens_from_two_lines_are_one_object():
    # each line splits into its own strings; parse_record keeps one copy of each token
    service = "".join(["ser", "vice_", str(7)])  # built at run time, so not a constant
    a, b = (parse_record(mk_line({1: "udp", 2: service, 0: str(i)})) for i in range(2))
    assert a.tokens == b.tokens == ("udp", "service_7", "SF")
    assert all(x is y for x, y in zip(a.tokens, b.tokens))


def test_parse_kdd99_trailing_period_stripped():
    r = parse_record(mk_line({22: "511"}, label="smurf", format="kdd99"), "kdd99")
    assert r.label == 1
    assert r.values.shape == (N_FEATURES,)
    assert r.values[22] == 511.0
    assert parse_record(mk_line(label="normal", format="kdd99"), "kdd99").label == 0  # "normal."


def test_parse_field_count_mismatch():
    line_42 = mk_line(format="kdd99")  # 42 fields
    with pytest.raises(FieldCountMismatch):
        parse_record(line_42, "nsl-kdd")
    line_43 = mk_line(format="nsl-kdd")
    with pytest.raises(FieldCountMismatch):
        parse_record(line_43, "kdd99")


def test_parse_numeric_validation():
    for token in ("abc", "nan", "NaN", "inf", "-Infinity", "1e999"):
        with pytest.raises(NumericParse):
            parse_record(mk_line({0: token}))
    # categorical slots are exempt
    parse_record(mk_line({2: "weird_service"}))
    with pytest.raises(NumericParse):
        parse_record(mk_line(difficulty="hard"))


def assert_parses_as_the_cell_parser(line, fmt="nsl-kdd"):
    r, (values, tokens, label) = parse_record(line, fmt), parse_cells(line, fmt)
    assert r.values.dtype == np.float64 and r.values.tobytes() == values.tobytes()
    assert r.tokens == tokens and r.label == label


def test_a_row_of_finite_cells_whose_sum_overflows_parses_cell_by_cell():
    # the fast path's finite check on the sum fails; the cell-by-cell path parses the row
    line = mk_line({col: "1e308" for col in range(N_FEATURES) if col not in CATEGORICAL_COLUMNS})
    assert_parses_as_the_cell_parser(line)
    assert (parse_record(line).values[4:] == 1e308).all()
    assert_parses_as_the_cell_parser(mk_line({0: "1e308", 4: "-1e308", 5: "1e308"}))


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "-1e400"])
def test_a_non_finite_cell_is_named_by_its_column(bad):
    for cols in ((0,), (7, 30), (40,), (4, 0)):
        line = mk_line({col: bad for col in cols})
        first = min(cols)
        with pytest.raises(NumericParse, match=f"^column {first}: {re.escape(repr(bad))} is not "):
            parse_record(line)
        with pytest.raises(NumericParse, match=f"^column {first}: "):
            parse_cells(line)
    # a bad cell before a sum that would overflow is still the one named
    line = mk_line({5: "1e308", 6: "1e308", 9: bad})
    with pytest.raises(NumericParse, match="^column 9: "):
        parse_record(line)


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), (" 1 ", 1.0), ("+1", 1.0),
                                         ("\u0661\u0662", 12.0), ("-0", -0.0)])
def test_a_cell_parses_as_float_parses_it(cell, value):
    for col in (0, 4, 40):
        for fmt in FORMATS:
            line = mk_line({col: cell}, format=fmt)
            assert_parses_as_the_cell_parser(line, fmt)
            assert parse_record(line, fmt).values[col] == float(cell) == value


def test_parse_record_equals_the_cell_parser_on_generated_rows():
    for fmt in FORMATS:
        for line in synth_lines(300, seed=21, format=fmt):
            assert_parses_as_the_cell_parser(line, fmt)
    for difficulty in ("nan", "inf", "x"):
        with pytest.raises(NumericParse, match="^column 42: "):
            parse_record(mk_line(difficulty=difficulty))
    # kdd99 drops one trailing period, nsl-kdd none
    assert parse_record(mk_line(label="normal.", format="kdd99"), "kdd99").label == 1
    assert parse_record(mk_line(label="normal.", difficulty="3")).label == 1


def test_parse_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_record(mk_line(), "csv")


def test_label_iff_the_label_field_is_normal():
    for fmt in FORMATS:
        labels = {(parse_record(line, fmt).label, line.split(",")[N_FEATURES])
                  for line in synth_lines(200, seed=3, format=fmt)}
        assert {y for y, _ in labels} == {0, 1}
        assert all((y == 0) == (field.removesuffix(".") == "normal") for y, field in labels)


def test_features_csv_round_trip():
    # each number is written as repr(float), which parses back to the same bits
    odd = mk_record({0: "-0", 4: "1e-320", 5: "0.30000000000000004", 6: "1e308", 7: "  3 ",
                     8: "1_000"})
    for fmt in ("nsl-kdd", "kdd99"):
        for r in synth_records(50, seed=11, format=fmt) + [odd]:
            back = parse_record(r.features_csv() + ",x,0")
            assert back.values.tobytes() == r.values.tobytes()
            assert back.tokens == r.tokens


def test_load_records_limit(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("\n".join(mk_line({0: str(i)}) for i in range(10)) + "\n\n")
    assert len(load_records(p)) == 10
    got = load_records(p, limit=4)
    assert [r.values[0] for r in got] == [0.0, 1.0, 2.0, 3.0]
    assert load_records(p, limit=0) == [] and load_records(p, limit=-3) == []


def test_load_records_names_the_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_bytes(b"\n".join([mk_line().encode(), b"", mk_line().encode() + b"\xff"]) + b"\n")
    with pytest.raises(NotUtf8, match=f"^{re.escape(str(p))}:3: not valid UTF-8"):
        load_records(p)


def test_load_records_parse_errors_name_their_line(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("\n".join([mk_line(), "\r", mk_line({0: "x"}), mk_line()]) + "\n")
    with pytest.raises(NumericParse, match=f"^{re.escape(str(p))}:3: column 0: 'x' is not a finite number$"):
        load_records(p)
    p.write_text(mk_line() + "\n" + mk_line(format="kdd99") + "\n")
    with pytest.raises(FieldCountMismatch, match=f"^{re.escape(str(p))}:2: expected 43 fields"):
        load_records(p)


@pytest.mark.parametrize("selected", [[], [3, 3], [41], [-1]])
def test_preprocessor_rejects_bad_selected_columns(selected):
    with pytest.raises(CorruptModel, match="distinct selected columns"):
        Preprocessor(vocab=VOCAB, min_max=[(0.0, 1.0)] * N_FEATURES, selected=selected)


@pytest.mark.parametrize("bounds", [
    [(0.0, 1.0)] * (N_FEATURES - 1),
    [(0.0, 1.0)] * 6 + [(float("nan"), 1.0)] + [(0.0, 1.0)] * 34,
    [(0.0, 1.0)] * 6 + [(0.0, float("inf"))] + [(0.0, 1.0)] * 34,
    [(0.0, 1.0)] * 6 + [(float("-inf"), 0.0)] + [(0.0, 1.0)] * 34,
    [(0.0, 1.0)] * 6 + [(2.0, 1.0)] + [(0.0, 1.0)] * 34,
    [(0.0, 1.0)] * 6 + [(-1e308, 1e308)] + [(0.0, 1.0)] * 34,  # max - min overflows
])
def test_preprocessor_rejects_bad_min_max(bounds):
    with pytest.raises(CorruptModel, match="41 finite min/max pairs with min <= max"):
        Preprocessor(vocab=VOCAB, min_max=bounds, selected=[0])


def test_fitting_a_column_whose_span_overflows_raises_without_warnings():
    recs = [mk_record({4: v}, label) for v, label in
            (("-1e308", "normal"), ("1e308", "neptune"), ("0", "normal"), ("5", "neptune"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptModel, match=r"finite max - min; column 4 has \(-1e\+308, 1e\+308\)"):
            fit_preprocessor(recs, 3)


def test_rank_a_column_holding_a_value_past_1e154_without_overflow():
    recs = synth_records(300, seed=0, attack_rate=0.5)
    recs[0].values[4] = 1e200  # its square overflowed: the column scored 0.0, with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = dict(rank_features(recs))
    x = np.array([r.values[4] for r in recs]) / 1e200  # correlation ignores scale
    expected = abs(np.corrcoef(x, [r.label for r in recs])[0, 1])
    assert expected > 0.05
    assert scores[4] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("vocab", [
    {},
    {1: ["tcp"], 2: ["http"]},
    {0: ["0"], 1: ["tcp"], 2: ["http"], 3: ["SF"]},
])
def test_preprocessor_needs_a_vocabulary_for_exactly_the_categorical_columns(vocab):
    for selected in ([1], [5, 7]):
        with pytest.raises(CorruptModel, match=r"vocabulary for exactly the columns \(1, 2, 3\)"):
            Preprocessor(vocab=vocab, min_max=[(0.0, 1.0)] * N_FEATURES, selected=selected)


def test_preprocessor_rejects_a_repeated_vocabulary_token():
    vocab = {1: ["icmp", "icmp", "tcp", "udp"], 2: ["http"], 3: ["SF"]}
    with pytest.raises(CorruptModel, match="column 1 vocabulary holds a token twice"):
        Preprocessor(vocab=vocab, min_max=[(0.0, 1.0)] * N_FEATURES, selected=[1])


# --- rank_features ----------------------------------------------------------

def test_rank_constant_column_scores_zero():
    recs = [
        mk_record({0: "5"}, "normal"),
        mk_record({0: "5"}, "neptune"),
        mk_record({0: "5"}, "normal"),
        mk_record({0: "5"}, "neptune"),
    ]
    scores = dict(rank_features(recs))
    assert scores[0] == 0.0


def test_rank_column_equal_to_label_scores_one():
    recs = [
        mk_record({0: "0"}, "normal"),
        mk_record({0: "1"}, "neptune"),
        mk_record({0: "0"}, "normal"),
        mk_record({0: "1"}, "neptune"),
    ]
    ranked = rank_features(recs)
    assert ranked[0][0] == 0
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)


def test_rank_point_biserial_hand_value():
    recs = [
        mk_record({0: "0"}, "normal"),
        mk_record({0: "1"}, "normal"),
        mk_record({0: "2"}, "neptune"),
        mk_record({0: "3"}, "neptune"),
    ]
    scores = dict(rank_features(recs))
    # corr((0,1,2,3), (0,0,1,1)) = 0.5/(sqrt(1.25)*0.5)
    assert scores[0] == pytest.approx(0.8944271909999159, abs=1e-12)


def test_rank_single_class_rejected():
    with pytest.raises(SingleClass):
        rank_features([mk_record(label="normal"), mk_record(label="normal")])


def test_rank_order_and_bounds():
    recs = synth_records(300, seed=5)
    ranked = rank_features(recs)
    assert len(ranked) == N_FEATURES
    scores = [s for _, s in ranked]
    assert all(0.0 <= s <= 1.0 + 1e-12 for s in scores)
    assert scores == sorted(scores, reverse=True)
    # ties broken by ascending column
    for (c1, s1), (c2, s2) in zip(ranked, ranked[1:]):
        if s1 == s2:
            assert c1 < c2
    shuffled = recs[:]
    random.Random(9).shuffle(shuffled)
    reranked = rank_features(shuffled)
    # summation order may move the last ulp, never the ranking
    assert [c for c, _ in reranked] == [c for c, _ in ranked]
    assert np.allclose([s for _, s in reranked], scores, atol=1e-12)


def test_rank_scores_equal_columns_equally():
    # columns 24, 25 and 38 of this stream hold the same values; a row shuffle
    # may move their common score in the last bits, but never split it
    recs = synth_records(300, seed=5)
    shuffled = recs[:]
    random.Random(9).shuffle(shuffled)
    for rows in (recs, shuffled):
        assert all(r.values[24] == r.values[25] == r.values[38] for r in rows)
        ranked = rank_features(rows)
        scores = dict(ranked)
        assert scores[24] == scores[25] == scores[38] > 0.0
        order = [c for c, _ in ranked]
        assert order.index(24) < order.index(25) < order.index(38)


# --- fit_preprocessor / transform -------------------------------------------

def test_fit_full_retention_permutation():
    pre = fit_preprocessor(synth_records(100, seed=1), 41)
    assert sorted(pre.selected) == list(range(N_FEATURES))


def test_fit_m_bounds():
    recs = synth_records(50, seed=1)
    for bad in (0, 42, -3):
        with pytest.raises(ValueError):
            fit_preprocessor(recs, bad)


def test_fit_selected_distinct_and_deterministic():
    recs = synth_records(250, seed=2)
    a = fit_preprocessor(recs, 10)
    b = fit_preprocessor(recs, 10)
    assert len(set(a.selected)) == 10
    assert a == b


def test_fit_vocab_sorted_distinct():
    pre = fit_preprocessor(synth_records(150, seed=4), 10)
    for col in CATEGORICAL_COLUMNS:
        toks = pre.vocab[col]
        assert toks == sorted(toks)
        assert len(toks) == len(set(toks))


def test_fit_min_max_ordered():
    pre = fit_preprocessor(synth_records(150, seed=4), 10)
    assert all(lo <= hi for lo, hi in pre.min_max)


def test_transform_endpoints():
    recs = [
        mk_record({0: "10"}, "normal"),
        mk_record({0: "30"}, "neptune"),
        mk_record({0: "20"}, "normal"),
        mk_record({0: "30"}, "neptune"),
    ]
    pre = fit_preprocessor(recs, 1)
    assert pre.selected == [0]
    assert transform(pre, mk_record({0: "10"})) == [0.0]
    assert transform(pre, mk_record({0: "30"})) == [1.0]
    assert transform(pre, mk_record({0: "20"})) == [0.5]


def test_transform_clamps_out_of_range():
    recs = [
        mk_record({0: "10"}, "normal"),
        mk_record({0: "30"}, "neptune"),
    ]
    pre = fit_preprocessor(recs, 1)
    assert transform(pre, mk_record({0: "-100"})) == [0.0]
    assert transform(pre, mk_record({0: "999"})) == [1.0]


def test_transform_degenerate_column_is_zero():
    # column 5 constant in training -> always 0, even for new values
    recs = [
        mk_record({0: "1", 5: "7"}, "normal"),
        mk_record({0: "2", 5: "7"}, "neptune"),
    ]
    pre = fit_preprocessor(recs, 41)
    out = transform(pre, mk_record({5: "123"}))
    assert out[pre.selected.index(5)] == 0.0


def test_transform_unseen_category_clamps_high():
    recs = [
        mk_record({2: "http", 0: "0"}, "normal"),
        mk_record({2: "smtp", 0: "1"}, "neptune"),
        mk_record({2: "ftp", 0: "0"}, "normal"),
        mk_record({2: "smtp", 0: "1"}, "neptune"),
    ]
    pre = fit_preprocessor(recs, 41)
    out = transform(pre, mk_record({2: "zzz_unseen"}))
    assert out[pre.selected.index(2)] == 1.0


def test_transform_range_and_length_on_arbitrary_inputs():
    recs = synth_records(200, seed=6)
    pre = fit_preprocessor(recs, 10)
    probes = synth_records(80, seed=777) + [
        mk_record({1: "xx", 2: "yy", 3: "zz", 0: "1e9", 4: "-5"})
    ]
    for r in probes:
        v = transform(pre, r)
        assert len(v) == pre.m == 10
        assert all(0.0 <= x <= 1.0 for x in v)


def test_transform_deterministic():
    recs = synth_records(100, seed=8)
    pre = fit_preprocessor(recs, 6)
    r = recs[17]
    assert np.array_equal(transform(pre, r), transform(pre, r))


def test_transform_block_rows_equal_each_record_alone():
    recs = synth_records(200, seed=6)
    for r in recs:
        r.values[5] = 7.0  # a degenerate column
    pre = fit_preprocessor(recs, N_FEATURES)
    # m = 41 selects all three categorical columns; the probes hold unseen tokens, a
    # degenerate column (5) and values past the training range on both sides
    probe = mk_record({1: "xx", 2: "yy", 3: "zz", 0: "1e9", 4: "-5", 5: "123", 6: "-0"})
    probes = synth_records(80, seed=777) + [
        mk_record({2: "unseen", 0: "-1e300", 4: "1e300", 5: "-0", 7: "0.5"}),
        probe, mk_record({6: "-0"})]
    block = transform(pre, probes)
    assert block.shape == (len(probes), N_FEATURES) and block.dtype == np.float64
    for row, r in zip(block, probes):
        alone = transform(pre, r)
        assert alone.shape == (N_FEATURES,) and alone.dtype == np.float64
        assert alone.tobytes() == row.tobytes()
    assert ((block >= 0.0) & (block <= 1.0)).all()
    x = dict(zip(pre.selected, block[-2]))
    assert x[1] == x[2] == x[3] == 1.0  # unseen tokens: one past the vocabulary
    assert (x[0], x[4], x[5]) == (1.0, 0.0, 0.0)
    assert transform(pre, []).shape == (0, N_FEATURES)


def test_one_record_does_not_go_through_the_block_encoder(monkeypatch):
    recs = synth_records(100, seed=9)
    pre = fit_preprocessor(recs, N_FEATURES)
    expected = transform(pre, recs[:5])

    def refuse(*args):
        raise AssertionError("a one-record transform called _encode")
    monkeypatch.setattr(arlif.ingest, "_encode", refuse)
    for r, row in zip(recs[:5], expected):
        assert transform(pre, r).tobytes() == row.tobytes()
    with pytest.raises(AssertionError, match="called _encode"):
        transform(pre, recs[:5])


def test_transform_overflowing_values_clamp_without_warnings():
    bounds = [(0.0, 1.0)] * N_FEATURES
    bounds[5] = (-1e308, -1e308)  # degenerate, and v - lo overflows for v = 1e308
    bounds[7] = (-1e308, 1.0)
    pre = Preprocessor(vocab=VOCAB, min_max=bounds, selected=[5, 7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = transform(pre, mk_record({5: "1e308", 7: "1e308"}))
    assert out.tolist() == [0.0, 1.0]



@pytest.mark.parametrize("fmt", FORMATS)
def test_fit_and_transform_equal_the_string_encoder_bit_for_bit(fmt):
    def split(lines, column_5=None):
        rows = [line.split(",") for line in lines]
        for f in rows if column_5 else ():
            f[5] = column_5
        return rows

    train = split(synth_lines(300, seed=12, format=fmt), column_5="7")  # a degenerate column
    probes = split(synth_lines(80, seed=13, format=fmt)) + [
        mk_line({1: "xx", 2: "yy", 3: "zz", 0: "1e9", 4: "-5", 5: "123", 6: "-0"}, format=fmt).split(","),
    ]
    records = [parse_record(",".join(f), fmt) for f in train]
    probe_records = [parse_record(",".join(f), fmt) for f in probes]
    vocab = {col: sorted({f[col] for f in train}) for col in CATEGORICAL_COLUMNS}
    X = encode_fields(train, vocab, range(N_FEATURES))
    index = _vocab_index(vocab)
    assert _encode(records, index).tobytes() == X.tobytes()
    # an unseen token is one past the end of its vocabulary until transform clamps it
    probe_X = encode_fields(probes, vocab, range(N_FEATURES))
    assert _encode(probe_records, index).tobytes() == probe_X.tobytes()
    assert len(set(X[:, 5])) == 1
    for m in (10, N_FEATURES):
        pre = fit_preprocessor(records, m)
        assert pre.vocab == vocab
        assert np.array(pre.min_max).tobytes() == np.array([X.min(axis=0), X.max(axis=0)]).T.tobytes()
        assert pre.selected == [c for c, _ in _rank_columns(X, records)[:m]]
        expected = scale_fields(probes, vocab, pre.min_max, pre.selected)
        assert transform(pre, probe_records).tobytes() == expected.tobytes()
        for r, row in zip(probe_records, expected):
            assert transform(pre, r).tobytes() == row.tobytes()
    x = dict(zip(pre.selected, expected[-1]))
    assert x[1] == x[2] == x[3] == 1.0 and x[5] == 0.0  # unseen tokens, degenerate column


# --- real-data spot checks (skipped when the files are absent) ---------------

@requires_dataset
def test_kddtrain_first_row_is_normal():
    first = load_records(DATA_DIR / "KDDTrain+.txt", "nsl-kdd", limit=1)[0]
    assert first.label == 0
    assert first.values.shape == (N_FEATURES,)


@requires_dataset
def test_fit_preprocessor_20k_subsample_deterministic():
    recs = load_records(DATA_DIR / "KDDTrain+.txt", "nsl-kdd", limit=20000)
    a = fit_preprocessor(recs, 10)
    b = fit_preprocessor(recs, 10)
    assert a.selected == b.selected
    assert len(set(a.selected)) == 10
    assert a == b
