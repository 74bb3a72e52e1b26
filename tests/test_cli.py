import io
import os
import re
import resource
import select
import struct
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import arlif
import arlif.attention
import arlif.cli
import arlif.detector
from arlif.cli import main
from arlif.detector import (BLOCK, _HEADER, attention_params_bytes, forest_bytes, load_model,
                            observe, to_bytes)
from arlif.errors import ArlifError
from arlif.iforest import NODE_DTYPE
from arlif.ingest import load_records, parse_record
from arlif.metrics import evaluate, replay, tune_threshold
from conftest import sealed
from synth_stream import synth_lines, write_stream

SMALL = ["--trees", "10", "--psi", "64", "-m", "6", "-k", "4",
         "--eta", "0.01", "--epochs", "1", "--seed", "0"]

STREAM_LINE = re.compile(r"^score=(\d\.\d{9}) pred=([01]) ns=(\d+)$")


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train, test = root / "train.txt", root / "test.txt"
    write_stream(train, 400, seed=3, attack_rate=0.4)
    write_stream(test, 200, seed=4, attack_rate=0.4)
    model = root / "model.arlf"
    rc = main(["train", "--train", str(train), "--model", str(model)] + SMALL)
    assert rc == 0 and model.exists()
    return {"root": root, "train": train, "test": test, "model": model}


# --- train ----------------------------------------------------------------------

def test_train_output_shape(cli_env, capsys, tmp_path):
    model = tmp_path / "m.arlf"
    rc = main(["train", "--train", str(cli_env["train"]), "--model", str(model)] + SMALL)
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^epoch=1 mean_loss=\d\.\d{6}$", out, re.M)
    line = re.search(rf"^model={re.escape(str(model))} model_bytes=(\d+) samples_seen=400 "
                     r"tau=(0\.\d{6}) forest_tau=(0\.\d{6})$", out, re.M)
    det = load_model(model)
    assert line.groups() == (str(model.stat().st_size), f"{det.tau:.6f}", f"{det.forest_tau:.6f}")


def test_train_is_deterministic(cli_env, tmp_path):
    a, b = tmp_path / "a.arlf", tmp_path / "b.arlf"
    for path in (a, b):
        rc = main(["train", "--train", str(cli_env["train"]), "--model", str(path)] + SMALL)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_seed_changes_model(cli_env, tmp_path):
    a, b = tmp_path / "a.arlf", tmp_path / "b.arlf"
    base = ["train", "--train", str(cli_env["train"])]
    assert main(base + ["--model", str(a)] + SMALL) == 0
    assert main(base + ["--model", str(b)] + SMALL[:-1] + ["7"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_train_limit_flag(cli_env, capsys, tmp_path):
    model = tmp_path / "m.arlf"
    rc = main(["train", "--train", str(cli_env["train"]), "--model", str(model),
               "--train-limit", "100"] + SMALL)
    out = capsys.readouterr().out
    assert rc == 0
    assert "samples_seen=100" in out


def test_train_missing_file_is_runtime_error(capsys, tmp_path):
    rc = main(["train", "--train", str(tmp_path / "nope.txt"),
               "--model", str(tmp_path / "m.arlf")] + SMALL)
    assert rc == 1
    assert "nope.txt" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
def test_train_on_a_file_with_no_records_is_one_error_line(capsys, tmp_path, text):
    empty, model = tmp_path / "empty.txt", tmp_path / "m.arlf"
    empty.write_text(text)
    rc = main(["train", "--train", str(empty), "--model", str(model)] + SMALL)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err
    assert "no records" in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_record_file_that_is_not_utf8_is_one_error_line(cli_env, capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(cli_env["train"].read_bytes() + b"\xff\n")
    files = {"train": ["--train", str(bad), "--model", str(tmp_path / "m.arlf")] + SMALL,
             "eval": ["--model", str(cli_env["model"]), "--test", str(bad)]}
    rc = main([command] + files[command])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: {bad}:401: not valid UTF-8" in err
    assert not (tmp_path / "m.arlf").exists()


def test_train_on_a_column_whose_span_overflows_is_one_error_line(cli_env, capsys, tmp_path):
    lines = cli_env["train"].read_text().splitlines()
    for i, value in ((0, "-1e308"), (1, "1e308")):  # column 4 spans more than the float range
        fields = lines[i].split(",")
        fields[4] = value
        lines[i] = ",".join(fields)
    wide = tmp_path / "wide.txt"
    wide.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--train", str(wide), "--model", str(tmp_path / "m.arlf")] + SMALL)
    assert not caught
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "column 4 has (-1e+308, 1e+308)" in err
    assert not (tmp_path / "m.arlf").exists()


def test_bad_flag_values_are_usage_errors(cli_env, capsys, tmp_path):
    model = str(tmp_path / "m.arlf")
    base = ["train", "--train", str(cli_env["train"]), "--model", model]
    for eta in ("0", "nan", "inf"):
        assert main(base + ["--eta", eta]) == 2
    assert main(base + ["--trees", "0"]) == 2
    assert main(base + ["--epochs", "0"]) == 2
    capsys.readouterr()
    # ranges the library requires: build_forest, fit_preprocessor, numpy seeding
    for flags in (["--psi", "1"], ["-m", "42"], ["-m", "0"], ["--seed", "-1"]):
        assert main(base + flags) == 2, flags
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "m.arlf").exists()


@pytest.mark.parametrize("eta", ["1e300", "1e308"])
def test_train_diverging_sgd_fails_without_model(cli_env, capsys, tmp_path, eta):
    model = tmp_path / "m.arlf"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--train", str(cli_env["train"]), "--model", str(model)]
                  + SMALL + ["--eta", eta])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: " in err and "diverged" in err and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--tau", "0.3"],
    ["eval", "--trees", "5"],
    ["eval", "--mode", "baseline-if"],  # each model file holds both thresholds
    ["stream", "--eta", "0.1"],
    ["stream", "--test-limit", "3"],
    ["train", "--test-limit", "3"],
    ["train", "--tau", "0.3"],  # train tunes tau on its training rows
    ["bench", "--tau", "0.3"],
], ids=lambda argv: "_".join(argv).replace("-", ""))
def test_flags_a_command_does_not_read_are_usage_errors(cli_env, capsys, tmp_path, argv):
    files = {"train": ["--train", str(cli_env["train"]), "--model", str(tmp_path / "m.arlf")],
             "bench": ["--train", str(cli_env["train"]), "--test", str(cli_env["test"])],
             "eval": ["--model", str(cli_env["model"]), "--test", str(cli_env["test"])],
             "stream": ["--model", str(cli_env["model"])]}
    assert main(argv[:1] + files[argv[0]] + argv[1:]) == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


# --- eval -----------------------------------------------------------------------

def report_rows(out):
    """The two rows eval and bench print: {mode: (table line, key=value pairs)}."""
    lines = out.splitlines()
    header = next(l for l in lines if l.startswith("model"))
    for col in ("F1-Score", "Memory", "Detection-Time", "per-sample", "Threshold"):
        assert col in header
    rows = {}
    for mode, name in (("arlif", "ARLIF-IDS"), ("baseline-if", "IsolationForest")):
        (table,) = [l for l in lines if l.startswith(name)]
        (machine,) = [l for l in lines if l.startswith(f"mode={mode} ")]
        rows[mode] = table, dict(tok.split("=", 1) for tok in machine.split())
    assert len(lines) == 5  # header, two table rows, two key=value lines
    return rows


def test_eval_both_modes(cli_env, capsys):
    rc = main(["eval", "--model", str(cli_env["model"]), "--test", str(cli_env["test"])])
    rows = report_rows(capsys.readouterr().out)
    assert rc == 0
    det = load_model(cli_env["model"])
    # train tuned tau on the trained layer's replay of its training rows
    train = load_records(cli_env["train"])
    assert det.tau == tune_threshold(replay(det, train)[0], [r.label for r in train])
    assert 0.01 <= det.forest_tau <= 0.99
    test = load_records(cli_env["test"])
    for mode, tau in (("arlif", det.tau), ("baseline-if", det.forest_tau)):
        table, pairs = rows[mode]
        rep = evaluate(det, test, mode)  # each mode at its threshold stored in the model
        assert float(pairs["tau"]) == rep.tau == tau
        assert int(pairs["samples"]) == 200
        assert pairs["f1"] == f"{rep.f1:.6f}" and f" {rep.f1:.4f} " in table
        assert (int(pairs["tp"]), int(pairs["fp"]), int(pairs["fn"]), int(pairs["tn"])) == \
            (rep.confusion.tp, rep.confusion.fp, rep.confusion.fn, rep.confusion.tn)
        assert table.split()[-1] == f"{tau:g}"


def test_bench_prints_what_train_then_eval_print(capsys, tmp_path):
    """The quick start: both read the forest threshold that training tuned and stored."""
    train, test, model = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "ids.arlf"
    write_stream(train, 300, seed=0, attack_rate=0.5)
    write_stream(test, 100, seed=100, attack_rate=0.5)
    small = ["--trees", "10", "--psi", "64", "--eta", "0.001"]
    assert main(["train", "--train", str(train), "--model", str(model)] + small) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--test", str(test)]) == 0
    evaluated = report_rows(capsys.readouterr().out)
    assert main(["bench", "--train", str(train), "--test", str(test)] + small) == 0
    benched = report_rows(capsys.readouterr().out)
    same = ("tau", "samples", "tp", "fp", "fn", "tn", "precision", "recall", "f1", "model_bytes")
    for mode in ("arlif", "baseline-if"):
        assert [evaluated[mode][1][key] for key in same] == [benched[mode][1][key] for key in same]
    assert benched["baseline-if"][1]["f1"] == "0.823529"
    assert benched["baseline-if"][1]["tau"] == "0.490000"


def test_a_refused_allocation_is_one_error_line(cli_env, capsys, monkeypatch):
    """numpy raises MemoryError for an array it cannot allocate; its text is the error line."""
    text = ("Unable to allocate 176. MiB for an array with shape (64, 600, 600) "
            "and data type float64")

    def refused(*shape):
        raise MemoryError(text)
    monkeypatch.setattr(arlif.attention, "workspace", refused)
    rc = main(["eval", "--model", str(cli_env["model"]), "--test", str(cli_env["test"])])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and err == f"error: {text}\n"


def test_eval_corrupt_model(cli_env, capsys, tmp_path):
    bad = tmp_path / "bad.arlf"
    bad.write_bytes(b"not a model at all")
    rc = main(["eval", "--model", str(bad), "--test", str(cli_env["test"])])
    assert rc == 1
    assert capsys.readouterr().err.strip()


_HEADER_FIELDS = ("magic", "version", "flags", "k", "T", "psi", "m", "tau", "forest_tau", "eta",
                  "seen")


def with_header(data, **fields):
    values = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(data)))
    values.update(fields)
    return _HEADER.pack(*values.values()) + data[_HEADER.size:]


def forest_columns(trees):
    """A forest segment of these NODE_DTYPE trees, each field cast as it stands, with no
    check (forest_bytes takes only a forest that loads): each tree's node count, every
    node's feature as i1 and its r as u2 (each crafted file's psi is at most 32767), then
    the thresholds of the nodes whose feature is not negative."""
    nodes = np.concatenate([np.empty(0, NODE_DTYPE), *trees])
    return b"".join([np.array([len(t) for t in trees], "<u4").tobytes(),
                     nodes["f"].astype("i1").tobytes(), nodes["r"].astype("<u2").tobytes(),
                     nodes["t"][nodes["f"] >= 0].tobytes()])


def forest_start(data, det):
    """Offset of the forest segment: its node counts, then the feature column."""
    return data.index(forest_bytes(det.forest))


def with_trees(data, det, trees):
    old = forest_bytes(det.forest)
    start = data.index(old)
    return data[:start] + forest_columns(trees) + data[start + len(old):]


def with_size0(data, det, size):
    """The file with tree 0's node count set to size and every column as it was."""
    start = forest_start(data, det)
    return data[:start] + struct.pack("<I", size) + data[start + 4:]


def every_node_internal(data, det):
    """The file with every node's feature byte set to 0, so that each node claims a
    threshold; the thresholds column holds only the internal nodes' ones."""
    start, n = forest_start(data, det) + 4 * det.forest.n_trees, det.forest.nodes.size
    return data[:start] + bytes(n) + data[start + n:]


def with_tree0(data, det, **node0_fields):
    """The file with tree 0's first internal node (or first leaf) edited."""
    tree = det.forest.trees[0].copy()
    leaf = "leaf" in node0_fields and node0_fields.pop("leaf")
    j = int(np.flatnonzero((tree["f"] < 0) == leaf)[0])
    for name, value in node0_fields.items():
        tree[name][j] = value
    return with_trees(data, det, [tree, *det.forest.trees[1:]])


def too_deep(data, det):
    """Tree 0 replaced by a preorder chain one node deeper than the height limit:
    internal node i's right child is the leaf at 2 * depth - i."""
    depth = det.forest.height_limit + 1
    chain = [(0, 0.5, 2 * depth - i) for i in range(depth)]
    leaves = [(-1, 0.0, 1)] * (depth + 1)
    tree = np.array(chain + leaves, dtype=NODE_DTYPE)
    return with_trees(data, det, [tree, *det.forest.trees[1:]])


def unreached_leaf(data, det):
    """Tree 0 with one more leaf after its last node, which no walk reaches."""
    tree = np.concatenate([det.forest.trees[0], np.array([(-1, 0.0, 1)], dtype=NODE_DTYPE)])
    return with_trees(data, det, [tree, *det.forest.trees[1:]])


def out_of_preorder(data, det):
    """Tree 0 replaced by a tree whose root's right child (node 3) sits between
    the nodes of its left subtree (1, 2 and 4)."""
    nodes = [(0, 0.5, 3), (0, 0.25, 4), (-1, 0.0, 1), (-1, 0.0, 1), (-1, 0.0, 1)]
    return with_trees(data, det, [np.array(nodes, dtype=NODE_DTYPE), *det.forest.trees[1:]])


def selected(data, det, values):
    start = _HEADER.size
    return data[:start] + struct.pack(f"<{len(values)}I", *values) + data[start + 4 * len(values):]


def without_trees(data, det):
    data = with_trees(with_header(data, T=0), det, [])
    return data[: len(data) - det.histories.nbytes]


def attention_start(data, det):
    """Offset of the attention segment (parameters, then histories)."""
    return len(data) - len(attention_params_bytes(det.params)) - det.histories.nbytes


def without_attention(data, det):
    return with_header(data, k=0)[: attention_start(data, det)]


def with_f64(data, offset, value):
    return data[:offset] + struct.pack("<d", value) + data[offset + 8:]


def with_min0(data, det, value):
    """The file with column 0's stored min set to value."""
    return with_f64(data, _HEADER.size + 4 * det.pre.m, value)


CRAFTED = {
    "psi_zero": (lambda b, d: with_header(b, psi=0), "psi >= 2"),
    "psi_one": (lambda b, d: with_header(b, psi=1), "psi >= 2"),
    "version_one": (lambda b, d: with_header(b, version=1), "format version 1,"),
    "version_two": (lambda b, d: with_header(b, version=2), "format version 2,"),
    "version_three": (lambda b, d: with_header(b, version=3), "format version 3,"),
    "flags_extra_bit": (lambda b, d: with_header(b, flags=3), "header flags 0x0003"),
    "no_trees": (without_trees, "got 0 trees"),
    # Each column is checked against the payload before it is viewed, so no count read
    # from the file sizes an allocation: T node counts, n nodes, one threshold per f >= 0.
    "trees_2_32_minus_1": (lambda b, d: with_header(b, T=2 ** 32 - 1), "needed"),
    "nodes_past_payload": (lambda b, d: with_size0(b, d, 2 ** 32 - 1), "needed"),
    "thresholds_past_payload": (every_node_internal, "needed"),
    "window_zero": (without_attention, "window k >= 1 (got 0)"),
    "tree_without_nodes": (lambda b, d: with_trees(b, d, [d.forest.trees[0][:0],
                                                          *d.forest.trees[1:]]), "nonempty trees"),
    "child_not_after_parent": (lambda b, d: with_tree0(b, d, r=0), "j + 1 < right"),
    "right_child_is_left": (lambda b, d: with_tree0(b, d, r=1), "j + 1 < right"),
    "child_past_end": (lambda b, d: with_tree0(b, d, r=len(d.forest.trees[0])), "< n_nodes"),
    "feature_out_of_range": (lambda b, d: with_tree0(b, d, f=d.pre.m), "feature outside"),
    # A leaf's threshold has no place in the file; IsolationForest's tests keep its rule.
    "leaf_feature_minus_two": (lambda b, d: with_tree0(b, d, leaf=True, f=-2),
                               "non-canonical leaf"),
    "leaf_negative_size": (lambda b, d: with_tree0(b, d, leaf=True, r=2**32 - 1),  # -1 as u4
                           "non-canonical leaf"),
    "node_unreached": (unreached_leaf, "not one tree in preorder"),
    "subtrees_out_of_preorder": (out_of_preorder, "not one tree in preorder"),
    "leaf_too_deep": (too_deep, "not reached within"),
    "selected_repeats": (lambda b, d: selected(b, d, [d.pre.selected[0]] * 2), "distinct"),
    "selected_past_41": (lambda b, d: selected(b, d, [41]), "< 41"),
    "vocab_not_utf8": (lambda b, d: b.replace(b"\x03\x00\x00\x00tcp", b"\x03\x00\x00\x00\xfftc"),
                       "not valid UTF-8"),
    "vocab_repeated_token": (lambda b, d: b.replace(b"\x03\x00\x00\x00udp",
                                                    b"\x03\x00\x00\x00tcp", 1),
                             "column 1 vocabulary holds a token twice"),
    "min_max_nan": (lambda b, d: with_min0(b, d, float("nan")), "finite min/max pairs"),
    "min_max_inverted": (lambda b, d: with_min0(b, d, d.pre.min_max[0][1] + 1.0), "min <= max"),
    "tau_above_one": (lambda b, d: with_header(b, tau=2.0), "tau in (0,1)"),
    "tau_nan": (lambda b, d: with_header(b, tau=float("nan")), "tau in (0,1)"),
    "forest_tau_nan": (lambda b, d: with_header(b, forest_tau=float("nan")),
                       "forest_tau in (0,1)"),
    "eta_zero": (lambda b, d: with_header(b, eta=0.0), "finite eta > 0"),
    "eta_inf": (lambda b, d: with_header(b, eta=float("inf")), "finite eta > 0"),
    "param_nan": (lambda b, d: with_f64(b, attention_start(b, d), float("nan")),
                  "parameters must be finite"),
    "history_inf": (lambda b, d: with_f64(b, len(b) - 8, float("inf")), "lie in [0,1]"),
    "history_negative": (lambda b, d: with_f64(b, len(b) - 8, -0.25), "lie in [0,1]"),
}


def eval_rejects(cli_env, capsys, path, message):
    rc = main(["eval", "--model", str(path), "--test", str(cli_env["test"])])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("error:") == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_eval_rejects_crafted_model(cli_env, capsys, tmp_path, case):
    """Each case edits the payload (the file less its CRC-32 trailer) and is resealed,
    so it reaches the rule it names rather than the checksum."""
    craft, message = CRAFTED[case]
    data = cli_env["model"].read_bytes()
    bad = tmp_path / f"{case}.arlf"
    bad.write_bytes(sealed(craft(data[:-4], load_model(cli_env["model"]))))
    assert bad.read_bytes() != data
    eval_rejects(cli_env, capsys, bad, message)


@pytest.fixture(scope="module")
def wide_model(cli_env):
    """A crafted file of 20,000 single-leaf trees at psi 2 and k 10. It loads, and the
    T x T logits of one history matrix alone would take 3.2 GB."""
    data, det = cli_env["model"].read_bytes()[:-4], load_model(cli_env["model"])
    T, k, leaf = 20_000, 10, np.array([(-1, 0.0, 1)], dtype=NODE_DTYPE)
    data = with_trees(with_header(data, T=T, psi=2, k=k), det, [leaf] * T)
    params, histories = np.zeros(arlif.attention.param_count(k)), np.full(T * k, 0.5)
    attention = np.concatenate([params, histories]).astype("<f8")
    path = cli_env["root"] / "wide.arlf"
    path.write_bytes(sealed(data[:attention_start(data, det)] + attention.tobytes()))
    return path


def test_the_20000_tree_file_loads_and_resaves_byte_for_byte(wide_model):
    data = wide_model.read_bytes()
    det = load_model(wide_model)
    assert (det.forest.n_trees, det.forest.psi, det.params.k) == (20_000, 2, 10)
    assert to_bytes(det) == data


def run_capped(args, stdin=b""):
    """python -m arlif.cli in a child whose address space is capped at 2 GiB, so that
    a buffer sized from a large T that got past the size check is refused rather than made."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(arlif.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "arlif.cli", *args], input=stdin, env=env,
                          preexec_fn=cap, capture_output=True, timeout=120)


@pytest.mark.parametrize("command, lines", [("eval", 0), ("stream", 3), ("stream", 1)])
def test_detection_on_the_20000_tree_file_ends_in_one_error_line(cli_env, wide_model,
                                                                 command, lines):
    args = [command, "--model", str(wide_model)]
    if command == "eval":
        args += ["--test", str(cli_env["test"])]
    proc = run_capped(args, "".join(line + "\n" for line in synth_lines(lines, seed=5)).encode())
    err = proc.stderr.decode()
    assert proc.returncode == 1 and proc.stdout == b"", err
    # refused before anything is allocated: a block's stack of one matrix needs its E,
    # and a single record's matrix E and its gradient dE
    size = 8 * 20_000 ** 2 * (2 if lines == 1 else 1)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert (f"needs {size} bytes" in err
            and f"limit of {arlif.attention.WORKSPACE_LIMIT} bytes" in err), err


@pytest.mark.parametrize("where", ["tau", "forest_tau", "param", "history"])
def test_eval_rejects_a_model_with_one_flipped_bit(cli_env, capsys, tmp_path, where):
    data = cli_env["model"].read_bytes()
    det = load_model(cli_env["model"])
    offset = {"tau": 24, "forest_tau": 32}  # after magic, version, flags, k, T, psi and m
    offset["param"] = attention_start(data[:-4], det) + 8 * 7
    offset["history"] = len(data) - 4 - 8 * 3
    buf = bytearray(data)
    buf[offset[where] + 3] ^= 0x10  # a low mantissa bit: the value stays one the rules accept
    bad = tmp_path / "flipped.arlf"
    bad.write_bytes(sealed(bytes(buf[:-4])))
    assert main(["eval", "--model", str(bad), "--test", str(cli_env["test"])]) == 0
    capsys.readouterr()
    bad.write_bytes(bytes(buf))  # only the trailer tells this file from a good one
    eval_rejects(cli_env, capsys, bad, "checksum mismatch")


# --- stream ---------------------------------------------------------------------

def run_stream(monkeypatch, capsys, model, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc = main(["stream", "--model", str(model)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_stream_scores_labeled_rows(cli_env, monkeypatch, capsys):
    text = "\n".join(synth_lines(3, seed=11, attack_rate=0.5)) + "\n"
    rc, out, err = run_stream(monkeypatch, capsys, cli_env["model"], text)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 3
    ns_prev = 0
    for line in lines:
        m = STREAM_LINE.match(line)
        assert m, line
        assert 0.0 < float(m.group(1)) < 1.0
        assert int(m.group(3)) >= ns_prev  # cumulative
        ns_prev = int(m.group(3))


def test_stream_accepts_bare_feature_rows(cli_env, monkeypatch, capsys):
    bare = [",".join(l.split(",")[:41]) for l in synth_lines(4, seed=12)]
    rc, out, err = run_stream(monkeypatch, capsys, cli_env["model"], "\n".join(bare) + "\n")
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 4


def test_stream_is_deterministic_modulo_timing(cli_env, monkeypatch, capsys):
    text = "\n".join(synth_lines(10, seed=13)) + "\n"
    outs = []
    for _ in range(2):
        rc, out, _ = run_stream(monkeypatch, capsys, cli_env["model"], text)
        assert rc == 0
        outs.append([l.rsplit(" ns=", 1)[0] for l in out.splitlines()])
    assert outs[0] == outs[1]

    # 20 lines read whole, at detector.BLOCK as read at the call: observe calls of 7, 7
    # and 6 rows, with the replies of the real BLOCK's one call
    text = "\n".join(synth_lines(20, seed=13)) + "\n"
    sizes = []
    def counting(det, r, **kwargs):
        sizes.append(len(r))
        return observe(det, r, **kwargs)
    monkeypatch.setattr(arlif.cli, "observe", counting)
    for block in (BLOCK, 7):
        monkeypatch.setattr(arlif.detector, "BLOCK", block)
        rc, out, _ = run_stream(monkeypatch, capsys, cli_env["model"], text)
        assert rc == 0
        outs.append([l.rsplit(" ns=", 1)[0] for l in out.splitlines()])
    assert sizes == [20, 7, 7, 6]
    assert len(outs[2]) == 20 and outs[2] == outs[3]


def test_stream_reports_bad_rows_and_continues(cli_env, monkeypatch, capsys):
    good = synth_lines(2, seed=14)
    non_finite = "nan," + good[0].split(",", 1)[1]
    text = "\n".join([good[0], "only,three,fields", "x" * 5, non_finite, good[1]]) + "\n"
    rc, out, err = run_stream(monkeypatch, capsys, cli_env["model"], text)
    assert rc == 0
    assert len(out.splitlines()) == 2  # the two well-formed rows
    assert "line 2" in err and "line 3" in err
    assert "line 4: column 0: 'nan' is not a finite number" in err


@pytest.mark.parametrize("stdin", ["bytes", "text"])
def test_stream_reports_a_line_that_is_not_utf8_and_continues(cli_env, monkeypatch, capsys,
                                                              stdin):
    good = synth_lines(5, seed=16)
    text = "\n".join(good[:3] + ["\udcff"] + good[3:]) + "\n"  # line 4 is the byte 0xff
    if stdin == "bytes":  # a pipe that decodes strictly, as under PYTHONIOENCODING=utf-8:strict
        data = text.encode("utf-8", "surrogateescape")
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    else:  # no bytes to decode: the bad byte arrives as a lone surrogate
        source = io.StringIO(text)
    monkeypatch.setattr(sys, "stdin", source)
    rc = main(["stream", "--model", str(cli_env["model"])])
    out, err = capsys.readouterr()
    assert rc == 0
    assert len(out.splitlines()) == 5
    assert err == "line 4: not valid UTF-8\n"


def observe_loop(model, lines: list[bytes]) -> tuple[list[str], list[int]]:
    """A one-record-at-a-time observe loop over stream lines: each good line's
    reply minus ns=, and the line numbers of the lines it cannot score."""
    det = load_model(model)
    replies, bad = [], []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            if line.count(",") == 40:
                line = line.strip() + ",unlabeled,0"
            res = observe(det, parse_record(line))
        except (UnicodeDecodeError, ArlifError):
            bad.append(lineno)
            continue
        replies.append(f"score={res.score:.9f} pred={res.predicted}")
    return replies, bad


class Pieces:
    """A byte stdin's buffer whose read1 returns 1 to 7 bytes a call, as a
    pipe written in small pieces would; `cuts` records where each read ended."""

    def __init__(self, data: bytes):
        self.data, self.pos, self.cuts = data, 0, []

    def read1(self, n: int) -> bytes:
        size = min(n, 1 + 3 * len(self.cuts) % 7)  # 1, 4, 7, 3, 6, 2, 5, 1, ...
        piece = self.data[self.pos:self.pos + size]
        self.pos += len(piece)
        self.cuts.append(self.pos)
        return piece


def mixed_stream_lines() -> list[bytes]:
    """More good lines than one block holds, around every kind of line the
    reader must handle; the last line has no newline."""
    good = [line.encode() for line in synth_lines(BLOCK + 2, seed=17, attack_rate=0.5)]
    fields = good[0].split(b",")
    fields[1] = "pr\u00f6t\u6f22\U0001f600".encode()  # 2-, 3- and 4-byte characters
    wide = b",".join(fields)
    bare = b",".join(good[2].split(b",")[:41])
    return [wide, b"", good[1] + b"\r", bare, b"  \t", *good[3:9], b"only,three,fields",
            good[9], b"\xff\xfe" + good[10], *good[11:]]  # 65 good


def bare_stream_lines(n: int, seed: int) -> list[bytes]:
    """n bare rows of 41 fields, as a live tap sends them."""
    return [b",".join(line.encode().split(b",")[:41]) for line in synth_lines(n, seed=seed)]


def recording_block_parse(monkeypatch) -> list:
    """Wrap cmd_stream's block parse: for each read, the number of records it
    parsed as a block, or None where the read went line by line."""
    parsed, parse = [], arlif.cli.parse_bare_rows

    def recording(lines):
        records = parse(lines)
        parsed.append(None if records is None else len(records))
        return records
    monkeypatch.setattr(arlif.cli, "parse_bare_rows", recording)
    return parsed


@pytest.mark.parametrize("reads", ["pieces", "whole", "bare"])
def test_stream_reader_equals_an_observe_loop(cli_env, monkeypatch, capsys, reads):
    lines = bare_stream_lines(2 * BLOCK + 5, 20) if reads == "bare" else mixed_stream_lines()
    data = b"\n".join(lines)
    buffer = Pieces(data) if reads == "pieces" else io.BytesIO(data)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=buffer))
    parsed = recording_block_parse(monkeypatch)
    rc = main(["stream", "--model", str(cli_env["model"])])
    out, err = capsys.readouterr()
    expected, bad = observe_loop(cli_env["model"], lines)
    replies = out.splitlines()
    assert rc == 0
    assert [r.rsplit(" ns=", 1)[0] for r in replies] == expected
    if reads == "bare":  # one read of every line but the last, which has no newline
        assert bad == [] and err == "" and len(expected) == len(lines)
        assert parsed == [len(lines) - 1, None] and parsed[0] >= 2 * BLOCK
    else:
        assert bad == [12, 14] and set(parsed) == {None}
        assert err == ("line 12: expected 43 fields for format nsl-kdd, got 3\n"
                       "line 14: not valid UTF-8\n")
        assert len(expected) == BLOCK + 1  # read whole: a block of BLOCK, then one of one line
    ns = [int(STREAM_LINE.match(r).group(3)) for r in replies]
    assert ns == sorted(ns)
    if reads == "pieces":  # a multi-byte character split across reads, as every line is
        inside = set()
        for char in "\u00f6\u6f22\U0001f600":
            start = data.index(char.encode())
            inside.update(range(start + 1, start + len(char.encode())))
        assert inside & set(buffer.cuts)


class OneLine:
    """A byte stdin's buffer whose read1 returns one line a call, as a pipe
    written a line at a time and drained between lines would."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def read1(self, n: int) -> bytes:
        end = self.data.find(b"\n", self.pos, self.pos + n)
        end = len(self.data) if end < 0 else end + 1
        piece, self.pos = self.data[self.pos:end], end
        return piece


def stream_both_ways(monkeypatch, capsys, model, data: bytes):
    """(stdout minus ns=, stderr, the block parse's record) of arlif stream on data
    read whole, then the same of it read one line at a time."""
    runs = []
    for buffer in (io.BytesIO(data), OneLine(data)):
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=buffer))
        parsed = recording_block_parse(monkeypatch)
        assert main(["stream", "--model", str(model)]) == 0
        out, err = capsys.readouterr()
        runs.append(([r.rsplit(" ns=", 1)[0] for r in out.splitlines()], err, parsed))
        monkeypatch.undo()
    return runs


def with_cell(line: bytes, col: int, cell: bytes) -> bytes:
    fields = line.split(b",")
    fields[col] = cell
    return b",".join(fields)


# what goes in place of the middle line of a read of 130 bare rows: the first
# case leaves the read to the block parse, and each other case to the line parse
MIDDLE_LINES = {
    "bare rows only": lambda line: [line],
    **{f"cell {cell!r}": lambda line, cell=cell: [with_cell(line, 5, cell.encode())]
       for cell in ["\x1c1", "1_0", "\u0661", " 1", "1\r", "", "nan", "inf", "1e400", "#1",
                    '"1"']},
    "40 fields": lambda line: [line.rsplit(b",", 1)[0]],
    "42 fields": lambda line: [line + b",0"],
    "40 and 42 fields": lambda line: [line.rsplit(b",", 1)[0], line + b",0"],
    "not UTF-8": lambda line: [with_cell(line, 5, b"\xff")],
    "blank line": lambda line: [line, b""],
}


@pytest.mark.parametrize("case", MIDDLE_LINES)
def test_a_read_replies_as_it_does_line_by_line(cli_env, monkeypatch, capsys, case):
    lines = bare_stream_lines(130, 21)
    lines[64:65] = MIDDLE_LINES[case](lines[64])
    data = b"".join(line + b"\n" for line in lines)
    (whole, whole_err, whole_parsed), (one, one_err, one_parsed) = stream_both_ways(
        monkeypatch, capsys, cli_env["model"], data)
    # one read, then one read a line
    assert whole_parsed == ([130] if case == "bare rows only" else [None])
    assert set(one_parsed) == {None}
    assert whole == one and whole_err == one_err
    # every line but a blank one gets a reply or one line N: report
    assert len(whole) + whole_err.count("\n") == len(lines) - (case == "blank line")


def test_a_clean_read_writes_nothing_to_stderr(cli_env):
    """Over a real pipe, bare rows in one write: no warning from the block parse."""
    lines = bare_stream_lines(130, 22)
    env = dict(os.environ)
    src = str(Path(arlif.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "arlif.cli", "stream", "--model",
                           str(cli_env["model"])], input=b"".join(l + b"\n" for l in lines),
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    expected, _ = observe_loop(cli_env["model"], lines)
    assert [r.rsplit(" ns=", 1)[0] for r in proc.stdout.decode().splitlines()] == expected


def test_stream_reports_a_bad_line_after_the_replies_before_it(cli_env, monkeypatch):
    """With stdout and stderr on one file, as under 2>&1, the lines of one read
    come out in input order."""
    good = [line.encode() for line in synth_lines(4, seed=19)]
    data = b"\n".join([*good[:2], b"only,three,fields", *good[2:]]) + b"\n"
    both = io.StringIO()
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(data)))
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    assert main(["stream", "--model", str(cli_env["model"])]) == 0
    kinds = [line.split("=", 1)[0] if line.startswith("score=") else line.split(":", 1)[0]
             for line in both.getvalue().splitlines()]
    assert kinds == ["score", "score", "line 3", "score", "score"]


class Reads:
    """A byte stdin's buffer whose read1 returns at most `size` bytes a call."""

    def __init__(self, data: bytes, size: int):
        self.data, self.pos, self.size = data, 0, size

    def read1(self, n: int) -> bytes:
        piece = self.data[self.pos:self.pos + min(n, self.size)]
        self.pos += len(piece)
        return piece


@pytest.mark.parametrize("stdin", ["10 KiB reads", "64 KiB reads", "text"])
def test_stream_reports_a_line_past_the_cap_once_and_goes_on(cli_env, monkeypatch, capsys,
                                                            stdin):
    cap = arlif.cli.MAX_LINE_BYTES
    assert cap == 65536
    good = bare_stream_lines(4, 23)
    # a 100 KiB line over several reads, and lines at the cap and one byte past it
    lines = [good[0], b"1," * (50 << 10), good[1], b"x" * cap, good[2], b"y" * (cap + 1),
             good[3]]
    data = b"".join(line + b"\n" for line in lines)
    if stdin == "text":
        source = io.StringIO(data.decode())
    else:
        source = types.SimpleNamespace(buffer=Reads(data, 10 << 10 if stdin[0] == "1" else cap))
    monkeypatch.setattr(sys, "stdin", source)
    rc = main(["stream", "--model", str(cli_env["model"])])
    out, err = capsys.readouterr()
    assert rc == 0
    assert [r.rsplit(" ns=", 1)[0] for r in out.splitlines()] == observe_loop(
        cli_env["model"], good)[0]
    assert err == ("line 2: longer than 65536 bytes\n"
                   "line 4: expected 43 fields for format nsl-kdd, got 1\n"
                   "line 6: longer than 65536 bytes\n")


def test_stream_holds_a_bounded_part_of_a_long_line(cli_env, monkeypatch, capsys):
    """A 32 MiB line with no newline for 512 reads, then a row: its bytes are
    dropped as they arrive instead of kept until its newline."""
    row = bare_stream_lines(1, 24)[0]

    reads = iter([b"7" * (64 << 10)] * 512 + [b"\n" + row + b"\n"])  # one piece, 512 times
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(
        buffer=types.SimpleNamespace(read1=lambda n: next(reads, b""))))
    tracemalloc.start()
    try:
        rc = main(["stream", "--model", str(cli_env["model"])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert rc == 0 and err == "line 1: longer than 65536 bytes\n"
    assert [r.rsplit(" ns=", 1)[0] for r in out.splitlines()] == observe_loop(
        cli_env["model"], [row])[0]
    assert peak < 8e6, peak


def test_the_quick_start_script_passes(tmp_path):
    """tests/quickstart.sh, CI's entry-point checks, run from the repository root
    with `arlif` and `python3` on PATH running this interpreter on this source tree."""
    root = Path(__file__).resolve().parents[1]
    for name, args in (("arlif", " -m arlif.cli"), ("python3", "")):
        (tmp_path / name).write_text(f'#!/bin/sh\nexec "{sys.executable}"{args} "$@"\n')
        (tmp_path / name).chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(tmp_path), os.environ["PATH"]]))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(["bash", "tests/quickstart.sh"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_stream_replies_to_a_line_before_the_next_is_written(cli_env):
    """Over a real pipe: the first line's reply arrives while the stream stays
    open, then a burst is scored like an observe loop."""
    lines = [line.encode() for line in synth_lines(201, seed=18)]
    env = dict(os.environ)
    src = str(Path(arlif.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "arlif.cli", "stream", "--model",
                             str(cli_env["model"])], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        proc.stdin.write(lines[0] + b"\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no reply to the first line within 30 s"
        first = proc.stdout.readline()
        out, err = proc.communicate(b"".join(line + b"\n" for line in lines[1:]), timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0 and err == b""
    replies = [first.decode(), *out.decode().splitlines(keepends=True)]
    expected, _ = observe_loop(cli_env["model"], lines)
    assert [r.rstrip("\n").rsplit(" ns=", 1)[0] for r in replies] == expected


def test_stream_skips_blank_lines(cli_env, monkeypatch, capsys):
    good = synth_lines(2, seed=15)
    text = "\n" + good[0] + "\n\n" + good[1] + "\n\n"
    rc, out, err = run_stream(monkeypatch, capsys, cli_env["model"], text)
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 2


def test_stream_empty_input(cli_env, monkeypatch, capsys):
    rc, out, err = run_stream(monkeypatch, capsys, cli_env["model"], "")
    assert rc == 0 and out == "" and err == ""


def test_stream_missing_model(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    rc = main(["stream", "--model", str(tmp_path / "ghost.arlf")])
    assert rc == 1
    assert "ghost.arlf" in capsys.readouterr().err


# --- bench ----------------------------------------------------------------------

def test_bench_table_and_machine_lines(cli_env, capsys):
    rc = main(["bench", "--train", str(cli_env["train"]),
               "--test", str(cli_env["test"])] + SMALL)
    rows = report_rows(capsys.readouterr().out)
    assert rc == 0
    for table, pairs in rows.values():
        assert 0.0 <= float(pairs["f1"]) <= 1.0
        assert int(pairs["samples"]) == 200
        assert int(pairs["model_bytes"]) > 0
        assert int(pairs["total_detection_ns"]) > 0
        assert float(pairs["latency_mean_ns"]) > 0
        assert re.search(r"\d\.\d{4}\s+\d+B\s+\d+\.\dms\s+\d+\.\dus\s+0\.\d+$", table), table
    # attention layer (60 params) + histories (10 trees x k=4), 8 bytes each
    delta = int(rows["arlif"][1]["model_bytes"]) - int(rows["baseline-if"][1]["model_bytes"])
    assert delta == 8 * (60 + 10 * 4)
    # the model file is the saved bench model: its size is what train reports
    assert int(rows["arlif"][1]["model_bytes"]) == cli_env["model"].stat().st_size
    assert rows["arlif"][1]["tau"] == f"{load_model(cli_env['model']).tau:.6f}"
    assert 0.01 <= float(rows["baseline-if"][1]["tau"]) <= 0.99


def test_bench_missing_test_file(cli_env, capsys, tmp_path):
    rc = main(["bench", "--train", str(cli_env["train"]),
               "--test", str(tmp_path / "absent.txt")] + SMALL)
    assert rc == 1
    assert "absent.txt" in capsys.readouterr().err
