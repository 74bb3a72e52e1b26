import io
import re
import struct
import sys
import warnings

import numpy as np
import pytest

from arlif.cli import main
from arlif.detector import _HEADER, attention_params_bytes, forest_bytes, load_model
from arlif.iforest import NODE_DTYPE
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
    assert re.search(rf"^model={re.escape(str(model))} model_bytes=\d+ samples_seen=400$", out, re.M)


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


def test_bad_flag_values_are_usage_errors(cli_env, capsys, tmp_path):
    model = str(tmp_path / "m.arlf")
    base = ["train", "--train", str(cli_env["train"]), "--model", model]
    for eta in ("0", "nan", "inf"):
        assert main(base + ["--eta", eta]) == 2
    assert main(base + ["--tau", "1.5"]) == 2
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
    ["stream", "--eta", "0.1"],
    ["stream", "--test-limit", "3"],
    ["train", "--test-limit", "3"],
], ids=lambda argv: "_".join(argv).replace("-", ""))
def test_flags_a_command_does_not_read_are_usage_errors(cli_env, capsys, tmp_path, argv):
    files = {"train": ["--train", str(cli_env["train"]), "--model", str(tmp_path / "m.arlf")],
             "eval": ["--model", str(cli_env["model"]), "--test", str(cli_env["test"])],
             "stream": ["--model", str(cli_env["model"])]}
    assert main(argv[:1] + files[argv[0]] + argv[1:]) == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


# --- eval -----------------------------------------------------------------------

def test_eval_both_modes(cli_env, capsys):
    for mode in ("arlif", "baseline-if"):
        rc = main(["eval", "--model", str(cli_env["model"]),
                   "--test", str(cli_env["test"]), "--mode", mode])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"[{mode}]" in out
        machine = [l for l in out.splitlines() if l.startswith("mode=")]
        assert len(machine) == 1
        pairs = dict(tok.split("=", 1) for tok in machine[0].split())
        assert pairs["mode"] == mode
        assert int(pairs["samples"]) == 200
        assert 0.0 <= float(pairs["f1"]) <= 1.0


def test_eval_corrupt_model(cli_env, capsys, tmp_path):
    bad = tmp_path / "bad.arlf"
    bad.write_bytes(b"not a model at all")
    rc = main(["eval", "--model", str(bad), "--test", str(cli_env["test"])])
    assert rc == 1
    assert capsys.readouterr().err.strip()


_HEADER_FIELDS = ("magic", "version", "flags", "k", "T", "psi", "m", "tau", "eta", "seen")


def with_header(data, **fields):
    values = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(data)))
    values.update(fields)
    return _HEADER.pack(*values.values()) + data[_HEADER.size:]


def with_trees(data, det, trees):
    old = forest_bytes(det.forest)
    new = b"".join(struct.pack("<I", len(t)) + t.tobytes() for t in trees)
    start = data.index(old)
    return data[:start] + new + data[start + len(old):]


def with_tree0(data, det, **node0_fields):
    """The file with tree 0's first internal node (or first leaf) edited."""
    tree = det.forest.trees[0].copy()
    leaf = "leaf" in node0_fields and node0_fields.pop("leaf")
    j = int(np.flatnonzero((tree["f"] < 0) == leaf)[0])
    for name, value in node0_fields.items():
        tree[name][j] = value
    return with_trees(data, det, [tree, *det.forest.trees[1:]])


def too_deep(data, det):
    """Tree 0 replaced by a valid chain one node deeper than the height limit."""
    depth = det.forest.height_limit + 1
    chain = [(0, 0.5, i + 1, depth + 1 + i, 0, 0) for i in range(depth)]
    leaves = [(-1, 0.0, -1, -1, 1, 1)] * (depth + 1)
    tree = np.array(chain + leaves, dtype=NODE_DTYPE)
    return with_trees(data, det, [tree, *det.forest.trees[1:]])


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


CRAFTED = {
    "psi_zero": (lambda b, d: with_header(b, psi=0), "psi >= 2"),
    "psi_one": (lambda b, d: with_header(b, psi=1), "psi >= 2"),
    "no_trees": (without_trees, "got 0 trees"),
    "window_zero": (without_attention, "window k >= 1 (got 0)"),
    "tree_without_nodes": (lambda b, d: with_trees(b, d, [d.forest.trees[0][:0]]
                                                   + d.forest.trees[1:]), "nonempty trees"),
    "child_not_after_parent": (lambda b, d: with_tree0(b, d, l=0), "parent < child"),
    "child_past_end": (lambda b, d: with_tree0(b, d, r=len(d.forest.trees[0])), "< n_nodes"),
    "feature_out_of_range": (lambda b, d: with_tree0(b, d, f=d.pre.m), "feature outside"),
    "leaf_threshold_set": (lambda b, d: with_tree0(b, d, leaf=True, t=0.5), "non-canonical leaf"),
    "leaf_negative_size": (lambda b, d: with_tree0(b, d, leaf=True, s=-1), "non-canonical leaf"),
    "leaf_too_deep": (too_deep, "not reached within"),
    "selected_repeats": (lambda b, d: selected(b, d, [d.pre.selected[0]] * 2), "distinct"),
    "selected_past_41": (lambda b, d: selected(b, d, [41]), "< 41"),
    "vocab_not_utf8": (lambda b, d: b.replace(b"\x03\x00\x00\x00tcp", b"\x03\x00\x00\x00\xfftc"),
                       "not valid UTF-8"),
    "tau_above_one": (lambda b, d: with_header(b, tau=2.0), "tau in (0,1)"),
    "tau_nan": (lambda b, d: with_header(b, tau=float("nan")), "tau in (0,1)"),
    "eta_zero": (lambda b, d: with_header(b, eta=0.0), "finite eta > 0"),
    "eta_inf": (lambda b, d: with_header(b, eta=float("inf")), "finite eta > 0"),
    "param_nan": (lambda b, d: with_f64(b, attention_start(b, d), float("nan")),
                  "parameters must be finite"),
    "history_inf": (lambda b, d: with_f64(b, len(b) - 8, float("inf")), "lie in [0,1]"),
    "history_negative": (lambda b, d: with_f64(b, len(b) - 8, -0.25), "lie in [0,1]"),
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_eval_rejects_crafted_model(cli_env, capsys, tmp_path, case):
    craft, message = CRAFTED[case]
    data = cli_env["model"].read_bytes()
    bad = tmp_path / f"{case}.arlf"
    bad.write_bytes(craft(data, load_model(cli_env["model"])))
    assert bad.read_bytes() != data
    rc = main(["eval", "--model", str(bad), "--test", str(cli_env["test"])])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


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


def test_stream_reports_bad_rows_and_continues(cli_env, monkeypatch, capsys):
    good = synth_lines(2, seed=14)
    non_finite = "nan," + good[0].split(",", 1)[1]
    text = "\n".join([good[0], "only,three,fields", "x" * 5, non_finite, good[1]]) + "\n"
    rc, out, err = run_stream(monkeypatch, capsys, cli_env["model"], text)
    assert rc == 0
    assert len(out.splitlines()) == 2  # the two well-formed rows
    assert "line 2" in err and "line 3" in err
    assert "line 4: column 0: 'nan' is not a finite number" in err


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
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    header = next(l for l in lines if l.startswith("model"))
    for col in ("F1-Score", "Memory", "Detection-Time", "per-sample"):
        assert col in header
    assert any(l.startswith("ARLIF-IDS") for l in lines)
    assert any(l.startswith("IsolationForest") for l in lines)

    rows = {}
    for l in lines:
        if l.startswith("row="):
            pairs = dict(tok.split("=", 1) for tok in l.split())
            rows[pairs["row"]] = pairs
    assert set(rows) == {"ARLIF-IDS", "IsolationForest"}
    for pairs in rows.values():
        assert 0.0 <= float(pairs["f1"]) <= 1.0
        assert int(pairs["model_bytes"]) > 0
        assert int(pairs["total_detection_ns"]) > 0
        assert float(pairs["latency_mean_ns"]) > 0
    # attention layer (60 params) + histories (10 trees x k=4), 8 bytes each
    delta = int(rows["ARLIF-IDS"]["model_bytes"]) - int(rows["IsolationForest"]["model_bytes"])
    assert delta == 8 * (60 + 10 * 4)

    tau_line = next(l for l in lines if l.startswith("baseline_tau="))
    tau = float(tau_line.split("=", 1)[1])
    assert 0.01 <= tau <= 0.99


def test_bench_missing_test_file(cli_env, capsys, tmp_path):
    rc = main(["bench", "--train", str(cli_env["train"]),
               "--test", str(tmp_path / "absent.txt")] + SMALL)
    assert rc == 1
    assert "absent.txt" in capsys.readouterr().err
