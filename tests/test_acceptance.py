"""Release gate: one test per shipping requirement, each with its own budget.

Run `pytest -v tests/test_acceptance.py` for a one-line pass/fail verdict per
requirement. The two NSL-KDD tests need the real dataset (see conftest for
placement); everything else runs on the bundled synthetic generator.
"""

import io
import re
import sys
import time

import numpy as np
import pytest

from arlif.attention import backward, forward, init_params, param_count
from arlif.cli import main
from arlif.detector import (
    attention_params_bytes,
    forest_bytes,
    from_bytes,
    learn,
    new_detector,
    observe,
    to_bytes,
    train_online,
)
from arlif.iforest import build_forest, c_factor, path_length
from arlif.ingest import fit_preprocessor, transform
from arlif.metrics import evaluate
from conftest import DATA_DIR, requires_dataset, synth_records
from grad_check import fd_grads, grad_errors
from reference import recursive_path, tree_proba
from synth_stream import synth_lines, write_stream


def centered_params(k, seed):
    rng = np.random.default_rng(seed)
    p = init_params(k, seed=seed)
    p.Wq = rng.normal(0, 0.3, (k, k))
    p.Wk = rng.normal(0, 0.3, (k, k))
    p.Wv = np.eye(k) + rng.normal(0, 0.1, (k, k))
    p.bq = rng.normal(0, 0.1, k)
    p.bk = rng.normal(0, 0.1, k)
    p.bv = rng.normal(0, 0.05, k)
    return p


def bench_rows(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    names = {"arlif": "ARLIF-IDS", "baseline-if": "IsolationForest"}
    rows = {}
    for line in out.splitlines():
        if line.startswith("mode="):
            pairs = dict(tok.split("=", 1) for tok in line.split())
            rows[names[pairs["mode"]]] = pairs
    assert set(rows) == {"ARLIF-IDS", "IsolationForest"}
    # the three report columns: accuracy, footprint, speed — in both rows
    for name in ("ARLIF-IDS", "IsolationForest"):
        human = next(l for l in out.splitlines() if l.startswith(name))
        assert re.search(r"\d\.\d{4}\s+\d+B\s+\d+\.\dms\s+\d+\.\dus", human), human
    return rows


def test_criterion_1_parameter_count_law():
    t0 = time.perf_counter()
    for k in range(1, 33):
        expected = 3 * k * (k + 1)
        assert param_count(k) == expected
        p = init_params(k, seed=0)
        assert p.flat.size == expected
        assert len(attention_params_bytes(p)) == 8 * expected
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_gradient_check():
    t0 = time.perf_counter()
    configs = [(k, T) for k in (2, 3, 5) for T in (1, 4, 16)]
    configs.append((3, 5))  # tenth configuration
    worst_rel = worst_abs = 0.0
    for seed, (k, T) in enumerate(configs):
        p = centered_params(k, seed)
        H = np.random.default_rng(seed + 100).uniform(0.1, 0.9, size=(T, k))
        label = seed % 2
        _, cache = forward(p, H)
        assert cache.s == cache.r  # must exercise the live gradient path
        analytic = backward(p, cache, label)
        numeric = fd_grads(p, H, label, h=1e-6)
        rel, abs_small = grad_errors(analytic, numeric)
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, abs_small)
    assert worst_rel < 1e-4
    assert worst_abs < 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_uniform_attention_reduction():
    records = synth_records(160, seed=5, attack_rate=0.4)
    pre = fit_preprocessor(records, 6)
    vectors = [transform(pre, r) for r in records]
    forest = build_forest(vectors, T=20, psi=64, seed=2)
    det = new_detector(forest, init_params(5, seed=0, scale=0.0), pre)
    for r in records[:100]:
        x = transform(pre, r)
        expected = float(np.mean([tree_proba(t, x, forest.c_psi) for t in forest.trees]))
        assert observe(det, r).score == pytest.approx(expected, abs=1e-12)


def test_criterion_4_isolation_forest_oracle():
    data = np.random.default_rng(0).uniform(size=(64, 4))
    forest = build_forest(data, T=10, psi=64, seed=0)
    for tree in forest.trees:
        for x in data:
            assert path_length(tree, x) == recursive_path(tree, x)
    assert c_factor(2) == 1.0
    assert c_factor(256) == pytest.approx(10.2448, abs=1e-3)


@requires_dataset
def test_criterion_5_nsl_kdd_benchmark(capsys):
    t0 = time.perf_counter()
    rows = bench_rows(capsys, [
        "bench",
        "--train", str(DATA_DIR / "KDDTrain+.txt"), "--train-limit", "20000",
        "--test", str(DATA_DIR / "KDDTest+.txt"), "--test-limit", "5000",
    ])
    arlif_f1 = float(rows["ARLIF-IDS"]["f1"])
    if_f1 = float(rows["IsolationForest"]["f1"])
    assert arlif_f1 >= 0.75
    assert arlif_f1 >= if_f1 - 0.02
    assert time.perf_counter() - t0 < 180.0


def synthetic_bench_passes(capsys, tmp_path, attack_rate, test_rows, test_seed):
    """`arlif bench` at the CLI defaults on iid synthetic streams (2000 training
    rows, seed 0) meets criterion 5's bars: no flag sets eta or tau."""
    t0 = time.perf_counter()
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_stream(train, 2000, seed=0, attack_rate=attack_rate)
    write_stream(test, test_rows, seed=test_seed, attack_rate=attack_rate)
    rows = bench_rows(capsys, ["bench", "--train", str(train), "--test", str(test)])
    arlif_f1 = float(rows["ARLIF-IDS"]["f1"])
    if_f1 = float(rows["IsolationForest"]["f1"])
    assert arlif_f1 >= 0.75
    assert arlif_f1 >= if_f1 - 0.02
    assert time.perf_counter() - t0 < 180.0


def test_criterion_5_synthetic_stream_benchmark(capsys, tmp_path):
    synthetic_bench_passes(capsys, tmp_path, attack_rate=0.5, test_rows=1000, test_seed=100)


def test_criterion_5_synthetic_stream_benchmark_at_the_generator_default_rate(capsys, tmp_path):
    # the readout's mean follows the training attack rate, so tau 0.5 cut it wrong here
    synthetic_bench_passes(capsys, tmp_path, attack_rate=0.35, test_rows=5000, test_seed=1)


def test_criterion_6_online_learning_descent():
    records = synth_records(2000, seed=0, attack_rate=0.5)
    pre = fit_preprocessor(records, 10)
    vectors = [transform(pre, r) for r in records]
    forest = build_forest(vectors, T=100, psi=256, seed=0)
    det = new_detector(forest, init_params(10, seed=0), pre, eta=0.001)
    report = train_online(det, records, epochs=2)
    assert len(report.mean_losses) == 2
    assert report.mean_losses[1] <= report.mean_losses[0]


def test_criterion_7_determinism(capsys, tmp_path, monkeypatch):
    train = tmp_path / "train.txt"
    write_stream(train, 400, seed=3, attack_rate=0.4)
    flags = ["--trees", "20", "--psi", "64", "-m", "6", "-k", "4", "--seed", "0"]

    models = []
    for name in ("a.arlf", "b.arlf"):
        path = tmp_path / name
        assert main(["train", "--train", str(train), "--model", str(path)] + flags) == 0
        models.append(path.read_bytes())
    capsys.readouterr()
    assert models[0] == models[1]

    text = "\n".join(synth_lines(50, seed=9, attack_rate=0.4)) + "\n"
    outs = []
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["stream", "--model", str(tmp_path / "a.arlf")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 50
        outs.append([l.rsplit(" ns=", 1)[0] for l in lines])
    assert outs[0] == outs[1]


def test_criterion_8_latency(default_shape):
    records, pre, forest = default_shape
    det = new_detector(forest, init_params(10, seed=0), pre)
    test = synth_records(5000, seed=200, attack_rate=0.5)
    rep = evaluate(det, test, mode="arlif")
    assert rep.latency_p50_ns < 1_000_000  # 1 ms per sample at T=100, k=10
    assert rep.total_detection_ns < 10_000_000_000  # 10 s for 5000 rows


def test_criterion_9_serialization_round_trip(default_shape):
    records, pre, forest = default_shape
    det = new_detector(forest, init_params(10, seed=0), pre, eta=0.001)
    fresh = to_bytes(det)
    assert to_bytes(from_bytes(fresh)) == fresh

    frozen = forest_bytes(det.forest)
    for i in range(1000):
        r = records[i % len(records)]
        learn(det, r, r.label)
    trained = to_bytes(det)
    assert to_bytes(from_bytes(trained)) == trained
    assert forest_bytes(det.forest) == frozen
