#!/usr/bin/env python3
"""Seeded benchmark for arlif: train, eval and stream workloads.

Run from the repository root:

    python3 perfbench/run.py --workload eval --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that records spans around each layer's
public functions and reports per-layer metrics. Every run prints its
metrics by name and unit, runs the correctness checks, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. It exits 1 if a
check fails. Spans and a fuller result file go to ``perfbench/out/``.
See NOTES.md beside this file for why each workload and metric exists.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in the stream child: the two
# processes together then fit the two vCPUs the benchmark was tuned on.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
SYNTH = ROOT / "tests" / "synth_stream.py"

if not (SRC / "arlif" / "__init__.py").is_file() or not SYNTH.is_file():
    sys.exit(f"perfbench: no arlif checkout around {HERE} (needs src/arlif and tests/synth_stream.py)")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from arlif import attention, cli, detector, iforest, ingest, metrics  # noqa: E402

from streampipe import StreamChild  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402

_spec = importlib.util.spec_from_file_location("synth_stream", SYNTH)
synth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synth)

WORKLOADS = ("train", "eval", "stream")

# Paper defaults; eta is the README's synthetic setting, where no training
# step hits the readout clamp (at the CLI default 0.05 almost all do, and a
# clamped step skips the backward pass this benchmark is meant to time).
M, TREES, PSI, K, TAU, ETA = 10, 100, 256, 10, 0.5, 0.001
TRAIN_ROWS, EVAL_ROWS = 2000, 5000
TRAIN_BLOCK = 250  # train_online rate and learn p50 are taken per block of rows
# eval and stream score seeded traffic with one reference model, as a
# deployment would; a model per seed would make F1 swing with the seed.
REF_SEED = 0
TRAIN_ATTACK, EVAL_ATTACK, STREAM_ATTACK = 0.5, 0.5, 0.1

LOADS_PER_ROUND = 5
WARM_LINES = 300
SAT_SHARE, SAT_NOMINAL = 0.25, 2000  # saturated segments: share of --seconds, lines/s
MIN_LINES = 500
RUNGS = ((500, 0.25), (1000, 0.2), (2000, 0.15), (4000, 0.1))  # lines/s, share of --seconds
P99_LIMIT_MS = 25.0
TRACE_STREAM_LINES = 4000
MIN_PAIRS = 2  # traced/untraced pairs of the same work in a traced run
PATH_SAMPLE = 500
CHILD_TIMEOUT = 60.0
LN2 = math.log(2.0)
CAL_TREES, CAL_DEPTH, CAL_POINTS, CAL_PASSES, CAL_REF_S = 20, 8, 16, 4, 0.006
CAL_WINDOW = 15  # timings of the last five calibration calls

now = time.perf_counter


# --- results -----------------------------------------------------------------

class Calibration:
    """A fixed reference task shaped like arlif's hot path, timed during a run.

    On the shared 2-vCPU virtual machine this benchmark was tuned on, speed
    drifts by up to 1.7x over tens of seconds and minutes, whatever the
    benchmark does: over 60 s windows, the median train_online rate still
    had an interquartile range of 18% of its median. No run length fits that
    into a bound. This task walks fixed random trees
    in pure Python and runs small numpy products, like ``observe``; its data
    is built once and fits in the L2 cache, and a warm-up pass precedes each
    timed pass, so it measures the machine and not arlif's memory layout.
    Over 10 s windows, train_online's rate scaled by it spread 5% against
    20% raw. Gated timings are scaled to a machine on which it takes
    CAL_REF_S; the raw values are printed beside them.
    """

    def __init__(self):
        rng = np.random.default_rng(20220419)
        n = 2 ** (CAL_DEPTH + 1) - 1
        inner = 2 ** CAL_DEPTH - 1
        self._trees = []
        for _ in range(CAL_TREES):
            feature = [int(f) if j < inner else -1 for j, f in enumerate(rng.integers(0, M, n))]
            self._trees.append((feature, rng.random(n).tolist(),
                                [2 * j + 1 for j in range(n)], [2 * j + 2 for j in range(n)]))
        self._points = rng.random((CAL_POINTS, M)).tolist()
        self._H = rng.random((TREES, K))
        self._W = rng.random((K, K))
        self.samples: list[float] = []
        self.last = 1.0  # slowdown measured by the latest sample() call

    def _pass(self) -> float:
        acc = 0.0
        for x in self._points:
            for feature, threshold, left, right in self._trees:
                j, f = 0, feature[0]
                while f >= 0:
                    j = left[j] if x[f] < threshold[j] else right[j]
                    f = feature[j]
                acc += threshold[j]
            q = self._H @ self._W
            a = np.exp(q @ q.T / math.sqrt(K))
            acc += float((a / a.sum(axis=1, keepdims=True) @ q)[:, -1].mean())
        return acc

    def sample(self, times: int = 3) -> float:
        """Time the task; returns and keeps how much slower this machine is
        now than one on which the task takes CAL_REF_S. That is the median
        over the last CAL_WINDOW timings, so a stall in one call is voted down."""
        for _ in range(times):
            self._pass()
            t0 = now()
            for _ in range(CAL_PASSES):
                self._pass()
            self.samples.append(now() - t0)
        self.last = statistics.median(self.samples[-CAL_WINDOW:]) / CAL_REF_S
        return self.last


class Result:
    """Collects metrics, shown values and checks; prints as it goes."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.shown: dict[str, dict] = {}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.cal = Calibration()
        self._timed: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def show(self, name, value, unit, note=""):
        self.shown[name] = {"value": value, "unit": unit, "note": note}
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}", flush=True)

    def metric(self, name, value, unit, note=""):
        """A metric of the final JSON line (also shown)."""
        self.metrics[name] = {"value": value, "unit": unit}
        self.show(name, value, unit, note)

    def add(self, name, raw, slow=None):
        """One sample of a gated timing, with the slowdown measured just before it."""
        self._timed[name].append((raw, self.cal.last if slow is None else slow))

    def timing(self, name, unit, note="", rate=False):
        """Median of a gated timing's samples, each scaled by its calibration
        to a machine where that takes CAL_REF_S; the raw median is shown too."""
        pairs = self._timed[name]
        raw = statistics.median(r for r, _ in pairs)
        value = statistics.median(r * s if rate else r / s for r, s in pairs)
        self.metric(name, value, unit, f"(raw {raw:.6g}) {note}, median of {len(pairs)}")

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def percentile(values, q):
    return float(np.percentile(values, q))


def f1_of(preds, labels) -> float:
    return metrics.f1_score(metrics.confusion_matrix(preds, labels))


def sub_seed(seed: int, stream: int) -> int:
    """Independent input seed per data set of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def write_rows(path: Path, n: int, seed: int, attack_rate: float) -> Path:
    lines = synth.synth_lines(n, seed=seed, attack_rate=attack_rate)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- shared pipeline -----------------------------------------------------------
# Calls go through module attributes (ingest.load_records, ...) so that the
# traced run's wrappers see them.

def build_pipeline(train_path: Path, seed: int):
    records = ingest.load_records(train_path)
    pre = ingest.fit_preprocessor(records, M)
    vectors = [ingest.transform(pre, r) for r in records]
    forest = iforest.build_forest(vectors, TREES, PSI, seed)
    return records, pre, vectors, forest


def fresh_detector(forest, pre, seed: int):
    return detector.new_detector(forest, attention.init_params(K, seed), pre, tau=TAU, eta=ETA)


@dataclass
class Model:
    path: Path
    records: list
    pre: object
    vectors: list
    forest: object
    tuned_tau: float


def make_model(work: Path, seed: int, res: Result) -> Model:
    """Train on TRAIN_ROWS rows, save the model file, tune the IF baseline."""
    train_path = write_rows(work / "train.txt", TRAIN_ROWS, sub_seed(seed, 0), TRAIN_ATTACK)
    records, pre, vectors, forest = build_pipeline(train_path, seed)
    det = fresh_detector(forest, pre, seed)
    before = detector.forest_bytes(forest)
    detector.train_online(det, records)
    res.check("forest_bytes_unchanged_by_training", detector.forest_bytes(forest) == before)
    path = work / "model.arlf"
    detector.save_model(det, path)
    tuned = metrics.tune_baseline_threshold(forest, vectors, [r.label for r in records])
    return Model(path=path, records=records, pre=pre, vectors=vectors, forest=forest,
                 tuned_tau=tuned)


def load_checked(path: Path, res: Result):
    """load_model, asserting save -> load -> re-save gives identical bytes."""
    data = path.read_bytes()
    det = detector.load_model(path)
    res.check("save_load_resave_identical", detector.to_bytes(det) == data)
    return det


def time_loads(path: Path, res: Result) -> None:
    res.cal.sample()
    for _ in range(LOADS_PER_ROUND):
        t0 = now()
        detector.load_model(path)
        res.add("model_load_ms", (now() - t0) * 1e3)


def predicted_from_loss(loss: float, label: int) -> int:
    # At tau = 0.5 the BCE loss crosses ln 2 exactly where the score crosses
    # tau, so learn()'s loss tells what observe() predicted before the update.
    return int(loss <= LN2) if label == 1 else int(loss >= LN2)


def warm_up(work: Path) -> None:
    """First calls of every path on a tiny model, so imports, BLAS start-up
    and lazy set-up are paid before any timing."""
    path = write_rows(work / "warm.txt", 400, 987654321, 0.5)
    records = ingest.load_records(path)
    pre = ingest.fit_preprocessor(records, M)
    vectors = [ingest.transform(pre, r) for r in records]
    forest = iforest.build_forest(vectors, 5, 64, 0)
    det = fresh_detector(forest, pre, 0)
    detector.train_online(det, records[:200])
    metrics.evaluate(det, records[200:], "arlif")
    metrics.evaluate(det, records[200:], "baseline-if")
    metrics.tune_baseline_threshold(forest, vectors, [r.label for r in records])
    detector.save_model(det, work / "warm.arlf")
    detector.load_model(work / "warm.arlf")
    bare = [r.features_csv() for r in records[:20]]
    run_cli_stream(work / "warm.arlf", "\n".join(bare) + "\n")


def mean_path_length(forest, vectors) -> float:
    xs = vectors[:PATH_SAMPLE]
    return float(np.mean([iforest.path_length(t, x) for x in xs for t in forest.trees]))


# --- train ---------------------------------------------------------------------
# Each workload repeats rounds until --seconds have passed, and every round
# takes one sample of each kind. On a shared machine the speed drifts over
# tens of seconds, so spreading every kind of sample over the whole run keeps
# one slow stretch from landing on a single metric.

def train_e2e(work: Path, seed: int, seconds: int, res: Result) -> None:
    path = write_rows(work / "train.txt", TRAIN_ROWS, sub_seed(seed, 0), TRAIN_ATTACK)
    first_forest = detector.forest_bytes(build_pipeline(path, seed)[3])
    model_path = work / "model.arlf"
    p99s, f1s, finals = [], [], set()
    deadline = now() + seconds
    while now() < deadline or not f1s:
        res.cal.sample()
        gc.collect()
        t0 = now()
        records, pre, _, forest = build_pipeline(path, seed)
        res.add("setup_s", now() - t0)
        res.check("forest_build_deterministic", detector.forest_bytes(forest) == first_forest)
        n = len(records)

        res.cal.sample()
        det = fresh_detector(forest, pre, seed)
        for b in range(0, n, TRAIN_BLOCK):
            block = records[b:b + TRAIN_BLOCK]
            t0 = now()
            detector.train_online(det, block)
            res.add("rows_per_s", len(block) / (now() - t0))
        res.check("forest_bytes_unchanged_by_training",
                  detector.forest_bytes(forest) == first_forest)
        finals.add(detector.attention_params_bytes(det.params))

        res.cal.sample()
        per_row = fresh_detector(forest, pre, seed)
        lat, preds = [], []
        for r in records:
            t0 = time.perf_counter_ns()
            loss = detector.learn(per_row, r, r.label)
            lat.append(time.perf_counter_ns() - t0)
            preds.append(predicted_from_loss(loss, r.label))
        for b in range(0, n, TRAIN_BLOCK):
            res.add("p50_ms", percentile(lat[b:b + TRAIN_BLOCK], 50) / 1e6)
        p99s.append(percentile(lat, 99) / 1e6)
        f1s.append(f1_of(preds, [r.label for r in records]))
        finals.add(detector.attention_params_bytes(per_row.params))

        detector.save_model(det, model_path)
        time_loads(model_path, res)
        res.attempted += 2 * n
    res.check("train_online_equals_learn_loop", len(finals) == 1)
    res.check("prequential_f1_deterministic", len(set(f1s)) == 1)
    load_checked(model_path, res)

    res.timing("setup_s", "s", "read+fit+build")
    res.timing("rows_per_s", "1/s",
               f"train.rows_per_s: train_online on blocks of {TRAIN_BLOCK} rows", rate=True)
    res.timing("p50_ms", "ms", f"learn() per row: p50 per block of {TRAIN_BLOCK} rows")
    res.show("p99_ms", statistics.median(p99s), "ms",
             f"raw; learn() per row, median over {len(p99s)} passes of {n} samples")
    res.metric("f1", f1s[0], "1", "prequential (predict, then learn) F1 of one pass")
    res.timing("model_load_ms", "ms", "load_model of the trained file")
    res.show("failed_share", res.failed / res.attempted, "1")
    res.show("detector.model_bytes", model_path.stat().st_size, "B")


# --- eval ----------------------------------------------------------------------

def eval_e2e(work: Path, seed: int, seconds: int, res: Result) -> None:
    model = make_model(work, REF_SEED, res)
    test_path = write_rows(work / "test.txt", EVAL_ROWS, sub_seed(seed, 1), EVAL_ATTACK)
    det = load_checked(model.path, res)
    test = ingest.load_records(test_path)
    n = len(test)
    runs = {mode: [] for mode in metrics.MODES}
    deadline = now() + seconds
    while now() < deadline or not runs["baseline-if"]:
        res.cal.sample()
        gc.collect()
        t0 = now()
        detector.load_model(model.path)
        ingest.load_records(test_path)
        res.add("setup_s", now() - t0)
        time_loads(model.path, res)
        for mode, reps in runs.items():
            before = detector.to_bytes(det)
            gc.collect()
            res.cal.sample()
            t0 = now()
            rep = metrics.evaluate(det, test, mode, baseline_tau=model.tuned_tau)
            reps.append((n / (now() - t0), rep))
            res.check("to_bytes_unchanged_by_evaluate", detector.to_bytes(det) == before)
            res.attempted += n
            if mode == "arlif":
                res.add("rows_per_s", reps[-1][0])
                res.add("p50_ms", rep.latency_p50_ns / 1e6)
    for mode, reps in runs.items():
        res.check(f"{mode}_f1_deterministic", len({rep.f1 for _, rep in reps}) == 1)

    a, b = runs["arlif"], runs["baseline-if"]
    res.timing("setup_s", "s", "load_model+load_records")
    res.timing("rows_per_s", "1/s", f"eval.arlif_rows_per_s: evaluate(arlif) on {n} rows",
               rate=True)
    res.timing("p50_ms", "ms", f"observe() per row: p50 of {n} samples per pass")
    res.show("p99_ms", statistics.median(rep.latency_p99_ns for _, rep in a) / 1e6, "ms",
             f"raw; observe() per row, median over {len(a)} passes of {n} samples")
    res.metric("f1", a[0][1].f1, "1", "f1_arlif")
    res.timing("model_load_ms", "ms", "load_model")
    res.show("eval.if_rows_per_s", statistics.median(r for r, _ in b), "1/s",
             f"raw; evaluate(baseline-if), median of {len(b)} passes x {n} rows")
    res.show("f1_if", b[0][1].f1, "1", f"tuned threshold {model.tuned_tau:.2f}")
    res.show("if.p50_ms", statistics.median(rep.latency_p50_ns for _, rep in b) / 1e6, "ms",
             f"raw; forest_score per row, median over {len(b)} passes of {n} samples")
    res.show("if.p99_ms", statistics.median(rep.latency_p99_ns for _, rep in b) / 1e6, "ms",
             f"raw; forest_score per row, median over {len(b)} passes of {n} samples")
    res.show("failed_share", res.failed / res.attempted, "1")


# --- stream --------------------------------------------------------------------

def stream_rows(n: int, seed: int):
    """Bare 41-field rows as a live tap delivers them, plus their labels."""
    rows = synth.synth_lines(n, seed=sub_seed(seed, 2), attack_rate=STREAM_ATTACK)
    fields = [row.split(",") for row in rows]
    bare = [",".join(f[:ingest.N_FEATURES]) for f in fields]
    labels = [0 if f[ingest.N_FEATURES] == "normal" else 1 for f in fields]
    return bare, labels


def stream_oracle(det, bare) -> list[str]:
    """What ``arlif stream`` must print per line, minus the ns= field."""
    out = []
    for line in bare:
        # the stream command reads a bare 41-field row as an unlabeled nsl-kdd row
        r = detector.observe(det, ingest.parse_record(line + ",unlabeled,0"))
        out.append(f"score={r.score:.9f} pred={r.predicted}")
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def stream_e2e(work: Path, seed: int, seconds: int, res: Result) -> None:
    """Saturated segments, set-up spawns and model loads alternate with the
    open-loop rungs, so each is sampled across the whole run."""
    model = make_model(work, REF_SEED, res)
    n_seg = max(MIN_LINES, int(SAT_SHARE * seconds * SAT_NOMINAL / (len(RUNGS) + 1)))
    rungs = [(rate, max(1, int(rate * share * seconds))) for rate, share in RUNGS]
    n_total = WARM_LINES + n_seg * (len(RUNGS) + 1) + sum(n for _, n in rungs)
    bare, labels = stream_rows(n_total, seed)
    payload = [(line + "\n").encode() for line in bare]
    argv = [sys.executable, "-m", "arlif.cli", "stream", "--model", str(model.path)]
    env = child_env()
    det = load_checked(model.path, res)
    expected = stream_oracle(det, bare)

    rung_stats, phases = [], []  # phases: (first line, end line, slowdown before it)
    # The children run on one CPU and the generator on another. Calibration,
    # set-up spawns and model loads run between phases, on the children's
    # CPU, whose speed can differ from the generator's.
    home = os.sched_getaffinity(0)
    cpus = sorted(home)
    child_cpus = {cpus[-1]} if len(cpus) > 1 else None
    own_cpus = {cpus[0]} if len(cpus) > 1 else home

    def spawn_once():
        """One set-up sample: spawn a child, time its first reply, stop it."""
        one = StreamChild(argv, env, ROOT, child_cpus)
        try:
            fed = one.feed(payload[:1], [now()], CHILD_TIMEOUT)
        finally:
            rc = one.close()
        res.check("stream_child_exit_0", rc == 0)
        res.check("stream_no_stderr", not one.stderr)
        res.check("stream_one_reply_per_line", len(one.replies) == 1)
        res.check("stream_first_reply_equal_in_process_observe",
                  fed.replies[:1] and " ".join(fed.replies[0].split()[:2]) == expected[0])
        res.attempted += 1
        res.failed += 1 - len(fed.replies)
        if fed.reply_t:
            res.add("setup_s", fed.reply_t[0] - one.t_spawn)

    child = StreamChild(argv, env, ROOT, child_cpus)
    try:
        child.feed(payload[:WARM_LINES], [now()] * WARM_LINES, CHILD_TIMEOUT)
        pos = WARM_LINES
        for step in [*rungs, None]:
            os.sched_setaffinity(0, child_cpus or home)
            phases.append((pos, pos + n_seg, res.cal.sample()))
            os.sched_setaffinity(0, own_cpus)
            t0 = now()
            fed = child.feed(payload[pos:pos + n_seg], [t0] * n_seg, CHILD_TIMEOUT)
            pos += n_seg
            if len(fed.reply_t) == n_seg:
                res.add("rows_per_s", n_seg / (fed.reply_t[-1] - t0))
            os.sched_setaffinity(0, child_cpus or home)
            res.cal.sample()
            spawn_once()
            time_loads(model.path, res)
            if step is None:
                break
            rate, n = step
            phases.append((pos, pos + n, res.cal.sample()))
            os.sched_setaffinity(0, own_cpus)
            t0 = now() + 0.01
            due = [t0 + j / rate for j in range(n)]
            fed = child.feed(payload[pos:pos + n], due, CHILD_TIMEOUT, marks=(n // 2, n - 1))
            pos += n
            rung_stats.append(rung_summary(rate, n, due, fed))
    finally:
        rc = child.close()
        os.sched_setaffinity(0, home)
    res.check("stream_child_exit_0", rc == 0)
    err_lines = child.stderr.decode("utf-8", "replace").splitlines()
    res.check("stream_no_stderr", not err_lines)
    replies = child.replies
    res.attempted += n_total
    res.failed += max(n_total - len(replies), 0) + len(err_lines)
    res.check("stream_one_reply_per_line", len(replies) == n_total)
    res.check("stream_scores_equal_in_process_observe",
              [" ".join(r.split()[:2]) for r in replies] == expected)
    if len(replies) != n_total:
        return

    preds = [int(r.split()[1].removeprefix("pred=")) for r in replies]
    # ns= is the child's cumulative detection time; its steps are per-line latencies
    cum = np.array([int(r.split()[2].removeprefix("ns=")) for r in replies])
    for first, end, slow in phases:
        res.add("p50_ms", percentile(np.diff(cum[first - 1:end]) / 1e6, 50), slow)
    detect_ms = np.diff(cum[WARM_LINES - 1:]) / 1e6
    res.timing("setup_s", "s", "spawn to first reply")
    res.timing("rows_per_s", "1/s", f"stream.lines_per_s: saturated segments of {n_seg} lines",
               rate=True)
    res.timing("p50_ms", "ms", "detection time per line as the child reports it, p50 per phase")
    res.show("p99_ms", percentile(detect_ms, 99), "ms",
             f"raw; detection time per line as the child reports it, {len(detect_ms)} samples")
    res.metric("f1", f1_of(preds, labels), "1",
               f"stream predictions, {len(preds)} lines at attack rate {STREAM_ATTACK}")
    res.timing("model_load_ms", "ms", "load_model in-process")
    max_rate = 0
    for s in rung_stats:
        if not s["ok"]:
            break
        max_rate = s["rate"]
    for s in rung_stats:
        rate = s["rate"]
        res.show(f"stream.p50_ms.r{rate}", s["p50_ms"], "ms", f"{s['samples']} samples")
        res.show(f"stream.p99_ms.r{rate}", s["p99_ms"], "ms", f"{s['samples']} samples")
        res.show(f"stream.gen_late_ms.p99.r{rate}", s["late_p99_ms"], "ms")
        res.show(f"stream.gen_late_ms.max.r{rate}", s["late_max_ms"], "ms")
        res.show(f"stream.backlog_end.r{rate}", s["backlog_end"], "lines",
                 f"mid-rung {s['backlog_mid']}, {'growing' if s['growing'] else 'steady'}")
    res.show("stream.max_rate", max_rate, "1/s",
             f"highest rung, with all below it, at p99 <= {P99_LIMIT_MS:g} ms and no growing backlog")
    res.show("failed_share", res.failed / res.attempted, "1")


def rung_summary(rate: int, n: int, due, fed) -> dict:
    lat = [(t - d) * 1e3 for t, d in zip(fed.reply_t, due)]
    late = [(t - d) * 1e3 for t, d in zip(fed.sent_t, due) if t > 0]
    mid, end = fed.backlog.get(n // 2, 0), fed.backlog.get(n - 1, 0)
    growing = end - mid > max(10, 0.05 * (n - n // 2))
    p99 = percentile(lat, 99) if lat else math.inf
    return {
        "rate": rate, "samples": len(lat),
        "p50_ms": percentile(lat, 50) if lat else math.inf, "p99_ms": p99,
        "late_p99_ms": percentile(late, 99) if late else math.inf,
        "late_max_ms": max(late) if late else math.inf,
        "backlog_mid": mid, "backlog_end": end, "growing": growing,
        "ok": len(lat) == n and p99 <= P99_LIMIT_MS and not growing,
    }


# --- traced run ------------------------------------------------------------------

def _clamped(params, cache, label) -> bool:
    return cache.s != cache.r


def trace_targets():
    """(module, attribute, span name[, counter]) for every layer boundary."""
    return [
        (ingest, "load_records", "ingest.load_records"),
        (ingest, "parse_record", "ingest.parse_record"),
        (cli, "parse_record", "ingest.parse_record"),
        (ingest, "fit_preprocessor", "ingest.fit_preprocessor"),
        (ingest, "transform", "ingest.transform"),
        (detector, "transform", "ingest.transform"),
        (metrics, "transform", "ingest.transform"),
        (iforest, "build_forest", "iforest.build_forest"),
        (metrics, "forest_score", "iforest.forest_score"),
        (metrics, "tune_baseline_threshold", "metrics.tune_baseline_threshold"),
        (detector, "forward", "attention.forward"),
        (detector, "backward", "attention.backward", _clamped),
        (detector, "sgd_step", "attention.sgd_step"),
        (detector, "observe", "detector.observe"),
        (metrics, "observe", "detector.observe"),
        (cli, "observe", "detector.observe"),
        (detector, "learn", "detector.learn"),
        (detector, "train_online", "detector.train_online"),
        (detector, "to_bytes", "detector.to_bytes"),
        (detector, "from_bytes", "detector.from_bytes"),
        (detector, "load_model", "detector.load_model"),
        (cli, "load_model", "detector.load_model"),
        (detector, "save_model", "detector.save_model"),
        (metrics, "evaluate", "metrics.evaluate"),
        (cli, "cmd_stream", "cli.cmd_stream"),
    ]


# the workload's own row loop, whose self time per row is loop.self_us
LOOP = {"train": "detector.train_online", "eval": "metrics.evaluate", "stream": "cli.cmd_stream"}
ROW_SPANS = ("detector.learn", "detector.observe", "iforest.forest_score")


def run_cli_stream(model_path: Path, text: str):
    """``arlif stream`` in this process, stdin bound to text; (stdout lines, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["stream", "--model", str(model_path)])
    finally:
        sys.stdin = saved
    if rc != 0:
        raise RuntimeError(f"arlif stream exited {rc}: {err.getvalue()}")
    return out.getvalue().splitlines(), err.getvalue()


def traced_run(workload: str, work: Path, seed: int, seconds: int, res: Result) -> Tracer:
    """Build the model under the tracer, then time the workload's own work
    untraced and traced, alternately until --seconds have passed, for
    ``trace.overhead_share``."""
    tracer = Tracer()
    targets = trace_targets()
    with tracer.active(targets, "work" if workload == "train" else "prep"):
        model = make_model(work, seed if workload == "train" else REF_SEED, res)
    if workload == "train":
        with tracer.active(targets, "work"):
            load_checked(model.path, res)
        rows = model.vectors
        finals = set()

        def job():
            det = fresh_detector(model.forest, model.pre, seed)
            detector.train_online(det, model.records)
            finals.add(detector.attention_params_bytes(det.params))
        n_rows = len(model.records)
    elif workload == "eval":
        test_path = write_rows(work / "test.txt", EVAL_ROWS, sub_seed(seed, 1), EVAL_ATTACK)
        with tracer.active(targets, "work"):
            det = load_checked(model.path, res)
            test = ingest.load_records(test_path)
            before = detector.to_bytes(det)
            metrics.evaluate(det, test, "baseline-if", baseline_tau=model.tuned_tau)
        rows = [ingest.transform(det.pre, r) for r in test]
        finals = set()

        def job():
            finals.add(metrics.evaluate(det, test, "arlif").f1)
        n_rows = len(test)
    else:
        n_rows = TRACE_STREAM_LINES
        bare, _ = stream_rows(n_rows, seed)
        text = "\n".join(bare) + "\n"
        det = detector.load_model(model.path)
        expected = stream_oracle(det, bare)
        rows = [ingest.transform(det.pre, ingest.parse_record(line + ",unlabeled,0"))
                for line in bare[:PATH_SAMPLE]]
        finals = set()

        def job():
            out, err = run_cli_stream(model.path, text)
            finals.add(tuple(" ".join(line.split()[:2]) for line in out))
            res.check("stream_no_stderr", not err)

    untraced, traced = [], []
    deadline = now() + seconds
    while now() < deadline or len(traced) < MIN_PAIRS:
        gc.collect()
        t0 = now()
        job()
        untraced.append(now() - t0)
        gc.collect()
        with tracer.active(targets, "work"):
            t0 = now()
            job()
            traced.append(now() - t0)
        res.attempted += 2 * n_rows
    res.check("traced_run_equals_untraced", len(finals) == 1)
    if workload == "eval":
        res.check("to_bytes_unchanged_by_evaluate", detector.to_bytes(det) == before)
    if workload == "stream":
        out = finals.pop()
        res.check("stream_one_reply_per_line", len(out) == n_rows)
        res.check("stream_scores_equal_in_process_observe", list(out) == expected)

    t = SpanTable(tracer)
    loop = LOOP[workload]
    per_row = t.children_of(loop, ROW_SPANS)
    m = res.metric
    m("ingest.parse_us", t.total_ns("ingest.parse_record") / 1e3
      / t.count("ingest.parse_record", ok_only=True), "us", "per parsed record")
    m("ingest.transform_us", t.mean_us("ingest.transform"), "us")
    m("ingest.fit_s", t.mean_us("ingest.fit_preprocessor") / 1e6, "s")
    m("iforest.build_s", t.mean_us("iforest.build_forest") / 1e6, "s")
    m("iforest.probas_us", t.mean_us("detector.observe", self_time=True), "us",
      "observe self time: tree walks + history shift")
    m("iforest.forest_score_us", t.mean_us("iforest.forest_score"), "us")
    m("iforest.tune_threshold_s", t.mean_us("metrics.tune_baseline_threshold") / 1e6, "s")
    m("iforest.mean_path_length", mean_path_length(model.forest, rows), "count",
      f"depth + c(size), {min(len(rows), PATH_SAMPLE)} rows x {TREES} trees")
    m("attention.forward_us", t.mean_us("attention.forward"), "us")
    m("attention.backward_us", t.mean_us("attention.backward"), "us")
    m("attention.sgd_us", t.mean_us("attention.sgd_step"), "us")
    m("attention.clamped_share", t.counter("attention.backward") / t.count("attention.backward"),
      "1", "training steps with a clamped readout (zero gradient)")
    m("detector.observe_us.p50", t.percentile_us("detector.observe", 50), "us",
      f"{t.count('detector.observe')} samples")
    m("detector.observe_us.p99", t.percentile_us("detector.observe", 99), "us",
      f"{t.count('detector.observe')} samples")
    m("detector.learn_us", t.mean_us("detector.learn"), "us")
    m("detector.to_bytes_ms", t.mean_us("detector.to_bytes") / 1e3, "ms")
    m("detector.from_bytes_ms", t.mean_us("detector.from_bytes") / 1e3, "ms")
    m("detector.model_bytes", model.path.stat().st_size, "B")
    m("loop.self_us", t.total_ns(loop, self_time=True) / 1e3 / per_row, "us",
      f"{loop} self time per row, {per_row} rows")
    # adjacent runs see the same machine speed, so compare within each pair
    m("trace.overhead_share", statistics.median(tr / un for tr, un in zip(traced, untraced)) - 1.0,
      "1", f"traced vs untraced time of the same work, median over {len(traced)} adjacent pairs")
    return tracer


# --- main ----------------------------------------------------------------------

E2E = {"train": train_e2e, "eval": eval_e2e, "stream": stream_e2e}


def run_all(args) -> int:
    worst = 0
    for w in WORKLOADS:
        print(f"=== {w} ===", flush=True)
        rc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], cwd=ROOT).returncode
        worst = max(worst, rc)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT))
    res = Result()
    try:
        warm_up(work)
        if args.trace:
            tracer = traced_run(args.workload, work, args.seed, args.seconds, res)
            tracer.dump(OUT / f"spans-{args.workload}.jsonl")
        else:
            E2E[args.workload](work, args.seed, args.seconds, res)
            cal = res.cal.samples
            res.show("calibration_ms", statistics.median(cal) * 1e3, "ms",
                     f"median of {len(cal)}; reference {CAL_REF_S * 1e3:g} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, ok in res.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "checks": res.checks, "shown": res.shown,
        "correct": res.correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": res.metrics}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
