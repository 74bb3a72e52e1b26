"""perfbench/run.py's boundaries: the package attributes its tracer wraps and the
calls it reads. CI runs `perfbench/run.py --trace 1`, which fails, or divides by
zero, when one of them goes. The benchmark is imported in a child process,
because run.py sets OPENBLAS_NUM_THREADS on import."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import json, sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import run

attention, detector, ingest, iforest, metrics = (run.attention, run.detector, run.ingest,
                                                 run.iforest, run.metrics)

wanted = [(m, a) for m, a, *_ in run.trace_targets()]
wanted += [(ingest.Record, "features_csv"), (iforest, "path_length"),
           (iforest.IsolationForest, "trees")]
missing = [f"{m.__name__}.{a}" for m, a in wanted if not hasattr(m, a)]

calls = []
parse = ingest.parse_record
def counted(*args, **kwargs):
    calls.append(1)
    return parse(*args, **kwargs)
ingest.parse_record = counted
lines = run.synth.synth_lines(40, seed=0, attack_rate=0.5)
tracer = run.Tracer()
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "rows.txt"
    path.write_text("\n".join(lines) + "\n\n")
    records = ingest.load_records(path)
    ingest.parse_record = parse
    with tracer.active(run.trace_targets(), "work"):
        traced_records = ingest.load_records(path)

# what warm_up and the traced run do with them
bare = [r.features_csv() for r in records]
pre = ingest.fit_preprocessor(records, 4)
vectors = ingest.transform(pre, records)
forest = iforest.build_forest(vectors, 3, 16, 0)
# train and detect as the traced run does, under its tracer
with tracer.active(run.trace_targets(), "work"):
    det = detector.new_detector(forest, attention.init_params(4, 0), pre)
    detector.train_online(det, traced_records)
    metrics.evaluate(det, traced_records, "arlif")
table = run.SpanTable(tracer)
spans = {}
for name in ("detector.train_online", "detector.learn", "detector.observe", "attention.forward",
             "attention.backward", "attention.sgd_step", "ingest.parse_record"):
    try:
        spans[name] = table.count(name)
    except KeyError:  # what the traced run's metrics raise for a span that was not recorded
        spans[name] = 0
print(json.dumps({
    "missing": missing,
    "package": ingest.__file__,
    "rows": len(records),
    "parse_calls": len(calls),
    "bare_back": all(ingest.parse_record(b + ",unlabeled,0").values.tobytes() == r.values.tobytes()
                     for b, r in zip(bare, records)),
    "mean_path_length": run.mean_path_length(forest, vectors),
    "spans": spans,
    "learn_under_train_online": table.children_of("detector.train_online", {"detector.learn"}),
}))
"""


@pytest.fixture(scope="module")
def child():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_perfbench_finds_every_attribute_it_wraps_and_one_parse_call_per_row(child):
    got = child
    assert got["missing"] == []
    assert Path(got["package"]).resolve().is_relative_to(ROOT / "src")
    # ingest.parse_us divides the parse spans' time by their count
    assert got["rows"] == got["parse_calls"] == 40
    assert got["bare_back"]
    assert 0.0 < got["mean_path_length"] < 16.0


def test_the_traced_run_records_every_span_its_metrics_read(child):
    # learn -> observe -> forward per training row, then backward and sgd_step; a
    # detection block is one observe and one forward call
    assert child["spans"] == {"detector.train_online": 1, "detector.learn": 40,
                              "detector.observe": 41, "attention.forward": 41,
                              "attention.backward": 40, "attention.sgd_step": 40,
                              "ingest.parse_record": 40}
    assert child["learn_under_train_online"] == 40
