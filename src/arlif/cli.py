"""Command-line entry point: train / eval / stream / bench.

Every command is seeded and fully reproducible: identical inputs and flags
give identical non-timing outputs. Reports are printed both as readable
text and as one-line key=value records.
"""

from __future__ import annotations

import argparse
import math
import sys

from .attention import init_params
from .detector import (
    Detector,
    load_model,
    model_size_bytes,
    new_detector,
    observe,
    save_model,
    train_online,
)
from .errors import ArlifError, FieldCountMismatch
from .iforest import build_forest
from .ingest import (
    FORMATS,
    N_FEATURES,
    Record,
    fit_preprocessor,
    load_records,
    parse_record,
    transform,
)
from .metrics import EvalReport, evaluate, tune_baseline_threshold


def _train_detector(args: argparse.Namespace) -> tuple[Detector, object, list, list]:
    """Shared train pipeline; returns (detector, report, train vectors, labels)."""
    records = load_records(args.train, args.format, args.train_limit)
    pre = fit_preprocessor(records, args.m)
    vectors = [transform(pre, r) for r in records]
    forest = build_forest(vectors, args.trees, args.psi, args.seed)
    params = init_params(args.k, args.seed)
    det = new_detector(forest, params, pre, tau=args.tau, eta=args.eta)
    report = train_online(det, records, args.epochs)
    return det, report, vectors, [r.label for r in records]


def cmd_train(args: argparse.Namespace) -> int:
    det, report, _, _ = _train_detector(args)
    save_model(det, args.model)
    for i, loss in enumerate(report.mean_losses, start=1):
        print(f"epoch={i} mean_loss={loss:.6f}")
    print(
        f"model={args.model} model_bytes={model_size_bytes(det)} "
        f"samples_seen={det.samples_seen}"
    )
    return 0


def _print_report(rep: EvalReport) -> None:
    c = rep.confusion
    print(f"[{rep.mode}] samples={c.total} f1={rep.f1:.4f} "
          f"precision={rep.precision:.4f} recall={rep.recall:.4f}")
    print(f"[{rep.mode}] model_bytes={rep.model_bytes} "
          f"total_detection_ms={rep.total_detection_ns / 1e6:.1f} "
          f"per_sample_p50_us={rep.latency_p50_ns / 1e3:.1f}")
    print(rep.key_value_line())


def cmd_eval(args: argparse.Namespace) -> int:
    det = load_model(args.model)
    test = load_records(args.test, args.format, args.test_limit)
    rep = evaluate(det, test, args.mode)
    _print_report(rep)
    return 0


def _parse_stream_line(line: str, fmt: str) -> Record:
    # full configured format first; bare 41-feature rows are accepted too
    # (labels optional, ignored for detection)
    try:
        return parse_record(line, fmt)
    except FieldCountMismatch:
        fields = line.strip().split(",")
        if len(fields) == N_FEATURES:
            return parse_record(line.strip() + ",unlabeled,0", "nsl-kdd")
        raise


def cmd_stream(args: argparse.Namespace) -> int:
    det = load_model(args.model)
    cumulative_ns = 0
    for lineno, line in enumerate(sys.stdin, start=1):
        if not line.strip():
            continue
        try:
            r = _parse_stream_line(line, args.format)
        except ArlifError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            continue
        res = observe(det, r)
        cumulative_ns += res.latency_ns
        print(f"score={res.score:.9f} pred={res.predicted} ns={cumulative_ns}", flush=True)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    det, report, vectors, labels = _train_detector(args)
    tuned = tune_baseline_threshold(det.forest, vectors, labels)
    test = load_records(args.test, args.format, args.test_limit)
    rep_a = evaluate(det, test, "arlif")
    rep_b = evaluate(det, test, "baseline-if", baseline_tau=tuned)

    print(f"{'model':<16} {'F1-Score':>9} {'Memory':>10} {'Detection-Time':>15} {'per-sample':>12}")
    for name, rep in (("ARLIF-IDS", rep_a), ("IsolationForest", rep_b)):
        print(
            f"{name:<16} {rep.f1:>9.4f} {rep.model_bytes:>9}B "
            f"{rep.total_detection_ns / 1e6:>13.1f}ms {rep.latency_mean_ns / 1e3:>10.1f}us"
        )
    for name, rep in (("ARLIF-IDS", rep_a), ("IsolationForest", rep_b)):
        print(
            f"row={name} f1={rep.f1:.6f} model_bytes={rep.model_bytes} "
            f"total_detection_ns={rep.total_detection_ns} "
            f"latency_mean_ns={rep.latency_mean_ns:.1f}"
        )
    print(f"baseline_tau={tuned:.2f}")
    return 0


def _number(kind, ok, bound: str):
    """argparse type: a `kind` value for which `ok` holds, else a usage error."""
    def parse(text: str):
        value = kind(text)  # a ValueError reads "invalid int/float value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


_POSITIVE = _number(int, lambda v: v >= 1, ">= 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arlif",
        description="Streaming intrusion detection: isolation-forest probabilities "
        "fused by an online-trained attention layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="nsl-kdd")

    fit = argparse.ArgumentParser(add_help=False, parents=[fmt])
    fit.add_argument("-m", "--features", dest="m", default=10,
                     type=_number(int, lambda v: 1 <= v <= N_FEATURES, f"in 1..{N_FEATURES}"),
                     help="feature columns kept after ranking (default %(default)s)")
    fit.add_argument("--trees", type=_POSITIVE, default=100,
                     help="forest size T (default %(default)s)")
    fit.add_argument("--psi", type=_number(int, lambda v: v >= 2, ">= 2"), default=256,
                     help="per-tree subsample (default %(default)s)")
    fit.add_argument("-k", "--window", type=_POSITIVE, default=10, dest="k",
                     help="history window length (default %(default)s)")
    fit.add_argument("--eta", type=_number(float, lambda v: 0.0 < v < math.inf,
                                           "a finite number > 0"), default=0.05,
                     help="SGD learning rate (default %(default)s)")
    fit.add_argument("--tau", type=_number(float, lambda v: 0.0 < v < 1.0, "in (0,1)"),
                     default=0.5, help="decision threshold (default %(default)s)")
    fit.add_argument("--epochs", type=_POSITIVE, default=1)
    fit.add_argument("--seed", type=_number(int, lambda v: v >= 0, ">= 0"), default=0)
    fit.add_argument("--train", required=True, help="training record file")
    fit.add_argument("--train-limit", type=_POSITIVE,
                     help="keep only the first N training rows")

    test = argparse.ArgumentParser(add_help=False)
    test.add_argument("--test", required=True, help="labeled test record file")
    test.add_argument("--test-limit", type=_POSITIVE, help="keep only the first N test rows")

    p_train = sub.add_parser("train", parents=[fit], help="fit everything, write a model file")
    p_train.add_argument("--model", required=True, help="output model path")

    p_eval = sub.add_parser("eval", parents=[fmt, test], help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--mode", choices=("arlif", "baseline-if"), default="arlif",
                        help="baseline-if bypasses attention and thresholds the "
                        "forest score at the model's tau (bench instead tunes a threshold "
                        "on the training rows, so its forest F1 can differ)")

    p_stream = sub.add_parser("stream", parents=[fmt],
                              help="score records from stdin, one line per record")
    p_stream.add_argument("--model", required=True)

    sub.add_parser("bench", parents=[fit, test],
                   help="train once, compare ARLIF vs the plain forest")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or --help (0)
        return exc.code
    commands = {"train": cmd_train, "eval": cmd_eval, "stream": cmd_stream, "bench": cmd_bench}
    try:
        return commands[args.command](args)
    except (ArlifError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
