"""Command-line entry point: train / eval / stream / bench.

Every command is seeded and fully reproducible: identical inputs and flags
give identical non-timing outputs. Reports are printed both as readable
text and as one-line key=value records.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    format: str = "nsl-kdd"
    train: str | None = None
    test: str | None = None
    model: str | None = None
    m: int = 10
    trees: int = 100
    psi: int = 256
    k: int = 10
    eta: float = 0.05
    tau: float = 0.5
    epochs: int = 1
    seed: int = 0
    train_limit: int | None = None
    test_limit: int | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        for name in ("m", "trees", "psi", "k", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("train_limit", "test_limit"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be a finite number > 0, got {self.eta}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0,1), got {self.tau}")


def _train_detector(cfg: RunConfig) -> tuple[Detector, object, list, list]:
    """Shared train pipeline; returns (detector, report, train vectors, labels)."""
    records = load_records(cfg.train, cfg.format, cfg.train_limit)
    pre = fit_preprocessor(records, cfg.m)
    vectors = [transform(pre, r) for r in records]
    forest = build_forest(vectors, cfg.trees, cfg.psi, cfg.seed)
    params = init_params(cfg.k, cfg.seed)
    det = new_detector(forest, params, pre, tau=cfg.tau, eta=cfg.eta)
    report = train_online(det, records, cfg.epochs)
    return det, report, vectors, [r.label for r in records]


def cmd_train(cfg: RunConfig) -> int:
    det, report, _, _ = _train_detector(cfg)
    save_model(det, cfg.model)
    for i, loss in enumerate(report.mean_losses, start=1):
        print(f"epoch={i} mean_loss={loss:.6f}")
    print(
        f"model={cfg.model} model_bytes={model_size_bytes(det)} "
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


def cmd_eval(cfg: RunConfig, mode: str) -> int:
    det = load_model(cfg.model)
    test = load_records(cfg.test, cfg.format, cfg.test_limit)
    rep = evaluate(det, test, mode)
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


def cmd_stream(cfg: RunConfig) -> int:
    det = load_model(cfg.model)
    cumulative_ns = 0
    for lineno, line in enumerate(sys.stdin, start=1):
        if not line.strip():
            continue
        try:
            r = _parse_stream_line(line, cfg.format)
        except ArlifError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            continue
        res = observe(det, r)
        cumulative_ns += res.latency_ns
        print(f"score={res.score:.9f} pred={res.predicted} ns={cumulative_ns}", flush=True)
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    det, report, vectors, labels = _train_detector(cfg)
    tuned = tune_baseline_threshold(det.forest, vectors, labels)
    test = load_records(cfg.test, cfg.format, cfg.test_limit)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arlif",
        description="Streaming intrusion detection: isolation-forest probabilities "
        "fused by an online-trained attention layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="nsl-kdd")
    common.add_argument("-m", "--features", type=int, default=10, dest="m",
                        help="feature columns kept after ranking (default 10)")
    common.add_argument("--trees", type=int, default=100, help="forest size T (default 100)")
    common.add_argument("--psi", type=int, default=256, help="per-tree subsample (default 256)")
    common.add_argument("-k", "--window", type=int, default=10, dest="k",
                        help="history window length (default 10)")
    common.add_argument("--eta", type=float, default=0.05, help="SGD learning rate (default 0.05)")
    common.add_argument("--tau", type=float, default=0.5, help="decision threshold (default 0.5)")
    common.add_argument("--epochs", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--train-limit", type=int, default=None,
                        help="keep only the first N training rows")
    common.add_argument("--test-limit", type=int, default=None,
                        help="keep only the first N test rows")

    p_train = sub.add_parser("train", parents=[common], help="fit everything, write a model file")
    p_train.add_argument("--train", required=True, help="training record file")
    p_train.add_argument("--model", required=True, help="output model path")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--mode", choices=("arlif", "baseline-if"), default="arlif",
                        help="baseline-if bypasses attention and thresholds the "
                        "forest score at tau")

    p_stream = sub.add_parser("stream", parents=[common],
                              help="score records from stdin, one line per record")
    p_stream.add_argument("--model", required=True)

    p_bench = sub.add_parser("bench", parents=[common],
                             help="train once, compare ARLIF vs the plain forest")
    p_bench.add_argument("--train", required=True)
    p_bench.add_argument("--test", required=True)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        format=args.format,
        train=getattr(args, "train", None),
        test=getattr(args, "test", None),
        model=getattr(args, "model", None),
        m=args.m,
        trees=args.trees,
        psi=args.psi,
        k=args.k,
        eta=args.eta,
        tau=args.tau,
        epochs=args.epochs,
        seed=args.seed,
        train_limit=args.train_limit,
        test_limit=args.test_limit,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.mode)
        if args.command == "stream":
            return cmd_stream(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
    except (ArlifError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
