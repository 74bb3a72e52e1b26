"""Command-line entry point: train / eval / stream / bench.

Every command is seeded and fully reproducible: identical inputs and flags
give identical non-timing outputs. Reports are printed both as readable
text and as one-line key=value records.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .attention import init_params
from .detector import (
    DEFAULT_ETA,
    Detector,
    TrainingReport,
    blocks,
    load_model,
    new_detector,
    observe,
    save_model,
    train_online,
)
from .errors import ArlifError, LineTooLong, NotUtf8
from .iforest import build_forest
from .ingest import (
    FORMATS,
    N_FEATURES,
    Record,
    fit_preprocessor,
    load_records,
    parse_bare_rows,
    parse_record,
    transform,
)
from .metrics import evaluate, replay, tune_baseline_threshold, tune_threshold

# The longest stream line kept, newline excluded, and the most bytes one read of stdin takes:
# a longer line is reported and its bytes dropped as they arrive, so it holds no more memory.
MAX_LINE_BYTES = 64 << 10


def _train_detector(args: argparse.Namespace) -> tuple[Detector, TrainingReport]:
    """Shared train pipeline. Both thresholds are tuned on the training rows:
    forest_tau on the plain forest score, then, after online training, tau on
    the trained layer's scores of a replay of those rows from fresh histories."""
    records = load_records(args.train, args.format, args.train_limit)
    labels = [r.label for r in records]
    pre = fit_preprocessor(records, args.m)
    vectors = transform(pre, records)
    forest = build_forest(vectors, args.trees, args.psi, args.seed)
    forest_tau = tune_baseline_threshold(forest, vectors, labels)
    det = new_detector(forest, init_params(args.k, args.seed), pre, eta=args.eta,
                       forest_tau=forest_tau)
    report = train_online(det, records, args.epochs)
    det.tau = tune_threshold(replay(det, records)[0], labels)
    return det, report


def cmd_train(args: argparse.Namespace) -> int:
    det, report = _train_detector(args)
    model_bytes = save_model(det, args.model)
    for i, loss in enumerate(report.mean_losses, start=1):
        print(f"epoch={i} mean_loss={loss:.6f}")
    print(
        f"model={args.model} model_bytes={model_bytes} samples_seen={det.samples_seen} "
        f"tau={det.tau:.6f} forest_tau={det.forest_tau:.6f}"
    )
    return 0


def _report(det: Detector, args: argparse.Namespace) -> int:
    """What eval and bench print: ARLIF and the plain forest on the test rows, each
    cut at its threshold stored in the model, as a table, then one key=value line each."""
    test = load_records(args.test, args.format, args.test_limit)
    rows = [("ARLIF-IDS", evaluate(det, test, "arlif")),
            ("IsolationForest", evaluate(det, test, "baseline-if"))]
    print(f"{'model':<16} {'F1-Score':>9} {'Memory':>10} {'Detection-Time':>15} "
          f"{'per-sample':>12} {'Threshold':>10}")
    for name, rep in rows:
        print(f"{name:<16} {rep.f1:>9.4f} {rep.model_bytes:>9}B "
              f"{rep.total_detection_ns / 1e6:>13.1f}ms {rep.latency_mean_ns / 1e3:>10.1f}us "
              f"{rep.tau:>10g}")
    for _, rep in rows:
        print(rep.key_value_line())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    return _report(load_model(args.model), args)


def _parse_stream_line(raw: bytes, fmt: str) -> Record | None:
    """A row in the configured format, or a bare row of 41 features (labels are
    optional, ignored for detection), told apart by the field count; None for
    a blank line. raw is None for a line longer than MAX_LINE_BYTES."""
    if raw is None:
        raise LineTooLong(f"longer than {MAX_LINE_BYTES} bytes")
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise NotUtf8("not valid UTF-8") from None
    if not line.strip():
        return None
    if line.count(",") == N_FEATURES - 1:
        return parse_record(line.strip() + ",unlabeled,0", "nsl-kdd")
    return parse_record(line, fmt)


def _pending_lines():
    """stdin's lines, split at each newline byte and without it, in lists of
    those that one read completes; at EOF, a last line that has no newline.
    A line longer than MAX_LINE_BYTES is None: no read is longer, so only a
    line that spans reads can be, and its pieces are dropped once they pass it.

    read1 returns what is pending and blocks only when nothing is, so no line
    waits for a later one. A stdin with no byte layer (an io.StringIO) is read
    whole, then split as reads would be; a lone surrogate in it encodes to
    bytes that are not UTF-8."""
    raw = getattr(sys.stdin, "buffer", None)
    if raw is None:
        data = sys.stdin.read().encode("utf-8", "surrogatepass")
        chunks = (data[i:i + MAX_LINE_BYTES] for i in range(0, len(data), MAX_LINE_BYTES))
    else:
        chunks = iter(lambda: raw.read1(MAX_LINE_BYTES), b"")
    tail, held = [], 0  # the kept pieces of a line no read has completed yet, and its length
    for chunk in chunks:
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


def _reply(det: Detector, run: list[Record], cumulative_ns: int) -> int:
    """Score run block by block as detector.blocks() slices it, one observe call
    and one flushed write of its replies per block; returns cumulative_ns after it.
    ns= is cumulative detection time: the clock is read around each observe
    call alone, and a block's time is spread evenly over its lines.

    A block of one line, which is what each read brings at a low rate, takes
    the single-record path: it gives the same bits in half the time of a block
    of one (65 vs 142 us, best of 41 rounds at T=100, k=10 on a 2-vCPU Xeon
    with one BLAS thread)."""
    for block in blocks(run):
        t0 = time.perf_counter_ns()
        res = observe(det, block[0] if len(block) == 1 else block)
        n, ns = len(block), time.perf_counter_ns() - t0
        scores, preds = np.atleast_1d(res.score).tolist(), np.atleast_1d(res.predicted).tolist()
        print("\n".join(f"score={scores[j]:.9f} pred={preds[j]} "
                        f"ns={cumulative_ns + ns * (j + 1) // n}" for j in range(n)), flush=True)
        cumulative_ns += ns
    return cumulative_ns


def cmd_stream(args: argparse.Namespace) -> int:
    """Score the complete lines of each read as one run. A read of bare rows
    only is parsed as one block (ingest.parse_bare_rows); any other read, and
    one the block parse cannot vouch for, is parsed line by line, and a line
    that cannot be scored, or is longer than MAX_LINE_BYTES, is reported after
    the replies of the lines before it. Both parses give the same records, so
    the replies do not depend on how the reads fall."""
    det = load_model(args.model)
    cumulative_ns = lineno = 0
    for lines in _pending_lines():
        run = None if None in lines else parse_bare_rows(lines)
        if run is None:
            run = []
            for n, raw in enumerate(lines, start=lineno + 1):
                try:
                    r = _parse_stream_line(raw, args.format)
                except ArlifError as exc:
                    cumulative_ns, run = _reply(det, run, cumulative_ns), []
                    print(f"line {n}: {exc}", file=sys.stderr)
                    continue
                if r is not None:
                    run.append(r)
        lineno += len(lines)
        cumulative_ns = _reply(det, run, cumulative_ns)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    return _report(_train_detector(args)[0], args)


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
                                           "a finite number > 0"), default=DEFAULT_ETA,
                     help="SGD learning rate (default %(default)s)")
    fit.add_argument("--epochs", type=_POSITIVE, default=1)
    fit.add_argument("--seed", type=_number(int, lambda v: v >= 0, ">= 0"), default=0)
    fit.add_argument("--train", required=True, help="training record file")
    fit.add_argument("--train-limit", type=_POSITIVE,
                     help="keep only the first N training rows")

    test = argparse.ArgumentParser(add_help=False)
    test.add_argument("--test", required=True, help="labeled test record file")
    test.add_argument("--test-limit", type=_POSITIVE, help="keep only the first N test rows")

    # Flags are spelled in full: an abbreviation would take `eval --mode` for --model.
    p_train = sub.add_parser("train", parents=[fit], allow_abbrev=False,
                             help="fit everything, tune both thresholds, write a model file")
    p_train.add_argument("--model", required=True, help="output model path")

    p_eval = sub.add_parser("eval", parents=[fmt, test], allow_abbrev=False,
                            help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)

    p_stream = sub.add_parser("stream", parents=[fmt], allow_abbrev=False,
                              help="score records from stdin, one line per record")
    p_stream.add_argument("--model", required=True)

    sub.add_parser("bench", parents=[fit, test], allow_abbrev=False,
                   help="train in memory, then print what eval prints")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or --help (0)
        return exc.code
    commands = {"train": cmd_train, "eval": cmd_eval, "stream": cmd_stream, "bench": cmd_bench}
    try:
        return commands[args.command](args)
    except (ArlifError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
