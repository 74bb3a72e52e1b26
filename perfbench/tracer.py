"""In-memory span tracer that wraps arlif's public functions from outside.

A span is ``[name, start_ns, end_ns, parent, phase, ok]``. Wrapping rebinds
the module attribute a caller resolves at call time (``observe`` looks up
``arlif.detector.forward``, ``cmd_stream`` looks up ``arlif.cli.observe``),
so the package itself is not edited. ``tree_proba`` is deliberately left
unwrapped: it runs once per tree per record, and a span around it would
cost more than the walk it measures. Its time lands in ``observe``'s self
time instead.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "work"
        self._stack: list[int] = []

    def _wrapper(self, orig, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if count is not None and count(*args):
                self.counts[(name, self.phase)] += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self.phase, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = orig(*args, **kwargs)
                span[5] = True
                return out
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def active(self, targets, phase: str):
        """Wrap every ``(module, attr, span_name[, count])`` target, then restore.

        ``count(*args)`` is called before the wrapped function; a true result
        bumps the ``(span_name, phase)`` counter.
        """
        self.phase = phase
        undo = []
        try:
            for module, attr, name, *count in targets:
                orig = getattr(module, attr)
                setattr(module, attr, self._wrapper(orig, name, count[0] if count else None))
                undo.append((module, attr, orig))
            yield self
        finally:
            for module, attr, orig in reversed(undo):
                setattr(module, attr, orig)

    def dump(self, path) -> None:
        """One JSON array per line; the first line names the fields.

        A span's id is its line number minus two; parent -1 is a root."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "phase", "ok"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanTable:
    """Durations and self times per span name.

    Each lookup uses the spans of the ``work`` phase when there are any and
    falls back to the ``prep`` phase, so a layer that only runs while the
    model file is built (backward, build, fit) is still reported.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self._by = defaultdict(list)  # (name, phase) -> [(dur, self, ok, index)]
        for i, (name, t0, t1, _, phase, ok) in enumerate(spans):
            self._by[(name, phase)].append((t1 - t0, t1 - t0 - child_ns[i], ok, i))
        self._spans = spans
        self._counts = tracer.counts

    def phase_of(self, name: str) -> str:
        return "work" if self._by.get((name, "work")) else "prep"

    def rows(self, name: str) -> list[tuple[int, int, bool, int]]:
        rows = self._by.get((name, self.phase_of(name)))
        if not rows:
            raise KeyError(f"no span named {name!r} was recorded")
        return rows

    def mean_us(self, name: str, self_time: bool = False) -> float:
        col = 1 if self_time else 0
        return float(np.mean([r[col] for r in self.rows(name)])) / 1e3

    def total_ns(self, name: str, self_time: bool = False) -> int:
        col = 1 if self_time else 0
        return sum(r[col] for r in self.rows(name))

    def percentile_us(self, name: str, q: float) -> float:
        return float(np.percentile([r[0] for r in self.rows(name)], q)) / 1e3

    def count(self, name: str, ok_only: bool = False) -> int:
        return sum(1 for r in self.rows(name) if r[2] or not ok_only)

    def counter(self, name: str) -> int:
        return self._counts.get((name, self.phase_of(name)), 0)

    def children_of(self, parent_name: str, child_names) -> int:
        """How many spans named in child_names sit directly under parent_name."""
        parents = {r[3] for r in self.rows(parent_name)}
        return sum(1 for s in self._spans if s[3] in parents and s[0] in child_names)
