"""Drive ``arlif stream`` as a child process over pipes.

One thread runs one ``selectors`` loop with non-blocking writes, so the
generator never waits on the child: a slow detector shows up as latency and
backlog, and a stalled generator shows up as lateness (``sent_t - due``).
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass
class Fed:
    """What one ``feed`` call saw, indexed like the lines it was given."""

    sent_t: list[float]  # when each line's last byte entered the pipe
    reply_t: list[float]  # when each line's reply was read (missing replies absent)
    replies: list[str]
    backlog: dict[int, int] = field(default_factory=dict)  # mark -> due minus answered


class StreamChild:
    def __init__(self, argv, env, cwd, cpus=None):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, bufsize=0, env=env, cwd=cwd)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self._in = self.proc.stdin.fileno()
        self._out = self.proc.stdout.fileno()
        self._err = self.proc.stderr.fileno()
        for fd in (self._in, self._out, self._err):
            os.set_blocking(fd, False)
        # select(2) takes its timeout in microseconds; epoll and poll round it
        # up to whole milliseconds, which would make the generator up to 1 ms late.
        self._sel = selectors.SelectSelector()
        self._sel.register(self._out, selectors.EVENT_READ)
        self._sel.register(self._err, selectors.EVENT_READ)
        self._eof: set[int] = set()
        self._partial = b""
        self.replies: list[str] = []
        self.reply_t: list[float] = []
        self.stderr = b""

    def _read(self, fd: int, now: float) -> None:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            self._sel.unregister(fd)
            self._eof.add(fd)
        elif fd == self._err:
            self.stderr += chunk
        else:
            *lines, self._partial = (self._partial + chunk).split(b"\n")
            for line in lines:
                self.replies.append(line.decode("utf-8", "replace"))
                self.reply_t.append(now)

    def feed(self, lines: list[bytes], due: list[float], timeout: float, marks=()) -> Fed:
        """Write lines[i] no earlier than due[i]; return once every reply is read.

        Gives up ``timeout`` seconds after the last line fell due. For each
        index in ``marks``, records the backlog (lines due minus lines
        answered) at the moment that line fell due.
        """
        n = len(lines)
        base = len(self.replies)
        sent_t = [0.0] * n
        backlog: dict[int, int] = {}
        pending_marks = deque(sorted(marks))
        buf = bytearray()
        ends: deque[tuple[int, int]] = deque()  # (byte offset of line end, line index)
        queued = written = 0
        i = 0
        writing = False
        deadline = due[-1] + timeout
        while len(self.replies) - base < n and self._out not in self._eof:
            now = time.perf_counter()
            if now > deadline:
                break
            while i < n and due[i] <= now:
                buf += lines[i]
                queued += len(lines[i])
                ends.append((queued, i))
                i += 1
            while pending_marks and pending_marks[0] < i:
                backlog[pending_marks.popleft()] = i - (len(self.replies) - base)
            if buf:
                try:
                    k = os.write(self._in, buf)
                except BlockingIOError:
                    k = 0
                if k:
                    del buf[:k]
                    written += k
                    t = time.perf_counter()
                    while ends and ends[0][0] <= written:
                        sent_t[ends.popleft()[1]] = t
            if bool(buf) != writing:
                writing = bool(buf)
                if writing:
                    self._sel.register(self._in, selectors.EVENT_WRITE)
                else:
                    self._sel.unregister(self._in)
            wait = (due[i] if i < n else deadline) - time.perf_counter()
            for key, _ in self._sel.select(max(wait, 0.0)):
                if key.fd != self._in:
                    self._read(key.fd, time.perf_counter())
        if writing:
            self._sel.unregister(self._in)
        got = self.replies[base:base + n]
        return Fed(sent_t=sent_t, reply_t=self.reply_t[base:base + n], replies=got,
                   backlog=backlog)

    def close(self, timeout: float = 30.0) -> int:
        """Close stdin, drain stdout/stderr to EOF and reap the child."""
        self.proc.stdin.close()
        deadline = time.perf_counter() + timeout
        while len(self._eof) < 2 and time.perf_counter() < deadline:
            for key, _ in self._sel.select(0.1):
                self._read(key.fd, time.perf_counter())
        self._sel.close()
        try:
            rc = self.proc.wait(max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return rc
