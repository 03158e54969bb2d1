"""In-memory spans around layer calls, exported as Chrome-trace JSON.

The spine traces from *outside* the program: the harness wraps each call
into a module's public function in a span (name = module path, start,
end, the span that caused it, one id per operation).  Spans stay in
memory until the run ends.  A layer's self time is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int             # spans of one operation share this id
    tid: int


class Tracer:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, op: int = 0) -> int:
        """Record a finished span (used where start and end are on different threads)."""
        span = Span(name, start, end, parent, op, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: int = 0) -> Iterator[int]:
        """Time the body as a span whose parent is the enclosing span, if any."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = self.add(name, time.perf_counter(), float("nan"), parent=parent,
                         op=op if parent is None else self.spans[parent].op)
        stack.append(index)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------ analysis
    def self_times(self) -> list[float]:
        """Per span: duration minus the summed durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def self_by_name(self) -> dict[str, list[float]]:
        """Self times in seconds grouped by span name, in recording order."""
        grouped: dict[str, list[float]] = defaultdict(list)
        for span, self_time in zip(self.spans, self.self_times()):
            grouped[span.name].append(self_time)
        return dict(grouped)

    # ------------------------------------------------------------ export
    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace "complete" events (microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        tids = {tid: i for i, tid in enumerate(sorted({s.tid for s in self.spans}))}
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 0,
                "tid": tids[s.tid],
                "args": {"op": s.op, "parent": s.parent},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
