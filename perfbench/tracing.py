"""In-memory spans around calls into the netnpa layers.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (or -1) and ``op`` the id of the benchmark operation it
belongs to (or -1 outside the measured loop).  The span's layer is the
part of its name before the first dot.  With tracing off, ``call`` and
``span`` do nothing but run the code, so an untraced run pays no
bookkeeping.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    calls: int = 1    # a replay batch records many calls of one function


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op,
                               calls))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans minus their children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s.end - s.start - c)
        return out

    def root_seconds(self, t0: float, t1: float) -> float:
        """Total duration of the top-level spans inside [t0, t1]."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent < 0 and s.start >= t0 and s.end <= t1)

    def write(self, path) -> None:
        records = [{"name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "calls": s.calls}
                   for s in self.spans]
        with open(path, "w") as fh:
            json.dump(records, fh)
