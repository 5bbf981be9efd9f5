"""In-memory spans around the library calls a workload makes.

A span is (name, start, end, parent index, graph id).  Spans are kept in a
list while the workload runs and written out once at the end, so tracing
costs two clock reads and one list append per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.graph = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.graph])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out.setdefault(name, []).append(end - start - inner)
        return out

    def write(self, path: Path, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "graph")
        spans = [dict(zip(keys, s)) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": spans}, indent=1) + "\n")
