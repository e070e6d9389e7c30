"""In-memory spans around the benchmark's calls into the library.

A span is named ``<layer>.<call>``; the layer is the torusroute module the
call enters, or ``bench`` for the benchmark's own work (jobs, passes,
probes). Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

BENCH_LAYER = "bench"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Nested spans of one thread: id, parent, root, name, start, end."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        rec = [sid, parent, root, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, roots: set[int]) -> list[float]:
        """Durations of the spans called ``name`` under the given roots."""
        return [s[5] - s[4] for s in self.spans
                if s[3] == name and s[2] in roots]

    def self_times(self, roots: set[int]) -> tuple[dict[str, float], float]:
        """(self time per layer, unattributed time) under the given roots.

        A span's self time is its duration minus that of its children. The
        self time of ``bench`` spans is time spent outside every layer call.
        """
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                covered[s[1]] += s[5] - s[4]
        per_layer: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[2] in roots:
                per_layer[layer_of(s[3])] += s[5] - s[4] - covered[s[0]]
        unattributed = per_layer.pop(BENCH_LAYER, 0.0)
        return dict(per_layer), unattributed

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "job": root, "name": name,
                                     "start": start, "end": end}) + "\n")


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null
