"""In-memory span recorder for the traced runs.

A span has a name, an optional tag (the arm it belongs to), a start, an end
and the span it ran inside. Spans stay in memory until the run ends; a
layer's self time is its span's duration minus the durations of its child
spans. Calls run one after another on one thread, so children never overlap.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, tag, start, end, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        rec = [len(self.spans), name, tag, perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def self_times(self, roots: bool = True) -> dict[tuple[str, str], float]:
        """Total self time per (name, tag), leaving out root spans unless ``roots``."""
        child_time = defaultdict(float)
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, name, tag, start, end, parent in self.spans:
            if roots or parent is not None:
                out[(name, tag)] += (end - start) - child_time[sid]
        return dict(out)

    def roots(self, name: str, tag: str = "") -> list[tuple[float, float]]:
        """(duration, time covered by children) of each root span ``name``/``tag``, in order."""
        covered = defaultdict(float)
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (end - start, covered[sid])
            for sid, n, t, start, end, parent in self.spans
            if parent is None and n == name and t == tag
        ]

    def records(self) -> list[dict]:
        keys = ("id", "name", "tag", "start", "end", "parent")
        return [dict(zip(keys, s)) for s in self.spans]
