"""Span recorder for the benchmark.

A span covers one pass ("run"), one job inside it, or one call from the
benchmark into a desctl layer, named ``<module>.<function>``.  Spans are only
kept on traced passes; on untraced passes the recorder keeps the per-layer
counts (states, witness lengths, bytes, steps) and takes no timestamps.  Every
count is also summed per job, so that the runner can compare passes.

Self time of a span is its duration minus the time covered by its children.
Calls nested inside desctl itself (``parallel`` inside
``check_nonconflicting``, ``minimize`` inside ``compile_text``) have no span
of their own and stay in the self time of the call that made them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    job: Optional[str]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Timed:
    """Context manager of a kept span."""

    def __init__(self, rec: "Recorder", span: Span):
        self.rec = rec
        self.span = span

    def __enter__(self):
        self.rec._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.rec._stack.pop()
        self.rec.spans.append(self.span)
        return False

    def add(self, **counts) -> None:
        for key, value in counts.items():
            self.span.counts[key] = self.span.counts.get(key, 0) + value
        self.rec._count(self.span.name, counts)


class _Untimed:
    """Context manager of an untraced call: counts only."""

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, **counts) -> None:
        self.rec._count(self.name, counts)


class Recorder:
    """Spans of the traced passes, and the counts of the current job."""

    def __init__(self):
        self.tracing = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self.job_counts: dict = {}

    def span(self, name: str, job: Optional[str] = None):
        if not self.tracing:
            return _Untimed(self, name)
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        span = Span(id=self._next_id, name=name,
                    parent=None if parent is None else parent.id,
                    job=job if job is not None else (parent.job if parent else None),
                    start=0.0)
        return _Timed(self, span)

    def adopt(self, spans: list[dict]) -> None:
        """Keep spans recorded by a child process as children of the open span.

        ``time.perf_counter`` reads the system-wide monotonic clock, so the
        child's timestamps are comparable with ours.  Their counts stay out of
        the job's counts, which untraced passes must reproduce.
        """
        parent = self._stack[-1]
        for d in spans:
            self._next_id += 1
            span = Span(id=self._next_id, name=d["name"], parent=parent.id, job=parent.job,
                        start=d["start"], end=d["end"], counts=d["counts"])
            self.spans.append(span)

    def _count(self, name: str, counts: dict) -> None:
        for key, value in counts.items():
            k = f"{name}.{key}"
            self.job_counts[k] = self.job_counts.get(k, 0) + value


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def span_dicts(spans: list[Span]) -> list[dict]:
    own = self_times(spans)
    return [{"id": s.id, "name": s.name, "parent": s.parent, "job": s.job,
             "start": s.start, "end": s.end, "self": own[s.id], "counts": s.counts}
            for s in sorted(spans, key=lambda s: s.start)]
