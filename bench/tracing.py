"""In-memory spans recorded by the benchmark around its calls into the library.

A span is (name, start, end, parent index).  Spans are taken in the
benchmark's own code around each call into the library, so a span's time
includes everything the library does inside that call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.records = None  # shot records of the latest tomography op
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._parent()))
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            old = self.spans[idx]
            self.spans[idx] = Span(name, start, end, old.parent)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        self.spans.append(Span(name, start, end, self._parent()))

    def busy(self, name: str, first: int = 0, last: int | None = None) -> float:
        """Summed duration of the spans called ``name`` in ``spans[first:last]``."""
        return sum(s.duration for s in self.spans[first:last] if s.name == name)

    def count(self, name: str, first: int = 0, last: int | None = None) -> int:
        """Number of spans called ``name`` in ``spans[first:last]``."""
        return sum(1 for s in self.spans[first:last] if s.name == name)

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1


def span_cost_s(reps: int = 2000) -> float:
    """Measured cost of opening and closing one empty span, in seconds."""
    tr = Tracer()
    start = perf_counter()
    for _ in range(reps):
        with tr.span("probe"):
            pass
    return (perf_counter() - start) / reps
