"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and the id of the span that was open
when it started (its parent). Spans are kept in a list and written out
once, when the run ends. Self time is a span's duration minus the part of
it that its children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False

    def span(self, name: str):
        return _NULL


class Tracer:
    """Tracing on: records (id, name, parent, start, end) per span."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, self._stack[-1] if self._stack else None, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, _, start, end in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (end - start) - covered
        return out

    def by_name(self) -> dict[str, list[float]]:
        """Span name -> list of self times, in recording order."""
        selfs = self.self_times()
        out: dict[str, list[float]] = {}
        for sid, name, *_ in self.spans:
            out.setdefault(name, []).append(selfs[sid])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
