"""In-memory spans for the traced run.

A span records a name, start, end, the span that was open when it
started (its parent), the phase of the run it belongs to (`workload` or
`sweep`) and free attributes.  Spans stay in memory until the run ends
and are then written out as one JSON document.  The untraced run uses `NullTracer`, whose spans
cost one context-manager entry each.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "workload"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, phase: str | None = None) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and (phase is None or s["phase"] == phase)]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span: dict) -> float:
        """Duration minus that of its children (one stack: they never overlap)."""
        return _dur(span) - sum(_dur(c) for c in self.children(span))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, default=repr)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


class NullTracer:
    enabled = False

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})
