"""In-memory spans around calls into the program's public functions.

A span is (name, start, end, parent index). Spans are recorded only by
the benchmark's own wrappers, installed for the traced run and removed
afterwards; the program is not modified. Self time of a span is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

COST_CALLS = 20_000      # no-op calls timed by Tracer.cost_per_span


def _noop():
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, t0, t1, parent, note]
        self._tls = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        s = getattr(self._tls, "stack", None)
        if s is None:
            s = self._tls.stack = []
        return s

    def wrap(self, owner, attr: str, name: str, note=None,
             prep=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a wrapper
        recording a span per call. ``prep(args, kwargs)`` may add keyword
        arguments before the call; ``note(args, kwargs, result)`` may
        return a value kept with the span (a count observed at the layer
        boundary)."""
        orig = owner[attr] if isinstance(owner, dict) else getattr(owner,
                                                                    attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if prep is not None:
                prep(args, kwargs)
            stack = tracer._stack()
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, None]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            try:
                res = orig(*args, **kwargs)
                if note is not None:
                    span[4] = note(args, kwargs, res)
                return res
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        if isinstance(owner, dict):
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[2] is not None]

    def notes(self, name: str) -> list:
        return [s[4] for s in self.spans if s[0] == name and
                s[4] is not None]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[2] is not None:
                out[s[0]] += (s[2] - s[1]) - child[i]
        return dict(out)

    def children_of(self, idx: int) -> list[list]:
        return [s for s in self.spans if s[3] == idx]

    @staticmethod
    def cost_per_span() -> float:
        """Seconds one wrapper adds to a call, measured on a no-op."""
        box = {"f": _noop}
        t0 = time.perf_counter()
        for _ in range(COST_CALLS):
            _noop()
        bare = time.perf_counter() - t0
        Tracer().wrap(box, "f", "noop")
        traced = box["f"]
        t0 = time.perf_counter()
        for _ in range(COST_CALLS):
            traced()
        return max(time.perf_counter() - t0 - bare, 0.0) / COST_CALLS
