"""In-memory spans for the traced benchmark run.

A span is (id, name, start_ns, end_ns, parent id, request id).  Spans are kept
in a list while the run lasts and written out once at its end.  Counts are
work sizes (blocks found, flips made, ...) recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # request id -> {count name: value}
        self.request = None
        self._parent = None

    def call(self, name, fn, *args):
        span_id = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, span_id
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._parent = parent
            self.spans[span_id] = (span_id, name, start, end, parent, self.request)

    def count(self, name, value):
        per_request = self.counts.setdefault(self.request, {})
        per_request[name] = per_request.get(name, 0) + value

    @contextlib.contextmanager
    def counting(self, name, module, attribute):
        """Count the calls made to `module.attribute` inside the block."""
        original = getattr(module, attribute)
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        setattr(module, attribute, counted)
        try:
            yield
        finally:
            setattr(module, attribute, original)
            self.count(name, calls)


class NullTracer:
    """The same interface doing nothing: the untraced side of the overhead pair."""

    request = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass

    def counting(self, name, module, attribute):
        return contextlib.nullcontext()
