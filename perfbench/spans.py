"""Benchmark-owned spans around calls into the program's modules.

Nothing here edits the program: :class:`Tracer` wraps the public
callables a run reaches (instance methods, module-level functions where
their callers look them up) in timing closures.  Each span records its
name, parent span, request id and start/end on ``time.perf_counter``.
Spans stay in memory and are written out once, when the run ends.

Layer self time is a span's duration minus the time its child spans
cover.  Child spans run on the parent's thread, one after another, so
that is the sum of the children's durations.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from collections import defaultdict

# (current span id, request id) of the running thread; 0 = no span.
_CURRENT = contextvars.ContextVar("perfbench_span", default=(0, ""))


class Tracer:
    """In-memory span store shared by every wrapper."""

    def __init__(self):
        # (id, parent, request id, name, start, end, value)
        self.spans: list = []
        self._ids = itertools.count(1)

    def wrap(self, fn, name: str, rid_of=None, value_of=None):
        """``fn`` timed as span ``name``.

        ``rid_of(*args, **kwargs)`` names the request a root span starts;
        nested spans inherit their parent's request id.
        ``value_of(result, args)`` gives the span a number (a token
        count, a failure flag), computed after the span ends so that it
        is not timed as part of the layer.
        """
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, rid = _CURRENT.get()
            if rid_of is not None:
                rid = rid_of(*args, **kwargs)
            span_id = next(ids)
            token = _CURRENT.set((span_id, rid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, rid, name, start, clock(), 0))
                raise
            finally:
                _CURRENT.reset(token)
            end = clock()
            value = 0 if value_of is None else value_of(result, args)
            spans.append((span_id, parent, rid, name, start, end, value))
            return result

        return wrapper


class SpanClock:
    """A ``SimulatedLatencyLLM`` clock whose sleeps are ``llm.wait`` spans."""

    def __init__(self, tracer: Tracer):
        self.sleep = tracer.wrap(time.sleep, "llm.wait")

    @staticmethod
    def monotonic() -> float:
        """Seconds on the process monotonic clock."""
        return time.monotonic()


def span_tree(spans: list) -> tuple:
    """``(by_id, children, self_s)`` for a list of span tuples."""
    by_id = {s[0]: s for s in spans}
    children: dict = defaultdict(list)
    covered: dict = defaultdict(float)
    for span_id, parent, _rid, _name, start, end, _value in spans:
        if parent:
            children[parent].append(span_id)
            covered[parent] += end - start
    self_s = {
        s[0]: (s[5] - s[4]) - covered.get(s[0], 0.0) for s in spans
    }
    return by_id, children, self_s

