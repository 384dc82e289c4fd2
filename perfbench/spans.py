"""Spans recorded around the benchmark's calls into locglob.

A span covers one call into a public function of one module (layer):
name "<layer>.<function>", start and end from `time.perf_counter`, the
index of the enclosing span, and the id of the operation it belongs to.
Spans stay in memory until the run ends. The untraced runs use
`StepClock`, whose `call` forwards and keeps only the self time of each
call as a step of the current operation, so both modes run the same
benchmark code.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class StepClock:
    """Forwards each call and keeps its self time as one step: its
    duration minus that of the calls made inside it through this clock."""

    def __init__(self):
        self.steps = []
        self._inner = []        # per open call, time of its timed calls

    def begin_op(self, op_id):
        self.steps = []

    def call(self, name, fn, *args, **kwargs):
        self._inner.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.steps.append(elapsed - self._inner.pop())
            if self._inner:
                self._inner[-1] += elapsed


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent, op]
        self._stack = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self._op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per span name: (self seconds, calls). Self time is the span's
        duration minus the time its child spans cover; children of one
        span run one after another on one thread, so they never overlap
        and their durations add up."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = Counter()
        calls = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
            calls[name] += 1
        return totals, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)
