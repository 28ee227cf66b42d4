"""Benchmark-side tracing: spans around each call into a layer of ``repro``.

A span has a name, a start, an end, a parent and the id of the operation it
belongs to.  Spans are kept in memory and written out once, when the run
ends.  The program's own ``repro.obs`` spans and counters are drained after
every operation (the program keeps at most 8192 span records, so a long pass
would otherwise lose the oldest) and recorded beside the benchmark's spans,
each under the innermost benchmark span that contains it.

When the tracer is disabled, ``span`` records nothing, so the timed runs
measure the program without the benchmark's tracing.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from repro import obs

#: operation id given to the spans of the set-up phase
SETUP_OP = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)
    #: "bench" for the benchmark's own spans, "program" for ``repro.obs`` ones
    source: str = "bench"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        #: ``repro.obs`` counters summed over every drained operation
        self.counters: Counter = Counter()
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._op_first = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op, attrs)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def begin_op(self) -> None:
        """Start the next operation; the program's log starts empty with it."""
        self.op += 1
        self._op_first = len(self.spans)
        obs.reset_spans()
        obs.reset_counters()

    def drain(self) -> None:
        """Move the program's spans and counters of this operation in here."""
        own = [
            i for i in range(self._op_first, len(self.spans))
            if self.spans[i].source == "bench"
        ]
        for rec in obs.spans():
            start, end = rec.start_s, rec.start_s + rec.duration_s
            parent = None
            for i in own:  # innermost = the last one opened that contains it
                s = self.spans[i]
                if s.start <= start and end <= s.end:
                    parent = i
            self.spans.append(
                Span(rec.name, start, end, parent, self.op, dict(rec.meta), "program")
            )
        self.counters.update(obs.counters())
        obs.reset_spans()
        obs.reset_counters()

    def self_times(self) -> dict[int, float]:
        """Self time of every benchmark span: its duration minus the part
        its benchmark children cover (children run inside the parent one
        after another, so the covered part is the sum of their durations)."""
        out = {}
        for i, s in enumerate(self.spans):
            if s.source == "bench":
                out[i] = s.duration
        for s in self.spans:
            if s.source == "bench" and s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans],
                 "counters": dict(self.counters)},
                fh, default=str,
            )
