"""In-memory spans and counters recorded around calls into the package.

Spans are taken from outside the program: the benchmark wraps each public
call it makes with Tracer.call, which records name, start, end, parent span
and op id, and counts an exception against the layer the call belongs to
(the part of the name before the first dot).  Nothing is written until the
run ends; then write_jsonl dumps every span, one JSON object per line.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "words",
    "commutators",
    "grope",
    "capped",
    "splitting",
    "moves",
    "pipeline",
    "serialize",
)


def direct_call(name, fn, *args, **kwargs):
    """The untraced stand-in for Tracer.call: no span, no counting."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        # (span id, name, start, end, parent span id, op id); times in ns
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        # The exception type that is the op's correct verdict, set per op;
        # raising it is not counted as a layer error.
        self.expected: type | None = None

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span named name; count an exception as a layer error."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0, 0, parent, self._op))
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            if self.expected is None or not isinstance(e, self.expected):
                self.counts[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self._op)

    def root(self, name: str, op_id: int | None, fn, *args, **kwargs):
        """A root span (an op or its check) whose children share op_id."""
        self._op = op_id
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self._op = None

    def self_seconds(self, since: int = 0) -> dict[str, float]:
        """Per span name, over spans[since:]: duration minus children's."""
        spans = self.spans[since:]
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in spans:
            out[name] += (end - start - child_ns[span_id]) / 1e9
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span_id, name, start, end, parent, op_id in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )
