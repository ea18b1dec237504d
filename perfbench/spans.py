"""In-memory span recorder for the traced run.

Spans are opened by the benchmark around calls into the program's public
per-layer functions, so nothing inside ``src/`` is instrumented.  Each span
is ``(name, start, end, parent, op)``; a layer's self time is its duration
minus the time its child spans cover.  Every op has one root span named
``op`` whose self time is the part no layer claimed
(``trace.unattributed_ms``), so per-layer self times plus that remainder
add up to the traced op wall time exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

ROOT = "op"


class SpanRecorder:
    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, op_id]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        #: Work counts recorded next to the spans (nodes checked, ...).
        self.counts: Dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        self._op = op_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self._op = None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    @property
    def ops(self) -> int:
        return sum(1 for s in self.spans if s[0] == ROOT)

    def op_wall_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == ROOT)

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name (spans inside ops only)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, float] = defaultdict(float)
        for index, s in enumerate(self.spans):
            if s[4] is not None:
                out[s[0]] += (s[2] - s[1]) - child[index]
        return dict(out)

    def write(self, path: str) -> None:
        """One JSON object per span, start/end in microseconds."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[0],
                    "start_us": round(s[1] * 1e6, 1),
                    "end_us": round(s[2] * 1e6, 1),
                    "parent": s[3],
                    "op": s[4],
                }) + "\n")


_NOTHING = contextlib.nullcontext()


class NullRecorder(SpanRecorder):
    """Records nothing: a composition run with it is the untraced baseline
    that ``trace.overhead_ratio`` divides by."""

    def span(self, name: str):
        return _NOTHING

    def count(self, name: str, n: float = 1) -> None:
        pass


@contextlib.contextmanager
def wrapped(rec: SpanRecorder, targets) -> Iterator[None]:
    """Temporarily replace ``(owner, attribute, make_wrapper)`` targets;
    ``make_wrapper(original)`` returns the traced replacement."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def timed_call(rec: SpanRecorder, name: str, after: Optional[Callable] = None):
    """Wrapper factory: run the original inside a span named ``name`` and
    hand the result to ``after`` for counting."""

    def make(original):
        def traced(*args, **kwargs):
            with rec.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    return make
