"""Event-level tracing: individual span/instant events in a ring buffer.

The registry (:mod:`.registry`) aggregates — per-name counters, per
``(name, parent)`` span summaries — which answers "how much overall" but
not "where did *this* request go".  The tracer records individual events
with trace/span identities so one request can be followed from the
client, across the ``repro-rpc/1`` wire, through the daemon's worker
threads, and down into checker/verifier/machine spans:

* a :class:`TraceContext` is the propagation unit — ``(trace_id,
  span_id, sampled)`` — carried in-process by a :class:`contextvars.
  ContextVar` and across process boundaries as a plain ``{"id", "span",
  "sampled"}`` wire dict (the ``trace`` key of an RPC frame);
* a :class:`Tracer` holds a **bounded ring buffer** of completed events
  (oldest dropped first, drop count kept) so a long-running daemon can
  trace forever in constant memory;
* **sampling** is decided once, when a root span is minted: child spans
  inherit the decision, and an unsampled context still propagates its
  IDs (so a sampled downstream hop could stitch) while recording
  nothing.

Like the registry, the process-global tracer is **disabled by default
and free when off**: instrumented code checks ``tracer().enabled`` and
skips all event work on the disabled path.  The registry's
:meth:`~.registry.Registry.span` bridges into the active tracer, so
every existing ``check.fn.<name>`` / ``verify.program`` /
``machine.run`` span shows up in traces with zero changes to the
instrumented modules.

Export is Chrome trace-event JSON (:func:`to_chrome`) — loadable in
Perfetto or ``chrome://tracing``, validated in CI against
``benchmarks/trace.schema.json``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

TRACE_SCHEMA = "repro-trace/1"


def new_trace_id() -> str:
    """A 64-bit hex trace identifier."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A 32-bit hex span identifier."""
    return os.urandom(4).hex()


class TraceContext(NamedTuple):
    """The propagation unit: which trace, which span, and whether the
    root's sampling decision said to record."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_wire(self) -> Dict[str, Any]:
        """The ``trace`` object stamped into ``repro-rpc/1`` frames."""
        return {"id": self.trace_id, "span": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, data: Any) -> Optional["TraceContext"]:
        """Parse a wire dict; malformed context degrades to ``None``
        (a trace must never fail a request)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("id")
        span_id = data.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id, span_id, bool(data.get("sampled", True)))


#: The ambient context of the current task/thread.  ContextVars give
#: correct nesting under asyncio and plain threads alike; crossing an
#: executor boundary needs explicit hand-off (see ``server/daemon.py``).
_current: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`, or ``None`` outside any span."""
    return _current.get()


def current_wire() -> Optional[Dict[str, Any]]:
    """The ambient context as a wire dict (``None`` outside any span)."""
    ctx = _current.get()
    return None if ctx is None else ctx.to_wire()


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install ``ctx`` as the ambient context for a block (used when a
    context arrives over the wire and the receiving code is not itself
    opening a span)."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


class Tracer:
    """A bounded ring buffer of trace events.

    Completed spans append one Chrome ``"X"`` (complete) event; instants
    append ``"i"`` events.  The buffer holds the most recent ``capacity``
    events; older ones are dropped and counted in :attr:`dropped`.
    ``sample`` is the probability a **root** span is recorded — the
    decision is made once per trace and inherited by every child.
    """

    def __init__(
        self,
        capacity: int = 8192,
        sample: float = 1.0,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.capacity = capacity
        self.sample = sample
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._rng = random.Random()

    # -- recording ---------------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)

    def _sample_root(self) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return self._rng.random() < self.sample

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "repro",
        parent: Any = ...,
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Optional[TraceContext]]:
        """Record one span event around a block and make its context
        ambient.

        ``parent`` defaults to the ambient context; pass an explicit
        :class:`TraceContext` to stitch under a remote parent, or
        ``None`` to force a new root (which is where the sampling
        decision is made).  Yields the span's own context so callers can
        put it on the wire (``ctx.to_wire()``).
        """
        if not self.enabled:
            yield current_context()
            return
        if parent is ...:
            parent = current_context()
        if parent is None:
            ctx = TraceContext(new_trace_id(), new_span_id(), self._sample_root())
        else:
            ctx = TraceContext(parent.trace_id, new_span_id(), parent.sampled)
        token = _current.set(ctx)
        ts = time.time() * 1e6  # wall-clock µs: aligns across processes
        t0 = time.perf_counter()
        try:
            yield ctx
        finally:
            _current.reset(token)
            if ctx.sampled:
                event = {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": ts,
                    "dur": (time.perf_counter() - t0) * 1e6,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "args": {
                        "trace_id": ctx.trace_id,
                        "span_id": ctx.span_id,
                        "parent_id": None if parent is None else parent.span_id,
                        **(args or {}),
                    },
                }
                self._emit(event)

    def instant(
        self,
        name: str,
        cat: str = "repro",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one point-in-time event under the ambient context."""
        if not self.enabled:
            return
        ctx = current_context()
        if ctx is not None and not ctx.sampled:
            return
        self._emit(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": time.time() * 1e6,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": {
                    "trace_id": None if ctx is None else ctx.trace_id,
                    "span_id": None if ctx is None else ctx.span_id,
                    "parent_id": None,
                    **(args or {}),
                },
            }
        )

    # -- stitching and export ----------------------------------------------

    def ingest(self, events: List[Dict[str, Any]]) -> int:
        """Fold events exported by another tracer (the daemon's ``trace``
        RPC) into this ring buffer; returns how many
        were accepted.  Malformed entries are skipped, never raised."""
        accepted = 0
        for event in events:
            if not isinstance(event, dict) or "name" not in event or "ts" not in event:
                continue
            self._emit(dict(event))
            accepted += 1
        return accepted

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of the buffered events (oldest first)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"Tracer(enabled={self.enabled}, {len(self._events)} events, "
            f"dropped={self.dropped}, sample={self.sample})"
        )


def to_chrome(tracer: Tracer) -> Dict[str, Any]:
    """The Chrome trace-event document (Perfetto / ``chrome://tracing``
    loadable; shape pinned by ``benchmarks/trace.schema.json``)."""
    events = sorted(tracer.events(), key=lambda e: e.get("ts", 0.0))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "dropped": tracer.dropped},
    }


#: The permanently disabled default — instrumented code sees
#: ``tracer().enabled == False`` and skips all event work.
_NULL = Tracer(capacity=0, enabled=False)
_active = _NULL


def tracer() -> Tracer:
    """The currently active (process-global) tracer."""
    return _active


def set_tracer(tr: Tracer) -> Tracer:
    """Install ``tr`` as the process-global tracer; returns the old one."""
    global _active
    old = _active
    _active = tr
    return old


def enable_tracing(capacity: int = 8192, sample: float = 1.0) -> Tracer:
    """Install and return a fresh enabled tracer."""
    tr = Tracer(capacity=capacity, sample=sample, enabled=True)
    set_tracer(tr)
    return tr


def disable_tracing() -> None:
    """Restore the disabled default tracer."""
    set_tracer(_NULL)


@contextmanager
def use_tracer(tr: Tracer) -> Iterator[Tracer]:
    """Temporarily make ``tr`` the **process-global** tracer.

    Scoped and reentrant; visible from every thread."""
    old = set_tracer(tr)
    try:
        yield tr
    finally:
        set_tracer(old)
